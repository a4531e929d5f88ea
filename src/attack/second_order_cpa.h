// Second-order CPA against first-order Boolean masking.
//
// With masking, the share registers leak L = HD(x^m) + HD(m) + noise whose
// *mean* is independent of the secret x — first-order CPA dies. But the
// *variance* of L over the uniformly random mask m still depends on HD(x):
// the classic countermeasure-vs-attack escalation. The standard
// second-order preprocessing — centering each sample and squaring —
// converts that variance dependence back into a correlatable first moment,
// at the cost of a quadratic SNR penalty (many more traces).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "attack/cpa.h"
#include "crypto/aes128.h"
#include "util/aligned.h"

namespace leakydsp::attack {

/// CPA on centered squares (t - mean)^2 in one pass. The mean is only
/// known at snapshot time, so the attack keeps raw moments and centers
/// them there: the cross sums Σh·t and Σh·t² per (byte, guess, POI) run
/// through CpaAttack::add_traces on rows [t, t²], and Σt³ sits beside the
/// Σt, Σt² and Σt⁴ those rows' trace sums hold. With count readouts every
/// raw sum is an exact integer in a double (140k readouts of at most 48
/// give Σt⁴ ≈ 7.4e11 < 2^53), and the centering runs in long double.
class SecondOrderCpa {
 public:
  explicit SecondOrderCpa(std::size_t poi_count);

  std::size_t poi_count() const { return poi_; }
  std::size_t trace_count() const { return raw_.trace_count(); }

  /// Accumulates one trace (a batch of one through add_traces).
  void add_trace(const crypto::Block& ciphertext,
                 std::span<const double> poi_samples);

  /// Accumulates a batch: `poi_matrix` holds the POI rows of
  /// `ciphertexts.size()` traces back to back, as for CpaAttack.
  void add_traces(std::span<const crypto::Block> ciphertexts,
                  std::span<const double> poi_matrix);

  /// Correlation of each guess's HD hypothesis with the centered squares,
  /// max |rho| over the POI window. Needs at least two traces.
  ByteScores snapshot_byte(int byte_index) const;
  crypto::RoundKey recovered_round_key() const;

 private:
  std::size_t poi_;
  CpaAttack raw_;                      ///< 2 * poi columns: t, then t²
  std::vector<double> sum_t3_;         ///< Σt³ per POI
  util::aligned_vector<double> rows_;  ///< [t, t²] batch scratch
};

}  // namespace leakydsp::attack
