// Classical single-bit DPA (Kocher's difference-of-means) as an
// alternative distinguisher to CPA. Traces are partitioned by one
// hypothesized bit of the last-round transition; the correct key guess
// yields the largest mean difference. Historically the first power
// attack; statistically weaker than CPA (it uses one bit of the 8-bit
// hypothesis), which the tests quantify.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "attack/cpa.h"
#include "crypto/aes128.h"

namespace leakydsp::attack {

/// Difference-of-means DPA over a POI window, accumulated by the CPA
/// kernels on 0/1 selection rows: the bit-1 partition's sizes and sums are
/// the hypothesis and cross sums, the bit-0 partition the rest.
class DpaAttack {
 public:
  /// `target_bit` selects which bit of the hypothesized state-register
  /// transition partitions the traces (0..7): Kocher's single-bit
  /// selection function.
  DpaAttack(std::size_t poi_count, int target_bit = 0);

  std::size_t poi_count() const { return sums_.poi_count(); }
  std::size_t trace_count() const { return sums_.trace_count(); }

  /// Accumulates one trace: a batch of one through add_traces.
  void add_trace(const crypto::Block& ciphertext,
                 std::span<const double> poi_samples);

  /// Accumulates a batch laid out as for CpaAttack::add_traces; any batch
  /// split accumulates the same bits.
  void add_traces(std::span<const crypto::Block> ciphertexts,
                  std::span<const double> poi_matrix);

  /// max_k |mean1[k] - mean0[k]| per guess for one key byte. The bit-0
  /// sums are the trace sums minus the bit-1 sums: exact for count
  /// readouts, whose sums are integers.
  ByteScores snapshot_byte(int byte_index) const;

  crypto::RoundKey recovered_round_key() const;

 private:
  int target_bit_;
  /// Row (r << 8 | c)[g] is bit target_bit of InvSbox(c ^ g), XOR r, where
  /// c = CT[i] and r is that bit of CT[sr(i)]: 512 rows, 128 KiB.
  std::vector<std::uint8_t> selection_;
  CpaAttack sums_;
};

}  // namespace leakydsp::attack
