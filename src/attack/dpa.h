// Classical single-bit DPA (Kocher's difference-of-means) as an
// alternative distinguisher to CPA. Traces are partitioned by one
// hypothesized bit of the last-round transition; the correct key guess
// yields the largest mean difference. Historically the first power
// attack; statistically weaker than CPA (it uses one bit of the 8-bit
// hypothesis), which the tests quantify.
#pragma once

#include <array>
#include <cstddef>
#include <span>
#include <vector>

#include "attack/cpa.h"
#include "crypto/aes128.h"

namespace leakydsp::attack {

/// Difference-of-means DPA over a POI window.
class DpaAttack {
 public:
  /// `target_bit` selects which bit of the hypothesized state-register
  /// transition partitions the traces (0..7): Kocher's single-bit
  /// selection function.
  DpaAttack(std::size_t poi_count, int target_bit = 0);

  std::size_t poi_count() const { return poi_; }
  std::size_t trace_count() const { return traces_; }

  void add_trace(const crypto::Block& ciphertext,
                 std::span<const double> poi_samples);

  /// max_k |mean1[k] - mean0[k]| per guess for one key byte.
  ByteScores snapshot_byte(int byte_index) const;

  crypto::RoundKey recovered_round_key() const;

 private:
  std::size_t poi_;
  int target_bit_;
  std::size_t traces_ = 0;
  // Per (byte, guess, partition): count and per-POI sums.
  struct Partition {
    std::size_t count = 0;
    std::vector<double> sum;  // [poi]
  };
  std::array<std::array<std::array<Partition, 2>, 256>, 16> parts_;
};

}  // namespace leakydsp::attack
