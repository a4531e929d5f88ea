#include "attack/dpa.h"

#include <cmath>

#include "attack/power_model.h"
#include "util/contracts.h"

namespace leakydsp::attack {

DpaAttack::DpaAttack(std::size_t poi_count, int target_bit)
    : poi_(poi_count), target_bit_(target_bit) {
  LD_REQUIRE(poi_ >= 1, "need at least one point of interest");
  LD_REQUIRE(target_bit_ >= 0 && target_bit_ < 8, "target bit out of 0..7");
  for (auto& per_byte : parts_) {
    for (auto& per_guess : per_byte) {
      for (auto& partition : per_guess) {
        partition.sum.assign(poi_, 0.0);
      }
    }
  }
}

void DpaAttack::add_trace(const crypto::Block& ciphertext,
                          std::span<const double> poi_samples) {
  LD_REQUIRE(poi_samples.size() == poi_,
             "expected " << poi_ << " POI samples, got "
                         << poi_samples.size());
  ++traces_;
  for (int b = 0; b < 16; ++b) {
    auto& per_guess = parts_[static_cast<std::size_t>(b)];
    for (int g = 0; g < 256; ++g) {
      // Kocher's selection function: does the chosen state-register bit
      // flip in the last round under this guess?
      const std::uint8_t z = last_round_transition(
          ciphertext, b, static_cast<std::uint8_t>(g));
      const int bit = (z >> target_bit_) & 1;
      auto& partition =
          per_guess[static_cast<std::size_t>(g)][static_cast<std::size_t>(bit)];
      ++partition.count;
      for (std::size_t k = 0; k < poi_; ++k) {
        partition.sum[k] += poi_samples[k];
      }
    }
  }
}

ByteScores DpaAttack::snapshot_byte(int byte_index) const {
  LD_REQUIRE(byte_index >= 0 && byte_index < 16, "bad byte index");
  LD_REQUIRE(traces_ >= 2, "need at least two traces");
  const auto& per_guess = parts_[static_cast<std::size_t>(byte_index)];
  ByteScores result;
  for (int g = 0; g < 256; ++g) {
    const auto& p0 = per_guess[static_cast<std::size_t>(g)][0];
    const auto& p1 = per_guess[static_cast<std::size_t>(g)][1];
    double best = 0.0;
    if (p0.count > 0 && p1.count > 0) {
      for (std::size_t k = 0; k < poi_; ++k) {
        const double diff =
            p1.sum[k] / static_cast<double>(p1.count) -
            p0.sum[k] / static_cast<double>(p0.count);
        best = std::max(best, std::abs(diff));
      }
    }
    result.score[static_cast<std::size_t>(g)] = best;
  }
  rank_guesses(result);
  return result;
}

crypto::RoundKey DpaAttack::recovered_round_key() const {
  crypto::RoundKey rk{};
  for (int b = 0; b < 16; ++b) {
    rk[static_cast<std::size_t>(b)] = snapshot_byte(b).best_guess;
  }
  return rk;
}

}  // namespace leakydsp::attack
