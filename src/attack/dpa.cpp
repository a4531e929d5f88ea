#include "attack/dpa.h"

#include <algorithm>
#include <cmath>

#include "util/contracts.h"

namespace leakydsp::attack {

DpaAttack::DpaAttack(std::size_t poi_count, int target_bit)
    : target_bit_(target_bit), selection_(2 * 256 * 256), sums_(poi_count) {
  LD_REQUIRE(target_bit_ >= 0 && target_bit_ < 8, "target bit out of 0..7");
  // Kocher's selection function, tabulated: does the chosen state-register
  // bit flip in the last round under guess g?
  for (unsigned r = 0; r < 2; ++r) {
    for (unsigned c = 0; c < 256; ++c) {
      for (unsigned g = 0; g < 256; ++g) {
        const std::uint8_t s9 =
            crypto::Aes128::inv_sbox(static_cast<std::uint8_t>(c ^ g));
        selection_[((r << 8) | c) * 256 + g] =
            static_cast<std::uint8_t>(((s9 >> target_bit_) & 1) ^ r);
      }
    }
  }
}

void DpaAttack::add_trace(const crypto::Block& ciphertext,
                          std::span<const double> poi_samples) {
  add_traces({&ciphertext, 1}, poi_samples);
}

void DpaAttack::add_traces(std::span<const crypto::Block> ciphertexts,
                           std::span<const double> poi_matrix) {
  sums_.add_traces(ciphertexts, poi_matrix,
                   [this](std::uint8_t ct_byte, std::uint8_t reg_byte) {
                     const unsigned r = (reg_byte >> target_bit_) & 1u;
                     return selection_.data() + ((r << 8) | ct_byte) * 256;
                   });
}

ByteScores DpaAttack::snapshot_byte(int byte_index) const {
  LD_REQUIRE(byte_index >= 0 && byte_index < 16, "bad byte index");
  LD_REQUIRE(trace_count() >= 2, "need at least two traces");
  const auto b = static_cast<std::size_t>(byte_index);
  const double n = static_cast<double>(trace_count());
  ByteScores result;
  for (std::size_t g = 0; g < 256; ++g) {
    const double n1 = sums_.sum_h_[b][g];  // an exact count
    double best = 0.0;
    if (n1 > 0.0 && n1 < n) {
      const double* sum1 = sums_.sum_ht_[b].data() + g * poi_count();
      for (std::size_t k = 0; k < poi_count(); ++k) {
        const double diff =
            sum1[k] / n1 - (sums_.sum_t_[k] - sum1[k]) / (n - n1);
        best = std::max(best, std::abs(diff));
      }
    }
    result.score[g] = best;
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
