#include "victim/aes_core.h"

#include <bit>

#include "util/contracts.h"

namespace leakydsp::victim {

std::size_t block_hd(const crypto::Block& a, const crypto::Block& b) {
  std::size_t hd = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    hd += static_cast<std::size_t>(
        std::popcount(static_cast<unsigned>(a[i] ^ b[i])));
  }
  return hd;
}

AesCoreModel::AesCoreModel(const crypto::Key& key,
                           fabric::SiteCoord placement,
                           const pdn::PdnGrid& grid, AesCoreParams params)
    : aes_(key),
      placement_(placement),
      pdn_node_(grid.node_of_site(placement)),
      params_(params) {
  LD_REQUIRE(params_.clock_mhz > 0.0, "clock must be positive");
  LD_REQUIRE(params_.current_per_hd_bit >= 0.0, "negative leak current");
  LD_REQUIRE(params_.load_cycles >= 1, "need at least one load cycle");
}

void AesCoreModel::start_encryption(const crypto::Block& plaintext) {
  LD_REQUIRE(!params_.masked, "a masked core needs a mask stream");
  trace_ = aes_.encrypt_trace(plaintext);
  running_ = true;
  // Load: a cleared state register takes plaintext ^ key.
  cycle_hd_[0] = block_hd(crypto::Block{}, trace_.states[0]);
  for (std::size_t r = 1; r <= 10; ++r) {
    cycle_hd_[r] = block_hd(trace_.states[r - 1], trace_.states[r]);
  }
}

void AesCoreModel::start_encryption(const crypto::Block& plaintext,
                                    util::Rng& rng) {
  if (!params_.masked) {
    start_encryption(plaintext);
    return;
  }
  trace_ = aes_.encrypt_trace(plaintext);
  running_ = true;
  // The register holds two shares, (state ^ mask, mask), with a fresh mask
  // per round; the load fills cleared registers, and each cycle's HD sums
  // both shares' transitions.
  crypto::Block share{};
  crypto::Block mask{};
  for (std::size_t r = 0; r <= 10; ++r) {
    crypto::Block next_mask;
    crypto::Block next_share;
    std::uint64_t word = 0;
    for (std::size_t i = 0; i < next_mask.size(); ++i) {
      if (i % 8 == 0) word = rng();
      next_mask[i] = static_cast<std::uint8_t>(word >> (8 * (i % 8)));
      next_share[i] =
          static_cast<std::uint8_t>(trace_.states[r][i] ^ next_mask[i]);
    }
    cycle_hd_[r] = block_hd(share, next_share) + block_hd(mask, next_mask);
    share = next_share;
    mask = next_mask;
  }
}

std::size_t AesCoreModel::round_transition_hd(std::size_t r) const {
  LD_REQUIRE(running_, "no encryption started");
  LD_REQUIRE(r >= 1 && r <= 10, "round " << r << " out of 1..10");
  return block_hd(trace_.states[r - 1], trace_.states[r]);
}

double AesCoreModel::current_at_cycle(std::size_t c) const {
  LD_REQUIRE(running_, "no encryption started");
  // Every load cycle reads entry 0; round r registers in entry r.
  const std::size_t entry =
      c < params_.load_cycles ? 0 : c - params_.load_cycles + 1;
  if (entry > 10) return params_.idle_current;
  return params_.static_active_current +
         params_.current_per_hd_bit * static_cast<double>(cycle_hd_[entry]);
}

}  // namespace leakydsp::victim
