// Cycle-level model of the iterative AES-128 hardware core [1] the paper
// attacks: one round per clock cycle, a 128-bit state register, on-the-fly
// key schedule. Per-cycle supply current follows the standard FPGA leakage
// abstraction — proportional to the Hamming distance of the state-register
// transition plus switching in the SubBytes logic — which is exactly the
// dependency CPA exploits.
//
// The same core also models the first-order Boolean-masked variant — the
// "developers can modify their circuits as constant-power implementation"
// mitigation from the paper's discussion (AesCoreParams::masked). Its state
// register holds two shares (state ^ mask, mask) with a fresh random mask
// every round; each share's Hamming-distance power is statistically
// independent of the true state transition, so a first-order CPA on the
// last round finds no correlation. Ciphertexts are unchanged.
#pragma once

#include <array>
#include <cstddef>

#include "crypto/aes128.h"
#include "fabric/geometry.h"
#include "pdn/grid.h"
#include "util/rng.h"

namespace leakydsp::victim {

/// Leakage/power parameters of the AES core [A].
struct AesCoreParams {
  double clock_mhz = 20.0;  ///< victim clock (paper default)
  /// Current per flipped state-register bit during a round transition
  /// [A, normalized]. Calibrated so the best placement (P6) breaks the full
  /// key at ~25 k traces, matching Table I.
  double current_per_hd_bit = 0.0094;
  /// Data-independent switching per active cycle (control, key schedule).
  double static_active_current = 0.3;
  /// Idle leakage between encryptions.
  double idle_current = 0.01;
  /// Cycles between asserting start and the first round (load/latch).
  std::size_t load_cycles = 1;
  /// First-order Boolean masking: the register power is the summed
  /// Hamming distance of both share registers, with the round masks drawn
  /// from the stream passed to start_encryption (a TRNG on the device).
  bool masked = false;
};

/// One encryption as a sequence of per-cycle current draws.
class AesCoreModel {
 public:
  AesCoreModel(const crypto::Key& key, fabric::SiteCoord placement,
               const pdn::PdnGrid& grid, AesCoreParams params = {});

  const AesCoreParams& params() const { return params_; }
  fabric::SiteCoord placement() const { return placement_; }
  std::size_t pdn_node() const { return pdn_node_; }
  double clock_period_ns() const { return 1e3 / params_.clock_mhz; }

  /// Cycles from start assert to ciphertext-ready: load + 10 rounds.
  std::size_t cycles_per_encryption() const { return params_.load_cycles + 10; }

  /// Begins a new encryption; per-cycle currents are then queried with
  /// current_at_cycle(). A masked core draws its 11 round masks from `rng`
  /// (two draws each); an unmasked core draws nothing from it.
  void start_encryption(const crypto::Block& plaintext, util::Rng& rng);

  /// Begins an encryption on an unmasked core, which needs no mask stream.
  /// Throws util::PreconditionError on a masked core.
  void start_encryption(const crypto::Block& plaintext);

  /// Supply current during cycle `c` of the running encryption [A].
  /// Cycle 0..load_cycles-1: state-register load; then one round per cycle.
  /// Cycles past the encryption return the idle current.
  double current_at_cycle(std::size_t c) const;

  /// Ciphertext of the encryption started last.
  const crypto::Block& ciphertext() const { return trace_.ciphertext; }

  /// Hamming distance of the true state-register transition entering round
  /// `r` (1..10) — the quantity the CPA power model hypothesizes on. On a
  /// masked core it is what the shares hide, not what the core leaks.
  std::size_t round_transition_hd(std::size_t r) const;

  const crypto::Aes128& cipher() const { return aes_; }

 private:
  crypto::Aes128 aes_;
  fabric::SiteCoord placement_;
  std::size_t pdn_node_;
  AesCoreParams params_;
  crypto::EncryptionTrace trace_{};
  /// Register Hamming distance of the load (0) and of each round (1..10).
  std::array<std::size_t, 11> cycle_hd_{};
  bool running_ = false;
};

/// Hamming distance between two 16-byte blocks.
std::size_t block_hd(const crypto::Block& a, const crypto::Block& b);

}  // namespace leakydsp::victim
