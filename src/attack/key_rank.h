// Key-rank estimation with histogram convolution (Glowacz et al., FSE'15)
// — the metric of Fig. 5/6 and Table I. Per-byte CPA scores are turned
// into log-probabilities; the distribution of the 16-byte sum is built by
// convolving per-byte histograms; the rank of the true key is bounded by
// counting mass above the true key's bin, padded by the quantization slack
// of one bin per byte in each direction.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "attack/cpa.h"
#include "crypto/aes128.h"

namespace leakydsp::attack {

/// Bounds on log2(rank) of the true key. rank == 1 means broken.
struct KeyRankBounds {
  double log2_lower = 0.0;
  double log2_upper = 128.0;

  double log2_mid() const { return 0.5 * (log2_lower + log2_upper); }
  friend bool operator==(const KeyRankBounds&, const KeyRankBounds&) = default;
};

/// Estimator configuration.
struct KeyRankParams {
  std::size_t bins = 512;  ///< histogram resolution per byte
  double gamma = 8.0;       ///< score sharpening exponent: p ∝ score^gamma
  double epsilon = 1e-9;    ///< floor added to scores before normalizing
};

/// Estimates rank bounds of `true_round_key` given per-byte CPA scores.
KeyRankBounds estimate_key_rank(const std::array<ByteScores, 16>& scores,
                                const crypto::RoundKey& true_round_key,
                                KeyRankParams params = {});

/// Generalized estimator over an arbitrary number of key bytes (1..16).
/// `scores[b][g]` is the CPA score of guess g for byte b; `truth[b]` the
/// correct byte. Used by the reduced-key-space verification below and by
/// tests.
KeyRankBounds estimate_key_rank_general(
    const std::vector<std::array<double, 256>>& scores,
    const std::vector<std::uint8_t>& truth, KeyRankParams params = {});

/// Exact rank of the true key by full enumeration, feasible for up to 3
/// bytes (256^3 combinations): 1 + number of keys with a strictly larger
/// score product (log-likelihood sum). The property tests assert the
/// histogram estimator's bounds contain this value.
double exact_key_rank(const std::vector<std::array<double, 256>>& scores,
                      const std::vector<std::uint8_t>& truth,
                      double gamma = 8.0, double epsilon = 1e-9);

}  // namespace leakydsp::attack
