// Tests for second-order CPA: the centered-square preprocessing recovers
// keys from first-order-masked leakage (where plain CPA fails), shown on
// synthetic share leakage where the quadratic SNR penalty is affordable.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <span>
#include <vector>

#include "attack/cpa.h"
#include "attack/power_model.h"
#include "attack/second_order_cpa.h"
#include "crypto/aes128.h"
#include "util/contracts.h"
#include "util/rng.h"

namespace la = leakydsp::attack;
namespace lc = leakydsp::crypto;
namespace lu = leakydsp::util;

namespace {

lc::Block random_block(lu::Rng& rng) {
  lc::Block b;
  for (auto& byte : b) byte = static_cast<std::uint8_t>(rng() & 0xff);
  return b;
}

/// Masked leakage of the last-round transition of state byte sr(0):
/// L = HW(z ^ m) + HW(m) with a fresh mask byte m — the single-share-pair
/// equivalent of the masked core's register power.
double masked_leakage(const lc::EncryptionTrace& trace, lu::Rng& rng) {
  const int pos = lc::Aes128::shift_rows_map(0);
  const auto z = static_cast<std::uint8_t>(trace.states[9][pos] ^
                                           trace.states[10][pos]);
  const auto m = static_cast<std::uint8_t>(rng() & 0xff);
  return static_cast<double>(std::popcount(static_cast<unsigned>(z ^ m)) +
                             std::popcount(static_cast<unsigned>(m)));
}

}  // namespace

class SecondOrderTest : public ::testing::Test {
 protected:
  void generate(std::size_t traces, double noise_sigma) {
    lu::Rng rng(1401);
    key_ = random_block(rng);
    const lc::Aes128 aes(key_);
    lc::Block pt = random_block(rng);
    for (std::size_t t = 0; t < traces; ++t) {
      const auto trace = aes.encrypt_trace(pt);
      samples_.push_back(
          {-masked_leakage(trace, rng) + rng.gaussian(0.0, noise_sigma)});
      cts_.push_back(trace.ciphertext);
      pt = trace.ciphertext;
    }
  }

  lc::Key key_{};
  std::vector<std::vector<double>> samples_;
  std::vector<lc::Block> cts_;
};

TEST_F(SecondOrderTest, FirstOrderCpaFailsOnMaskedLeakage) {
  generate(6000, 0.5);
  la::CpaAttack cpa(1);
  for (std::size_t t = 0; t < cts_.size(); ++t) {
    cpa.add_trace(cts_[t], samples_[t]);
  }
  // Byte 0's true guess should not be recovered (mean leakage is
  // mask-independent); the best score is statistically unremarkable.
  const auto scores = cpa.snapshot_byte(0);
  const auto truth = lc::Aes128(key_).round_keys()[10][0];
  EXPECT_LT(scores.score[truth], scores.best_score)
      << "truth should not stand out under first-order CPA";
}

TEST_F(SecondOrderTest, SecondOrderCpaRecoversByteZero) {
  generate(6000, 0.5);
  la::SecondOrderCpa cpa(1);
  for (std::size_t t = 0; t < cts_.size(); ++t) {
    cpa.add_trace(cts_[t], samples_[t]);
  }
  // Only byte 0's share pair leaks in this synthetic model.
  const auto scores = cpa.snapshot_byte(0);
  EXPECT_EQ(scores.best_guess, lc::Aes128(key_).round_keys()[10][0]);
  EXPECT_GT(scores.best_score, scores.runner_up_score * 1.1);
}

TEST_F(SecondOrderTest, OnePassMatchesTwoPassCenteredSquares) {
  // Reference: the two-pass form — learn each POI's mean, then feed the
  // centered squares to a plain CpaAttack. Two POIs (the leak, and the
  // leak shifted by a constant) exercise the per-POI moments; the
  // one-pass attack sees the same traces in uneven batches.
  generate(6000, 0.5);
  std::vector<double> rows;
  double mean[2] = {0.0, 0.0};
  for (const auto& s : samples_) {
    rows.push_back(s[0]);
    rows.push_back(s[0] + 3.25);
  }
  for (std::size_t t = 0; t < cts_.size(); ++t) {
    mean[0] += rows[2 * t];
    mean[1] += rows[2 * t + 1];
  }
  mean[0] /= static_cast<double>(cts_.size());
  mean[1] /= static_cast<double>(cts_.size());
  la::CpaAttack reference(2);
  for (std::size_t t = 0; t < cts_.size(); ++t) {
    const double d0 = rows[2 * t] - mean[0];
    const double d1 = rows[2 * t + 1] - mean[1];
    reference.add_trace(cts_[t], std::vector<double>{d0 * d0, d1 * d1});
  }

  la::SecondOrderCpa one_pass(2);
  const std::span<const lc::Block> cts(cts_);
  const std::span<const double> all(rows);
  for (std::size_t t0 = 0; t0 < cts.size();) {
    const std::size_t n =
        std::min<std::size_t>(t0 % 7 * 53 + 1, cts.size() - t0);
    one_pass.add_traces(cts.subspan(t0, n), all.subspan(2 * t0, 2 * n));
    t0 += n;
  }
  ASSERT_EQ(one_pass.trace_count(), cts_.size());

  // Relative to the byte's best score: a guess scoring ~1e-5 is a
  // difference of near-equal sums, which the double reference itself only
  // resolves to ~1e-13.
  for (int b = 0; b < 16; ++b) {
    const auto want = reference.snapshot_byte(b);
    const auto got = one_pass.snapshot_byte(b);
    EXPECT_EQ(got.best_guess, want.best_guess) << "byte " << b;
    EXPECT_NEAR(got.best_score, want.best_score, 1e-9 * want.best_score);
    for (std::size_t g = 0; g < 256; ++g) {
      EXPECT_NEAR(got.score[g], want.score[g], 1e-9 * want.best_score)
          << "byte " << b << " guess " << g;
    }
  }
}

TEST_F(SecondOrderTest, OnePassContracts) {
  // A snapshot needs two traces; a row of the wrong size throws.
  la::SecondOrderCpa cpa(2);
  const std::vector<double> poi = {1.0, 2.0};
  EXPECT_THROW(cpa.snapshot_byte(0), lu::PreconditionError);
  cpa.add_trace(lc::Block{}, poi);
  EXPECT_THROW(cpa.snapshot_byte(0), lu::PreconditionError);
  cpa.add_trace(lc::Block{1}, std::vector<double>{3.0, 1.0});
  EXPECT_NO_THROW(cpa.snapshot_byte(0));
  EXPECT_THROW(cpa.add_trace(lc::Block{}, std::vector<double>(3)),
               lu::PreconditionError);
  const std::vector<lc::Block> two(2);
  EXPECT_THROW(cpa.add_traces(two, std::vector<double>(3)),
               lu::PreconditionError);
  EXPECT_EQ(cpa.trace_count(), 2u);
}

TEST_F(SecondOrderTest, SampleCountContracts) {
  la::SecondOrderCpa cpa(3);
  EXPECT_THROW(cpa.add_trace(lc::Block{}, std::vector<double>(2)),
               lu::PreconditionError);
  EXPECT_THROW(la::SecondOrderCpa(0), lu::PreconditionError);
}
