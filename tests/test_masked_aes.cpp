// Tests for the masked AES core (AesCoreParams::masked): functional
// equivalence, power-model decorrelation, the mask stream contract, and the
// end-to-end masking-defeats-first-order-CPA claim on a campaign.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "attack/campaign.h"
#include "core/leaky_dsp.h"
#include "sim/scenarios.h"
#include "sim/sensor_rig.h"
#include "stats/accumulators.h"
#include "util/contracts.h"
#include "util/rng.h"
#include "victim/aes_core.h"

namespace lv = leakydsp::victim;
namespace lc = leakydsp::crypto;
namespace la = leakydsp::attack;
namespace ls = leakydsp::stats;
namespace lu = leakydsp::util;
namespace lsim = leakydsp::sim;
namespace lcore = leakydsp::core;

namespace {

lc::Block random_block(lu::Rng& rng) {
  lc::Block b;
  for (auto& byte : b) byte = static_cast<std::uint8_t>(rng() & 0xff);
  return b;
}

lv::AesCoreParams masked_params(lv::AesCoreParams params = {}) {
  params.masked = true;
  return params;
}

}  // namespace

class MaskedAesTest : public ::testing::Test {
 protected:
  lsim::Basys3Scenario scenario_;
};

TEST_F(MaskedAesTest, CiphertextUnchangedByMasking) {
  lu::Rng rng(1301);
  const lc::Key key = random_block(rng);
  lv::AesCoreModel masked(key, scenario_.aes_site(), scenario_.grid(),
                          masked_params());
  lv::AesCoreModel plain(key, scenario_.aes_site(), scenario_.grid());
  lu::Rng masks(1);
  for (int t = 0; t < 10; ++t) {
    const auto pt = random_block(rng);
    masked.start_encryption(pt, masks);
    plain.start_encryption(pt);
    EXPECT_EQ(masked.ciphertext(), plain.ciphertext());
  }
}

TEST_F(MaskedAesTest, RoundCurrentsDataIndependent) {
  // The masked core's round-10 current must not correlate with the true
  // last-round Hamming distance; the plain core's must.
  lu::Rng rng(1302);
  const lc::Key key = random_block(rng);
  lv::AesCoreModel masked(key, scenario_.aes_site(), scenario_.grid(),
                          masked_params());
  lv::AesCoreModel plain(key, scenario_.aes_site(), scenario_.grid());
  ls::Correlation masked_corr;
  ls::Correlation plain_corr;
  lc::Block pt = random_block(rng);
  const std::size_t round10_cycle = plain.params().load_cycles + 9;
  for (int t = 0; t < 4000; ++t) {
    plain.start_encryption(pt);
    masked.start_encryption(pt, rng);
    const double true_hd =
        static_cast<double>(plain.round_transition_hd(10));
    plain_corr.add(true_hd, plain.current_at_cycle(round10_cycle));
    masked_corr.add(true_hd, masked.current_at_cycle(round10_cycle));
    pt = plain.ciphertext();
  }
  EXPECT_GT(plain_corr.pearson(), 0.99);
  EXPECT_LT(std::abs(masked_corr.pearson()), 0.05);
}

TEST_F(MaskedAesTest, MaskedCurrentsHaveHigherMeanActivity) {
  // Two share registers toggle instead of one: mean switching roughly
  // doubles — the masking overhead.
  lu::Rng rng(1303);
  const lc::Key key = random_block(rng);
  lv::AesCoreModel masked(key, scenario_.aes_site(), scenario_.grid(),
                          masked_params());
  lv::AesCoreModel plain(key, scenario_.aes_site(), scenario_.grid());
  double masked_sum = 0.0;
  double plain_sum = 0.0;
  lc::Block pt{};
  const std::size_t cycle = plain.params().load_cycles + 4;
  for (int t = 0; t < 500; ++t) {
    plain.start_encryption(pt);
    masked.start_encryption(pt, rng);
    plain_sum += plain.current_at_cycle(cycle);
    masked_sum += masked.current_at_cycle(cycle);
    pt = plain.ciphertext();
  }
  EXPECT_GT(masked_sum, 1.5 * plain_sum - 500.0 * plain.params().static_active_current);
}

TEST_F(MaskedAesTest, FirstOrderCpaFailsOnMaskedTraces) {
  // The same 3k-trace campaign at strong leakage breaks the unprotected
  // core and recovers essentially nothing from the masked one.
  lu::Rng rng(1304);
  const lc::Key key = random_block(rng);
  const auto correct_bytes = [&](bool masked, lu::Rng run_rng) {
    lv::AesCoreParams params;
    params.current_per_hd_bit = 0.05;  // strong leakage
    params.masked = masked;
    lv::AesCoreModel aes(key, scenario_.aes_site(), scenario_.grid(), params);
    lcore::LeakyDspSensor sensor(scenario_.device(),
                                 scenario_.attack_placements()[5]);
    lsim::SensorRig rig(scenario_.grid(), sensor);
    rig.calibrate(run_rng);
    la::CampaignConfig config;
    config.max_traces = 3000;
    config.rank_stride = 3000;
    la::TraceCampaign campaign(rig, aes, config);
    const auto result = campaign.run(run_rng, /*stop_when_broken=*/false);
    return result.checkpoints.back().correct_bytes;
  };
  EXPECT_GE(correct_bytes(false, rng.fork(1)), 14);
  EXPECT_LE(correct_bytes(true, rng.fork(1)), 3);
}

TEST_F(MaskedAesTest, DifferentMaskStreamsDifferentPower) {
  lu::Rng rng(1305);
  const lc::Key key = random_block(rng);
  lv::AesCoreModel core(key, scenario_.aes_site(), scenario_.grid(),
                        masked_params());
  const auto pt = random_block(rng);
  lu::Rng stream_a(1);
  lu::Rng stream_b(2);
  std::vector<double> currents_a;
  core.start_encryption(pt, stream_a);
  const lc::Block ct_a = core.ciphertext();
  for (std::size_t c = 1; c <= 10; ++c) {
    currents_a.push_back(core.current_at_cycle(c));
  }
  core.start_encryption(pt, stream_b);
  EXPECT_EQ(core.ciphertext(), ct_a);
  bool any_different = false;
  for (std::size_t c = 1; c <= 10; ++c) {
    if (core.current_at_cycle(c) != currents_a[c - 1]) any_different = true;
  }
  EXPECT_TRUE(any_different);
}

TEST_F(MaskedAesTest, OnlyTheMaskedCoreDrawsFromTheStream) {
  // 11 round masks, two draws each; the unmasked core leaves the stream
  // untouched, so every unmasked campaign keeps its bytes.
  lu::Rng rng(1306);
  const lc::Key key = random_block(rng);
  const auto pt = random_block(rng);
  lv::AesCoreModel plain(key, scenario_.aes_site(), scenario_.grid());
  lv::AesCoreModel masked(key, scenario_.aes_site(), scenario_.grid(),
                          masked_params());
  lu::Rng stream(7);
  plain.start_encryption(pt, stream);
  EXPECT_EQ(stream.draws(), 0u);
  masked.start_encryption(pt, stream);
  EXPECT_EQ(stream.draws(), 22u);
  // A masked core has no mask stream without one.
  EXPECT_THROW(masked.start_encryption(pt), lu::PreconditionError);
}
