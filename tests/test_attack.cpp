// Tests for the attack layer: power model correctness, CPA key recovery on
// synthetic and simulated traces, key-rank estimation properties, campaign
// checkpointing, and the covert channel.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "attack/campaign.h"
#include "attack/covert_channel.h"
#include "attack/cpa.h"
#include "attack/key_rank.h"
#include "attack/power_model.h"
#include "core/leaky_dsp.h"
#include "crypto/aes128.h"
#include "sim/scenarios.h"
#include "sim/sensor_rig.h"
#include "util/contracts.h"
#include "util/rng.h"
#include "victim/aes_core.h"
#include "victim/power_virus.h"

namespace la = leakydsp::attack;
namespace lc = leakydsp::crypto;
namespace lcore = leakydsp::core;
namespace lsim = leakydsp::sim;
namespace lv = leakydsp::victim;
namespace lu = leakydsp::util;

namespace {

lc::Block random_block(lu::Rng& rng) {
  lc::Block b;
  for (auto& byte : b) byte = static_cast<std::uint8_t>(rng() & 0xff);
  return b;
}

}  // namespace

// ------------------------------------------------------------ power model

TEST(PowerModel, MatchesRealLastRoundTransition) {
  lu::Rng rng(201);
  const lc::Key key = random_block(rng);
  const lc::Aes128 aes(key);
  const auto& rk10 = aes.round_keys()[10];
  for (int trial = 0; trial < 10; ++trial) {
    const auto trace = aes.encrypt_trace(random_block(rng));
    // Under the correct guess, the hypothesis equals the actual HD of the
    // state-register byte that transitions into ciphertext byte sr(i).
    int total_hyp = 0;
    for (int i = 0; i < 16; ++i) {
      total_hyp += la::last_round_hd(trace.ciphertext, i,
                                     rk10[static_cast<std::size_t>(i)]);
    }
    const std::size_t total_real =
        lv::block_hd(trace.states[9], trace.states[10]);
    EXPECT_EQ(static_cast<std::size_t>(total_hyp), total_real);
  }
}

TEST(PowerModel, RowCoversAllGuesses) {
  lu::Rng rng(202);
  const auto ct = random_block(rng);
  const auto row = la::last_round_hd_row(ct, 3);
  for (const auto h : row) EXPECT_LE(h, 8);
  EXPECT_THROW(la::last_round_hd(ct, 16, 0), lu::PreconditionError);
}

TEST(PowerModel, HammingWeightByte) {
  EXPECT_EQ(la::hamming_weight_byte(0x00), 0);
  EXPECT_EQ(la::hamming_weight_byte(0xff), 8);
  EXPECT_EQ(la::hamming_weight_byte(0xa5), 4);
}

// -------------------------------------------------------------------- CPA

TEST(Cpa, RecoversKeyFromSyntheticLeakage) {
  // Traces leak exactly the last-round HD plus Gaussian noise.
  lu::Rng rng(203);
  const lc::Key key = random_block(rng);
  const lc::Aes128 aes(key);
  la::CpaAttack cpa(1);
  lc::Block pt = random_block(rng);
  for (int t = 0; t < 3000; ++t) {
    const auto trace = aes.encrypt_trace(pt);
    const double leak =
        -static_cast<double>(lv::block_hd(trace.states[9], trace.states[10]));
    const double sample = leak + rng.gaussian(0.0, 4.0);
    cpa.add_trace(trace.ciphertext, std::vector<double>{sample});
    pt = trace.ciphertext;
  }
  EXPECT_EQ(cpa.recovered_round_key(), aes.round_keys()[10]);
  EXPECT_EQ(cpa.recovered_master_key(), key);
}

TEST(Cpa, CorrectGuessOutscoresOthers) {
  lu::Rng rng(204);
  const lc::Key key = random_block(rng);
  const lc::Aes128 aes(key);
  la::CpaAttack cpa(1);
  lc::Block pt = random_block(rng);
  for (int t = 0; t < 4000; ++t) {
    const auto trace = aes.encrypt_trace(pt);
    const double leak =
        -static_cast<double>(lv::block_hd(trace.states[9], trace.states[10]));
    cpa.add_trace(trace.ciphertext,
                  std::vector<double>{leak + rng.gaussian(0.0, 6.0)});
    pt = trace.ciphertext;
  }
  const auto scores = cpa.snapshot_byte(0);
  EXPECT_EQ(scores.best_guess, aes.round_keys()[10][0]);
  EXPECT_GT(scores.best_score, scores.runner_up_score * 1.2);
}

TEST(Cpa, NoLeakageNoRecovery) {
  lu::Rng rng(205);
  const lc::Key key = random_block(rng);
  const lc::Aes128 aes(key);
  la::CpaAttack cpa(1);
  lc::Block pt = random_block(rng);
  for (int t = 0; t < 2000; ++t) {
    const auto trace = aes.encrypt_trace(pt);
    cpa.add_trace(trace.ciphertext,
                  std::vector<double>{rng.gaussian(0.0, 1.0)});
    pt = trace.ciphertext;
  }
  // With pure noise the probability of recovering all 16 bytes is ~0.
  EXPECT_NE(cpa.recovered_round_key(), aes.round_keys()[10]);
}

TEST(Cpa, MultiPoiPicksBestSample) {
  // Leakage present only at POI 2 of 5; CPA must still recover the key.
  lu::Rng rng(206);
  const lc::Key key = random_block(rng);
  const lc::Aes128 aes(key);
  la::CpaAttack cpa(5);
  lc::Block pt = random_block(rng);
  for (int t = 0; t < 3000; ++t) {
    const auto trace = aes.encrypt_trace(pt);
    const double leak =
        -static_cast<double>(lv::block_hd(trace.states[9], trace.states[10]));
    std::vector<double> poi(5);
    for (auto& s : poi) s = rng.gaussian(0.0, 2.0);
    poi[2] += leak;
    cpa.add_trace(trace.ciphertext, poi);
    pt = trace.ciphertext;
  }
  EXPECT_EQ(cpa.recovered_master_key(), key);
}

TEST(Cpa, ContractChecks) {
  la::CpaAttack cpa(3);
  EXPECT_THROW(cpa.add_trace(lc::Block{}, std::vector<double>{1.0}),
               lu::PreconditionError);
  EXPECT_THROW(cpa.snapshot_byte(0), lu::PreconditionError);  // no traces
  EXPECT_THROW(la::CpaAttack(0), lu::PreconditionError);
}

// --------------------------------------------------------------- key rank

namespace {

std::array<la::ByteScores, 16> uniform_scores(lu::Rng& rng) {
  std::array<la::ByteScores, 16> scores;
  for (auto& bs : scores) {
    for (auto& s : bs.score) s = rng.uniform(0.01, 0.02);
  }
  return scores;
}

}  // namespace

TEST(KeyRank, UninformativeScoresGiveHugeRank) {
  lu::Rng rng(207);
  const auto scores = uniform_scores(rng);
  const lc::RoundKey truth{};
  const auto bounds = la::estimate_key_rank(scores, truth);
  EXPECT_GT(bounds.log2_upper, 100.0);
  EXPECT_LE(bounds.log2_upper, 128.5);
  EXPECT_LE(bounds.log2_lower, bounds.log2_upper);
}

TEST(KeyRank, PerfectScoresGiveRankOne) {
  lu::Rng rng(208);
  auto scores = uniform_scores(rng);
  lc::RoundKey truth;
  for (int b = 0; b < 16; ++b) {
    truth[static_cast<std::size_t>(b)] = static_cast<std::uint8_t>(b * 7 + 3);
    scores[static_cast<std::size_t>(b)].score[truth[static_cast<std::size_t>(b)]] =
        0.9;
  }
  const auto bounds = la::estimate_key_rank(scores, truth);
  EXPECT_LT(bounds.log2_upper, 16.0);  // within quantization slack of 1
  EXPECT_GE(bounds.log2_lower, 0.0);
}

TEST(KeyRank, PartialKnowledgeInBetween) {
  // 8 of 16 bytes known: rank ~ 2^64 against a flat field.
  lu::Rng rng(209);
  auto scores = uniform_scores(rng);
  lc::RoundKey truth{};
  for (int b = 0; b < 8; ++b) {
    scores[static_cast<std::size_t>(b)].score[0] = 0.9;  // truth byte 0
  }
  const auto bounds = la::estimate_key_rank(scores, truth);
  EXPECT_GT(bounds.log2_mid(), 40.0);
  EXPECT_LT(bounds.log2_mid(), 90.0);
}

TEST(KeyRank, MonotoneInScoreQuality) {
  lu::Rng rng(210);
  lc::RoundKey truth{};
  double prev_mid = 129.0;
  for (const double strength : {0.02, 0.05, 0.2, 0.9}) {
    auto scores = uniform_scores(rng);
    for (int b = 0; b < 16; ++b) {
      scores[static_cast<std::size_t>(b)].score[0] =
          std::max(strength, scores[static_cast<std::size_t>(b)].score[0]);
    }
    const auto bounds = la::estimate_key_rank(scores, truth);
    EXPECT_LE(bounds.log2_mid(), prev_mid + 1.0) << "strength " << strength;
    prev_mid = bounds.log2_mid();
  }
  EXPECT_LT(prev_mid, 16.0);
}

TEST(KeyRank, BoundsAlwaysOrdered) {
  lu::Rng rng(211);
  for (int trial = 0; trial < 20; ++trial) {
    auto scores = uniform_scores(rng);
    lc::RoundKey truth = random_block(rng);
    // Random partial information.
    for (int b = 0; b < 16; ++b) {
      if (rng.bernoulli(0.5)) {
        scores[static_cast<std::size_t>(b)].score[truth[static_cast<std::size_t>(b)]] +=
            rng.uniform(0.0, 0.5);
      }
    }
    const auto bounds = la::estimate_key_rank(scores, truth);
    EXPECT_LE(bounds.log2_lower, bounds.log2_upper);
    EXPECT_GE(bounds.log2_lower, 0.0);
    EXPECT_LE(bounds.log2_upper, 128.5);
  }
}

// ---------------------------------------------------------------- campaign

class CampaignTest : public ::testing::Test {
 protected:
  lsim::Basys3Scenario scenario_;
};

TEST_F(CampaignTest, BoostedLeakageBreaksQuickly) {
  lu::Rng rng(212);
  const lc::Key key = random_block(rng);
  lv::AesCoreParams aes_params;
  aes_params.current_per_hd_bit = 0.15;  // ~30x the calibrated leakage
  lv::AesCoreModel aes(key, scenario_.aes_site(), scenario_.grid(),
                       aes_params);
  lcore::LeakyDspSensor sensor(
      scenario_.device(),
      scenario_.attack_placements()[lsim::Basys3Scenario::kBestPlacementIndex]);
  lsim::SensorRig rig(scenario_.grid(), sensor);
  rig.calibrate(rng);

  la::CampaignConfig config;
  config.max_traces = 6000;
  config.break_check_stride = 250;
  config.rank_stride = 1000;
  la::TraceCampaign campaign(rig, aes, config);
  EXPECT_EQ(campaign.samples_per_cycle(), 15u);  // 300 MHz / 20 MHz

  const auto result = campaign.run(rng);
  EXPECT_TRUE(result.broken);
  EXPECT_GT(result.traces_to_break, 0u);
  EXPECT_LE(result.traces_to_break, 6000u);
  ASSERT_FALSE(result.checkpoints.empty());
  // Rank collapses once broken.
  EXPECT_LT(result.checkpoints.back().rank.log2_upper, 20.0);
  EXPECT_EQ(result.checkpoints.back().correct_bytes, 16);
}

TEST_F(CampaignTest, RankDecreasesWithTraces) {
  // The rank at 1,000 traces is a noisy draw: one seed in 5-10 lands below
  // 40 bits. The medians over five consecutive seeds carry the claim.
  std::vector<double> front, back;
  for (std::uint64_t seed = 213; seed < 218; ++seed) {
    lu::Rng rng(seed);
    const lc::Key key = random_block(rng);
    lv::AesCoreParams aes_params;
    aes_params.current_per_hd_bit = 0.03;  // 2x default: breaks around ~6k
    lv::AesCoreModel aes(key, scenario_.aes_site(), scenario_.grid(),
                         aes_params);
    const auto p6 = scenario_.attack_placements()
        [lsim::Basys3Scenario::kBestPlacementIndex];
    lcore::LeakyDspSensor sensor(scenario_.device(), p6);
    lsim::SensorRig rig(scenario_.grid(), sensor);
    rig.calibrate(rng);
    la::CampaignConfig config;
    config.max_traces = 5000;
    config.rank_stride = 1000;
    la::TraceCampaign campaign(rig, aes, config);
    const auto result = campaign.run(rng, /*stop_when_broken=*/false);
    ASSERT_GE(result.checkpoints.size(), 3u) << "seed " << seed;
    front.push_back(result.checkpoints.front().rank.log2_mid());
    back.push_back(result.checkpoints.back().rank.log2_mid());
  }
  auto median = [](std::vector<double> v) {
    std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
    return v[v.size() / 2];
  };
  EXPECT_GT(median(front), 40.0);
  EXPECT_LT(median(back), median(front) - 20.0);
}

TEST_F(CampaignTest, FasterVictimClockFewerSamplesPerCycle) {
  lu::Rng rng(214);
  lv::AesCoreParams aes_params;
  aes_params.clock_mhz = 100.0;
  lv::AesCoreModel aes(lc::Key{}, scenario_.aes_site(), scenario_.grid(),
                       aes_params);
  lcore::LeakyDspSensor sensor(scenario_.device(),
                               scenario_.attack_placements()[0]);
  lsim::SensorRig rig(scenario_.grid(), sensor);
  la::TraceCampaign campaign(rig, aes);
  EXPECT_EQ(campaign.samples_per_cycle(), 3u);
}

TEST_F(CampaignTest, TraceGenerationDeterministicGivenSeed) {
  const lc::Key key{};
  lv::AesCoreModel aes(key, scenario_.aes_site(), scenario_.grid());
  lcore::LeakyDspSensor sensor(scenario_.device(),
                               scenario_.attack_placements()[5]);
  lsim::SensorRig rig(scenario_.grid(), sensor);
  lu::Rng cal_rng(215);
  rig.calibrate(cal_rng);
  la::TraceCampaign campaign(rig, aes);

  lcore::LeakyDspSensor sensor2(scenario_.device(),
                                scenario_.attack_placements()[5]);
  sensor2.set_taps(sensor.a_taps(), sensor.clk_taps());
  sensor2.set_fine_phase(sensor.fine_phase());
  lsim::SensorRig rig2(scenario_.grid(), sensor2);
  la::TraceCampaign campaign2(rig2, aes);

  lu::Rng rng_a(216);
  lu::Rng rng_b(216);
  const auto trace_a = campaign.generate_trace(lc::Block{}, rng_a);
  const auto trace_b = campaign2.generate_trace(lc::Block{}, rng_b);
  EXPECT_EQ(trace_a, trace_b);
  EXPECT_EQ(trace_a.size(),
            (aes.cycles_per_encryption() + 2) * campaign.samples_per_cycle());
}

TEST_F(CampaignTest, FastPathMatchesGenericRigPath) {
  const lc::Key key{};
  lv::AesCoreModel aes(key, scenario_.aes_site(), scenario_.grid());
  lcore::LeakyDspSensor sensor(scenario_.device(),
                               scenario_.attack_placements()[5]);
  lsim::SensorRig rig(scenario_.grid(), sensor);
  lu::Rng cal_rng(217);
  rig.calibrate(cal_rng);
  la::TraceCampaign campaign(rig, aes);

  // (a) generate_trace is the campaign's batched path: under record()'s
  // fork discipline it reproduces record_block's traces and ciphertexts
  // bit for bit.
  lu::Rng rng(218);
  auto cursor = campaign.start_record(rng);
  const auto plaintexts = campaign.next_plaintexts(cursor, 70);
  const auto records = campaign.record_block(cursor.trace_parent, 0,
                                             plaintexts);
  ASSERT_EQ(records.size(), plaintexts.size());
  for (std::size_t i = 0; i < plaintexts.size(); ++i) {
    lu::Rng fork = cursor.trace_parent.fork(i + 1);
    EXPECT_EQ(campaign.generate_trace(plaintexts[i], fork), records[i].samples)
        << "trace " << i;
    EXPECT_EQ(aes.ciphertext(), records[i].ciphertext) << "trace " << i;
  }

  // (b) With a calibrated sensor the trace carries signal, and the batched
  // path's mean trace stays within 4 standard errors of the scalar
  // SensorRig::collect reference's at every sample — same component
  // models, different noise samplers.
  const auto& first = records.front().samples;
  EXPECT_GT(*std::max_element(first.begin(), first.end()),
            *std::min_element(first.begin(), first.end()));
  constexpr std::size_t kTraces = 300;
  const std::size_t n = campaign.trace_samples();
  const std::size_t spc = campaign.samples_per_cycle();
  std::vector<double> sum_fast(n), sq_fast(n), sum_ref(n), sq_ref(n);
  lu::Rng ref_rng(219);
  for (std::size_t t = 0; t < kTraces; ++t) {
    lu::Rng fork = cursor.trace_parent.fork(1000 + t);
    const auto fast = campaign.generate_trace(plaintexts[0], fork);
    rig.settle();
    aes.start_encryption(plaintexts[0]);
    std::size_t s = 0;
    const auto ref = rig.collect(
        n, ref_rng, [&](std::vector<leakydsp::pdn::CurrentInjection>& draws) {
          draws.push_back({aes.pdn_node(), aes.current_at_cycle(s++ / spc)});
        });
    for (std::size_t k = 0; k < n; ++k) {
      sum_fast[k] += fast[k];
      sq_fast[k] += fast[k] * fast[k];
      sum_ref[k] += ref[k];
      sq_ref[k] += ref[k] * ref[k];
    }
  }
  const double count = static_cast<double>(kTraces);
  for (std::size_t k = 0; k < n; ++k) {
    const double mean_fast = sum_fast[k] / count;
    const double mean_ref = sum_ref[k] / count;
    const double var_fast = sq_fast[k] / count - mean_fast * mean_fast;
    const double var_ref = sq_ref[k] / count - mean_ref * mean_ref;
    const double se = std::sqrt(std::max(var_fast + var_ref, 0.0) / count);
    EXPECT_LE(std::abs(mean_fast - mean_ref), 4.0 * se + 1e-12)
        << "sample " << k;
  }
}

// ---------------------------------------------------------- covert channel

class CovertTest : public ::testing::Test {
 protected:
  lsim::Axu3egbScenario scenario_;
};

TEST_F(CovertTest, LevelsSeparate) {
  lu::Rng rng(218);
  lcore::LeakyDspSensor sensor(scenario_.device(), scenario_.receiver_site());
  lsim::SensorRig rig(scenario_.grid(), sensor);
  lv::PowerVirus sender(scenario_.device(), scenario_.grid(),
                        scenario_.sender_regions());
  rig.calibrate(rng);
  la::CovertChannel channel(rig, sender, la::CovertChannelParams{}, rng);
  EXPECT_GT(channel.level_idle(), channel.level_active() + 5.0);
}

TEST_F(CovertTest, RecommendedSettingLowBerAndPaperRate) {
  lu::Rng rng(219);
  lcore::LeakyDspSensor sensor(scenario_.device(), scenario_.receiver_site());
  lsim::SensorRig rig(scenario_.grid(), sensor);
  lv::PowerVirus sender(scenario_.device(), scenario_.grid(),
                        scenario_.sender_regions());
  rig.calibrate(rng);
  la::CovertChannelParams params;  // 4 ms
  la::CovertChannel channel(rig, sender, params, rng);

  std::vector<bool> payload(10000);
  for (auto&& b : payload) b = rng.bernoulli(0.5);
  const auto stats = channel.transmit(payload, rng);
  EXPECT_EQ(stats.bits_sent, payload.size());
  EXPECT_LT(stats.ber(), 0.01);  // paper: 0.24%
  EXPECT_NEAR(stats.transmission_rate(), 247.95, 1.0);
}

TEST_F(CovertTest, ShorterBitsHigherBer) {
  lu::Rng rng(220);
  lcore::LeakyDspSensor sensor(scenario_.device(), scenario_.receiver_site());
  lsim::SensorRig rig(scenario_.grid(), sensor);
  lv::PowerVirus sender(scenario_.device(), scenario_.grid(),
                        scenario_.sender_regions());
  rig.calibrate(rng);

  auto run = [&](double bit_ms) {
    la::CovertChannelParams params;
    params.bit_time_ms = bit_ms;
    la::CovertChannel channel(rig, sender, params, rng);
    std::vector<bool> payload(20000);
    for (auto&& b : payload) b = rng.bernoulli(0.5);
    return channel.transmit(payload, rng).ber();
  };
  const double ber_fast = run(2.0);
  const double ber_slow = run(6.0);
  EXPECT_GT(ber_fast, ber_slow);
  EXPECT_GT(ber_fast, 0.005);  // visibly lossy below 3 ms
}

TEST_F(CovertTest, DecodedBitsMatchStats) {
  lu::Rng rng(221);
  lcore::LeakyDspSensor sensor(scenario_.device(), scenario_.receiver_site());
  lsim::SensorRig rig(scenario_.grid(), sensor);
  lv::PowerVirus sender(scenario_.device(), scenario_.grid(),
                        scenario_.sender_regions());
  rig.calibrate(rng);
  la::CovertChannel channel(rig, sender, la::CovertChannelParams{}, rng);
  std::vector<bool> payload(3000);
  for (auto&& b : payload) b = rng.bernoulli(0.5);
  std::vector<bool> decoded;
  const auto stats = channel.transmit(payload, rng, &decoded);
  ASSERT_EQ(decoded.size(), payload.size());
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < payload.size(); ++i) {
    if (payload[i] != decoded[i]) ++mismatches;
  }
  EXPECT_EQ(mismatches, stats.bit_errors);
}

TEST_F(CovertTest, RateScalesInverselyWithBitTime) {
  lu::Rng rng(222);
  lcore::LeakyDspSensor sensor(scenario_.device(), scenario_.receiver_site());
  lsim::SensorRig rig(scenario_.grid(), sensor);
  lv::PowerVirus sender(scenario_.device(), scenario_.grid(),
                        scenario_.sender_regions());
  rig.calibrate(rng);
  la::CovertChannelParams p2;
  p2.bit_time_ms = 2.0;
  la::CovertChannel fast(rig, sender, p2, rng);
  std::vector<bool> payload(2000, true);
  const double tr_fast = fast.transmit(payload, rng).transmission_rate();
  EXPECT_NEAR(tr_fast, 2.0 * 247.95, 5.0);
}
