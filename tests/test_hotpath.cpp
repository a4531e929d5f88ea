// Tests for the single-core hot-path kernels (DESIGN.md, "Hot-path kernels
// & approximation bounds"): the ScaleTable LUT against the exact
// alpha-power law, the O(1) uniform-chain stages_within fast path, the
// ziggurat Gaussian sampler, the CPA kernel's hypothesis rows and integer
// sums, and the batched sensor sampling path against the scalar one.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <optional>
#include <span>
#include <vector>

#include "attack/cpa.h"
#include "attack/power_model.h"
#include "core/leaky_dsp.h"
#include "crypto/aes128.h"
#include "sensors/ro_sensor.h"
#include "sensors/tdc.h"
#include "sim/scenarios.h"
#include "sim/sensor_rig.h"
#include "timing/delay_model.h"
#include "util/contracts.h"
#include "util/cpu_features.h"
#include "util/crc32.h"
#include "util/rng.h"

namespace la = leakydsp::attack;
namespace lc = leakydsp::crypto;
namespace lcore = leakydsp::core;
namespace lsens = leakydsp::sensors;
namespace lsim = leakydsp::sim;
namespace lt = leakydsp::timing;
namespace lu = leakydsp::util;

namespace {

lc::Block random_block(lu::Rng& rng) {
  lc::Block b;
  for (auto& byte : b) byte = static_cast<std::uint8_t>(rng() & 0xff);
  return b;
}

/// Restores the dispatch override on scope exit so a failing test cannot
/// leak a pinned tier into its neighbors.
struct TierGuard {
  ~TierGuard() { lu::set_simd_tier_override(std::nullopt); }
};

/// Every tier the running host can actually execute, ascending.
std::vector<lu::SimdTier> available_tiers() {
  std::vector<lu::SimdTier> tiers{lu::SimdTier::kScalar};
  const lu::SimdTier top = lu::detected_simd_tier();
  if (top >= lu::SimdTier::kAvx2) tiers.push_back(lu::SimdTier::kAvx2);
  if (top >= lu::SimdTier::kAvx512) tiers.push_back(lu::SimdTier::kAvx512);
  return tiers;
}

}  // namespace

// --------------------------------------------------------- ScaleTable LUT

TEST(ScaleTable, SweepStaysUnderDocumentedErrorBound) {
  const lt::AlphaPowerLaw law{};
  const lt::ScaleTable table(law);
  // Dense sweep of the full table range, deliberately incommensurate with
  // the knot spacing so mid-interval points (where cubic Hermite error
  // peaks) are covered.
  const std::size_t kPoints = 200003;
  const double span = table.v_hi() - table.v_lo();
  double max_err = 0.0;
  for (std::size_t i = 0; i <= kPoints; ++i) {
    const double v =
        table.v_lo() + span * static_cast<double>(i) / kPoints;
    max_err = std::max(max_err, std::abs(table(v) - law.scale(v)));
  }
  EXPECT_LT(max_err, lt::ScaleTable::kMaxAbsError);
  EXPECT_GT(max_err, 0.0);  // it is an approximation, not a copy
}

TEST(ScaleTable, ExactAtEndpointsAndFallsBackOutsideRange) {
  const lt::AlphaPowerLaw law{};
  const lt::ScaleTable table(law);
  // Knots store the exact law value, and the endpoints are knots.
  EXPECT_DOUBLE_EQ(table(table.v_lo()), law.scale(table.v_lo()));
  EXPECT_DOUBLE_EQ(table(table.v_hi()), law.scale(table.v_hi()));
  // Outside the range the exact law runs, bit for bit.
  for (const double v : {table.v_lo() - 0.01, table.v_hi() + 0.01, 2.0}) {
    EXPECT_EQ(table(v), law.scale(v));
  }
  // The fallback keeps enforcing the law's validity requirement.
  EXPECT_THROW(table(law.vth), lu::PreconditionError);
}

TEST(ScaleTable, CustomRangeAndValidation) {
  const lt::AlphaPowerLaw law{};
  const lt::ScaleTable table(law, 0.9, 1.1, 4096);
  for (const double v : {0.9, 0.95, 1.0, 1.05, 1.1}) {
    EXPECT_NEAR(table(v), law.scale(v), lt::ScaleTable::kMaxAbsError);
  }
  EXPECT_THROW(lt::ScaleTable(law, law.vth, 1.0), lu::PreconditionError);
  EXPECT_THROW(lt::ScaleTable(law, 1.0, 0.9), lu::PreconditionError);
  EXPECT_THROW(lt::ScaleTable(law, 0.9, 1.1, 1), lu::PreconditionError);
}

// --------------------------------------- O(1) uniform-chain stages_within

TEST(DelayChain, UniformChainDetected) {
  const lt::AlphaPowerLaw law{};
  const lt::DelayChain uniform(std::vector<double>(128, 0.015), law);
  EXPECT_TRUE(uniform.uniform_stages());
  std::vector<double> perturbed(128, 0.015);
  perturbed[64] = 0.0151;
  const lt::DelayChain nonuniform(perturbed, law);
  EXPECT_FALSE(nonuniform.uniform_stages());
}

TEST(DelayChain, UniformFastPathMatchesBinarySearchSemantics) {
  const lt::AlphaPowerLaw law{};
  const std::size_t kStages = 128;
  const double kStage = 0.015;
  const lt::DelayChain chain(std::vector<double>(kStages, kStage), law);
  ASSERT_TRUE(chain.uniform_stages());

  // Reference: upper_bound over independently built prefix sums — the
  // semantics the binary-search path implements.
  std::vector<double> cumulative(kStages);
  double sum = 0.0;
  for (std::size_t i = 0; i < kStages; ++i) {
    sum += kStage;
    cumulative[i] = sum;
  }
  const auto reference = [&](double budget, double scale) {
    if (budget <= 0.0) return std::size_t{0};
    const auto it = std::upper_bound(cumulative.begin(), cumulative.end(),
                                     budget / scale);
    return static_cast<std::size_t>(it - cumulative.begin());
  };

  for (const double scale : {0.85, 1.0, 1.0734, 1.3}) {
    // Boundaries: exactly at each stage's cumulative arrival (inclusive,
    // so the stage counts), one ulp around it, and far outside the chain.
    for (std::size_t i = 0; i < kStages; ++i) {
      const double at = cumulative[i] * scale;
      for (const double budget :
           {at, std::nextafter(at, 0.0), std::nextafter(at, 1e9)}) {
        ASSERT_EQ(chain.stages_within_scaled(budget, scale),
                  reference(budget, scale))
            << "stage " << i << " scale " << scale << " budget " << budget;
      }
    }
    EXPECT_EQ(chain.stages_within_scaled(-1.0, scale), 0u);
    EXPECT_EQ(chain.stages_within_scaled(0.0, scale), 0u);
    EXPECT_EQ(chain.stages_within_scaled(1e9, scale), kStages);
  }
  // Dense random sweep.
  lu::Rng rng(1234);
  for (int i = 0; i < 20000; ++i) {
    const double budget = rng.uniform(-0.1, chain.nominal_total() * 1.6);
    const double scale = rng.uniform(0.8, 1.4);
    ASSERT_EQ(chain.stages_within_scaled(budget, scale),
              reference(budget, scale));
  }
}

TEST(DelayChain, NonUniformChainAgreesWithUniformOnSameDelays) {
  // A chain whose stages are equal except one split into the same total:
  // both chains have identical cumulative arrivals at every shared stage
  // boundary, so their counts agree wherever the boundaries align.
  const lt::AlphaPowerLaw law{};
  const lt::DelayChain uniform(std::vector<double>(64, 0.015), law);
  std::vector<double> jittered(64, 0.015);
  jittered[10] = 0.0151;
  jittered[11] = 0.0149;  // same prefix sum from stage 12 on
  const lt::DelayChain nonuniform(jittered, law);
  ASSERT_FALSE(nonuniform.uniform_stages());
  lu::Rng rng(99);
  for (int i = 0; i < 5000; ++i) {
    const double budget = rng.uniform(0.2, 1.0);  // past the perturbation
    const double scale = rng.uniform(0.9, 1.2);
    ASSERT_EQ(uniform.stages_within_scaled(budget, scale),
              nonuniform.stages_within_scaled(budget, scale));
  }
}

TEST(DelayChain, StagesWithinDelegatesToScaled) {
  const lt::AlphaPowerLaw law{};
  const lt::DelayChain chain(std::vector<double>(128, 0.015), law);
  lu::Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const double budget = rng.uniform(0.0, 2.5);
    const double v = rng.uniform(0.9, 1.05);
    ASSERT_EQ(chain.stages_within(budget, v),
              chain.stages_within_scaled(budget, law.scale(v)));
  }
}

// ------------------------------------------------------ ziggurat Gaussian

TEST(Ziggurat, MomentsMatchStandardNormal) {
  lu::Rng rng(42);
  const std::size_t kN = 2000000;
  double sum = 0.0, sum2 = 0.0, sum3 = 0.0, sum4 = 0.0;
  std::size_t beyond3 = 0;
  for (std::size_t i = 0; i < kN; ++i) {
    const double x = rng.gaussian_zig();
    sum += x;
    sum2 += x * x;
    sum3 += x * x * x;
    sum4 += x * x * x * x;
    if (std::abs(x) > 3.0) ++beyond3;
  }
  const double n = static_cast<double>(kN);
  EXPECT_NEAR(sum / n, 0.0, 3e-3);          // mean (se ~ 7e-4)
  EXPECT_NEAR(sum2 / n, 1.0, 5e-3);         // variance (se ~ 1e-3)
  EXPECT_NEAR(sum3 / n, 0.0, 1.5e-2);       // skewness numerator
  EXPECT_NEAR(sum4 / n, 3.0, 5e-2);         // kurtosis numerator
  // Tail mass: P(|X| > 3) = 2.6998e-3; the wedge/tail layers must not
  // clip it (se of the count ~ 73).
  EXPECT_NEAR(static_cast<double>(beyond3), 2.6998e-3 * n, 5.0 * 73.0);
}

TEST(Ziggurat, ProducesTailValuesBeyondR) {
  // The tail sampler beyond R = 3.654 must fire with 2M draws
  // (P(|X| > R) ~ 2.6e-4, expected ~ 520 hits).
  lu::Rng rng(7);
  std::size_t beyond_r = 0;
  for (std::size_t i = 0; i < 2000000; ++i) {
    if (std::abs(rng.gaussian_zig()) > 3.6541528853610088) ++beyond_r;
  }
  EXPECT_GT(beyond_r, 300u);
  EXPECT_LT(beyond_r, 800u);
}

TEST(Ziggurat, DeterministicAndSeparateFromBoxMullerCache) {
  lu::Rng a(77);
  lu::Rng b(77);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(a.gaussian_zig(), b.gaussian_zig());
  }
  // gaussian() caches its second Box-Muller variate; gaussian_zig() must
  // not consume or invalidate it. Draw the first variate, detour through
  // the ziggurat on a serialized copy, and check the cached value appears.
  lu::Rng c(123);
  (void)c.gaussian();
  lu::Rng d = lu::Rng::deserialize(c.serialize());
  const double zig = d.gaussian_zig();
  (void)zig;
  // Both rngs now return c's cached second variate first.
  EXPECT_EQ(c.serialize()[4], d.serialize()[4]);  // cache word untouched
  const double expected_cached = c.gaussian();
  EXPECT_EQ(d.gaussian(), expected_cached);
}

TEST(Ziggurat, MeanAndStddevOverloadScales) {
  lu::Rng rng(9);
  double sum = 0.0, sum2 = 0.0;
  const std::size_t kN = 500000;
  for (std::size_t i = 0; i < kN; ++i) {
    const double x = rng.gaussian_zig(5.0, 0.25);
    sum += x;
    sum2 += x * x;
  }
  const double n = static_cast<double>(kN);
  const double mean = sum / n;
  EXPECT_NEAR(mean, 5.0, 2e-3);
  EXPECT_NEAR(sum2 / n - mean * mean, 0.0625, 1e-3);
  EXPECT_THROW(rng.gaussian_zig(0.0, -1.0), lu::PreconditionError);
}

TEST(Ziggurat, StreamPinned) {
  // Every campaign's bytes and the committed goldens hang off this stream:
  // 2M draws at seed 7 (the tail sampler and the wedge test both fire)
  // must reproduce these values bit for bit and consume this many words.
  lu::Rng rng(7);
  lu::Crc32 crc;
  for (std::size_t i = 0; i < 2000000; ++i) {
    const double x = rng.gaussian_zig();
    std::array<std::uint8_t, 8> bytes;
    std::memcpy(bytes.data(), &x, bytes.size());
    crc.update(bytes);
  }
  EXPECT_EQ(crc.value(), 0xaa07cab4u);
  EXPECT_EQ(rng.draws(), 2044323u);
}

TEST(Ziggurat, FillMatchesSingleDraws) {
  constexpr std::size_t kN = 300000;
  lu::Rng single(2024);
  lu::Rng whole(2024);
  lu::Rng chunked(2024);
  std::vector<double> expected(kN);
  for (auto& x : expected) x = single.gaussian_zig();

  std::vector<double> filled(kN);
  whole.fill_gaussian_zig(filled);

  std::vector<double> pieces(kN);
  lu::Rng sizes(99);
  for (std::size_t at = 0; at < kN;) {
    const std::size_t len =
        std::min<std::size_t>(kN - at, sizes.uniform_u64(64));  // 0 included
    chunked.fill_gaussian_zig(std::span<double>(pieces).subspan(at, len));
    at += len;
  }

  for (std::size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(filled[i]),
              std::bit_cast<std::uint64_t>(expected[i]))
        << "fill diverges at " << i;
    ASSERT_EQ(std::bit_cast<std::uint64_t>(pieces[i]),
              std::bit_cast<std::uint64_t>(expected[i]))
        << "chunked fill diverges at " << i;
  }
  EXPECT_EQ(whole.serialize(), single.serialize());
  EXPECT_EQ(chunked.serialize(), single.serialize());
  EXPECT_EQ(whole.draws(), single.draws());
  EXPECT_EQ(chunked.draws(), single.draws());

  // An empty fill draws nothing.
  const auto before = whole.serialize();
  const auto draws_before = whole.draws();
  whole.fill_gaussian_zig({});
  EXPECT_EQ(whole.serialize(), before);
  EXPECT_EQ(whole.draws(), draws_before);
}

TEST(Ziggurat, LanesMatchPerStreamFills) {
#if defined(LEAKYDSP_SIMD_AVX512)
  if (lu::detected_simd_tier() < lu::SimdTier::kAvx512) {
    GTEST_SKIP() << "host cannot run the AVX-512 lane stepper";
  }
  // Eight streams of unequal length (one empty, some ending mid-tile),
  // long enough that layer-0 tails and wedge rejections fire in several
  // lanes: each lane must reproduce its own generator's fill exactly.
  constexpr std::size_t kLanes = lu::Rng::kZigLanes;
  const std::array<std::size_t, kLanes> counts = {40000, 0,     1,     31,
                                                  33,    20000, 30001, 64};
  std::vector<lu::Rng> lanes;
  std::vector<lu::Rng> reference;
  for (std::size_t l = 0; l < kLanes; ++l) {
    lanes.push_back(lu::Rng(4242).fork(l));
    reference.push_back(lu::Rng(4242).fork(l));
  }
  std::array<std::vector<double>, kLanes> got;
  for (std::size_t l = 0; l < kLanes; ++l) {
    got[l].resize(counts[l] + lu::Rng::kZigLaneTile);
  }
  std::array<std::size_t, kLanes> left = counts;
  std::array<std::size_t, kLanes> at{};
  while (std::any_of(left.begin(), left.end(),
                     [](std::size_t v) { return v > 0; })) {
    std::array<double*, kLanes> out{};
    std::array<std::size_t, kLanes> before = left;
    for (std::size_t l = 0; l < kLanes; ++l) out[l] = got[l].data() + at[l];
    lu::Rng::fill_gaussian_zig_lanes(lanes, left, out.data());
    for (std::size_t l = 0; l < kLanes; ++l) {
      ASSERT_EQ(before[l] - left[l],
                std::min(before[l], lu::Rng::kZigLaneTile));
      at[l] += before[l] - left[l];
    }
  }
  std::size_t tails = 0;
  std::size_t slow_draws = 0;
  for (std::size_t l = 0; l < kLanes; ++l) {
    SCOPED_TRACE(l);
    std::vector<double> expected(counts[l]);
    reference[l].fill_gaussian_zig(expected);
    for (std::size_t i = 0; i < counts[l]; ++i) {
      ASSERT_EQ(std::bit_cast<std::uint64_t>(got[l][i]),
                std::bit_cast<std::uint64_t>(expected[i]))
          << "lane " << l << " diverges at " << i;
      if (std::abs(expected[i]) > 3.6541528853610088) ++tails;
    }
    EXPECT_EQ(lanes[l].serialize(), reference[l].serialize());
    EXPECT_EQ(lanes[l].draws(), reference[l].draws());
    slow_draws += reference[l].draws() - counts[l];
  }
  // The slow path ran: tail values exist, and the extra draws exceed the
  // tails' two each, so wedge tests (and their rejections) ran as well.
  EXPECT_GT(tails, 5u);
  EXPECT_GT(slow_draws, 2 * tails + 100);
#else
  GTEST_SKIP() << "built without the AVX-512 tier";
#endif
}

// ------------------------------------------------------------ CPA kernel

TEST(CpaKernels, PairTableMatchesPerByteRows) {
  lu::Rng rng(321);
  for (int trial = 0; trial < 50; ++trial) {
    const lc::Block ct = random_block(rng);
    for (int b = 0; b < 16; ++b) {
      const auto row = la::last_round_hd_row(ct, b);
      const std::uint8_t* pair_row = la::last_round_hd_pair_row(
          ct[static_cast<std::size_t>(b)],
          ct[static_cast<std::size_t>(lc::Aes128::shift_rows_map(b))]);
      for (int g = 0; g < 256; ++g) {
        ASSERT_EQ(pair_row[g], row[static_cast<std::size_t>(g)]);
      }
    }
  }
}

TEST(CpaKernels, HypothesisSumsAreExactIntegers) {
  // The kernel accumulates hypothesis sums as integers; every partial sum
  // is therefore exactly representable and equal to the brute-force
  // integer total over the per-byte HD rows.
  constexpr std::size_t kPoi = 3;
  constexpr std::size_t kTraces = 257;  // odd, spans several trace blocks
  lu::Rng rng(808);
  std::vector<lc::Block> cts(kTraces);
  std::vector<double> rows(kTraces * kPoi, 1.0);
  for (auto& ct : cts) ct = random_block(rng);

  la::CpaAttack cpa(kPoi);
  cpa.add_traces(cts, rows);

  std::array<std::array<std::uint64_t, 256>, 16> hs{};
  std::array<std::array<std::uint64_t, 256>, 16> h2s{};
  for (const auto& ct : cts) {
    for (int b = 0; b < 16; ++b) {
      const auto row = la::last_round_hd_row(ct, b);
      for (std::size_t g = 0; g < 256; ++g) {
        hs[static_cast<std::size_t>(b)][g] += row[g];
        h2s[static_cast<std::size_t>(b)][g] += row[g] * row[g];
      }
    }
  }

  lu::ByteWriter w;
  cpa.serialize(w);
  // Layout: u64 poi, u64 traces, sum_t[poi], sum_t2[poi], sum_h[16][256],
  // sum_h2[16][256], ...
  lu::ByteReader r(w.span());
  (void)r.u64();
  (void)r.u64();
  for (std::size_t k = 0; k < 2 * kPoi; ++k) (void)r.f64();
  for (const auto* sums : {&hs, &h2s}) {
    for (const auto& per_byte : *sums) {
      for (const std::uint64_t expected : per_byte) {
        ASSERT_EQ(r.f64(), static_cast<double>(expected));
      }
    }
  }
}

// ------------------------------------------------- batched sensor sampling

TEST(SampleBatch, LeakyDspJitterFreeBatchMatchesScalarExactly) {
  const lsim::Basys3Scenario scenario;
  lcore::LeakyDspParams params;
  params.jitter_sigma_ns = 0.0;
  lcore::LeakyDspSensor scalar(scenario.device(), scenario.fig3_dsp_site(),
                               params);
  lcore::LeakyDspSensor batched(scenario.device(), scenario.fig3_dsp_site(),
                                params);
  lu::Rng rng_a(1);
  lu::Rng rng_b(1);
  std::vector<double> supplies;
  lu::Rng vr(22);
  for (int i = 0; i < 512; ++i) supplies.push_back(vr.uniform(0.93, 1.0));
  std::vector<double> out(supplies.size());
  batched.sample_batch(supplies, out, rng_b);
  for (std::size_t i = 0; i < supplies.size(); ++i) {
    ASSERT_EQ(out[i], scalar.sample(supplies[i], rng_a)) << "sample " << i;
  }
}

TEST(SampleBatch, LeakyDspBatchMatchesScalarDistribution) {
  const lsim::Basys3Scenario scenario;
  lcore::LeakyDspSensor scalar(scenario.device(), scenario.fig3_dsp_site());
  lcore::LeakyDspSensor batched(scenario.device(), scenario.fig3_dsp_site());
  // Calibrate identically so the capture edge sits in the sensitive zone.
  lu::Rng cal(3);
  scalar.calibrate(1.0, cal);
  batched.set_taps(scalar.a_taps(), scalar.clk_taps());
  batched.set_fine_phase(scalar.fine_phase());

  const double v = 0.9965;  // a few mV of droop
  const std::size_t kN = 40000;
  lu::Rng rng_a(10);
  lu::Rng rng_b(11);  // independent stream: the paths consume differently
  double sum_a = 0.0, sum2_a = 0.0;
  for (std::size_t i = 0; i < kN; ++i) {
    const double x = scalar.sample(v, rng_a);
    sum_a += x;
    sum2_a += x * x;
  }
  std::vector<double> supplies(kN, v);
  std::vector<double> out(kN);
  batched.sample_batch(supplies, out, rng_b);
  double sum_b = 0.0, sum2_b = 0.0;
  for (const double x : out) {
    sum_b += x;
    sum2_b += x * x;
  }
  const double n = static_cast<double>(kN);
  const double mean_a = sum_a / n, mean_b = sum_b / n;
  const double var_a = sum2_a / n - mean_a * mean_a;
  const double var_b = sum2_b / n - mean_b * mean_b;
  // Same distribution: means within 5 combined standard errors, variances
  // within 15 percent of each other.
  const double se = std::sqrt((var_a + var_b) / n);
  EXPECT_NEAR(mean_a, mean_b, 5.0 * se + 1e-12);
  EXPECT_LT(std::abs(var_a - var_b), 0.15 * std::max(var_a, var_b) + 1e-9);
}

TEST(SampleBatch, TdcBatchMatchesScalarDistribution) {
  const lsim::Basys3Scenario scenario;
  lsens::TdcSensor scalar(scenario.device(), scenario.fig3_clb_site());
  lsens::TdcSensor batched(scenario.device(), scenario.fig3_clb_site());
  lu::Rng cal(3);
  scalar.calibrate(1.0, cal);
  batched.set_offset_taps(scalar.offset_taps());

  const double v = 0.9965;
  const std::size_t kN = 40000;
  lu::Rng rng_a(20);
  lu::Rng rng_b(21);
  double sum_a = 0.0, sum2_a = 0.0;
  for (std::size_t i = 0; i < kN; ++i) {
    const double x = scalar.sample(v, rng_a);
    sum_a += x;
    sum2_a += x * x;
  }
  std::vector<double> supplies(kN, v);
  std::vector<double> out(kN);
  batched.sample_batch(supplies, out, rng_b);
  double sum_b = 0.0, sum2_b = 0.0;
  for (const double x : out) {
    sum_b += x;
    sum2_b += x * x;
  }
  const double n = static_cast<double>(kN);
  const double mean_a = sum_a / n, mean_b = sum_b / n;
  const double var_a = sum2_a / n - mean_a * mean_a;
  const double var_b = sum2_b / n - mean_b * mean_b;
  const double se = std::sqrt((var_a + var_b) / n);
  EXPECT_NEAR(mean_a, mean_b, 5.0 * se + 1e-12);
  EXPECT_LT(std::abs(var_a - var_b), 0.15 * std::max(var_a, var_b) + 1e-9);
}

TEST(SampleBatch, DefaultBaseImplementationLoopsScalar) {
  // A sensor without an override must get the scalar-equivalent default.
  const lsim::Basys3Scenario scenario;
  lcore::LeakyDspSensor sensor(scenario.device(), scenario.fig3_dsp_site());
  // Call through the base pointer with a span of one: both paths exist on
  // LeakyDSP, so just verify the batch API handles empty and tiny spans.
  lsens::VoltageSensor& base = sensor;
  lu::Rng rng(1);
  std::vector<double> out;
  base.sample_batch({}, out, rng);  // empty: no-op, no crash
  std::vector<double> one_supply{1.0};
  std::vector<double> one_out(1);
  base.sample_batch(one_supply, one_out, rng);
  EXPECT_GE(one_out[0], 0.0);
  EXPECT_LE(one_out[0], 48.0);
}

TEST(SampleBatch, LeakyDspBatchKeepsThePerBitZigguratStream) {
  // The batched kernel fills each readout's edge-window jitters in one
  // ziggurat call; that must be exactly one gaussian_zig() per window bit
  // in bit order, so every campaign byte survives the batching. Reference:
  // the per-bit loop, rebuilt from the public timing surface.
  const lsim::Basys3Scenario scenario;
  lcore::LeakyDspSensor sensor(scenario.device(), scenario.fig3_dsp_site());
  lu::Rng cal(3);
  sensor.calibrate(1.0, cal);
  const lt::ScaleTable lut(sensor.params().law);
  const double sigma = sensor.params().jitter_sigma_ns;
  const double cut = lcore::LeakyDspSensor::kJitterCutSigma * sigma;
  const double t_capture = sensor.sampling_time_ns();

  std::vector<double> supplies;
  lu::Rng vr(23);
  for (int i = 0; i < 2000; ++i) supplies.push_back(vr.uniform(0.985, 1.0));
  std::vector<double> out(supplies.size());
  lu::Rng rng_batch(12);
  lu::Rng rng_ref(12);
  sensor.sample_batch(supplies, out, rng_batch);
  for (std::size_t s = 0; s < supplies.size(); ++s) {
    const double scale = lut(supplies[s]);
    const double lo = (t_capture - cut) / scale;
    const double hi = (t_capture + cut) / scale;
    std::size_t count = 0;
    for (std::size_t i = 0; i < sensor.readout_bits(); ++i) {
      const double settle = sensor.bit_settle_ns(i);
      if (settle <= lo) {
        ++count;
      } else if (settle <= hi &&
                 settle * scale + sigma * rng_ref.gaussian_zig() <=
                     t_capture) {
        ++count;
      }
    }
    ASSERT_EQ(out[s], static_cast<double>(count)) << "readout " << s;
  }
  EXPECT_EQ(rng_batch.serialize(), rng_ref.serialize());
  EXPECT_EQ(rng_batch.draws(), rng_ref.draws());
}

TEST(SampleBatch, LeakyDspTraceGroupsKeepEachTracesStream) {
  // sample_traces digitizes up to eight traces at once (on AVX-512, one
  // trace per lane); every trace must get exactly the readouts, final
  // state and draws() of sample_batch on a copy of its own generator,
  // under every dispatch tier, from idle down to a droop that pins the
  // readout to the bottom rail (and above idle, to the top rail). A wide
  // jitter makes windows longer than 32 bits; none makes them empty.
  const lsim::Basys3Scenario scenario;
  lcore::LeakyDspParams no_jitter;
  no_jitter.jitter_sigma_ns = 0.0;
  lcore::LeakyDspParams wide_jitter;
  wide_jitter.jitter_sigma_ns = 0.03;
  for (const lcore::LeakyDspParams& params :
       {lcore::LeakyDspParams{}, no_jitter, wide_jitter}) {
    lcore::LeakyDspSensor sensor(scenario.device(), scenario.fig3_dsp_site(),
                                 params);
    lu::Rng cal(3);
    ASSERT_TRUE(sensor.calibrate(1.0, cal).success);
    const std::size_t kReadouts = 97;
    std::vector<double> supplies(lsens::VoltageSensor::kTraceGroup *
                                 kReadouts);
    lu::Rng vr(31);
    for (std::size_t i = 0; i < supplies.size(); ++i) {
      const double droop = 0.06 * static_cast<double>(i % kReadouts) /
                           static_cast<double>(kReadouts);
      supplies[i] = vr.uniform(1.004, 1.01) - droop;
    }
    std::array<double, 2> rails = {48.0, 0.0};
    std::vector<double> readouts;

    const TierGuard guard;
    for (const lu::SimdTier tier : available_tiers()) {
      lu::set_simd_tier_override(tier);
      for (std::size_t k = 1; k <= lsens::VoltageSensor::kTraceGroup; ++k) {
        SCOPED_TRACE(testing::Message()
                     << "tier " << lu::to_string(tier) << ", " << k
                     << " traces, sigma " << params.jitter_sigma_ns);
        const std::span<const double> group(supplies.data(), k * kReadouts);
        std::vector<lu::Rng> rngs;
        for (std::size_t g = 0; g < k; ++g) {
          rngs.push_back(lu::Rng(500 + k).fork(g));
        }
        const std::vector<lu::Rng> copies = rngs;
        std::vector<double> out(group.size());
        sensor.sample_traces(group, out, rngs);
        for (std::size_t g = 0; g < k; ++g) {
          lu::Rng ref = copies[g];
          std::vector<double> expected(kReadouts);
          sensor.sample_batch(group.subspan(g * kReadouts, kReadouts),
                              expected, ref);
          for (std::size_t s = 0; s < kReadouts; ++s) {
            ASSERT_EQ(std::bit_cast<std::uint64_t>(out[g * kReadouts + s]),
                      std::bit_cast<std::uint64_t>(expected[s]))
                << "trace " << g << " readout " << s;
          }
          EXPECT_EQ(rngs[g].serialize(), ref.serialize()) << "trace " << g;
          EXPECT_EQ(rngs[g].draws(), ref.draws()) << "trace " << g;
        }
        readouts.insert(readouts.end(), out.begin(), out.end());
      }
    }
    // The supplies reach both rails, and the jittered sensor draws.
    for (const double rail : rails) {
      EXPECT_NE(std::find(readouts.begin(), readouts.end(), rail),
                readouts.end())
          << "no readout at " << rail;
    }
  }
}

TEST(SampleBatch, TdcBatchKeepsThePerSampleZigguratStream) {
  // The batch fills all its jitters in one ziggurat call; that must equal
  // one gaussian_zig() per sample in sample order, i.e. the same readouts
  // and final state as sampling the trace one element at a time.
  const lsim::Basys3Scenario scenario;
  lsens::TdcSensor sensor(scenario.device(), scenario.fig3_clb_site());
  lu::Rng cal(3);
  sensor.calibrate(1.0, cal);
  std::vector<double> supplies;
  lu::Rng vr(24);
  for (int i = 0; i < 777; ++i) supplies.push_back(vr.uniform(0.99, 1.0));
  std::vector<double> whole(supplies.size());
  lu::Rng rng_whole(13);
  sensor.sample_batch(supplies, whole, rng_whole);
  lu::Rng rng_single(13);
  for (std::size_t s = 0; s < supplies.size(); ++s) {
    double one = 0.0;
    sensor.sample_batch({&supplies[s], 1}, {&one, 1}, rng_single);
    ASSERT_EQ(whole[s], one) << "readout " << s;
  }
  EXPECT_EQ(rng_whole.serialize(), rng_single.serialize());
  EXPECT_EQ(rng_whole.draws(), rng_single.draws());
}

TEST(SampleBatch, BaseLoopRejectsShortOutputSpan) {
  // RO, PPWM, RDS and VITI sample through the base loop; a short output
  // span is a precondition failure, not an out-of-bounds write.
  const lsim::Basys3Scenario scenario;
  lsens::RoSensor sensor(scenario.device(), scenario.fig3_clb_site());
  lu::Rng rng(1);
  const std::vector<double> supplies(8, 1.0);
  std::vector<double> out(7);
  EXPECT_THROW(sensor.sample_batch(supplies, out, rng),
               lu::PreconditionError);
}

TEST(SampleBatch, SupplyBatchRejectsShortOutputSpan) {
  const lsim::Basys3Scenario scenario;
  lcore::LeakyDspSensor sensor(scenario.device(), scenario.fig3_dsp_site());
  const lsim::SensorRig rig(scenario.grid(), sensor);
  auto sampler = rig.make_sampler();
  lu::Rng rng(1);
  const std::vector<double> droops(8, 0.0);
  std::vector<double> out(7);
  EXPECT_THROW(sampler.supply_batch(droops, out, rng), lu::PreconditionError);
}
