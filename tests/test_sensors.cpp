// Tests for the sensor models: LeakyDSP (core), TDC and RO. Covers
// functional identity computation, settle-time structure, voltage
// sensitivity, calibration behaviour (including the batched calibration
// against a scalar-sampling reference and LeakyDSP's one-pass calibration
// mean against the sample_batch path), and the relative granularity the
// paper reports (LeakyDSP's regression slope ~3x the TDC's).
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "core/leaky_dsp.h"
#include "fabric/bitstream_checker.h"
#include "fabric/device.h"
#include "fabric/primitives.h"
#include "sensors/calibration.h"
#include "sensors/ro_sensor.h"
#include "sensors/tdc.h"
#include "timing/delay_model.h"
#include "util/contracts.h"
#include "util/cpu_features.h"
#include "util/rng.h"
#include "verify/oracle.h"

namespace lcore = leakydsp::core;
namespace lsens = leakydsp::sensors;
namespace lf = leakydsp::fabric;
namespace lt = leakydsp::timing;
namespace lu = leakydsp::util;

namespace {

/// Mean readout over n samples at a fixed supply.
double mean_readout(lsens::VoltageSensor& sensor, double v, lu::Rng& rng,
                    int n = 400) {
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += sensor.sample(v, rng);
  return sum / n;
}

}  // namespace

class LeakyDspTest : public ::testing::Test {
 protected:
  lf::Device dev_ = lf::Device::basys3();
  // DSP column x=16; cascade of 3 above y=10.
  lcore::LeakyDspSensor sensor_{dev_, {16, 10}};
  lu::Rng rng_{424242};
};

TEST_F(LeakyDspTest, PlacementMustBeDspSite) {
  EXPECT_THROW(lcore::LeakyDspSensor(dev_, {2, 10}), lu::PreconditionError);
}

TEST_F(LeakyDspTest, CascadeMustFitInColumn) {
  lcore::LeakyDspParams params;
  params.n_dsp = 3;
  EXPECT_THROW(lcore::LeakyDspSensor(dev_, {16, 58}, params),
               lu::PreconditionError);
  EXPECT_NO_THROW(lcore::LeakyDspSensor(dev_, {16, 57}, params));
}

TEST_F(LeakyDspTest, IdentityFunctionComputesPEqualsA) {
  // P = ((A + 0) * 1) + 0 through the whole cascade.
  for (const std::int64_t a : {0LL, 1LL, 0xabcdLL, (1LL << 24) - 1}) {
    EXPECT_EQ(sensor_.compute_identity(a), a) << "a=" << a;
  }
}

TEST_F(LeakyDspTest, ConfigsFormCascade) {
  const auto& cfgs = sensor_.block_configs();
  ASSERT_EQ(cfgs.size(), 3u);
  EXPECT_FALSE(cfgs[0].cascade_in);
  EXPECT_TRUE(cfgs[0].cascade_out);
  EXPECT_TRUE(cfgs[1].cascade_in);
  EXPECT_TRUE(cfgs[1].cascade_out);
  EXPECT_TRUE(cfgs[2].cascade_in);
  EXPECT_FALSE(cfgs[2].cascade_out);
  EXPECT_EQ(cfgs[2].preg, 1);
  for (const auto& c : cfgs) EXPECT_TRUE(c.fully_combinational());
}

TEST_F(LeakyDspTest, SettleTimesIncreaseOverall) {
  // The ripple makes spacing non-uniform but the window end is later than
  // its start.
  EXPECT_GT(sensor_.bit_settle_ns(47), sensor_.bit_settle_ns(0));
  const double base = sensor_.params().dsp_delay_ns * 3;
  EXPECT_GT(sensor_.bit_settle_ns(0), base);
  EXPECT_LT(sensor_.bit_settle_ns(47),
            base + 2.0 * sensor_.params().bit_spread_ns);
}

TEST_F(LeakyDspTest, FullReadoutWhenCaptureLate) {
  sensor_.set_taps(0, 0);  // capture at the full cycle boundary, very late
  EXPECT_DOUBLE_EQ(mean_readout(sensor_, 1.0, rng_, 50), 48.0);
}

TEST_F(LeakyDspTest, CalibrationFindsTransitionRegion) {
  const auto cal = sensor_.calibrate(1.0, rng_);
  EXPECT_TRUE(cal.success);
  EXPECT_GT(cal.steepness, 2.0);  // one tap step crosses several bits
  // Operating point near the top of the window but off the rail.
  EXPECT_GT(cal.idle_readout, 24.0);
  EXPECT_LT(cal.idle_readout, 48.0);
}

TEST_F(LeakyDspTest, DroopReducesReadoutAfterCalibration) {
  sensor_.calibrate(1.0, rng_);
  const double idle = mean_readout(sensor_, 1.0, rng_);
  const double drooped = mean_readout(sensor_, 1.0 - 5e-3, rng_);
  EXPECT_LT(drooped, idle - 3.0);
}

TEST_F(LeakyDspTest, SensitivityAroundTargetBitsPerMillivolt) {
  sensor_.calibrate(1.0, rng_);
  // Probe across 10 mV so the estimate averages over the settle-spacing
  // ripple (locally the slope varies by ~±35%).
  const double idle = mean_readout(sensor_, 1.0, rng_, 3000);
  const double drooped = mean_readout(sensor_, 1.0 - 10e-3, rng_, 3000);
  const double bits_per_mv = (idle - drooped) / 10.0;
  // DESIGN.md targets ~1.4 bits/mV (3.45 bits per 1000-instance group at
  // ~2.5 mV/group).
  EXPECT_GT(bits_per_mv, 0.8);
  EXPECT_LT(bits_per_mv, 2.2);
}

TEST_F(LeakyDspTest, MonotoneReadoutOverDroopRange) {
  sensor_.calibrate(1.0, rng_);
  double prev = mean_readout(sensor_, 1.0, rng_, 1500);
  for (double droop_mv = 2.0; droop_mv <= 20.0; droop_mv += 2.0) {
    const double cur = mean_readout(sensor_, 1.0 - droop_mv * 1e-3, rng_, 1500);
    EXPECT_LT(cur, prev + 0.3) << "droop " << droop_mv << " mV";
    prev = cur;
  }
}

TEST_F(LeakyDspTest, NetlistPassesDeployedChecks) {
  const auto report = lf::audit_bitstream(sensor_.netlist(),
                                          lf::CheckPolicy::deployed());
  EXPECT_TRUE(report.accepted());
}

TEST_F(LeakyDspTest, UltraScaleVariantWorks) {
  const auto dev = lf::Device::axu3egb();
  lcore::LeakyDspSensor sensor(dev, {14, 20});
  lu::Rng rng(9);
  const auto cal = sensor.calibrate(1.0, rng);
  EXPECT_TRUE(cal.success);
  const double idle = mean_readout(sensor, 1.0, rng);
  const double drooped = mean_readout(sensor, 0.995, rng);
  EXPECT_LT(drooped, idle - 2.0);
}

TEST_F(LeakyDspTest, MoreBlocksMoreSensitivity) {
  // Ablation hook (Section V future work): amplified delay grows with n,
  // so readout shift per mV grows too.
  lu::Rng rng(10);
  std::vector<double> sensitivity;
  for (const std::size_t n : {1u, 3u, 6u}) {
    lcore::LeakyDspParams params;
    params.n_dsp = n;
    lcore::LeakyDspSensor sensor(dev_, {16, 10}, params);
    sensor.calibrate(1.0, rng);
    const double idle = mean_readout(sensor, 1.0, rng, 2000);
    const double droop = mean_readout(sensor, 0.997, rng, 2000);
    sensitivity.push_back(idle - droop);
  }
  EXPECT_GT(sensitivity[1], sensitivity[0]);
  EXPECT_GT(sensitivity[2], sensitivity[1]);
}

// ------------------------------------------------------------------- TDC

class TdcTest : public ::testing::Test {
 protected:
  lf::Device dev_ = lf::Device::basys3();
  lsens::TdcSensor sensor_{dev_, {2, 10}};
  lu::Rng rng_{515151};
};

TEST_F(TdcTest, PlacementMustBeClb) {
  EXPECT_THROW(lsens::TdcSensor(dev_, {16, 10}), lu::PreconditionError);
}

TEST_F(TdcTest, ChainMustFitVertically) {
  // 128 stages = 16 tile rows (two slices per row).
  EXPECT_THROW(lsens::TdcSensor(dev_, {2, 50}), lu::PreconditionError);
  EXPECT_NO_THROW(lsens::TdcSensor(dev_, {2, 43}));
}

TEST_F(TdcTest, CalibrationKeepsReadoutOnScale) {
  const auto cal = sensor_.calibrate(1.0, rng_);
  EXPECT_TRUE(cal.success);
  EXPECT_GT(cal.idle_readout, 64.0);
  EXPECT_LT(cal.idle_readout, 128.0);
}

TEST_F(TdcTest, DroopReducesStageCount) {
  sensor_.calibrate(1.0, rng_);
  const double idle = mean_readout(sensor_, 1.0, rng_);
  const double drooped = mean_readout(sensor_, 0.995, rng_);
  EXPECT_LT(drooped, idle - 1.0);
}

TEST_F(TdcTest, LeakyDspHasFinerGranularity) {
  // The paper's Fig. 3 comparison: LeakyDSP's regression slope is ~3x the
  // TDC's for the same voltage swing.
  lcore::LeakyDspSensor leaky(dev_, {16, 10});
  lu::Rng rng(11);
  leaky.calibrate(1.0, rng);
  sensor_.calibrate(1.0, rng);
  const double dv = 5e-3;
  const double leaky_delta = mean_readout(leaky, 1.0, rng, 3000) -
                             mean_readout(leaky, 1.0 - dv, rng, 3000);
  const double tdc_delta = mean_readout(sensor_, 1.0, rng, 3000) -
                           mean_readout(sensor_, 1.0 - dv, rng, 3000);
  EXPECT_GT(leaky_delta / tdc_delta, 2.0);
  EXPECT_LT(leaky_delta / tdc_delta, 5.0);
}

TEST_F(TdcTest, NetlistTripsCarryChainRule) {
  const auto report = lf::audit_bitstream(sensor_.netlist(),
                                          lf::CheckPolicy::deployed());
  EXPECT_FALSE(report.accepted());
  EXPECT_TRUE(report.has_rule("carry-chain"));
}

TEST_F(TdcTest, ReadoutBitsIs128) { EXPECT_EQ(sensor_.readout_bits(), 128u); }

// -------------------------------------------------------------------- RO

class RoTest : public ::testing::Test {
 protected:
  lf::Device dev_ = lf::Device::basys3();
  lsens::RoSensor sensor_{dev_, {2, 10}};
  lu::Rng rng_{616161};
};

TEST_F(RoTest, FrequencyDropsWithDroop) {
  EXPECT_LT(sensor_.frequency_mhz(0.99), sensor_.frequency_mhz(1.0));
}

TEST_F(RoTest, CountsScaleWithWindow) {
  const double idle = mean_readout(sensor_, 1.0, rng_);
  // f0=350 MHz over 3333 ns -> ~1166 counts.
  EXPECT_NEAR(idle, 350.0 * 3.333, 15.0);
}

TEST_F(RoTest, DroopReducesCounts) {
  const double idle = mean_readout(sensor_, 1.0, rng_);
  const double drooped = mean_readout(sensor_, 0.99, rng_);
  EXPECT_LT(drooped, idle - 5.0);
}

TEST_F(RoTest, NetlistTripsLoopRule) {
  const auto report = lf::audit_bitstream(sensor_.netlist(),
                                          lf::CheckPolicy::deployed());
  EXPECT_TRUE(report.has_rule("comb-loop"));
}

TEST_F(RoTest, CalibrationTrivial) {
  const auto cal = sensor_.calibrate(1.0, rng_);
  EXPECT_TRUE(cal.success);
  EXPECT_GT(cal.idle_readout, 0.0);
}

TEST_F(LeakyDspTest, CalibrationUnderLoadStillYieldsSensitivity) {
  // Calibrating while a co-tenant draws steady current (a realistic cloud
  // deployment: the PDN is never perfectly idle) parks the operating point
  // around the loaded supply — droop *changes* from there are still
  // resolved.
  lu::Rng rng(515);
  const double loaded_v = 1.0 - 6e-3;  // steady 6 mV background droop
  const auto cal = sensor_.calibrate(loaded_v, rng, 256);
  ASSERT_TRUE(cal.success);
  const double at_load = mean_readout(sensor_, loaded_v, rng_, 2000);
  const double deeper = mean_readout(sensor_, loaded_v - 5e-3, rng_, 2000);
  EXPECT_LT(deeper, at_load - 3.0);
}

// ----------------------------------------------------------- calibration

TEST_F(LeakyDspTest, RecalibrationDoesNotDependOnPreviousCalibration) {
  // The coarse sweep must not run at the fine phase the previous
  // calibration left behind.
  lu::Rng first_rng(31);
  const auto first = sensor_.calibrate(1.0, first_rng, 256);
  const int a = sensor_.a_taps(), clk = sensor_.clk_taps();
  const int phase = sensor_.fine_phase();
  lu::Rng second_rng(31);
  const auto second = sensor_.calibrate(1.0, second_rng, 256);
  EXPECT_EQ(second.chosen_setting, first.chosen_setting);
  EXPECT_EQ(second.steepness, first.steepness);
  EXPECT_EQ(second.idle_readout, first.idle_readout);
  EXPECT_EQ(sensor_.a_taps(), a);
  EXPECT_EQ(sensor_.clk_taps(), clk);
  EXPECT_EQ(sensor_.fine_phase(), phase);
}

namespace {

/// Reads a wrapped sensor through its scalar sample(): the base-class
/// sample_batch loop, so the shared sweep fed with this adapter is the
/// scalar reference of a sensor's batched calibration.
class ScalarReader final : public lsens::VoltageSensor {
 public:
  explicit ScalarReader(lsens::VoltageSensor& inner) : inner_(inner) {}
  std::string name() const override { return inner_.name(); }
  lf::SiteCoord site() const override { return inner_.site(); }
  std::size_t readout_bits() const override { return inner_.readout_bits(); }
  double sample(double supply_v, lu::Rng& rng) override {
    return inner_.sample(supply_v, rng);
  }
  lsens::CalibrationResult calibrate(double, lu::Rng&,
                                     std::size_t) override {
    ADD_FAILURE() << "the reference adapter is never calibrated itself";
    return {};
  }
  std::unique_ptr<lsens::VoltageSensor> clone() const override {
    ADD_FAILURE() << "the reference adapter is never cloned";
    return nullptr;
  }

 private:
  lsens::VoltageSensor& inner_;
};

/// The supply in the table's range nearest the one at which `bit` settles
/// exactly at the capture edge (bisection on the alpha-power law, whose
/// delay scale falls as the supply rises).
double edge_supply(const lcore::LeakyDspSensor& sensor, std::size_t bit,
                   const lt::ScaleTable& table) {
  const double target = sensor.sampling_time_ns() / sensor.bit_settle_ns(bit);
  double lo = table.v_lo();
  double hi = table.v_hi();
  for (int i = 0; i < 60; ++i) {
    const double mid = 0.5 * (lo + hi);
    (sensor.params().law.scale(mid) > target ? lo : hi) = mid;
  }
  return 0.5 * (lo + hi);
}

/// LeakyDSP's two calibration stages, reading every sample through the
/// sensor's scalar sample().
lsens::CalibrationResult scalar_reference_calibration(
    lcore::LeakyDspSensor& sensor, int taps, lu::Rng& rng, std::size_t n) {
  ScalarReader reader(sensor);
  sensor.set_fine_phase(0);
  auto result = lsens::sweep_settings(
      reader, 2 * taps - 1,
      [&](int k) {
        if (k < taps) {
          sensor.set_taps(0, taps - 1 - k);
        } else {
          sensor.set_taps(k - taps + 1, 0);
        }
      },
      1.0, n, rng);
  int best_phase = 0;
  double best_dist = std::numeric_limits<double>::max();
  for (int phase = 0; phase <= 5; ++phase) {
    sensor.set_fine_phase(phase);
    const double m = reader.mean_readout(1.0, n, rng);
    if (std::abs(m - 0.85 * 48.0) < best_dist) {
      best_dist = std::abs(m - 0.85 * 48.0);
      best_phase = phase;
      result.idle_readout = m;
    }
  }
  sensor.set_fine_phase(best_phase);
  return result;
}

}  // namespace

TEST_F(LeakyDspTest, ConstantMeanMatchesSampleBatch) {
  // LeakyDSP's one-pass mean_readout() against the base class's path (one
  // sample_batch call over n copies of the supply, summed in order): equal
  // bits, rng state and draws() at every coarse setting and fine phase, for
  // short and long means, at supplies across the ScaleTable range, with
  // and without jitter, on every dispatch tier.
  const int taps = lf::idelay_taps(dev_.architecture()).tap_count;
  const lt::ScaleTable table(lcore::LeakyDspParams{}.law);
  // Every count runs twice per setting: at the next of 13 points over the
  // whole table (13 is prime to the 6 counts, so every count meets every
  // point), and at the supply that puts the capture edge on a settle time,
  // where the window is widest.
  std::vector<double> supplies;
  for (int i = 0; i <= 12; ++i) {
    supplies.push_back(table.v_lo() + (table.v_hi() - table.v_lo()) * i / 12.0);
  }
  constexpr std::size_t kCounts[] = {1, 2, 7, 64, 256, 1000};
  const leakydsp::verify::TierRelease release;
  for (const double sigma : {0.008, 0.0}) {
    lcore::LeakyDspParams params;
    params.jitter_sigma_ns = sigma;
    lcore::LeakyDspSensor sensor(dev_, {16, 10}, params);
    for (const lu::SimdTier tier : leakydsp::verify::available_tiers()) {
      lu::set_simd_tier_override(tier);
      lu::Rng fast(99);
      lu::Rng base(99);
      std::size_t at = 0;
      std::size_t inside = 0;  // means strictly between the rails
      for (int k = 0; k < 2 * taps - 1; ++k) {
        if (k < taps) {
          sensor.set_taps(0, taps - 1 - k);
        } else {
          sensor.set_taps(k - taps + 1, 0);
        }
        for (int phase = 0; phase <= 5; ++phase) {
          sensor.set_fine_phase(phase);
          for (const std::size_t n : kCounts) {
            const double edge = edge_supply(sensor, at % 48, table);
            for (const double v : {supplies[at++ % supplies.size()], edge}) {
              const double m = sensor.mean_readout(v, n, fast);
              const double ref = sensor.VoltageSensor::mean_readout(v, n, base);
              ASSERT_EQ(std::bit_cast<std::uint64_t>(m),
                        std::bit_cast<std::uint64_t>(ref))
                  << lu::to_string(tier) << " sigma " << sigma << " setting "
                  << k << " phase " << phase << " n " << n << " v " << v
                  << ": " << m << " vs " << ref;
              ASSERT_EQ(fast.serialize(), base.serialize())
                  << lu::to_string(tier) << " setting " << k << " phase "
                  << phase << " n " << n << " v " << v;
              ASSERT_EQ(fast.draws(), base.draws());
              inside += m > 0.0 && m < 48.0;
            }
          }
        }
      }
      // The sweep must reach the edge window, not only the rails.
      EXPECT_GT(inside, 2000u) << lu::to_string(tier) << " sigma " << sigma;
      if (sigma > 0.0) {
        EXPECT_GT(fast.draws(), 0u);
      }
    }
  }
}

TEST_F(LeakyDspTest, BatchedCalibrationMatchesScalarReference) {
  // Over 50 seeds the batched calibration picks the same coarse setting
  // and fine phase as the scalar reference, and its idle readout agrees
  // within the 256-sample means' noise (per-seed spread ~0.07 bits).
  const int taps = lf::idelay_taps(dev_.architecture()).tap_count;
  double batched_sum = 0.0, scalar_sum = 0.0;
  constexpr int kSeeds = 50;
  for (int seed = 1; seed <= kSeeds; ++seed) {
    lcore::LeakyDspSensor batched(dev_, {16, 10});
    lcore::LeakyDspSensor scalar(dev_, {16, 10});
    lu::Rng batched_rng(seed);
    lu::Rng scalar_rng(seed);
    const auto b = batched.calibrate(1.0, batched_rng, 256);
    const auto s = scalar_reference_calibration(scalar, taps, scalar_rng, 256);
    ASSERT_TRUE(b.success) << "seed " << seed;
    EXPECT_EQ(b.chosen_setting, s.chosen_setting) << "seed " << seed;
    EXPECT_EQ(batched.a_taps(), scalar.a_taps()) << "seed " << seed;
    EXPECT_EQ(batched.clk_taps(), scalar.clk_taps()) << "seed " << seed;
    EXPECT_EQ(batched.fine_phase(), scalar.fine_phase()) << "seed " << seed;
    EXPECT_NEAR(b.idle_readout, s.idle_readout, 0.4) << "seed " << seed;
    batched_sum += b.idle_readout;
    scalar_sum += s.idle_readout;
  }
  EXPECT_NEAR(batched_sum / kSeeds, scalar_sum / kSeeds, 0.06);
}
