// Tests for autocorrelation, the RNG statistical battery, random-netlist
// fuzzing of the bitstream codec and checker, and a monotone-response
// property sweep over the whole sensor zoo.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <vector>

#include "core/leaky_dsp.h"
#include "fabric/bitstream.h"
#include "fabric/device.h"
#include "pdn/droop_filter.h"
#include "sensors/ppwm.h"
#include "sensors/rds.h"
#include "sensors/ro_sensor.h"
#include "sensors/tdc.h"
#include "sensors/viti.h"
#include "stats/descriptive.h"
#include "util/contracts.h"
#include "util/rng.h"

namespace lf = leakydsp::fabric;
namespace lp = leakydsp::pdn;
namespace ls = leakydsp::stats;
namespace lsens = leakydsp::sensors;
namespace lcore = leakydsp::core;
namespace lu = leakydsp::util;

// --------------------------------------------------------- autocorrelation

TEST(Autocorrelation, WhiteNoiseNearZero) {
  lu::Rng rng(1701);
  std::vector<double> xs(20000);
  for (auto& v : xs) v = rng.gaussian();
  EXPECT_NEAR(ls::autocorrelation(xs, 1), 0.0, 0.03);
  EXPECT_NEAR(ls::autocorrelation(xs, 10), 0.0, 0.03);
  EXPECT_DOUBLE_EQ(ls::autocorrelation(xs, 0), 1.0);
}

TEST(Autocorrelation, Ar1MatchesTheory) {
  // The ambient-noise process is AR(1); its lag-k autocorrelation must be
  // rho^k — validating the noise model's advertised correlation time.
  lu::Rng rng(1702);
  lp::AmbientNoise noise(1.0, 50.0, 3.333);
  std::vector<double> xs(60000);
  for (auto& v : xs) v = noise.step(rng);
  const double rho = noise.rho();
  EXPECT_NEAR(ls::autocorrelation(xs, 1), rho, 0.02);
  EXPECT_NEAR(ls::autocorrelation(xs, 5), std::pow(rho, 5), 0.03);
}

TEST(Autocorrelation, Contracts) {
  const std::vector<double> xs = {1.0, 2.0};
  EXPECT_THROW(ls::autocorrelation(xs, 2), lu::PreconditionError);
}

// ------------------------------------------------------------ RNG battery

TEST(RngBattery, ByteChiSquareUniform) {
  lu::Rng rng(1703);
  std::array<std::size_t, 256> counts{};
  const std::size_t n = 256 * 400;
  for (std::size_t i = 0; i < n; ++i) {
    ++counts[rng() & 0xff];
  }
  double chi2 = 0.0;
  const double expected = static_cast<double>(n) / 256.0;
  for (const auto c : counts) {
    const double d = static_cast<double>(c) - expected;
    chi2 += d * d / expected;
  }
  // 255 dof: mean 255, sigma ~22.6; accept within ~4.5 sigma.
  EXPECT_GT(chi2, 150.0);
  EXPECT_LT(chi2, 360.0);
}

TEST(RngBattery, NoSerialByteCorrelation) {
  lu::Rng rng(1704);
  std::vector<double> bytes(50000);
  for (auto& v : bytes) v = static_cast<double>(rng() & 0xff);
  EXPECT_NEAR(ls::autocorrelation(bytes, 1), 0.0, 0.02);
}

TEST(RngBattery, BitBalance) {
  lu::Rng rng(1705);
  std::array<std::size_t, 64> ones{};
  const std::size_t n = 20000;
  for (std::size_t i = 0; i < n; ++i) {
    const auto v = rng();
    for (int b = 0; b < 64; ++b) {
      if ((v >> b) & 1) ++ones[static_cast<std::size_t>(b)];
    }
  }
  for (int b = 0; b < 64; ++b) {
    EXPECT_NEAR(static_cast<double>(ones[static_cast<std::size_t>(b)]) /
                    static_cast<double>(n),
                0.5, 0.02)
        << "bit " << b;
  }
}

// ------------------------------------------------------------ netlist fuzz

TEST(NetlistFuzz, RandomDagsRoundTripAndAuditWithoutCrashing) {
  lu::Rng rng(1706);
  for (int trial = 0; trial < 30; ++trial) {
    lf::Netlist nl;
    const std::size_t cells = 3 + rng.uniform_u64(40);
    for (std::size_t i = 0; i < cells; ++i) {
      const auto name = [i](char kind) {
        std::string out(1, kind);
        out += std::to_string(i);
        return out;
      };
      switch (rng.uniform_u64(5)) {
        case 0:
          nl.add_cell(lf::CellType::kLut, name('l'),
                      lf::LutConfig{1 + static_cast<int>(rng.uniform_u64(6)),
                                    0x2});
          break;
        case 1:
          nl.add_cell(lf::CellType::kFf, name('f'),
                      lf::FfConfig{rng.bernoulli(0.2)});
          break;
        case 2:
          nl.add_cell(lf::CellType::kCarry4, name('c'),
                      lf::Carry4Config{4},
                      lf::SiteCoord{static_cast<int>(rng.uniform_u64(20)),
                                    static_cast<int>(rng.uniform_u64(20))});
          break;
        case 3:
          nl.add_cell(lf::CellType::kDsp48, name('d'),
                      rng.bernoulli(0.5)
                          ? lf::Dsp48Config::leaky_identity(
                                lf::Architecture::kSeries7, true, true)
                          : lf::Dsp48Config::pipelined_macc(
                                lf::Architecture::kSeries7));
          break;
        default:
          nl.add_cell(lf::CellType::kBuf, name('b'));
          break;
      }
    }
    // Random edges, including potential combinational loops.
    const std::size_t edges = rng.uniform_u64(3 * cells);
    for (std::size_t e = 0; e < edges; ++e) {
      nl.connect(rng.uniform_u64(cells), rng.uniform_u64(cells));
    }
    // None of these may crash; verdicts must survive serialization.
    const auto direct =
        audit_bitstream(nl, lf::CheckPolicy::with_dsp_rule());
    const auto blob = encode_bitstream(nl, lf::Architecture::kSeries7);
    const auto via_blob =
        lf::audit_bitstream_blob(blob, lf::CheckPolicy::with_dsp_rule());
    EXPECT_EQ(direct.accepted(), via_blob.accepted()) << "trial " << trial;
    EXPECT_GE(nl.worst_combinational_path_ns(), 0.0);
  }
}

// --------------------------------------------------- sensor zoo properties

struct ZooCase {
  const char* name;
  std::function<std::unique_ptr<lsens::VoltageSensor>(const lf::Device&)>
      make;
};

class ZooSweep : public ::testing::TestWithParam<int> {
 public:
  static std::vector<ZooCase> cases() {
    return {
        {"LeakyDSP",
         [](const lf::Device& d) {
           return std::make_unique<lcore::LeakyDspSensor>(
               d, lf::SiteCoord{16, 20});
         }},
        {"TDC",
         [](const lf::Device& d) {
           return std::make_unique<lsens::TdcSensor>(d,
                                                     lf::SiteCoord{2, 10});
         }},
        {"RDS",
         [](const lf::Device& d) {
           return std::make_unique<lsens::RdsSensor>(d,
                                                     lf::SiteCoord{3, 10});
         }},
        {"VITI",
         [](const lf::Device& d) {
           return std::make_unique<lsens::VitiSensor>(d,
                                                      lf::SiteCoord{4, 10});
         }},
        {"PPWM",
         [](const lf::Device& d) {
           return std::make_unique<lsens::PpwmSensor>(d,
                                                      lf::SiteCoord{5, 10});
         }},
        {"RO",
         [](const lf::Device& d) {
           return std::make_unique<lsens::RoSensor>(d, lf::SiteCoord{6, 10});
         }},
    };
  }
};

TEST_P(ZooSweep, ReadoutRespondsMonotonicallyToDroop) {
  const auto zoo = cases();
  const auto& entry = zoo[static_cast<std::size_t>(GetParam())];
  const auto device = lf::Device::basys3();
  auto sensor = entry.make(device);
  lu::Rng rng(1800 + GetParam());
  ASSERT_TRUE(sensor->calibrate(1.0, rng, 256).success) << entry.name;

  auto mean_at = [&](double v) {
    double sum = 0.0;
    for (int i = 0; i < 2500; ++i) sum += sensor->sample(v, rng);
    return sum / 2500.0;
  };
  // |readout(idle) - readout(droop)| grows with droop for every family
  // (direction differs: PPWM counts up, thermometer codes count down).
  const double idle = mean_at(1.0);
  const double small = std::abs(mean_at(1.0 - 5e-3) - idle);
  const double large = std::abs(mean_at(1.0 - 15e-3) - idle);
  EXPECT_GT(large, small) << entry.name;
  EXPECT_GT(large, 0.5) << entry.name;
}

INSTANTIATE_TEST_SUITE_P(AllFamilies, ZooSweep, ::testing::Range(0, 6));
