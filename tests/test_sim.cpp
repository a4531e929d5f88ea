// Tests for the simulation layer: sensor rigs, scenario floorplans, and
// the physical orderings the experiments depend on (Fig. 4 region ranking,
// Table I placement ranking).
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "core/leaky_dsp.h"
#include "sensors/ppwm.h"
#include "sensors/rds.h"
#include "sensors/ro_sensor.h"
#include "sensors/tdc.h"
#include "sensors/viti.h"
#include "sim/scenarios.h"
#include "sim/sensor_rig.h"
#include "stats/descriptive.h"
#include "util/rng.h"
#include "victim/power_virus.h"

namespace lsim = leakydsp::sim;
namespace lcore = leakydsp::core;
namespace lsens = leakydsp::sensors;
namespace lf = leakydsp::fabric;
namespace lp = leakydsp::pdn;
namespace lv = leakydsp::victim;
namespace ls = leakydsp::stats;
namespace lu = leakydsp::util;

TEST(SensorRig, IdleReadoutNearCalibrationPoint) {
  const lsim::Basys3Scenario scenario;
  lcore::LeakyDspSensor sensor(scenario.device(), scenario.fig3_dsp_site());
  lsim::SensorRig rig(scenario.grid(), sensor);
  lu::Rng rng(1);
  const auto cal = rig.calibrate(rng);
  ASSERT_TRUE(cal.success);
  const auto idle = rig.collect_constant(500, {}, rng);
  EXPECT_NEAR(ls::mean(idle), cal.idle_readout, 2.0);
}

TEST(SensorRig, DroopLowersReadout) {
  const lsim::Basys3Scenario scenario;
  lcore::LeakyDspSensor sensor(scenario.device(), scenario.fig3_dsp_site());
  lsim::SensorRig rig(scenario.grid(), sensor);
  lu::Rng rng(2);
  rig.calibrate(rng);
  lv::PowerVirus virus(scenario.device(), scenario.grid(),
                       scenario.virus_regions());
  virus.set_enabled(true);
  const auto draws = virus.mean_draws();
  const auto idle = rig.collect_constant(500, {}, rng);
  rig.settle();
  const auto busy = rig.collect_constant(500, draws, rng);
  EXPECT_LT(ls::mean(busy), ls::mean(idle) - 5.0);
}

TEST(SensorRig, ReadoutNoiseModest) {
  const lsim::Basys3Scenario scenario;
  lcore::LeakyDspSensor sensor(scenario.device(), scenario.fig3_dsp_site());
  lsim::SensorRig rig(scenario.grid(), sensor);
  lu::Rng rng(3);
  rig.calibrate(rng);
  const auto idle = rig.collect_constant(3000, {}, rng);
  const double sigma = ls::stddev(idle);
  EXPECT_GT(sigma, 0.1);  // sensors are noisy...
  EXPECT_LT(sigma, 3.0);  // ...but signal (several bits/group) dominates
}

TEST(SensorRig, SettleClearsDynamics) {
  const lsim::Basys3Scenario scenario;
  lcore::LeakyDspSensor sensor(scenario.device(), scenario.fig3_dsp_site());
  lsim::SensorRig rig(scenario.grid(), sensor);
  lu::Rng rng(4);
  rig.calibrate(rng);
  lv::PowerVirus virus(scenario.device(), scenario.grid(),
                       scenario.virus_regions());
  virus.set_enabled(true);
  rig.collect_constant(100, virus.mean_draws(), rng);
  rig.settle();
  const auto idle = rig.collect_constant(300, {}, rng);
  // After settling, idle statistics match a fresh rig.
  lcore::LeakyDspSensor sensor2(scenario.device(), {36, 30});
  EXPECT_NEAR(ls::mean(idle), ls::mean(rig.collect_constant(300, {}, rng)),
              1.0);
}

TEST(SensorRig, CalibrationAdvancesCallerRngByOneDraw) {
  // The sweep runs on a child stream seeded by one draw, so the caller's
  // stream does not depend on which sensor calibrated or how.
  const lsim::Basys3Scenario scenario;
  const auto& dev = scenario.device();
  const auto clb = scenario.fig3_clb_site();
  std::vector<std::unique_ptr<lsens::VoltageSensor>> sensors;
  sensors.push_back(
      std::make_unique<lcore::LeakyDspSensor>(dev, scenario.fig3_dsp_site()));
  sensors.push_back(std::make_unique<lsens::TdcSensor>(dev, clb));
  sensors.push_back(std::make_unique<lsens::RdsSensor>(dev, clb));
  sensors.push_back(std::make_unique<lsens::VitiSensor>(dev, clb));
  sensors.push_back(std::make_unique<lsens::PpwmSensor>(dev, clb));
  sensors.push_back(std::make_unique<lsens::RoSensor>(dev, clb));
  for (auto& sensor : sensors) {
    lsim::SensorRig rig(scenario.grid(), *sensor);
    lu::Rng rng(8);
    rng.gaussian();  // leave a cached Box–Muller variate in the state
    lu::Rng expected = rng;
    expected();
    ASSERT_TRUE(rig.calibrate(rng).success) << sensor->name();
    EXPECT_EQ(rng.serialize(), expected.serialize()) << sensor->name();
  }
}

TEST(SensorRig, LeakyDspAndTdcRigsLeaveEqualRngStates) {
  const lsim::Basys3Scenario scenario;
  lcore::LeakyDspSensor leaky(scenario.device(), scenario.fig3_dsp_site());
  lsens::TdcSensor tdc(scenario.device(), scenario.fig3_clb_site());
  lsim::SensorRig leaky_rig(scenario.grid(), leaky);
  lsim::SensorRig tdc_rig(scenario.grid(), tdc);
  lu::Rng leaky_rng(9);
  lu::Rng tdc_rng(9);
  leaky_rig.calibrate(leaky_rng);
  tdc_rig.calibrate(tdc_rng);
  EXPECT_EQ(leaky_rng.serialize(), tdc_rng.serialize());
}

// ------------------------------------------------------------- scenarios

TEST(Basys3Scenario, FloorplanValidates) {
  const lsim::Basys3Scenario scenario;
  EXPECT_NO_THROW(scenario.validate());
  EXPECT_EQ(scenario.attack_placements().size(), 8u);
}

TEST(Basys3Scenario, PlacementsAreDspSites) {
  const lsim::Basys3Scenario scenario;
  for (const auto& p : scenario.attack_placements()) {
    EXPECT_EQ(scenario.device().site_type(p), lf::SiteType::kDsp)
        << "(" << p.x << "," << p.y << ")";
  }
  EXPECT_EQ(scenario.device().site_type(scenario.fig3_dsp_site()),
            lf::SiteType::kDsp);
  EXPECT_EQ(scenario.device().site_type(scenario.fig3_clb_site()),
            lf::SiteType::kClb);
}

TEST(Basys3Scenario, AesInsideVictimPblock) {
  const lsim::Basys3Scenario scenario;
  EXPECT_TRUE(scenario.victim_pblock().range.contains(scenario.aes_site()));
}

TEST(Basys3Scenario, P2IsClosestToVictim) {
  const lsim::Basys3Scenario scenario;
  const auto& ps = scenario.attack_placements();
  const auto closest =
      ps[static_cast<std::size_t>(lsim::Basys3Scenario::kClosestPlacementIndex)];
  for (const auto& p : ps) {
    EXPECT_GE(lf::distance(p, scenario.aes_site()),
              lf::distance(closest, scenario.aes_site()) - 1e-9);
  }
}

TEST(Basys3Scenario, P6HasBestCouplingButIsNotClosest) {
  // The paper's Fig. 5 observation: the best attack placement is not the
  // geometrically closest one.
  const lsim::Basys3Scenario scenario;
  const auto& ps = scenario.attack_placements();
  std::vector<double> gains;
  const std::size_t aes_node =
      scenario.grid().node_of_site(scenario.aes_site());
  for (const auto& p : ps) {
    const lp::SensorCoupling c(scenario.grid(), p);
    gains.push_back(c.gain_at_node(aes_node));
  }
  const auto best_it = std::max_element(gains.begin(), gains.end());
  const int best_index = static_cast<int>(best_it - gains.begin());
  EXPECT_EQ(best_index, lsim::Basys3Scenario::kBestPlacementIndex);
  EXPECT_NE(best_index, lsim::Basys3Scenario::kClosestPlacementIndex);
}

TEST(Basys3Scenario, PlacementGainSpreadMatchesTableI) {
  // Traces-to-break scales ~1/gain^2; the paper's 25k-58k range implies a
  // bounded gain spread. Allow up to ~2x (≈4x in traces).
  const lsim::Basys3Scenario scenario;
  std::vector<double> gains;
  const std::size_t aes_node =
      scenario.grid().node_of_site(scenario.aes_site());
  for (const auto& p : scenario.attack_placements()) {
    gains.push_back(lp::SensorCoupling(scenario.grid(), p).gain_at_node(aes_node));
  }
  const double spread = ls::max_value(gains) / ls::min_value(gains);
  EXPECT_GT(spread, 1.2);
  EXPECT_LT(spread, 2.2);
}

TEST(Basys3Scenario, Region2BestRegion5and6Worst) {
  // Fig. 4's ordering: virus in regions 1-2; the region-2 sensor sees the
  // largest droop, regions 5 and 6 the smallest (but non-zero).
  const lsim::Basys3Scenario scenario;
  lv::PowerVirus virus(scenario.device(), scenario.grid(),
                       scenario.virus_regions());
  virus.set_enabled(true);
  const auto draws = virus.mean_draws();
  std::vector<double> droop(7, 0.0);
  for (int r = 1; r <= 6; ++r) {
    const lp::SensorCoupling c(scenario.grid(), scenario.region_dsp_site(r));
    droop[static_cast<std::size_t>(r)] = c.droop_for(draws);
  }
  for (int r = 1; r <= 6; ++r) {
    if (r == 2) continue;
    EXPECT_LT(droop[static_cast<std::size_t>(r)], droop[2]) << "region " << r;
  }
  for (const int worst : {5, 6}) {
    for (const int other : {1, 2, 3, 4}) {
      EXPECT_LT(droop[5], droop[static_cast<std::size_t>(other)])
          << "5 vs " << other;
    }
    EXPECT_GT(droop[static_cast<std::size_t>(worst)], 0.0);
  }
}

TEST(Basys3Scenario, RegionProbesInsideTheirRegions) {
  const lsim::Basys3Scenario scenario;
  for (int r = 1; r <= 6; ++r) {
    const auto& bounds = scenario.device().clock_region(r).bounds;
    EXPECT_TRUE(bounds.contains(scenario.region_dsp_site(r))) << r;
    EXPECT_TRUE(bounds.contains(scenario.region_clb_site(r))) << r;
  }
}

TEST(Axu3egbScenario, ReceiverOnDspSite) {
  const lsim::Axu3egbScenario scenario;
  EXPECT_EQ(scenario.device().site_type(scenario.receiver_site()),
            lf::SiteType::kDsp);
  EXPECT_EQ(scenario.sender_regions().size(), 2u);
}
