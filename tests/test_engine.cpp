// Tests for multi-tenant composition on the PDN and the active-fence
// defender: concurrent tenants superpose, several rigs sample one draw
// schedule, workloads plug in as per-sample draws, and fence statistics.
#include <gtest/gtest.h>

#include <vector>

#include "core/leaky_dsp.h"
#include "sim/scenarios.h"
#include "sim/sensor_rig.h"
#include "stats/descriptive.h"
#include "util/contracts.h"
#include "util/rng.h"
#include "victim/active_fence.h"
#include "victim/workloads.h"

namespace lsim = leakydsp::sim;
namespace lcore = leakydsp::core;
namespace lv = leakydsp::victim;
namespace ls = leakydsp::stats;
namespace lu = leakydsp::util;
namespace lp = leakydsp::pdn;
namespace fabric = leakydsp::fabric;

class EngineTest : public ::testing::Test {
 protected:
  lsim::Basys3Scenario scenario_;
};

TEST_F(EngineTest, ConcurrentTenantsSuperpose) {
  // Two tenants drawing together droop the sensor more than either alone.
  const std::size_t n1 = scenario_.grid().node_of_site({20, 10});
  const std::size_t n2 = scenario_.grid().node_of_site({40, 30});
  auto mean_with = [&](bool with_first, bool with_second) {
    lcore::LeakyDspSensor sensor(scenario_.device(), {16, 20});
    lsim::SensorRig rig(scenario_.grid(), sensor);
    lu::Rng rng(7);
    rig.calibrate(rng);
    std::vector<lp::CurrentInjection> draws;
    if (with_first) draws.push_back({n1, 4.0});
    if (with_second) draws.push_back({n2, 4.0});
    return ls::mean(rig.collect_constant(800, draws, rng));
  };
  const double both = mean_with(true, true);
  const double first = mean_with(true, false);
  const double second = mean_with(false, true);
  const double none = mean_with(false, false);
  EXPECT_LT(both, first);
  EXPECT_LT(both, second);
  EXPECT_LT(first, none);
}

TEST_F(EngineTest, MultipleRigsSampleSameRun) {
  lcore::LeakyDspSensor near_sensor(scenario_.device(), {16, 20});
  lcore::LeakyDspSensor far_sensor(scenario_.device(), {52, 56});
  lsim::SensorRig near_rig(scenario_.grid(), near_sensor);
  lsim::SensorRig far_rig(scenario_.grid(), far_sensor);
  lu::Rng rng(8);
  near_rig.calibrate(rng);
  far_rig.calibrate(rng);

  // Both rigs observe one victim draw, each from its own noise stream.
  const std::vector<lp::CurrentInjection> draws = {
      {scenario_.grid().node_of_site({16, 10}), 8.0}};
  lu::Rng near_rng = rng.fork(1);
  lu::Rng far_rng = rng.fork(2);
  const auto near = near_rig.collect_constant(600, draws, near_rng);
  const auto far = far_rig.collect_constant(600, draws, far_rng);
  // The near sensor droops further below its idle point than the far one.
  EXPECT_LT(ls::mean(near), ls::mean(far));
}

TEST_F(EngineTest, WorkloadSourceAdapters) {
  // Workloads plug into a rig as per-sample draws at their node.
  lv::FirFilterWorkload fir;
  const std::size_t node =
      scenario_.grid().node_of_site(scenario_.aes_site());
  lcore::LeakyDspSensor sensor(scenario_.device(), {16, 20});
  lsim::SensorRig rig(scenario_.grid(), sensor);
  lu::Rng rng(9);
  rig.calibrate(rng);
  lu::Rng source_rng = rng.fork(0);
  double t_ns = 0.0;
  const auto readouts =
      rig.collect(2000, rng, [&](std::vector<lp::CurrentInjection>& draws) {
        draws.push_back({node, fir.current_at(t_ns, source_rng)});
        t_ns += rig.params().sample_period_ns;
      });
  // The burst structure shows up as bimodal readouts.
  const double spread =
      ls::max_value(readouts) - ls::min_value(readouts);
  EXPECT_GT(spread, 1.0);
}

// ------------------------------------------------------------ active fence

TEST_F(EngineTest, FenceMeanCurrentMatchesParams) {
  lv::ActiveFence fence(scenario_.device(), scenario_.grid(),
                        scenario_.device().clock_region(1).bounds);
  EXPECT_NEAR(fence.mean_current(), 2000 * 0.5 * 2.5e-3, 1e-12);
  lu::Rng rng(10);
  double sum = 0.0;
  const int n = 3000;
  for (int i = 0; i < n; ++i) {
    for (const auto& d : fence.draws(rng)) sum += d.current;
  }
  EXPECT_NEAR(sum / n, fence.mean_current(), 0.04 * fence.mean_current());
}

TEST_F(EngineTest, DisabledFenceDrawsNothing) {
  lv::ActiveFence fence(scenario_.device(), scenario_.grid(),
                        scenario_.device().clock_region(1).bounds);
  fence.set_enabled(false);
  lu::Rng rng(11);
  EXPECT_TRUE(fence.draws(rng).empty());
}

TEST_F(EngineTest, FenceRaisesSensorNoise) {
  lv::ActiveFenceParams params;
  params.instance_count = 4000;
  lv::ActiveFence fence(scenario_.device(), scenario_.grid(),
                        fabric::Rect{6, 2, 24, 18}, params);
  lcore::LeakyDspSensor sensor(scenario_.device(), {16, 20});
  lsim::SensorRig rig(scenario_.grid(), sensor);
  lu::Rng rng(12);
  rig.calibrate(rng);

  auto noise_with_fence = [&](bool on) {
    fence.set_enabled(on);
    rig.settle();
    const auto readouts = rig.collect(
        1500, rng, [&](std::vector<lp::CurrentInjection>& draws) {
          for (const auto& d : fence.draws(rng)) draws.push_back(d);
        });
    return ls::stddev(readouts);
  };
  EXPECT_GT(noise_with_fence(true), 1.5 * noise_with_fence(false));
}

TEST_F(EngineTest, FenceContracts) {
  lv::ActiveFenceParams params;
  params.toggle_probability = 0.0;
  EXPECT_THROW(lv::ActiveFence(scenario_.device(), scenario_.grid(),
                               fabric::Rect{0, 0, 10, 10}, params),
               lu::PreconditionError);
}
