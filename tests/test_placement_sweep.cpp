// Placement sweeps on generated dies: plan determinism, placement
// constraints (distinct clock regions, non-overlapping cascades), the
// byte-identity of service-drained cells vs standalone reruns (including
// the final CPA score vectors), score fusion, and the equivalence of a
// basys3_spec() cell with the hand-built Basys3Scenario world.
#include <gtest/gtest.h>

#include <filesystem>
#include <set>
#include <string>
#include <vector>

#include "attack/campaign.h"
#include "core/leaky_dsp.h"
#include "crypto/aes128.h"
#include "fabric/device_spec.h"
#include "scenario/placement_sweep.h"
#include "serve/campaign_service.h"
#include "sim/scenarios.h"
#include "sim/sensor_rig.h"
#include "util/contracts.h"
#include "util/rng.h"
#include "victim/aes_core.h"

namespace fb = leakydsp::fabric;
namespace sc = leakydsp::scenario;

namespace {

fb::DeviceSpec test_spec(int dim = 72) {
  fb::DeviceSpec spec;
  spec.name = "SweepTest " + std::to_string(dim);
  spec.arch = fb::Architecture::kUltraScalePlus;
  spec.width = dim;
  spec.height = dim;
  spec.region_cols = 2;
  spec.region_rows = 3;
  spec.columns.push_back({fb::SiteType::kDsp, 10, 16});
  spec.columns.push_back({fb::SiteType::kBram, 6, 16});
  return spec;
}

sc::SweepConfig small_config(int k = 1) {
  sc::SweepConfig config;
  config.spec = test_spec();
  config.seed = 99;
  config.victim_rows = 2;
  config.distance_cols = 2;
  config.sensors_per_cell = k;
  config.campaign.max_traces = 64;
  config.campaign.block_traces = 32;
  config.campaign.break_check_stride = 32;
  config.campaign.rank_stride = 64;
  config.campaign.stop_when_broken = false;
  return config;
}

std::string fresh_dir(const std::string& name) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / name).string();
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

void expect_identical(const leakydsp::attack::CampaignResult& a,
                      const leakydsp::attack::CampaignResult& b) {
  EXPECT_EQ(a.traces_run, b.traces_run);
  EXPECT_EQ(a.broken, b.broken);
  EXPECT_EQ(a.traces_to_break, b.traces_to_break);
  EXPECT_EQ(a.mean_poi_readout, b.mean_poi_readout);  // exact, no tolerance
  ASSERT_EQ(a.checkpoints.size(), b.checkpoints.size());
  for (std::size_t i = 0; i < a.checkpoints.size(); ++i) {
    EXPECT_EQ(a.checkpoints[i].traces, b.checkpoints[i].traces);
    EXPECT_EQ(a.checkpoints[i].rank.log2_lower,
              b.checkpoints[i].rank.log2_lower);
    EXPECT_EQ(a.checkpoints[i].rank.log2_upper,
              b.checkpoints[i].rank.log2_upper);
    EXPECT_EQ(a.checkpoints[i].correct_bytes, b.checkpoints[i].correct_bytes);
    EXPECT_EQ(a.checkpoints[i].full_key, b.checkpoints[i].full_key);
  }
  ASSERT_EQ(a.final_scores.size(), b.final_scores.size());
  for (std::size_t i = 0; i < a.final_scores.size(); ++i) {
    ASSERT_EQ(a.final_scores[i], b.final_scores[i]) << "score index " << i;
  }
}

}  // namespace

TEST(PlacementSweep, PlanIsDeterministic) {
  const sc::SweepConfig config = small_config();
  const sc::SweepPlan a = sc::plan_sweep(config);
  const sc::SweepPlan b = sc::plan_sweep(config);
  ASSERT_EQ(a.cells.size(), 4u);
  ASSERT_EQ(a.cells.size(), b.cells.size());
  for (std::size_t i = 0; i < a.cells.size(); ++i) {
    EXPECT_EQ(a.cells[i].victim_site, b.cells[i].victim_site);
    EXPECT_EQ(a.cells[i].sensor_sites, b.cells[i].sensor_sites);
    EXPECT_EQ(a.cells[i].cell_seed, b.cells[i].cell_seed);
    EXPECT_EQ(a.cells[i].distances, b.cells[i].distances);
  }
}

TEST(PlacementSweep, PlanRespectsPlacementConstraints) {
  const sc::SweepConfig config = small_config(/*k=*/3);
  const sc::SweepPlan plan = sc::plan_sweep(config);
  const fb::Device& device = *plan.device;
  for (const sc::SweepCell& cell : plan.cells) {
    // Victim on a CLB site inside its own pblock.
    EXPECT_EQ(device.site_type(cell.victim_site), fb::SiteType::kClb);
    EXPECT_TRUE(cell.victim_pblock.range.contains(cell.victim_site));
    // K sensors in K distinct clock regions, cascades on DSP sites
    // outside the victim pblock.
    ASSERT_EQ(cell.sensor_sites.size(), 3u);
    std::set<int> regions(cell.sensor_regions.begin(),
                          cell.sensor_regions.end());
    EXPECT_EQ(regions.size(), 3u);
    for (const fb::SiteCoord base : cell.sensor_sites) {
      for (int dy = 0; dy < static_cast<int>(config.cascade_dsps); ++dy) {
        const fb::SiteCoord site{base.x, base.y + dy};
        EXPECT_EQ(device.site_type(site), fb::SiteType::kDsp);
        EXPECT_FALSE(cell.victim_pblock.range.contains(site));
      }
    }
  }
}

TEST(PlacementSweep, CampaignIdsAreUnique) {
  const sc::SweepPlan plan = sc::plan_sweep(small_config(/*k=*/2));
  std::set<std::string> ids;
  for (const sc::SweepCell& cell : plan.cells) {
    for (const std::string& id : cell.campaign_ids) {
      EXPECT_TRUE(ids.insert(id).second) << "duplicate id " << id;
    }
  }
  EXPECT_EQ(ids.size(), plan.cells.size() * 2);
}

TEST(PlacementSweep, TooManySensorsForRegionsThrows) {
  sc::SweepConfig config = small_config();
  config.sensors_per_cell = 7;  // die has 2x3 = 6 clock regions
  EXPECT_THROW(sc::plan_sweep(config), leakydsp::util::PreconditionError);
}

TEST(PlacementSweep, ServiceMatchesStandaloneByteForByte) {
  const std::string ckpt = fresh_dir("leakydsp_sweep_identity");
  sc::SweepConfig config = small_config();
  config.checkpoint_dir = ckpt;

  leakydsp::serve::ServiceConfig service;
  service.threads = 1;
  service.max_resident = 2;  // forces evictions across the 4 cells
  service.quantum_steps = 1;
  service.checkpoint_dir = ckpt;

  const sc::SweepOutcome outcome = sc::run_sweep(config, service);
  ASSERT_EQ(outcome.cells.size(), 4u);
  for (std::size_t i = 0; i < outcome.cells.size(); ++i) {
    SCOPED_TRACE("cell " + std::to_string(i));
    const sc::CellWorldSpec spec =
        sc::cell_world_spec(config, outcome.plan, i, 0);
    const auto standalone = sc::run_sweep_campaign(spec, /*threads=*/1);
    expect_identical(outcome.cells[i].per_sensor[0], standalone);
  }
  std::filesystem::remove_all(ckpt);
}

TEST(PlacementSweep, FinalScoresShapeAndFusion) {
  const std::string ckpt = fresh_dir("leakydsp_sweep_fusion");
  sc::SweepConfig config = small_config(/*k=*/2);
  config.victim_rows = 1;
  config.distance_cols = 1;
  config.checkpoint_dir = ckpt;

  leakydsp::serve::ServiceConfig service;
  service.threads = 1;
  service.max_resident = 2;
  service.quantum_steps = 2;
  service.checkpoint_dir = ckpt;

  const sc::SweepOutcome outcome = sc::run_sweep(config, service);
  ASSERT_EQ(outcome.cells.size(), 1u);
  const sc::CellOutcome& cell = outcome.cells[0];
  ASSERT_EQ(cell.per_sensor.size(), 2u);
  for (const auto& result : cell.per_sensor) {
    EXPECT_EQ(result.final_scores.size(), 16u * 256u);
  }

  // Fusing the same results again reproduces the outcome; fused argmax
  // must equal the argmax of the summed vectors by construction.
  const std::uint64_t seed = outcome.plan.cells[0].cell_seed;
  const sc::CellOutcome refused = sc::fuse_cell(0, seed, cell.per_sensor);
  EXPECT_EQ(refused.fused_round10, cell.fused_round10);
  EXPECT_EQ(refused.fused_correct_bytes, cell.fused_correct_bytes);
  EXPECT_EQ(refused.fused_true_margin, cell.fused_true_margin);
  for (std::size_t b = 0; b < 16; ++b) {
    double best = -1e300;
    std::size_t best_g = 0;
    for (std::size_t g = 0; g < 256; ++g) {
      const double sum = cell.per_sensor[0].final_scores[b * 256 + g] +
                         cell.per_sensor[1].final_scores[b * 256 + g];
      if (sum > best) {
        best = sum;
        best_g = g;
      }
    }
    EXPECT_EQ(cell.fused_round10[b], static_cast<std::uint8_t>(best_g));
  }

  // A missing score vector is a contract violation, not a zero score.
  auto broken = cell.per_sensor;
  broken[1].final_scores.clear();
  EXPECT_THROW(sc::fuse_cell(0, seed, broken),
               leakydsp::util::PreconditionError);
  std::filesystem::remove_all(ckpt);
}

TEST(PlacementSweep, FinalScoresOptInOnly) {
  // Campaigns that do not opt in keep the result lean — the field must
  // stay empty so checkpoint payloads and bulk sweeps don't bloat.
  leakydsp::attack::CampaignConfig config;
  EXPECT_FALSE(config.keep_final_scores);
}

TEST(PlacementSweep, CellWorldSpecMatchesPlan) {
  const sc::SweepConfig config = small_config(/*k=*/2);
  const sc::SweepPlan plan = sc::plan_sweep(config);
  const sc::CellWorldSpec spec = sc::cell_world_spec(config, plan, 1, 1);
  EXPECT_EQ(spec.victim_site, plan.cells[1].victim_site);
  EXPECT_EQ(spec.sensor_site, plan.cells[1].sensor_sites[1]);
  EXPECT_EQ(spec.cell_seed, plan.cells[1].cell_seed);
  EXPECT_EQ(spec.sensor_index, 1);
  EXPECT_EQ(spec.campaign_id, plan.cells[1].campaign_ids[1]);
  EXPECT_TRUE(fb::parse_device_spec(fb::spec_to_json(spec.device_spec)) ==
              spec.device_spec);
}

TEST(PlacementSweep, Basys3CellMatchesScenarioWorld) {
  // The paper harnesses (Table I, Fig. 5, Fig. 6, the fence rows) drain
  // their cells as sweep worlds on basys3_spec(). Each must equal the
  // world they used to build by hand on Basys3Scenario: Rng(seed), 16 key
  // draws, fork(i), LeakyDSP sensor at P<i+1>, calibrate, run.
  const leakydsp::sim::Basys3Scenario scenario;
  constexpr std::uint64_t kSeed = 7;
  leakydsp::victim::AesCoreParams aes_params;
  aes_params.current_per_hd_bit *= 20.0;  // P2 and P6 break by 512 traces
  leakydsp::attack::CampaignConfig config;
  config.max_traces = 768;
  config.break_check_stride = 64;
  config.rank_stride = 256;
  config.threads = 2;
  config.keep_final_scores = true;

  for (const std::size_t i : {std::size_t{1}, std::size_t{5}}) {  // P2, P6
    SCOPED_TRACE("placement P" + std::to_string(i + 1));
    const fb::SiteCoord site = scenario.attack_placements()[i];

    leakydsp::util::Rng rng(kSeed);
    leakydsp::crypto::Key key;
    for (auto& b : key) b = static_cast<std::uint8_t>(rng() & 0xff);
    leakydsp::util::Rng run_rng = rng.fork(i);
    leakydsp::victim::AesCoreModel aes(key, scenario.aes_site(),
                                       scenario.grid(), aes_params);
    leakydsp::core::LeakyDspSensor sensor(scenario.device(), site);
    leakydsp::sim::SensorRig rig(scenario.grid(), sensor);
    rig.calibrate(run_rng);
    leakydsp::attack::TraceCampaign campaign(rig, aes, config);
    const auto expected = campaign.run(run_rng, /*stop_when_broken=*/false);

    sc::CellWorldSpec spec;
    spec.device_spec = fb::basys3_spec();
    spec.victim_site = scenario.aes_site();
    spec.sensor_site = site;
    spec.cell_seed = kSeed;
    spec.sensor_index = static_cast<int>(i);
    spec.campaign.max_traces = config.max_traces;
    spec.campaign.block_traces = config.block_traces;
    spec.campaign.break_check_stride = config.break_check_stride;
    spec.campaign.rank_stride = config.rank_stride;
    spec.campaign.victim_clock_mhz = aes_params.clock_mhz;
    spec.campaign.current_per_hd_bit = aes_params.current_per_hd_bit;
    spec.campaign.stop_when_broken = false;
    const auto actual = sc::run_sweep_campaign(spec, /*threads=*/2);

    EXPECT_TRUE(expected.broken);
    ASSERT_EQ(actual.checkpoints.size(), 3u);
    expect_identical(actual, expected);
  }
}
