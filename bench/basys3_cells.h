// Basys3 campaign cells as service jobs, shared by the paper harnesses
// (Table I, Fig. 5, Fig. 6, the mitigation fence rows). A cell is the
// world those harnesses used to build by hand — Rng(seed), 16 key draws,
// fork(fork_index), LeakyDSP sensor, calibrate, campaign — as a sweep
// world on fabric::basys3_spec(), whose device and PDN mesh equal
// sim::Basys3Scenario's, so it keeps the bytes of that hand-built world.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "fabric/device_spec.h"
#include "scenario/placement_sweep.h"
#include "serve/campaign_service.h"
#include "sim/scenarios.h"
#include "victim/aes_core.h"

namespace leakydsp::bench {

/// The LeakyDSP cell at `sensor_site` attacking the scenario's AES core,
/// with the victim's clock and leakage from `aes` and the campaign shape
/// from `config`; its factory rebuilds the world on admission.
inline serve::CampaignJob basys3_job(std::string id,
                                     const sim::Basys3Scenario& scenario,
                                     fabric::SiteCoord sensor_site,
                                     std::uint64_t seed, int fork_index,
                                     const victim::AesCoreParams& aes,
                                     const attack::CampaignConfig& config) {
  scenario::CellWorldSpec spec;
  spec.device_spec = fabric::basys3_spec();
  spec.victim_site = scenario.aes_site();
  spec.sensor_site = sensor_site;
  spec.cell_seed = seed;
  spec.sensor_index = fork_index;
  spec.campaign.max_traces = config.max_traces;
  spec.campaign.block_traces = config.block_traces;
  spec.campaign.break_check_stride = config.break_check_stride;
  spec.campaign.rank_stride = config.rank_stride;
  spec.campaign.victim_clock_mhz = aes.clock_mhz;
  spec.campaign.current_per_hd_bit = aes.current_per_hd_bit;
  serve::CampaignJob job;
  job.id = std::move(id);
  job.make = [spec] { return scenario::make_sweep_world(spec); };
  return job;
}

/// Drains `jobs` through one CampaignService on `threads` workers (0 =
/// hardware concurrency), every job resident for the whole drain: nothing
/// is evicted, so no checkpoint directory is needed. Job order.
inline std::vector<serve::CampaignOutcome> drain_cells(
    std::vector<serve::CampaignJob> jobs, std::size_t threads) {
  serve::ServiceConfig config;
  config.threads = threads;
  config.max_resident = jobs.size();
  serve::CampaignService service(config);
  for (auto& job : jobs) service.enqueue(std::move(job));
  return service.drain();
}

}  // namespace leakydsp::bench
