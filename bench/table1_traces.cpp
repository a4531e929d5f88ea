// Regenerates Table I: number of traces required to break the full AES
// 128-bit key for different sensor placements.
//
// For each of the eight attacker placements P1..P8 the bench runs a full
// key-extraction campaign against the AES core (20 MHz victim clock,
// 300 MHz sensor clock, chained plaintexts, last-round CPA, checkpoint
// every 1 k traces) and reports the first checkpoint at which the complete
// master key is stably recovered. A TDC baseline runs once at the CLB site
// adjacent to the best placement (the paper notes the two sensor types
// cannot occupy the same site).
//
// Paper reference: LeakyDSP 25 k-58 k traces across placements (P6 best);
// TDC 51 k traces in its single evaluated setting.
//
// The nine campaigns are independent jobs drained together through one
// serve::CampaignService on --threads workers (default: hardware
// concurrency), with bit-identical results for every thread count. Besides
// the console table the bench writes per-placement results and the
// drain's wall time and throughput to BENCH_table1_traces.json.
#include <chrono>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "attack/campaign.h"
#include "basys3_cells.h"
#include "obs/obs.h"
#include "pdn/coupling.h"
#include "sensors/tdc.h"
#include "sim/scenarios.h"
#include "sim/sensor_rig.h"
#include "util/bench_json.h"
#include "util/cli.h"
#include "util/rng.h"
#include "util/table.h"
#include "victim/aes_core.h"

using namespace leakydsp;

namespace {

crypto::Key draw_key(util::Rng& rng) {
  crypto::Key key;
  for (auto& b : key) b = static_cast<std::uint8_t>(rng() & 0xff);
  return key;
}

/// The TDC baseline's world, built in the order of the LeakyDSP cells:
/// Rng(seed), 16 key draws, fork(100), TDC sensor, calibrate, campaign.
class TdcWorld final : public serve::CampaignWorld {
 public:
  TdcWorld(const sim::Basys3Scenario& scenario, fabric::SiteCoord site,
           std::uint64_t seed, const victim::AesCoreParams& aes_params,
           const attack::CampaignConfig& config)
      : rng_(seed),
        aes_(draw_key(rng_), scenario.aes_site(), scenario.grid(),
             aes_params),
        tdc_(scenario.device(), site),
        rig_(scenario.grid(), tdc_) {
    rng_ = rng_.fork(100);
    rig_.calibrate(rng_);
    campaign_.emplace(rig_, aes_, config);
  }

  attack::TraceCampaign& campaign() override { return *campaign_; }
  util::Rng& rng() override { return rng_; }

 private:
  util::Rng rng_;
  victim::AesCoreModel aes_;
  sensors::TdcSensor tdc_;
  sim::SensorRig rig_;
  std::optional<attack::TraceCampaign> campaign_;
};

}  // namespace

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv,
                      {"seed", "max-traces", "threads", "quick!", "progress!"},
                      obs::cli_options());
  const std::string trace_out = obs::apply_cli(cli);
  const bool progress = cli.get_flag("progress");
  const auto seed = cli.get_seed("seed", 7);
  const std::size_t threads = cli.get_threads();
  const bool quick = cli.get_flag("quick");
  const auto max_traces =
      cli.get_count("max-traces", quick ? 8000 : 90000, 1);

  const sim::Basys3Scenario scenario;
  victim::AesCoreParams aes_params;
  if (quick) aes_params.current_per_hd_bit *= 3.0;  // ~9x fewer traces

  std::cout << "=== Table I: traces to break the full AES-128 key ===\n"
            << "AES @ " << aes_params.clock_mhz
            << " MHz at site (" << scenario.aes_site().x << ","
            << scenario.aes_site().y << "); sensor @ 300 MHz; seed " << seed
            << (quick ? " [--quick: leakage boosted 3x]" : "") << "\n\n";

  attack::CampaignConfig config;
  config.max_traces = max_traces;
  config.rank_stride = 5000;

  // P1..P8 draw from forks 0..7 of the post-key stream; the TDC baseline
  // sits next to the best placement on fork 100.
  const auto& placements = scenario.attack_placements();
  std::vector<fabric::SiteCoord> sites = placements;
  sites.push_back(scenario.adjacent_clb_site(
      placements[sim::Basys3Scenario::kBestPlacementIndex]));
  std::vector<serve::CampaignJob> jobs;
  for (std::size_t i = 0; i < placements.size(); ++i) {
    std::string label = "P";
    label += std::to_string(i + 1);
    jobs.push_back(bench::basys3_job(label, scenario, sites[i], seed,
                                     static_cast<int>(i), aes_params, config));
  }
  jobs.emplace_back().id = "TDC";
  jobs.back().make = [&scenario, site = sites.back(), seed, aes_params,
                      config] {
    return std::make_unique<TdcWorld>(scenario, site, seed, aes_params,
                                      config);
  };

  if (progress) {
    obs::Progress::start("Table I", jobs.size() * max_traces,
                         "campaign.traces_sampled", "");
  }
  const auto start = std::chrono::steady_clock::now();
  const auto outcomes = bench::drain_cells(std::move(jobs), threads);
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  if (progress) obs::Progress::finish();

  util::BenchJson report("table1_traces");
  util::Table table({"placement", "site", "coupling [uV/A]",
                     "traces to break", "paper"});
  const std::size_t aes_node = scenario.grid().node_of_site(scenario.aes_site());
  const char* paper_notes[] = {"",          "(closest)", "", "",
                               "",          "(best)",    "", ""};
  std::size_t traces_total = 0;
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    const std::string& label = outcomes[i].id;
    const attack::CampaignResult& result = outcomes[i].result;
    const bool tdc = i == placements.size();
    traces_total += result.traces_run;
    report.row()
        .set("placement", label)
        .set("threads", static_cast<std::int64_t>(threads))
        .set("traces_run", static_cast<std::int64_t>(result.traces_run))
        .set("broken", result.broken)
        .set("traces_to_break",
             static_cast<std::int64_t>(result.traces_to_break));

    const pdn::SensorCoupling coupling(scenario.grid(), sites[i]);
    std::string where = "(";
    where += std::to_string(sites[i].x);
    where += ',';
    where += std::to_string(sites[i].y);
    where += ')';
    table.row()
        .add(tdc ? label : label + " " + paper_notes[i])
        .add(where)
        .add(coupling.gain_at_node(aes_node) * 1e6, 0)
        .add(result.broken ? util::format_count(result.traces_to_break)
                           : ("not broken in " +
                              util::format_count(result.traces_run)))
        .add(tdc ? "51k" : i == 5 ? "25k (best)" : "25k-58k");
  }
  report.row()
      .set("placement", "all")
      .set("threads", static_cast<std::int64_t>(threads))
      .set("traces_run", static_cast<std::int64_t>(traces_total))
      .set("wall_seconds", seconds)
      .set("traces_per_second", static_cast<double>(traces_total) / seconds);

  table.print(std::cout);
  obs::fill_bench_metrics(report.metrics());
  report.write("BENCH_table1_traces.json");
  obs::write_trace_out(trace_out);
  std::cout << "\nwrote BENCH_table1_traces.json (" << threads
            << " thread(s))\n";
  std::cout << "\nNote: per-placement cells of the paper's Table I are only "
               "available as an image;\nEXPERIMENTS.md checks the range "
               "(25k-58k), the best placement (P6), and the\nTDC-comparable "
               "magnitude instead of exact cells.\n";
  return 0;
}
