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
// Campaigns fan out over --threads workers (default: hardware concurrency)
// with bit-identical results for every thread count. Besides the console
// table the bench writes per-placement wall time and throughput to
// BENCH_table1_traces.json.
#include <chrono>
#include <iostream>

#include "attack/campaign.h"
#include "core/leaky_dsp.h"
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

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv,
                      {"seed", "max-traces", "threads", "checkpoint-dir",
                       "quick!", "resume!", "progress!"},
                      obs::cli_options());
  const std::string trace_out = obs::apply_cli(cli);
  const bool progress = cli.get_flag("progress");
  const auto seed = cli.get_seed("seed", 7);
  const std::size_t threads = cli.get_threads();
  const bool quick = cli.get_flag("quick");
  const auto max_traces = static_cast<std::size_t>(
      cli.get_int("max-traces", quick ? 8000 : 90000));
  // --checkpoint-dir DIR makes every campaign durable (one subdirectory
  // per placement); --resume continues placements whose checkpoint exists
  // instead of restarting them, with byte-identical results.
  const auto checkpoint_dir = cli.get_string("checkpoint-dir", "");
  const bool resume = cli.get_flag("resume");
  if (resume && checkpoint_dir.empty()) {
    std::cerr << "--resume requires --checkpoint-dir\n";
    return 1;
  }

  const sim::Basys3Scenario scenario;
  util::Rng rng(seed);
  crypto::Key key;
  for (auto& b : key) b = static_cast<std::uint8_t>(rng() & 0xff);

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
  config.threads = threads;

  // Per-placement campaign config: placements checkpoint independently, so
  // a killed sweep resumes at the placement it died in.
  const auto placement_config = [&](const std::string& label) {
    attack::CampaignConfig c = config;
    if (!checkpoint_dir.empty()) c.checkpoint_dir = checkpoint_dir + "/" + label;
    return c;
  };

  util::BenchJson report("table1_traces");
  const auto timed_run = [&](attack::TraceCampaign& campaign,
                             util::Rng& run_rng, const std::string& label) {
    if (progress) {
      obs::Progress::start(label, max_traces, "campaign.traces_sampled",
                           "campaign.checkpoint.traces");
    }
    const auto start = std::chrono::steady_clock::now();
    attack::CampaignResult result;
    if (resume && attack::TraceCampaign::checkpoint_exists(
                      checkpoint_dir + "/" + label, "")) {
      std::cout << "[" << label << "] resuming from checkpoint\n";
      result = campaign.resume();
    } else {
      result = campaign.run(run_rng);
    }
    if (progress) obs::Progress::finish();
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    report.row()
        .set("placement", label)
        .set("threads", static_cast<std::int64_t>(threads))
        .set("traces_run", static_cast<std::int64_t>(result.traces_run))
        .set("broken", result.broken)
        .set("traces_to_break",
             static_cast<std::int64_t>(result.traces_to_break))
        .set("wall_seconds", seconds)
        .set("traces_per_second",
             static_cast<double>(result.traces_run) / seconds);
    return result;
  };

  util::Table table({"placement", "site", "coupling [uV/A]",
                     "traces to break", "paper"});
  const std::size_t aes_node = scenario.grid().node_of_site(scenario.aes_site());
  const char* paper_notes[] = {"",          "(closest)", "", "",
                               "",          "(best)",    "", ""};
  for (std::size_t i = 0; i < scenario.attack_placements().size(); ++i) {
    const auto site = scenario.attack_placements()[i];
    util::Rng run_rng = rng.fork(i);
    victim::AesCoreModel aes(key, scenario.aes_site(), scenario.grid(),
                             aes_params);
    core::LeakyDspSensor sensor(scenario.device(), site);
    sim::SensorRig rig(scenario.grid(), sensor);
    rig.calibrate(run_rng);
    std::string label = "P";
    label += std::to_string(i + 1);
    attack::TraceCampaign campaign(rig, aes, placement_config(label));
    const auto result = timed_run(campaign, run_rng, label);

    const pdn::SensorCoupling coupling(scenario.grid(), site);
    std::string where = "(";
    where += std::to_string(site.x);
    where += ',';
    where += std::to_string(site.y);
    where += ')';
    table.row()
        .add(label + " " + paper_notes[i])
        .add(where)
        .add(coupling.gain_at_node(aes_node) * 1e6, 0)
        .add(result.broken ? util::format_count(result.traces_to_break)
                           : ("not broken in " +
                              util::format_count(result.traces_run)))
        .add(i == 5 ? "25k (best)" : "25k-58k");
  }

  // TDC baseline next to the best placement.
  {
    util::Rng run_rng = rng.fork(100);
    victim::AesCoreModel aes(key, scenario.aes_site(), scenario.grid(),
                             aes_params);
    const auto best =
        scenario.attack_placements()[sim::Basys3Scenario::kBestPlacementIndex];
    const auto tdc_site = scenario.adjacent_clb_site(best);
    sensors::TdcSensor tdc(scenario.device(), tdc_site);
    sim::SensorRig rig(scenario.grid(), tdc);
    rig.calibrate(run_rng);
    attack::TraceCampaign campaign(rig, aes, placement_config("TDC"));
    const auto result = timed_run(campaign, run_rng, "TDC");
    const pdn::SensorCoupling coupling(scenario.grid(), tdc_site);
    table.row()
        .add("TDC")
        .add("(" + std::to_string(tdc_site.x) + "," +
             std::to_string(tdc_site.y) + ")")
        .add(coupling.gain_at_node(aes_node) * 1e6, 0)
        .add(result.broken ? util::format_count(result.traces_to_break)
                           : ("not broken in " +
                              util::format_count(result.traces_run)))
        .add("51k");
  }

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
