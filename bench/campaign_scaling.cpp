// Strong-scaling check of the parallel campaign: runs the same 60 k-trace
// key-extraction campaign (stop_when_broken = false, so every thread count
// does exactly the same work) at 1 thread and at --threads, verifies the
// CampaignResults are byte-identical — the determinism contract of
// attack::TraceCampaign::run — and reports wall time, throughput and
// speedup to stdout and BENCH_campaign_scaling.json.
//
//   $ ./campaign_scaling [--traces N] [--seed S] [--threads T] [--sweep]
//
// --sweep additionally measures the intermediate thread counts 2 and 4.
// Exits non-zero if any parallel run deviates from the serial run.
#include <chrono>
#include <iostream>
#include <string>
#include <vector>

#include "attack/campaign.h"
#include "core/leaky_dsp.h"
#include "obs/obs.h"
#include "sim/scenarios.h"
#include "sim/sensor_rig.h"
#include "util/bench_json.h"
#include "util/cli.h"
#include "util/rng.h"
#include "util/table.h"
#include "victim/aes_core.h"

using namespace leakydsp;

namespace {

struct TimedRun {
  attack::CampaignResult result;
  double seconds = 0.0;
};

bool identical(const attack::CampaignResult& a,
               const attack::CampaignResult& b) {
  if (a.traces_to_break != b.traces_to_break || a.broken != b.broken ||
      a.traces_run != b.traces_run ||
      a.mean_poi_readout != b.mean_poi_readout ||
      a.checkpoints.size() != b.checkpoints.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.checkpoints.size(); ++i) {
    const auto& ca = a.checkpoints[i];
    const auto& cb = b.checkpoints[i];
    if (ca.traces != cb.traces || ca.correct_bytes != cb.correct_bytes ||
        ca.full_key != cb.full_key ||
        ca.rank.log2_lower != cb.rank.log2_lower ||
        ca.rank.log2_upper != cb.rank.log2_upper) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv, {"traces", "seed", "threads", "sweep!"},
                      obs::cli_options());
  const std::string trace_out = obs::apply_cli(cli);
  const bool progress = cli.get_flag("progress");
  const auto max_traces =
      static_cast<std::size_t>(cli.get_int("traces", 60000));
  const auto seed = cli.get_seed("seed", 7);
  const std::size_t threads = cli.get_threads();

  const sim::Basys3Scenario scenario;

  attack::CampaignConfig config;
  config.max_traces = max_traces;
  config.break_check_stride = 1000;
  config.rank_stride = 5000;

  // Every run rebuilds victim, sensor and rig from the same seed, so the
  // only varying input is config.threads — which the determinism contract
  // says must not matter.
  const auto run_once = [&](std::size_t run_threads) {
    util::Rng rng(seed);
    crypto::Key key;
    for (auto& b : key) b = static_cast<std::uint8_t>(rng() & 0xff);
    victim::AesCoreModel aes(key, scenario.aes_site(), scenario.grid());
    core::LeakyDspSensor sensor(
        scenario.device(),
        scenario
            .attack_placements()[sim::Basys3Scenario::kBestPlacementIndex]);
    sim::SensorRig rig(scenario.grid(), sensor);
    rig.calibrate(rng);
    attack::CampaignConfig run_config = config;
    run_config.threads = run_threads;
    attack::TraceCampaign campaign(rig, aes, run_config);
    if (progress) {
      obs::Progress::start("threads " + std::to_string(run_threads),
                           max_traces, "campaign.traces_sampled", "");
    }
    TimedRun timed;
    const auto start = std::chrono::steady_clock::now();
    timed.result = campaign.run(rng, /*stop_when_broken=*/false);
    timed.seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    if (progress) obs::Progress::finish();
    return timed;
  };

  std::vector<std::size_t> counts = {1};
  if (cli.get_flag("sweep")) {
    for (const std::size_t c : {std::size_t{2}, std::size_t{4}}) {
      if (c < threads) counts.push_back(c);
    }
  }
  if (threads > 1) counts.push_back(threads);

  std::cout << "=== campaign strong scaling: " << max_traces
            << " traces, seed " << seed << " ===\n\n";

  util::BenchJson report("campaign_scaling");
  // A thread count above the machine's hardware concurrency cannot speed
  // anything up — flag those rows so a sweep configured for a bigger box
  // is never read as a scaling regression here.
  const std::uint32_t hw_threads = report.host().hardware_threads;
  util::Table table(
      {"threads", "wall [s]", "traces/s", "speedup", "identical", "oversub"});
  TimedRun serial;
  bool all_identical = true;
  for (const std::size_t c : counts) {
    const TimedRun timed = run_once(c);
    if (c == 1) serial = timed;
    const bool same = identical(timed.result, serial.result);
    all_identical = all_identical && same;
    const bool oversubscribed = hw_threads > 0 && c > hw_threads;
    const double speedup = serial.seconds / timed.seconds;
    const double rate =
        static_cast<double>(timed.result.traces_run) / timed.seconds;
    table.row()
        .add(c)
        .add(timed.seconds, 2)
        .add(rate, 0)
        .add(speedup, 2)
        .add(same ? "yes" : "NO")
        .add(oversubscribed ? "yes" : "no");
    // The string field is the row's identity for leakydsp_benchdiff.
    report.row()
        .set("run", std::to_string(c) + "t")
        .set("threads", static_cast<std::int64_t>(c))
        .set("traces", static_cast<std::int64_t>(timed.result.traces_run))
        .set("wall_seconds", timed.seconds)
        .set("traces_per_second", rate)
        .set("speedup_vs_1_thread", speedup)
        .set("identical_to_serial", same)
        .set("oversubscribed", oversubscribed)
        .set("broken", timed.result.broken)
        .set("traces_to_break",
             static_cast<std::int64_t>(timed.result.traces_to_break));
  }
  table.print(std::cout);
  obs::fill_bench_metrics(report.metrics());
  report.write("BENCH_campaign_scaling.json");
  obs::write_trace_out(trace_out);
  std::cout << "\nwrote BENCH_campaign_scaling.json\n";
  if (!all_identical) {
    std::cout << "ERROR: thread counts disagreed — determinism contract "
                 "violated\n";
    return 1;
  }
  return 0;
}
