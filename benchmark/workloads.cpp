// The untraced workloads. Each one sets up (timed as setup_s), repeats its
// unit of work over the timed window, reports medians of the per-unit
// rates, and checks the program's outputs against references that hold for
// any seed.
#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "bench.h"
#include "obs/metrics.h"
#include "sim/trace_store.h"

namespace leakydsp::bench {

namespace {

std::string str(double v) {
  std::ostringstream os;
  os << v;
  return os.str();
}

/// RNG draws of the trace pipeline so far (the campaign's own counter; 0
/// when the library is built without observability).
double rng_draws() {
  return static_cast<double>(
      obs::Registry::global().counter_value("rng.draws"));
}

/// `count` indices spread evenly over [0, n).
std::vector<std::size_t> spread(std::size_t n, std::size_t count) {
  std::vector<std::size_t> out;
  count = std::min(count, n);
  for (std::size_t k = 0; k < count; ++k) out.push_back(k * n / count);
  return out;
}

std::vector<double> rates(double work, const std::vector<double>& walls) {
  std::vector<double> out;
  for (const double w : walls) out.push_back(work / w);
  return out;
}

double traces_run(const Drain& drain) {
  double traces = 0.0;
  for (const auto& r : drain.results) {
    traces += static_cast<double>(r.traces_run);
  }
  return traces;
}

/// Counts every call of the job's world factory (admissions, rehydrations,
/// and admissions the memory budget turned back).
void count_builds(serve::CampaignJob& job, std::atomic<std::size_t>& builds) {
  job.make = [make = std::move(job.make), &builds] {
    builds.fetch_add(1, std::memory_order_relaxed);
    return make();
  };
}

fabric::DeviceSpec sweep_die(int dim) {
  // bench/placement_sweep's periodic UltraScale+-style die: DSP columns
  // every 20 from 14, BRAM at 8 + 20k, 2 region columns, 3 or 4 rows.
  fabric::DeviceSpec spec;
  spec.name = "Sweep " + std::to_string(dim) + "x" + std::to_string(dim);
  spec.arch = fabric::Architecture::kUltraScalePlus;
  spec.width = dim;
  spec.height = dim;
  spec.region_cols = 2;
  spec.region_rows = dim % 3 == 0 ? 3 : 4;
  spec.columns.push_back({fabric::SiteType::kDsp, 14, 20});
  spec.columns.push_back({fabric::SiteType::kBram, 8, 20});
  return spec;
}

void check_repeats(Report& report, const std::string& what,
                   const std::vector<Drain>& drains) {
  for (std::size_t d = 1; d < drains.size(); ++d) {
    report.check(same_results(drains[d].results, drains[0].results),
                 what + " drain " + std::to_string(d) +
                     " differs from the first");
  }
}

void report_service_info(Report& report, const Drain& drain, double jobs) {
  report.info("evictions", std::to_string(drain.stats.evictions));
  report.info("rehydrations", std::to_string(drain.stats.rehydrations));
  report.info("blocks_stolen", std::to_string(drain.stats.blocks_stolen));
  report.info("world_builds_per_job",
              str(static_cast<double>(drain.world_builds) / jobs));
}

/// Flips one bit inside the first chunk's payload (past the 16-byte file
/// header and the 16-byte chunk header).
void corrupt_first_chunk(const std::string& path) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  const std::streamoff offset = 16 + 16 + 1000;
  f.seekg(offset);
  char c = 0;
  f.get(c);
  f.seekp(offset);
  f.put(static_cast<char>(c ^ 0x01));
  if (!f) throw std::runtime_error("cannot corrupt " + path);
}

}  // namespace

std::string fresh_dir(const std::string& dir) {
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

// ------------------------------------------------------------ campaign_long

void campaign_long(const Options& opts, Report& report) {
  const std::size_t traces = opts.smoke ? 2000 : 60000;
  const std::size_t prefix = opts.smoke ? 300 : 5000;
  const attack::CampaignConfig config =
      basys3_config(opts, traces, opts.threads);

  const Basys3World world(opts, config);

  std::vector<attack::CampaignResult> results;
  const double draws_before = rng_draws();
  const Measured m = measure(
      opts, 5, [&] { const Basys3World w(opts, config); },
      [&] {
        util::Rng rng = world.rng;
        results.push_back(world.campaign->run(rng, /*stop_when_broken=*/false));
      });
  const double draws = rng_draws() - draws_before;
  report.metric("setup_s", m.setup_s, "s");
  report.metric("traces_per_s",
                median(rates(static_cast<double>(traces), m.unit_s)), "1/s");
  report.metric("jobs_per_s", median(rates(1.0, m.unit_s)), "1/s");

  const attack::CampaignResult& first = results.front();
  for (std::size_t i = 1; i < results.size(); ++i) {
    report.check(same_result(results[i], first),
                 "campaign repetition " + std::to_string(i) +
                     " differs from the first");
  }
  report.check(first.broken, "key not broken after " + std::to_string(traces) +
                                 " traces");

  // Thread-count determinism: the same prefix at --threads and at 1.
  attack::CampaignConfig prefix_config =
      basys3_config(opts, prefix, opts.threads);
  attack::TraceCampaign parallel(*world.rig, *world.aes, prefix_config);
  prefix_config.threads = 1;
  attack::TraceCampaign serial(*world.rig, *world.aes, prefix_config);
  util::Rng parallel_rng = world.rng;
  util::Rng serial_rng = world.rng;
  report.check(same_result(parallel.run(parallel_rng, false),
                           serial.run(serial_rng, false)),
               std::to_string(prefix) + "-trace prefix differs between " +
                   std::to_string(opts.threads) + " threads and 1");

  report.info("campaigns", std::to_string(results.size()));
  report.info("traces_to_break", std::to_string(first.traces_to_break) +
                                     " (paper Table I, P6: 25000)");
  report.info("rng_draws_per_trace",
              str(draws / static_cast<double>(traces * results.size())));
}

// ------------------------------------------------------------ service_churn

std::size_t churn_jobs(const Options& opts) { return opts.smoke ? 8 : 50; }

serve::StandardCampaignSpec churn_spec(const Options& opts, std::size_t index,
                                       const std::string& checkpoint_dir) {
  serve::StandardCampaignSpec spec;
  spec.id = "churn-" + std::to_string(index);
  // Decorrelated per-job seeds, drawn as bench/campaign_service draws them.
  spec.seed = opts.seed * 1315423911ULL + index * 2654435761ULL + 1;
  spec.max_traces = 64;
  spec.block_traces = 16;
  spec.break_check_stride = 32;
  spec.rank_stride = 64;
  spec.checkpoint_dir = checkpoint_dir;
  return spec;
}

serve::ServiceConfig churn_service(std::size_t threads,
                                   const std::string& checkpoint_dir) {
  serve::ServiceConfig config;
  config.threads = threads;
  config.max_resident = 4;
  config.memory_budget_bytes = std::size_t{8} << 20;
  config.quantum_steps = 1;
  config.checkpoint_dir = checkpoint_dir;
  return config;
}

Drain drain_churn(const Options& opts, std::size_t threads) {
  const std::string ckpt = fresh_dir(opts.run_dir + "/churn-ckpt");
  std::atomic<std::size_t> builds{0};
  serve::CampaignService service(churn_service(threads, ckpt));
  for (std::size_t i = 0; i < churn_jobs(opts); ++i) {
    serve::CampaignJob job =
        serve::make_standard_job(churn_spec(opts, i, ckpt));
    count_builds(job, builds);
    service.enqueue(std::move(job));
  }
  Drain drain;
  const auto start = Clock::now();
  std::vector<serve::CampaignOutcome> outcomes = service.drain();
  drain.wall_s = seconds_since(start);
  for (auto& o : outcomes) drain.results.push_back(std::move(o.result));
  drain.stats = service.stats();
  drain.world_builds = builds.load();
  return drain;
}

void service_churn(const Options& opts, Report& report) {
  const std::size_t jobs = churn_jobs(opts);
  std::vector<Drain> drains;
  const double draws_before = rng_draws();
  // Set-up: the Basys3 floorplan every standard world shares, the first
  // world, and the service with its queue.
  const Measured m = measure(
      opts, 5,
      [&] {
        const sim::Basys3Scenario floorplan;
        serve::make_standard_world(churn_spec(opts, 0, ""));
        serve::CampaignService service(
            churn_service(opts.threads, opts.run_dir + "/churn-setup"));
        for (std::size_t i = 0; i < jobs; ++i) {
          service.enqueue(serve::make_standard_job(churn_spec(opts, i, "")));
        }
      },
      [&] { drains.push_back(drain_churn(opts, opts.threads)); });
  const double draws = rng_draws() - draws_before;
  report.metric("setup_s", m.setup_s, "s");
  std::vector<double> job_rates;
  std::vector<double> trace_rates;
  for (const Drain& d : drains) {
    job_rates.push_back(static_cast<double>(jobs) / d.wall_s);
    trace_rates.push_back(traces_run(d) / d.wall_s);
  }
  report.metric("traces_per_s", median(trace_rates), "1/s");
  report.metric("jobs_per_s", median(job_rates), "1/s");

  report.check(drains[0].results.size() == jobs, "drain lost jobs");
  check_repeats(report, "service_churn", drains);
  for (const std::size_t i : spread(jobs, 8)) {
    const attack::CampaignResult standalone =
        serve::run_standard_campaign(churn_spec(opts, i, ""), 1);
    report.check(i < drains[0].results.size() &&
                     same_result(drains[0].results[i], standalone),
                 "job " + std::to_string(i) +
                     " differs from run_standard_campaign");
  }
  report.info("drains", std::to_string(drains.size()));
  report_service_info(report, drains[0], static_cast<double>(jobs));
  report.info("rng_draws_per_trace",
              str(draws / (traces_run(drains[0]) *
                           static_cast<double>(drains.size()))));
}

// ------------------------------------------------------------- sweep_die320

scenario::SweepConfig sweep_config(const Options& opts,
                                   const std::string& checkpoint_dir) {
  scenario::SweepConfig config;
  config.spec = sweep_die(opts.smoke ? 96 : 320);
  config.seed = opts.seed;
  config.victim_rows = opts.smoke ? 1 : 2;
  config.distance_cols = opts.smoke ? 2 : 4;
  config.sensors_per_cell = 2;
  config.checkpoint_dir = checkpoint_dir;
  config.campaign.current_per_hd_bit = 0.6;
  config.campaign.max_traces = opts.smoke ? 96 : 240;
  config.campaign.break_check_stride = 48;
  config.campaign.rank_stride = 96;
  return config;
}

serve::ServiceConfig sweep_service(std::size_t threads,
                                   const std::string& checkpoint_dir) {
  serve::ServiceConfig config;
  config.threads = threads;
  config.max_resident = 8;
  config.quantum_steps = 1;
  config.checkpoint_dir = checkpoint_dir;
  return config;
}

std::vector<serve::CampaignJob> sweep_jobs(
    const scenario::SweepConfig& config, const scenario::SweepPlan& plan,
    const std::function<std::unique_ptr<serve::CampaignWorld>(
        const scenario::CellWorldSpec&)>& make_world) {
  std::vector<serve::CampaignJob> jobs;
  for (std::size_t i = 0; i < plan.cells.size(); ++i) {
    for (int k = 0; k < static_cast<int>(plan.cells[i].sensor_sites.size());
         ++k) {
      const scenario::CellWorldSpec spec =
          scenario::cell_world_spec(config, plan, i, k);
      serve::CampaignJob& job = jobs.emplace_back();
      job.id = spec.campaign_id;
      job.stop_when_broken = config.campaign.stop_when_broken;
      job.make = [spec, make_world] { return make_world(spec); };
    }
  }
  return jobs;
}

Fused fuse_cells(const scenario::SweepPlan& plan,
                 const std::vector<attack::CampaignResult>& results,
                 Tracer* tracer) {
  Fused fused;
  std::size_t next = 0;
  for (std::size_t i = 0; i < plan.cells.size(); ++i) {
    const std::size_t k = plan.cells[i].sensor_sites.size();
    std::vector<attack::CampaignResult> per_sensor(
        results.begin() + static_cast<std::ptrdiff_t>(next),
        results.begin() + static_cast<std::ptrdiff_t>(next + k));
    next += k;
    Tracer::Span span(tracer, "scenario.fuse_cell");
    const scenario::CellOutcome cell =
        scenario::fuse_cell(i, plan.cells[i].cell_seed, std::move(per_sensor));
    fused.bytes += cell.fused_correct_bytes;
    fused.keys += cell.fused_full_key ? 1 : 0;
  }
  return fused;
}

Drain drain_sweep(const scenario::SweepConfig& config,
                  const scenario::SweepPlan& plan, std::size_t threads) {
  fresh_dir(config.checkpoint_dir);
  std::atomic<std::size_t> builds{0};
  serve::CampaignService service(sweep_service(threads, config.checkpoint_dir));
  for (serve::CampaignJob& job :
       sweep_jobs(config, plan, scenario::make_sweep_world)) {
    count_builds(job, builds);
    service.enqueue(std::move(job));
  }
  Drain drain;
  const auto start = Clock::now();
  std::vector<serve::CampaignOutcome> outcomes = service.drain();
  drain.wall_s = seconds_since(start);
  for (auto& o : outcomes) drain.results.push_back(std::move(o.result));
  drain.stats = service.stats();
  drain.world_builds = builds.load();
  return drain;
}

void sweep_die320(const Options& opts, Report& report) {
  const scenario::SweepConfig config =
      sweep_config(opts, opts.run_dir + "/sweep-ckpt");
  const scenario::SweepPlan plan = scenario::plan_sweep(config);
  const std::size_t sensors = static_cast<std::size_t>(config.sensors_per_cell);
  const double jobs = static_cast<double>(plan.cells.size() * sensors);

  std::vector<Drain> drains;
  const Measured m = measure(
      opts, 2, [&] { scenario::plan_sweep(config); },
      [&] { drains.push_back(drain_sweep(config, plan, opts.threads)); });
  report.metric("setup_s", m.setup_s, "s");
  std::vector<double> job_rates;
  std::vector<double> trace_rates;
  for (const Drain& d : drains) {
    job_rates.push_back(jobs / d.wall_s);
    trace_rates.push_back(traces_run(d) / d.wall_s);
  }
  report.metric("traces_per_s", median(trace_rates), "1/s");
  report.metric("jobs_per_s", median(job_rates), "1/s");

  const Drain& first = drains[0];
  report.check(first.results.size() == plan.cells.size() * sensors,
               "sweep drain lost jobs");
  check_repeats(report, "sweep_die320", drains);
  for (const std::size_t i : spread(plan.cells.size(), 4)) {
    for (std::size_t k = 0; k < sensors; ++k) {
      const scenario::CellWorldSpec spec =
          scenario::cell_world_spec(config, plan, i, static_cast<int>(k));
      const std::size_t job = i * sensors + k;
      report.check(job < first.results.size() &&
                       same_result(first.results[job],
                                   scenario::run_sweep_campaign(spec, 1)),
                   spec.campaign_id + " differs from run_sweep_campaign");
    }
  }
  const Fused fused = fuse_cells(plan, first.results, nullptr);
  report.info("drains", std::to_string(drains.size()));
  report.info("fused_correct_bytes",
              std::to_string(fused.bytes) + " of " +
                  std::to_string(16 * plan.cells.size()));
  report.info("fused_full_keys", std::to_string(fused.keys) + " of " +
                                     std::to_string(plan.cells.size()));
  report_service_info(report, first, jobs);
}

// ------------------------------------------------------------ record_replay

void record_replay(const Options& opts, Report& report) {
  const std::size_t n = opts.smoke ? 2000 : 60000;
  const attack::CampaignConfig config = basys3_config(opts, n, opts.threads);
  const Basys3World world(opts, config);
  const attack::TraceCampaign& campaign = *world.campaign;
  const std::string path = opts.run_dir + "/record_replay.ldtr";

  std::vector<double> record_walls;
  std::vector<double> replay_walls;
  const auto cycle = [&] {
    auto start = Clock::now();
    {
      sim::TraceStoreWriter writer(path, campaign.trace_samples());
      util::Rng rng = world.rng;
      campaign.record(rng, n, writer);
      writer.finish();
    }
    record_walls.push_back(seconds_since(start));
    if (opts.corrupt_replay) corrupt_first_chunk(path);

    start = Clock::now();
    const OfflineAttack offline =
        offline_attack(path, poi_begin(campaign, *world.aes),
                       campaign.poi_count(),
                       world.aes->cipher().round_keys()[10], nullptr);
    replay_walls.push_back(seconds_since(start));
    std::filesystem::remove(path);
    report.check(offline.error.empty(),
                 "stored traces failed their checks: " + offline.error);
    report.check(offline.traces == n,
                 "read back " + std::to_string(offline.traces) + " of " +
                     std::to_string(n) + " traces");
    report.check(offline.key == world.key,
                 "offline attack did not recover the key");
  };
  const Measured m =
      measure(opts, 5, [&] { const Basys3World w(opts, config); }, cycle);
  std::vector<double> cycle_rates;
  for (std::size_t i = 0; i < record_walls.size(); ++i) {
    cycle_rates.push_back(1.0 / (record_walls[i] + replay_walls[i]));
  }
  report.metric("setup_s", m.setup_s, "s");
  report.metric("traces_per_s",
                median(rates(static_cast<double>(n), record_walls)), "1/s");
  report.metric("jobs_per_s", median(cycle_rates), "1/s");
  report.info("cycles", std::to_string(record_walls.size()));
  report.info("replay_traces_per_s",
              str(median(rates(static_cast<double>(n), replay_walls))));
  report.info("stored_mb", str(static_cast<double>(n) *
                               (16.0 + 8.0 * static_cast<double>(
                                               campaign.trace_samples())) /
                               1e6));
}

}  // namespace leakydsp::bench
