// The traced workloads. Each one replays its workload from the library's
// public calls on one thread, with a span around every call into a layer,
// and checks that the replay reproduces the library's own result bit for
// bit. Next to the replay it times an untraced one-thread run of the same
// shape through the library's own entry points (run(), record(), a service
// drain); the ratio of the two walls is the ledger's trace_overhead.
//
// The replays mirror private execution code (TraceCampaign::process_block, the
// service scheduler, the standard and sweep world factories). When that
// code changes, the bitwise checks fail and the replay must follow it.
#include <algorithm>
#include <deque>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <iterator>
#include <optional>
#include <set>

#include "attack/cpa.h"
#include "bench.h"
#include "fabric/device_spec.h"
#include "pdn/solver.h"
#include "sim/trace_store.h"
#include "util/aligned.h"
#include "util/simd_ops.h"

namespace leakydsp::bench {

namespace {

using Span = Tracer::Span;

/// Every layer the traced runs report, in output order. Each gets a p50, a
/// tail percentile and a span count; the trace-pipeline layers also get
/// their self time per replayed trace.
struct LayerSpec {
  const char* name;
  bool per_trace;
};

constexpr LayerSpec kLayers[] = {
    {"crypto.encrypt_chain", true},
    {"victim.current_model", true},
    {"pdn.droop_broadcast", true},
    {"pdn.supply_batch", true},
    {"sensors.sample_batch", true},
    {"util.rng.fork", true},
    {"attack.cpa.add_traces", true},
    {"attack.cpa.merge", true},
    {"attack.break_check", true},
    {"attack.key_rank", true},
    {"serve.world_build", false},
    {"scenario.world_build", false},
    {"sensors.calibrate", false},
    {"sim.rig_build", false},
    {"attack.campaign.plan_step", false},
    {"attack.campaign.run_block", false},
    {"attack.campaign.finish_step", false},
    {"attack.campaign.take_result", false},
    {"attack.checkpoint.write", false},
    {"attack.checkpoint.read", false},
    {"fabric.generate_device", false},
    {"pdn.grid_build", false},
    {"pdn.transfer_gains", false},
    {"scenario.plan_sweep", false},
    {"scenario.fuse_cell", false},
    {"attack.campaign.record_block", false},
    {"sim.trace_store.write", false},
    {"sim.trace_store.commit", false},
    {"sim.trace_store.read", false},
};

/// The non-span numbers of one traced run; 0 where a workload does not
/// exercise the layer.
struct Ledger {
  double traces = 0.0;            ///< traces replayed (ns/trace denominator)
  double replay_wall_s = 0.0;   ///< the (last) traced replay
  /// Replay wall over the wall of an untraced 1-thread run of the same
  /// shape through the library's own entry points.
  double trace_overhead = 0.0;
  double supply_draws = 0.0;      ///< RNG draws per trace in supply_batch
  double sample_draws = 0.0;      ///< RNG draws per trace in sample_batch
  double checkpoint_bytes = 0.0;  ///< mean suspended checkpoint size
  double world_builds_per_job = 0.0;
  double evictions = 0.0;
  double rehydrations = 0.0;
  double blocks_stolen = 0.0;
  double parallel_efficiency = 0.0;
  double stored_bytes = 0.0;  ///< trace file size (write/read MB/s)
};

void emit(const char* workload, const Options& opts, const Tracer& tracer,
          const Ledger& ledger, Report& report) {
  const std::vector<LayerStats> layers = tracer.aggregate();
  const double wall_ns = ledger.replay_wall_s * 1e9;
  const auto find = [&](const std::string& name) {
    for (const LayerStats& l : layers) {
      if (l.name == name) return l;
    }
    return LayerStats{};
  };

  std::cout << "# ledger " << workload << ": layer, spans, self ms, "
            << "share of replay wall, p50 us, tail us\n";
  for (const LayerStats& l : layers) {
    std::cout << "#   " << std::left << std::setw(30) << l.name << std::right
              << std::setw(9) << l.count << std::fixed << std::setprecision(1)
              << std::setw(10) << l.self_ns / 1e6 << std::setprecision(3)
              << std::setw(8) << l.self_ns / wall_ns << std::setprecision(2)
              << std::setw(12) << l.p50_ns / 1e3 << std::setw(12)
              << l.tail_ns / 1e3 << " (" << l.tail_label << ")\n"
              << std::defaultfloat;
    bool known = false;
    for (const LayerSpec& spec : kLayers) known = known || l.name == spec.name;
    report.check(known, "span " + l.name + " is not in the layer list");
  }

  for (const LayerSpec& spec : kLayers) {
    const LayerStats l = find(spec.name);
    const std::string name = spec.name;
    report.metric(name + ".p50_us", l.p50_ns / 1e3, "us");
    report.metric(name + ".tail_us", l.tail_ns / 1e3, "us");
    report.metric(name + ".count", static_cast<double>(l.count), "count");
    if (spec.per_trace) {
      report.metric(name + ".ns_per_trace",
                    ledger.traces > 0 ? l.self_ns / ledger.traces : 0.0,
                    "ns/trace");
    }
  }
  const auto mb_per_s = [&](const char* layer) {
    const double ns = find(layer).total_ns;
    return ns > 0 ? ledger.stored_bytes / 1e6 / (ns / 1e9) : 0.0;
  };
  report.metric("pdn.supply_batch.rng_draws_per_trace", ledger.supply_draws,
                "count");
  report.metric("sensors.sample_batch.rng_draws_per_trace",
                ledger.sample_draws, "count");
  report.metric("attack.checkpoint.bytes", ledger.checkpoint_bytes, "bytes");
  report.metric("serve.world_builds_per_job", ledger.world_builds_per_job,
                "count");
  report.metric("serve.evictions", ledger.evictions, "count");
  report.metric("serve.rehydrations", ledger.rehydrations, "count");
  report.metric("serve.blocks_stolen", ledger.blocks_stolen, "count");
  report.metric("serve.parallel_efficiency", ledger.parallel_efficiency,
                "ratio");
  report.metric("sim.trace_store.write.mb_per_s",
                mb_per_s("sim.trace_store.write"), "MB/s");
  report.metric("sim.trace_store.read.mb_per_s",
                mb_per_s("sim.trace_store.read"), "MB/s");
  report.metric("ledger.unattributed_share",
                (wall_ns - tracer.covered_ns()) / wall_ns, "ratio");
  report.metric("ledger.trace_overhead", ledger.trace_overhead, "ratio");

  const std::string path =
      opts.trace_dir + "/" + std::string(workload) + ".trace.json";
  tracer.write_chrome_trace(path);
  report.info("chrome_trace", path);
}

std::size_t next_multiple(std::size_t t, std::size_t stride) {
  return (t / stride + 1) * stride;
}

// ------------------------------------------------------- campaign replay

/// TraceCampaign::run (stop_when_broken = false) at one thread, rebuilt
/// from public calls: the step loop of run_loop, process_block's per-block
/// sampler clone / AES copy / CPA shard and per-trace stages (1-based trace
/// numbering for fork), shards merged in block order, then finish_step's
/// break check and key rank. Counts the RNG draws of the two noise stages.
attack::CampaignResult replay_campaign(const Basys3World& world,
                                       Tracer* tracer, Ledger& ledger) {
  const attack::TraceCampaign& campaign = *world.campaign;
  const attack::CampaignConfig& config = campaign.config();
  const sim::SensorRig& rig = *world.rig;
  const crypto::Aes128& cipher = world.aes->cipher();
  const std::size_t spc = campaign.samples_per_cycle();
  const std::size_t samples = campaign.trace_samples();
  const std::size_t poi_count = campaign.poi_count();
  const std::size_t poi_first = poi_begin(campaign, *world.aes);
  const crypto::Key true_key = cipher.round_keys()[0];
  const crypto::RoundKey true_rk10 = cipher.round_keys()[10];

  // run()'s preamble: the chain's first plaintext, then the fork parent.
  util::Rng rng = world.rng;
  crypto::Block plaintext;
  for (auto& b : plaintext) b = static_cast<std::uint8_t>(rng() & 0xff);
  const util::Rng trace_parent = rng;

  attack::CpaAttack cpa(poi_count);
  attack::CampaignResult result;
  double poi_sum = 0.0;
  std::size_t consecutive_ok = 0;
  std::size_t t = 0;
  std::uint64_t supply_draws = 0;
  std::uint64_t sample_draws = 0;
  std::vector<double> droop_per_cycle(samples / spc);

  while (t < config.max_traces) {
    std::size_t next = config.max_traces;
    if (!result.broken) {
      next = std::min(next, next_multiple(t, config.break_check_stride));
    }
    next = std::min(next, next_multiple(t, config.rank_stride));
    const std::size_t count = next - t;

    std::vector<crypto::Block> plaintexts(count);
    {
      Span span(tracer, "crypto.encrypt_chain");
      for (auto& p : plaintexts) {
        p = plaintext;
        plaintext = cipher.encrypt(plaintext);
      }
    }

    std::vector<attack::CpaAttack> shards;
    std::vector<double> shard_poi_sums;
    for (std::size_t lo = 0; lo < count; lo += config.block_traces) {
      Span block_span(tracer, "attack.campaign.run_block");
      const std::size_t m = std::min(config.block_traces, count - lo);
      sim::SensorRig::Sampler sampler = rig.make_sampler();
      victim::AesCoreModel aes = *world.aes;
      const double gain = rig.coupling().gain_at_node(aes.pdn_node());
      std::vector<crypto::Block> ciphertexts(m);
      util::aligned_vector<double> poi_rows(m * poi_count);
      std::vector<double> trace(samples);
      util::aligned_vector<double> droops(samples);
      util::aligned_vector<double> supplies(samples);
      attack::CpaAttack shard(poi_count);
      double block_poi_sum = 0.0;
      for (std::size_t i = 0; i < m; ++i) {
        const std::size_t trace_number = t + lo + i + 1;
        util::Rng trace_rng = [&] {
          Span span(tracer, "util.rng.fork");
          return trace_parent.fork(trace_number);
        }();
        {
          Span span(tracer, "victim.current_model");
          aes.start_encryption(plaintexts[lo + i]);
          for (std::size_t c = 0; c < droop_per_cycle.size(); ++c) {
            droop_per_cycle[c] = gain * aes.current_at_cycle(c);
          }
        }
        {
          Span span(tracer, "pdn.droop_broadcast");
          for (std::size_t c = 0; c < droop_per_cycle.size(); ++c) {
            util::simd::fill(droops.data() + c * spc, spc, droop_per_cycle[c]);
          }
        }
        {
          Span span(tracer, "pdn.supply_batch");
          sampler.settle();
          const std::uint64_t before = trace_rng.draws();
          sampler.supply_batch(droops, supplies, trace_rng);
          supply_draws += trace_rng.draws() - before;
        }
        {
          Span span(tracer, "sensors.sample_batch");
          const std::uint64_t before = trace_rng.draws();
          sampler.sensor().sample_batch(supplies, trace, trace_rng);
          sample_draws += trace_rng.draws() - before;
        }
        double* poi = poi_rows.data() + i * poi_count;
        for (std::size_t k = 0; k < poi_count; ++k) {
          poi[k] = trace[poi_first + k];
          block_poi_sum += poi[k];
        }
        ciphertexts[i] = aes.ciphertext();
        if (trace_number == 64 && tracer != nullptr) tracer->stop_export();
      }
      {
        Span span(tracer, "attack.cpa.add_traces");
        shard.add_traces(ciphertexts, poi_rows);
      }
      shards.push_back(std::move(shard));
      shard_poi_sums.push_back(block_poi_sum);
    }
    {
      Span span(tracer, "attack.cpa.merge");
      for (std::size_t k = 0; k < shards.size(); ++k) {
        cpa.merge(shards[k]);
        poi_sum += shard_poi_sums[k];
      }
    }

    t = next;
    result.traces_run = t;
    if (!result.broken && t % config.break_check_stride == 0 && t >= 2) {
      Span span(tracer, "attack.break_check");
      if (cpa.recovered_master_key() == true_key) {
        if (consecutive_ok == 0) result.traces_to_break = t;
        ++consecutive_ok;
      } else {
        consecutive_ok = 0;
        result.traces_to_break = 0;
      }
      if (consecutive_ok >= config.stable_breaks) result.broken = true;
    }
    if (t % config.rank_stride == 0 && t >= 2) {
      Span span(tracer, "attack.key_rank");
      attack::Checkpoint cp;
      cp.traces = t;
      cp.rank = attack::estimate_key_rank(cpa.snapshot(), true_rk10,
                                          config.rank_params);
      const crypto::RoundKey recovered = cpa.recovered_round_key();
      for (std::size_t b = 0; b < 16; ++b) {
        if (recovered[b] == true_rk10[b]) ++cp.correct_bytes;
      }
      cp.full_key = cpa.recovered_master_key() == true_key;
      result.checkpoints.push_back(cp);
    }
  }

  result.mean_poi_readout =
      poi_sum / (static_cast<double>(t) * static_cast<double>(poi_count));
  if (config.keep_final_scores) {
    for (const attack::ByteScores& s : cpa.snapshot()) {
      result.final_scores.insert(result.final_scores.end(), s.score.begin(),
                                 s.score.end());
    }
  }
  ledger.supply_draws =
      static_cast<double>(supply_draws) / static_cast<double>(t);
  ledger.sample_draws =
      static_cast<double>(sample_draws) / static_cast<double>(t);
  return result;
}

// -------------------------------------------------------- service replay

/// serve::make_standard_world rebuilt from public calls, with the rig build
/// and the calibration under their own spans.
class StandardWorldReplay final : public serve::CampaignWorld {
 public:
  StandardWorldReplay(const serve::StandardCampaignSpec& spec,
                      const sim::Basys3Scenario& scenario, Tracer* tracer)
      : rng_(spec.seed) {
    crypto::Key key;
    for (auto& b : key) b = static_cast<std::uint8_t>(rng_() & 0xff);
    victim::AesCoreParams aes_params;
    aes_params.clock_mhz = spec.victim_clock_mhz;
    aes_params.current_per_hd_bit = spec.current_per_hd_bit;
    aes_ = std::make_unique<victim::AesCoreModel>(key, scenario.aes_site(),
                                                  scenario.grid(), aes_params);
    sensor_ = std::make_unique<core::LeakyDspSensor>(
        scenario.device(),
        scenario.attack_placements()[sim::Basys3Scenario::kBestPlacementIndex]);
    {
      Span span(tracer, "sim.rig_build");
      rig_ = std::make_unique<sim::SensorRig>(scenario.grid(), *sensor_);
    }
    {
      Span span(tracer, "sensors.calibrate");
      rig_->calibrate(rng_);
    }
    attack::CampaignConfig config;
    config.max_traces = spec.max_traces;
    config.break_check_stride = spec.break_check_stride;
    config.rank_stride = spec.rank_stride;
    config.block_traces = spec.block_traces;
    config.threads = spec.threads;
    config.checkpoint_dir = spec.checkpoint_dir;
    config.campaign_id = spec.id;
    campaign_ = std::make_unique<attack::TraceCampaign>(*rig_, *aes_, config);
  }

  attack::TraceCampaign& campaign() override { return *campaign_; }
  util::Rng& rng() override { return rng_; }

 private:
  util::Rng rng_;
  std::unique_ptr<victim::AesCoreModel> aes_;
  std::unique_ptr<core::LeakyDspSensor> sensor_;
  std::unique_ptr<sim::SensorRig> rig_;
  std::unique_ptr<attack::TraceCampaign> campaign_;
};

/// scenario::make_sweep_world rebuilt from public calls: die generation,
/// PDN mesh, rig build and calibration each under their own span.
class SweepWorldReplay final : public serve::CampaignWorld {
 public:
  SweepWorldReplay(const scenario::CellWorldSpec& spec, Tracer* tracer)
      : rng_(spec.cell_seed) {
    {
      Span span(tracer, "fabric.generate_device");
      device_ = std::make_unique<fabric::Device>(
          fabric::generate_device(spec.device_spec));
    }
    {
      Span span(tracer, "pdn.grid_build");
      grid_ = std::make_unique<pdn::PdnGrid>(
          *device_, pdn::params_from_pad_spec(spec.device_spec.pads));
    }
    crypto::Key key;
    for (auto& b : key) b = static_cast<std::uint8_t>(rng_() & 0xff);
    rng_ = rng_.fork(static_cast<std::uint64_t>(spec.sensor_index));
    victim::AesCoreParams aes_params;
    aes_params.clock_mhz = spec.campaign.victim_clock_mhz;
    aes_params.current_per_hd_bit = spec.campaign.current_per_hd_bit;
    aes_ = std::make_unique<victim::AesCoreModel>(key, spec.victim_site, *grid_,
                                                  aes_params);
    core::LeakyDspParams sensor_params;
    sensor_params.n_dsp = spec.cascade_dsps;
    sensor_ = std::make_unique<core::LeakyDspSensor>(*device_, spec.sensor_site,
                                                     sensor_params);
    {
      Span span(tracer, "sim.rig_build");
      rig_ = std::make_unique<sim::SensorRig>(*grid_, *sensor_);
    }
    {
      Span span(tracer, "sensors.calibrate");
      rig_->calibrate(rng_);
    }
    attack::CampaignConfig config;
    config.max_traces = spec.campaign.max_traces;
    config.break_check_stride = spec.campaign.break_check_stride;
    config.rank_stride = spec.campaign.rank_stride;
    config.block_traces = spec.campaign.block_traces;
    config.threads = spec.threads;
    config.checkpoint_dir = spec.checkpoint_dir;
    config.campaign_id = spec.campaign_id;
    config.keep_final_scores = true;
    campaign_ = std::make_unique<attack::TraceCampaign>(*rig_, *aes_, config);
  }

  attack::TraceCampaign& campaign() override { return *campaign_; }
  util::Rng& rng() override { return rng_; }

 private:
  util::Rng rng_;
  std::unique_ptr<fabric::Device> device_;
  std::unique_ptr<pdn::PdnGrid> grid_;
  std::unique_ptr<victim::AesCoreModel> aes_;
  std::unique_ptr<core::LeakyDspSensor> sensor_;
  std::unique_ptr<sim::SensorRig> rig_;
  std::unique_ptr<attack::TraceCampaign> campaign_;
};

struct ServiceReplay {
  std::vector<attack::CampaignResult> results;  ///< job order
  std::size_t checkpoint_writes = 0;  ///< evictions
  double checkpoint_bytes = 0.0;
};

/// CampaignService::drain on one thread, rebuilt from TraceCampaign's task
/// interface: FIFO admission up to max_resident and the memory budget,
/// eviction through suspend() after quantum_steps while jobs wait,
/// rehydration through load_task(). The newest resident steps next, as the
/// service's single worker pops its own deque last-in first-out.
ServiceReplay replay_service(const std::vector<serve::CampaignJob>& jobs,
                             const serve::ServiceConfig& config,
                             const char* world_span, Tracer* tracer) {
  struct Resident {
    std::size_t job = 0;
    std::unique_ptr<serve::CampaignWorld> world;
    std::optional<attack::TraceCampaign::Task> task;
    std::size_t steps = 0;
    std::size_t bytes = 0;
  };
  fresh_dir(config.checkpoint_dir);
  ServiceReplay out;
  out.results.resize(jobs.size());
  std::deque<std::size_t> pending;
  for (std::size_t j = 0; j < jobs.size(); ++j) pending.push_back(j);
  std::vector<bool> suspended(jobs.size(), false);
  std::vector<Resident> residents;
  std::size_t resident_bytes = 0;
  std::size_t finished = 0;

  const auto admit = [&] {
    while (!pending.empty() && residents.size() < config.max_resident) {
      Resident r;
      r.job = pending.front();
      {
        Span span(tracer, world_span);
        r.world = jobs[r.job].make();
      }
      attack::TraceCampaign& campaign = r.world->campaign();
      r.bytes = campaign.approx_task_bytes();
      if (config.memory_budget_bytes != 0 && !residents.empty() &&
          resident_bytes + r.bytes > config.memory_budget_bytes) {
        return;
      }
      pending.pop_front();
      resident_bytes += r.bytes;
      if (suspended[r.job]) {
        Span span(tracer, "attack.checkpoint.read");
        r.task.emplace(campaign.load_task());
      } else {
        r.task.emplace(campaign.start(r.world->rng()));
      }
      residents.push_back(std::move(r));
    }
  };
  const auto release = [&](Resident& r) {
    resident_bytes -= r.bytes;
    r.task.reset();
    r.world.reset();
    admit();
  };

  admit();
  while (!residents.empty()) {
    Resident r = std::move(residents.back());
    residents.pop_back();
    attack::TraceCampaign& campaign = r.world->campaign();
    attack::TraceCampaign::StepPlan plan = [&] {
      Span span(tracer, "attack.campaign.plan_step");
      return campaign.plan_step(*r.task, jobs[r.job].stop_when_broken);
    }();
    bool more = false;
    if (!plan.empty()) {
      for (std::size_t b = 0; b < plan.block_count(); ++b) {
        Span span(tracer, "attack.campaign.run_block");
        campaign.run_block(plan, b);
      }
      Span span(tracer, "attack.campaign.finish_step");
      more = campaign.finish_step(*r.task, std::move(plan));
      ++r.steps;
    }
    if (!more) {
      {
        Span span(tracer, "attack.campaign.take_result");
        out.results[r.job] = campaign.take_result(std::move(*r.task));
      }
      if (++finished == 64 && tracer != nullptr) tracer->stop_export();
      release(r);
    } else if (!pending.empty() && r.steps >= config.quantum_steps) {
      {
        Span span(tracer, "attack.checkpoint.write");
        campaign.suspend(*r.task);
      }
      out.checkpoint_bytes += static_cast<double>(
          std::filesystem::file_size(campaign.config().checkpoint_dir +
                                     "/campaign-" + jobs[r.job].id + ".ckpt"));
      ++out.checkpoint_writes;
      suspended[r.job] = true;
      pending.push_back(r.job);
      release(r);
    } else {
      residents.push_back(std::move(r));
    }
  }
  return out;
}

void fill_service_ledger(Ledger& ledger, Report& report,
                         const Drain& parallel, const Drain& serial,
                         const ServiceReplay& replay, std::size_t threads) {
  const double jobs = static_cast<double>(parallel.results.size());
  ledger.world_builds_per_job =
      static_cast<double>(parallel.world_builds) / jobs;
  ledger.evictions = static_cast<double>(parallel.stats.evictions);
  ledger.rehydrations = static_cast<double>(parallel.stats.rehydrations);
  ledger.blocks_stolen = static_cast<double>(parallel.stats.blocks_stolen);
  // Work done on one thread over the capacity the parallel drain held.
  ledger.parallel_efficiency =
      serial.wall_s / (parallel.wall_s * static_cast<double>(threads));
  ledger.checkpoint_bytes =
      replay.checkpoint_writes == 0
          ? 0.0
          : replay.checkpoint_bytes /
                static_cast<double>(replay.checkpoint_writes);
  report.info("evictions_replay_vs_1_thread_drain",
              std::to_string(replay.checkpoint_writes) + " vs " +
                  std::to_string(serial.stats.evictions));
}

// ------------------------------------------------------ sweep set-up calls

/// plan_sweep's set-up layer by layer from a cold solver cache: the die,
/// its PDN mesh (including the solver set-up), plan_sweep itself, and one
/// transfer-gain solve per distinct sensor node of the plan.
scenario::SweepPlan sweep_setup(const scenario::SweepConfig& config,
                                Tracer* tracer) {
  pdn::SolverContext::clear_cache();
  std::unique_ptr<fabric::Device> device;
  {
    Span span(tracer, "fabric.generate_device");
    device = std::make_unique<fabric::Device>(
        fabric::generate_device(config.spec));
  }
  std::unique_ptr<pdn::PdnGrid> grid;
  {
    Span span(tracer, "pdn.grid_build");
    grid = std::make_unique<pdn::PdnGrid>(
        *device, pdn::params_from_pad_spec(config.spec.pads));
  }
  scenario::SweepPlan plan = [&] {
    Span span(tracer, "scenario.plan_sweep");
    return scenario::plan_sweep(config);
  }();
  std::set<std::size_t> nodes;
  for (const scenario::SweepCell& cell : plan.cells) {
    for (const auto site : cell.sensor_sites) {
      nodes.insert(grid->node_of_site(site));
    }
  }
  for (const std::size_t node : nodes) {
    Span span(tracer, "pdn.transfer_gains");
    grid->transfer_gains(node);
  }
  return plan;
}

// ------------------------------------------------------- record replay

/// TraceCampaign::record(rng, n, writer) rebuilt from the record-stream
/// calls the service uses: block by block, next_plaintexts then
/// record_block, each trace appended to the writer, then the footer.
void record_traces(const Basys3World& world, std::size_t n,
                   const std::string& path, Tracer* tracer) {
  const attack::TraceCampaign& campaign = *world.campaign;
  const std::size_t block = campaign.config().block_traces;
  sim::TraceStoreWriter writer(path, campaign.trace_samples());
  util::Rng rng = world.rng;
  attack::TraceCampaign::RecordCursor cursor = campaign.start_record(rng);
  for (std::size_t first = 0; first < n; first += block) {
    const std::size_t m = std::min(block, n - first);
    std::vector<crypto::Block> plaintexts;
    {
      Span span(tracer, "crypto.encrypt_chain");
      plaintexts = campaign.next_plaintexts(cursor, m);
    }
    std::vector<sim::StoredTrace> records;
    {
      Span span(tracer, "attack.campaign.record_block");
      records = campaign.record_block(cursor.trace_parent, first, plaintexts);
    }
    for (const sim::StoredTrace& r : records) {
      Span span(tracer, "sim.trace_store.write");
      writer.add(r.ciphertext, r.samples);
    }
    if (first + m >= 64 && tracer != nullptr) tracer->stop_export();
  }
  Span span(tracer, "sim.trace_store.commit");
  writer.finish();
}

bool same_file(const std::string& a, const std::string& b) {
  std::ifstream fa(a, std::ios::binary);
  std::ifstream fb(b, std::ios::binary);
  return fa && fb &&
         std::equal(std::istreambuf_iterator<char>(fa),
                    std::istreambuf_iterator<char>(),
                    std::istreambuf_iterator<char>(fb),
                    std::istreambuf_iterator<char>());
}

/// Alternates the untraced reference with the traced replay, seven times
/// (once under --smoke): the host's speed drifts over seconds, so halves
/// run back to back compare best. Keeps the last replay's spans;
/// trace_overhead is the median ratio of replay wall to reference wall.
std::unique_ptr<Tracer> alternate(const Options& opts, Ledger& ledger,
                                  const std::function<void()>& reference,
                                  const std::function<void(Tracer*)>& replay) {
  std::vector<double> ratios;
  std::unique_ptr<Tracer> tracer;
  for (int pair = 0; pair < (opts.smoke ? 1 : 7); ++pair) {
    auto start = Clock::now();
    reference();
    const double reference_wall = seconds_since(start);
    tracer = std::make_unique<Tracer>();
    start = Clock::now();
    replay(tracer.get());
    ledger.replay_wall_s = seconds_since(start);
    ratios.push_back(ledger.replay_wall_s / reference_wall);
  }
  ledger.trace_overhead = median(ratios);
  return tracer;
}

}  // namespace

// ------------------------------------------------------------- workloads

void campaign_long_traced(const Options& opts, Report& report) {
  const std::size_t n = opts.smoke ? 2000 : 20000;
  attack::CampaignConfig config = basys3_config(opts, n, 1);
  config.keep_final_scores = true;
  const Basys3World world(opts, config);

  Ledger ledger;
  attack::CampaignResult reference;
  attack::CampaignResult replayed;
  const auto tracer = alternate(
      opts, ledger,
      [&] {
        util::Rng rng = world.rng;
        reference = world.campaign->run(rng, /*stop_when_broken=*/false);
      },
      [&](Tracer* t) { replayed = replay_campaign(world, t, ledger); });
  ledger.traces = static_cast<double>(n);
  report.check(same_result(replayed, reference),
               "campaign replay differs from run() (final_scores included)");
  emit("campaign_long", opts, *tracer, ledger, report);
}

void service_churn_traced(const Options& opts, Report& report) {
  const Drain parallel = drain_churn(opts, opts.threads);
  const std::string ckpt = opts.run_dir + "/churn-replay";
  const sim::Basys3Scenario scenario;

  Ledger ledger;
  Drain serial;
  ServiceReplay replay;
  const auto tracer = alternate(
      opts, ledger, [&] { serial = drain_churn(opts, 1); },
      [&](Tracer* t) {
        std::vector<serve::CampaignJob> jobs;
        for (std::size_t i = 0; i < churn_jobs(opts); ++i) {
          const serve::StandardCampaignSpec spec = churn_spec(opts, i, ckpt);
          serve::CampaignJob& job =
              jobs.emplace_back(serve::make_standard_job(spec));
          job.make = [spec, &scenario, t] {
            return std::make_unique<StandardWorldReplay>(spec, scenario, t);
          };
        }
        replay = replay_service(jobs, churn_service(1, ckpt),
                                "serve.world_build", t);
      });

  report.check(same_results(replay.results, serial.results),
               "service replay differs from the 1-thread drain");
  report.check(same_results(parallel.results, serial.results),
               "drain results differ between threads");
  fill_service_ledger(ledger, report, parallel, serial, replay, opts.threads);
  emit("service_churn", opts, *tracer, ledger, report);
}

void sweep_die320_traced(const Options& opts, Report& report) {
  const scenario::SweepConfig config =
      sweep_config(opts, opts.run_dir + "/sweep-ckpt");
  const Drain parallel =
      drain_sweep(config, scenario::plan_sweep(config), opts.threads);

  Ledger ledger;
  Drain serial;
  Fused reference_fused;
  ServiceReplay replay;
  Fused fused;
  const auto tracer = alternate(
      opts, ledger,
      [&] {
        const scenario::SweepPlan plan = sweep_setup(config, nullptr);
        serial = drain_sweep(config, plan, 1);
        reference_fused = fuse_cells(plan, serial.results, nullptr);
      },
      [&](Tracer* t) {
        const scenario::SweepPlan plan = sweep_setup(config, t);
        const std::vector<serve::CampaignJob> jobs =
            sweep_jobs(config, plan, [t](const scenario::CellWorldSpec& spec) {
              return std::make_unique<SweepWorldReplay>(spec, t);
            });
        replay = replay_service(jobs, sweep_service(1, config.checkpoint_dir),
                                "scenario.world_build", t);
        fused = fuse_cells(plan, replay.results, t);
      });

  report.check(same_results(replay.results, serial.results),
               "sweep replay differs from the 1-thread drain "
               "(final_scores included)");
  report.check(same_results(parallel.results, serial.results),
               "sweep drain results differ between threads");
  report.check(fused.bytes == reference_fused.bytes &&
                   fused.keys == reference_fused.keys,
               "fused keys differ from the drain's");
  fill_service_ledger(ledger, report, parallel, serial, replay, opts.threads);
  emit("sweep_die320", opts, *tracer, ledger, report);
}

void record_replay_traced(const Options& opts, Report& report) {
  const std::size_t n = opts.smoke ? 2000 : 20000;
  const Basys3World world(opts, basys3_config(opts, n, 1));
  const attack::TraceCampaign& campaign = *world.campaign;
  const std::size_t first_poi = poi_begin(campaign, *world.aes);
  const crypto::RoundKey true_rk10 = world.aes->cipher().round_keys()[10];
  const std::string reference_path = opts.run_dir + "/reference.ldtr";
  const std::string replay_path = opts.run_dir + "/replay.ldtr";

  Ledger ledger;
  OfflineAttack reference;
  OfflineAttack replayed;
  const auto tracer = alternate(
      opts, ledger,
      [&] {
        sim::TraceStoreWriter writer(reference_path, campaign.trace_samples());
        util::Rng rng = world.rng;
        campaign.record(rng, n, writer);
        writer.finish();
        reference = offline_attack(reference_path, first_poi,
                                   campaign.poi_count(), true_rk10, nullptr);
      },
      [&](Tracer* t) {
        record_traces(world, n, replay_path, t);
        replayed = offline_attack(replay_path, first_poi, campaign.poi_count(),
                                  true_rk10, t);
      });
  ledger.traces = static_cast<double>(n);
  ledger.stored_bytes =
      static_cast<double>(std::filesystem::file_size(replay_path));

  report.check(same_file(replay_path, reference_path),
               "replayed trace file differs from record()'s");
  report.check(replayed.error.empty() && reference.error.empty(),
               "stored traces failed their checks: " + replayed.error +
                   reference.error);
  report.check(replayed.traces == n, "replay read back " +
                                         std::to_string(replayed.traces) +
                                         " of " + std::to_string(n));
  report.check(replayed.key == reference.key &&
                   replayed.rank.log2_upper == reference.rank.log2_upper &&
                   replayed.rank.log2_lower == reference.rank.log2_lower,
               "offline attack on the replayed file differs");
  emit("record_replay", opts, *tracer, ledger, report);
}

}  // namespace leakydsp::bench
