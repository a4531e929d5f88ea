// Shared pieces of leakydsp_bench: options, the per-workload report, timing
// helpers and the Basys3 campaign world that campaign_long and
// record_replay run on. See README.md in this directory for the workloads
// and metrics.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "attack/campaign.h"
#include "attack/key_rank.h"
#include "core/leaky_dsp.h"
#include "scenario/placement_sweep.h"
#include "serve/campaign_service.h"
#include "serve/standard_jobs.h"
#include "sim/scenarios.h"
#include "sim/sensor_rig.h"
#include "spans.h"
#include "util/rng.h"
#include "victim/aes_core.h"

namespace leakydsp::bench {

struct Options {
  std::uint64_t seed = 7;
  double seconds = 20.0;   ///< length of the timed window
  std::size_t threads = 2;
  /// Self-test sizes (2,000 traces, 8 jobs, a 1x2 sweep), one repetition,
  /// and 20x the victim leakage in the Basys3 world so the key-recovery
  /// checks still hold on 2,000 traces.
  bool smoke = false;
  /// Negative self-test: flip one byte of the stored trace file before it
  /// is read back, which the record_replay checks must report.
  bool corrupt_replay = false;
  std::string run_dir;    ///< fresh per-run scratch (checkpoints, traces)
  std::string trace_dir;  ///< where traced runs write their Chrome traces
};

/// Everything one workload run reports: metrics, informational statistics,
/// and the output checks behind `correct`/`attempted`/`failed`.
class Report {
 public:
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };

  void metric(const std::string& name, double value, const std::string& unit);
  void info(const std::string& name, const std::string& value);
  /// Counts one attempted check (or job); a false `ok` counts as failed and
  /// prints `what`. Returns `ok`.
  bool check(bool ok, const std::string& what);

  std::vector<Metric> metrics;
  std::vector<std::pair<std::string, std::string>> infos;
  std::size_t attempted = 0;
  std::size_t failed = 0;
};

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double median(std::vector<double> values);

struct Measured {
  std::vector<double> unit_s;  ///< wall time of each unit of work
  double setup_s = 0.0;        ///< median set-up wall time
};

/// Times a workload's set-up and its timed window. `setup` runs
/// `setup_reps` times, then once more between consecutive units, each time
/// from a cold PDN solver cache (what a fresh process pays): the host's
/// speed drifts over seconds, so the median samples the whole window.
/// `unit` runs for about opts.seconds: at least once, and again while one
/// more unit as long as the last still fits. Under --smoke, once each.
Measured measure(const Options& opts, std::size_t setup_reps,
                 const std::function<void()>& setup,
                 const std::function<void()>& unit);

/// Byte-for-byte comparison of two campaign results (checkpoint trail,
/// mean readout, final score vectors). Exact == on doubles is the point.
bool same_result(const attack::CampaignResult& a,
                 const attack::CampaignResult& b);
bool same_results(const std::vector<attack::CampaignResult>& a,
                  const std::vector<attack::CampaignResult>& b);

/// The campaign world of campaign_long and record_replay: the Basys3
/// floorplan, LeakyDSP at P6 (kBestPlacementIndex), a 20 MHz AES victim,
/// calibrated rig. Built in the order bench/campaign_scaling uses, so
/// `rng` is in the state TraceCampaign::run expects.
struct Basys3World {
  Basys3World(const Options& opts, const attack::CampaignConfig& config);

  util::Rng rng;
  sim::Basys3Scenario scenario;
  crypto::Key key{};
  std::unique_ptr<victim::AesCoreModel> aes;
  std::unique_ptr<core::LeakyDspSensor> sensor;
  std::unique_ptr<sim::SensorRig> rig;
  std::unique_ptr<attack::TraceCampaign> campaign;
};

/// The campaign configuration of campaign_long and record_replay: break
/// checks every 1000 traces, key rank every 5000 (1% of both under --smoke).
attack::CampaignConfig basys3_config(const Options& opts, std::size_t traces,
                                     std::size_t threads);

/// First POI sample of a campaign's traces: the victim cycle in which round
/// 10 registers (the same arithmetic as TraceCampaign's constructor).
inline std::size_t poi_begin(const attack::TraceCampaign& campaign,
                             const victim::AesCoreModel& aes) {
  return (aes.params().load_cycles + 9) * campaign.samples_per_cycle();
}

/// The offline attack on a stored trace file.
struct OfflineAttack {
  std::size_t traces = 0;      ///< traces read back
  crypto::Key key{};           ///< recovered master key
  attack::KeyRankBounds rank;  ///< rank of the true key after all traces
  std::string error;           ///< the reader's TraceFormatError, if any
};

/// examples/offline_attack on `path`: stream the file, CPA over the POI
/// window in 64-trace batches, rank the true key, invert the recovered
/// round-10 key. Records its layers under `tracer` when it is non-null.
OfflineAttack offline_attack(const std::string& path, std::size_t poi_begin,
                             std::size_t poi_count,
                             const crypto::RoundKey& true_rk10,
                             Tracer* tracer);

/// Empties and recreates `dir` (checkpoint directories of one drain).
std::string fresh_dir(const std::string& dir);

/// One service drain: results in enqueue order plus scheduler statistics.
struct Drain {
  std::vector<attack::CampaignResult> results;
  serve::ServiceStats stats;
  double wall_s = 0.0;
  std::size_t world_builds = 0;  ///< calls of the jobs' world factories
};

/// service_churn: churn_jobs() standard jobs (serve::make_standard_job with
/// a 100 MHz victim, 64 traces, block 16, break stride 32, rank stride 64).
std::size_t churn_jobs(const Options& opts);
serve::StandardCampaignSpec churn_spec(const Options& opts, std::size_t index,
                                       const std::string& checkpoint_dir);
/// max_resident 4, quantum 1 and an 8 MiB budget: every job is evicted and
/// rehydrated about once.
serve::ServiceConfig churn_service(std::size_t threads,
                                   const std::string& checkpoint_dir);
Drain drain_churn(const Options& opts, std::size_t threads);

/// sweep_die320: a 2x4 distance matrix with K = 2 cooperative sensors (16
/// jobs) on a generated 320x320 die (bench/placement_sweep's column spec),
/// 240 traces per job at leakage boost 0.6.
scenario::SweepConfig sweep_config(const Options& opts,
                                   const std::string& checkpoint_dir);
/// max_resident 8, quantum 1.
serve::ServiceConfig sweep_service(std::size_t threads,
                                   const std::string& checkpoint_dir);
/// Every (cell, sensor) job of `plan`, in scenario::run_sweep's order, with
/// worlds from `make_world` (scenario::make_sweep_world or a replay of it).
std::vector<serve::CampaignJob> sweep_jobs(
    const scenario::SweepConfig& config, const scenario::SweepPlan& plan,
    const std::function<std::unique_ptr<serve::CampaignWorld>(
        const scenario::CellWorldSpec&)>& make_world);
/// Drains sweep_jobs() with the library's world factory; planning is not
/// part of the drain.
Drain drain_sweep(const scenario::SweepConfig& config,
                  const scenario::SweepPlan& plan, std::size_t threads);

/// Fused keys of a drained sweep (results cell-major, sensor-minor), each
/// cell through scenario::fuse_cell under a `scenario.fuse_cell` span.
struct Fused {
  int bytes = 0;  ///< correct round-10 key bytes over all cells
  int keys = 0;   ///< cells whose fused key is the full key
};
Fused fuse_cells(const scenario::SweepPlan& plan,
                 const std::vector<attack::CampaignResult>& results,
                 Tracer* tracer);

// Workloads. The untraced form measures the end-to-end metrics; the traced
// form replays the workload from public calls under the span recorder and
// reports the per-layer metrics.
void campaign_long(const Options& opts, Report& report);
void service_churn(const Options& opts, Report& report);
void sweep_die320(const Options& opts, Report& report);
void record_replay(const Options& opts, Report& report);

void campaign_long_traced(const Options& opts, Report& report);
void service_churn_traced(const Options& opts, Report& report);
void sweep_die320_traced(const Options& opts, Report& report);
void record_replay_traced(const Options& opts, Report& report);

}  // namespace leakydsp::bench
