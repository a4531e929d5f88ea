// End-to-end AES key-extraction campaign (Section IV-B).
//
// Drives the full pipeline for tens of thousands of traces: chained
// plaintexts into the victim AES core, per-cycle leakage current through
// the PDN coupling and droop dynamics, sensor readouts at the 300 MHz
// sample clock, online CPA over a points-of-interest window, and key-rank
// checkpoints. Its batched pipeline (supply_trace, then the sensor's
// sample_traces) generates every AES trace in the stack — run(), resume(),
// record(), the campaign service and generate_trace — and run(), resume()
// and record() drive the same Task API the service schedules.
// sim::SensorRig's per-sample API is the scalar reference: a consistency
// test holds the two paths' mean traces within 4 standard errors of each
// other.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "attack/cpa.h"
#include "util/aligned.h"
#include "util/contracts.h"
#include "util/rng.h"
#include "util/thread_pool.h"

#include "attack/key_rank.h"
#include "crypto/aes128.h"
#include "pdn/grid.h"
#include "sensors/sensor.h"
#include "sim/sensor_rig.h"
#include "sim/trace_store.h"
#include "victim/aes_core.h"

namespace leakydsp::attack {

/// Thrown when a campaign checkpoint is missing, corrupt (bad magic,
/// version, CRC, or truncation), or incompatible with the resuming
/// campaign's configuration. Derives from util::PreconditionError so
/// generic catch sites keep working while fault-injection tests can
/// assert the precise type.
class CheckpointError : public util::PreconditionError {
 public:
  using util::PreconditionError::PreconditionError;
};

/// Campaign configuration.
struct CampaignConfig {
  std::size_t max_traces = 60000;
  /// Stride at which full-key recovery is tested (Table I granularity).
  std::size_t break_check_stride = 1000;
  /// Stride at which key-rank bounds are estimated (Fig. 5 granularity).
  std::size_t rank_stride = 5000;
  /// Consecutive break checks that must agree before declaring the key
  /// broken (guards against lucky argmax flips).
  std::size_t stable_breaks = 2;
  KeyRankParams rank_params{};
  /// Worker threads for trace generation (0 = hardware concurrency). The
  /// result is bit-identical for every value — see run().
  std::size_t threads = 0;
  /// Traces per work block. Each block is generated by one worker into its
  /// own CPA shard; shards merge in block order. Neither the block size nor
  /// the thread count changes results: every readout is a count, so every
  /// CPA sum is an exact integer in a double and no reduction order can
  /// round it differently.
  std::size_t block_traces = 64;
  /// Directory for durable checkpoints ("" = disabled). When set, run()
  /// writes an atomic, CRC-protected snapshot of the full campaign state
  /// (CPA accumulators, RNG stream, plaintext cursor, results so far) at
  /// every checkpoint boundary, and resume() continues a killed campaign
  /// from the last one with byte-identical final results.
  std::string checkpoint_dir;
  /// Stable identity of this campaign inside checkpoint_dir: the durable
  /// snapshot is named "campaign-<id>.ckpt", so independent campaigns can
  /// share one directory without clobbering each other (the campaign
  /// service keys this on its job id). "" names the file "campaign.ckpt".
  /// A campaign reads and writes only its own file: a keyed campaign never
  /// loads "campaign.ckpt". Not serialized: identity is the file name,
  /// never part of the result-shaping configuration.
  std::string campaign_id;
  /// Keep the final per-guess CPA score vectors in
  /// CampaignResult::final_scores. Off by default (32 KiB per result);
  /// cooperative multi-sensor sweeps turn it on to fuse score vectors
  /// across campaigns. Not serialized: the scores are recomputed from
  /// the (bit-identically restored) CPA accumulator on every path, so
  /// the flag never shapes checkpoint compatibility or the numbers.
  bool keep_final_scores = false;
};

/// One checkpoint of the campaign.
struct Checkpoint {
  std::size_t traces = 0;
  KeyRankBounds rank;
  int correct_bytes = 0;   ///< matching bytes of the round-10 key
  bool full_key = false;   ///< master key fully recovered
  friend bool operator==(const Checkpoint&, const Checkpoint&) = default;
};

/// Campaign outcome.
struct CampaignResult {
  std::vector<Checkpoint> checkpoints;      ///< at rank_stride
  std::size_t traces_to_break = 0;          ///< 0 when never broken
  bool broken = false;
  std::size_t traces_run = 0;
  double mean_poi_readout = 0.0;            ///< diagnostic
  /// Final per-guess CPA scores (max |rho| over the POI window), the 16
  /// byte positions back to back: entry b * 256 + g is byte b's score
  /// for guess g. Only filled under CampaignConfig::keep_final_scores;
  /// empty otherwise. This is the vector cooperative sensing sums
  /// across K sensor campaigns before the fused argmax.
  std::vector<double> final_scores;

  /// Field-by-field equality, exact on doubles: two runs of one campaign
  /// are equal only when they are bit-identical (NaN aside).
  friend bool operator==(const CampaignResult&,
                         const CampaignResult&) = default;
};

/// Runs a key-extraction campaign against `aes` using `rig`'s sensor.
/// The POI window covers the last-round state transition: sensor samples
/// spanning the victim cycle in which round 10 registers, plus one victim
/// cycle of droop-filter ringing after it.
class TraceCampaign {
  struct RunState;   // mid-campaign state; defined in the private section
  struct Recording;  // recording-task state; likewise

 public:
  /// Extra tenants drawing current during the campaign (active fences,
  /// other victims): called once per sensor sample to append draws.
  using Interferer = std::function<void(
      double t_ns, util::Rng& rng, std::vector<pdn::CurrentInjection>& out)>;

  TraceCampaign(sim::SensorRig& rig, victim::AesCoreModel& aes,
                CampaignConfig config = {});

  /// Registers an interferer whose droop adds to the victim's. The callback
  /// is invoked concurrently from campaign worker threads, so it must not
  /// mutate shared state — draw all randomness from the passed rng (the
  /// existing fence/victim models are const and qualify).
  void add_interferer(Interferer interferer);

  /// Number of sensor samples per victim clock cycle.
  std::size_t samples_per_cycle() const { return spc_; }
  /// First sample of the POI window within a trace.
  std::size_t poi_begin() const { return poi_begin_; }
  /// POI window size in sensor samples.
  std::size_t poi_count() const { return poi_count_; }

  /// Runs up to config.max_traces traces (stops early once the key has
  /// been stably broken AND all rank checkpoints up to that point are
  /// recorded — pass stop_when_broken=false to always run to max_traces).
  ///
  /// Execution is parallel over fixed-size trace blocks with a determinism
  /// contract: the result depends only on the seed and the configuration,
  /// never on config.threads. The chained-plaintext sequence is materialized
  /// up front (AES is deterministic), every trace draws its noise from
  /// rng.fork(trace_index), each block accumulates into a private CPA shard
  /// through a clone of the rig's sampling front-end, and shards merge in
  /// block order at checkpoint boundaries. The 1-thread path runs the exact
  /// same block schedule, so serial and parallel results agree byte for
  /// byte.
  CampaignResult run(util::Rng& rng, bool stop_when_broken = true);

  /// Continues a campaign from the checkpoint in config.checkpoint_dir.
  /// The rig, AES core and configuration must be rebuilt exactly as for
  /// the original run() (the checkpoint stores the config fields that
  /// shape results and rejects mismatches); config.threads may differ —
  /// like run(), the outcome never depends on it. A campaign killed at
  /// any point and resumed this way produces a CampaignResult
  /// byte-identical to an uninterrupted run's. Throws CheckpointError on
  /// a missing, corrupt, or incompatible checkpoint.
  CampaignResult resume(bool stop_when_broken = true);

  /// True when `dir` holds the campaign checkpoint file written by run()
  /// for `campaign_id` (see CampaignConfig::campaign_id; "" checks
  /// "campaign.ckpt"). Throws CheckpointError when the filesystem
  /// cannot answer (EACCES, ELOOP, I/O error, ...) — "no checkpoint yet"
  /// and "cannot tell" are different answers, and conflating them silently
  /// restarts campaigns from trace 0. A stray uncommitted "<name>.tmp" next
  /// to a missing checkpoint is removed (it is crash garbage by definition:
  /// a committed checkpoint is always the renamed file).
  static bool checkpoint_exists(const std::string& dir,
                                const std::string& campaign_id);

  // ---------------------------------------------------------------------
  // Resumable-task interface. run(), resume() and record() drive exactly
  // this API: a Task is the state between two checkpoint boundaries (or
  // two record waves), a StepPlan is one step expanded into independently
  // runnable trace blocks. The campaign service schedules thousands of
  // Tasks over one shared thread pool at block granularity; because every
  // block draws from per-trace RNG forks and finish_step folds blocks in
  // block order, the final CampaignResult (or trace file) is byte-identical
  // to the standalone call's no matter which threads ran which blocks, how
  // steps interleaved, or how often the task was suspended and rehydrated.
  // ---------------------------------------------------------------------

  /// Opaque mid-campaign state (move-only). Produced by start(),
  /// start_recording() or load_task(), advanced by plan_step/run_block/
  /// finish_step, persisted by suspend(), consumed by take_result().
  class Task {
   public:
    Task(Task&&) noexcept;
    Task& operator=(Task&&) noexcept;
    ~Task();

    /// Traces accumulated (or recorded) so far, at step granularity.
    std::size_t traces_done() const;

   private:
    friend class TraceCampaign;
    explicit Task(std::unique_ptr<RunState> state);
    explicit Task(std::unique_ptr<Recording> recording);
    std::unique_ptr<RunState> state_;       ///< attack tasks
    std::unique_ptr<Recording> recording_;  ///< recording tasks
  };

  /// One planned checkpoint-boundary step (or record wave): the
  /// materialized plaintext slice plus one CPA shard (or trace batch) per
  /// trace block. Blocks are independent — any thread may execute any
  /// subset concurrently via run_block() — and their results fold back into
  /// the Task in block order: CPA shards as soon as every earlier block
  /// has folded, trace batches at finish_step().
  class StepPlan {
   public:
    StepPlan(StepPlan&&) noexcept;
    StepPlan& operator=(StepPlan&&) noexcept;
    ~StepPlan();

    /// Independently runnable blocks; 0 means the campaign has no work
    /// left (finished, or stopped after a stable break).
    std::size_t block_count() const;
    bool empty() const { return block_count() == 0; }

   private:
    friend class TraceCampaign;
    struct Impl;
    StepPlan();
    explicit StepPlan(std::unique_ptr<Impl> impl);
    std::unique_ptr<Impl> impl_;
  };

  /// Fresh mid-campaign state, mirroring run()'s preamble: draws the
  /// initial plaintext and snapshots `rng` as the per-trace fork parent.
  Task start(util::Rng& rng) const;

  /// A recording task: `n` chained-plaintext traces of the start_record(rng)
  /// stream, one wave of record_wave_traces(pool_size) per step (blocks
  /// via record_block), appended to `writer` in trace order by finish_step.
  /// `writer` must outlive the task; its footer stays with the caller. It
  /// cannot be suspended, and take_result returns an empty CampaignResult
  /// without writing a checkpoint.
  Task start_recording(util::Rng& rng, std::size_t n,
                       sim::TraceStoreWriter& writer,
                       std::size_t pool_size) const;

  /// Rehydrates a Task from the durable checkpoint in
  /// config.checkpoint_dir (keyed on config.campaign_id). The campaign
  /// must be rebuilt exactly as for the original run — same contract as
  /// resume(). Throws CheckpointError on a missing, corrupt, or
  /// incompatible checkpoint. A task loaded from a completed checkpoint
  /// plans no step, and take_result() returns the stored result.
  Task load_task() const;

  /// Plans the next boundary step (a recording's next wave). Empty when
  /// the task is done. Mutates the task's plaintext cursor, so call it from
  /// one thread at a time per task (block execution is free to fan out).
  StepPlan plan_step(Task& task, bool stop_when_broken = true) const;

  /// Runs one block of a planned step into a private shard. Thread-safe
  /// across distinct `block` indices of the same plan; running a block a
  /// second time throws util::PreconditionError. An attack block's shard
  /// folds into the planning task as soon as every earlier block has
  /// folded, so the task is mid-step from the first run_block on: a plan
  /// abandoned part-way (a block threw, or the plan was dropped) leaves its
  /// task unusable, like the plaintext cursor plan_step already advanced —
  /// reload such a task from its checkpoint.
  void run_block(StepPlan& plan, std::size_t block) const;

  /// Completes a fully executed plan on the task it was planned on and
  /// performs the boundary bookkeeping: break checks, rank checkpoints,
  /// stop decision. Throws util::PreconditionError for a plan of another
  /// task or step, or one with a block not yet run. Returns true while
  /// more steps remain.
  bool finish_step(Task& task, StepPlan&& plan) const;

  /// Durably persists the task as this campaign's checkpoint — the
  /// suspension record the service's eviction path writes before dropping
  /// a resident campaign. Requires config.checkpoint_dir; throws
  /// util::PreconditionError for a recording task.
  void suspend(const Task& task) const;

  /// Finalizes the task into its CampaignResult (and, when checkpointing
  /// is configured, writes the final completed checkpoint, exactly like
  /// run()).
  CampaignResult take_result(Task&& task) const;

  /// Approximate peak heap bytes of one in-flight task: the durable CPA
  /// accumulator plus one transient per-block shard for the widest
  /// boundary step. Deliberately coarse — the service uses it as the
  /// admission unit of its memory budget, not as an allocator.
  std::size_t approx_task_bytes() const;

  /// The configuration this campaign was constructed with (the service's
  /// introspection reports max_traces and checkpointing from it).
  const CampaignConfig& config() const { return config_; }

  /// Generates one trace (all samples of one encryption) without feeding
  /// the CPA — used by TVLA callers, tests and the golden corpus. Runs the
  /// campaign's own batched path on a fresh clone of the rig's sampling
  /// front-end and on this campaign's AES core (so aes.ciphertext() reads
  /// the trace's ciphertext afterwards): generate_trace(p[i],
  /// trace_parent.fork(i + 1)) equals record_block's trace i bit for bit.
  std::vector<double> generate_trace(const crypto::Block& plaintext,
                                     util::Rng& rng);

  /// Records `n` full chained-plaintext traces straight into a v2 writer
  /// (trace order): start_recording() run by run()'s own step loop over
  /// config.threads. Memory stays O(threads x block) instead of O(n), the
  /// file is byte-identical for every thread count, and no checkpoint is
  /// written even when config.checkpoint_dir is set.
  void record(util::Rng& rng, std::size_t n,
              sim::TraceStoreWriter& writer) const;

  /// Traces per record wave on a pool of `pool_size` threads: 4 blocks of
  /// config.block_traces per thread. start_recording() sizes its steps
  /// with this, so record() and the service's record jobs share it.
  std::size_t record_wave_traces(std::size_t pool_size) const {
    return std::max<std::size_t>(pool_size, 1) * 4 * config_.block_traces;
  }

  /// Sensor samples per trace — the samples_per_trace a TraceStoreWriter
  /// consuming this campaign's traces must be built with.
  std::size_t trace_samples() const { return trace_samples_; }

  /// Cursor of a record stream: the per-trace fork parent and the
  /// chained-plaintext position. A recording task advances one of these
  /// wave by wave to stream v2 trace output with bounded memory.
  struct RecordCursor {
    util::Rng trace_parent;
    crypto::Block plaintext{};
    std::size_t produced = 0;  ///< plaintexts handed out so far
  };

  /// Starts a record stream: seeds the plaintext chain from `rng` and
  /// snapshots it as the fork parent. A recording task runs this same
  /// stream, so any caller of next_plaintexts()/record_block() that writes
  /// traces in order yields files byte-identical to record() for the same
  /// rng state.
  RecordCursor start_record(util::Rng& rng) const;

  /// Materializes the next `n` chained plaintexts of the stream.
  std::vector<crypto::Block> next_plaintexts(RecordCursor& cursor,
                                             std::size_t n) const;

  /// Generates the traces of `plaintexts` (global trace indices
  /// [first_trace, first_trace + size), 0-based) under record()'s fork
  /// discipline: trace i draws from trace_parent.fork(i + 1). Thread-safe
  /// across blocks — a recording task's run_block is this call.
  std::vector<sim::StoredTrace> record_block(
      const util::Rng& trace_parent, std::size_t first_trace,
      std::span<const crypto::Block> plaintexts) const;

 private:
  /// Mid-campaign state: everything the driver needs to continue from a
  /// checkpoint boundary. Serialized verbatim into the checkpoint file.
  struct RunState {
    explicit RunState(std::size_t poi) : cpa(poi) {}
    CpaAttack cpa;
    crypto::Block plaintext{};   ///< chained-plaintext cursor
    util::Rng trace_parent;      ///< per-trace fork parent (snapshot)
    double poi_sum = 0.0;
    std::size_t consecutive_ok = 0;
    std::size_t t = 0;           ///< traces completed
    bool completed = false;      ///< take_result() finalized the state
    /// Stop-after-stable-break latched at a rank boundary. Transient (not
    /// serialized): a resume re-derives it at its next rank boundary.
    bool stopped = false;
    CampaignResult result;
  };

  /// A recording task's state: the record stream and its sink.
  struct Recording {
    RecordCursor cursor;
    sim::TraceStoreWriter* writer = nullptr;
    std::size_t total = 0;    ///< traces to record
    std::size_t wave = 0;     ///< traces per step
    std::size_t written = 0;  ///< traces appended to the writer
  };

  void write_checkpoint(const RunState& state) const;
  RunState load_checkpoint() const;

  /// The one campaign loop behind run(), resume() and record():
  /// plan_step -> run_block over `pool` -> finish_step -> suspend when
  /// checkpointing an attack, until the task is done; then take_result.
  CampaignResult drive(util::ThreadPool& pool, Task task,
                       bool stop_when_broken) const;

  double interference_droop(double t_ns, util::Rng& rng,
                            std::vector<pdn::CurrentInjection>& scratch) const;

  /// The per-block generation loop behind process_block and record_block:
  /// clones the rig's sampler and the AES core, then takes the block in
  /// groups of up to VoltageSensor::kTraceGroup consecutive traces. Trace i
  /// of the block draws all its noise from trace_parent.fork(first_fork +
  /// i): supply_trace runs per trace, in order, and one sample_traces call
  /// then digitizes the whole group, each trace on its own stream. Hands
  /// (i, readouts, ciphertext) to `sink` in trace order. Counts the traces
  /// sampled and their RNG draws. Defined in campaign.cpp.
  template <class Sink>
  void generate_block(const util::Rng& trace_parent, std::size_t first_fork,
                      std::span<const crypto::Block> plaintexts,
                      Sink&& sink) const;

  /// Generates traces first_trace .. first_trace + plaintexts.size() - 1
  /// (1-based campaign numbering) into `cpa` and `poi_sum` using only
  /// thread-private state; trace t draws its noise from
  /// trace_parent.fork(t).
  void process_block(std::size_t first_trace,
                     std::span<const crypto::Block> plaintexts,
                     const util::Rng& trace_parent, CpaAttack& cpa,
                     double& poi_sum) const;

  /// Reusable per-worker SoA buffers of the batched trace path — one
  /// allocation per block instead of per trace, 64-byte aligned for the
  /// SIMD stages they flow through.
  struct TraceScratch {
    util::aligned_vector<double> droops;    ///< static droop per sample
    util::aligned_vector<double> supplies;  ///< a trace group's supplies
    std::vector<pdn::CurrentInjection> injections;  ///< interferer scratch
  };

  /// Stages 1-2 of one trace through thread-private state: one encryption
  /// -> victim droops -> supply voltages (batched PDN filter + ziggurat
  /// ambient noise), trace_samples_ of them into `supplies` (which must be
  /// that large). A masked core's round masks, then the interferer and
  /// ambient draws, come from `rng`. The sensor's sample_traces kernel
  /// digitizes the supplies afterwards, on the same `rng`. `gain` is the
  /// hoisted coupling().gain_at_node(aes.pdn_node()). Defined in
  /// campaign.cpp.
  void supply_trace(sim::SensorRig::Sampler& sampler,
                    victim::AesCoreModel& aes, const crypto::Block& plaintext,
                    double gain, util::Rng& rng, TraceScratch& scratch,
                    std::span<double> supplies) const;

  /// Materializes the chained-plaintext sequence p[i+1] = E(p[i]).
  std::vector<crypto::Block> plaintext_chain(crypto::Block& plaintext,
                                             std::size_t count) const;

  sim::SensorRig* rig_;
  victim::AesCoreModel* aes_;
  CampaignConfig config_;
  std::size_t spc_;
  std::size_t trace_samples_;
  std::size_t poi_begin_;
  std::size_t poi_count_;
  std::vector<Interferer> interferers_;
};

}  // namespace leakydsp::attack
