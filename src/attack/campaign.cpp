#include "attack/campaign.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <filesystem>
#include <memory>
#include <mutex>
#include <system_error>
#include <utility>

#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/progress.h"
#include "obs/span.h"
#include "util/byte_io.h"
#include "util/contracts.h"
#include "util/sealed_file.h"
#include "util/simd_ops.h"
#include "util/thread_pool.h"

namespace leakydsp::attack {

TraceCampaign::TraceCampaign(sim::SensorRig& rig, victim::AesCoreModel& aes,
                             CampaignConfig config)
    : rig_(&rig), aes_(&aes), config_(config) {
  // A single-trace campaign is a valid degenerate shape: it generates its
  // one trace and reports no break (the CPA needs two traces to
  // correlate, and every break/rank check already guards on t >= 2).
  LD_REQUIRE(config_.max_traces >= 1, "campaign needs traces");
  LD_REQUIRE(config_.break_check_stride >= 1, "bad break stride");
  LD_REQUIRE(config_.rank_stride >= 1, "bad rank stride");
  LD_REQUIRE(config_.block_traces >= 1, "bad block size");

  const double sensor_period = rig.params().sample_period_ns;
  const double victim_period = aes.clock_period_ns();
  spc_ = static_cast<std::size_t>(std::lround(victim_period / sensor_period));
  LD_REQUIRE(spc_ >= 1,
             "victim clock faster than the sensor sample clock (period "
                 << victim_period << " ns vs " << sensor_period << " ns)");

  // Trace covers the whole encryption plus two cycles of droop ringing.
  const std::size_t cycles = aes.cycles_per_encryption() + 2;
  trace_samples_ = cycles * spc_;

  // POI window: the victim cycle in which round 10 registers, plus one
  // cycle of ringing.
  const std::size_t round10_cycle = aes.params().load_cycles + 9;
  poi_begin_ = round10_cycle * spc_;
  poi_count_ = 2 * spc_;
  LD_ENSURE(poi_begin_ + poi_count_ <= trace_samples_, "POI outside trace");
}

void TraceCampaign::add_interferer(Interferer interferer) {
  LD_REQUIRE(interferer != nullptr, "null interferer");
  interferers_.push_back(std::move(interferer));
}

double TraceCampaign::interference_droop(
    double t_ns, util::Rng& rng,
    std::vector<pdn::CurrentInjection>& scratch) const {
  if (interferers_.empty()) return 0.0;
  scratch.clear();
  for (const auto& f : interferers_) f(t_ns, rng, scratch);
  return rig_->coupling().droop_for(scratch);
}

std::vector<double> TraceCampaign::generate_trace(
    const crypto::Block& plaintext, util::Rng& rng) {
  sim::SensorRig::Sampler sampler = rig_->make_sampler();
  TraceScratch scratch;
  scratch.supplies.resize(trace_samples_);
  std::vector<double> trace(trace_samples_);
  supply_trace(sampler, *aes_, plaintext,
               rig_->coupling().gain_at_node(aes_->pdn_node()), rng, scratch,
               scratch.supplies);
  {
    OBS_SPAN("sensor.sample");
    sampler.sensor().sample_traces(scratch.supplies, trace,
                                   std::span<util::Rng>(&rng, 1));
  }
  return trace;
}

void TraceCampaign::supply_trace(sim::SensorRig::Sampler& sampler,
                                 victim::AesCoreModel& aes,
                                 const crypto::Block& plaintext, double gain,
                                 util::Rng& rng, TraceScratch& scratch,
                                 std::span<double> supplies) const {
  LD_REQUIRE(supplies.size() >= trace_samples_,
             "supply buffer too small: " << supplies.size() << " < "
                                         << trace_samples_);
  sampler.settle();  // idle between encryptions, as on the board
  aes.start_encryption(plaintext, rng);  // a masked core's masks come first
  scratch.droops.resize(trace_samples_);

  // Stage 1 (SoA): static droop per sensor sample. The victim current is
  // constant within a cycle, so evaluate it once per cycle and broadcast
  // through the vectorized fill.
  for (std::size_t s = 0; s < trace_samples_; s += spc_) {
    const double d = gain * aes.current_at_cycle(s / spc_);
    const std::size_t hi = std::min(s + spc_, trace_samples_);
    util::simd::fill(scratch.droops.data() + s, hi - s, d);
  }
  if (!interferers_.empty()) {
    const double dt = rig_->params().sample_period_ns;
    for (std::size_t s = 0; s < trace_samples_; ++s) {
      scratch.droops[s] += interference_droop(static_cast<double>(s) * dt, rng,
                                              scratch.injections);
    }
  }

  // Stage 2: droop dynamics + ambient noise -> supply voltages.
  OBS_SPAN("pdn.supply_solve");
  sampler.supply_batch(scratch.droops, supplies, rng);
}

std::vector<crypto::Block> TraceCampaign::plaintext_chain(
    crypto::Block& plaintext, std::size_t count) const {
  std::vector<crypto::Block> chain(count);
  for (std::size_t i = 0; i < count; ++i) {
    chain[i] = plaintext;
    plaintext = aes_->cipher().encrypt(plaintext);
  }
  return chain;
}

template <class Sink>
void TraceCampaign::generate_block(const util::Rng& trace_parent,
                                   std::size_t first_fork,
                                   std::span<const crypto::Block> plaintexts,
                                   Sink&& sink) const {
  constexpr std::size_t kGroup = sensors::VoltageSensor::kTraceGroup;
  // The group buffers are allocated before the sampler clone: allocated
  // after it, they left a worker's malloc arena about twice as large
  // (2.3-2.9 vs 1.3 MB at the end of a 60k-trace campaign, malloc_stats).
  const std::size_t group_samples =
      std::min(kGroup, plaintexts.size()) * trace_samples_;
  std::vector<double> traces(group_samples);
  TraceScratch scratch;
  scratch.supplies.resize(group_samples);
  scratch.droops.resize(trace_samples_);
  sim::SensorRig::Sampler sampler = rig_->make_sampler();
  victim::AesCoreModel aes = *aes_;  // thread-private encryption state
  const double gain = rig_->coupling().gain_at_node(aes.pdn_node());
  std::vector<util::Rng> rngs;
  std::array<crypto::Block, kGroup> ciphertexts{};
#if defined(LEAKYDSP_OBS)
  std::uint64_t rng_draws = 0;
#endif
  for (std::size_t g0 = 0; g0 < plaintexts.size(); g0 += kGroup) {
    const std::size_t k = std::min(kGroup, plaintexts.size() - g0);
    // Stages 1-2 per trace, in order, each on its own fork(t) stream...
    rngs.clear();
    for (std::size_t g = 0; g < k; ++g) {
      rngs.push_back(trace_parent.fork(first_fork + g0 + g));
      supply_trace(sampler, aes, plaintexts[g0 + g], gain, rngs.back(),
                   scratch,
                   std::span<double>(scratch.supplies)
                       .subspan(g * trace_samples_, trace_samples_));
      ciphertexts[g] = aes.ciphertext();
    }
    // ...then stage 3 digitizes the group, still one stream per trace.
    {
      OBS_SPAN("sensor.sample");
      sampler.sensor().sample_traces(
          std::span<const double>(scratch.supplies).first(k * trace_samples_),
          traces, rngs);
    }
    for (std::size_t g = 0; g < k; ++g) {
#if defined(LEAKYDSP_OBS)
      rng_draws += rngs[g].draws();
#endif
      sink(g0 + g,
           std::span<const double>(traces).subspan(g * trace_samples_,
                                                   trace_samples_),
           ciphertexts[g]);
    }
  }
  OBS_COUNT("campaign.traces_sampled", plaintexts.size());
  OBS_COUNT("rng.draws", rng_draws);
}

void TraceCampaign::process_block(std::size_t first_trace,
                                  std::span<const crypto::Block> plaintexts,
                                  const util::Rng& trace_parent, CpaAttack& cpa,
                                  double& poi_sum) const {
  OBS_SCOPED_HISTO_MS("campaign.block_ms", ({1, 5, 10, 50, 100, 500, 1000}));
  const std::size_t n = plaintexts.size();
  std::vector<crypto::Block> ciphertexts(n);
  util::aligned_vector<double> poi_rows(n * poi_count_);
  generate_block(trace_parent, first_trace, plaintexts,
                 [&](std::size_t i, std::span<const double> trace,
                     const crypto::Block& ciphertext) {
                   double* poi = poi_rows.data() + i * poi_count_;
                   for (std::size_t k = 0; k < poi_count_; ++k) {
                     poi[k] = trace[poi_begin_ + k];
                     poi_sum += poi[k];
                   }
                   ciphertexts[i] = ciphertext;
                 });
  {
    OBS_SPAN("cpa.accumulate");
    cpa.add_traces(ciphertexts, poi_rows);
  }
  OBS_PROGRESS_TICK();
}

// ------------------------------------------------------------- recording

TraceCampaign::RecordCursor TraceCampaign::start_record(util::Rng& rng) const {
  RecordCursor cursor;
  for (auto& b : cursor.plaintext) {
    b = static_cast<std::uint8_t>(rng() & 0xff);
  }
  cursor.trace_parent = rng;
  return cursor;
}

std::vector<crypto::Block> TraceCampaign::next_plaintexts(
    RecordCursor& cursor, std::size_t n) const {
  std::vector<crypto::Block> chain = plaintext_chain(cursor.plaintext, n);
  cursor.produced += n;
  return chain;
}

std::vector<sim::StoredTrace> TraceCampaign::record_block(
    const util::Rng& trace_parent, std::size_t first_trace,
    std::span<const crypto::Block> plaintexts) const {
  std::vector<sim::StoredTrace> out;
  out.reserve(plaintexts.size());
  generate_block(trace_parent, first_trace + 1, plaintexts,
                 [&](std::size_t, std::span<const double> trace,
                     const crypto::Block& ciphertext) {
                   out.push_back(
                       {ciphertext, std::vector<double>(trace.begin(),
                                                        trace.end())});
                 });
  OBS_PROGRESS_TICK();
  return out;
}

// ----------------------------------------------------------- checkpoints

namespace {

constexpr util::SealedFormat kCheckpointFormat{{'L', 'D', 'C', 'K'}, 1};

/// File-name-safe form of a campaign id: [A-Za-z0-9._-] passes through,
/// everything else (separators included — ids must never name directories)
/// becomes '_'.
std::string sanitize_id(const std::string& id) {
  std::string out = id;
  for (char& c : out) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '.' || c == '_' || c == '-';
    if (!ok) c = '_';
  }
  return out;
}

/// Checkpoint file for `id` inside `dir`: "campaign-<id>.ckpt", which is
/// what lets many campaigns share one checkpoint directory, or
/// "campaign.ckpt" for a campaign without an id.
std::string checkpoint_path(const std::string& dir, const std::string& id) {
  if (id.empty()) return dir + "/campaign.ckpt";
  return dir + "/campaign-" + sanitize_id(id) + ".ckpt";
}

[[noreturn]] void checkpoint_fail(const std::string& path,
                                  const std::string& what) {
  OBS_LOG(obs::LogLevel::kError, "campaign", "checkpoint load failed",
          obs::f("path", path), obs::f("reason", what));
  throw CheckpointError("campaign checkpoint '" + path + "': " + what);
}

/// Failure of a checkpoint filesystem operation: logs the errno alongside
/// the path and throws the typed error with the decoded message, so EACCES
/// can never masquerade as "no checkpoint yet".
[[noreturn]] void checkpoint_io_fail(const util::SealedFileError& e) {
  OBS_LOG(obs::LogLevel::kError, "campaign", "checkpoint io failed",
          obs::f("path", e.path()), obs::f("reason", e.reason()),
          obs::f("errno", e.error_number()));
  throw CheckpointError(std::string("campaign checkpoint ") + e.what());
}

/// One worker's CPA sums inside a step plan: every block it ran, added in
/// the order it ran them.
struct Accumulator {
  CpaAttack cpa;
  double poi_sum = 0.0;
  explicit Accumulator(std::size_t poi) : cpa(poi) {}
};

/// Smallest multiple of `stride` strictly greater than `t`.
std::size_t next_multiple(std::size_t t, std::size_t stride) {
  return (t / stride + 1) * stride;
}

}  // namespace

bool TraceCampaign::checkpoint_exists(const std::string& dir,
                                      const std::string& campaign_id) {
  const std::string path = checkpoint_path(dir, campaign_id);
  std::error_code ec;
  const std::filesystem::file_status st = std::filesystem::status(path, ec);
  // status() reports "nothing there" (ENOENT/ENOTDIR along the path) as
  // file_type::not_found; an indeterminate status (file_type::none with ec
  // set — EACCES, ELOOP, EIO, ...) is a failure to answer and must
  // surface, because callers branch to restart-from-scratch on `false`.
  if (st.type() == std::filesystem::file_type::none && ec) {
    checkpoint_io_fail(util::SealedFileError(path, "cannot stat", ec.value()));
  }
  if (st.type() == std::filesystem::file_type::not_found) {
    // No committed checkpoint. A stray sibling .tmp is crash garbage (the
    // commit point is the rename), so reap it instead of leaking it.
    const std::string tmp = path + ".tmp";
    std::error_code tmp_ec;
    if (std::filesystem::remove(tmp, tmp_ec)) {
      OBS_LOG(obs::LogLevel::kWarn, "campaign",
              "removed stray uncommitted checkpoint tmp", obs::f("path", tmp));
    }
    return false;
  }
  return std::filesystem::is_regular_file(st);
}

void TraceCampaign::write_checkpoint(const RunState& state) const {
  OBS_SPAN("campaign.checkpoint");
  util::ByteWriter payload;
  // Config fields that shape results: resume() refuses a checkpoint whose
  // campaign was configured differently (threads excluded by design — the
  // determinism contract makes it irrelevant).
  payload.u32(static_cast<std::uint32_t>(poi_count_));
  payload.u64(config_.block_traces);
  payload.u64(config_.break_check_stride);
  payload.u64(config_.rank_stride);
  payload.u64(config_.stable_breaks);
  payload.u64(config_.max_traces);
  // Loop state.
  payload.u8(state.completed ? 1 : 0);
  payload.u64(state.t);
  payload.f64(state.poi_sum);
  payload.u64(state.consecutive_ok);
  payload.bytes(state.plaintext);
  for (const std::uint64_t w : state.trace_parent.serialize()) payload.u64(w);
  // Result so far.
  payload.u8(state.result.broken ? 1 : 0);
  payload.u64(state.result.traces_to_break);
  payload.u64(state.result.traces_run);
  payload.f64(state.result.mean_poi_readout);
  payload.u64(state.result.checkpoints.size());
  for (const Checkpoint& cp : state.result.checkpoints) {
    payload.u64(cp.traces);
    payload.f64(cp.rank.log2_lower);
    payload.f64(cp.rank.log2_upper);
    payload.u32(static_cast<std::uint32_t>(cp.correct_bytes));
    payload.u8(cp.full_key ? 1 : 0);
  }
  // CPA accumulators.
  state.cpa.serialize(payload);

  const std::string path =
      checkpoint_path(config_.checkpoint_dir, config_.campaign_id);
  try {
    util::write_sealed(path, kCheckpointFormat, payload.span());
  } catch (const util::SealedFileError& e) {
    checkpoint_io_fail(e);
  }
  [[maybe_unused]] const std::size_t file_bytes =
      payload.size() + util::kSealedFrameBytes;
  OBS_COUNT("campaign.checkpoint.writes", 1);
  OBS_COUNT("campaign.checkpoint.bytes", file_bytes);
  OBS_GAUGE_SET("campaign.checkpoint.traces", state.t);
  OBS_LOG(obs::LogLevel::kDebug, "campaign", "checkpoint written",
          obs::f("path", path), obs::f("traces", state.t),
          obs::f("bytes", file_bytes),
          obs::f("completed", state.completed));
}

TraceCampaign::RunState TraceCampaign::load_checkpoint() const {
  const std::string path =
      checkpoint_path(config_.checkpoint_dir, config_.campaign_id);
  std::vector<std::uint8_t> payload;
  try {
    payload = util::read_sealed(path, kCheckpointFormat);
  } catch (const util::SealedFileError& e) {
    if (e.error_number() != 0) checkpoint_io_fail(e);
    checkpoint_fail(path, e.reason());
  }

  try {
    util::ByteReader in(payload);
    const std::uint32_t poi = in.u32();
    const std::uint64_t block_traces = in.u64();
    const std::uint64_t break_stride = in.u64();
    const std::uint64_t rank_stride = in.u64();
    const std::uint64_t stable_breaks = in.u64();
    const std::uint64_t max_traces = in.u64();
    if (poi != poi_count_ || block_traces != config_.block_traces ||
        break_stride != config_.break_check_stride ||
        rank_stride != config_.rank_stride ||
        stable_breaks != config_.stable_breaks ||
        max_traces != config_.max_traces) {
      checkpoint_fail(path,
                      "was written by a differently configured campaign");
    }
    RunState state(poi_count_);
    state.completed = in.u8() != 0;
    state.t = static_cast<std::size_t>(in.u64());
    state.poi_sum = in.f64();
    state.consecutive_ok = static_cast<std::size_t>(in.u64());
    in.bytes(state.plaintext);
    std::array<std::uint64_t, 6> rng_words{};
    for (auto& w : rng_words) w = in.u64();
    state.trace_parent = util::Rng::deserialize(rng_words);
    state.result.broken = in.u8() != 0;
    state.result.traces_to_break = static_cast<std::size_t>(in.u64());
    state.result.traces_run = static_cast<std::size_t>(in.u64());
    state.result.mean_poi_readout = in.f64();
    const std::uint64_t n_checkpoints = in.u64();
    // Each serialized checkpoint occupies 29 bytes; bound the vector by
    // what the buffer can actually hold before reserving.
    if (n_checkpoints > in.remaining() / 29) {
      checkpoint_fail(path, "checkpoint list longer than the payload");
    }
    state.result.checkpoints.reserve(n_checkpoints);
    for (std::uint64_t i = 0; i < n_checkpoints; ++i) {
      Checkpoint cp;
      cp.traces = static_cast<std::size_t>(in.u64());
      cp.rank.log2_lower = in.f64();
      cp.rank.log2_upper = in.f64();
      cp.correct_bytes = static_cast<int>(in.u32());
      cp.full_key = in.u8() != 0;
      state.result.checkpoints.push_back(cp);
    }
    state.cpa = CpaAttack::deserialize(in);
    if (!in.exhausted()) {
      checkpoint_fail(path, "trailing bytes after the CPA state");
    }
    if (state.cpa.poi_count() != poi_count_ ||
        state.cpa.trace_count() != state.t ||
        state.result.traces_run != state.t) {
      checkpoint_fail(path, "internal state inconsistent");
    }
    return state;
  } catch (const CheckpointError&) {
    throw;
  } catch (const util::PreconditionError& e) {
    checkpoint_fail(path, e.what());
  }
}

// ---------------------------------------------------- resumable-task core

/// One planned boundary step (or record wave): the materialized plaintext
/// slice, the task's plaintext cursor as the step leaves it, and the
/// blocks' results — a pool of accumulators for an attack, each block's
/// traces for a recording. run_block() fills them independently; nothing
/// reaches the planning task before finish_step commits the cursor and
/// the results, so a plan that is dropped, or whose block threw, leaves
/// its task as it was.
struct TraceCampaign::StepPlan::Impl {
  std::size_t base_t = 0;       ///< traces done when the step was planned
  std::size_t next = 0;         ///< traces done after the step completes
  std::size_t count = 0;        ///< traces in this step (next - base_t)
  std::size_t block = 0;        ///< config.block_traces at planning time
  bool stop_when_broken = true;
  const RunState* state = nullptr;       ///< attack task planned on
  const Recording* recording = nullptr;  ///< recording task planned on
  util::Rng trace_parent;       ///< per-trace fork parent (snapshot)
  crypto::Block plaintext{};    ///< plaintext cursor after the step
  std::vector<crypto::Block> plaintexts;
  std::vector<std::vector<sim::StoredTrace>> records;

  std::mutex mutex;  ///< guards the members below
  std::vector<bool> started;  ///< run_block has claimed the block
  std::size_t finished = 0;   ///< blocks whose run_block returned
  /// Accumulators not running a block: at most one per block that ran at
  /// once. Every sum is an exact integer (readouts are counts), so
  /// finish_step may merge them in any order.
  std::vector<std::unique_ptr<Accumulator>> idle;
};

TraceCampaign::StepPlan::StepPlan() = default;
TraceCampaign::StepPlan::StepPlan(std::unique_ptr<Impl> impl)
    : impl_(std::move(impl)) {}
TraceCampaign::StepPlan::StepPlan(StepPlan&&) noexcept = default;
TraceCampaign::StepPlan& TraceCampaign::StepPlan::operator=(
    StepPlan&&) noexcept = default;
TraceCampaign::StepPlan::~StepPlan() = default;

std::size_t TraceCampaign::StepPlan::block_count() const {
  return impl_ ? (impl_->count + impl_->block - 1) / impl_->block : 0;
}

TraceCampaign::Task::Task(std::unique_ptr<RunState> state)
    : state_(std::move(state)) {}
TraceCampaign::Task::Task(std::unique_ptr<Recording> recording)
    : recording_(std::move(recording)) {}
TraceCampaign::Task::Task(Task&&) noexcept = default;
TraceCampaign::Task& TraceCampaign::Task::operator=(Task&&) noexcept = default;
TraceCampaign::Task::~Task() = default;

std::size_t TraceCampaign::Task::traces_done() const {
  if (recording_) return recording_->cursor.produced;
  return state_ ? state_->t : 0;
}

TraceCampaign::Task TraceCampaign::start(util::Rng& rng) const {
  auto state = std::make_unique<RunState>(poi_count_);
  for (auto& b : state->plaintext) b = static_cast<std::uint8_t>(rng() & 0xff);
  // Every trace t forks its own noise stream from this snapshot, so the
  // readouts depend only on the seed and t — never on which worker ran it.
  state->trace_parent = rng;
  return Task(std::move(state));
}

TraceCampaign::Task TraceCampaign::start_recording(
    util::Rng& rng, std::size_t n, sim::TraceStoreWriter& writer,
    std::size_t pool_size) const {
  LD_REQUIRE(n >= 1, "need at least one trace");
  LD_REQUIRE(writer.samples_per_trace() == trace_samples_,
             "writer expects " << writer.samples_per_trace()
                               << " samples per trace, campaign produces "
                               << trace_samples_);
  auto recording = std::make_unique<Recording>();
  recording->cursor = start_record(rng);
  recording->writer = &writer;
  recording->total = n;
  recording->wave = record_wave_traces(pool_size);
  return Task(std::move(recording));
}

TraceCampaign::Task TraceCampaign::load_task() const {
  LD_REQUIRE(!config_.checkpoint_dir.empty(),
             "load_task() requires config.checkpoint_dir");
  auto state = std::make_unique<RunState>(load_checkpoint());
  OBS_LOG(obs::LogLevel::kInfo, "campaign", "rehydrated task from checkpoint",
          obs::f("dir", config_.checkpoint_dir),
          obs::f("campaign", config_.campaign_id), obs::f("traces", state->t),
          obs::f("completed", state->completed));
  return Task(std::move(state));
}

TraceCampaign::StepPlan TraceCampaign::plan_step(const Task& task,
                                                 bool stop_when_broken) const {
  auto impl = std::make_unique<StepPlan::Impl>();
  impl->block = config_.block_traces;
  impl->stop_when_broken = stop_when_broken;
  if (task.recording_) {
    // One wave of the record stream: only one wave of plaintexts and
    // traces is ever resident, whatever the recording's length.
    const Recording& rec = *task.recording_;
    if (rec.cursor.produced >= rec.total) return StepPlan();
    RecordCursor cursor = rec.cursor;
    impl->recording = &rec;
    impl->base_t = cursor.produced;
    impl->count = std::min(rec.wave, rec.total - impl->base_t);
    impl->trace_parent = cursor.trace_parent;
    impl->plaintexts = next_plaintexts(cursor, impl->count);
    impl->plaintext = cursor.plaintext;
  } else {
    LD_REQUIRE(task.state_ != nullptr, "plan_step on an empty task");
    const RunState& state = *task.state_;
    if (state.completed || state.stopped || state.t >= config_.max_traces) {
      return StepPlan();
    }
    // Advance to the next checkpoint boundary: break checks while the key
    // is still unbroken, rank checkpoints always.
    std::size_t next = config_.max_traces;
    if (!state.result.broken) {
      next = std::min(next, next_multiple(state.t, config_.break_check_stride));
    }
    next = std::min(next, next_multiple(state.t, config_.rank_stride));
    impl->state = &state;
    impl->base_t = state.t;
    impl->count = next - state.t;
    impl->trace_parent = state.trace_parent;
    // The paper chains plaintexts (p[t+1] = ciphertext of trace t); the
    // chain is pure AES, so materialize it before any PDN work and hand
    // each worker block its slice. The chain advances the plan's copy of
    // the cursor; finish_step commits it.
    impl->plaintext = state.plaintext;
    impl->plaintexts = plaintext_chain(impl->plaintext, impl->count);
  }
  impl->next = impl->base_t + impl->count;
  const std::size_t blocks = (impl->count + impl->block - 1) / impl->block;
  impl->started.resize(blocks);
  if (impl->recording) impl->records.resize(blocks);
  return StepPlan(std::move(impl));
}

void TraceCampaign::run_block(StepPlan& plan, std::size_t block) const {
  LD_REQUIRE(plan.impl_ != nullptr, "run_block on an empty plan");
  StepPlan::Impl& impl = *plan.impl_;
  LD_REQUIRE(block < plan.block_count(),
             "block " << block << " out of range (" << plan.block_count()
                      << " blocks)");
  std::unique_ptr<Accumulator> accumulator;
  {
    std::lock_guard<std::mutex> lock(impl.mutex);
    LD_REQUIRE(!impl.started[block], "block " << block << " already ran");
    impl.started[block] = true;
    if (!impl.idle.empty()) {
      accumulator = std::move(impl.idle.back());
      impl.idle.pop_back();
    }
  }
  const std::size_t lo = block * impl.block;
  const std::size_t hi = std::min(lo + impl.block, impl.count);
  const std::span<const crypto::Block> plaintexts{impl.plaintexts.data() + lo,
                                                  hi - lo};
  if (impl.recording) {
    impl.records[block] =
        record_block(impl.trace_parent, impl.base_t + lo, plaintexts);
  } else {
    // Added with no lock held. A block that throws takes its accumulator,
    // and the blocks it held, down with it: the plan can then never finish.
    if (!accumulator) accumulator = std::make_unique<Accumulator>(poi_count_);
    process_block(impl.base_t + lo + 1, plaintexts, impl.trace_parent,
                  accumulator->cpa, accumulator->poi_sum);
  }
  std::lock_guard<std::mutex> lock(impl.mutex);
  if (accumulator) impl.idle.push_back(std::move(accumulator));
  ++impl.finished;
}

bool TraceCampaign::finish_step(Task& task, StepPlan&& step) const {
  LD_REQUIRE(task.state_ != nullptr || task.recording_ != nullptr,
             "finish_step on an empty task");
  LD_REQUIRE(step.impl_ != nullptr, "finish_step on an empty plan");
  const StepPlan consumed = std::move(step);
  StepPlan::Impl& plan = *consumed.impl_;
  LD_REQUIRE(plan.state == task.state_.get() &&
                 plan.recording == task.recording_.get(),
             "finish_step on a plan of another task");
  LD_REQUIRE(plan.base_t == task.traces_done(),
             "finish_step on a plan of another step: plan at trace "
                 << plan.base_t << ", task at " << task.traces_done());
  {
    std::lock_guard<std::mutex> lock(plan.mutex);
    LD_REQUIRE(plan.finished == plan.started.size(),
               "finish_step before every block ran");
  }
  if (task.recording_) {
    // Append the wave in trace order: the file depends only on the seed,
    // never on the wave size or on which threads filled the blocks.
    Recording& rec = *task.recording_;
    for (const auto& traces : plan.records) {
      for (const auto& t : traces) rec.writer->add(t.ciphertext, t.samples);
    }
    rec.cursor.plaintext = plan.plaintext;
    rec.cursor.produced = plan.next;
    return rec.cursor.produced < rec.total;
  }
  RunState& state = *task.state_;
  for (const auto& accumulator : plan.idle) {
    state.cpa.merge(accumulator->cpa);
    state.poi_sum += accumulator->poi_sum;
  }
  state.plaintext = plan.plaintext;
  state.t = plan.next;
  state.result.traces_run = state.t;

  const crypto::Key true_key = aes_->cipher().round_keys()[0];
  const crypto::RoundKey true_rk10 = aes_->cipher().round_keys()[10];

  const bool break_due = !state.result.broken &&
                         state.t % config_.break_check_stride == 0 &&
                         state.t >= 2;
  const bool rank_due = state.t % config_.rank_stride == 0 && state.t >= 2;
  if (!break_due && !rank_due) return state.t < config_.max_traces;

  // One correlation snapshot serves both checks: the recovered round key
  // is its per-byte best guesses, exactly what recovered_round_key() and
  // recovered_master_key() would each recompute from a fresh snapshot.
  const auto scores = state.cpa.snapshot();
  crypto::RoundKey recovered{};
  for (std::size_t b = 0; b < 16; ++b) recovered[b] = scores[b].best_guess;
  const bool full_key =
      crypto::Aes128::invert_key_schedule(recovered) == true_key;

  if (break_due) {
    if (full_key) {
      if (state.consecutive_ok == 0) {
        state.result.traces_to_break = state.t;  // first stable stride
      }
      ++state.consecutive_ok;
    } else {
      state.consecutive_ok = 0;
      state.result.traces_to_break = 0;
    }
    if (state.consecutive_ok >= config_.stable_breaks) {
      state.result.broken = true;
    }
  }

  bool stop = false;
  if (rank_due) {
    Checkpoint cp;
    cp.traces = state.t;
    cp.rank = estimate_key_rank(scores, true_rk10, config_.rank_params);
    for (std::size_t b = 0; b < 16; ++b) {
      if (recovered[b] == true_rk10[b]) ++cp.correct_bytes;
    }
    cp.full_key = full_key;
    state.result.checkpoints.push_back(cp);
    stop = plan.stop_when_broken && state.result.broken;
  }
  if (stop) state.stopped = true;
  return !stop && state.t < config_.max_traces;
}

void TraceCampaign::suspend(const Task& task) const {
  LD_REQUIRE(task.recording_ == nullptr,
             "a recording task cannot be suspended (its trace file only "
             "commits at the footer)");
  LD_REQUIRE(task.state_ != nullptr, "suspend on an empty task");
  LD_REQUIRE(!config_.checkpoint_dir.empty(),
             "suspend() requires config.checkpoint_dir");
  write_checkpoint(*task.state_);
}

CampaignResult TraceCampaign::take_result(Task&& task) const {
  Task consumed = std::move(task);
  if (consumed.recording_) return {};  // the traces went to the writer
  LD_REQUIRE(consumed.state_ != nullptr, "take_result on an empty task");
  RunState& state = *consumed.state_;
  if (!state.completed) {
    state.result.mean_poi_readout =
        state.poi_sum / (static_cast<double>(state.result.traces_run) *
                         static_cast<double>(poi_count_));
    state.completed = true;
    if (!config_.checkpoint_dir.empty()) write_checkpoint(state);
  }
  // The scores are recomputed from the (bit-identically restored)
  // accumulator on every path — the serialized result never carries them —
  // so run, resume and service outcomes agree byte for byte.
  if (config_.keep_final_scores) {
    for (const auto& byte_scores : state.cpa.snapshot()) {
      state.result.final_scores.insert(state.result.final_scores.end(),
                                       byte_scores.score.begin(),
                                       byte_scores.score.end());
    }
  }
  return std::move(state.result);
}

std::size_t TraceCampaign::approx_task_bytes() const {
  // Durable part: the merged CPA accumulator inside the RunState.
  const std::size_t durable = CpaAttack::approx_accumulator_bytes(poi_count_);
  // Transient part while a step is in flight: the widest boundary step is
  // bounded by rank_stride (a rank boundary always terminates a step). Its
  // plan holds one accumulator per block running at once, each with its
  // block's working buffers (the POI panel, one trace, the SoA scratch).
  // Charging every block of the widest step is a ceiling reached only when
  // every block runs at once, kept so the service's admission does not move.
  const std::size_t widest = std::min(config_.max_traces, config_.rank_stride);
  const std::size_t blocks =
      (widest + config_.block_traces - 1) / config_.block_traces;
  const std::size_t per_block =
      CpaAttack::approx_accumulator_bytes(poi_count_) +
      config_.block_traces *
          (sizeof(crypto::Block) + poi_count_ * sizeof(double)) +
      4 * trace_samples_ * sizeof(double);
  return durable + widest * sizeof(crypto::Block) + blocks * per_block;
}

// --------------------------------------------------------------- running

CampaignResult TraceCampaign::run(util::Rng& rng, bool stop_when_broken) {
  util::ThreadPool pool(config_.threads);
  return drive(pool, start(rng), stop_when_broken);
}

CampaignResult TraceCampaign::resume(bool stop_when_broken) {
  LD_REQUIRE(!config_.checkpoint_dir.empty(),
             "resume() requires config.checkpoint_dir");
  util::ThreadPool pool(config_.threads);
  return drive(pool, load_task(), stop_when_broken);
}

void TraceCampaign::record(util::Rng& rng, std::size_t n,
                           sim::TraceStoreWriter& writer) const {
  util::ThreadPool pool(config_.threads);
  drive(pool, start_recording(rng, n, writer, pool.size()),
        /*stop_when_broken=*/false);
}

CampaignResult TraceCampaign::drive(util::ThreadPool& pool, Task task,
                                    bool stop_when_broken) const {
  // A recording is never suspended: its file only commits at the footer.
  const bool checkpointing =
      !config_.checkpoint_dir.empty() && task.recording_ == nullptr;
  OBS_LOG(obs::LogLevel::kInfo, "campaign", "run loop started",
          obs::f("from_trace", task.traces_done()),
          obs::f("max_traces", config_.max_traces),
          obs::f("block_traces", config_.block_traces),
          obs::f("threads", pool.size()),
          obs::f("checkpointing", checkpointing));

  for (;;) {
    StepPlan plan = plan_step(task, stop_when_broken);
    if (plan.empty()) break;
    pool.parallel_for(plan.block_count(),
                      [&](std::size_t blk) { run_block(plan, blk); });
    const bool more = finish_step(task, std::move(plan));
    // Durable progress: everything needed to continue from this boundary,
    // replacing the previous checkpoint atomically. A kill at ANY moment
    // loses at most the traces since the last boundary, and the resumed
    // run re-derives them bit-identically from the forked RNG streams.
    if (checkpointing) suspend(task);
    OBS_PROGRESS_TICK();
    if (!more) break;
  }

  CampaignResult result = take_result(std::move(task));
  OBS_LOG(obs::LogLevel::kInfo, "campaign", "run loop finished",
          obs::f("traces_run", result.traces_run),
          obs::f("broken", result.broken),
          obs::f("traces_to_break", result.traces_to_break));
  return result;
}

}  // namespace leakydsp::attack
