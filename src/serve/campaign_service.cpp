#include "serve/campaign_service.h"

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <exception>
#include <filesystem>
#include <mutex>
#include <sstream>

#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "sim/trace_store.h"
#include "util/contracts.h"
#include "util/json.h"
#include "util/thread_pool.h"

namespace leakydsp::serve {

namespace {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// One schedulable unit: a block index of some resident campaign's current
/// plan (attack step or record wave). The pointer stays valid until the
/// plan's last block completes — residents are only released from
/// complete_step, which runs after the final block.
struct Resident;
struct BlockItem {
  Resident* resident = nullptr;
  std::size_t block = 0;
};

/// A hydrated campaign: its rebuilt world plus the in-flight step state.
struct Resident {
  std::size_t job_index = 0;
  std::unique_ptr<CampaignWorld> world;
  std::unique_ptr<sim::TraceStoreWriter> writer;  ///< record jobs' sink
  std::optional<attack::TraceCampaign::Task> task;
  std::optional<attack::TraceCampaign::StepPlan> plan;
  std::atomic<std::size_t> blocks_left{0};
  std::atomic<std::uint64_t> worker_mask{0};
  std::size_t steps_this_turn = 0;
  std::size_t last_step_seq = 0;  ///< global step seq of this campaign's
                                  ///< previous completion (0 = none yet)
  std::size_t task_bytes = 0;     ///< admission charge against the budget
};

/// A job's queue entry: the spec plus whether a durable checkpoint already
/// holds its progress (set on eviction; rehydration loads instead of
/// starting fresh).
struct QueuedJob {
  CampaignJob job;
  bool has_checkpoint = false;
};

}  // namespace

struct CampaignService::Impl {
  ServiceConfig config;
  std::vector<QueuedJob> jobs;
  std::vector<CampaignOutcome> outcomes;
  ServiceStats stats;
  bool drained = false;

  // ---- scheduler state (drain() only) ----
  std::size_t pool_size = 0;

  /// Per-worker block deques: owner pops the back (LIFO keeps its own
  /// plan's blocks warm), thieves pop the front (FIFO takes the oldest,
  /// which is fairest to long-waiting plans).
  struct WorkerDeque {
    std::mutex mutex;
    std::deque<BlockItem> items;
  };
  std::vector<std::unique_ptr<WorkerDeque>> deques;

  /// Scheduler bookkeeping only: the queue, the residency set and its
  /// slot/budget counters, stats, the per-job live view and the outcome
  /// fields. No call into a job's world, campaign or writer runs under it
  /// (DESIGN.md, "Campaign service").
  std::mutex mutex;
  std::vector<std::unique_ptr<Resident>> residents;
  std::deque<std::size_t> pending;  ///< FIFO of job indices awaiting a slot
  std::size_t hydrating = 0;        ///< slots reserved by in-flight builds
  std::size_t next_deque = 0;       ///< round-robin push cursor
  std::size_t resident_bytes = 0;

  // ---- introspection state (guarded by `mutex` unless atomic) ----
  std::vector<CampaignState> job_states;  ///< per job, enqueue order
  /// Per job (enqueue order): traces done / total. Total stays 0 until the
  /// job is first admitted (the world, and with it max_traces, does not
  /// exist before then).
  std::vector<std::pair<std::size_t, std::size_t>> job_traces;
  std::vector<obs::Registry::MetricId> worker_gauge_ids;
  std::atomic<bool> draining{false};
  std::atomic<std::uint64_t> last_progress_ns{0};

  std::atomic<std::size_t> jobs_done{0};
  std::atomic<bool> aborted{false};
  std::exception_ptr error;  ///< first failure; guarded by `mutex`

  std::mutex cv_mutex;
  std::condition_variable cv;
  std::uint64_t epoch = 0;  ///< bumped on every push; guarded by cv_mutex

  // -------------------------------------------------------------- helpers

  bool finished() const {
    return aborted.load(std::memory_order_acquire) ||
           jobs_done.load(std::memory_order_acquire) >= jobs.size();
  }

  void bump_epoch() {
    {
      std::lock_guard<std::mutex> lock(cv_mutex);
      ++epoch;
    }
    cv.notify_all();
  }

  /// Mirrors scheduler state into registry gauges so a /metrics scrape
  /// tracks the drain live (ServiceStats only lands in the struct at the
  /// end). Caller holds `mutex`; the deque mutexes nest under it exactly
  /// as in push_blocks_locked.
  void publish_stats_locked() {
#if defined(LEAKYDSP_OBS)
    OBS_GAUGE_SET("serve.stats.campaigns_completed", stats.campaigns_completed);
    OBS_GAUGE_SET("serve.stats.evictions", stats.evictions);
    OBS_GAUGE_SET("serve.stats.rehydrations", stats.rehydrations);
    OBS_GAUGE_SET("serve.stats.steps_completed", stats.steps_completed);
    OBS_GAUGE_SET("serve.stats.max_step_gap", stats.max_step_gap);
    OBS_GAUGE_SET("serve.stats.peak_resident", stats.peak_resident);
    OBS_GAUGE_SET("serve.stats.peak_resident_bytes", stats.peak_resident_bytes);
    OBS_GAUGE_SET("serve.stats.blocks_run",
                  stats_blocks_run.load(std::memory_order_relaxed));
    OBS_GAUGE_SET("serve.stats.blocks_stolen",
                  stats_blocks_stolen.load(std::memory_order_relaxed));
    OBS_GAUGE_SET("serve.resident", residents.size());
    OBS_GAUGE_SET("serve.pending", pending.size());
    OBS_GAUGE_SET("serve.resident_bytes", resident_bytes);
    obs::Registry& reg = obs::Registry::global();
    for (std::size_t w = 0; w < deques.size(); ++w) {
      if (worker_gauge_ids.size() <= w) {
        worker_gauge_ids.push_back(
            reg.gauge("serve.worker.queue_depth.w" + std::to_string(w)));
      }
      std::size_t depth = 0;
      {
        std::lock_guard<std::mutex> lock(deques[w]->mutex);
        depth = deques[w]->items.size();
      }
      reg.set(worker_gauge_ids[w], static_cast<std::int64_t>(depth));
    }
#endif
  }

  /// Deals the blocks of `resident`'s current plan across the worker
  /// deques round-robin. Caller holds `mutex`.
  void push_blocks_locked(Resident& resident, std::size_t count) {
    resident.blocks_left.store(count, std::memory_order_release);
    for (std::size_t b = 0; b < count; ++b) {
      WorkerDeque& dq = *deques[next_deque];
      next_deque = (next_deque + 1) % deques.size();
      std::lock_guard<std::mutex> lock(dq.mutex);
      dq.items.push_back({&resident, b});
    }
    OBS_COUNT("serve.blocks.dealt", count);
    bump_epoch();
  }

  bool pop_local(std::size_t w, BlockItem& out) {
    WorkerDeque& dq = *deques[w];
    std::lock_guard<std::mutex> lock(dq.mutex);
    if (dq.items.empty()) return false;
    out = dq.items.back();
    dq.items.pop_back();
    return true;
  }

  bool steal(std::size_t w, BlockItem& out) {
    for (std::size_t k = 1; k < deques.size(); ++k) {
      WorkerDeque& dq = *deques[(w + k) % deques.size()];
      std::lock_guard<std::mutex> lock(dq.mutex);
      if (dq.items.empty()) continue;
      out = dq.items.front();
      dq.items.pop_front();
      return true;
    }
    return false;
  }

  /// Takes the queue head off the queue together with a free residency
  /// slot, if both exist.
  std::optional<std::size_t> reserve() {
    std::lock_guard<std::mutex> lock(mutex);
    if (aborted.load(std::memory_order_acquire) || pending.empty() ||
        residents.size() + hydrating >= config.max_resident) {
      return std::nullopt;
    }
    const std::size_t job_index = pending.front();
    pending.pop_front();
    ++hydrating;
    return job_index;
  }

  /// Fills free slots from the queue head, one admission at a time, until
  /// the slots, the queue or the budget run out. Any worker may admit, so
  /// builds on different workers overlap.
  void admit() {
    while (const std::optional<std::size_t> job_index = reserve()) {
      if (!hydrate(*job_index)) return;
    }
  }

  /// Builds the reserved job's world unlocked, then charges the budget and
  /// installs it as a resident under `mutex`, then starts (or reloads) its
  /// task and plans its first step unlocked. Returns false when the budget
  /// turns the job away: it goes back to the queue head and is retried on
  /// the next release — a resident exists (the check never rejects into
  /// an empty service), so that release is bound to come.
  bool hydrate(std::size_t job_index) {
    const CampaignJob& job = jobs[job_index].job;
    auto resident = std::make_unique<Resident>();
    resident->job_index = job_index;
    std::size_t traces_total = 0;
    try {
      resident->world = job.make();
      LD_REQUIRE(resident->world != nullptr,
                 "campaign job '" << job.id << "' factory returned null");
      const attack::TraceCampaign& campaign = resident->world->campaign();
      resident->task_bytes = campaign.approx_task_bytes();
      traces_total =
          job.record ? job.record->traces : campaign.config().max_traces;
    } catch (...) {
      std::lock_guard<std::mutex> lock(mutex);
      --hydrating;  // the slot is free again; the drain is aborting
      throw;
    }

    Resident& ref = *resident;
    bool rehydrating = false;
    {
      // Declared after `resident`, so a rejected world is torn down only
      // once the lock is released.
      std::lock_guard<std::mutex> lock(mutex);
      --hydrating;
      // Admission by memory budget — but never starve an empty service:
      // a single oversized campaign degrades to sequential execution.
      if (config.memory_budget_bytes != 0 && !residents.empty() &&
          resident_bytes + ref.task_bytes > config.memory_budget_bytes) {
        pending.push_front(job_index);
        return false;
      }
      resident_bytes += ref.task_bytes;
      stats.peak_resident_bytes =
          std::max(stats.peak_resident_bytes, resident_bytes);
      rehydrating = jobs[job_index].has_checkpoint;
      if (rehydrating) {
        ++stats.rehydrations;
        OBS_COUNT("serve.rehydrations", 1);
      }
      job_states[job_index] = CampaignState::kResident;
      job_traces[job_index].second = traces_total;
      residents.push_back(std::move(resident));
      stats.peak_resident = std::max(stats.peak_resident, residents.size());
      OBS_LOG(obs::LogLevel::kDebug, "serve", "campaign admitted",
              obs::f("campaign", job.id),
              obs::f("rehydrated", rehydrating),
              obs::f("resident", residents.size()),
              obs::f("resident_bytes", resident_bytes));
      publish_stats_locked();
    }

    attack::TraceCampaign& campaign = ref.world->campaign();
    if (job.record) {
      ref.writer = std::make_unique<sim::TraceStoreWriter>(
          job.record->out_path, campaign.trace_samples());
      ref.task.emplace(campaign.start_recording(
          ref.world->rng(), job.record->traces, *ref.writer, pool_size));
    } else if (rehydrating || job.resume) {
      ref.task.emplace(campaign.load_task());
    } else {
      ref.task.emplace(campaign.start(ref.world->rng()));
    }
    plan_next(ref);
    return true;
  }

  /// Plans the resident's next step unlocked and deals its blocks;
  /// finishes the campaign when no work remains.
  void plan_next(Resident& resident) {
    const CampaignJob& job = jobs[resident.job_index].job;
    resident.plan.emplace(resident.world->campaign().plan_step(
        *resident.task, job.stop_when_broken));
    // Empty once the task is done — or when it was rehydrated from the
    // checkpoint of an already-finished campaign.
    if (resident.plan->empty()) {
      finish_campaign(resident);
      return;
    }
    const std::size_t done = resident.task->traces_done();
    std::lock_guard<std::mutex> lock(mutex);
    job_traces[resident.job_index].first = done;
    push_blocks_locked(resident, resident.plan->block_count());
  }

  /// Takes the final result (and commits a record job's file footer)
  /// unlocked and retires the resident.
  void finish_campaign(Resident& resident) {
    const std::size_t done = resident.task->traces_done();
    attack::CampaignResult result =
        resident.world->campaign().take_result(std::move(*resident.task));
    if (resident.writer) resident.writer->finish();
    teardown(resident);
    {
      std::lock_guard<std::mutex> lock(mutex);
      CampaignOutcome& outcome = outcomes[resident.job_index];
      outcome.result = std::move(result);
      if (jobs[resident.job_index].job.record) outcome.traces_recorded = done;
      job_states[resident.job_index] = CampaignState::kFinished;
      ++stats.campaigns_completed;
      OBS_LOG(obs::LogLevel::kDebug, "serve", "campaign finished",
              obs::f("campaign", outcome.id), obs::f("traces", done),
              obs::f("broken", outcome.result.broken),
              obs::f("evictions", outcome.evictions));
      release_locked(resident, /*finished_job=*/true);
    }
    after_release();
  }

  /// Suspends the task into its durable checkpoint unlocked, then re-queues
  /// the job. The order matters: the job becomes admissible only once its
  /// checkpoint is complete, so a rehydration never reads a half-written
  /// file.
  // `done` and `job` feed only OBS_* hooks, which -DLEAKYDSP_OBS=OFF strips.
  void evict(Resident& resident, [[maybe_unused]] std::size_t done) {
    [[maybe_unused]] const CampaignJob& job = jobs[resident.job_index].job;
    resident.world->campaign().suspend(*resident.task);
    teardown(resident);
    {
      std::lock_guard<std::mutex> lock(mutex);
      jobs[resident.job_index].has_checkpoint = true;
      job_states[resident.job_index] = CampaignState::kEvicted;
      ++stats.evictions;
      ++outcomes[resident.job_index].evictions;
      OBS_COUNT("serve.evictions", 1);
#if defined(LEAKYDSP_OBS)
      obs::Registry::global().add(obs::Registry::global().labeled_counter(
          "serve.campaign.evictions", job.id));
#endif
      OBS_LOG(obs::LogLevel::kDebug, "serve", "campaign evicted",
              obs::f("campaign", job.id), obs::f("traces", done),
              obs::f("steps_this_turn", resident.steps_this_turn));
      pending.push_back(resident.job_index);
      release_locked(resident, /*finished_job=*/false);
    }
    after_release();
  }

  /// Destroys the resident's task, writer and world before its slot is
  /// given back, so residents plus in-flight builds never hold more than
  /// max_resident worlds. Runs unlocked.
  static void teardown(Resident& resident) {
    resident.task.reset();
    resident.plan.reset();
    resident.writer.reset();
    resident.world.reset();
  }

  /// Drops a torn-down resident (finished or evicted) from the residency
  /// set and frees its budget share. Caller holds `mutex`.
  void release_locked(Resident& resident, bool finished_job) {
    outcomes[resident.job_index].worker_mask |=
        resident.worker_mask.load(std::memory_order_relaxed);
    resident_bytes -= resident.task_bytes;
    for (auto it = residents.begin(); it != residents.end(); ++it) {
      if (it->get() == &resident) {
        residents.erase(it);
        break;
      }
    }
    if (finished_job) {
      jobs_done.fetch_add(1, std::memory_order_acq_rel);
    }
    publish_stats_locked();
  }

  /// After release_locked: wakes parked workers (new blocks, or
  /// termination) and fills the freed slot. Runs unlocked.
  void after_release() {
    bump_epoch();
    admit();
  }

  /// Folds a completed step (last block just ran) back into the task and
  /// decides what happens next: another step, eviction, or completion.
  void complete_step(Resident& resident) {
    const CampaignJob& job = jobs[resident.job_index].job;
    const bool more = resident.world->campaign().finish_step(
        *resident.task, std::move(*resident.plan));
    resident.plan.reset();
    const std::size_t done = resident.task->traces_done();

    bool evict_now = false;
    {
      std::lock_guard<std::mutex> lock(mutex);
      ++stats.steps_completed;
      ++outcomes[resident.job_index].steps;
      ++resident.steps_this_turn;
      if (resident.last_step_seq != 0) {
        stats.max_step_gap = std::max(
            stats.max_step_gap, stats.steps_completed - resident.last_step_seq);
      }
      resident.last_step_seq = stats.steps_completed;
      job_traces[resident.job_index].first = done;
#if defined(LEAKYDSP_OBS)
      obs::Registry::global().add(obs::Registry::global().labeled_counter(
          "serve.campaign.steps", job.id));
#endif
      OBS_COUNT("serve.steps", 1);
      publish_stats_locked();
      // Fair sharing under queue pressure: after quantum_steps boundary
      // steps, a resident attack campaign yields its slot — its task is
      // suspended into the durable keyed checkpoint and the job re-enters
      // the FIFO. Record jobs never evict (their writer only commits at
      // the footer).
      evict_now = more && !job.record && !pending.empty() &&
                  resident.steps_this_turn >= config.quantum_steps;
    }

    if (!more) {
      finish_campaign(resident);
    } else if (evict_now) {
      evict(resident, done);
    } else {
      plan_next(resident);
    }
  }

  void execute(const BlockItem& item, std::size_t worker) {
    Resident& resident = *item.resident;
    resident.worker_mask.fetch_or(
        std::uint64_t{1} << std::min<std::size_t>(worker, 63),
        std::memory_order_relaxed);
    resident.world->campaign().run_block(*resident.plan, item.block);
    OBS_COUNT("serve.blocks", 1);
    stats_blocks_run.fetch_add(1, std::memory_order_relaxed);
    last_progress_ns.store(now_ns(), std::memory_order_relaxed);
    if (resident.blocks_left.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      complete_step(resident);
    }
  }

  void fail(std::exception_ptr e) {
    {
      std::lock_guard<std::mutex> lock(mutex);
      if (!error) error = std::move(e);
    }
    aborted.store(true, std::memory_order_release);
    bump_epoch();
  }

  void worker_loop(std::size_t worker) {
    try {
      // The first admissions: every worker fills free slots, so the
      // initial world builds overlap too.
      admit();
      while (!finished()) {
        BlockItem item;
        bool have = pop_local(worker, item);
        if (!have && steal(worker, item)) {
          have = true;
          ++stats_blocks_stolen;
          OBS_COUNT("serve.blocks.stolen", 1);
        }
        if (have) {
          execute(item, worker);
          continue;
        }
        // Nothing runnable here: park until a push bumps the epoch (with a
        // bounded wait as a lost-wakeup backstop).
        std::unique_lock<std::mutex> lock(cv_mutex);
        const std::uint64_t seen = epoch;
        if (finished()) return;
        cv.wait_for(lock, std::chrono::milliseconds(1),
                    [&] { return epoch != seen || finished(); });
      }
    } catch (...) {
      fail(std::current_exception());
    }
  }

  std::atomic<std::size_t> stats_blocks_stolen{0};
  std::atomic<std::size_t> stats_blocks_run{0};
};

CampaignService::CampaignService(ServiceConfig config)
    : impl_(std::make_unique<Impl>()) {
  LD_REQUIRE(config.max_resident >= 1, "service needs one residency slot");
  LD_REQUIRE(config.quantum_steps >= 1, "service quantum must be >= 1");
  impl_->config = std::move(config);
}

CampaignService::~CampaignService() = default;

void CampaignService::enqueue(CampaignJob job) {
  LD_REQUIRE(!impl_->drained, "service already drained");
  LD_REQUIRE(!job.id.empty(), "campaign job needs an id");
  LD_REQUIRE(job.make != nullptr, "campaign job needs a factory");
  if (job.record) {
    LD_REQUIRE(job.record->traces >= 1,
               "record job '" << job.id << "' needs traces");
    LD_REQUIRE(!job.record->out_path.empty(),
               "record job '" << job.id << "' needs an out path");
  }
  for (const QueuedJob& queued : impl_->jobs) {
    LD_REQUIRE(queued.job.id != job.id,
               "duplicate campaign job id '" << job.id << "'");
    // Two writers truncating one file would each report a full recording.
    LD_REQUIRE(!job.record || !queued.job.record ||
                   std::filesystem::path(queued.job.record->out_path)
                           .lexically_normal() !=
                       std::filesystem::path(job.record->out_path)
                           .lexically_normal(),
               "record job '" << job.id << "' writes '"
                              << job.record->out_path << "', as job '"
                              << queued.job.id << "' does");
  }
  CampaignOutcome outcome;
  outcome.id = job.id;
  impl_->outcomes.push_back(std::move(outcome));
  impl_->job_states.push_back(CampaignState::kQueued);
  impl_->job_traces.emplace_back(0, 0);
  impl_->jobs.push_back({std::move(job), false});
}

std::size_t CampaignService::queued() const { return impl_->jobs.size(); }

const ServiceStats& CampaignService::stats() const { return impl_->stats; }

std::vector<CampaignOutcome> CampaignService::drain() {
  Impl& impl = *impl_;
  LD_REQUIRE(!impl.drained, "service already drained");
  impl.drained = true;
  if (impl.jobs.empty()) return {};
  LD_REQUIRE(impl.jobs.size() <= impl.config.max_resident ||
                 !impl.config.checkpoint_dir.empty(),
             "more jobs than residency slots requires a checkpoint_dir "
             "(eviction suspends through durable checkpoints)");

  util::ThreadPool pool(impl.config.threads);
  {
    // A /statusz scrape iterates the deques and the queue under `mutex`,
    // so they are built under it too.
    std::lock_guard<std::mutex> lock(impl.mutex);
    impl.pool_size = pool.size();
    impl.deques.clear();
    for (std::size_t w = 0; w < impl.pool_size; ++w) {
      impl.deques.push_back(std::make_unique<Impl::WorkerDeque>());
    }
    for (std::size_t j = 0; j < impl.jobs.size(); ++j) {
      impl.pending.push_back(j);
    }
  }
  impl.last_progress_ns.store(now_ns(), std::memory_order_relaxed);
  impl.draining.store(true, std::memory_order_release);
  OBS_LOG(obs::LogLevel::kInfo, "serve", "drain started",
          obs::f("jobs", impl.jobs.size()), obs::f("workers", impl.pool_size),
          obs::f("max_resident", impl.config.max_resident),
          obs::f("budget_bytes", impl.config.memory_budget_bytes));
  {
    OBS_SPAN("serve.drain");
    pool.parallel_for(impl.pool_size,
                      [&](std::size_t w) { impl.worker_loop(w); });
  }
  std::vector<CampaignOutcome> outcomes;
  {
    // Hand the outcomes over under the lock: introspect() may be reading
    // them from a scrape thread right up to (and after) this return.
    std::lock_guard<std::mutex> lock(impl.mutex);
    impl.stats.blocks_stolen =
        impl.stats_blocks_stolen.load(std::memory_order_relaxed);
    impl.stats.blocks_run =
        impl.stats_blocks_run.load(std::memory_order_relaxed);
    impl.publish_stats_locked();
    if (impl.error) std::rethrow_exception(impl.error);
    // Copied, not moved: the results were allocated on the workers, and a
    // caller that keeps them would pin the workers' malloc arenas. The
    // copies land on the calling thread's heap.
    outcomes = impl.outcomes;
    impl.outcomes.clear();
  }
#if defined(__GLIBC__)
  // Every world of the drain is gone, but glibc keeps their freed pages
  // resident in the workers' arenas. Hand them back, or a process that
  // drains repeatedly carries each drain's fragmented heap into the next.
  malloc_trim(0);
#endif
  OBS_LOG(obs::LogLevel::kInfo, "serve", "drain finished",
          obs::f("campaigns", impl.stats.campaigns_completed),
          obs::f("steps", impl.stats.steps_completed),
          obs::f("evictions", impl.stats.evictions),
          obs::f("stolen", impl.stats.blocks_stolen),
          obs::f("max_step_gap", impl.stats.max_step_gap));
  return outcomes;
}

std::string to_string(CampaignState state) {
  switch (state) {
    case CampaignState::kQueued:
      return "queued";
    case CampaignState::kResident:
      return "resident";
    case CampaignState::kEvicted:
      return "evicted";
    case CampaignState::kFinished:
      return "finished";
  }
  return "unknown";
}

ServiceIntrospection CampaignService::introspect() const {
  Impl& impl = *impl_;
  ServiceIntrospection view;
  std::lock_guard<std::mutex> lock(impl.mutex);
  view.draining = impl.draining.load(std::memory_order_acquire);
  view.jobs_total = impl.jobs.size();
  view.jobs_done = impl.jobs_done.load(std::memory_order_acquire);
  view.resident = impl.residents.size();
  view.pending = impl.pending.size();
  view.resident_bytes = impl.resident_bytes;
  for (const auto& dq : impl.deques) {
    std::lock_guard<std::mutex> dq_lock(dq->mutex);
    view.worker_queue_depths.push_back(dq->items.size());
  }
  view.stats = impl.stats;
  view.stats.blocks_run =
      impl.stats_blocks_run.load(std::memory_order_relaxed);
  view.stats.blocks_stolen =
      impl.stats_blocks_stolen.load(std::memory_order_relaxed);
  view.campaigns.reserve(impl.jobs.size());
  for (std::size_t j = 0; j < impl.jobs.size(); ++j) {
    CampaignStatus status;
    status.id = impl.jobs[j].job.id;
    status.state = impl.job_states[j];
    status.is_record = impl.jobs[j].job.record.has_value();
    status.traces_done = impl.job_traces[j].first;
    status.traces_total = impl.job_traces[j].second;
    // drain() hands the outcomes to its caller at the end; a scrape that
    // lands after that still sees every job's lifecycle fields above.
    if (j < impl.outcomes.size()) {
      status.steps = impl.outcomes[j].steps;
      status.evictions = impl.outcomes[j].evictions;
    }
    view.campaigns.push_back(std::move(status));
  }
  for (const auto& resident : impl.residents) {
    CampaignStatus& status = view.campaigns[resident->job_index];
    status.approx_bytes = resident->task_bytes;
    if (resident->last_step_seq != 0) {
      status.step_gap = impl.stats.steps_completed - resident->last_step_seq;
    }
  }
  return view;
}

std::string CampaignService::statusz_json() const {
  const ServiceIntrospection view = introspect();
  std::ostringstream out;
  out << "{\n";
  out << "    \"draining\": " << (view.draining ? "true" : "false") << ",\n";
  out << "    \"jobs_total\": " << view.jobs_total << ",\n";
  out << "    \"jobs_done\": " << view.jobs_done << ",\n";
  out << "    \"resident\": " << view.resident << ",\n";
  out << "    \"pending\": " << view.pending << ",\n";
  out << "    \"resident_bytes\": " << view.resident_bytes << ",\n";
  out << "    \"worker_queue_depths\": [";
  for (std::size_t w = 0; w < view.worker_queue_depths.size(); ++w) {
    if (w > 0) out << ", ";
    out << view.worker_queue_depths[w];
  }
  out << "],\n";
  out << "    \"stats\": {\"campaigns_completed\": "
      << view.stats.campaigns_completed
      << ", \"evictions\": " << view.stats.evictions
      << ", \"rehydrations\": " << view.stats.rehydrations
      << ", \"steps_completed\": " << view.stats.steps_completed
      << ", \"blocks_run\": " << view.stats.blocks_run
      << ", \"blocks_stolen\": " << view.stats.blocks_stolen
      << ", \"max_step_gap\": " << view.stats.max_step_gap
      << ", \"peak_resident\": " << view.stats.peak_resident
      << ", \"peak_resident_bytes\": " << view.stats.peak_resident_bytes
      << "},\n";
  out << "    \"campaigns\": [";
  for (std::size_t j = 0; j < view.campaigns.size(); ++j) {
    const CampaignStatus& status = view.campaigns[j];
    if (j > 0) out << ",";
    out << "\n      {\"id\": \"" << util::json_escape(status.id)
        << "\", \"state\": \"" << to_string(status.state)
        << "\", \"record\": " << (status.is_record ? "true" : "false")
        << ", \"traces_done\": " << status.traces_done
        << ", \"traces_total\": " << status.traces_total
        << ", \"steps\": " << status.steps
        << ", \"evictions\": " << status.evictions
        << ", \"step_gap\": " << status.step_gap
        << ", \"approx_bytes\": " << status.approx_bytes << "}";
  }
  out << (view.campaigns.empty() ? "]\n" : "\n    ]\n");
  out << "  }";
  return out.str();
}

obs::HealthProbe CampaignService::health() const {
  Impl& impl = *impl_;
  obs::HealthProbe snapshot;
  const std::size_t total = impl.jobs.size();
  const std::size_t done = impl.jobs_done.load(std::memory_order_acquire);
  snapshot.jobs_remaining = total > done ? total - done : 0;
  if (impl.draining.load(std::memory_order_acquire) &&
      snapshot.jobs_remaining > 0) {
    const std::uint64_t last =
        impl.last_progress_ns.load(std::memory_order_relaxed);
    const std::uint64_t now = now_ns();
    snapshot.ns_since_progress = now > last ? now - last : 0;
  }
  return snapshot;
}

}  // namespace leakydsp::serve
