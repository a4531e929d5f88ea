// Campaign service determinism and scheduling: every campaign drained
// through the work-stealing service finishes with a CampaignResult
// byte-identical to a standalone TraceCampaign::run of the same spec — at
// any thread count, residency limit, memory budget, or eviction pattern —
// and the scheduler shares the pool fairly at block granularity (DESIGN.md,
// "Campaign service").
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "attack/campaign.h"
#include "serve/campaign_service.h"
#include "serve/standard_jobs.h"
#include "sim/trace_store.h"
#include "util/contracts.h"

namespace la = leakydsp::attack;
namespace ls = leakydsp::serve;
namespace lsim = leakydsp::sim;
namespace lu = leakydsp::util;

namespace {

class TempDir {
 public:
  explicit TempDir(const std::string& name)
      : path_(std::string("/tmp/leakydsp_serve_") + name) {
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~TempDir() { std::filesystem::remove_all(path_); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

bool identical_results(const la::CampaignResult& a,
                       const la::CampaignResult& b) {
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

/// A small standard campaign: 4 boundary steps of 2 blocks-per-stride
/// each, never broken at these trace counts — enough steps for eviction
/// and fairness to be observable while staying fast.
ls::StandardCampaignSpec make_spec(const std::string& id, std::uint64_t seed,
                                   const std::string& checkpoint_dir) {
  ls::StandardCampaignSpec spec;
  spec.id = id;
  spec.seed = seed;
  spec.max_traces = 128;
  spec.block_traces = 16;
  spec.break_check_stride = 32;
  spec.rank_stride = 64;
  spec.checkpoint_dir = checkpoint_dir;
  return spec;
}

std::vector<char> file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

/// Wraps the job's factory so every world build bumps `builds`.
void count_builds(ls::CampaignJob& job, std::atomic<std::size_t>& builds) {
  job.make = [make = std::move(job.make), &builds] {
    builds.fetch_add(1, std::memory_order_relaxed);
    return make();
  };
}

}  // namespace

TEST(CampaignServiceTest, UncontendedDrainMatchesStandaloneByteForByte) {
  ls::ServiceConfig config;
  config.threads = 3;
  config.max_resident = 8;  // all resident: no eviction, no checkpoints
  ls::CampaignService service(config);
  const std::uint64_t seeds[] = {11, 22, 33};
  std::vector<ls::StandardCampaignSpec> specs;
  for (const std::uint64_t seed : seeds) {
    specs.push_back(make_spec("job" + std::to_string(seed), seed, ""));
    service.enqueue(ls::make_standard_job(specs.back()));
  }
  const auto outcomes = service.drain();
  ASSERT_EQ(outcomes.size(), specs.size());
  EXPECT_EQ(service.stats().evictions, 0u);
  EXPECT_EQ(service.stats().campaigns_completed, specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    EXPECT_EQ(outcomes[i].id, specs[i].id) << "enqueue order not preserved";
    const auto standalone = ls::run_standard_campaign(specs[i], 2);
    EXPECT_TRUE(identical_results(outcomes[i].result, standalone))
        << "service result diverged from standalone for " << specs[i].id;
  }
}

TEST(CampaignServiceTest, EvictedCampaignsRehydrateByteIdentical) {
  const TempDir dir("evict");
  ls::ServiceConfig config;
  config.threads = 4;
  config.max_resident = 2;   // 6 jobs over 2 slots: heavy contention
  config.quantum_steps = 1;  // yield after every boundary step
  config.checkpoint_dir = dir.path();
  ls::CampaignService service(config);
  std::vector<ls::StandardCampaignSpec> specs;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    specs.push_back(
        make_spec("c" + std::to_string(seed), seed * 97, dir.path()));
    service.enqueue(ls::make_standard_job(specs.back()));
  }
  const auto outcomes = service.drain();
  const ls::ServiceStats& stats = service.stats();

  ASSERT_EQ(outcomes.size(), specs.size());
  EXPECT_GT(stats.evictions, 0u) << "contended drain never evicted";
  EXPECT_GT(stats.rehydrations, 0u);
  EXPECT_LE(stats.peak_resident, config.max_resident);

  // The tentpole claim: suspension through the durable checkpoint and
  // rehydration (on whatever worker picks the blocks up) never shows in
  // the results.
  std::uint64_t mask_union = 0;
  bool saw_evicted = false;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const auto standalone = ls::run_standard_campaign(specs[i], 1);
    EXPECT_TRUE(identical_results(outcomes[i].result, standalone))
        << "evicted/rehydrated campaign " << specs[i].id
        << " diverged from standalone (evictions="
        << outcomes[i].evictions << ")";
    mask_union |= outcomes[i].worker_mask;
    saw_evicted = saw_evicted || outcomes[i].evictions > 0;
    // take_result leaves a final completed keyed checkpoint behind.
    EXPECT_TRUE(
        la::TraceCampaign::checkpoint_exists(dir.path(), specs[i].id));
  }
  EXPECT_TRUE(saw_evicted);
  // 4 executors on 8-block steps: blocks are dealt round-robin across the
  // per-worker deques, so more than one executor must have run blocks.
  EXPECT_GE(std::popcount(mask_union), 2);

  // Fairness: between two consecutive boundary steps of one campaign, at
  // most every other unfinished campaign gets a quantum (FIFO re-admission)
  // while the co-residents keep stepping. Starvation would show up as a
  // gap proportional to the whole drain (~24 steps here).
  const std::size_t fair_bound = specs.size() * config.quantum_steps +
                                 2 * config.max_resident + 2;
  EXPECT_LE(stats.max_step_gap, fair_bound)
      << "a campaign was starved between its boundary steps";
}

TEST(CampaignServiceTest, OneWorkerContendedDrainKeepsItsSchedule) {
  // The contended drain above on a single worker, whose schedule is fully
  // determined: FIFO admission into the free slots, the newest plan's
  // blocks first, eviction after every step while jobs wait. The pinned
  // counters are that schedule's fingerprint — moving world builds or
  // checkpoint writes off the service lock must not change a decision.
  const TempDir dir("one_worker");
  ls::ServiceConfig config;
  config.threads = 1;
  config.max_resident = 2;
  config.quantum_steps = 1;
  config.checkpoint_dir = dir.path();
  ls::CampaignService service(config);
  std::atomic<std::size_t> builds{0};
  std::vector<ls::StandardCampaignSpec> specs;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    specs.push_back(
        make_spec("c" + std::to_string(seed), seed * 97, dir.path()));
    ls::CampaignJob job = ls::make_standard_job(specs.back());
    count_builds(job, builds);
    service.enqueue(std::move(job));
  }
  const auto outcomes = service.drain();
  const ls::ServiceStats& stats = service.stats();

  EXPECT_EQ(stats.evictions, 15u);
  EXPECT_EQ(stats.rehydrations, 15u);
  EXPECT_EQ(stats.steps_completed, 24u);
  EXPECT_EQ(stats.blocks_run, 48u);
  EXPECT_EQ(stats.max_step_gap, 1u);
  EXPECT_EQ(stats.peak_resident, 2u);
  EXPECT_EQ(builds.load(), 21u);
  ASSERT_EQ(outcomes.size(), specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    EXPECT_TRUE(identical_results(outcomes[i].result,
                                  ls::run_standard_campaign(specs[i], 1)))
        << specs[i].id;
  }
}

TEST(CampaignServiceTest, WorkersHydrateWorldsConcurrently) {
  // Every factory call waits (up to 200 ms) for a second one to be in
  // flight. With admissions built under the service lock the second
  // never starts, so the observed maximum stays 1; with world builds off
  // the lock, two workers filling two slots build side by side.
  const TempDir dir("hydrate");
  ls::ServiceConfig config;
  config.threads = 2;
  config.max_resident = 2;
  config.quantum_steps = 1;
  config.checkpoint_dir = dir.path();
  ls::CampaignService service(config);
  std::atomic<int> in_flight{0};
  std::atomic<int> max_in_flight{0};
  std::vector<ls::StandardCampaignSpec> specs;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    specs.push_back(
        make_spec("h" + std::to_string(seed), seed * 131, dir.path()));
    ls::CampaignJob job = ls::make_standard_job(specs.back());
    job.make = [make = std::move(job.make), &in_flight, &max_in_flight] {
      const int now = in_flight.fetch_add(1) + 1;
      int seen = max_in_flight.load();
      while (seen < now && !max_in_flight.compare_exchange_weak(seen, now)) {
      }
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::milliseconds(200);
      while (max_in_flight.load() < 2 &&
             std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      auto world = make();
      in_flight.fetch_sub(1);
      return world;
    };
    service.enqueue(std::move(job));
  }
  const auto outcomes = service.drain();
  EXPECT_GE(max_in_flight.load(), 2)
      << "world builds were serialized: no two factories ever overlapped";
  ASSERT_EQ(outcomes.size(), specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    EXPECT_TRUE(identical_results(outcomes[i].result,
                                  ls::run_standard_campaign(specs[i], 1)))
        << specs[i].id;
  }
}

TEST(CampaignServiceTest, KilledServiceResumesByteIdentical) {
  // The poisoned factory runs on a worker without the service lock; at
  // every pool size it must still free its reserved slot, make drain()
  // rethrow instead of hanging, and leave job-a's checkpoint behind.
  for (const std::size_t threads : {1u, 2u, 4u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const TempDir dir("kill");
    const auto spec_a = make_spec("job-a", 7001, dir.path());
    const auto spec_b = make_spec("job-b", 7002, dir.path());

    // First service: job-a gets one quantum, is evicted (the queue is
    // non-empty), and the next admission — a poisoned factory — kills the
    // whole drain. job-a's progress survives as its durable checkpoint.
    {
      ls::ServiceConfig config;
      config.threads = threads;
      config.max_resident = 1;
      config.quantum_steps = 1;
      config.checkpoint_dir = dir.path();
      ls::CampaignService service(config);
      service.enqueue(ls::make_standard_job(spec_a));
      ls::CampaignJob poison;
      poison.id = "poison";
      poison.make = []() -> std::unique_ptr<ls::CampaignWorld> {
        throw std::runtime_error("simulated service crash");
      };
      service.enqueue(std::move(poison));
      service.enqueue(ls::make_standard_job(spec_b));
      EXPECT_THROW((void)service.drain(), std::runtime_error);
      EXPECT_EQ(service.introspect().resident, 0u);
    }
    ASSERT_TRUE(la::TraceCampaign::checkpoint_exists(dir.path(), spec_a.id))
        << "no durable checkpoint survived the killed drain";

    // Second service, as a restarted server would run it: the interrupted
    // job resumes from its checkpoint, the untouched one starts fresh.
    ls::ServiceConfig config;
    config.threads = threads;
    config.max_resident = 2;
    ls::CampaignService service(config);
    ls::CampaignJob resume_a = ls::make_standard_job(spec_a);
    resume_a.resume = true;
    service.enqueue(std::move(resume_a));
    service.enqueue(ls::make_standard_job(spec_b));
    const auto outcomes = service.drain();
    ASSERT_EQ(outcomes.size(), 2u);
    EXPECT_TRUE(identical_results(outcomes[0].result,
                                  ls::run_standard_campaign(spec_a, 1)))
        << "kill + service-level resume diverged from standalone";
    EXPECT_TRUE(identical_results(outcomes[1].result,
                                  ls::run_standard_campaign(spec_b, 1)));
  }
}

TEST(CampaignServiceTest, MemoryBudgetBoundsResidencyWithoutChangingResults) {
  const TempDir dir("budget");
  std::vector<ls::StandardCampaignSpec> specs;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    specs.push_back(
        make_spec("m" + std::to_string(seed), seed * 31, dir.path()));
  }
  const std::size_t task_bytes =
      ls::make_standard_world(specs[0])->campaign().approx_task_bytes();
  ASSERT_GT(task_bytes, 0u);

  ls::ServiceConfig config;
  config.threads = 2;
  config.max_resident = 3;
  config.quantum_steps = 1;
  config.checkpoint_dir = dir.path();
  // Budget for one and a half campaigns: admission must hold residency at
  // one even though three slots exist.
  config.memory_budget_bytes = task_bytes + task_bytes / 2;
  ls::CampaignService service(config);
  for (const auto& spec : specs) {
    service.enqueue(ls::make_standard_job(spec));
  }
  const auto outcomes = service.drain();
  EXPECT_EQ(service.stats().peak_resident, 1u);
  EXPECT_LE(service.stats().peak_resident_bytes,
            config.memory_budget_bytes);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    EXPECT_TRUE(identical_results(outcomes[i].result,
                                  ls::run_standard_campaign(specs[i], 1)))
        << "budget-constrained drain diverged for " << specs[i].id;
  }
}

TEST(CampaignServiceTest, RecordJobStreamsByteIdenticalTraceFile) {
  const TempDir dir("record");
  const auto spec = make_spec("rec", 4242, "");
  const std::string service_path = dir.path() + "/service.ldt";
  const std::string standalone_path = dir.path() + "/standalone.ldt";
  constexpr std::size_t kTraces = 100;

  ls::ServiceConfig config;
  config.threads = 3;
  config.max_resident = 4;
  ls::CampaignService service(config);
  ls::CampaignJob job = ls::make_standard_job(spec);
  ls::RecordJobSpec record;
  record.traces = kTraces;
  record.out_path = service_path;
  record.block_traces = 16;
  record.wave_blocks = 3;  // 7 blocks -> 3 waves: exercises wave chaining
  job.record = record;
  service.enqueue(std::move(job));
  // An attack job rides along so the record waves interleave with CPA
  // blocks on the same pool.
  const auto rider = make_spec("rider", 515, "");
  service.enqueue(ls::make_standard_job(rider));
  const auto outcomes = service.drain();
  ASSERT_EQ(outcomes.size(), 2u);
  EXPECT_EQ(outcomes[0].traces_recorded, kTraces);
  EXPECT_TRUE(identical_results(outcomes[1].result,
                                ls::run_standard_campaign(rider, 1)));

  {
    auto world = ls::make_standard_world(spec);
    lsim::TraceStoreWriter writer(standalone_path,
                                  world->campaign().trace_samples());
    world->campaign().record(world->rng(), kTraces, writer);
    writer.finish();
  }
  const auto service_bytes = file_bytes(service_path);
  const auto standalone_bytes = file_bytes(standalone_path);
  ASSERT_FALSE(service_bytes.empty());
  EXPECT_EQ(service_bytes, standalone_bytes)
      << "scheduled record stream is not byte-identical to record()";
}

TEST(CampaignServiceTest, RejectsDuplicateIdsAndDoubleDrain) {
  ls::ServiceConfig config;
  config.threads = 1;
  ls::CampaignService service(config);
  service.enqueue(ls::make_standard_job(make_spec("dup", 1, "")));
  EXPECT_THROW(service.enqueue(ls::make_standard_job(make_spec("dup", 2, ""))),
               lu::PreconditionError);
  // More jobs than slots without a checkpoint_dir cannot be scheduled
  // fairly (eviction has nowhere to suspend to) — rejected up front.
  ls::ServiceConfig tight;
  tight.threads = 1;
  tight.max_resident = 1;
  ls::CampaignService overfull(tight);
  overfull.enqueue(ls::make_standard_job(make_spec("x1", 1, "")));
  overfull.enqueue(ls::make_standard_job(make_spec("x2", 2, "")));
  EXPECT_THROW((void)overfull.drain(), lu::PreconditionError);
}
