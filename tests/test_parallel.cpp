// Tests for the deterministic parallel execution layer: the ThreadPool
// primitives, the blocked/mergeable CPA accumulators, and the contract
// that campaign and trace recording results never depend on the thread
// count (DESIGN.md, "Threading model & determinism").
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <memory>
#include <numeric>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "attack/campaign.h"
#include "attack/cpa.h"
#include "core/leaky_dsp.h"
#include "sim/scenarios.h"
#include "sim/sensor_rig.h"
#include "sim/trace_store.h"
#include "util/contracts.h"
#include "util/rng.h"
#include "util/byte_io.h"
#include "util/thread_pool.h"
#include "verify/cpa_reference.h"
#include "victim/aes_core.h"

namespace la = leakydsp::attack;
namespace lc = leakydsp::crypto;
namespace lcore = leakydsp::core;
namespace lpdn = leakydsp::pdn;
namespace lsim = leakydsp::sim;
namespace lv = leakydsp::victim;
namespace lu = leakydsp::util;
namespace lverify = leakydsp::verify;

namespace {

lc::Block random_block(lu::Rng& rng) {
  lc::Block b;
  for (auto& byte : b) byte = static_cast<std::uint8_t>(rng() & 0xff);
  return b;
}

}  // namespace

// -------------------------------------------------------------- ThreadPool

TEST(ThreadPool, CoversEveryIndexExactlyOnce) {
  lu::ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  // Each index is claimed by exactly one executor, so the distinct
  // elements are written race-free.
  std::vector<int> hits(1000, 0);
  pool.parallel_for(hits.size(), [&](std::size_t i) { ++hits[i]; });
  for (const int h : hits) EXPECT_EQ(h, 1);
}

TEST(ThreadPool, SizeOnePoolRunsInline) {
  lu::ThreadPool pool(1);
  EXPECT_EQ(pool.size(), 1u);
  std::vector<std::size_t> order;
  pool.parallel_for(8, [&](std::size_t i) { order.push_back(i); });
  // No workers: the caller claims indices in order.
  std::vector<std::size_t> expected(8);
  std::iota(expected.begin(), expected.end(), 0u);
  EXPECT_EQ(order, expected);
}

TEST(ThreadPool, DefaultUsesHardwareConcurrency) {
  lu::ThreadPool pool;
  EXPECT_EQ(pool.size(), lu::ThreadPool::hardware_threads());
  EXPECT_GE(pool.size(), 1u);
}

TEST(ThreadPool, ZeroCountIsANoop) {
  lu::ThreadPool pool(2);
  pool.parallel_for(0, [&](std::size_t) { FAIL() << "must not be called"; });
}

TEST(ThreadPool, ExceptionPropagatesAndPoolSurvives) {
  lu::ThreadPool pool(3);
  std::atomic<int> completed{0};
  EXPECT_THROW(pool.parallel_for(100,
                                 [&](std::size_t i) {
                                   if (i == 37) {
                                     throw std::runtime_error("index 37");
                                   }
                                   ++completed;
                                 }),
               std::runtime_error);
  EXPECT_EQ(completed.load(), 99);
  // The pool stays usable after a failed batch.
  std::atomic<int> again{0};
  pool.parallel_for(10, [&](std::size_t) { ++again; });
  EXPECT_EQ(again.load(), 10);
}

// ------------------------------------------------------- CPA shard algebra

TEST(CpaShards, AddTracesMatchesPerTraceAccumulation) {
  constexpr std::size_t kPoi = 7;
  constexpr std::size_t kTraces = 96;
  lu::Rng rng(501);
  std::vector<lc::Block> cts(kTraces);
  std::vector<double> rows(kTraces * kPoi);
  for (auto& ct : cts) ct = random_block(rng);
  for (auto& s : rows) s = rng.gaussian();

  la::CpaAttack one_by_one(kPoi);
  for (std::size_t t = 0; t < kTraces; ++t) {
    one_by_one.add_trace(cts[t], {rows.data() + t * kPoi, kPoi});
  }
  la::CpaAttack batched(kPoi);
  batched.add_traces(cts, rows);

  // Bit-identical, not approximately equal: every (guess, POI) chain sees
  // the traces in the same order regardless of batch split, exactly as the
  // plain per-trace reference accumulates them.
  const auto reference = lverify::reference_cpa_state(cts, rows, kPoi);
  for (const la::CpaAttack* cpa : {&one_by_one, &batched}) {
    lu::ByteWriter state;
    cpa->serialize(state);
    EXPECT_TRUE(std::equal(state.span().begin(), state.span().end(),
                           reference.begin(), reference.end()));
  }
}

TEST(CpaShards, MergedShardsMatchSequentialAccumulation) {
  constexpr std::size_t kPoi = 5;
  constexpr std::size_t kTraces = 80;
  lu::Rng rng(502);
  std::vector<lc::Block> cts(kTraces);
  std::vector<double> rows(kTraces * kPoi);
  for (auto& ct : cts) ct = random_block(rng);
  for (auto& s : rows) s = rng.gaussian();

  la::CpaAttack whole(kPoi);
  whole.add_traces(cts, rows);

  const std::size_t split = 48;
  la::CpaAttack lo(kPoi);
  la::CpaAttack hi(kPoi);
  lo.add_traces({cts.data(), split}, {rows.data(), split * kPoi});
  hi.add_traces({cts.data() + split, kTraces - split},
                {rows.data() + split * kPoi, (kTraces - split) * kPoi});
  lo.merge(hi);

  EXPECT_EQ(lo.trace_count(), whole.trace_count());
  const auto a = whole.snapshot();
  const auto b = lo.snapshot();
  for (int byte = 0; byte < 16; ++byte) {
    for (int g = 0; g < 256; ++g) {
      // Merging sums shard subtotals, which is a different floating-point
      // reduction tree than one sequential fold — so scores agree to
      // rounding error, not bitwise. The campaign's bit-exactness across
      // thread counts comes from every thread count running the SAME block
      // schedule (checked below), not from merge being exact.
      ASSERT_NEAR(
          a[static_cast<std::size_t>(byte)].score[static_cast<std::size_t>(g)],
          b[static_cast<std::size_t>(byte)].score[static_cast<std::size_t>(g)],
          1e-12);
    }
  }
  EXPECT_EQ(whole.recovered_round_key(), lo.recovered_round_key());
}

TEST(CpaShards, MergeRequiresMatchingPoiCount) {
  la::CpaAttack a(3);
  la::CpaAttack b(4);
  EXPECT_THROW(a.merge(b), lu::PreconditionError);
}

// --------------------------------------------- campaign thread invariance

namespace {

bool identical_results(const la::CampaignResult& a,
                       const la::CampaignResult& b) {
  if (a.traces_to_break != b.traces_to_break || a.broken != b.broken ||
      a.traces_run != b.traces_run ||
      a.mean_poi_readout != b.mean_poi_readout ||
      a.checkpoints.size() != b.checkpoints.size() ||
      a.final_scores.size() != b.final_scores.size()) {
    return false;
  }
  // Bitwise: a one-ulp slip in the shard merge order shows here even when
  // every rank agrees.
  if (!a.final_scores.empty() &&
      std::memcmp(a.final_scores.data(), b.final_scores.data(),
                  a.final_scores.size() * sizeof(double)) != 0) {
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

class ParallelCampaignTest : public ::testing::Test {
 protected:
  la::CampaignResult run_with_threads(std::size_t threads) {
    // Everything — key, victim, sensor, rig calibration — is rebuilt from
    // the same seed, so config.threads is the only varying input.
    lu::Rng rng(212);
    const lc::Key key = random_block(rng);
    lv::AesCoreParams aes_params;
    aes_params.current_per_hd_bit = 0.15;  // boosted: breaks within ~1k
    lv::AesCoreModel aes(key, scenario_.aes_site(), scenario_.grid(),
                         aes_params);
    lcore::LeakyDspSensor sensor(
        scenario_.device(),
        scenario_
            .attack_placements()[lsim::Basys3Scenario::kBestPlacementIndex]);
    lsim::SensorRig rig(scenario_.grid(), sensor);
    rig.calibrate(rng);
    la::CampaignConfig config;
    config.max_traces = 1500;
    config.break_check_stride = 250;
    config.rank_stride = 500;
    config.threads = threads;
    config.keep_final_scores = true;
    la::TraceCampaign campaign(rig, aes, config);
    return campaign.run(rng);
  }

  lsim::Basys3Scenario scenario_;
};

TEST_F(ParallelCampaignTest, ResultIndependentOfThreadCount) {
  const auto serial = run_with_threads(1);
  EXPECT_TRUE(serial.broken);  // boosted leakage: the campaign does break
  ASSERT_FALSE(serial.checkpoints.empty());
  ASSERT_EQ(serial.final_scores.size(), 16u * 256u);
  EXPECT_TRUE(identical_results(serial, run_with_threads(2)));
  EXPECT_TRUE(identical_results(serial, run_with_threads(8)));
}

TEST_F(ParallelCampaignTest, RecordedTracesIndependentOfThreadCount) {
  const auto file_bytes = [](const std::string& path) {
    std::ifstream is(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(is),
                       std::istreambuf_iterator<char>());
  };
  const auto record_file = [&](std::size_t threads, const std::string& path) {
    lu::Rng rng(219);
    const lc::Key key = random_block(rng);
    lv::AesCoreModel aes(key, scenario_.aes_site(), scenario_.grid());
    lcore::LeakyDspSensor sensor(
        scenario_.device(),
        scenario_
            .attack_placements()[lsim::Basys3Scenario::kBestPlacementIndex]);
    lsim::SensorRig rig(scenario_.grid(), sensor);
    rig.calibrate(rng);
    la::CampaignConfig config;
    config.threads = threads;
    la::TraceCampaign campaign(rig, aes, config);
    lsim::TraceStoreWriter writer(path, campaign.trace_samples());
    campaign.record(rng, 150, writer);
    writer.finish();
    return file_bytes(path);
  };
  const std::string path = "/tmp/leakydsp_test_record_threads.ldtr";
  const auto serial = record_file(1, path);
  {
    lsim::TraceStoreReader reader(path);
    lsim::StoredTrace trace;
    std::size_t stored = 0;
    while (reader.next(trace)) ++stored;  // validates every chunk CRC
    EXPECT_EQ(stored, 150u);
  }
  EXPECT_EQ(record_file(4, path), serial);
  std::remove(path.c_str());
}

TEST_F(ParallelCampaignTest, RecordOnCheckpointingCampaignWritesNoCheckpoint) {
  // record() runs run()'s step loop, which suspends an attack task at every
  // boundary when checkpointing — but never a recording: the trace bytes
  // match an unconfigured campaign's and no checkpoint is written or
  // touched, at any thread count.
  const std::string base = "/tmp/leakydsp_test_record_checkpointing";
  std::filesystem::remove_all(base);
  std::filesystem::create_directories(base);
  const auto file_bytes = [](const std::string& path) {
    std::ifstream is(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(is),
                       std::istreambuf_iterator<char>());
  };
  const auto record_file =
      [&](std::size_t threads, const std::string& checkpoint_dir,
          const std::function<void(la::TraceCampaign&)>& before) {
        lu::Rng rng(219);
        const lc::Key key = random_block(rng);
        lv::AesCoreModel aes(key, scenario_.aes_site(), scenario_.grid());
        lcore::LeakyDspSensor sensor(
            scenario_.device(),
            scenario_.attack_placements()
                [lsim::Basys3Scenario::kBestPlacementIndex]);
        lsim::SensorRig rig(scenario_.grid(), sensor);
        rig.calibrate(rng);
        la::CampaignConfig config;
        config.threads = threads;
        config.max_traces = 256;
        config.checkpoint_dir = checkpoint_dir;
        config.campaign_id = checkpoint_dir.empty() ? "" : "rec";
        la::TraceCampaign campaign(rig, aes, config);
        before(campaign);
        const std::string path = base + "/traces.ldtr";
        lsim::TraceStoreWriter writer(path, campaign.trace_samples());
        campaign.record(rng, 150, writer);
        writer.finish();
        return file_bytes(path);
      };
  const auto nothing = [](la::TraceCampaign&) {};
  const std::string plain = record_file(1, "", nothing);
  ASSERT_FALSE(plain.empty());

  const std::string fresh = base + "/fresh";
  for (const std::size_t threads : {1u, 4u}) {
    EXPECT_EQ(record_file(threads, fresh, nothing), plain)
        << "threads=" << threads;
    EXPECT_FALSE(std::filesystem::exists(fresh))
        << "record() wrote into the checkpoint directory";
  }

  // An existing checkpoint under the same id keeps its bytes.
  const std::string kept = base + "/kept";
  const std::string checkpoint = kept + "/campaign-rec.ckpt";
  std::string checkpoint_bytes;
  for (const std::size_t threads : {1u, 4u}) {
    EXPECT_EQ(record_file(threads, kept,
                          [&](la::TraceCampaign& campaign) {
                            if (!checkpoint_bytes.empty()) return;
                            lu::Rng attack_rng(5);
                            (void)campaign.run(attack_rng);
                            checkpoint_bytes = file_bytes(checkpoint);
                          }),
              plain)
        << "threads=" << threads;
    ASSERT_FALSE(checkpoint_bytes.empty());
    EXPECT_EQ(file_bytes(checkpoint), checkpoint_bytes)
        << "record() overwrote the campaign's checkpoint";
  }

  // Suspending a recording task is refused outright.
  record_file(1, kept, [&](la::TraceCampaign& campaign) {
    lu::Rng rng(6);
    lsim::TraceStoreWriter writer(base + "/suspended.ldtr",
                                  campaign.trace_samples());
    la::TraceCampaign::Task task =
        campaign.start_recording(rng, 10, writer, 1);
    EXPECT_THROW(campaign.suspend(task), lu::PreconditionError);
  });
  EXPECT_EQ(file_bytes(checkpoint), checkpoint_bytes);
  std::filesystem::remove_all(base);
}

// ------------------------------------------- streaming merge of CPA shards

namespace {

std::string read_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(is),
                     std::istreambuf_iterator<char>());
}

/// A small boosted-leakage attack whose steps span several 16-trace blocks
/// (the last one short), rebuilt from one seed so every instance is
/// identical; `checkpoint_dir` keys where its checkpoints go.
struct StreamWorld {
  StreamWorld(const lsim::Basys3Scenario& scenario,
              const std::string& checkpoint_dir)
      : rng(233),
        aes(random_block(rng), scenario.aes_site(), scenario.grid(),
            boosted()),
        sensor(scenario.device(),
               scenario.attack_placements()
                   [lsim::Basys3Scenario::kBestPlacementIndex]),
        rig(scenario.grid(), sensor) {
    rig.calibrate(rng);
    la::CampaignConfig config;
    config.max_traces = 600;
    config.break_check_stride = 200;
    config.rank_stride = 300;
    config.block_traces = 16;
    config.threads = 1;
    config.keep_final_scores = true;
    config.checkpoint_dir = checkpoint_dir;
    config.campaign_id = "stream";
    campaign = std::make_unique<la::TraceCampaign>(rig, aes, config);
  }

  static lv::AesCoreParams boosted() {
    lv::AesCoreParams params;
    params.current_per_hd_bit = 0.15;
    return params;
  }

  std::string checkpoint() const {
    return read_file(campaign->config().checkpoint_dir +
                     "/campaign-stream.ckpt");
  }

  lu::Rng rng;
  lv::AesCoreModel aes;
  lcore::LeakyDspSensor sensor;
  lsim::SensorRig rig;
  std::unique_ptr<la::TraceCampaign> campaign;
};

enum class BlockOrder { kForward, kReverse, kShuffled, kRacing };

/// Runs every block of `plan` in `order`; kRacing lets four threads pull
/// block indices from a shared counter.
void run_blocks(const la::TraceCampaign& campaign,
                la::TraceCampaign::StepPlan& plan, BlockOrder order,
                std::mt19937& shuffle_rng) {
  const std::size_t blocks = plan.block_count();
  if (order == BlockOrder::kRacing) {
    std::atomic<std::size_t> next{0};
    std::vector<std::thread> racers;
    for (int r = 0; r < 4; ++r) {
      racers.emplace_back([&] {
        for (std::size_t b = next++; b < blocks; b = next++) {
          campaign.run_block(plan, b);
        }
      });
    }
    for (auto& racer : racers) racer.join();
    return;
  }
  std::vector<std::size_t> ids(blocks);
  std::iota(ids.begin(), ids.end(), std::size_t{0});
  if (order == BlockOrder::kReverse) std::reverse(ids.begin(), ids.end());
  if (order == BlockOrder::kShuffled) {
    std::shuffle(ids.begin(), ids.end(), shuffle_rng);
  }
  for (const std::size_t b : ids) campaign.run_block(plan, b);
}

}  // namespace

TEST_F(ParallelCampaignTest, StreamingMergeMatchesRunInAnyBlockOrder) {
  const std::string base = "/tmp/leakydsp_test_stream_merge";
  std::filesystem::remove_all(base);

  StreamWorld reference(scenario_, base + "/run");
  const la::CampaignResult expected =
      reference.campaign->run(reference.rng);
  const std::string expected_checkpoint = reference.checkpoint();
  ASSERT_FALSE(expected_checkpoint.empty());
  ASSERT_EQ(expected.final_scores.size(), 16u * 256u);

  // The suspended checkpoint after every step, from the first order.
  std::vector<std::string> expected_suspends;
  std::mt19937 shuffle_rng(7);
  for (const BlockOrder order :
       {BlockOrder::kForward, BlockOrder::kReverse, BlockOrder::kShuffled,
        BlockOrder::kRacing}) {
    const int id = static_cast<int>(order);
    StreamWorld world(scenario_, base + "/order" + std::to_string(id));
    const la::TraceCampaign& campaign = *world.campaign;
    la::TraceCampaign::Task task = campaign.start(world.rng);
    std::vector<std::string> suspends;
    for (;;) {
      la::TraceCampaign::StepPlan plan = campaign.plan_step(task);
      if (plan.empty()) break;
      ASSERT_GT(plan.block_count(), 1u);
      run_blocks(campaign, plan, order, shuffle_rng);
      const bool more = campaign.finish_step(task, std::move(plan));
      campaign.suspend(task);
      suspends.push_back(world.checkpoint());
      if (!more) break;
    }
    const la::CampaignResult got = campaign.take_result(std::move(task));
    EXPECT_TRUE(identical_results(got, expected)) << "order " << id;
    EXPECT_EQ(world.checkpoint(), expected_checkpoint) << "order " << id;
    if (order == BlockOrder::kForward) {
      ASSERT_GT(suspends.size(), 2u);
      expected_suspends = suspends;
    } else {
      EXPECT_EQ(suspends, expected_suspends) << "order " << id;
    }
  }
  std::filesystem::remove_all(base);
}

TEST_F(ParallelCampaignTest, FinishStepRejectsAPlanOfAnotherTask) {
  StreamWorld world(scenario_, "");
  const la::TraceCampaign& campaign = *world.campaign;
  lu::Rng rng_a = world.rng;
  lu::Rng rng_b = world.rng;
  la::TraceCampaign::Task a = campaign.start(rng_a);
  la::TraceCampaign::Task b = campaign.start(rng_b);
  ASSERT_EQ(a.traces_done(), b.traces_done());

  la::TraceCampaign::StepPlan plan = campaign.plan_step(a);
  for (std::size_t blk = 0; blk < plan.block_count(); ++blk) {
    campaign.run_block(plan, blk);
  }
  // Same step number, other task: the plan was made from `a`'s cursor and
  // holds its blocks for `a`, so `b` must refuse it rather than advance
  // past traces it never saw.
  EXPECT_THROW(campaign.finish_step(b, std::move(plan)),
               lu::PreconditionError);
  EXPECT_EQ(b.traces_done(), 0u);
}

TEST_F(ParallelCampaignTest, AbandonedStepLeavesTaskIntact) {
  const std::string base = "/tmp/leakydsp_test_abandoned_step";
  std::filesystem::remove_all(base);
  StreamWorld reference(scenario_, base + "/run");
  const la::CampaignResult expected = reference.campaign->run(reference.rng);
  const std::string expected_checkpoint = reference.checkpoint();

  // Every step is attempted once and abandoned before it is run for real:
  // some of its blocks run and the plan is dropped, or a block throws
  // part-way. A step writes its task only in finish_step, so neither
  // attempt may show in the result or in the checkpoint bytes.
  std::atomic<bool> fail{false};
  for (const bool throwing : {false, true}) {
    StreamWorld world(scenario_, base + (throwing ? "/throw" : "/drop"));
    la::TraceCampaign& campaign = *world.campaign;
    // Draws nothing and adds no current: the traces stay run()'s.
    campaign.add_interferer(
        [&fail](double, lu::Rng&, std::vector<lpdn::CurrentInjection>&) {
          if (fail) throw std::runtime_error("injected block failure");
        });
    la::TraceCampaign::Task task = campaign.start(world.rng);
    for (bool more = true; more;) {
      const std::size_t done = task.traces_done();
      {
        la::TraceCampaign::StepPlan plan = campaign.plan_step(task);
        ASSERT_GT(plan.block_count(), 2u);
        campaign.run_block(plan, 0);
        if (throwing) {
          fail = true;
          EXPECT_THROW(campaign.run_block(plan, 1), std::runtime_error);
          fail = false;
          EXPECT_THROW(campaign.finish_step(task, std::move(plan)),
                       lu::PreconditionError);
        } else {
          campaign.run_block(plan, plan.block_count() - 1);
        }
      }
      EXPECT_EQ(task.traces_done(), done);
      la::TraceCampaign::StepPlan plan = campaign.plan_step(task);
      for (std::size_t b = 0; b < plan.block_count(); ++b) {
        campaign.run_block(plan, b);
      }
      more = campaign.finish_step(task, std::move(plan));
      campaign.suspend(task);
    }
    const la::CampaignResult got = campaign.take_result(std::move(task));
    EXPECT_TRUE(identical_results(got, expected)) << "throwing=" << throwing;
    // Compared as one bool: a mismatch would otherwise print ~1 MB.
    EXPECT_TRUE(world.checkpoint() == expected_checkpoint)
        << "throwing=" << throwing;
  }
  std::filesystem::remove_all(base);
}

TEST_F(ParallelCampaignTest, RunBlockRejectsABlockThatAlreadyRan) {
  StreamWorld world(scenario_, "");
  const la::TraceCampaign& campaign = *world.campaign;
  la::TraceCampaign::Task task = campaign.start(world.rng);
  la::TraceCampaign::StepPlan plan = campaign.plan_step(task);
  ASSERT_GT(plan.block_count(), 1u);
  campaign.run_block(plan, 1);
  EXPECT_THROW(campaign.run_block(plan, 1), lu::PreconditionError);
  campaign.run_block(plan, 0);
  EXPECT_THROW(campaign.run_block(plan, 0), lu::PreconditionError);
  // A plan with a block left unrun cannot finish.
  EXPECT_THROW(campaign.finish_step(task, std::move(plan)),
               lu::PreconditionError);
}

// ------------------------------------------------ the determinism contract

namespace {

/// One Basys3 campaign, rebuilt from seed 241 on every call: only the
/// core's masking, the block size, the thread count and the checkpoint
/// directory vary. Calls `drive` on the built campaign and its rng.
template <class Drive>
la::CampaignResult contract_campaign(const lsim::Basys3Scenario& scenario,
                                     bool masked, std::size_t block_traces,
                                     std::size_t threads,
                                     const std::string& checkpoint_dir,
                                     Drive&& drive) {
  lu::Rng rng(241);
  const lc::Key key = random_block(rng);
  lv::AesCoreParams aes_params;
  aes_params.current_per_hd_bit = 0.15;  // boosted: breaks within ~1k
  aes_params.masked = masked;
  lv::AesCoreModel aes(key, scenario.aes_site(), scenario.grid(), aes_params);
  lcore::LeakyDspSensor sensor(
      scenario.device(),
      scenario.attack_placements()[lsim::Basys3Scenario::kBestPlacementIndex]);
  lsim::SensorRig rig(scenario.grid(), sensor);
  rig.calibrate(rng);
  la::CampaignConfig config;
  config.max_traces = 512;
  config.break_check_stride = 256;
  config.rank_stride = 256;
  config.block_traces = block_traces;
  config.threads = threads;
  config.keep_final_scores = true;
  config.checkpoint_dir = checkpoint_dir;
  la::TraceCampaign campaign(rig, aes, config);
  return drive(campaign, rng);
}

}  // namespace

TEST_F(ParallelCampaignTest, ResultIndependentOfBlockSizeAndThreadCount) {
  // Readouts are counts, so every CPA sum is an exact integer: neither the
  // block size nor the thread count can change a campaign, masked or not.
  const auto run = [](la::TraceCampaign& campaign, lu::Rng& rng) {
    return campaign.run(rng, /*stop_when_broken=*/false);
  };
  la::CampaignResult reference[2];
  for (const bool masked : {false, true}) {
    reference[masked] = contract_campaign(scenario_, masked, 64, 1, "", run);
    ASSERT_EQ(reference[masked].traces_run, 512u);
    ASSERT_EQ(reference[masked].final_scores.size(), 16u * 256u);
    for (const std::size_t block : {16u, 32u, 64u, 128u}) {
      for (const std::size_t threads : {1u, 2u, 3u, 4u}) {
        if (block == 64 && threads == 1) continue;  // the reference itself
        EXPECT_TRUE(reference[masked] == contract_campaign(scenario_, masked,
                                                           block, threads, "",
                                                           run))
            << "masked=" << masked << " block=" << block
            << " threads=" << threads;
      }
    }
  }
  // The masks change the leakage: the masked core is a different campaign.
  EXPECT_FALSE(reference[0] == reference[1]);

  // A masked campaign suspended after its first step and resumed in a
  // rebuilt world at another thread count (the checkpoint pins the block
  // size) draws its masks from the restored trace_parent and ends where
  // the uninterrupted run does.
  const std::string dir = "/tmp/leakydsp_test_masked_resume";
  std::filesystem::remove_all(dir);
  contract_campaign(scenario_, true, 32, 3, dir,
                    [](la::TraceCampaign& campaign, lu::Rng& rng) {
                      la::TraceCampaign::Task task = campaign.start(rng);
                      la::TraceCampaign::StepPlan plan =
                          campaign.plan_step(task, false);
                      for (std::size_t b = 0; b < plan.block_count(); ++b) {
                        campaign.run_block(plan, b);
                      }
                      EXPECT_TRUE(campaign.finish_step(task, std::move(plan)));
                      campaign.suspend(task);
                      return la::CampaignResult{};
                    });
  const auto resumed = contract_campaign(
      scenario_, true, 32, 2, dir, [](la::TraceCampaign& campaign, lu::Rng&) {
        return campaign.resume(/*stop_when_broken=*/false);
      });
  EXPECT_TRUE(resumed == reference[1]);
  std::filesystem::remove_all(dir);
}
