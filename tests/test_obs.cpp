// Tests for the obs:: observability subsystem: logger thread safety,
// metric shard-merge determinism across thread counts, histogram bucket
// semantics, span ring overflow policy and Chrome-tracing export — and the
// contract the whole subsystem hangs on: observing a campaign never
// changes its results (DESIGN.md, "Observability").
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "attack/campaign.h"
#include "core/leaky_dsp.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "sim/scenarios.h"
#include "sim/sensor_rig.h"
#include "util/bench_json.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "victim/aes_core.h"

namespace la = leakydsp::attack;
namespace lc = leakydsp::crypto;
namespace lcore = leakydsp::core;
namespace lo = leakydsp::obs;
namespace lsim = leakydsp::sim;
namespace lv = leakydsp::victim;
namespace lu = leakydsp::util;

namespace {

std::string slurp(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(is),
          std::istreambuf_iterator<char>()};
}

/// Restores the global logger/registry/sink to their defaults on scope
/// exit, so obs tests never leak state into each other.
struct ObsStateGuard {
  ~ObsStateGuard() {
    lo::Logger::global().reset();
    lo::Registry::global().reset();
    lo::SpanSink::global().disable();
    lo::SpanSink::global().clear();
  }
};

}  // namespace

// ------------------------------------------------------------------ logger

TEST(ObsLogger, LevelFilteringAndFields) {
  ObsStateGuard guard;
  lo::Logger& logger = lo::Logger::global();
  const std::string path = "obs_logger_fields.log";
  logger.set_file(path);
  logger.set_level(lo::LogLevel::kInfo);
  const std::uint64_t before = logger.lines_logged();

  // Direct Logger API — present in both OBS configurations (the OBS_LOG
  // macro strips under -DLEAKYDSP_OBS=OFF; the library never does).
  logger.log(lo::LogLevel::kDebug, "test", "below the level",
             {lo::f("dropped", true)});
  logger.log(lo::LogLevel::kInfo, "test", "hello",
             {lo::f("path", std::string("/tmp/x")), lo::f("count", 42),
              lo::f("ratio", 1.5), lo::f("ok", true)});
  EXPECT_EQ(logger.lines_logged() - before, 1u);

  logger.reset();
  const std::string text = slurp(path);
  EXPECT_NE(text.find("hello"), std::string::npos);
  EXPECT_NE(text.find("path=\"/tmp/x\""), std::string::npos);
  EXPECT_NE(text.find("count=42"), std::string::npos);
  EXPECT_EQ(text.find("below the level"), std::string::npos);
  std::remove(path.c_str());
}

TEST(ObsLogger, JsonLinesSinkIsWellFormedPerLine) {
  ObsStateGuard guard;
  lo::Logger& logger = lo::Logger::global();
  const std::string path = "obs_logger_json.log";
  logger.set_file(path);
  logger.set_json(true);
  logger.set_level(lo::LogLevel::kWarn);
  logger.log(lo::LogLevel::kError, "store", "short \"write\"",
             {lo::f("errno", 28), lo::f("file", std::string("a\"b"))});
  logger.reset();

  const std::string text = slurp(path);
  EXPECT_NE(text.find("\"level\":\"error\""), std::string::npos);
  EXPECT_NE(text.find("\"component\":\"store\""), std::string::npos);
  EXPECT_NE(text.find("\"errno\":28"), std::string::npos);
  EXPECT_NE(text.find("short \\\"write\\\""), std::string::npos);
  std::remove(path.c_str());
}

TEST(ObsLogger, ConcurrentLoggingUnderThePoolKeepsLinesIntact) {
  ObsStateGuard guard;
  lo::Logger& logger = lo::Logger::global();
  const std::string path = "obs_logger_mt.log";
  logger.set_file(path);
  logger.set_level(lo::LogLevel::kInfo);
  const std::uint64_t before = logger.lines_logged();

  constexpr std::size_t kEvents = 600;
  lu::ThreadPool pool(8);
  pool.parallel_for(kEvents, [&](std::size_t i) {
    logger.log(lo::LogLevel::kInfo, "mt", "event", {lo::f("i", i)});
  });
  EXPECT_EQ(logger.lines_logged() - before, kEvents);
  logger.reset();

  // Every event lands on its own intact line: sink writes are serialized,
  // so no interleaving or torn lines.
  std::ifstream is(path);
  std::size_t lines = 0;
  std::string line;
  while (std::getline(is, line)) {
    EXPECT_NE(line.find("mt: event"), std::string::npos) << line;
    ++lines;
  }
  EXPECT_EQ(lines, kEvents);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------- registry

TEST(ObsRegistry, CountersMergeAcrossThreadShards) {
  ObsStateGuard guard;
  lo::Registry& reg = lo::Registry::global();
  reg.reset();
  const auto id = reg.counter("test.merge");
  for (const std::size_t threads : {1u, 4u, 8u}) {
    const std::uint64_t before = reg.counter_value("test.merge");
    lu::ThreadPool pool(threads);
    pool.parallel_for(1000, [&](std::size_t) { reg.add(id, 3); });
    EXPECT_EQ(reg.counter_value("test.merge") - before, 3000u)
        << threads << " threads";
  }
}

TEST(ObsRegistry, ExitedThreadsHandTheirShardsOn) {
  // A process that starts a pool per run (one campaign service per drain)
  // must not grow the registry by a shard per worker it ever started.
  ObsStateGuard guard;
  lo::Registry& reg = lo::Registry::global();
  const auto id = reg.counter("test.shard_reuse");
  const std::uint64_t before = reg.counter_value("test.shard_reuse");
  const std::size_t shards = reg.shard_count();
  for (int run = 0; run < 20; ++run) {
    // Each index waits until all three have started, so the caller and
    // both workers record once in every run.
    std::atomic<int> arrived{0};
    lu::ThreadPool pool(3);
    pool.parallel_for(3, [&](std::size_t) {
      reg.add(id, 1);
      arrived.fetch_add(1);
      while (arrived.load() < 3) std::this_thread::yield();
    });
  }
  // One shard each for the two workers and the calling thread at most.
  EXPECT_LE(reg.shard_count(), shards + 3);
  EXPECT_EQ(reg.counter_value("test.shard_reuse") - before, 60u);
}

TEST(ObsRegistry, GaugeLastWriteWins) {
  ObsStateGuard guard;
  lo::Registry& reg = lo::Registry::global();
  reg.reset();
  const auto id = reg.gauge("test.gauge");
  reg.set(id, 7);
  reg.set(id, -3);
  const auto snap = reg.snapshot();
  bool found = false;
  for (const auto& [name, value] : snap.gauges) {
    if (name == "test.gauge") {
      EXPECT_EQ(value, -3);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(ObsRegistry, HistogramBucketsUseInclusiveUpperEdges) {
  ObsStateGuard guard;
  lo::Registry& reg = lo::Registry::global();
  reg.reset();
  const auto id = reg.histogram("test.histo", {1.0, 10.0, 100.0});
  reg.observe(id, 0.5);    // <= 1       -> bucket 0
  reg.observe(id, 1.0);    // == edge    -> bucket 0 (inclusive)
  reg.observe(id, 1.0001); // > 1, <= 10 -> bucket 1
  reg.observe(id, 100.0);  // == edge    -> bucket 2
  reg.observe(id, 1e6);    // > all      -> overflow
  const auto snap = reg.snapshot();
  bool found = false;
  for (const auto& [name, h] : snap.histograms) {
    if (name != "test.histo") continue;
    found = true;
    ASSERT_EQ(h.upper_edges, (std::vector<double>{1.0, 10.0, 100.0}));
    ASSERT_EQ(h.counts.size(), 4u);  // 3 finite + overflow
    EXPECT_EQ(h.counts[0], 2u);
    EXPECT_EQ(h.counts[1], 1u);
    EXPECT_EQ(h.counts[2], 1u);
    EXPECT_EQ(h.counts[3], 1u);
    EXPECT_EQ(h.total, 5u);
  }
  EXPECT_TRUE(found);
}

TEST(ObsRegistry, ReRegisteringSameNameReturnsSameId) {
  ObsStateGuard guard;
  lo::Registry& reg = lo::Registry::global();
  const auto a = reg.counter("test.same");
  const auto b = reg.counter("test.same");
  EXPECT_EQ(a, b);
}

TEST(ObsRegistry, LabeledCounterCapsLabelsAndCollapsesOverflow) {
  // Per-campaign child counters: distinct labels admit up to the base's
  // cap, every further label collapses into one shared "~other" child so
  // an unbounded id population can never exhaust the fixed registry.
  lo::Registry reg;
  const auto a = reg.labeled_counter("svc.steps", "alpha", 2);
  const auto b = reg.labeled_counter("svc.steps", "beta", 2);
  const auto c = reg.labeled_counter("svc.steps", "gamma", 2);  // over cap
  const auto d = reg.labeled_counter("svc.steps", "delta", 2);  // over cap
  EXPECT_NE(a, b);
  EXPECT_EQ(c, d) << "overflow labels must share the ~other child";
  EXPECT_EQ(reg.labeled_counter("svc.steps", "alpha", 2), a)
      << "re-registering an admitted label must return its id";
  reg.add(a, 2);
  reg.add(b, 3);
  reg.add(c);
  reg.add(d);
  EXPECT_EQ(reg.counter_value("svc.steps{id=\"alpha\"}"), 2u);
  EXPECT_EQ(reg.counter_value("svc.steps{id=\"beta\"}"), 3u);
  EXPECT_EQ(reg.counter_value("svc.steps{id=\"~other\"}"), 2u);
  // The cap is per base: a fresh base gets its own label budget.
  const auto other_base = reg.labeled_counter("svc.evictions", "alpha", 2);
  EXPECT_NE(other_base, a);
  reg.add(other_base, 7);
  EXPECT_EQ(reg.counter_value("svc.evictions{id=\"alpha\"}"), 7u);
}

TEST(ObsRegistry, SnapshotSectionsAreNameSorted) {
  ObsStateGuard guard;
  lo::Registry& reg = lo::Registry::global();
  reg.reset();
  reg.add(reg.counter("test.zz"), 1);
  reg.add(reg.counter("test.aa"), 1);
  const auto snap = reg.snapshot();
  for (std::size_t i = 1; i < snap.counters.size(); ++i) {
    EXPECT_LT(snap.counters[i - 1].first, snap.counters[i].first);
  }
}

// ------------------------------------------------------------------- spans

TEST(ObsSpans, RingDropsNewestOnOverflowAndCountsDrops) {
  ObsStateGuard guard;
  lo::SpanSink& sink = lo::SpanSink::global();
  sink.clear();
  sink.enable(/*capacity_per_thread=*/16);
  for (int i = 0; i < 40; ++i) {
    lo::Span span("overflow.test");
  }
  sink.disable();
  EXPECT_EQ(sink.size(), 16u);       // prefix intact
  EXPECT_EQ(sink.dropped(), 24u);    // the rest counted, not silently lost
  const auto events = sink.events();
  ASSERT_EQ(events.size(), 16u);
  for (const auto& e : events) EXPECT_STREQ(e.name, "overflow.test");
}

TEST(ObsSpans, DisabledSinkRecordsNothing) {
  ObsStateGuard guard;
  lo::SpanSink& sink = lo::SpanSink::global();
  sink.clear();
  { OBS_SPAN("never.recorded"); }
  EXPECT_EQ(sink.size(), 0u);
}

TEST(ObsSpans, ChromeTraceExportIsLoadableJson) {
  ObsStateGuard guard;
  lo::SpanSink& sink = lo::SpanSink::global();
  sink.clear();
  sink.enable(64);
  lu::ThreadPool pool(4);
  pool.parallel_for(8, [&](std::size_t) { lo::Span span("pool.work"); });
  sink.disable();
  const std::string path = "obs_spans_chrome.json";
  sink.write_chrome_trace(path);
  const std::string text = slurp(path);
  EXPECT_EQ(text.front(), '{');
  EXPECT_NE(text.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(text.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(text.find("pool.work"), std::string::npos);
  EXPECT_NE(text.find("thread_name"), std::string::npos);
  // Balanced braces/brackets — the structural smoke a parser would choke on.
  EXPECT_EQ(std::count(text.begin(), text.end(), '{'),
            std::count(text.begin(), text.end(), '}'));
  EXPECT_EQ(std::count(text.begin(), text.end(), '['),
            std::count(text.begin(), text.end(), ']'));
  std::remove(path.c_str());
}

// -------------------------------------------- bench-report metrics block

TEST(ObsBenchJson, MetricsBlockSerializesAsTopLevelObject) {
  lu::BenchJson report("obs_test");
  report.row().set("kernel", "k").set("ns_per_op", 1.0);
  report.metrics().set("peak_rss_kb", std::uint64_t{1234});
  const std::string text = report.to_string();
  EXPECT_NE(text.find("\"metrics\": {\"peak_rss_kb\": 1234}"),
            std::string::npos);
  // metrics must be a sibling of results, not inside it.
  EXPECT_LT(text.find("\"metrics\""), text.find("\"results\""));
}

TEST(ObsBenchJson, PeakRssIsPlausible) {
  const std::uint64_t rss = lu::peak_rss_kb();
  // A running process resident set is at least ~1 MB on any Linux.
  EXPECT_GT(rss, 1024u);
}

#if defined(LEAKYDSP_OBS)

// --------------------------------- campaign instrumentation + determinism

namespace {

la::CampaignResult run_campaign(std::size_t threads) {
  // Identical fixture to test_parallel.cpp's ParallelCampaignTest: only
  // config.threads (and whatever observability the caller enabled) vary.
  lsim::Basys3Scenario scenario;
  lu::Rng rng(212);
  lc::Key key;
  for (auto& byte : key) byte = static_cast<std::uint8_t>(rng() & 0xff);
  lv::AesCoreParams aes_params;
  aes_params.current_per_hd_bit = 0.15;  // boosted: breaks within ~1k
  lv::AesCoreModel aes(key, scenario.aes_site(), scenario.grid(), aes_params);
  lcore::LeakyDspSensor sensor(
      scenario.device(),
      scenario.attack_placements()[lsim::Basys3Scenario::kBestPlacementIndex]);
  lsim::SensorRig rig(scenario.grid(), sensor);
  rig.calibrate(rng);
  la::CampaignConfig config;
  config.max_traces = 1500;
  config.break_check_stride = 250;
  config.rank_stride = 500;
  config.threads = threads;
  la::TraceCampaign campaign(rig, aes, config);
  return campaign.run(rng);
}

/// Counters whose totals the determinism contract pins across thread
/// counts (gauges and latency histograms legitimately vary).
const char* const kPinnedCounters[] = {
    "campaign.traces_sampled", "rng.draws", "cpa.add_traces.calls",
    "cpa.traces_accumulated",  "pdn.solve.calls",
};

std::vector<std::pair<std::string, std::uint64_t>> pinned_counter_totals() {
  std::vector<std::pair<std::string, std::uint64_t>> out;
  for (const char* name : kPinnedCounters) {
    out.emplace_back(name, lo::Registry::global().counter_value(name));
  }
  return out;
}

}  // namespace

TEST(ObsCampaign, CounterTotalsIdenticalAcrossThreadCounts) {
  ObsStateGuard guard;
  lo::Registry::global().reset();
  run_campaign(1);
  const auto serial = pinned_counter_totals();
  EXPECT_GT(serial[0].second, 0u) << "campaign.traces_sampled never counted";
  EXPECT_GT(serial[1].second, 0u) << "rng.draws never counted";

  for (const std::size_t threads : {4u, 8u}) {
    lo::Registry::global().reset();
    run_campaign(threads);
    EXPECT_EQ(pinned_counter_totals(), serial) << threads << " threads";
  }
}

TEST(ObsCampaign, CpaBatchHistogramShowsFullBlocks) {
  // Regression guard for the batching bug where campaign traces trickled
  // into the CPA one at a time: the cpa.batch_traces histogram must show
  // zero single-trace batches and (almost) every batch at the campaign's
  // full 64-trace block size — a short remainder block is the only other
  // legal entry.
  ObsStateGuard guard;
  lo::Registry::global().reset();
  run_campaign(1);
  const auto snap = lo::Registry::global().snapshot();
  const auto it = std::find_if(
      snap.histograms.begin(), snap.histograms.end(),
      [](const auto& h) { return h.first == "cpa.batch_traces"; });
  ASSERT_NE(it, snap.histograms.end()) << "cpa.batch_traces never observed";
  const auto& h = it->second;
  ASSERT_EQ(h.upper_edges.size(), 8u);  // {1,8,16,32,64,128,256,512}
  EXPECT_GT(h.total, 0u);
  EXPECT_EQ(h.counts[0], 0u) << "single-trace add_traces batches observed";
  // The le_64 bucket (index 4) is the full-block bin for the default
  // 64-trace campaign block; everything except at most one remainder
  // batch per checkpoint-bounded segment must land there.
  EXPECT_GE(h.counts[4], h.total - 2) << "undersized CPA batches dominate";
}

TEST(ObsCampaign, FullObservabilityDoesNotPerturbResults) {
  ObsStateGuard guard;
  // Baseline: everything off (the default).
  const la::CampaignResult plain = run_campaign(4);

  // Everything on: debug logging to a file, metrics implicitly recording
  // (they always do when compiled in), span tracing enabled.
  const std::string log_path = "obs_campaign_determinism.log";
  lo::Logger::global().set_file(log_path);
  lo::Logger::global().set_level(lo::LogLevel::kDebug);
  lo::SpanSink::global().enable();
  const la::CampaignResult observed = run_campaign(4);
  lo::SpanSink::global().disable();
  lo::Logger::global().reset();

  EXPECT_TRUE(plain == observed)
      << "observability must never feed back into the simulation";
  EXPECT_GT(lo::SpanSink::global().size(), 0u);
  std::remove(log_path.c_str());
}

TEST(ObsCampaign, SpansCoverTheMajorPhases) {
  ObsStateGuard guard;
  lo::SpanSink::global().clear();
  lo::SpanSink::global().enable();
  run_campaign(2);
  lo::SpanSink::global().disable();
  const auto events = lo::SpanSink::global().events();
  bool supply = false;
  bool sample = false;
  bool cpa = false;
  for (const auto& e : events) {
    const std::string name = e.name;
    supply = supply || name == "pdn.supply_solve";
    sample = sample || name == "sensor.sample";
    cpa = cpa || name == "cpa.accumulate";
  }
  EXPECT_TRUE(supply);
  EXPECT_TRUE(sample);
  EXPECT_TRUE(cpa);
}

#endif  // defined(LEAKYDSP_OBS)
