// Deterministic runtime metrics: counters, gauges, and fixed-bucket
// histograms in a process-wide registry.
//
// Counters and histogram buckets accumulate into thread-local shards —
// each worker increments cells only it writes, so the hot path is an
// uncontended relaxed atomic add with no locks and no cache-line
// ping-pong. snapshot() merges the shards; because every sharded value is
// an integer sum, the merge is permutation-invariant, so totals are
// identical for every thread count and schedule (shards still enumerate
// in registration order for definiteness). Metrics observe the
// simulation, never feed back into it: no RNG, no floating-point state —
// enabling them cannot perturb the byte-identical determinism contract
// (pinned by tests/test_obs.cpp).
//
// Instrument through the OBS_COUNT / OBS_GAUGE_SET / OBS_HISTO /
// OBS_SCOPED_HISTO_MS macros: each call site registers its metric once
// (magic static) and then pays only the shard add. With
// -DLEAKYDSP_OBS=OFF the macros compile away entirely.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace leakydsp::obs {

/// The metric registry. Use Registry::global(); the type is exposed (not a
/// pure singleton facade) so tests can exercise reset()/snapshot() cleanly.
class Registry {
 public:
  using MetricId = std::uint32_t;

  static Registry& global();

  Registry();
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Registers (or finds) a monotonically increasing counter.
  MetricId counter(const std::string& name);

  /// Registers (or finds) the labeled child of counter `base`, named
  /// `base{id="<label>"}` — how the campaign service attributes shared
  /// counters (blocks run, traces, evictions) to individual campaigns. At
  /// most `max_labels` distinct labels register per base; every further
  /// label collapses into the shared `base{id="~other"}` child, so an
  /// unbounded label population (thousands of campaign ids) can never
  /// exhaust the fixed-capacity registry. The cap is per base and fixed by
  /// the first call for that base.
  MetricId labeled_counter(const std::string& base, const std::string& label,
                           std::size_t max_labels = 64);

  /// Registers (or finds) a last-write-wins gauge.
  MetricId gauge(const std::string& name);

  /// Registers (or finds) a histogram with the given inclusive bucket
  /// upper edges (ascending; an implicit +inf overflow bucket is always
  /// appended). Re-registering the same name requires identical edges.
  MetricId histogram(const std::string& name, std::vector<double> upper_edges);

  /// Adds to a counter through this thread's shard.
  void add(MetricId counter_id, std::uint64_t n = 1);

  /// Sets a gauge (global, last write wins).
  void set(MetricId gauge_id, std::int64_t value);

  /// Buckets `value` into the histogram: the first bucket whose upper edge
  /// is >= value, else the overflow bucket. The observation also
  /// accumulates into the histogram's running sum (fixed-point micro-units
  /// in a shard cell, so the merge stays a permutation-invariant integer
  /// add). NaN observations are dropped — NaN compares false against every
  /// edge, and silently filing it as "bigger than +inf" would corrupt the
  /// overflow bucket — and counted in the `obs.histogram.nan_dropped`
  /// counter instead (registered lazily on the first NaN).
  void observe(MetricId histogram_id, double value);

  struct HistogramSnapshot {
    std::vector<double> upper_edges;    ///< per finite bucket
    std::vector<std::uint64_t> counts;  ///< edges.size() + 1 (overflow last)
    std::uint64_t total = 0;
    /// Sum of all observations, recovered from the fixed-point shard cell
    /// (1e-6 resolution, values clamped to +-9.2e12 — ample for the
    /// millisecond/iteration/byte magnitudes observed here).
    double sum = 0.0;
  };

  /// Merged totals, each section sorted by metric name — deterministic
  /// output regardless of shard count or merge order.
  struct Snapshot {
    std::vector<std::pair<std::string, std::uint64_t>> counters;
    std::vector<std::pair<std::string, std::int64_t>> gauges;
    std::vector<std::pair<std::string, HistogramSnapshot>> histograms;
  };
  Snapshot snapshot() const;

  /// Merged total of one counter (0 when unregistered) — the cheap probe
  /// the progress meter and tests use.
  std::uint64_t counter_value(const std::string& name) const;

  /// Shards allocated so far. A thread's first add takes the shard of an
  /// exited thread when one is idle (global registry), so this stays at
  /// the peak number of threads that recorded at once.
  std::size_t shard_count() const;

  /// Zeroes every cell in every shard and every gauge; registrations (and
  /// their ids) survive. Call only while no worker is concurrently adding.
  void reset();

  /// Eagerly creates the calling thread's shard (otherwise created on its
  /// first add/observe). util::ThreadPool workers call this through the
  /// obs thread hook so shards exist in pool-worker order.
  void register_current_thread();

 private:
  friend struct TlsShardCache;  // returns an exiting thread's shard

  enum class Kind { kCounter, kGauge, kHistogram };

  struct Descriptor {
    Kind kind;
    std::string name;
    std::vector<double> edges;  // histograms only
    std::size_t slot = 0;       // first shard cell
    std::size_t cells = 0;      // shard cells occupied
  };

  /// Per-thread cells. Fixed capacity so concurrent snapshot() never races
  /// a reallocation; each atomic is written by exactly one thread.
  struct Shard {
    explicit Shard(std::size_t capacity)
        : cells(std::make_unique<std::atomic<std::uint64_t>[]>(capacity)) {}
    std::unique_ptr<std::atomic<std::uint64_t>[]> cells;
  };

  static constexpr std::size_t kShardCells = 4096;
  static constexpr std::size_t kMaxMetrics = 512;

  MetricId register_metric(Kind kind, const std::string& name,
                           std::vector<double> edges);
  Shard& local_shard();
  Shard& shard_for_current_thread_locked();

  /// Labels already admitted per labeled-counter base, plus the cap the
  /// base was first registered with.
  struct LabelSet {
    std::size_t max_labels = 0;
    std::vector<std::string> labels;
  };

  const std::uint64_t serial_;  ///< invalidates stale thread-local caches
  mutable std::mutex mutex_;    ///< registrations, shard list, gauges
  std::vector<Descriptor> metrics_;
  std::vector<std::pair<std::string, LabelSet>> label_sets_;
  std::size_t next_slot_ = 0;
  std::vector<std::unique_ptr<Shard>> shards_;  ///< registration order
  /// Shards of exited threads, handed to the next new thread (global
  /// registry only: a thread may outlive a test-local registry).
  std::vector<Shard*> idle_shards_;
  std::vector<std::int64_t> gauges_;
};

/// RAII scope timer feeding a duration histogram in milliseconds.
class ScopedHistogramTimer {
 public:
  explicit ScopedHistogramTimer(Registry::MetricId histogram_id)
      : id_(histogram_id), start_(std::chrono::steady_clock::now()) {}
  ~ScopedHistogramTimer() {
    const double ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - start_)
            .count();
    Registry::global().observe(id_, ms);
  }
  ScopedHistogramTimer(const ScopedHistogramTimer&) = delete;
  ScopedHistogramTimer& operator=(const ScopedHistogramTimer&) = delete;

 private:
  Registry::MetricId id_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace leakydsp::obs

#if defined(LEAKYDSP_OBS)
#define OBS_DETAIL_CONCAT2(a, b) a##b
#define OBS_DETAIL_CONCAT(a, b) OBS_DETAIL_CONCAT2(a, b)

/// Adds `n` to counter `name` (registered once per call site).
#define OBS_COUNT(name, n)                                       \
  do {                                                           \
    static const ::leakydsp::obs::Registry::MetricId obs_mid_ =  \
        ::leakydsp::obs::Registry::global().counter(name);       \
    ::leakydsp::obs::Registry::global().add(                     \
        obs_mid_, static_cast<std::uint64_t>(n));                \
  } while (false)

/// Sets gauge `name` to `v`.
#define OBS_GAUGE_SET(name, v)                                   \
  do {                                                           \
    static const ::leakydsp::obs::Registry::MetricId obs_mid_ =  \
        ::leakydsp::obs::Registry::global().gauge(name);         \
    ::leakydsp::obs::Registry::global().set(                     \
        obs_mid_, static_cast<std::int64_t>(v));                 \
  } while (false)

/// Observes `v` into histogram `name` with inclusive upper edges
/// `{edges...}`.
#define OBS_HISTO(name, edges, v)                                \
  do {                                                           \
    static const ::leakydsp::obs::Registry::MetricId obs_mid_ =  \
        ::leakydsp::obs::Registry::global().histogram(           \
            name, std::vector<double> edges);                    \
    ::leakydsp::obs::Registry::global().observe(                 \
        obs_mid_, static_cast<double>(v));                       \
  } while (false)

/// Times the rest of the enclosing scope into histogram `name` [ms].
#define OBS_SCOPED_HISTO_MS(name, edges)                                      \
  static const ::leakydsp::obs::Registry::MetricId OBS_DETAIL_CONCAT(         \
      obs_shid_, __LINE__) =                                                  \
      ::leakydsp::obs::Registry::global().histogram(name,                     \
                                                    std::vector<double>       \
                                                        edges);               \
  const ::leakydsp::obs::ScopedHistogramTimer OBS_DETAIL_CONCAT(obs_sht_,     \
                                                                __LINE__)(    \
      OBS_DETAIL_CONCAT(obs_shid_, __LINE__))
#else
#define OBS_COUNT(name, n) \
  do {                     \
  } while (false)
#define OBS_GAUGE_SET(name, v) \
  do {                         \
  } while (false)
#define OBS_HISTO(name, edges, v) \
  do {                            \
  } while (false)
#define OBS_SCOPED_HISTO_MS(name, edges) \
  do {                                   \
  } while (false)
#endif
