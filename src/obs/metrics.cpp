#include "obs/metrics.h"

#include <algorithm>
#include <cmath>

#include "util/contracts.h"

namespace leakydsp::obs {

namespace {

/// Fixed-point scale of the per-histogram sum cell: integer micro-units
/// keep the shard merge a permutation-invariant integer add while losing
/// nothing at the millisecond/iteration magnitudes observed here.
constexpr double kSumScale = 1e6;
constexpr double kSumClamp = 9.2e18 / kSumScale;  // int64 headroom

std::uint64_t next_registry_serial() {
  static std::atomic<std::uint64_t> serial{1};
  return serial.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

/// Thread-local pointer to this thread's shard of one registry. The serial
/// guards against a stale cache when a (test-local) registry is destroyed
/// and another allocated at the same address. When the thread exits, a
/// shard of the global registry goes back to it for the next new thread:
/// its cells keep their counts (the merge sums every shard) and take the
/// new thread's adds on top, so a process that starts a thread pool per
/// run holds one shard per concurrent thread, not one per thread started.
struct TlsShardCache {
  std::uint64_t serial = 0;
  void* shard = nullptr;

  ~TlsShardCache() {
    if (shard == nullptr) return;
    Registry& global = Registry::global();
    if (serial != global.serial_) return;
    std::lock_guard<std::mutex> lock(global.mutex_);
    global.idle_shards_.push_back(static_cast<Registry::Shard*>(shard));
  }
};

namespace {
thread_local TlsShardCache tls_cache;
}  // namespace

Registry& Registry::global() {
  static Registry* registry = new Registry();  // immortal: threads may
  return *registry;                            // outlive static teardown
}

Registry::Registry() : serial_(next_registry_serial()) {
  // add()/observe() read metrics_[id] without the lock; pre-reserving
  // guarantees push_back never reallocates under them, and the id itself
  // is published through each call site's magic-static guard.
  metrics_.reserve(kMaxMetrics);
  gauges_.reserve(kMaxMetrics);
}

Registry::MetricId Registry::register_metric(Kind kind,
                                             const std::string& name,
                                             std::vector<double> edges) {
  LD_REQUIRE(!name.empty(), "metric needs a name");
  std::lock_guard<std::mutex> lock(mutex_);
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    if (metrics_[i].name != name) continue;
    LD_REQUIRE(metrics_[i].kind == kind,
               "metric '" << name << "' re-registered as a different kind");
    LD_REQUIRE(metrics_[i].edges == edges,
               "histogram '" << name << "' re-registered with other edges");
    return static_cast<MetricId>(i);
  }
  LD_REQUIRE(metrics_.size() < kMaxMetrics,
             "metric registry full registering '" << name << "'");
  Descriptor d;
  d.kind = kind;
  d.name = name;
  if (kind == Kind::kHistogram) {
    LD_REQUIRE(!edges.empty(), "histogram '" << name << "' needs edges");
    LD_REQUIRE(std::is_sorted(edges.begin(), edges.end()),
               "histogram '" << name << "' edges must ascend");
    d.edges = std::move(edges);
    d.cells = d.edges.size() + 2;  // + overflow + fixed-point sum
  } else if (kind == Kind::kCounter) {
    d.cells = 1;
  } else {
    gauges_.push_back(0);
    d.slot = gauges_.size() - 1;
  }
  if (d.cells > 0) {
    LD_REQUIRE(next_slot_ + d.cells <= kShardCells,
               "metric shard capacity exhausted registering '" << name
                                                               << "'");
    d.slot = next_slot_;
    next_slot_ += d.cells;
  }
  metrics_.push_back(std::move(d));
  return static_cast<MetricId>(metrics_.size() - 1);
}

Registry::MetricId Registry::counter(const std::string& name) {
  return register_metric(Kind::kCounter, name, {});
}

Registry::MetricId Registry::labeled_counter(const std::string& base,
                                             const std::string& label,
                                             std::size_t max_labels) {
  LD_REQUIRE(!base.empty(), "labeled counter needs a base name");
  LD_REQUIRE(max_labels >= 1, "labeled counter needs room for one label");
  std::string admitted = label;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    LabelSet* set = nullptr;
    for (auto& [name, labels] : label_sets_) {
      if (name == base) {
        set = &labels;
        break;
      }
    }
    if (set == nullptr) {
      label_sets_.emplace_back(base, LabelSet{max_labels, {}});
      set = &label_sets_.back().second;
    }
    if (std::find(set->labels.begin(), set->labels.end(), admitted) ==
        set->labels.end()) {
      // Admission check happens before insertion, so "~other" occupies a
      // slot beyond the cap and stays shared by every overflow label.
      if (set->labels.size() >= set->max_labels) admitted = "~other";
      if (std::find(set->labels.begin(), set->labels.end(), admitted) ==
          set->labels.end()) {
        set->labels.push_back(admitted);
      }
    }
  }
  // register_metric re-takes the mutex; the label decision above is
  // already published, so a racing caller of the same (base, label) lands
  // on the same metric name.
  return register_metric(Kind::kCounter,
                         base + "{id=\"" + admitted + "\"}", {});
}

Registry::MetricId Registry::gauge(const std::string& name) {
  return register_metric(Kind::kGauge, name, {});
}

Registry::MetricId Registry::histogram(const std::string& name,
                                       std::vector<double> upper_edges) {
  return register_metric(Kind::kHistogram, name, std::move(upper_edges));
}

Registry::Shard& Registry::shard_for_current_thread_locked() {
  if (!idle_shards_.empty()) {
    Shard& shard = *idle_shards_.back();
    idle_shards_.pop_back();
    return shard;
  }
  shards_.push_back(std::make_unique<Shard>(kShardCells));
  Shard& shard = *shards_.back();
  for (std::size_t i = 0; i < kShardCells; ++i) {
    shard.cells[i].store(0, std::memory_order_relaxed);
  }
  return shard;
}

Registry::Shard& Registry::local_shard() {
  if (tls_cache.serial == serial_) {
    return *static_cast<Shard*>(tls_cache.shard);
  }
  std::lock_guard<std::mutex> lock(mutex_);
  Shard& shard = shard_for_current_thread_locked();
  tls_cache.serial = serial_;
  tls_cache.shard = &shard;
  return shard;
}

void Registry::register_current_thread() { (void)local_shard(); }

void Registry::add(MetricId counter_id, std::uint64_t n) {
  Shard& shard = local_shard();
  // The slot is immutable once registered; no lock needed to read it.
  const std::size_t slot = metrics_[counter_id].slot;
  shard.cells[slot].fetch_add(n, std::memory_order_relaxed);
}

void Registry::set(MetricId gauge_id, std::int64_t value) {
  std::lock_guard<std::mutex> lock(mutex_);
  gauges_[metrics_[gauge_id].slot] = value;
}

void Registry::observe(MetricId histogram_id, double value) {
  if (std::isnan(value)) {
    // NaN compares false against every edge, so the old fall-through filed
    // it in the overflow bucket as if it were a huge observation. Drop it
    // and count the drop where a scrape can see it (rare path: the
    // registration lookup per call is fine here).
    add(counter("obs.histogram.nan_dropped"), 1);
    return;
  }
  Shard& shard = local_shard();
  const Descriptor& d = metrics_[histogram_id];
  std::size_t bucket = d.edges.size();  // overflow
  for (std::size_t i = 0; i < d.edges.size(); ++i) {
    if (value <= d.edges[i]) {
      bucket = i;
      break;
    }
  }
  shard.cells[d.slot + bucket].fetch_add(1, std::memory_order_relaxed);
  // Running sum in fixed point: the uint64 add wraps exactly like int64
  // two's complement, so negative observations subtract correctly.
  const double clamped = std::clamp(value, -kSumClamp, kSumClamp);
  const auto scaled = static_cast<std::uint64_t>(
      static_cast<std::int64_t>(std::llround(clamped * kSumScale)));
  shard.cells[d.slot + d.cells - 1].fetch_add(scaled,
                                              std::memory_order_relaxed);
}

Registry::Snapshot Registry::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  Snapshot snap;
  for (const Descriptor& d : metrics_) {
    if (d.kind == Kind::kGauge) {
      snap.gauges.emplace_back(d.name, gauges_[d.slot]);
      continue;
    }
    // Merge shards in registration order. Integer sums are permutation-
    // invariant, so the totals cannot depend on the schedule.
    std::vector<std::uint64_t> cells(d.cells, 0);
    for (const auto& shard : shards_) {
      for (std::size_t c = 0; c < d.cells; ++c) {
        cells[c] += shard->cells[d.slot + c].load(std::memory_order_relaxed);
      }
    }
    if (d.kind == Kind::kCounter) {
      snap.counters.emplace_back(d.name, cells[0]);
    } else {
      HistogramSnapshot h;
      h.upper_edges = d.edges;
      h.sum = static_cast<double>(static_cast<std::int64_t>(cells.back())) /
              kSumScale;
      cells.pop_back();  // the sum cell is not a bucket
      h.counts = std::move(cells);
      for (const std::uint64_t c : h.counts) h.total += c;
      snap.histograms.emplace_back(d.name, std::move(h));
    }
  }
  const auto by_name = [](const auto& a, const auto& b) {
    return a.first < b.first;
  };
  std::sort(snap.counters.begin(), snap.counters.end(), by_name);
  std::sort(snap.gauges.begin(), snap.gauges.end(), by_name);
  std::sort(snap.histograms.begin(), snap.histograms.end(), by_name);
  return snap;
}

std::size_t Registry::shard_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return shards_.size();
}

std::uint64_t Registry::counter_value(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const Descriptor& d : metrics_) {
    if (d.name != name || d.kind != Kind::kCounter) continue;
    std::uint64_t total = 0;
    for (const auto& shard : shards_) {
      total += shard->cells[d.slot].load(std::memory_order_relaxed);
    }
    return total;
  }
  return 0;
}

void Registry::reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& shard : shards_) {
    for (std::size_t i = 0; i < kShardCells; ++i) {
      shard->cells[i].store(0, std::memory_order_relaxed);
    }
  }
  std::fill(gauges_.begin(), gauges_.end(), 0);
}

}  // namespace leakydsp::obs
