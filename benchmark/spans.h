// In-memory span recorder for the traced benchmark runs.
//
// The benchmark times each layer from outside, by wrapping calls to that
// layer's public functions in a span: name, start, end and the enclosing
// (parent) span. Replays are single-threaded, so spans nest strictly and a
// span's self time is its duration minus the durations of its direct
// children. Every span is kept in memory and aggregated per name; spans
// that start before the export cutoff are also written as Chrome-trace JSON
// (chrome://tracing, Perfetto).
#pragma once

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace leakydsp::bench {

/// Aggregate of every span sharing one name.
struct LayerStats {
  std::string name;
  std::size_t count = 0;
  double total_ns = 0.0;  ///< summed span durations
  double self_ns = 0.0;   ///< summed durations minus direct children
  double p50_ns = 0.0;    ///< median span duration
  /// Highest of p99/p90 with at least ten samples beyond it; p50 when
  /// there are fewer than 100 spans.
  double tail_ns = 0.0;
  const char* tail_label = "p50";
};

class Tracer {
 public:
  Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// RAII span: opened at construction under the innermost open span,
  /// closed at destruction. `name` must outlive the tracer (a literal). A
  /// null tracer records nothing, so one replay routine serves both the
  /// traced run and its untraced reference.
  class Span {
   public:
    Span(Tracer* tracer, const char* name);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Tracer* tracer_;
    std::int32_t index_ = -1;
  };

  /// Spans opened after the first call are aggregated but not exported:
  /// the Chrome trace covers the first units (traces or jobs) only.
  void stop_export() {
    export_cutoff_ =
        std::min(export_cutoff_, static_cast<std::int32_t>(spans_.size()));
  }

  /// Summed duration of the top-level spans: the time the layers account
  /// for. A replay's unattributed time is its wall time minus this.
  double covered_ns() const;

  std::vector<LayerStats> aggregate() const;

  /// Writes the exported spans as a Chrome-trace JSON array document.
  void write_chrome_trace(const std::string& path) const;

 private:
  struct Record {
    const char* name;
    std::int32_t parent;
    std::int64_t start_ns;
    std::int64_t end_ns;
  };

  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
  }

  std::chrono::steady_clock::time_point epoch_;
  std::vector<Record> spans_;
  std::int32_t open_ = -1;
  std::int32_t export_cutoff_ = std::numeric_limits<std::int32_t>::max();
};

}  // namespace leakydsp::bench
