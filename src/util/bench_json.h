// Machine-readable bench reports. Bench drivers whose numbers are compared
// across runs emit a flat BENCH_<name>.json next to their console table, so
// sweep scripts can diff wall times and speedups without scraping stdout.
// The format is one object per measured configuration, all values scalar:
//
//   {"bench": "campaign_scaling", "host": {...}, "results": [...]}
//
// The host object records where the numbers came from (hardware threads,
// compiler, flags, build type), so reports from different machines or
// build configurations are never compared as like for like by accident.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <variant>
#include <vector>

namespace leakydsp::util {

/// Provenance of a bench report: the machine and build that produced it.
struct HostInfo {
  std::uint32_t hardware_threads = 0;  ///< std::thread::hardware_concurrency
  std::string compiler;                ///< compiler id + version
  std::string cxx_flags;               ///< flags the library was built with
  std::string build_type;              ///< CMake build type

  /// The current process's host/build information.
  static HostInfo current();
};

/// One flat record of a bench report; set() returns *this for chaining.
class BenchJsonRow {
 public:
  BenchJsonRow& set(std::string key, std::string value);
  BenchJsonRow& set(std::string key, const char* value);
  BenchJsonRow& set(std::string key, double value);
  BenchJsonRow& set(std::string key, std::int64_t value);
  BenchJsonRow& set(std::string key, std::uint64_t value);
  BenchJsonRow& set(std::string key, bool value);

  using Value =
      std::variant<std::string, double, std::int64_t, std::uint64_t, bool>;

 private:
  friend class BenchJson;
  std::vector<std::pair<std::string, Value>> fields_;
};

/// A bench report: a name plus rows, serialized as pretty-printed JSON.
class BenchJson {
 public:
  explicit BenchJson(std::string bench);

  /// Appends an empty row; fill it through the returned reference.
  BenchJsonRow& row();

  /// The report's run-wide `metrics` object (created on first call):
  /// runtime observability captured alongside the wall times — peak RSS,
  /// RNG draws, kernel invocation counts, histogram summaries
  /// (obs::fill_bench_metrics populates it). Serialized as a top-level
  /// sibling of `host` and `results`.
  BenchJsonRow& metrics();

  /// Host metadata embedded in the report (captured at construction).
  const HostInfo& host() const { return host_; }

  std::string to_string() const;

  /// Writes to_string() to `path`; throws InvariantError on I/O failure.
  void write(const std::string& path) const;

 private:
  std::string bench_;
  HostInfo host_ = HostInfo::current();
  std::vector<BenchJsonRow> rows_;
  std::vector<BenchJsonRow> metrics_;  ///< empty or one row
};

/// Peak resident set size of the current process in kB (VmHWM from
/// /proc/self/status); 0 when the platform does not expose it.
std::uint64_t peak_rss_kb();

}  // namespace leakydsp::util
