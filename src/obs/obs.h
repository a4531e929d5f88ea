// Umbrella header of the obs:: observability subsystem — structured
// logging (obs/log.h), the deterministic metrics registry (obs/metrics.h),
// trace spans with Chrome-tracing export (obs/span.h), and the stderr
// progress meter (obs/progress.h) — plus the glue that wires all of it to
// the standard CLI flags every bench and example shares:
//
//   --log-level L   trace|debug|info|warn|error|off   (default off)
//   --log-file P    JSON/human log to a file instead of stderr
//   --log-json      JSON-lines log format
//   --trace-out P   record spans, write Chrome-tracing JSON to P at exit
//
// The progress meter has no shared flag: a driver that starts it lists
// its own `--progress`.
//
// Everything here observes the simulation from the side: no RNG, no
// floating-point state, so flipping any of these flags never changes a
// campaign's byte-identical results (pinned by tests/test_obs.cpp).
#pragma once

#include <string>
#include <vector>

#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/progress.h"
#include "obs/span.h"

namespace leakydsp::util {
class Cli;
class BenchJsonRow;
}  // namespace leakydsp::util

namespace leakydsp::obs {

/// The option-spec entries for the standard observability flags, in
/// util::Cli spec syntax — append to a driver's own spec (or pass as the
/// `extra` spec of the two-list Cli constructor).
std::vector<std::string> cli_options();

/// Applies the standard flags from a parsed command line: configures the
/// global logger, enables span recording when --trace-out is given, and
/// installs the thread-pool start hook so worker shards/rings register
/// eagerly. Returns the --trace-out path ("" when absent) — the driver
/// calls write_trace_out() with it after the run.
std::string apply_cli(const util::Cli& cli);

/// Writes the recorded spans as Chrome-tracing JSON to `path` and prints a
/// one-line confirmation to stdout. No-op when `path` is empty.
void write_trace_out(const std::string& path);

/// Dumps the merged metrics registry into a bench-report row: peak RSS,
/// every counter and gauge by name, and per-histogram summaries
/// ("<name>.count" plus "<name>.le_<edge>"/"<name>.inf" bucket counts).
void fill_bench_metrics(util::BenchJsonRow& row);

/// Registers the calling/worker thread's metric shard and (when tracing)
/// span ring. Installed as the util::ThreadPool start hook by apply_cli().
void register_thread();

}  // namespace leakydsp::obs
