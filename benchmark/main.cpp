// leakydsp_bench: the simulator's benchmark. Runs one workload (or all of
// them, one after another) and prints every metric as
// `workload metric value unit`, then, as the last line of standard output,
// one JSON object {"correct", "attempted", "failed", "metrics"}.
//
//   leakydsp_bench --workload <name|all> [--seed N] [--seconds S]
//                  [--trace 0|1] [--threads T] [--out FILE] [--smoke]
//                  [--corrupt-replay]
//
// --trace 0 measures the end-to-end metrics; --trace 1 replays each workload
// from public calls under the span recorder and reports the per-layer
// metrics instead. The exit code is non-zero when any output check fails.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "bench.h"
#include "util/bench_json.h"
#include "util/cli.h"
#include "util/cpu_features.h"

using namespace leakydsp;
using namespace leakydsp::bench;

namespace {

struct Workload {
  const char* name;
  void (*untraced)(const Options&, Report&);
  void (*traced)(const Options&, Report&);
};

constexpr Workload kWorkloads[] = {
    {"campaign_long", campaign_long, campaign_long_traced},
    {"service_churn", service_churn, service_churn_traced},
    {"sweep_die320", sweep_die320, sweep_die320_traced},
    {"record_replay", record_replay, record_replay_traced},
};

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string json_number(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// Resets the kernel's peak-RSS mark (VmHWM) so each workload reports its
/// own peak.
void reset_peak_rss() {
  std::ofstream clear_refs("/proc/self/clear_refs");
  clear_refs << "5";
}

/// The per-run scratch directory under the build tree: checkpoints and
/// trace files. Removed on exit, also when a workload throws.
class RunDir {
 public:
  explicit RunDir(std::string path) : path_(std::move(path)) {
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~RunDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  RunDir(const RunDir&) = delete;
  RunDir& operator=(const RunDir&) = delete;
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  Options opts;
  bool traced = false;
  std::string out_path;
  try {
    const util::Cli cli(argc, argv,
                        {"workload", "seed", "seconds", "trace", "threads",
                         "out", "smoke!", "corrupt-replay!"});
    workload = cli.get_string("workload", "all");
    opts.seed = cli.get_seed("seed", 7);
    opts.seconds = cli.get_double("seconds", 20.0);
    const std::int64_t trace = cli.get_int("trace", 0);
    if (trace != 0 && trace != 1) {
      throw std::invalid_argument("--trace must be 0 or 1");
    }
    traced = trace == 1;
    opts.smoke = cli.get_flag("smoke");
    opts.corrupt_replay = cli.get_flag("corrupt-replay");
    out_path = cli.get_string("out", "");
    const std::size_t nproc =
        std::max<std::size_t>(std::thread::hardware_concurrency(), 1);
    opts.threads = cli.has("threads") ? cli.get_threads()
                                      : std::min<std::size_t>(2, nproc);

    const util::HostInfo host = util::HostInfo::current();
    const char* simd_env = std::getenv("LEAKYDSP_SIMD");
    std::cout << "# leakydsp_bench rev " << LEAKYDSP_BENCH_GIT_REV
              << "\n# nproc " << nproc << ", threads " << opts.threads
              << ", seed " << opts.seed << ", seconds " << opts.seconds
              << ", trace " << trace << (opts.smoke ? ", smoke" : "")
              << "\n# simd " << util::to_string(util::current_simd_tier())
              << " (LEAKYDSP_SIMD=" << (simd_env ? simd_env : "unset") << ")"
              << "\n# compiler " << host.compiler << "\n# flags "
              << host.cxx_flags << "\n# build " << host.build_type << "\n";
    if (opts.threads > nproc) {
      std::cerr << "refusing to run: --threads " << opts.threads
                << " exceeds nproc " << nproc << "\n";
      return 2;
    }
    if (host.build_type != "Release") {
      std::cerr << "refusing to run: the library is a '" << host.build_type
                << "' build; configure with -DCMAKE_BUILD_TYPE=Release\n";
      return 2;
    }
    bool known = workload == "all";
    for (const Workload& w : kWorkloads) known = known || workload == w.name;
    if (!known) throw std::invalid_argument("unknown --workload " + workload);
  } catch (const std::exception& e) {
    std::cerr << "leakydsp_bench: " << e.what() << "\n";
    return 2;
  }

  const RunDir run_dir(std::string(LEAKYDSP_BENCH_BUILD_DIR) + "/runs/" +
                       std::to_string(::getpid()));
  opts.run_dir = run_dir.path();
  opts.trace_dir = std::string(LEAKYDSP_BENCH_BUILD_DIR) + "/traces";
  std::filesystem::create_directories(opts.trace_dir);

  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::ostringstream metrics_json;
  std::ostringstream out_json;
  for (const Workload& w : kWorkloads) {
    if (workload != "all" && workload != w.name) continue;
    reset_peak_rss();
    Report report;
    try {
      (traced ? w.traced : w.untraced)(opts, report);
      if (!traced) {
        report.metric("peak_rss_mb",
                      static_cast<double>(util::peak_rss_kb()) / 1024.0, "MiB");
      }
    } catch (const std::exception& e) {
      report.check(false, std::string(w.name) + " threw: " + e.what());
    }
    attempted += report.attempted;
    failed += report.failed;

    const std::string prefix =
        workload == "all" ? std::string(w.name) + "." : "";
    out_json << (out_json.tellp() > 0 ? ",\n" : "") << "  \"" << w.name
             << "\": {\"correct\": " << (report.failed == 0 ? "true" : "false")
             << ", \"attempted\": " << report.attempted
             << ", \"failed\": " << report.failed << ", \"metrics\": {";
    for (std::size_t i = 0; i < report.metrics.size(); ++i) {
      const Report::Metric& m = report.metrics[i];
      std::cout << w.name << " " << m.name << " " << json_number(m.value)
                << " " << m.unit << "\n";
      const std::string value = "{\"value\": " + json_number(m.value) +
                                ", \"unit\": \"" + m.unit + "\"}";
      metrics_json << (metrics_json.tellp() > 0 ? ", " : "") << "\"" << prefix
                   << m.name << "\": " << value;
      out_json << (i == 0 ? "" : ", ") << "\"" << m.name << "\": " << value;
    }
    out_json << "}, \"info\": {";
    for (std::size_t i = 0; i < report.infos.size(); ++i) {
      const auto& [name, value] = report.infos[i];
      std::cout << "# " << w.name << " " << name << " " << value << "\n";
      out_json << (i == 0 ? "" : ", ") << "\"" << name << "\": \""
               << json_escape(value) << "\"";
    }
    out_json << "}}";
  }

  if (!out_path.empty()) {
    std::ofstream out(out_path);
    out << "{\"rev\": \"" << LEAKYDSP_BENCH_GIT_REV << "\", \"seed\": "
        << opts.seed << ", \"threads\": " << opts.threads
        << ", \"trace\": " << (traced ? 1 : 0) << ", \"workloads\": {\n"
        << out_json.str() << "\n}}\n";
    if (!out) std::cerr << "leakydsp_bench: cannot write " << out_path << "\n";
  }
  std::cout << "{\"correct\": " << (failed == 0 ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": {" << metrics_json.str() << "}}" << std::endl;
  return failed == 0 ? 0 : 1;
}
