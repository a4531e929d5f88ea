#include "obs/obs.h"

#include <iostream>
#include <sstream>

#include "util/bench_json.h"
#include "util/cli.h"
#include "util/thread_pool.h"

namespace leakydsp::obs {

std::vector<std::string> cli_options() {
  return {"log-level", "log-file", "log-json!", "trace-out"};
}

void register_thread() { Registry::global().register_current_thread(); }

std::string apply_cli(const util::Cli& cli) {
  Logger& logger = Logger::global();
  if (cli.has("log-level")) {
    logger.set_level(parse_log_level(cli.get_string("log-level", "off")));
  }
  if (cli.get_flag("log-json")) logger.set_json(true);
  const std::string log_file = cli.get_string("log-file", "");
  if (!log_file.empty()) logger.set_file(log_file);

  const std::string trace_out = cli.get_string("trace-out", "");
  if (!trace_out.empty()) SpanSink::global().enable();

  util::ThreadPool::set_thread_start_hook(
      [](std::size_t) { register_thread(); });
  return trace_out;
}

void write_trace_out(const std::string& path) {
  if (path.empty()) return;
  SpanSink& sink = SpanSink::global();
  sink.write_chrome_trace(path);
  std::cout << "wrote " << path << " (" << sink.size()
            << " spans; open in chrome://tracing or ui.perfetto.dev";
  if (sink.dropped() > 0) {
    std::cout << "; " << sink.dropped() << " dropped on ring overflow";
  }
  std::cout << ")\n";
}

void fill_bench_metrics(util::BenchJsonRow& row) {
  row.set("peak_rss_kb", util::peak_rss_kb());
  const Registry::Snapshot snap = Registry::global().snapshot();
  for (const auto& [name, value] : snap.counters) row.set(name, value);
  for (const auto& [name, value] : snap.gauges) row.set(name, value);
  for (const auto& [name, histo] : snap.histograms) {
    row.set(name + ".count", histo.total);
    for (std::size_t i = 0; i < histo.upper_edges.size(); ++i) {
      std::ostringstream key;
      key << name << ".le_" << histo.upper_edges[i];
      row.set(key.str(), histo.counts[i]);
    }
    row.set(name + ".inf", histo.counts.back());
  }
}

}  // namespace leakydsp::obs
