// leakydsp_benchdiff: regression gate over two BENCH_*.json reports.
// Structurally diffs the metrics block and every results row (matched by
// the row's string-valued fields) under configurable relative thresholds,
// and prints a machine-readable verdict.
//
//   leakydsp_benchdiff --baseline old.json --candidate new.json
//   leakydsp_benchdiff --baseline old.json --candidate new.json
//                      --rel-tol 0.25 --ignore _ms,peak_rss,speedup
//                      --out verdict.json       # (one command line)
//   leakydsp_benchdiff --check-prom scrape.txt
//       # validate a Prometheus text-format scrape instead of diffing
//
// Exit status: 0 = pass, 1 = regression or structural failure,
// 2 = usage/IO/parse error.
#include <exception>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "obs/export.h"
#include "util/bench_diff.h"
#include "util/cli.h"
#include "util/json.h"

using namespace leakydsp;

namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read '" + path + "'");
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// Parses "a=0.1,b=0.5" into substring-keyed tolerance overrides.
std::vector<std::pair<std::string, double>> parse_tols(
    const std::string& text) {
  std::vector<std::pair<std::string, double>> tols;
  std::istringstream in(text);
  std::string item;
  while (std::getline(in, item, ',')) {
    if (item.empty()) continue;
    const std::size_t eq = item.find('=');
    if (eq == std::string::npos) {
      throw std::runtime_error("--tol entries are field=tolerance, got '" +
                               item + "'");
    }
    tols.emplace_back(item.substr(0, eq), std::stod(item.substr(eq + 1)));
  }
  return tols;
}

std::vector<std::string> parse_list(const std::string& text) {
  std::vector<std::string> items;
  std::istringstream in(text);
  std::string item;
  while (std::getline(in, item, ',')) {
    if (!item.empty()) items.push_back(item);
  }
  return items;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const util::Cli cli(argc, argv,
                        {"baseline", "candidate", "rel-tol", "tol", "ignore",
                         "out", "check-prom", "no-metrics!",
                         "allow-missing-rows!", "quiet!"});
    const bool quiet = cli.get_flag("quiet");

    // Scrape-validation mode: check a Prometheus text file and exit.
    if (cli.has("check-prom")) {
      const std::string text = read_file(cli.get_string("check-prom", ""));
      std::string error;
      if (!obs::check_prometheus_text(text, &error)) {
        std::cerr << "leakydsp_benchdiff: invalid exposition text: " << error
                  << "\n";
        return 1;
      }
      if (!quiet) std::cout << "exposition text OK\n";
      return 0;
    }

    const std::string baseline_path = cli.get_string("baseline", "");
    const std::string candidate_path = cli.get_string("candidate", "");
    if (baseline_path.empty() || candidate_path.empty()) {
      std::cerr << "leakydsp_benchdiff: --baseline and --candidate are "
                   "required (or --check-prom)\n";
      return 2;
    }

    const util::JsonValue baseline =
        util::parse_json(read_file(baseline_path));
    const util::JsonValue candidate =
        util::parse_json(read_file(candidate_path));

    util::BenchDiffOptions options;
    options.rel_tol = cli.get_double("rel-tol", 0.10);
    options.field_tols = parse_tols(cli.get_string("tol", ""));
    options.ignore_fields = parse_list(cli.get_string("ignore", ""));
    options.compare_metrics = !cli.get_flag("no-metrics");
    options.allow_missing_rows = cli.get_flag("allow-missing-rows");

    const util::BenchDiffResult result =
        util::diff_bench_reports(baseline, candidate, options);

    const std::string verdict = result.to_json();
    if (!quiet) std::cout << verdict;
    const std::string out_path = cli.get_string("out", "");
    if (!out_path.empty()) {
      std::ofstream out(out_path, std::ios::binary);
      if (!out) throw std::runtime_error("cannot write '" + out_path + "'");
      out << verdict;
    }
    if (!quiet) {
      std::cout << (result.pass ? "PASS" : "FAIL") << ": "
                << result.rows_compared << " row(s), "
                << result.fields_compared << " field(s) compared, "
                << result.errors.size() << " error(s)\n";
    }
    return result.pass ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "leakydsp_benchdiff: " << e.what() << "\n";
    return 2;
  }
}
