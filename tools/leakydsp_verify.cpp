// leakydsp_verify: the verification front door. Runs every registered
// differential oracle (optimized path vs reference across generated
// configurations, deterministic from --seed) and checks the golden
// regression corpus against the committed golden/*.ldgc files.
//
//   leakydsp_verify                       # all oracles + golden corpus
//   leakydsp_verify --iterations 250      # deeper sweep
//   leakydsp_verify --oracle attack.      # substring-filtered oracles
//   leakydsp_verify --seed S --only-case I --oracle NAME   # replay
//   leakydsp_verify --list                # registry contents
//   leakydsp_verify --bless-golden        # re-record golden files
//
// Exit status 0 iff every selected check passed.
#include <cstdint>
#include <exception>
#include <filesystem>
#include <iostream>
#include <string>
#include <vector>

#include "util/cli.h"
#include "verify/golden.h"
#include "verify/golden_corpus.h"
#include "verify/oracle.h"

#ifndef LEAKYDSP_GOLDEN_DIR
#define LEAKYDSP_GOLDEN_DIR "golden"
#endif

namespace {

namespace lv = leakydsp::verify;

constexpr std::uint64_t kDefaultSeed = 212;
constexpr std::size_t kDefaultIterations = 100;

bool run_oracles(const std::vector<lv::Oracle>& oracles,
                 const std::string& filter, std::uint64_t seed,
                 std::size_t iterations, std::int64_t only_case) {
  bool all_passed = true;
  std::size_t selected = 0;
  for (const auto& oracle : oracles) {
    if (!filter.empty() && oracle.name.find(filter) == std::string::npos) {
      continue;
    }
    ++selected;
    lv::PropertyResult result;
    if (only_case >= 0) {
      result = oracle.run_case(seed, static_cast<std::size_t>(only_case));
    } else {
      result = oracle.run(seed, lv::scaled_iterations(oracle, iterations));
    }
    if (result.passed()) {
      std::cout << "[ OK ] " << oracle.name << " (" << result.iterations
                << " cases, seed " << seed << ")\n";
    } else {
      all_passed = false;
      std::cout << "[FAIL] " << oracle.name << " (" << result.failures
                << " of " << result.iterations << " cases failed)\n"
                << result.failure << "\n";
    }
  }
  if (selected == 0) {
    std::cout << "[FAIL] no oracle matches filter '" << filter << "'\n";
    return false;
  }
  return all_passed;
}

bool check_golden(const std::string& dir, bool bless) {
  const auto corpus = lv::compute_golden_corpus();
  if (bless) {
    std::filesystem::create_directories(dir);
    for (const auto& [name, golden] : corpus) {
      const std::string path = dir + "/" + name;
      lv::save_golden(path, golden);
      std::cout << "[BLESS] wrote " << path << " (" << golden.entries.size()
                << " entries)\n";
    }
    return true;
  }
  bool all_passed = true;
  for (const auto& [name, actual] : corpus) {
    const std::string path = dir + "/" + name;
    try {
      const lv::GoldenFile expected = lv::load_golden(path);
      const auto mismatches = lv::compare_golden(expected, actual);
      if (mismatches.empty()) {
        std::cout << "[ OK ] golden " << name << " (" << actual.entries.size()
                  << " entries)\n";
      } else {
        all_passed = false;
        std::cout << "[FAIL] golden " << name << ":\n";
        for (const auto& m : mismatches) std::cout << "  " << m << "\n";
      }
    } catch (const lv::GoldenFormatError& e) {
      all_passed = false;
      std::cout << "[FAIL] golden " << name << ": " << e.what()
                << "\n  (run with --bless-golden to record a fresh corpus)\n";
    }
  }
  return all_passed;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const leakydsp::util::Cli cli(
        argc, argv,
        {"seed", "iterations", "oracle", "only-case", "golden-dir", "list!",
         "bless-golden!", "skip-golden!", "skip-oracles!"});
    const auto oracles = lv::all_oracles();

    if (cli.get_flag("list")) {
      for (const auto& oracle : oracles) {
        std::cout << oracle.name << " (weight " << oracle.weight << ")\n    "
                  << oracle.contract << "\n";
      }
      return 0;
    }

    const std::uint64_t seed = cli.get_seed("seed", kDefaultSeed);
    const std::size_t iterations =
        cli.get_count("iterations", kDefaultIterations, 1);
    const std::string filter = cli.get_string("oracle", "");
    const std::int64_t only_case = cli.get_int("only-case", -1);
    const std::string golden_dir =
        cli.get_string("golden-dir", LEAKYDSP_GOLDEN_DIR);

    bool ok = true;
    if (!cli.get_flag("skip-oracles")) {
      ok = run_oracles(oracles, filter, seed, iterations, only_case) && ok;
    }
    if (!cli.get_flag("skip-golden") || cli.get_flag("bless-golden")) {
      ok = check_golden(golden_dir, cli.get_flag("bless-golden")) && ok;
    }
    std::cout << (ok ? "VERIFY PASSED" : "VERIFY FAILED") << "\n";
    return ok ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "leakydsp_verify: " << e.what() << "\n";
    return 2;
  }
}
