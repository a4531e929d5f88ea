// Differential-oracle registry. An oracle pairs an optimized path with its
// reference implementation and checks their agreement contract across a
// generated slice of the parameter space; the registry is the single list
// every runner (leakydsp_verify, the tier-1 property test, CI) iterates,
// so adding an oracle automatically enrolls it everywhere.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "util/cpu_features.h"
#include "verify/gen.h"

namespace leakydsp::verify {

/// Releases the dispatch override on destruction (exception-safe): tier
/// oracles pin each tier in turn and must not leak the last one.
struct TierRelease {
  ~TierRelease() { util::set_simd_tier_override(std::nullopt); }
};

/// Every dispatch tier the running host can execute, ascending.
std::vector<util::SimdTier> available_tiers();

/// One registered differential oracle. `run` executes `iterations`
/// generated configurations from `seed` and reports the standard
/// PropertyResult (replayable seed + shrunk config on failure).
struct Oracle {
  std::string name;      ///< stable id, e.g. "timing.scale_table_vs_pow"
  std::string contract;  ///< one line: optimized path vs reference + bound
  /// Iteration multiplier relative to the runner's --iterations: heavy
  /// oracles (full campaigns per case) run iterations/weight cases, never
  /// fewer than one. weight 1 = every iteration.
  std::size_t weight = 1;
  std::function<PropertyResult(std::uint64_t seed, std::size_t iterations)>
      run;
  /// Replays one case index of the deterministic sweep — the
  /// "--only-case" path printed in failure reports.
  std::function<PropertyResult(std::uint64_t seed, std::size_t case_index)>
      run_case;
};

/// Wraps a Property<Config> into a registry entry.
template <typename Config>
Oracle make_oracle(std::string contract, std::size_t weight,
                   Property<Config> property) {
  Oracle oracle;
  oracle.name = property.name;
  oracle.contract = std::move(contract);
  oracle.weight = weight == 0 ? 1 : weight;
  auto shared = std::make_shared<Property<Config>>(std::move(property));
  oracle.run = [shared](std::uint64_t seed, std::size_t iterations) {
    return run_property(*shared, seed, iterations);
  };
  oracle.run_case = [shared](std::uint64_t seed, std::size_t case_index) {
    return run_property_case(*shared, seed, case_index);
  };
  return oracle;
}

/// Effective case count for an oracle given the runner's base iteration
/// count: iterations / weight, at least 1.
inline std::size_t scaled_iterations(const Oracle& oracle,
                                     std::size_t iterations) {
  const std::size_t scaled = iterations / oracle.weight;
  return scaled == 0 ? 1 : scaled;
}

// Per-domain registrars (one translation unit each; explicit calls instead
// of static-initializer tricks, so a static-library build can never drop
// an oracle silently).
void register_timing_oracles(std::vector<Oracle>& out);
void register_sensor_oracles(std::vector<Oracle>& out);
void register_store_oracles(std::vector<Oracle>& out);
void register_attack_oracles(std::vector<Oracle>& out);
void register_simd_oracles(std::vector<Oracle>& out);
void register_serve_oracles(std::vector<Oracle>& out);
void register_pdn_oracles(std::vector<Oracle>& out);
void register_fabric_oracles(std::vector<Oracle>& out);

/// Every registered oracle, in deterministic order.
std::vector<Oracle> all_oracles();

}  // namespace leakydsp::verify
