// The verification subsystem itself (tier-1): the property harness's
// replay discipline and shrinker, the oracle registry's completeness, and
// a smoke pass of every registered differential oracle at a reduced
// iteration count (leakydsp_verify runs the full sweeps).
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "verify/gen.h"
#include "verify/oracle.h"

namespace lv = leakydsp::verify;

namespace {

/// A property that fails iff value >= threshold — shrinking should walk
/// value down to exactly the threshold.
struct Toy {
  std::int64_t value = 0;
};

lv::Property<Toy> toy_property(std::int64_t threshold) {
  lv::Property<Toy> prop;
  prop.name = "toy.threshold";
  prop.generate = [](leakydsp::util::Rng& rng) {
    return Toy{lv::gen_int(rng, 0, 1000)};
  };
  prop.shrink = [](const Toy& t) {
    std::vector<Toy> out;
    for (const std::int64_t v : lv::shrink_int(t.value, 0)) out.push_back({v});
    return out;
  };
  prop.describe = [](const Toy& t) {
    return "{value=" + std::to_string(t.value) + "}";
  };
  prop.check = [threshold](const Toy& t) {
    return t.value >= threshold
               ? lv::fail("value " + std::to_string(t.value) + " too big")
               : lv::pass();
  };
  return prop;
}

}  // namespace

TEST(PropertyHarness, DeterministicAcrossRuns) {
  const auto prop = toy_property(400);
  const auto a = lv::run_property(prop, 99, 50);
  const auto b = lv::run_property(prop, 99, 50);
  EXPECT_EQ(a.failures, b.failures);
  EXPECT_EQ(a.failing_case, b.failing_case);
  EXPECT_EQ(a.failure, b.failure);
  ASSERT_GT(a.failures, 0u) << "threshold 400 should fail within 50 cases";
}

TEST(PropertyHarness, ShrinksToMinimalCounterexample) {
  // Any failing case must shrink to exactly the threshold: the smallest
  // value that still fails.
  const auto prop = toy_property(123);
  const auto result = lv::run_property(prop, 7, 100);
  ASSERT_FALSE(result.passed());
  EXPECT_NE(result.failure.find("{value=123}"), std::string::npos)
      << result.failure;
  // The report names the replay coordinates.
  EXPECT_NE(result.failure.find("--seed 7"), std::string::npos);
  EXPECT_NE(result.failure.find("--only-case"), std::string::npos);
}

TEST(PropertyHarness, OnlyCaseReplaysTheSweepCase) {
  const auto prop = toy_property(200);
  const auto sweep = lv::run_property(prop, 31, 80);
  ASSERT_FALSE(sweep.passed());
  // Replaying the reported case index alone reproduces the same shrunk
  // counterexample and the same report.
  const auto replay = lv::run_property_case(prop, 31, sweep.failing_case);
  ASSERT_FALSE(replay.passed());
  EXPECT_EQ(replay.failure, sweep.failure);
  // A passing case replays clean.
  std::size_t passing = 0;
  while (passing == sweep.failing_case) ++passing;
  for (; passing < 80; ++passing) {
    const auto one = lv::run_property_case(prop, 31, passing);
    if (one.passed()) return;
  }
  FAIL() << "expected at least one passing case to replay";
}

TEST(PropertyHarness, ThrowingCheckBecomesFailure) {
  lv::Property<Toy> prop = toy_property(0);
  prop.check = [](const Toy&) -> lv::CheckOutcome {
    throw std::runtime_error("contract tripped");
  };
  const auto result = lv::run_property(prop, 1, 3);
  EXPECT_EQ(result.failures, 3u);
  EXPECT_NE(result.failure.find("check threw: contract tripped"),
            std::string::npos);
}

TEST(OracleRegistry, CoversEveryOptimizedReferencePair) {
  const auto oracles = lv::all_oracles();
  std::set<std::string> names;
  for (const auto& oracle : oracles) {
    EXPECT_TRUE(names.insert(oracle.name).second)
        << "duplicate oracle name " << oracle.name;
    EXPECT_FALSE(oracle.contract.empty()) << oracle.name;
    EXPECT_GE(oracle.weight, 1u) << oracle.name;
    EXPECT_TRUE(oracle.run != nullptr) << oracle.name;
    EXPECT_TRUE(oracle.run_case != nullptr) << oracle.name;
  }
  // The registered optimized/reference pairs. Removing one is an API
  // break: every optimized path in the codebase must keep its oracle.
  for (const char* required :
       {"timing.scale_table_vs_pow", "timing.stages_within_scaled_vs_scan",
        "sensors.leakydsp_batch_vs_scalar", "sensors.tdc_batch_vs_scalar",
        "sensors.leakydsp_exact_law",
        "store.v2_roundtrip_vs_memory", "attack.cpa_vs_reference",
        "attack.campaign_parallel_vs_serial",
        "attack.campaign_resume_vs_straight", "fabric.spec_invariants",
        "fabric.generated_vs_hardcoded", "simd.convolve_tiers_bitwise",
        "simd.leakydsp_groups_bitwise", "simd.crc32_tiers_bitwise"}) {
    EXPECT_TRUE(names.count(required)) << "oracle missing: " << required;
  }
}

TEST(OracleRegistry, SmokeSweepEveryOracle) {
  // A reduced sweep of the real oracles — the full 100-case runs belong to
  // leakydsp_verify; this keeps every differential contract in tier-1.
  for (const auto& oracle : lv::all_oracles()) {
    SCOPED_TRACE(oracle.name);
    const auto result = oracle.run(212, 3);
    EXPECT_TRUE(result.passed()) << result.failure;
    EXPECT_EQ(result.iterations, 3u);
  }
}

TEST(OracleRegistry, ScaledIterationsFloorsAtOne) {
  lv::Oracle oracle;
  oracle.weight = 8;
  EXPECT_EQ(lv::scaled_iterations(oracle, 100), 12u);
  EXPECT_EQ(lv::scaled_iterations(oracle, 4), 1u);
}
