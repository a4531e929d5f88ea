// SIMD kernel layer: dispatch-tier selection (cpuid/env/override), bitwise
// agreement of every compiled tier on random inputs (element ops, Hermite
// batch evaluation, CPA panel accumulation), the multi-byte blocked
// CpaAttack::add_traces entry vs 16x single-byte accumulation and vs the
// plain per-trace reference, the batch-split invariance that backs
// byte-identical checkpoints, and the histogram convolution behind the
// key-rank bounds vs the plain dense loop, with the bounds' bits pinned.
//
// This TU is compiled with -ffp-contract=off (tests/CMakeLists.txt): the
// dense convolution below is a bitwise reference and must round every
// product on its own, as the library's pinned kernels do.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <utility>
#include <vector>

#include "attack/cpa.h"
#include "attack/cpa_kernels.h"
#include "attack/key_rank.h"
#include "attack/power_model.h"
#include "crypto/aes128.h"
#include "stats/histogram.h"
#include "timing/delay_model.h"
#include "util/aligned.h"
#include "util/byte_io.h"
#include "util/cpu_features.h"
#include "util/rng.h"
#include "util/simd_ops.h"
#include "verify/cpa_reference.h"

namespace lu = leakydsp::util;
namespace la = leakydsp::attack;
namespace ls = leakydsp::stats;
namespace lt = leakydsp::timing;
namespace simd = leakydsp::util::simd;
namespace lverify = leakydsp::verify;

namespace {

/// Restores the dispatch override (and the LEAKYDSP_SIMD variable) on scope
/// exit so a failing test cannot leak a pinned tier into its neighbors.
class TierGuard {
 public:
  TierGuard() {
    if (const char* env = std::getenv("LEAKYDSP_SIMD")) saved_env_ = env;
  }
  ~TierGuard() {
    lu::set_simd_tier_override(std::nullopt);
    if (saved_env_) {
      ::setenv("LEAKYDSP_SIMD", saved_env_->c_str(), 1);
    } else {
      ::unsetenv("LEAKYDSP_SIMD");
    }
  }

 private:
  std::optional<std::string> saved_env_;
};

/// Every tier the running host can actually execute, ascending.
std::vector<lu::SimdTier> available_tiers() {
  std::vector<lu::SimdTier> tiers{lu::SimdTier::kScalar};
  const lu::SimdTier top = lu::detected_simd_tier();
  if (top >= lu::SimdTier::kAvx2) tiers.push_back(lu::SimdTier::kAvx2);
  if (top >= lu::SimdTier::kAvx512) tiers.push_back(lu::SimdTier::kAvx512);
  return tiers;
}

bool bits_equal(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

#define EXPECT_BITS_EQ(a, b)                                              \
  EXPECT_PRED2(bits_equal, a, b) << "bit patterns differ: " << (a)        \
                                 << " vs " << (b)

}  // namespace

// ---------------------------------------------------------- dispatch

TEST(CpuFeatures, TierOrderingAndNames) {
  EXPECT_LT(lu::SimdTier::kScalar, lu::SimdTier::kAvx2);
  EXPECT_LT(lu::SimdTier::kAvx2, lu::SimdTier::kAvx512);
  EXPECT_STREQ(lu::to_string(lu::SimdTier::kScalar), "scalar");
  EXPECT_STREQ(lu::to_string(lu::SimdTier::kAvx2), "avx2");
  EXPECT_STREQ(lu::to_string(lu::SimdTier::kAvx512), "avx512");
}

TEST(CpuFeatures, ParseRoundTripsAndRejectsJunk) {
  std::optional<lu::SimdTier> tier;
  EXPECT_TRUE(lu::parse_simd_tier("scalar", tier));
  EXPECT_EQ(tier, lu::SimdTier::kScalar);
  EXPECT_TRUE(lu::parse_simd_tier("avx2", tier));
  EXPECT_EQ(tier, lu::SimdTier::kAvx2);
  EXPECT_TRUE(lu::parse_simd_tier("avx512", tier));
  EXPECT_EQ(tier, lu::SimdTier::kAvx512);
  EXPECT_TRUE(lu::parse_simd_tier("auto", tier));
  EXPECT_EQ(tier, std::nullopt);
  EXPECT_FALSE(lu::parse_simd_tier("sse9", tier));
  EXPECT_FALSE(lu::parse_simd_tier("", tier));
  EXPECT_FALSE(lu::parse_simd_tier("AVX2", tier));  // case-sensitive
}

TEST(CpuFeatures, DetectedTierWithinCompiledCeiling) {
  EXPECT_LE(lu::detected_simd_tier(), lu::max_compiled_simd_tier());
#ifndef LEAKYDSP_SIMD_AVX2
  EXPECT_EQ(lu::max_compiled_simd_tier(), lu::SimdTier::kScalar);
  EXPECT_EQ(lu::detected_simd_tier(), lu::SimdTier::kScalar);
#endif
#ifdef LEAKYDSP_SIMD_AVX512
  EXPECT_EQ(lu::max_compiled_simd_tier(), lu::SimdTier::kAvx512);
#endif
}

TEST(CpuFeatures, EnvVarCapsButNeverRaises) {
  TierGuard guard;
  // Baseline without any cap: min(cpuid, compiled ceiling). Note this can
  // exceed detected_simd_tier(), which cached the cap that was in the
  // environment at process startup (e.g. the CI forced-scalar leg).
  ::unsetenv("LEAKYDSP_SIMD");
  const lu::SimdTier uncapped = lu::probe_simd_tier();

  ::setenv("LEAKYDSP_SIMD", "scalar", 1);
  EXPECT_EQ(lu::probe_simd_tier(), lu::SimdTier::kScalar);

  // A cap above the hardware clamps down to what the host has, never up.
  ::setenv("LEAKYDSP_SIMD", "avx512", 1);
  EXPECT_EQ(lu::probe_simd_tier(),
            std::min(uncapped, lu::SimdTier::kAvx512));

  // Junk and "auto" both mean "no cap".
  ::setenv("LEAKYDSP_SIMD", "turbo9000", 1);
  EXPECT_EQ(lu::probe_simd_tier(), uncapped);
  ::setenv("LEAKYDSP_SIMD", "auto", 1);
  EXPECT_EQ(lu::probe_simd_tier(), uncapped);

  // The cached detected tier ignores post-startup environment changes.
  const lu::SimdTier detected = lu::detected_simd_tier();
  ::setenv("LEAKYDSP_SIMD", "scalar", 1);
  EXPECT_EQ(lu::detected_simd_tier(), detected);
  EXPECT_LE(detected, uncapped);
}

TEST(CpuFeatures, OverrideClampsToDetectedAndReleases) {
  TierGuard guard;
  const lu::SimdTier detected = lu::detected_simd_tier();
  EXPECT_EQ(lu::current_simd_tier(), detected);

  lu::set_simd_tier_override(lu::SimdTier::kScalar);
  EXPECT_EQ(lu::current_simd_tier(), lu::SimdTier::kScalar);

  // Requesting more than the host has clamps to what it has.
  lu::set_simd_tier_override(lu::SimdTier::kAvx512);
  EXPECT_EQ(lu::current_simd_tier(), std::min(detected, lu::SimdTier::kAvx512));

  lu::set_simd_tier_override(std::nullopt);
  EXPECT_EQ(lu::current_simd_tier(), detected);
}

// ----------------------------------------------------- aligned_vector

TEST(AlignedVector, SixtyFourByteAlignmentAcrossSizes) {
  for (const std::size_t n : {1u, 7u, 64u, 1000u, 4097u}) {
    lu::aligned_vector<double> v(n, 1.5);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(v.data()) %
                  lu::kSimdAlignment,
              0u)
        << "n=" << n;
    v.resize(n + 13);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(v.data()) %
                  lu::kSimdAlignment,
              0u)
        << "after resize, n=" << n;
  }
  lu::aligned_vector<std::uint8_t> bytes(31, 0);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(bytes.data()) %
                lu::kSimdAlignment,
            0u);
}

// ------------------------------------------------- element-op tiers

TEST(SimdOps, AllTiersBitIdenticalOnRandomInputs) {
  TierGuard guard;
  lu::Rng rng(0x51D005ULL);
  // Odd lengths hit every masked-tail path of both vector widths.
  for (const std::size_t n : {1u, 3u, 4u, 7u, 8u, 9u, 31u, 64u, 67u}) {
    lu::aligned_vector<double> x(n), y(n);
    for (std::size_t i = 0; i < n; ++i) {
      x[i] = rng.gaussian() * 3.0 + 2.0;
      y[i] = rng.gaussian();
    }
    std::vector<double> sorted(x.begin(), x.end());
    std::sort(sorted.begin(), sorted.end());

    lu::set_simd_tier_override(lu::SimdTier::kScalar);
    lu::aligned_vector<double> ref_fill(n), ref_div(n), ref_sma(n),
        ref_norm(n), ref_q(n);
    simd::fill(ref_fill.data(), n, 0.25);
    simd::div_scalar(13.5, x.data(), ref_div.data(), n);
    simd::sub_mul_add(10.0, 0.75, x.data(), y.data(), ref_sma.data(), n);
    simd::div_div(x.data(), y.data(), 0.035, ref_norm.data(), ref_q.data(),
                  n);
    const std::size_t ref_count = simd::count_le(sorted.data(), n, 2.0);

    for (const lu::SimdTier tier : available_tiers()) {
      lu::set_simd_tier_override(tier);
      lu::aligned_vector<double> out_a(n), out_b(n);
      simd::fill(out_a.data(), n, 0.25);
      for (std::size_t i = 0; i < n; ++i)
        EXPECT_BITS_EQ(out_a[i], ref_fill[i]);
      simd::div_scalar(13.5, x.data(), out_a.data(), n);
      for (std::size_t i = 0; i < n; ++i)
        EXPECT_BITS_EQ(out_a[i], ref_div[i]);
      simd::sub_mul_add(10.0, 0.75, x.data(), y.data(), out_a.data(), n);
      for (std::size_t i = 0; i < n; ++i)
        EXPECT_BITS_EQ(out_a[i], ref_sma[i]);
      simd::div_div(x.data(), y.data(), 0.035, out_a.data(), out_b.data(), n);
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_BITS_EQ(out_a[i], ref_norm[i]);
        EXPECT_BITS_EQ(out_b[i], ref_q[i]);
      }
      EXPECT_EQ(simd::count_le(sorted.data(), n, 2.0), ref_count)
          << lu::to_string(tier) << " n=" << n;
    }
  }
}

TEST(SimdOps, CountLeMatchesUpperBoundOnSortedArrays) {
  TierGuard guard;
  lu::Rng rng(77);
  std::vector<double> a(53);
  for (auto& v : a) v = rng.gaussian();
  std::sort(a.begin(), a.end());
  for (const lu::SimdTier tier : available_tiers()) {
    lu::set_simd_tier_override(tier);
    for (const double bound : {-10.0, a[0], a[26], a[52], 0.0, 10.0}) {
      const auto expect = static_cast<std::size_t>(
          std::upper_bound(a.begin(), a.end(), bound) - a.begin());
      EXPECT_EQ(simd::count_le(a.data(), a.size(), bound), expect)
          << lu::to_string(tier) << " bound=" << bound;
    }
  }
}

TEST(ScaleTable, EvalBatchBitIdenticalToOperatorAcrossTiers) {
  TierGuard guard;
  const lt::ScaleTable table{lt::AlphaPowerLaw{}};
  lu::Rng rng(0xBA7C4);
  constexpr std::size_t kN = 101;  // odd: exercises both tail paths
  lu::aligned_vector<double> v(kN), out(kN);
  for (std::size_t i = 0; i < kN; ++i) {
    // Mostly in-range supplies plus deliberate out-of-range lanes that must
    // take the exact-law fallback patch.
    const double span = table.v_hi() - table.v_lo();
    v[i] = table.v_lo() + (rng.uniform() * 1.3 - 0.15) * span;
  }
  v[0] = table.v_lo();
  v[1] = table.v_hi();
  v[2] = table.v_lo() - 0.01;  // below range: exact fallback
  v[3] = table.v_hi() + 0.01;  // above range: exact fallback
  for (const lu::SimdTier tier : available_tiers()) {
    lu::set_simd_tier_override(tier);
    table.eval_batch(v.data(), out.data(), kN);
    for (std::size_t i = 0; i < kN; ++i) {
      EXPECT_BITS_EQ(out[i], table(v[i]));
    }
  }
}

TEST(DelayChain, BatchStagesBitIdenticalToScalarAcrossTiers) {
  TierGuard guard;
  const lt::AlphaPowerLaw law{};
  const lt::ScaleTable table{law};
  // Uniform chain (the TDC configuration, vectorized divides) and a
  // non-uniform one (per-sample scalar path) both pin the contract.
  const lt::DelayChain uniform(std::vector<double>(96, 0.042), law);
  std::vector<double> ragged(17, 0.042);
  ragged[3] = 0.05;
  const lt::DelayChain nonuniform(ragged, law);
  lu::Rng rng(0xD31A);
  constexpr std::size_t kN = 77;
  lu::aligned_vector<double> budget(kN), scale(kN), out(kN);
  for (std::size_t i = 0; i < kN; ++i) {
    budget[i] = rng.uniform() * 8.0 - 0.5;  // includes negative budgets
    scale[i] = table(0.9 + rng.uniform() * 0.2);
  }
  for (const lt::DelayChain* chain : {&uniform, &nonuniform}) {
    for (const lu::SimdTier tier : available_tiers()) {
      lu::set_simd_tier_override(tier);
      chain->stages_within_scaled_batch(budget.data(), scale.data(),
                                        out.data(), kN);
      for (std::size_t i = 0; i < kN; ++i) {
        EXPECT_BITS_EQ(out[i], static_cast<double>(chain->stages_within_scaled(
                                   budget[i], scale[i])));
      }
    }
  }
}

// ------------------------------------------------------ CPA kernels

namespace {

/// Random hypothesis rows (values 0..8 like Hamming distances) plus a
/// matching POI block.
struct PanelFixture {
  std::vector<std::uint8_t> row_storage;
  std::vector<const std::uint8_t*> rows;
  lu::aligned_vector<double> poi;

  PanelFixture(std::size_t n, std::size_t poi_count, lu::Rng& rng) {
    row_storage.resize(n * 256);
    rows.resize(n);
    poi.resize(n * poi_count);
    for (std::size_t t = 0; t < n; ++t) {
      rows[t] = row_storage.data() + t * 256;
      for (std::size_t g = 0; g < 256; ++g) {
        row_storage[t * 256 + g] = static_cast<std::uint8_t>(rng() % 9);
      }
    }
    for (auto& x : poi) x = rng.gaussian();
  }

  la::kernels::Panel panel(std::size_t poi_count) const {
    return {rows.data(), poi.data(), rows.size(), poi_count};
  }
};

}  // namespace

TEST(CpaKernels, AccumulatePanelBitIdenticalAcrossTiers) {
  TierGuard guard;
  lu::Rng rng(0xACC);
  // Every tile shape of both vector tiers (AVX2: 12-POI passes of 4-wide
  // chunks; AVX-512: 32-POI passes of 8-wide chunks), each masked tail,
  // and second and third passes.
  for (const std::size_t poi :
       {1u, 2u, 3u, 4u, 5u, 6u, 8u, 11u, 15u, 16u, 19u, 24u, 30u, 31u, 32u,
        33u, 45u, 64u, 65u}) {
    const std::size_t n = 1 + rng() % 40;
    const PanelFixture fx(n, poi, rng);
    // A nonzero incoming accumulator: a kernel that dropped it, or started
    // a tile from zero, would diverge.
    lu::aligned_vector<double> start(256 * poi);
    for (auto& v : start) v = rng.gaussian();

    lu::set_simd_tier_override(lu::SimdTier::kScalar);
    lu::aligned_vector<double> ref = start;
    la::kernels::accumulate_panel(fx.panel(poi), ref.data());

    for (const lu::SimdTier tier : available_tiers()) {
      lu::set_simd_tier_override(tier);
      lu::aligned_vector<double> got = start;
      la::kernels::accumulate_panel(fx.panel(poi), got.data());
      ASSERT_EQ(std::memcmp(got.data(), ref.data(),
                            got.size() * sizeof(double)),
                0)
          << lu::to_string(tier) << " poi=" << poi << " n=" << n;
    }
  }
}

TEST(CpaKernels, AccumulatePanelInvariantUnderTraceSplits) {
  TierGuard guard;
  lu::Rng rng(0x5117);
  const std::size_t poi = 6, n = 37;
  const PanelFixture fx(n, poi, rng);
  lu::aligned_vector<double> whole(256 * poi, 0.0);
  la::kernels::accumulate_panel(fx.panel(poi), whole.data());
  for (const std::size_t block : {1u, 5u, 8u, 36u, 37u}) {
    lu::aligned_vector<double> split(256 * poi, 0.0);
    for (std::size_t t0 = 0; t0 < n; t0 += block) {
      const std::size_t m = std::min(block, n - t0);
      la::kernels::Panel p{fx.rows.data() + t0, fx.poi.data() + t0 * poi, m,
                           poi};
      la::kernels::accumulate_panel(p, split.data());
    }
    ASSERT_EQ(
        std::memcmp(split.data(), whole.data(), whole.size() * sizeof(double)),
        0)
        << "block=" << block;
  }
}

TEST(CpaKernels, TraceSumsBitIdenticalAcrossTiers) {
  TierGuard guard;
  lu::Rng rng(0x7A);
  for (const std::size_t poi : {1u, 3u, 4u, 7u, 8u, 13u}) {
    const std::size_t n = 1 + rng() % 30;
    lu::aligned_vector<double> x(n * poi);
    for (auto& v : x) v = rng.gaussian();

    lu::set_simd_tier_override(lu::SimdTier::kScalar);
    lu::aligned_vector<double> ref_t(poi, 0.0), ref_t2(poi, 0.0);
    la::kernels::trace_sums(x.data(), n, poi, ref_t.data(), ref_t2.data());

    for (const lu::SimdTier tier : available_tiers()) {
      lu::set_simd_tier_override(tier);
      lu::aligned_vector<double> st(poi, 0.0), st2(poi, 0.0);
      la::kernels::trace_sums(x.data(), n, poi, st.data(), st2.data());
      for (std::size_t k = 0; k < poi; ++k) {
        EXPECT_BITS_EQ(st[k], ref_t[k]);
        EXPECT_BITS_EQ(st2[k], ref_t2[k]);
      }
    }
  }
}

TEST(CpaKernels, HypothesisSumsMatchNaiveLoop) {
  TierGuard guard;
  lu::Rng rng(0x99);
  // 1023 traces fill a uint16 lane of the vector tiers exactly; 1024, 2047
  // and 3000 cross one or two folds into the uint64 outputs.
  for (const std::size_t n : {0u, 1u, 1023u, 1024u, 2047u, 3000u}) {
    PanelFixture fx(n, 1, rng);
    // Even guesses read the largest distance, 8, on every trace, so their
    // h^2 sums pass 2^16 at trace 1024: a lane that missed its fold wraps.
    for (std::size_t t = 0; t < n; ++t) {
      for (std::size_t g = 0; g < 256; g += 2) fx.row_storage[t * 256 + g] = 8;
    }
    std::array<std::uint64_t, 256> eh{}, eh2{};
    for (std::size_t t = 0; t < n; ++t) {
      for (std::size_t g = 0; g < 256; ++g) {
        const std::uint64_t h = fx.rows[t][g];
        eh[g] += h;
        eh2[g] += h * h;
      }
    }
    for (const lu::SimdTier tier : available_tiers()) {
      lu::set_simd_tier_override(tier);
      // Stale outputs: the op overwrites, it does not accumulate.
      std::array<std::uint64_t, 256> hs, h2s;
      hs.fill(12345);
      h2s.fill(12345);
      la::kernels::hypothesis_sums(fx.rows.data(), n, hs.data(), h2s.data());
      for (std::size_t g = 0; g < 256; ++g) {
        ASSERT_EQ(hs[g], eh[g]) << lu::to_string(tier) << " n=" << n
                                << " g=" << g;
        ASSERT_EQ(h2s[g], eh2[g]) << lu::to_string(tier) << " n=" << n
                                  << " g=" << g;
      }
    }
  }
}

// ------------------------------------------------- CpaAttack::kSimd

namespace {

std::vector<std::uint8_t> serialized(const la::CpaAttack& cpa) {
  lu::ByteWriter w;
  cpa.serialize(w);
  return std::vector<std::uint8_t>(w.span().begin(), w.span().end());
}

struct CpaInputs {
  std::vector<leakydsp::crypto::Block> cts;
  std::vector<double> rows;
};

CpaInputs gen_cpa_inputs(std::size_t n, std::size_t poi, std::uint64_t seed) {
  CpaInputs in;
  in.cts.resize(n);
  in.rows.resize(n * poi);
  lu::Rng rng(seed);
  for (std::size_t t = 0; t < n; ++t) {
    for (auto& b : in.cts[t]) b = static_cast<std::uint8_t>(rng() & 0xff);
    for (std::size_t k = 0; k < poi; ++k) {
      in.rows[t * poi + k] =
          static_cast<double>(in.cts[t][0] & 0x0f) + rng.gaussian();
    }
  }
  return in;
}

}  // namespace

TEST(CpaSimd, BatchSplitInvariantAtEveryBatchSize) {
  TierGuard guard;
  const std::size_t poi = 5, n = 97;
  const CpaInputs in = gen_cpa_inputs(n, poi, 0xCAFE);

  la::CpaAttack whole(poi);
  whole.add_traces(in.cts, in.rows);
  const auto ref = serialized(whole);

  // Includes batch = 1: the add_trace path must accumulate the same
  // fused form (this is what makes checkpoint resume byte-identical).
  for (const std::size_t batch : {1u, 7u, 16u, 64u, 97u}) {
    la::CpaAttack split(poi);
    for (std::size_t lo = 0; lo < n; lo += batch) {
      const std::size_t hi = std::min(lo + batch, n);
      split.add_traces({in.cts.data() + lo, hi - lo},
                       {in.rows.data() + lo * poi, (hi - lo) * poi});
    }
    EXPECT_EQ(serialized(split), ref) << "batch=" << batch;
  }
}

TEST(CpaSimd, EveryTierProducesIdenticalSerializedState) {
  TierGuard guard;
  const std::size_t poi = 9, n = 61;
  const CpaInputs in = gen_cpa_inputs(n, poi, 0xBEEF);

  lu::set_simd_tier_override(lu::SimdTier::kScalar);
  la::CpaAttack ref_cpa(poi);
  ref_cpa.add_traces(in.cts, in.rows);
  const auto ref = serialized(ref_cpa);

  for (const lu::SimdTier tier : available_tiers()) {
    lu::set_simd_tier_override(tier);
    la::CpaAttack cpa(poi);
    cpa.add_traces(in.cts, in.rows);
    EXPECT_EQ(serialized(cpa), ref) << lu::to_string(tier);
  }
}

TEST(CpaSimd, MultiByteBlockedEntryMatchesSixteenSingleByteRuns) {
  TierGuard guard;
  // n large enough that add_traces runs several internal trace blocks
  // (block = clamp(2048/poi, 8, 512); poi=64 -> 32-trace blocks).
  const std::size_t poi = 64, n = 150;
  const CpaInputs in = gen_cpa_inputs(n, poi, 0xF00D);

  la::CpaAttack multi(poi);
  multi.add_traces(in.cts, in.rows);

  // The per-trace entry accumulates each byte independently, one panel per
  // trace — the "16 single-byte passes" ordering of the same fma chains.
  la::CpaAttack single(poi);
  for (std::size_t t = 0; t < n; ++t) {
    single.add_trace(in.cts[t], {in.rows.data() + t * poi, poi});
  }
  EXPECT_EQ(serialized(multi), serialized(single));

  const auto ms = multi.snapshot();
  const auto ss = single.snapshot();
  for (int b = 0; b < 16; ++b) {
    for (int g = 0; g < 256; ++g) {
      EXPECT_BITS_EQ(ms[static_cast<std::size_t>(b)].score[g],
                     ss[static_cast<std::size_t>(b)].score[g]);
    }
  }
}

TEST(CpaSimd, MatchesPlainReferenceBitwise) {
  TierGuard guard;
  const std::size_t poi = 4, n = 80;
  const CpaInputs in = gen_cpa_inputs(n, poi, 0xD00D);
  const auto ref = lverify::reference_cpa_state(in.cts, in.rows, poi);
  for (const lu::SimdTier tier : available_tiers()) {
    lu::set_simd_tier_override(tier);
    la::CpaAttack cpa(poi);
    cpa.add_traces(in.cts, in.rows);
    EXPECT_EQ(serialized(cpa), ref) << lu::to_string(tier);
  }
}

// --------------------------------------------- histogram convolution

namespace {

/// The plain dense convolution: every a[i] times every b[j], zero terms
/// included, each product and each sum rounded on its own.
std::vector<double> dense_convolution(const std::vector<double>& a,
                                      const std::vector<double>& b) {
  std::vector<double> out(a.size() + b.size() - 1, 0.0);
  for (std::size_t i = 0; i < a.size(); ++i) {
    for (std::size_t j = 0; j < b.size(); ++j) {
      out[i + j] = out[i + j] + a[i] * b[j];
    }
  }
  return out;
}

enum class Support { kFull, kZeroRuns, kEmptyEdges, kSingleBin, kEmpty };

/// Unit-width histogram over [0, bins) whose nonzero bins follow `support`.
/// Weights mix small integer counts, as key-rank histograms hold, and reals
/// over many binades, so products and sums round.
ls::Histogram make_histogram(lu::Rng& rng, std::size_t bins,
                             Support support) {
  ls::Histogram h(0.0, static_cast<double>(bins), bins);
  const std::size_t single = rng() % bins;
  for (std::size_t i = 0; i < bins; ++i) {
    bool nonzero = false;
    switch (support) {
      case Support::kFull:
        nonzero = true;
        break;
      case Support::kZeroRuns:  // every fourth run of 3 bins stays empty
        nonzero = (i / 3) % 4 != 1 && rng.bernoulli(0.6);
        break;
      case Support::kEmptyEdges:  // only the middle half is nonzero
        nonzero = 4 * i >= bins && 4 * i < 3 * bins;
        break;
      case Support::kSingleBin:
        nonzero = i == single;
        break;
      case Support::kEmpty:
        break;
    }
    if (!nonzero) continue;
    const double w = rng.bernoulli(0.5)
                         ? static_cast<double>(1 + rng() % 8)
                         : std::ldexp(rng.uniform(),
                                      static_cast<int>(rng() % 41) - 20);
    h.add(h.bin_center(i), w);
  }
  return h;
}

}  // namespace

TEST(HistogramConvolve, BitIdenticalToDenseLoopAcrossTiers) {
  TierGuard guard;
  lu::Rng rng(0xC0417);
  // Both block widths' edges (16, 32), single bins, and the key-rank shape:
  // a joint histogram of up to 15 * 512 + 1 bins against one byte's 513.
  const std::pair<std::size_t, std::size_t> shapes[] = {
      {1, 1},    {1, 513},  {513, 1},   {5, 17},     {16, 16},
      {31, 33},  {33, 31},  {513, 513}, {7681, 513}, {1025, 1025}};
  const Support supports[] = {Support::kFull, Support::kZeroRuns,
                              Support::kEmptyEdges, Support::kSingleBin,
                              Support::kEmpty};
  for (const auto& [n, m] : shapes) {
    for (const Support sa : supports) {
      for (const Support sb : supports) {
        const ls::Histogram a = make_histogram(rng, n, sa);
        const ls::Histogram b = make_histogram(rng, m, sb);
        const std::vector<double> ref =
            dense_convolution(a.counts(), b.counts());
        double ref_total = 0.0;
        for (const double c : ref) ref_total += c;
        for (const lu::SimdTier tier : available_tiers()) {
          lu::set_simd_tier_override(tier);
          const ls::Histogram c = a.convolve(b);
          SCOPED_TRACE(::testing::Message()
                       << lu::to_string(tier) << " n=" << n << " m=" << m
                       << " supports=" << static_cast<int>(sa) << ","
                       << static_cast<int>(sb));
          ASSERT_EQ(c.bins(), ref.size());
          EXPECT_BITS_EQ(c.lo(), a.lo() + b.lo());
          EXPECT_BITS_EQ(c.total(), ref_total);
          EXPECT_EQ(std::memcmp(c.counts().data(), ref.data(),
                                ref.size() * sizeof(double)),
                    0);
        }
      }
    }
  }
}

// The bits of estimate_key_rank's bounds for fixed CPA snapshots, recorded
// before the convolution moved onto the SIMD tiers. The synthetic traces
// are integer valued (last-round Hamming distance plus binomial noise), so
// the snapshots are exact and build-independent.
TEST(KeyRank, BoundsBitsPinnedAcrossTiers) {
  TierGuard guard;
  lu::Rng rng(0x4B52);
  leakydsp::crypto::RoundKey rk10;
  for (auto& b : rk10) b = static_cast<std::uint8_t>(rng() & 0xff);
  struct Pin {
    std::size_t traces;
    std::uint64_t log2_lower;
    std::uint64_t log2_upper;
  };
  const Pin pins[] = {{64, 0x405f0ffd83c14e47ULL, 0x405f2b98eb522f52ULL},
                      {1000, 0x4041674d332a574dULL, 0x40444fdd7e6dda96ULL},
                      {20000, 0x0000000000000000ULL, 0x3ff0000000000000ULL}};
  constexpr std::size_t kPoi = 2;
  la::CpaAttack cpa(kPoi);
  std::size_t done = 0;
  for (const Pin& pin : pins) {
    std::vector<leakydsp::crypto::Block> cts;
    std::vector<double> rows;
    for (; done < pin.traces; ++done) {
      leakydsp::crypto::Block ct;
      for (auto& b : ct) b = static_cast<std::uint8_t>(rng() & 0xff);
      int leak = 0;
      for (int b = 0; b < 16; ++b) {
        leak += la::last_round_hd(ct, b, rk10[static_cast<std::size_t>(b)]);
      }
      for (std::size_t k = 0; k < kPoi; ++k) {
        int noise = 0;
        for (int w = 0; w < 16; ++w) noise += std::popcount(rng());
        rows.push_back(static_cast<double>(leak + noise));
      }
      cts.push_back(ct);
    }
    cpa.add_traces(cts, rows);
    const auto scores = cpa.snapshot();
    for (const lu::SimdTier tier : available_tiers()) {
      lu::set_simd_tier_override(tier);
      const la::KeyRankBounds bounds = la::estimate_key_rank(scores, rk10);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(bounds.log2_lower),
                pin.log2_lower)
          << lu::to_string(tier) << " at " << pin.traces << " traces";
      EXPECT_EQ(std::bit_cast<std::uint64_t>(bounds.log2_upper),
                pin.log2_upper)
          << lu::to_string(tier) << " at " << pin.traces << " traces";
    }
  }
}
