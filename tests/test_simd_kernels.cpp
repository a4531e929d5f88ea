// SIMD kernel layer: dispatch-tier selection (cpuid/env/override), bitwise
// agreement of every compiled tier on random inputs (element ops, Hermite
// batch evaluation, CPA panel accumulation), the multi-byte blocked
// CpaAttack::add_traces entry vs 16x single-byte accumulation and vs the
// plain per-trace reference, and the batch-split invariance that backs
// byte-identical checkpoints.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <vector>

#include "attack/cpa.h"
#include "attack/cpa_kernels.h"
#include "crypto/aes128.h"
#include "timing/delay_model.h"
#include "util/aligned.h"
#include "util/byte_io.h"
#include "util/cpu_features.h"
#include "util/rng.h"
#include "util/simd_ops.h"
#include "verify/cpa_reference.h"

namespace lu = leakydsp::util;
namespace la = leakydsp::attack;
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
  for (const std::size_t poi : {1u, 2u, 3u, 4u, 5u, 8u, 11u, 19u}) {
    const std::size_t n = 1 + rng() % 40;
    const PanelFixture fx(n, poi, rng);

    lu::set_simd_tier_override(lu::SimdTier::kScalar);
    lu::aligned_vector<double> ref(256 * poi, 0.0);
    la::kernels::accumulate_panel(fx.panel(poi), ref.data());

    for (const lu::SimdTier tier : available_tiers()) {
      lu::set_simd_tier_override(tier);
      lu::aligned_vector<double> got(256 * poi, 0.0);
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
  lu::Rng rng(0x99);
  const std::size_t n = 23;
  const PanelFixture fx(n, 1, rng);
  std::array<std::uint64_t, 256> hs{}, h2s{};
  la::kernels::hypothesis_sums(fx.rows.data(), n, hs.data(), h2s.data());
  for (std::size_t g = 0; g < 256; ++g) {
    std::uint64_t eh = 0, eh2 = 0;
    for (std::size_t t = 0; t < n; ++t) {
      const std::uint64_t h = fx.rows[t][g];
      eh += h;
      eh2 += h * h;
    }
    EXPECT_EQ(hs[g], eh) << "g=" << g;
    EXPECT_EQ(h2s[g], eh2) << "g=" << g;
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
