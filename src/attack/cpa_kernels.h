// Tiled, runtime-dispatched accumulation kernels behind
// CpaAttack::add_traces.
//
// A "panel" is one trace block's worth of CPA input for a single key byte:
// n pair-table hypothesis rows (256 Hamming distances each, values 0..8)
// and the matching n x poi block of sensor readouts. accumulate_panel folds
// a panel into a 256 x poi cross-sum slab; CpaAttack::add_traces drives it
// in L1-sized trace blocks across all 16 key bytes so each trace panel is
// streamed from cache once instead of 16 times.
//
// Determinism contract (the reason the SIMD kernel honors byte-identical
// checkpoints): every (guess, POI) cross sum is
// one chain of fused multiply-adds in global trace order,
//   dst[g*poi+k] = fma(h_t, x[t*poi+k], dst[g*poi+k])   for t ascending,
// and each chain is a single output lane, so scalar std::fma and the
// packed vfmadd tiers produce bit-identical results no matter the vector
// width, guess tiling, or trace blocking. Hypothesis sums are exact
// integers (h <= 8) — no floating point involved until the final (exact)
// fold into the double accumulators.
//
// Every hypothesis byte must be a Hamming distance 0..8: the vector tiers
// broadcast h from a 9-entry double table, and their uint16 hypothesis-sum
// lanes are exact only under that bound.
#pragma once

#include <cstddef>
#include <cstdint>

namespace leakydsp::attack::kernels {

/// One key byte's accumulation job over a trace block.
struct Panel {
  const std::uint8_t* const* rows = nullptr;  ///< n pair-table rows (256 B)
  const double* poi = nullptr;                ///< n x poi_count, row-major
  std::size_t n = 0;
  std::size_t poi_count = 0;
};

/// Folds the panel into sum_ht[256 * poi_count] (see the chain contract
/// above). Dispatches on util::current_simd_tier(); all tiers bit-identical.
void accumulate_panel(const Panel& p, double* sum_ht);

/// hs[g] = sum_t rows[t][g], h2s[g] = sum_t rows[t][g]^2 — overwritten, not
/// accumulated. Pure integer arithmetic, so every tier gives the same
/// integers; the vector tiers sum in uint16 lanes and fold them into the
/// uint64 outputs every kHypothesisLaneTraces traces. Dispatches on tier.
void hypothesis_sums(const std::uint8_t* const* rows, std::size_t n,
                     std::uint64_t* hs, std::uint64_t* h2s);

/// Traces a uint16 hypothesis-sum lane absorbs exactly: 1023 * 8^2 =
/// 65,472 < 2^16.
inline constexpr std::size_t kHypothesisLaneTraces = 1023;

/// sum_t[k] += x[t*poi+k]; sum_t2[k] += x[t*poi+k] * x[t*poi+k] (separate
/// multiply and add — NOT fused) in trace order: bit-identical to a plain
/// per-trace loop, so the goldens' trace-side sums never depended on the
/// SIMD kernel. Dispatches on tier.
void trace_sums(const double* x, std::size_t n, std::size_t poi_count,
                double* sum_t, double* sum_t2);

namespace detail {

// Per-tier entry points; tests pin tiers via util::set_simd_tier_override
// and call the public dispatchers instead of using these directly.
void accumulate_panel_scalar(const Panel& p, double* sum_ht);
void hypothesis_sums_scalar(const std::uint8_t* const* rows, std::size_t n,
                            std::uint64_t* hs, std::uint64_t* h2s);
void trace_sums_scalar(const double* x, std::size_t n, std::size_t poi_count,
                       double* sum_t, double* sum_t2);

#ifdef LEAKYDSP_SIMD_AVX2
void accumulate_panel_avx2(const Panel& p, double* sum_ht);
void hypothesis_sums_avx2(const std::uint8_t* const* rows, std::size_t n,
                          std::uint64_t* hs, std::uint64_t* h2s);
void trace_sums_avx2(const double* x, std::size_t n, std::size_t poi_count,
                     double* sum_t, double* sum_t2);
#endif

#ifdef LEAKYDSP_SIMD_AVX512
void accumulate_panel_avx512(const Panel& p, double* sum_ht);
void hypothesis_sums_avx512(const std::uint8_t* const* rows, std::size_t n,
                            std::uint64_t* hs, std::uint64_t* h2s);
void trace_sums_avx512(const double* x, std::size_t n, std::size_t poi_count,
                       double* sum_t, double* sum_t2);
#endif

}  // namespace detail

}  // namespace leakydsp::attack::kernels
