// Scalar reference tier + dispatch for the kSimd CPA kernels. Compiled
// with -ffp-contract=off: the fma in accumulate_panel_scalar must stay the
// one explicit std::fma per (guess, POI, trace) step, and trace_sums must
// keep its multiply and add separate, or LEAKYDSP_NATIVE builds would
// diverge from the vector tiers.
#include "attack/cpa_kernels.h"

#include <cmath>
#include <cstring>

#include "util/cpu_features.h"

namespace leakydsp::attack::kernels {

namespace detail {

void accumulate_panel_scalar(const Panel& p, double* sum_ht) {
  const std::size_t poi = p.poi_count;
  for (std::size_t g = 0; g < 256; ++g) {
    double* dst = sum_ht + g * poi;
    for (std::size_t t = 0; t < p.n; ++t) {
      const double h = static_cast<double>(p.rows[t][g]);
      const double* src = p.poi + t * poi;
      for (std::size_t k = 0; k < poi; ++k) {
        dst[k] = std::fma(h, src[k], dst[k]);
      }
    }
  }
}

void hypothesis_sums_scalar(const std::uint8_t* const* rows, std::size_t n,
                            std::uint64_t* hs, std::uint64_t* h2s) {
  std::memset(hs, 0, 256 * sizeof(std::uint64_t));
  std::memset(h2s, 0, 256 * sizeof(std::uint64_t));
  for (std::size_t t = 0; t < n; ++t) {
    const std::uint8_t* row = rows[t];
    for (std::size_t g = 0; g < 256; ++g) {
      const std::uint64_t h = row[g];
      hs[g] += h;
      h2s[g] += h * h;
    }
  }
}

void trace_sums_scalar(const double* x, std::size_t n, std::size_t poi_count,
                       double* sum_t, double* sum_t2) {
  for (std::size_t t = 0; t < n; ++t) {
    const double* row = x + t * poi_count;
    for (std::size_t k = 0; k < poi_count; ++k) {
      sum_t[k] += row[k];
      sum_t2[k] += row[k] * row[k];
    }
  }
}

}  // namespace detail

void accumulate_panel(const Panel& p, double* sum_ht) {
  switch (util::current_simd_tier()) {
#ifdef LEAKYDSP_SIMD_AVX512
    case util::SimdTier::kAvx512:
      return detail::accumulate_panel_avx512(p, sum_ht);
#endif
#ifdef LEAKYDSP_SIMD_AVX2
    case util::SimdTier::kAvx2:
      return detail::accumulate_panel_avx2(p, sum_ht);
#endif
    default:
      return detail::accumulate_panel_scalar(p, sum_ht);
  }
}

void hypothesis_sums(const std::uint8_t* const* rows, std::size_t n,
                     std::uint64_t* hs, std::uint64_t* h2s) {
  switch (util::current_simd_tier()) {
#ifdef LEAKYDSP_SIMD_AVX512
    case util::SimdTier::kAvx512:
      return detail::hypothesis_sums_avx512(rows, n, hs, h2s);
#endif
#ifdef LEAKYDSP_SIMD_AVX2
    case util::SimdTier::kAvx2:
      return detail::hypothesis_sums_avx2(rows, n, hs, h2s);
#endif
    default:
      return detail::hypothesis_sums_scalar(rows, n, hs, h2s);
  }
}

void trace_sums(const double* x, std::size_t n, std::size_t poi_count,
                double* sum_t, double* sum_t2) {
  switch (util::current_simd_tier()) {
#ifdef LEAKYDSP_SIMD_AVX512
    case util::SimdTier::kAvx512:
      return detail::trace_sums_avx512(x, n, poi_count, sum_t, sum_t2);
#endif
#ifdef LEAKYDSP_SIMD_AVX2
    case util::SimdTier::kAvx2:
      return detail::trace_sums_avx2(x, n, poi_count, sum_t, sum_t2);
#endif
    default:
      return detail::trace_sums_scalar(x, n, poi_count, sum_t, sum_t2);
  }
}

}  // namespace leakydsp::attack::kernels
