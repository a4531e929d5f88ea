// AVX-512 tier of the kSimd CPA kernels.
//
// accumulate_panel register-blocks a 4-guess x 32-POI tile: sixteen zmm
// accumulators (4 guesses x 4 chunks of 8 POI, the last chunk k-masked)
// live across the whole trace loop, so each trace costs four panel loads,
// four hypothesis broadcasts and sixteen independent vfmadd231pd — enough
// chains in flight to hide the FMA latency. Wider windows run in 32-POI
// passes. Each vector lane is still one (guess, POI) fma chain in trace
// order, so results stay bit-identical to the other tiers.
#include "attack/cpa_kernels.h"

#ifdef LEAKYDSP_SIMD_AVX512

#include <immintrin.h>

#include <algorithm>
#include <cstdint>
#include <cstring>

namespace leakydsp::attack::kernels::detail {

namespace {

/// Hypothesis value -> double; one broadcast load replaces a byte-to-double
/// conversion per (trace, guess). Rows hold Hamming distances 0..8.
alignas(64) constexpr double kHypothesis[9] = {0, 1, 2, 3, 4, 5, 6, 7, 8};

/// One 4-guess x C-chunk tile at POI offset k0; `last` masks the final
/// chunk's lanes. Masked lanes load as +0.0, accumulate h * 0 + 0 = +0
/// exactly, and are never stored back.
template <int C>
void panel_tile(const Panel& p, double* sum_ht, std::size_t g0,
                std::size_t k0, __mmask8 last) {
  const std::size_t poi = p.poi_count;
  const auto mask = [last](int c) {
    return c == C - 1 ? last : static_cast<__mmask8>(0xFF);
  };
  __m512d acc[4][C];
#pragma GCC unroll 4
  for (int j = 0; j < 4; ++j) {
    const double* row = sum_ht + (g0 + static_cast<std::size_t>(j)) * poi + k0;
#pragma GCC unroll 4
    for (int c = 0; c < C; ++c) {
      acc[j][c] = _mm512_maskz_loadu_pd(mask(c), row + 8 * c);
    }
  }
  for (std::size_t t = 0; t < p.n; ++t) {
    const double* src = p.poi + t * poi + k0;
    __m512d x[C];
#pragma GCC unroll 4
    for (int c = 0; c < C; ++c) {
      x[c] = _mm512_maskz_loadu_pd(mask(c), src + 8 * c);
    }
    const std::uint8_t* h = p.rows[t] + g0;
#pragma GCC unroll 4
    for (int j = 0; j < 4; ++j) {
      const __m512d hv = _mm512_set1_pd(kHypothesis[h[j]]);
#pragma GCC unroll 4
      for (int c = 0; c < C; ++c) {
        acc[j][c] = _mm512_fmadd_pd(hv, x[c], acc[j][c]);
      }
    }
  }
#pragma GCC unroll 4
  for (int j = 0; j < 4; ++j) {
    double* row = sum_ht + (g0 + static_cast<std::size_t>(j)) * poi + k0;
#pragma GCC unroll 4
    for (int c = 0; c < C; ++c) {
      _mm512_mask_storeu_pd(row + 8 * c, mask(c), acc[j][c]);
    }
  }
}

}  // namespace

void accumulate_panel_avx512(const Panel& p, double* sum_ht) {
  const std::size_t poi = p.poi_count;
  for (std::size_t g0 = 0; g0 < 256; g0 += 4) {
    for (std::size_t k0 = 0; k0 < poi; k0 += 32) {
      const std::size_t width = std::min<std::size_t>(32, poi - k0);
      const std::size_t chunks = (width + 7) / 8;
      const auto last =
          static_cast<__mmask8>((1u << (width - 8 * (chunks - 1))) - 1u);
      switch (chunks) {
        case 1: panel_tile<1>(p, sum_ht, g0, k0, last); break;
        case 2: panel_tile<2>(p, sum_ht, g0, k0, last); break;
        case 3: panel_tile<3>(p, sum_ht, g0, k0, last); break;
        default: panel_tile<4>(p, sum_ht, g0, k0, last); break;
      }
    }
  }
}

void hypothesis_sums_avx512(const std::uint8_t* const* rows, std::size_t n,
                            std::uint64_t* hs, std::uint64_t* h2s) {
  std::memset(hs, 0, 256 * sizeof(std::uint64_t));
  std::memset(h2s, 0, 256 * sizeof(std::uint64_t));
  // Eight zmm of uint16 lanes per sum cover all 256 guesses. h <= 8 and
  // h^2 <= 64, so a lane is exact for kHypothesisLaneTraces traces; fold
  // into the uint64 outputs before it could wrap.
  for (std::size_t t0 = 0; t0 < n; t0 += kHypothesisLaneTraces) {
    const std::size_t t1 = std::min(n, t0 + kHypothesisLaneTraces);
    __m512i s[8];
    __m512i s2[8];
    for (int i = 0; i < 8; ++i) {
      s[i] = _mm512_setzero_si512();
      s2[i] = _mm512_setzero_si512();
    }
    for (std::size_t t = t0; t < t1; ++t) {
      const std::uint8_t* row = rows[t];
#pragma GCC unroll 8
      for (int i = 0; i < 8; ++i) {
        const __m512i h = _mm512_cvtepu8_epi16(_mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(row + 32 * i)));
        s[i] = _mm512_add_epi16(s[i], h);
        s2[i] = _mm512_add_epi16(s2[i], _mm512_mullo_epi16(h, h));
      }
    }
    alignas(64) std::uint16_t lanes[256];
    alignas(64) std::uint16_t lanes2[256];
    for (int i = 0; i < 8; ++i) {
      _mm512_store_si512(lanes + 32 * i, s[i]);
      _mm512_store_si512(lanes2 + 32 * i, s2[i]);
    }
    // Widen eight lanes at a time (the maskz forms: the plain ones trip
    // GCC 12's -Wmaybe-uninitialized on their undefined pass-through).
    for (std::size_t g = 0; g < 256; g += 8) {
      const __m512i w = _mm512_maskz_cvtepu16_epi64(
          0xFF, _mm_load_si128(reinterpret_cast<const __m128i*>(lanes + g)));
      const __m512i w2 = _mm512_maskz_cvtepu16_epi64(
          0xFF, _mm_load_si128(reinterpret_cast<const __m128i*>(lanes2 + g)));
      _mm512_storeu_si512(hs + g,
                          _mm512_add_epi64(_mm512_loadu_si512(hs + g), w));
      _mm512_storeu_si512(h2s + g,
                          _mm512_add_epi64(_mm512_loadu_si512(h2s + g), w2));
    }
  }
}

void trace_sums_avx512(const double* x, std::size_t n, std::size_t poi_count,
                       double* sum_t, double* sum_t2) {
  std::size_t k0 = 0;
  for (; k0 + 8 <= poi_count; k0 += 8) {
    __m512d st = _mm512_loadu_pd(sum_t + k0);
    __m512d st2 = _mm512_loadu_pd(sum_t2 + k0);
    for (std::size_t t = 0; t < n; ++t) {
      const __m512d v = _mm512_loadu_pd(x + t * poi_count + k0);
      st = _mm512_add_pd(st, v);
      st2 = _mm512_add_pd(st2, _mm512_mul_pd(v, v));
    }
    _mm512_storeu_pd(sum_t + k0, st);
    _mm512_storeu_pd(sum_t2 + k0, st2);
  }
  for (std::size_t t = 0; t < n; ++t) {
    const double* row = x + t * poi_count;
    for (std::size_t k = k0; k < poi_count; ++k) {
      sum_t[k] += row[k];
      sum_t2[k] += row[k] * row[k];
    }
  }
}

}  // namespace leakydsp::attack::kernels::detail

#endif  // LEAKYDSP_SIMD_AVX512
