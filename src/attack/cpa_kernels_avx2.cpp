// AVX2 tier of the kSimd CPA kernels (-mavx2 -mfma -ffp-contract=off).
//
// accumulate_panel register-blocks a 4-guess x 12-POI tile (3 chunks of 4
// POI, the last one lane-masked): the twelve accumulators live in ymm
// registers across the whole trace loop, so the inner body is three panel
// loads, four hypothesis broadcasts and twelve independent vfmadd231pd —
// no accumulator traffic until the tile retires. Wider windows run in
// 12-POI passes. Of the shapes that fit the 16 ymm registers, 4 x 12 ran
// fastest at the campaigns' 30-POI window (4 x 8 and 2 x 16 were ~15%
// slower; 4 x 16 spills). Each vector lane is one (guess, POI) fma chain
// in trace order, identical to the scalar tier's std::fma chain (see
// cpa_kernels.h).
#include "attack/cpa_kernels.h"

#ifdef LEAKYDSP_SIMD_AVX2

#include <immintrin.h>

#include <algorithm>
#include <cstdint>
#include <cstring>

namespace leakydsp::attack::kernels::detail {

namespace {

constexpr int kGuesses = 4;
constexpr std::size_t kTileWidth = 12;  // POI per pass: three ymm chunks

/// Hypothesis value -> double; one broadcast load replaces a byte-to-double
/// conversion per (trace, guess). Rows hold Hamming distances 0..8.
alignas(64) constexpr double kHypothesis[9] = {0, 1, 2, 3, 4, 5, 6, 7, 8};

// Lane-select mask for a 1..4-element chunk.
inline __m256i lane_mask(std::size_t lanes) {
  alignas(32) const std::int64_t m[4] = {lanes > 0 ? -1 : 0,
                                         lanes > 1 ? -1 : 0,
                                         lanes > 2 ? -1 : 0,
                                         lanes > 3 ? -1 : 0};
  return _mm256_load_si256(reinterpret_cast<const __m256i*>(m));
}

/// One 4-guess x C-chunk tile at POI offset k0; `last` masks the final
/// chunk. Masked lanes load as +0.0, accumulate h * 0 + 0 = +0 exactly,
/// and are never stored back.
template <int C>
void panel_tile(const Panel& p, double* sum_ht, std::size_t g0,
                std::size_t k0, __m256i last) {
  const std::size_t poi = p.poi_count;
  __m256d acc[kGuesses][C];
#pragma GCC unroll 4
  for (int j = 0; j < kGuesses; ++j) {
    const double* row = sum_ht + (g0 + static_cast<std::size_t>(j)) * poi + k0;
#pragma GCC unroll 4
    for (int c = 0; c < C - 1; ++c) acc[j][c] = _mm256_loadu_pd(row + 4 * c);
    acc[j][C - 1] = _mm256_maskload_pd(row + 4 * (C - 1), last);
  }
  for (std::size_t t = 0; t < p.n; ++t) {
    const double* src = p.poi + t * poi + k0;
    __m256d x[C];
#pragma GCC unroll 4
    for (int c = 0; c < C - 1; ++c) x[c] = _mm256_loadu_pd(src + 4 * c);
    x[C - 1] = _mm256_maskload_pd(src + 4 * (C - 1), last);
    const std::uint8_t* h = p.rows[t] + g0;
#pragma GCC unroll 4
    for (int j = 0; j < kGuesses; ++j) {
      const __m256d hv = _mm256_broadcast_sd(&kHypothesis[h[j]]);
#pragma GCC unroll 4
      for (int c = 0; c < C; ++c) {
        acc[j][c] = _mm256_fmadd_pd(hv, x[c], acc[j][c]);
      }
    }
  }
#pragma GCC unroll 4
  for (int j = 0; j < kGuesses; ++j) {
    double* row = sum_ht + (g0 + static_cast<std::size_t>(j)) * poi + k0;
#pragma GCC unroll 4
    for (int c = 0; c < C - 1; ++c) _mm256_storeu_pd(row + 4 * c, acc[j][c]);
    _mm256_maskstore_pd(row + 4 * (C - 1), last, acc[j][C - 1]);
  }
}

}  // namespace

void accumulate_panel_avx2(const Panel& p, double* sum_ht) {
  const std::size_t poi = p.poi_count;
  for (std::size_t g0 = 0; g0 < 256; g0 += kGuesses) {
    for (std::size_t k0 = 0; k0 < poi; k0 += kTileWidth) {
      const std::size_t width = std::min(kTileWidth, poi - k0);
      const std::size_t chunks = (width + 3) / 4;
      const __m256i last = lane_mask(width - 4 * (chunks - 1));
      switch (chunks) {
        case 1: panel_tile<1>(p, sum_ht, g0, k0, last); break;
        case 2: panel_tile<2>(p, sum_ht, g0, k0, last); break;
        default: panel_tile<3>(p, sum_ht, g0, k0, last); break;
      }
    }
  }
}

void hypothesis_sums_avx2(const std::uint8_t* const* rows, std::size_t n,
                          std::uint64_t* hs, std::uint64_t* h2s) {
  std::memset(hs, 0, 256 * sizeof(std::uint64_t));
  std::memset(h2s, 0, 256 * sizeof(std::uint64_t));
  // 64 guesses per pass: four ymm of uint16 lanes per sum. h <= 8 and
  // h^2 <= 64, so a lane is exact for kHypothesisLaneTraces traces; fold
  // into the uint64 outputs before it could wrap.
  constexpr int kVecs = 4;
  for (std::size_t g0 = 0; g0 < 256; g0 += 16 * kVecs) {
    for (std::size_t t0 = 0; t0 < n; t0 += kHypothesisLaneTraces) {
      const std::size_t t1 = std::min(n, t0 + kHypothesisLaneTraces);
      __m256i s[kVecs];
      __m256i s2[kVecs];
      for (int i = 0; i < kVecs; ++i) {
        s[i] = _mm256_setzero_si256();
        s2[i] = _mm256_setzero_si256();
      }
      for (std::size_t t = t0; t < t1; ++t) {
        const std::uint8_t* row = rows[t] + g0;
#pragma GCC unroll 8
        for (int i = 0; i < kVecs; ++i) {
          const __m256i h = _mm256_cvtepu8_epi16(_mm_loadu_si128(
              reinterpret_cast<const __m128i*>(row + 16 * i)));
          s[i] = _mm256_add_epi16(s[i], h);
          s2[i] = _mm256_add_epi16(s2[i], _mm256_mullo_epi16(h, h));
        }
      }
      alignas(32) std::uint16_t lanes[16 * kVecs];
      alignas(32) std::uint16_t lanes2[16 * kVecs];
      for (int i = 0; i < kVecs; ++i) {
        _mm256_store_si256(reinterpret_cast<__m256i*>(lanes + 16 * i), s[i]);
        _mm256_store_si256(reinterpret_cast<__m256i*>(lanes2 + 16 * i), s2[i]);
      }
      for (std::size_t g = 0; g < 16 * kVecs; g += 4) {
        const __m256i w = _mm256_cvtepu16_epi64(
            _mm_loadl_epi64(reinterpret_cast<const __m128i*>(lanes + g)));
        const __m256i w2 = _mm256_cvtepu16_epi64(
            _mm_loadl_epi64(reinterpret_cast<const __m128i*>(lanes2 + g)));
        __m256i* out = reinterpret_cast<__m256i*>(hs + g0 + g);
        __m256i* out2 = reinterpret_cast<__m256i*>(h2s + g0 + g);
        _mm256_storeu_si256(out, _mm256_add_epi64(_mm256_loadu_si256(out), w));
        _mm256_storeu_si256(out2,
                            _mm256_add_epi64(_mm256_loadu_si256(out2), w2));
      }
    }
  }
}

void trace_sums_avx2(const double* x, std::size_t n, std::size_t poi_count,
                     double* sum_t, double* sum_t2) {
  std::size_t k0 = 0;
  for (; k0 + 4 <= poi_count; k0 += 4) {
    __m256d st = _mm256_loadu_pd(sum_t + k0);
    __m256d st2 = _mm256_loadu_pd(sum_t2 + k0);
    for (std::size_t t = 0; t < n; ++t) {
      const __m256d v = _mm256_loadu_pd(x + t * poi_count + k0);
      st = _mm256_add_pd(st, v);
      st2 = _mm256_add_pd(st2, _mm256_mul_pd(v, v));
    }
    _mm256_storeu_pd(sum_t + k0, st);
    _mm256_storeu_pd(sum_t2 + k0, st2);
  }
  // Column tail: same per-lane chains (each k sees traces in order), done
  // scalar.
  for (std::size_t t = 0; t < n; ++t) {
    const double* row = x + t * poi_count;
    for (std::size_t k = k0; k < poi_count; ++k) {
      sum_t[k] += row[k];
      sum_t2[k] += row[k] * row[k];
    }
  }
}

}  // namespace leakydsp::attack::kernels::detail

#endif  // LEAKYDSP_SIMD_AVX2
