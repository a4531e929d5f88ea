// AVX-512 lane stepper of the ziggurat normal sampler
// (Rng::fill_gaussian_zig_lanes): eight independent xoshiro256++ streams,
// one per zmm lane, each taking exactly the steps fill_gaussian_zig()
// would take on its own generator.
//
// Per step every lane runs the scalar common path on packed integers: the
// xoshiro256++ update, the layer index and sign from the raw word, the
// exact u64 -> double conversion of its top 53 bits, and one multiply by
// the layer abscissa (two gathers from the shared table). A lane whose
// abscissa misses its layer's rectangle is handed back to its own Rng,
// reset to the lane's state before the step, whose gaussian_zig() redoes
// that step and runs the scalar tail/wedge path, rejections included. The
// step's values are stored as one row of a 32 x 8 tile and transposed
// into the per-lane outputs at the end.
#include "util/rng.h"

#ifdef LEAKYDSP_SIMD_AVX512

#include <immintrin.h>

#include <algorithm>
#include <bit>

namespace leakydsp::util {

namespace {

/// In-place 8 x 8 transpose: on entry r[j] holds step j's eight lane
/// values, on return r[l] holds lane l's eight steps. (Every masked form
/// here and below enables all lanes: the unmasked intrinsics pass an
/// undefined source operand, which gcc 12 reports as
/// -Wmaybe-uninitialized. Results are identical.)
inline void transpose8(__m512d r[8]) {
  __m512d a[8];
  for (int p = 0; p < 4; ++p) {
    a[2 * p] = _mm512_maskz_unpacklo_pd(0xFF, r[2 * p], r[2 * p + 1]);
    a[2 * p + 1] = _mm512_maskz_unpackhi_pd(0xFF, r[2 * p], r[2 * p + 1]);
  }
  // a[0] = [r0_0 r1_0 r0_2 r1_2 r0_4 r1_4 r0_6 r1_6], a[1] the odd lanes.
  const __m512i even_pairs = _mm512_setr_epi64(0, 1, 8, 9, 4, 5, 12, 13);
  const __m512i odd_pairs = _mm512_setr_epi64(2, 3, 10, 11, 6, 7, 14, 15);
  __m512d b[8];
  for (int h = 0; h < 2; ++h) {
    for (int o = 0; o < 2; ++o) {
      const __m512d lo = a[4 * h + o];
      const __m512d hi = a[4 * h + 2 + o];
      // b[4h + o]: lanes {o, 4 + o}; b[4h + 2 + o]: lanes {2 + o, 6 + o}.
      b[4 * h + o] = _mm512_permutex2var_pd(lo, even_pairs, hi);
      b[4 * h + 2 + o] = _mm512_permutex2var_pd(lo, odd_pairs, hi);
    }
  }
  const __m512i low_halves = _mm512_setr_epi64(0, 1, 2, 3, 8, 9, 10, 11);
  const __m512i high_halves = _mm512_setr_epi64(4, 5, 6, 7, 12, 13, 14, 15);
  for (int l = 0; l < 4; ++l) {
    r[l] = _mm512_permutex2var_pd(b[l], low_halves, b[4 + l]);
    r[4 + l] = _mm512_permutex2var_pd(b[l], high_halves, b[4 + l]);
  }
}

/// The eight lanes' xoshiro256++ states and draw counts.
struct LaneState {
  __m512i s0, s1, s2, s3, draws;
};

}  // namespace

struct ZigLaneKernel {
  template <bool kMasked>
  static __m512d step(LaneState& st, __mmask8 active, std::span<Rng> rngs,
                      const double* layer_x);
};

/// One gaussian_zig() step in every lane of `st`, returning the lanes'
/// values. The lanes in `active` advance; with kMasked false every lane
/// advances (the caller then writes back only the lanes in `active`).
template <bool kMasked>
inline __m512d ZigLaneKernel::step(LaneState& st, __mmask8 active,
                                   std::span<Rng> rngs,
                                   const double* layer_x) {
  const __m512d zero = _mm512_setzero_pd();
  constexpr __mmask8 kAll = 0xFF;
  // xoshiro256++, as xoshiro_next() in rng.cpp.
  const __m512i bits = _mm512_add_epi64(
      _mm512_maskz_rol_epi64(kAll, _mm512_add_epi64(st.s0, st.s3), 23),
      st.s0);
  // The update's xor chains as three-way xors (vpternlogq 0x96).
  const __m512i t = _mm512_maskz_slli_epi64(kAll, st.s1, 17);
  __m512i n0 = _mm512_ternarylogic_epi64(st.s0, st.s3, st.s1, 0x96);
  __m512i n1 = _mm512_ternarylogic_epi64(st.s1, st.s2, st.s0, 0x96);
  __m512i n2 = _mm512_ternarylogic_epi64(st.s2, st.s0, t, 0x96);
  __m512i n3 = _mm512_maskz_rol_epi64(
      kAll, _mm512_xor_si512(st.s3, st.s1), 45);
  __m512i nd = _mm512_add_epi64(st.draws, _mm512_set1_epi64(1));
  // The ziggurat's common path, as in fill_gaussian_zig().
  const __m512i layer = _mm512_and_si512(bits, _mm512_set1_epi64(0xff));
  const __m512d xi = _mm512_mask_i64gather_pd(zero, kAll, layer, layer_x, 8);
  const __m512d x_next =
      _mm512_mask_i64gather_pd(zero, kAll, layer, layer_x + 1, 8);
  const __m512d u = _mm512_mul_pd(
      _mm512_maskz_cvtepu64_pd(kAll, _mm512_maskz_srli_epi64(kAll, bits, 11)),
      _mm512_set1_pd(0x1.0p-53));
  const __m512d x = _mm512_mul_pd(u, xi);
  // Bit 8 of the raw word flips the sign: x ^ ((bits << 55) & sign bit)
  // in one vpternlogq (0x78).
  __m512d value = _mm512_castsi512_pd(_mm512_ternarylogic_epi64(
      _mm512_castpd_si512(x), _mm512_maskz_slli_epi64(kAll, bits, 55),
      _mm512_set1_epi64(static_cast<long long>(0x8000000000000000ULL)),
      0x78));
  const __mmask8 miss = _mm512_mask_cmp_pd_mask(active, x, x_next, _CMP_GE_OQ);
  if (miss) [[unlikely]] {
    alignas(64) std::uint64_t pre[5][Rng::kZigLanes];
    _mm512_store_si512(pre[0], st.s0);
    _mm512_store_si512(pre[1], st.s1);
    _mm512_store_si512(pre[2], st.s2);
    _mm512_store_si512(pre[3], st.s3);
    _mm512_store_si512(pre[4], st.draws);
    for (unsigned m = miss; m != 0; m &= m - 1) {
      const std::size_t l = static_cast<std::size_t>(std::countr_zero(m));
      const __mmask8 lane = static_cast<__mmask8>(1u << l);
      Rng& rng = rngs[l];
      for (std::size_t w = 0; w < 4; ++w) rng.state_[w] = pre[w][l];
      rng.draws_ = pre[4][l];
      const double kept = rng.gaussian_zig();
      const auto word = [](std::uint64_t v) {
        return static_cast<long long>(v);
      };
      value = _mm512_castsi512_pd(
          _mm512_mask_set1_epi64(_mm512_castpd_si512(value), lane,
                                 word(std::bit_cast<std::uint64_t>(kept))));
      n0 = _mm512_mask_set1_epi64(n0, lane, word(rng.state_[0]));
      n1 = _mm512_mask_set1_epi64(n1, lane, word(rng.state_[1]));
      n2 = _mm512_mask_set1_epi64(n2, lane, word(rng.state_[2]));
      n3 = _mm512_mask_set1_epi64(n3, lane, word(rng.state_[3]));
      nd = _mm512_mask_set1_epi64(nd, lane, word(rng.draws_));
    }
  }
  if constexpr (kMasked) {
    st.s0 = _mm512_mask_mov_epi64(st.s0, active, n0);
    st.s1 = _mm512_mask_mov_epi64(st.s1, active, n1);
    st.s2 = _mm512_mask_mov_epi64(st.s2, active, n2);
    st.s3 = _mm512_mask_mov_epi64(st.s3, active, n3);
    st.draws = _mm512_mask_mov_epi64(st.draws, active, nd);
  } else {
    st = {n0, n1, n2, n3, nd};
  }
  return value;
}

void Rng::fill_gaussian_zig_lanes(std::span<Rng> rngs,
                                  std::span<std::size_t> left,
                                  double* const* out) {
  const double* const layer_x = ziggurat_layers();
  const std::size_t lanes = std::min(rngs.size(), kZigLanes);
  alignas(64) std::uint64_t words[5][kZigLanes] = {};
  alignas(64) std::uint64_t take[kZigLanes] = {};
  __mmask8 live = 0;          // lanes that draw in this tile
  std::size_t steps = 0;      // steps of the longest lane
  std::size_t all_live = kZigLaneTile;  // steps every live lane takes
  for (std::size_t l = 0; l < lanes; ++l) {
    take[l] = std::min(left[l], kZigLaneTile);
    if (take[l] == 0) continue;
    live |= static_cast<__mmask8>(1u << l);
    for (std::size_t w = 0; w < 4; ++w) words[w][l] = rngs[l].state_[w];
    words[4][l] = rngs[l].draws_;
    steps = std::max<std::size_t>(steps, take[l]);
    all_live = std::min<std::size_t>(all_live, take[l]);
  }
  if (live == 0) return;
  LaneState st{_mm512_load_si512(words[0]), _mm512_load_si512(words[1]),
               _mm512_load_si512(words[2]), _mm512_load_si512(words[3]),
               _mm512_load_si512(words[4])};
  const __m512i vtake = _mm512_load_si512(take);

  // Full steps while every live lane still draws (all but a stream's last
  // tile), then masked steps up to the longest lane's count.
  alignas(64) double tile[kZigLaneTile][kZigLanes];
  std::size_t j = 0;
  for (; j < all_live; ++j) {
    _mm512_store_pd(tile[j],
                    ZigLaneKernel::step<false>(st, live, rngs, layer_x));
  }
  for (; j < steps; ++j) {
    const __mmask8 active = _mm512_cmpgt_epu64_mask(
        vtake, _mm512_set1_epi64(static_cast<long long>(j)));
    _mm512_store_pd(tile[j],
                    ZigLaneKernel::step<true>(st, active, rngs, layer_x));
  }

  // Transpose whole 8-step blocks into the lanes' outputs; the rows past
  // the last step are zero padding, written into the outputs' spare room.
  const std::size_t padded = (steps + 7) / 8 * 8;
  for (; j < padded; ++j) _mm512_store_pd(tile[j], _mm512_setzero_pd());
  for (std::size_t j0 = 0; j0 < padded; j0 += 8) {
    __m512d r[8];
    for (std::size_t k = 0; k < 8; ++k) r[k] = _mm512_load_pd(tile[j0 + k]);
    transpose8(r);
    for (std::size_t l = 0; l < lanes; ++l) _mm512_storeu_pd(out[l] + j0, r[l]);
  }

  _mm512_store_si512(words[0], st.s0);
  _mm512_store_si512(words[1], st.s1);
  _mm512_store_si512(words[2], st.s2);
  _mm512_store_si512(words[3], st.s3);
  _mm512_store_si512(words[4], st.draws);
  for (std::size_t l = 0; l < lanes; ++l) {
    if (take[l] == 0) continue;
    for (std::size_t w = 0; w < 4; ++w) rngs[l].state_[w] = words[w][l];
    rngs[l].draws_ = words[4][l];
    left[l] -= take[l];
  }
}

}  // namespace leakydsp::util

#endif  // LEAKYDSP_SIMD_AVX512
