// AVX2 tier of the util::simd ops. Compiled with -mavx2 -mfma
// -ffp-contract=off (src/CMakeLists.txt); the whole body drops out when the
// build does not enable the SIMD tiers, so the GLOB-based module build can
// always include this file.
//
// Bitwise contract: every intrinsic below is an exact packed counterpart of
// the scalar reference in simd_ops.cpp — same per-lane operation sequence,
// no fusion, no approximation instructions (rcp/rsqrt). Tails delegate to
// the scalar reference.
#include "util/simd_ops.h"

#ifdef LEAKYDSP_SIMD_AVX2

#include <immintrin.h>

#include <algorithm>

namespace leakydsp::util::simd::detail {

std::size_t count_le_avx2(const double* a, std::size_t n, double bound) {
  const __m256d vb = _mm256_set1_pd(bound);
  std::size_t count = 0;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d va = _mm256_loadu_pd(a + i);
    const __m256d le = _mm256_cmp_pd(va, vb, _CMP_LE_OQ);
    count += static_cast<std::size_t>(
        __builtin_popcount(static_cast<unsigned>(_mm256_movemask_pd(le))));
  }
  return count + count_le_scalar(a + i, n - i, bound);
}

void fill_avx2(double* out, std::size_t n, double value) {
  const __m256d v = _mm256_set1_pd(value);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) _mm256_storeu_pd(out + i, v);
  fill_scalar(out + i, n - i, value);
}

void div_scalar_avx2(double num, const double* den, double* out,
                     std::size_t n) {
  const __m256d vn = _mm256_set1_pd(num);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(out + i, _mm256_div_pd(vn, _mm256_loadu_pd(den + i)));
  }
  div_scalar_scalar(num, den + i, out + i, n - i);
}

void sub_mul_add_avx2(double c, double a, const double* x, const double* y,
                      double* out, std::size_t n) {
  const __m256d vc = _mm256_set1_pd(c);
  const __m256d va = _mm256_set1_pd(a);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d prod = _mm256_mul_pd(va, _mm256_loadu_pd(x + i));
    const __m256d diff = _mm256_sub_pd(vc, prod);
    _mm256_storeu_pd(out + i, _mm256_add_pd(diff, _mm256_loadu_pd(y + i)));
  }
  sub_mul_add_scalar(c, a, x + i, y + i, out + i, n - i);
}

void div_div_avx2(const double* num, const double* den, double d2,
                  double* out_norm, double* out_q, std::size_t n) {
  const __m256d vd2 = _mm256_set1_pd(d2);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d norm =
        _mm256_div_pd(_mm256_loadu_pd(num + i), _mm256_loadu_pd(den + i));
    _mm256_storeu_pd(out_norm + i, norm);
    _mm256_storeu_pd(out_q + i, _mm256_div_pd(norm, vd2));
  }
  div_div_scalar(num + i, den + i, d2, out_norm + i, out_q + i, n - i);
}

void axpy_avx2(double a, const double* x, double* y, std::size_t n) {
  const __m256d va = _mm256_set1_pd(a);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d prod = _mm256_mul_pd(va, _mm256_loadu_pd(x + i));
    _mm256_storeu_pd(y + i, _mm256_add_pd(_mm256_loadu_pd(y + i), prod));
  }
  axpy_scalar(a, x + i, y + i, n - i);
}

void xpby_avx2(const double* x, double b, double* y, std::size_t n) {
  const __m256d vb = _mm256_set1_pd(b);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d prod = _mm256_mul_pd(vb, _mm256_loadu_pd(y + i));
    _mm256_storeu_pd(y + i, _mm256_add_pd(_mm256_loadu_pd(x + i), prod));
  }
  xpby_scalar(x + i, b, y + i, n - i);
}

double dot_avx2(const double* x, const double* y, std::size_t n) {
  // Lane j of acc_lo is partial sum j, lane j of acc_hi is partial sum
  // 4 + j: element i lands in partial i mod 8, exactly the scalar tier's
  // assignment. The tail resumes at a multiple of 8, so (i & 7) keeps
  // matching, and the final combine is the shared fixed tree.
  __m256d acc_lo = _mm256_setzero_pd();
  __m256d acc_hi = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    acc_lo = _mm256_add_pd(
        acc_lo,
        _mm256_mul_pd(_mm256_loadu_pd(x + i), _mm256_loadu_pd(y + i)));
    acc_hi = _mm256_add_pd(
        acc_hi, _mm256_mul_pd(_mm256_loadu_pd(x + i + 4),
                              _mm256_loadu_pd(y + i + 4)));
  }
  double acc[8];
  _mm256_storeu_pd(acc, acc_lo);
  _mm256_storeu_pd(acc + 4, acc_hi);
  for (; i < n; ++i) acc[i & 7] = acc[i & 7] + x[i] * y[i];
  return dot_combine(acc);
}

void spmv_avx2(const std::size_t* row_start, const std::size_t* cols,
               const double* values, const double* x, double* y,
               std::size_t n_rows) {
  // Four rows per iteration, one lane per row. Each lane accumulates its
  // row's nonzeros strictly in CSR order (a single sequential chain), so
  // the result is bit-identical to the scalar reference; rows shorter than
  // the longest in the group sit masked out (gathers suppress faults on
  // masked lanes, and the blend leaves their finished sums untouched).
  std::size_t r = 0;
  for (; r + 4 <= n_rows; r += 4) {
    const __m256i starts = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(row_start + r));
    const __m256i ends = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(row_start + r + 1));
    std::size_t max_len = 0;
    for (std::size_t l = 0; l < 4; ++l) {
      max_len = std::max(max_len, row_start[r + l + 1] - row_start[r + l]);
    }
    __m256d sum = _mm256_setzero_pd();
    for (std::size_t j = 0; j < max_len; ++j) {
      const __m256i k = _mm256_add_epi64(
          starts, _mm256_set1_epi64x(static_cast<long long>(j)));
      const __m256i active = _mm256_cmpgt_epi64(ends, k);
      const __m256d active_pd = _mm256_castsi256_pd(active);
      const __m256d vals = _mm256_mask_i64gather_pd(
          _mm256_setzero_pd(), values, k, active_pd, 8);
      const __m256i col = _mm256_mask_i64gather_epi64(
          _mm256_setzero_si256(),
          reinterpret_cast<const long long*>(cols), k, active, 8);
      const __m256d xv =
          _mm256_mask_i64gather_pd(_mm256_setzero_pd(), x, col, active_pd, 8);
      const __m256d next = _mm256_add_pd(sum, _mm256_mul_pd(vals, xv));
      sum = _mm256_blendv_pd(sum, next, active_pd);
    }
    _mm256_storeu_pd(y + r, sum);
  }
  spmv_scalar(row_start + r, cols, values, x, y + r, n_rows - r);
}

void hermite_eval_avx2(const HermiteView& t, const double* v, double* out,
                       std::size_t n) {
  const __m256d v_lo = _mm256_set1_pd(t.v_lo);
  const __m256d inv_h = _mm256_set1_pd(t.inv_h);
  const __m256d hv = _mm256_set1_pd(t.h);
  const __m256d zero = _mm256_setzero_pd();
  const __m256d last = _mm256_set1_pd(static_cast<double>(t.knots - 2));
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d two = _mm256_set1_pd(2.0);
  const __m256d three = _mm256_set1_pd(3.0);
  const __m256d minus_two = _mm256_set1_pd(-2.0);
  // The masked gather form with an explicit zero source and an all-lanes
  // mask: the unmasked intrinsic passes an undefined source, which gcc 12
  // reports as -Wmaybe-uninitialized. Every lane is gathered either way.
  const __m256d all = _mm256_castsi256_pd(_mm256_set1_epi64x(-1));
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256d s = _mm256_mul_pd(_mm256_sub_pd(_mm256_loadu_pd(v + i), v_lo),
                              inv_h);
    s = _mm256_max_pd(s, zero);
    __m256d fj = _mm256_round_pd(s, _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC);
    fj = _mm256_min_pd(fj, last);
    const __m128i idx = _mm256_cvttpd_epi32(fj);
    const __m256d fi = _mm256_mask_i32gather_pd(zero, t.f, idx, all, 8);
    const __m256d fi1 = _mm256_mask_i32gather_pd(zero, t.f + 1, idx, all, 8);
    const __m256d di = _mm256_mask_i32gather_pd(zero, t.d, idx, all, 8);
    const __m256d di1 = _mm256_mask_i32gather_pd(zero, t.d + 1, idx, all, 8);
    const __m256d tt = _mm256_sub_pd(s, fj);
    const __m256d t2 = _mm256_mul_pd(tt, tt);
    const __m256d t3 = _mm256_mul_pd(t2, tt);
    const __m256d c1 = _mm256_add_pd(
        _mm256_sub_pd(_mm256_mul_pd(two, t3), _mm256_mul_pd(three, t2)), one);
    const __m256d c2 = _mm256_add_pd(
        _mm256_sub_pd(t3, _mm256_mul_pd(two, t2)), tt);
    const __m256d c3 = _mm256_add_pd(_mm256_mul_pd(minus_two, t3),
                                     _mm256_mul_pd(three, t2));
    const __m256d c4 = _mm256_sub_pd(t3, t2);
    __m256d r = _mm256_mul_pd(c1, fi);
    r = _mm256_add_pd(r, _mm256_mul_pd(_mm256_mul_pd(c2, hv), di));
    r = _mm256_add_pd(r, _mm256_mul_pd(c3, fi1));
    r = _mm256_add_pd(r, _mm256_mul_pd(_mm256_mul_pd(c4, hv), di1));
    _mm256_storeu_pd(out + i, r);
  }
  hermite_eval_scalar(t, v + i, out + i, n - i);
}

void convolve_avx2(const double* a, std::size_t n, const double* b,
                   std::size_t m, double* out) {
  // Same output-stationary blocking as the AVX-512 tier, 16 outputs in
  // four accumulators per block.
  constexpr std::size_t kBlock = 16;
  const ConvolvePlan plan = plan_convolve(a, n, b, m, kBlock);
  const std::size_t n_out = n + m - 1;
  for (std::size_t s0 = 0; s0 < n_out; s0 += kBlock) {
    // b[j] reaches the block iff s0 - (n - 1) <= j <= s0 + kBlock - 1.
    const std::size_t j_lo = s0 + 1 > n ? s0 + 1 - n : 0;
    const std::size_t j_hi = s0 + kBlock - 1;
    const std::size_t off = kBlock + s0;  // padded_a[off - j] = a[s0 - j]
    __m256d acc0 = _mm256_setzero_pd();
    __m256d acc1 = _mm256_setzero_pd();
    __m256d acc2 = _mm256_setzero_pd();
    __m256d acc3 = _mm256_setzero_pd();
    auto tap = std::find_if(plan.taps.begin(), plan.taps.end(),
                            [&](std::size_t j) { return j <= j_hi; });
    for (; tap != plan.taps.end() && *tap >= j_lo; ++tap) {
      const __m256d bj = _mm256_set1_pd(b[*tap]);
      const double* src = plan.padded_a.data() + (off - *tap);
      acc0 = _mm256_add_pd(acc0, _mm256_mul_pd(_mm256_loadu_pd(src), bj));
      acc1 = _mm256_add_pd(acc1, _mm256_mul_pd(_mm256_loadu_pd(src + 4), bj));
      acc2 = _mm256_add_pd(acc2, _mm256_mul_pd(_mm256_loadu_pd(src + 8), bj));
      acc3 = _mm256_add_pd(acc3, _mm256_mul_pd(_mm256_loadu_pd(src + 12), bj));
    }
    double block[kBlock];
    _mm256_storeu_pd(block, acc0);
    _mm256_storeu_pd(block + 4, acc1);
    _mm256_storeu_pd(block + 8, acc2);
    _mm256_storeu_pd(block + 12, acc3);
    std::copy_n(block, std::min(kBlock, n_out - s0), out + s0);
  }
}

}  // namespace leakydsp::util::simd::detail

#endif  // LEAKYDSP_SIMD_AVX2
