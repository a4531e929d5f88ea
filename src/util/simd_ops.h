// Elementwise SIMD primitives behind the runtime dispatch facility in
// cpu_features.h. Every op has one scalar reference implementation and
// optional AVX2 / AVX-512 tiers; all tiers are bit-identical on every
// input, so which tier runs is invisible to results (goldens, checkpoints,
// oracles) and is chosen purely for speed.
//
// The identity argument: each output lane is an independent chain of
// individually rounded IEEE operations in a fixed order, and the vector
// tiers evaluate exactly the same per-lane operation sequence with packed
// instructions (no fused multiply-add unless the scalar reference uses
// std::fma, no reassociation, no reduced-precision approximations). The
// scalar TU is pinned to -ffp-contract=off so LEAKYDSP_NATIVE builds
// cannot silently fuse what the vector tiers keep separate.
//
// Tail lanes (n not a multiple of the vector width) are delegated to the
// scalar reference, which keeps the masked-edge logic in exactly one
// place per op.
#pragma once

#include <cstddef>
#include <vector>

namespace leakydsp::util::simd {

/// Raw view of a cubic-Hermite table (timing::ScaleTable internals) for
/// batch evaluation. `f`/`d` hold `knots` values each; `h` is the knot
/// spacing and `inv_h` its reciprocal as stored by the table.
struct HermiteView {
  const double* f = nullptr;
  const double* d = nullptr;
  std::size_t knots = 0;  ///< >= 2
  double v_lo = 0.0;
  double h = 0.0;
  double inv_h = 0.0;
};

/// Count of i in [0, n) with a[i] <= bound. On a sorted-ascending array
/// this equals the std::upper_bound index. Exact (comparisons only).
std::size_t count_le(const double* a, std::size_t n, double bound);

/// out[0..n) = value.
void fill(double* out, std::size_t n, double value);

/// out[i] = num / den[i].
void div_scalar(double num, const double* den, double* out, std::size_t n);

/// out[i] = (c - a * x[i]) + y[i], every operation individually rounded —
/// the capture-budget expression of the TDC batch path.
void sub_mul_add(double c, double a, const double* x, const double* y,
                 double* out, std::size_t n);

/// out_norm[i] = num[i] / den[i]; out_q[i] = out_norm[i] / d2 — the
/// normalized-budget and uniform-stage-quotient pair of
/// DelayChain::stages_within_scaled.
void div_div(const double* num, const double* den, double d2,
             double* out_norm, double* out_q, std::size_t n);

/// y[i] += a * x[i], every operation individually rounded — the CG/PCG
/// search-direction update.
void axpy(double a, const double* x, double* y, std::size_t n);

/// y[i] = x[i] + b * y[i] — the PCG direction recombination p = z + beta p.
void xpby(const double* x, double b, double* y, std::size_t n);

/// Dot product with a FIXED reduction order shared by every tier: element i
/// accumulates into partial sum i mod 8, and the eight partials combine as
/// ((s0+s1)+(s2+s3)) + ((s4+s5)+(s6+s7)). The scalar tier implements the
/// same eight-lane chains, so all tiers are bit-identical — but note the
/// order intentionally differs from a plain sequential loop.
double dot(const double* x, const double* y, std::size_t n);

/// CSR sparse matrix-vector product y = A x. Each row's accumulation is a
/// single sequential chain in nonzero order — exactly the scalar reference
/// loop — so every tier is bit-identical to it; the vector tiers win by
/// running several row chains in parallel lanes (one lane per row).
void spmv(const std::size_t* row_start, const std::size_t* cols,
          const double* values, const double* x, double* y,
          std::size_t n_rows);

/// out[i] = the cubic-Hermite interpolant of `t` at v[i], replicating
/// timing::ScaleTable::operator()'s expression tree bit for bit for
/// v[i] in [v_lo, v_hi]. Lanes outside the table range still produce a
/// defined value (the interpolation position is clamped into the table,
/// never read out of bounds) but it is NOT the table's exact-law fallback;
/// callers overwrite such lanes themselves. v[i] must not be NaN.
void hermite_eval(const HermiteView& t, const double* v, double* out,
                  std::size_t n);

/// Full linear convolution out[0, n + m - 1) of a[0, n) and b[0, m), for
/// n, m >= 1 — histogram convolution. Inputs must be finite and >= 0.
/// Every out[s] starts at +0.0 and then, for i ascending, takes
/// out[s] = out[s] + a[i] * b[s - i], product and sum each rounded on
/// their own. Because every term is >= +0, adding a zero term (or skipping
/// one) is exact: the scalar tier skips zero a[i], and the vector tiers
/// skip zero b[j] and fill whole register blocks of outputs from a
/// zero-padded copy of a; every tier still returns the same bits.
void convolve(const double* a, std::size_t n, const double* b, std::size_t m,
              double* out);

namespace detail {

// Per-tier entry points. The public functions above dispatch on
// util::current_simd_tier(); tests reach individual tiers through
// util::set_simd_tier_override instead of calling these directly.
std::size_t count_le_scalar(const double* a, std::size_t n, double bound);
void fill_scalar(double* out, std::size_t n, double value);
void div_scalar_scalar(double num, const double* den, double* out,
                       std::size_t n);
void sub_mul_add_scalar(double c, double a, const double* x, const double* y,
                        double* out, std::size_t n);
void div_div_scalar(const double* num, const double* den, double d2,
                    double* out_norm, double* out_q, std::size_t n);
void axpy_scalar(double a, const double* x, double* y, std::size_t n);
void xpby_scalar(const double* x, double b, double* y, std::size_t n);
double dot_scalar(const double* x, const double* y, std::size_t n);
void spmv_scalar(const std::size_t* row_start, const std::size_t* cols,
                 const double* values, const double* x, double* y,
                 std::size_t n_rows);
void hermite_eval_scalar(const HermiteView& t, const double* v, double* out,
                         std::size_t n);
void convolve_scalar(const double* a, std::size_t n, const double* b,
                     std::size_t m, double* out);

/// Set-up shared by the vector convolve tiers: `a` between `pad` zeros on
/// each side, and the indices of b's nonzero bins in descending order
/// (descending j is ascending i = s - j within every output lane).
struct ConvolvePlan {
  std::vector<double> padded_a;
  std::vector<std::size_t> taps;
};
ConvolvePlan plan_convolve(const double* a, std::size_t n, const double* b,
                           std::size_t m, std::size_t pad);

/// Shared by every dot tier: the eight partial sums (element i accumulates
/// into acc[i mod 8]) combine in this fixed tree. Vector tiers resume their
/// scalar tails at a multiple of 8, so lane assignment always lines up.
inline double dot_combine(const double acc[8]) {
  return ((acc[0] + acc[1]) + (acc[2] + acc[3])) +
         ((acc[4] + acc[5]) + (acc[6] + acc[7]));
}

#ifdef LEAKYDSP_SIMD_AVX2
std::size_t count_le_avx2(const double* a, std::size_t n, double bound);
void fill_avx2(double* out, std::size_t n, double value);
void div_scalar_avx2(double num, const double* den, double* out,
                     std::size_t n);
void sub_mul_add_avx2(double c, double a, const double* x, const double* y,
                      double* out, std::size_t n);
void div_div_avx2(const double* num, const double* den, double d2,
                  double* out_norm, double* out_q, std::size_t n);
void axpy_avx2(double a, const double* x, double* y, std::size_t n);
void xpby_avx2(const double* x, double b, double* y, std::size_t n);
double dot_avx2(const double* x, const double* y, std::size_t n);
void spmv_avx2(const std::size_t* row_start, const std::size_t* cols,
               const double* values, const double* x, double* y,
               std::size_t n_rows);
void hermite_eval_avx2(const HermiteView& t, const double* v, double* out,
                       std::size_t n);
void convolve_avx2(const double* a, std::size_t n, const double* b,
                   std::size_t m, double* out);
#endif

#ifdef LEAKYDSP_SIMD_AVX512
std::size_t count_le_avx512(const double* a, std::size_t n, double bound);
void fill_avx512(double* out, std::size_t n, double value);
void div_scalar_avx512(double num, const double* den, double* out,
                       std::size_t n);
void sub_mul_add_avx512(double c, double a, const double* x, const double* y,
                        double* out, std::size_t n);
void div_div_avx512(const double* num, const double* den, double d2,
                    double* out_norm, double* out_q, std::size_t n);
void axpy_avx512(double a, const double* x, double* y, std::size_t n);
void xpby_avx512(const double* x, double b, double* y, std::size_t n);
double dot_avx512(const double* x, const double* y, std::size_t n);
void spmv_avx512(const std::size_t* row_start, const std::size_t* cols,
                 const double* values, const double* x, double* y,
                 std::size_t n_rows);
void hermite_eval_avx512(const HermiteView& t, const double* v, double* out,
                         std::size_t n);
void convolve_avx512(const double* a, std::size_t n, const double* b,
                     std::size_t m, double* out);
#endif

}  // namespace detail

}  // namespace leakydsp::util::simd
