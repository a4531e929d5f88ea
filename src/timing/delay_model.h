// Voltage→delay physics shared by every sensor model.
//
// CMOS gate delay grows as supply voltage drops; the standard compact model
// is the Sakurai–Newton alpha-power law: delay ∝ V / (V - Vth)^alpha. We
// expose it as a dimensionless *scale factor* relative to nominal supply, so
// a chain with nominal delay D has delay D * scale(V) at supply V. Voltage
// droops of a few mV produce delay stretches of tens of ps on a ~10 ns
// amplified path — exactly the signal LeakyDSP and TDC sensors digitize.
#pragma once

#include <cstddef>
#include <vector>

#include "util/rng.h"

namespace leakydsp::timing {

/// Sakurai–Newton alpha-power voltage→delay law, normalized so that
/// scale(vnom) == 1.
struct AlphaPowerLaw {
  double vnom = 1.0;   ///< Nominal supply voltage [V].
  double vth = 0.30;   ///< Effective threshold voltage [V].
  double alpha = 1.3;  ///< Velocity-saturation exponent.

  /// Delay scale factor at supply `v` (relative to nominal). Throws when `v`
  /// does not exceed the threshold voltage — a supply collapse outside the
  /// model's validity range.
  double scale(double v) const;

  /// d(scale)/dV evaluated at nominal supply [1/V]; negative (higher supply
  /// is faster). Useful for first-order sensitivity analysis in tests.
  double sensitivity_at_nominal() const;
};

/// Precomputed cubic-Hermite interpolation table of AlphaPowerLaw::scale
/// over a supply interval, with the exact std::pow evaluation as fallback
/// outside it. scale() costs one std::pow per call and sensor hot paths
/// evaluate it once per sample (hundreds of millions of times per
/// campaign); the table replaces that with a floor + two fused cubics.
///
/// Error budget: cubic Hermite interpolation with exact endpoint
/// derivatives has max error (h^4 / 384) * max|f''''| per knot interval.
/// The law's fourth derivative is bounded by
///   f''''(v) <= scale(v) * alpha(alpha+1)(alpha+2)(alpha+3) / (v - vth)^4,
/// so for the default operational range and kKnots below the worst-case
/// absolute error is under kMaxAbsError = 1e-9 — four orders of magnitude
/// below the mV-scale supply noise that dominates every readout. A test
/// sweeps the full table range against the exact law and pins the bound.
class ScaleTable {
 public:
  /// Documented interpolation error bound on [v_lo, v_hi] (absolute).
  static constexpr double kMaxAbsError = 1e-9;
  /// Default knot count; see the error budget above.
  static constexpr std::size_t kKnots = 1024;

  /// Table over [v_lo, v_hi]; requires vth < v_lo < v_hi.
  ScaleTable(AlphaPowerLaw law, double v_lo, double v_hi,
             std::size_t knots = kKnots);

  /// Default operational range: vth + 0.25 (vnom - vth) up to
  /// vnom + 0.5 (vnom - vth) — every supply a rig can realistically
  /// produce; collapses beyond it hit the exact fallback (which still
  /// enforces the law's v > vth validity requirement).
  explicit ScaleTable(AlphaPowerLaw law);

  const AlphaPowerLaw& law() const { return law_; }
  double v_lo() const { return v_lo_; }
  double v_hi() const { return v_hi_; }

  /// Batch operator(): out[i] == (*this)(v[i]) bitwise for every i. The
  /// in-range interpolation runs through the util::simd Hermite kernel
  /// (vectorized on AVX hosts, identical scalar chain otherwise);
  /// out-of-range lanes are routed to the exact-law fallback afterwards.
  void eval_batch(const double* v, double* out, std::size_t n) const;

  /// Delay scale factor at supply `v`: interpolated inside [v_lo, v_hi],
  /// exact (and validity-checked) outside. Defined out of line in the
  /// -ffp-contract=off delay_model.cpp: it is the Hermite kernel's bitwise
  /// reference, and an inline body would let each including TU fuse its
  /// multiplies and adds under -march=native.
  double operator()(double v) const;

 private:
  AlphaPowerLaw law_;
  double v_lo_ = 0.0;
  double v_hi_ = 0.0;
  double h_ = 0.0;      // knot spacing
  double inv_h_ = 0.0;
  std::vector<double> f_;  // scale at knots
  std::vector<double> d_;  // d(scale)/dV at knots
};

/// A chain of combinational delay stages (e.g. 128 CARRY4 mux stages, or the
/// sub-component path of a DSP48). All stage delays stretch by the same
/// voltage scale factor because they share the supply rail.
class DelayChain {
 public:
  DelayChain(std::vector<double> stage_delays_ns, AlphaPowerLaw law);

  std::size_t stages() const { return stage_delays_.size(); }
  const AlphaPowerLaw& law() const { return law_; }

  /// True when every stage has the same (bitwise) nominal delay — the TDC
  /// configuration. Enables the O(1) stages_within fast path.
  bool uniform_stages() const { return uniform_; }

  /// Total propagation delay at supply `v` [ns].
  double total_delay(double v) const;

  /// Cumulative delay up to and including stage `i` at supply `v` [ns].
  double arrival(std::size_t i, double v) const;

  /// Number of stages whose cumulative arrival time is <= `budget_ns` at
  /// supply `v` — the thermometer-code observable of a TDC.
  std::size_t stages_within(double budget_ns, double v) const;

  /// stages_within with the voltage scale factor already evaluated (batched
  /// sensor paths compute it once per sample through a ScaleTable). Uniform
  /// chains take an O(1) divide instead of a binary search; the result is
  /// bit-identical to the search in either case.
  std::size_t stages_within_scaled(double budget_ns, double scale) const;

  /// Batch stages_within_scaled over parallel budget/scale arrays:
  /// out[i] == double(stages_within_scaled(budget_ns[i], scale[i])) bitwise
  /// (double is the readout type the SoA sensor paths store). Uniform
  /// chains vectorize the two divides through the util::simd ops.
  void stages_within_scaled_batch(const double* budget_ns,
                                  const double* scale, double* out,
                                  std::size_t n) const;

  double nominal_total() const { return nominal_total_; }

 private:
  std::vector<double> stage_delays_;
  std::vector<double> cumulative_;  // prefix sums of nominal stage delays
  AlphaPowerLaw law_;
  double nominal_total_ = 0.0;
  double uniform_stage_ = 0.0;  // the common stage delay when uniform_
  bool uniform_ = false;
};

/// Gaussian sampling jitter on a capture clock edge [ns rms].
struct JitterModel {
  double sigma_ns = 0.0;

  double sample(util::Rng& rng) const {
    return sigma_ns > 0.0 ? rng.gaussian(0.0, sigma_ns) : 0.0;
  }
};

}  // namespace leakydsp::timing
