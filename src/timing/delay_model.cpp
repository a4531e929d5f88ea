#include "timing/delay_model.h"

#include <algorithm>
#include <cmath>

#include "util/aligned.h"
#include "util/contracts.h"
#include "util/simd_ops.h"

namespace leakydsp::timing {

double AlphaPowerLaw::scale(double v) const {
  LD_REQUIRE(v > vth, "supply " << v << " V at or below threshold " << vth
                                << " V — outside model validity");
  // Sakurai–Newton: delay ∝ V / (V - Vth)^alpha, normalized at vnom.
  const double num = (v / vnom);
  const double den = std::pow((v - vth) / (vnom - vth), alpha);
  return num / den;
}

double AlphaPowerLaw::sensitivity_at_nominal() const {
  // d/dV [ V/vnom * ((vnom-vth)/(V-vth))^alpha ] at V = vnom:
  //   = 1/vnom - alpha/(vnom - vth)
  return 1.0 / vnom - alpha / (vnom - vth);
}

ScaleTable::ScaleTable(AlphaPowerLaw law, double v_lo, double v_hi,
                       std::size_t knots)
    : law_(law), v_lo_(v_lo), v_hi_(v_hi) {
  LD_REQUIRE(knots >= 2, "scale table needs at least two knots");
  LD_REQUIRE(v_lo > law.vth,
             "table range [" << v_lo << ", " << v_hi
                             << "] must sit above the threshold " << law.vth);
  LD_REQUIRE(v_lo < v_hi, "empty table range");
  h_ = (v_hi_ - v_lo_) / static_cast<double>(knots - 1);
  inv_h_ = 1.0 / h_;
  f_.reserve(knots);
  d_.reserve(knots);
  for (std::size_t i = 0; i < knots; ++i) {
    const double v = v_lo_ + static_cast<double>(i) * h_;
    const double s = law_.scale(v);
    f_.push_back(s);
    // d/dV [ v/vnom * ((vnom-vth)/(v-vth))^alpha ] = scale * (1/v - a/(v-vth))
    d_.push_back(s * (1.0 / v - law_.alpha / (v - law_.vth)));
  }
}

ScaleTable::ScaleTable(AlphaPowerLaw law)
    : ScaleTable(law, law.vth + 0.25 * (law.vnom - law.vth),
                 law.vnom + 0.5 * (law.vnom - law.vth)) {}

double ScaleTable::operator()(double v) const {
  if (v < v_lo_ || v > v_hi_) return law_.scale(v);
  const double s = (v - v_lo_) * inv_h_;
  std::size_t i = static_cast<std::size_t>(s);
  if (i >= f_.size() - 1) i = f_.size() - 2;  // v == v_hi
  const double t = s - static_cast<double>(i);
  const double t2 = t * t;
  const double t3 = t2 * t;
  return (2.0 * t3 - 3.0 * t2 + 1.0) * f_[i] +
         (t3 - 2.0 * t2 + t) * h_ * d_[i] +
         (-2.0 * t3 + 3.0 * t2) * f_[i + 1] + (t3 - t2) * h_ * d_[i + 1];
}

void ScaleTable::eval_batch(const double* v, double* out,
                            std::size_t n) const {
  const util::simd::HermiteView view{f_.data(), d_.data(), f_.size(),
                                     v_lo_,     h_,        inv_h_};
  util::simd::hermite_eval(view, v, out, n);
  // The kernel clamps out-of-range lanes into the table instead of taking
  // operator()'s exact-law fallback; patch those (rare — supplies a rig
  // can produce stay in range) afterwards.
  for (std::size_t i = 0; i < n; ++i) {
    if (v[i] < v_lo_ || v[i] > v_hi_) out[i] = law_.scale(v[i]);
  }
}

DelayChain::DelayChain(std::vector<double> stage_delays_ns, AlphaPowerLaw law)
    : stage_delays_(std::move(stage_delays_ns)), law_(law) {
  LD_REQUIRE(!stage_delays_.empty(), "delay chain needs at least one stage");
  cumulative_.reserve(stage_delays_.size());
  double sum = 0.0;
  for (const double d : stage_delays_) {
    LD_REQUIRE(d > 0.0, "non-positive stage delay " << d << " ns");
    sum += d;
    cumulative_.push_back(sum);
  }
  nominal_total_ = sum;
  uniform_stage_ = stage_delays_.front();
  uniform_ = std::all_of(stage_delays_.begin(), stage_delays_.end(),
                         [&](double d) { return d == uniform_stage_; });
}

double DelayChain::total_delay(double v) const {
  return nominal_total_ * law_.scale(v);
}

double DelayChain::arrival(std::size_t i, double v) const {
  LD_REQUIRE(i < cumulative_.size(), "stage " << i << " out of range");
  return cumulative_[i] * law_.scale(v);
}

std::size_t DelayChain::stages_within(double budget_ns, double v) const {
  return stages_within_scaled(budget_ns, law_.scale(v));
}

std::size_t DelayChain::stages_within_scaled(double budget_ns,
                                             double scale) const {
  if (budget_ns <= 0.0) return 0;
  const double normalized = budget_ns / scale;
  const std::size_t n = cumulative_.size();
  if (uniform_) {
    // TDC chains have one common stage delay, so the traversal count is a
    // divide away. The prefix sums carry accumulated rounding the quotient
    // does not, so nudge the candidate until it matches the exact
    // upper_bound semantics (at most a step or two).
    const double q = normalized / uniform_stage_;
    std::size_t i =
        q <= 0.0 ? 0
                 : static_cast<std::size_t>(std::min(
                       q, static_cast<double>(n)));
    while (i < n && cumulative_[i] <= normalized) ++i;
    while (i > 0 && cumulative_[i - 1] > normalized) --i;
    return i;
  }
  // First cumulative value strictly greater than the budget marks the end.
  const auto it =
      std::upper_bound(cumulative_.begin(), cumulative_.end(), normalized);
  return static_cast<std::size_t>(it - cumulative_.begin());
}

void DelayChain::stages_within_scaled_batch(const double* budget_ns,
                                            const double* scale, double* out,
                                            std::size_t n) const {
  if (!uniform_) {
    for (std::size_t s = 0; s < n; ++s) {
      out[s] = static_cast<double>(stages_within_scaled(budget_ns[s],
                                                        scale[s]));
    }
    return;
  }
  // Uniform chains: both divides of the per-sample fast path (budget/scale
  // and the stage quotient) vectorize; the candidate nudge against the
  // prefix sums stays scalar (at most a step or two per sample) and keeps
  // the exact upper_bound semantics.
  static thread_local util::aligned_vector<double> norm;
  static thread_local util::aligned_vector<double> quot;
  norm.resize(n);
  quot.resize(n);
  util::simd::div_div(budget_ns, scale, uniform_stage_, norm.data(),
                      quot.data(), n);
  const std::size_t stages = cumulative_.size();
  for (std::size_t s = 0; s < n; ++s) {
    if (budget_ns[s] <= 0.0) {
      out[s] = 0.0;
      continue;
    }
    const double normalized = norm[s];
    const double q = quot[s];
    std::size_t i =
        q <= 0.0 ? 0
                 : static_cast<std::size_t>(
                       std::min(q, static_cast<double>(stages)));
    while (i < stages && cumulative_[i] <= normalized) ++i;
    while (i > 0 && cumulative_[i - 1] > normalized) --i;
    out[s] = static_cast<double>(i);
  }
}

}  // namespace leakydsp::timing
