#include "core/leaky_dsp.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <numbers>

#include "fabric/netlist_builders.h"
#include "sensors/calibration.h"
#include "util/contracts.h"
#include "util/cpu_features.h"
#include "util/simd_ops.h"

namespace leakydsp::core {

LeakyDspSensor::LeakyDspSensor(const fabric::Device& device,
                               fabric::SiteCoord site, LeakyDspParams params)
    : arch_(device.architecture()),
      site_(site),
      params_(params),
      scale_lut_(params.law) {
  LD_REQUIRE(params_.n_dsp >= 1, "need at least one DSP block");
  LD_REQUIRE(params_.clock_mhz > 0.0, "clock must be positive");
  LD_REQUIRE(params_.bit_spread_ns > 0.0, "bit spread must be positive");
  LD_REQUIRE(device.site_type(site) == fabric::SiteType::kDsp,
             "LeakyDSP must be placed on a DSP site, got "
                 << fabric::to_string(device.site_type(site)) << " at ("
                 << site.x << "," << site.y << ")");
  // The cascade occupies consecutive DSP sites upward in the column.
  for (std::size_t i = 1; i < params_.n_dsp; ++i) {
    const fabric::SiteCoord next{site.x, site.y + static_cast<int>(i)};
    LD_REQUIRE(device.contains(next) &&
                   device.site_type(next) == fabric::SiteType::kDsp,
               "DSP column too short for a " << params_.n_dsp
                                             << "-block cascade at ("
                                             << site.x << "," << site.y << ")");
  }

  configs_.reserve(params_.n_dsp);
  for (std::size_t i = 0; i < params_.n_dsp; ++i) {
    configs_.push_back(fabric::Dsp48Config::leaky_identity(
        arch_, /*first_in_chain=*/i == 0,
        /*last_in_chain=*/i + 1 == params_.n_dsp));
  }

  // Per-bit nominal settle times: chain base delay plus a non-uniform
  // spread across the output word (tapered spacing + periodic ripple).
  LD_REQUIRE(params_.taper * 0.5 + params_.ripple_beta < 1.0,
             "taper/ripple combination makes spacing non-positive");
  const double base = params_.dsp_delay_ns * static_cast<double>(params_.n_dsp);
  settle_ns_.reserve(kOutputBits);
  const double mean_spacing =
      params_.bit_spread_ns / static_cast<double>(kOutputBits);
  double cumulative = base;
  for (std::size_t i = 0; i < kOutputBits; ++i) {
    const double frac = (static_cast<double>(i) + 0.5) /
                        static_cast<double>(kOutputBits);
    const double taper_factor = 1.0 + params_.taper * (0.5 - frac);
    const double ripple =
        1.0 + params_.ripple_beta *
                  std::sin(2.0 * std::numbers::pi * static_cast<double>(i) /
                           params_.ripple_period_bits);
    cumulative += mean_spacing * taper_factor * ripple;
    settle_ns_.push_back(cumulative);
  }

  // Whole sample clocks spanned by the chain: the capture edge nearest the
  // end of the settle window. The two IDELAY lines then trim the phase by
  // up to ±31 taps (±2.4 ns), which always reaches the window because the
  // rounding error is at most half a 3.33 ns period.
  const double period = clock_period_ns();
  capture_cycles_ = static_cast<int>(std::lround(
      (base + params_.bit_spread_ns) / period));
  if (capture_cycles_ < 1) capture_cycles_ = 1;
}

void LeakyDspSensor::set_taps(int a_taps, int clk_taps) {
  fabric::IDelayConfig a{arch_, a_taps};
  fabric::IDelayConfig c{arch_, clk_taps};
  a.validate();
  c.validate();
  a_taps_ = a_taps;
  clk_taps_ = clk_taps;
}

void LeakyDspSensor::set_fine_phase(int steps) {
  LD_REQUIRE(steps >= 0 && steps <= 5, "fine phase " << steps
                                                     << " outside 0..5");
  fine_phase_ = steps;
}

double LeakyDspSensor::sampling_time_ns() const {
  const double tap_ns = fabric::idelay_taps(arch_).tap_ps * 1e-3;
  // Delaying the input signal (A) moves the settle window later, which is
  // equivalent to moving the capture edge *earlier* by the same amount;
  // delaying the capture clock (IDELAY taps or MMCM fine phase) moves it
  // later.
  return capture_cycles_ * clock_period_ns() - a_taps_ * tap_ns +
         clk_taps_ * tap_ns + fine_phase_ * tap_ns / 5.0;
}

double LeakyDspSensor::bit_settle_ns(std::size_t i) const {
  LD_REQUIRE(i < kOutputBits, "bit " << i << " out of range");
  return settle_ns_[i];
}

double LeakyDspSensor::sample(double supply_v, util::Rng& rng) {
  const double scale = params_.law.scale(supply_v);
  const double t_capture = sampling_time_ns();
  double settled = 0.0;
  for (std::size_t i = 0; i < kOutputBits; ++i) {
    const double t = settle_ns_[i] * scale +
                     (params_.jitter_sigma_ns > 0.0
                          ? rng.gaussian(0.0, params_.jitter_sigma_ns)
                          : 0.0);
    if (t <= t_capture) settled += 1.0;
  }
  return settled;
}

void LeakyDspSensor::capture_bounds(const double* scale, double* lo,
                                    double* hi, std::size_t n) const {
  const double t_capture = sampling_time_ns();
  const double cut = kJitterCutSigma * params_.jitter_sigma_ns;
  util::simd::div_scalar(t_capture - cut, scale, lo, n);
  util::simd::div_scalar(t_capture + cut, scale, hi, n);
}

void LeakyDspSensor::sample_batch(std::span<const double> supply_v,
                                  std::span<double> out, util::Rng& rng) {
  LD_REQUIRE(out.size() >= supply_v.size(),
             "output span too small: " << out.size() << " < "
                                       << supply_v.size());
  const double t_capture = sampling_time_ns();
  const double sigma = params_.jitter_sigma_ns;
  const std::size_t n = supply_v.size();
  const double* const settle = settle_ns_.data();
  // Per-sample voltage scales and capture bounds go through the SIMD ops
  // (bit-identical to the per-sample expressions on every dispatch tier);
  // bit counts use the vectorized count_le, which on the strictly
  // ascending settle array equals the historical upper_bound index.
  scale_scratch_.resize(n);
  scale_lut_.eval_batch(supply_v.data(), scale_scratch_.data(), n);
  if (sigma <= 0.0) {
    // Jitter-free: bit i settles iff settle_ns_[i] * scale <= t_capture.
    bound_scratch_.resize(n);
    util::simd::div_scalar(t_capture, scale_scratch_.data(),
                           bound_scratch_.data(), n);
    for (std::size_t s = 0; s < n; ++s) {
      out[s] = static_cast<double>(
          util::simd::count_le(settle, kOutputBits, bound_scratch_[s]));
    }
  } else {
    // Bits whose nominal arrival sits more than kJitterCutSigma jitter
    // sigmas before (after) the capture edge always (never) settle; only
    // the uncertain window needs Gaussian draws. With the default geometry
    // and a calibrated capture edge that is about 21 of the 48 bits per
    // sample (a campaign trace draws ~4,150 times over its 195 readouts).
    // Each readout fills its window's jitters in one ziggurat call, which
    // is the same stream as one gaussian_zig() per bit in bit order. This
    // count is the reference the AVX-512 group kernel must equal bit for
    // bit, which is why this file builds with -ffp-contract=off.
    bound_scratch_.resize(n);
    bound_hi_scratch_.resize(n);
    capture_bounds(scale_scratch_.data(), bound_scratch_.data(),
                   bound_hi_scratch_.data(), n);
    for (std::size_t s = 0; s < n; ++s) {
      const double scale = scale_scratch_[s];
      const std::size_t first =
          util::simd::count_le(settle, kOutputBits, bound_scratch_[s]);
      const std::size_t last =
          util::simd::count_le(settle, kOutputBits, bound_hi_scratch_[s]);
      std::array<double, kOutputBits> jitter;
      rng.fill_gaussian_zig(std::span<double>(jitter).first(last - first));
      std::size_t count = first;
      for (std::size_t i = first; i < last; ++i) {
        count += settle[i] * scale + sigma * jitter[i - first] <= t_capture;
      }
      out[s] = static_cast<double>(count);
    }
  }
}

double LeakyDspSensor::mean_readout(double supply_v, std::size_t n,
                                    util::Rng& rng) {
  LD_REQUIRE(n >= 1, "need at least one sample");
  const double t_capture = sampling_time_ns();
  const double sigma = params_.jitter_sigma_ns;
  const double* const settle = settle_ns_.data();
  double scale = 0.0;
  scale_lut_.eval_batch(&supply_v, &scale, 1);
  if (sigma <= 0.0) {
    double bound = 0.0;
    util::simd::div_scalar(t_capture, &scale, &bound, 1);
    const std::size_t count = util::simd::count_le(settle, kOutputBits, bound);
    return static_cast<double>(n * count) / static_cast<double>(n);
  }
  double lo = 0.0;
  double hi = 0.0;
  capture_bounds(&scale, &lo, &hi, 1);
  const std::size_t first = util::simd::count_le(settle, kOutputBits, lo);
  const std::size_t last = util::simd::count_le(settle, kOutputBits, hi);
  const std::size_t window = last - first;
  std::size_t total = n * first;
  if (window > 0) {
    // The window's nominal arrivals, rounded as sample_batch rounds
    // settle[i] * scale before adding the jitter.
    std::array<double, kOutputBits> arrival{};
    for (std::size_t i = 0; i < window; ++i) {
      arrival[i] = settle[first + i] * scale;
    }
    std::array<double, 8 * kOutputBits> jitter{};
    const std::size_t per_fill = jitter.size() / window;
    for (std::size_t done = 0; done < n;) {
      const std::size_t readouts = std::min(per_fill, n - done);
      rng.fill_gaussian_zig(
          std::span<double>(jitter).first(readouts * window));
      for (std::size_t r = 0; r < readouts; ++r) {
        const double* const j = jitter.data() + r * window;
        for (std::size_t i = 0; i < window; ++i) {
          total += arrival[i] + sigma * j[i] <= t_capture;
        }
      }
      done += readouts;
    }
  }
  return static_cast<double>(total) / static_cast<double>(n);
}

void LeakyDspSensor::sample_traces(std::span<const double> supplies,
                                   std::span<double> out,
                                   std::span<util::Rng> rngs) {
#ifdef LEAKYDSP_SIMD_AVX512
  if (params_.jitter_sigma_ns > 0.0 &&
      util::current_simd_tier() >= util::SimdTier::kAvx512) {
    const std::size_t n = trace_length(supplies, out, rngs);
    const std::size_t total = supplies.size();
    scale_scratch_.resize(total);
    bound_scratch_.resize(total);
    bound_hi_scratch_.resize(total);
    window_scratch_.resize(2 * total);
    scale_lut_.eval_batch(supplies.data(), scale_scratch_.data(), total);
    capture_bounds(scale_scratch_.data(), bound_scratch_.data(),
                   bound_hi_scratch_.data(), total);
    detail::TraceGroupView group;
    group.settle = settle_ns_.data();
    group.t_capture = sampling_time_ns();
    group.sigma = params_.jitter_sigma_ns;
    group.readouts = n;
    group.scale = scale_scratch_.data();
    group.lo = bound_scratch_.data();
    group.hi = bound_hi_scratch_.data();
    group.windows = window_scratch_.data();
    group.out = out.data();
    detail::count_trace_group_avx512(group, rngs);
    return;
  }
#endif
  VoltageSensor::sample_traces(supplies, out, rngs);
}

sensors::CalibrationResult LeakyDspSensor::calibrate(
    double idle_v, util::Rng& rng, std::size_t samples_per_setting) {
  const int tap_count = fabric::idelay_taps(arch_).tap_count;
  // The coarse sweep starts from fine phase 0, so a recalibration does not
  // depend on where the previous calibration parked the fine stage.
  set_fine_phase(0);

  // Setting k sweeps the capture edge monotonically *earlier*: k = 0 is
  // maximum clock-line delay (latest capture, everything settled), k =
  // 2*tap_count-2 is maximum signal-line delay (earliest capture). With
  // the tapered settle window the steepest zone sits at the top of the
  // word, so the sweep parks the capture edge just inside the window.
  auto result = sensors::sweep_settings(
      *this, 2 * tap_count - 1,
      [&](int k) {
        if (k < tap_count) {
          set_taps(0, tap_count - 1 - k);
        } else {
          set_taps(k - tap_count + 1, 0);
        }
      },
      idle_v, samples_per_setting, rng);

  // Second stage: MMCM fine phase shift (sub-tap resolution). The coarse
  // step leaves the capture edge somewhere inside the steep top zone of
  // the settle window; the fine sweep parks the idle readout near 85% of
  // full scale — maximum sensitivity with headroom for large droops.
  const double target = 0.85 * static_cast<double>(kOutputBits);
  int best_phase = 0;
  double best_dist = std::numeric_limits<double>::max();
  for (int phase = 0; phase <= 5; ++phase) {
    set_fine_phase(phase);
    const double m = mean_readout(idle_v, samples_per_setting, rng);
    const double dist = std::abs(m - target);
    if (dist < best_dist) {
      best_dist = dist;
      best_phase = phase;
      result.idle_readout = m;
    }
  }
  set_fine_phase(best_phase);
  return result;
}

std::int64_t LeakyDspSensor::compute_identity(std::int64_t a) const {
  const auto widths = fabric::dsp48_widths(arch_);
  const std::int64_t a_mask = (1LL << widths.a_mult_bits) - 1;
  const std::int64_t p_mask = (1LL << widths.p_bits) - 1;
  std::int64_t value = a;
  for (const auto& cfg : configs_) {
    // The multiplier operand is two's complement: the low a_mult_bits of
    // the incoming word are sign-extended, so "P = A" preserves the low
    // bits and replicates the sign into the upper P bits — all-zeros maps
    // to all-zeros and all-ones to all-ones, exactly the toggling words
    // the sensor launches.
    std::int64_t operand = value & a_mask;
    if (operand & (1LL << (widths.a_mult_bits - 1))) {
      operand -= (1LL << widths.a_mult_bits);
    }
    const std::int64_t pre = operand + cfg.static_d;  // pre-adder
    const std::int64_t product = pre * cfg.static_b;  // multiplier
    const std::int64_t alu = product + cfg.static_c;  // ALU
    value = alu & p_mask;
  }
  return value;
}

fabric::Netlist LeakyDspSensor::netlist() const {
  return fabric::build_leakydsp_netlist(arch_, params_.n_dsp);
}

}  // namespace leakydsp::core
