#include "sensors/tdc.h"

#include <cmath>

#include "fabric/netlist_builders.h"
#include "sensors/calibration.h"
#include "util/contracts.h"
#include "util/simd_ops.h"

namespace leakydsp::sensors {

namespace {
std::vector<double> stage_delays(const TdcParams& p) {
  return std::vector<double>(p.stages, p.stage_ps * 1e-3);
}
}  // namespace

TdcSensor::TdcSensor(const fabric::Device& device, fabric::SiteCoord site,
                     TdcParams params)
    : arch_(device.architecture()),
      site_(site),
      params_(params),
      chain_(stage_delays(params), params.law),
      scale_lut_(params.law) {
  LD_REQUIRE(params_.stages >= 4, "TDC needs a useful number of stages");
  LD_REQUIRE(params_.clock_mhz > 0.0, "clock must be positive");
  LD_REQUIRE(device.site_type(site) == fabric::SiteType::kClb,
             "TDC must anchor on a CLB site (carry chain), got "
                 << fabric::to_string(device.site_type(site)));
  // The vertically continuous carry chain must fit on the die; each tile
  // row hosts two slices, i.e. 8 MUXCY stages.
  const int top = site.y + static_cast<int>(params_.stages / 8);
  LD_REQUIRE(top < device.height(),
             "carry chain of " << params_.stages
                               << " stages does not fit above row " << site.y);

  const double total =
      params_.init_delay_ns + chain_.nominal_total();
  capture_cycles_ = static_cast<int>(std::lround(total / clock_period_ns()));
  if (capture_cycles_ < 1) capture_cycles_ = 1;
}

void TdcSensor::set_offset_taps(int taps) {
  // Positive taps delay the launched edge (earlier effective capture);
  // negative taps delay the capture clock line instead (later capture).
  fabric::IDelayConfig cfg{arch_, taps >= 0 ? taps : -taps};
  cfg.validate();
  offset_taps_ = taps;
}

double TdcSensor::sampling_time_ns() const {
  const double tap_ns = fabric::idelay_taps(arch_).tap_ps * 1e-3;
  // Delaying the launched edge moves the capture point earlier relative to
  // the edge, same convention as LeakyDSP's signal-line IDELAY.
  return capture_cycles_ * clock_period_ns() - offset_taps_ * tap_ns;
}

double TdcSensor::sample(double supply_v, util::Rng& rng) {
  const double scale = params_.law.scale(supply_v);
  const double jitter = params_.jitter_sigma_ns > 0.0
                            ? rng.gaussian(0.0, params_.jitter_sigma_ns)
                            : 0.0;
  const double budget =
      sampling_time_ns() - params_.init_delay_ns * scale + jitter;
  return static_cast<double>(chain_.stages_within(budget, supply_v));
}

void TdcSensor::sample_batch(std::span<const double> supply_v,
                             std::span<double> out, util::Rng& rng) {
  LD_REQUIRE(out.size() >= supply_v.size(),
             "output span too small: " << out.size() << " < "
                                       << supply_v.size());
  const double t_capture = sampling_time_ns();
  const double sigma = params_.jitter_sigma_ns;
  const std::size_t n = supply_v.size();
  // SoA pipeline over the batch, each stage a SIMD op bit-identical to the
  // per-sample expression: voltage scales from the Hermite table, the
  // capture-budget arithmetic, and the thermometer fill's two divides.
  // The jitters come from one ziggurat fill (the same stream as one
  // gaussian_zig() per sample, in sample order), scaled by sigma in place.
  scale_scratch_.resize(n);
  jitter_scratch_.resize(n);
  budget_scratch_.resize(n);
  scale_lut_.eval_batch(supply_v.data(), scale_scratch_.data(), n);
  if (sigma > 0.0) {
    rng.fill_gaussian_zig(jitter_scratch_);
    for (double& jitter : jitter_scratch_) jitter *= sigma;
  } else {
    util::simd::fill(jitter_scratch_.data(), n, 0.0);
  }
  util::simd::sub_mul_add(t_capture, params_.init_delay_ns,
                          scale_scratch_.data(), jitter_scratch_.data(),
                          budget_scratch_.data(), n);
  chain_.stages_within_scaled_batch(budget_scratch_.data(),
                                    scale_scratch_.data(), out.data(), n);
}

sensors::CalibrationResult TdcSensor::calibrate(
    double idle_v, util::Rng& rng, std::size_t samples_per_setting) {
  const int tap_count = fabric::idelay_taps(arch_).tap_count;
  // Sweep from -31 (latest capture) to +31 (earliest), the same monotone
  // earlier-capture direction as LeakyDSP's calibration.
  return sweep_settings(
      *this, 2 * tap_count - 1,
      [&](int k) { set_offset_taps(k - (tap_count - 1)); }, idle_v,
      samples_per_setting, rng);
}

fabric::Netlist TdcSensor::netlist() const {
  return fabric::build_tdc_netlist(params_.stages / 4, site_.x, site_.y);
}

}  // namespace leakydsp::sensors
