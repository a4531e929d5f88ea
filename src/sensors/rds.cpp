#include "sensors/rds.h"

#include <cmath>

#include "sensors/calibration.h"
#include "util/contracts.h"

namespace leakydsp::sensors {

RdsSensor::RdsSensor(const fabric::Device& device, fabric::SiteCoord site,
                     RdsParams params)
    : arch_(device.architecture()), site_(site), params_(params) {
  LD_REQUIRE(params_.taps >= 4, "RDS needs several routed branches");
  LD_REQUIRE(params_.clock_mhz > 0.0, "clock must be positive");
  LD_REQUIRE(params_.route_step_ns > 0.0, "route step must be positive");
  LD_REQUIRE(device.site_type(site) == fabric::SiteType::kClb,
             "RDS anchors on a CLB site (launch FF), got "
                 << fabric::to_string(device.site_type(site)));
  arrivals_.reserve(params_.taps);
  for (std::size_t i = 0; i < params_.taps; ++i) {
    arrivals_.push_back(params_.base_route_ns +
                        params_.route_step_ns * static_cast<double>(i));
  }
  const double span = arrivals_.back();
  capture_cycles_ = static_cast<int>(std::lround(span / clock_period_ns()));
  if (capture_cycles_ < 1) capture_cycles_ = 1;
}

void RdsSensor::set_offset_taps(int taps) {
  fabric::IDelayConfig cfg{arch_, taps >= 0 ? taps : -taps};
  cfg.validate();
  offset_taps_ = taps;
}

double RdsSensor::sampling_time_ns() const {
  const double tap_ns = fabric::idelay_taps(arch_).tap_ps * 1e-3;
  return capture_cycles_ * clock_period_ns() - offset_taps_ * tap_ns;
}

double RdsSensor::branch_arrival_ns(std::size_t i) const {
  LD_REQUIRE(i < arrivals_.size(), "branch " << i << " out of range");
  return arrivals_[i];
}

double RdsSensor::sample(double supply_v, util::Rng& rng) {
  const double scale = params_.law.scale(supply_v);
  const double t_capture = sampling_time_ns();
  double latched = 0.0;
  for (const double arrival : arrivals_) {
    const double t = arrival * scale +
                     (params_.jitter_sigma_ns > 0.0
                          ? rng.gaussian(0.0, params_.jitter_sigma_ns)
                          : 0.0);
    if (t <= t_capture) latched += 1.0;
  }
  return latched;
}

sensors::CalibrationResult RdsSensor::calibrate(
    double idle_v, util::Rng& rng, std::size_t samples_per_setting) {
  const int tap_count = fabric::idelay_taps(arch_).tap_count;
  return sweep_settings(
      *this, 2 * tap_count - 1,
      [&](int k) { set_offset_taps(k - (tap_count - 1)); }, idle_v,
      samples_per_setting, rng);
}

fabric::Netlist RdsSensor::netlist() const {
  fabric::Netlist nl;
  const auto launch =
      nl.add_cell(fabric::CellType::kFf, "launch", fabric::FfConfig{});
  for (std::size_t i = 0; i < params_.taps; ++i) {
    // Routing is modeled as a buffer cell per branch (no LUT logic).
    const auto route = nl.add_cell(fabric::CellType::kBuf,
                                   "route" + std::to_string(i));
    const auto capture = nl.add_cell(fabric::CellType::kFf,
                                     "capture" + std::to_string(i),
                                     fabric::FfConfig{});
    nl.connect(launch, route);
    nl.connect(route, capture);
  }
  return nl;
}

}  // namespace leakydsp::sensors
