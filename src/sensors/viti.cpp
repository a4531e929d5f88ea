#include "sensors/viti.h"

#include <cmath>

#include "util/contracts.h"

namespace leakydsp::sensors {

VitiSensor::VitiSensor(const fabric::Device& device, fabric::SiteCoord site,
                       VitiParams params)
    : site_(site), params_(params) {
  LD_REQUIRE(params_.elements >= 2, "VITI needs at least two elements");
  LD_REQUIRE(params_.element_delay_ns > 0.0, "element delay must be positive");
  LD_REQUIRE(params_.control_window >= 4, "control window too small");
  LD_REQUIRE(params_.low_rail < params_.high_rail,
             "control rails out of order");
  LD_REQUIRE(device.site_type(site) == fabric::SiteType::kClb,
             "VITI occupies CLB sites, got "
                 << fabric::to_string(device.site_type(site)));
  const double span =
      params_.base_delay_ns +
      params_.element_delay_ns * static_cast<double>(params_.elements);
  capture_cycles_ = static_cast<int>(std::lround(span / clock_period_ns()));
  if (capture_cycles_ < 1) capture_cycles_ = 1;
}

double VitiSensor::sample_once(double supply_v, util::Rng& rng) {
  const double scale = params_.law.scale(supply_v);
  const double t_capture =
      capture_cycles_ * clock_period_ns() + control_offset_ns_;
  double settled = 0.0;
  for (std::size_t i = 0; i < params_.elements; ++i) {
    const double arrival =
        (params_.base_delay_ns +
         params_.element_delay_ns * static_cast<double>(i + 1)) *
        scale;
    const double t = arrival + (params_.jitter_sigma_ns > 0.0
                                    ? rng.gaussian(0.0, params_.jitter_sigma_ns)
                                    : 0.0);
    if (t <= t_capture) settled += 1.0;
  }
  return settled;
}

double VitiSensor::sample(double supply_v, util::Rng& rng) {
  const double readout = sample_once(supply_v, rng);

  // Self-calibration controller: windowed mean, one offset step whenever
  // the operating point drifts onto a rail. The step is half an element
  // delay — fine enough to re-center, coarse enough to converge fast.
  window_sum_ += readout;
  if (++window_count_ >= params_.control_window) {
    const double mean = window_sum_ / static_cast<double>(window_count_);
    const double step = 0.5 * params_.element_delay_ns;
    if (mean < params_.low_rail) {
      control_offset_ns_ += step;  // capture later: more elements settle
    } else if (mean > params_.high_rail) {
      control_offset_ns_ -= step;
    }
    window_sum_ = 0.0;
    window_count_ = 0;
  }
  return readout;
}

sensors::CalibrationResult VitiSensor::calibrate(
    double idle_v, util::Rng& rng, std::size_t samples_per_setting) {
  // Run the self-calibration loop long enough to converge (a few control
  // windows), then report the settled operating point.
  mean_readout(idle_v, params_.control_window * 40, rng);
  sensors::CalibrationResult result;
  result.success = true;
  result.idle_readout = mean_readout(idle_v, samples_per_setting, rng);
  result.chosen_setting =
      static_cast<int>(std::lround(control_offset_ns_ * 1e3));  // ps
  result.steepness = 1.0;  // one element per element_delay of droop
  return result;
}

fabric::Netlist VitiSensor::netlist() const {
  fabric::Netlist nl;
  const auto in = nl.add_cell(fabric::CellType::kPort, "clk_in");
  fabric::CellId prev = in;
  for (std::size_t i = 0; i < params_.elements; ++i) {
    const auto lut = nl.add_cell(fabric::CellType::kLut,
                                 "delay" + std::to_string(i),
                                 fabric::LutConfig{1, 0x2});  // buffer LUT
    const auto ff = nl.add_cell(fabric::CellType::kFf,
                                "capture" + std::to_string(i),
                                fabric::FfConfig{});
    nl.connect(prev, lut);
    nl.connect(lut, ff);
    prev = lut;
  }
  return nl;
}

}  // namespace leakydsp::sensors
