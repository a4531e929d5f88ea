#include "sensors/ppwm.h"

#include <cmath>

#include "util/contracts.h"

namespace leakydsp::sensors {

PpwmSensor::PpwmSensor(const fabric::Device& device, fabric::SiteCoord site,
                       PpwmParams params)
    : site_(site), params_(params) {
  LD_REQUIRE(params_.sensitive_path_ns > params_.reference_path_ns,
             "sensitive path must be slower than the reference");
  LD_REQUIRE(params_.counter_mhz > 0.0, "counter clock must be positive");
  LD_REQUIRE(params_.reference_tracking >= 0.0 &&
                 params_.reference_tracking <= 1.0,
             "reference tracking fraction out of range");
  LD_REQUIRE(params_.stretch_gain >= 1.0, "stretch gain must be >= 1");
  LD_REQUIRE(device.site_type(site) == fabric::SiteType::kClb,
             "PPWM occupies CLB sites, got "
                 << fabric::to_string(device.site_type(site)));
}

double PpwmSensor::pulse_width_ns(double supply_v) const {
  const double scale = params_.law.scale(supply_v);
  // The sensitive path stretches fully with voltage; the reference only by
  // its (imperfect) tracking fraction.
  const double sensitive = params_.sensitive_path_ns * scale;
  const double reference =
      params_.reference_path_ns *
      (1.0 + params_.reference_tracking * (scale - 1.0));
  return sensitive - reference;
}

double PpwmSensor::sample(double supply_v, util::Rng& rng) {
  const double width = pulse_width_ns(supply_v) +
                       (params_.jitter_sigma_ns > 0.0
                            ? rng.gaussian(0.0, params_.jitter_sigma_ns)
                            : 0.0);
  const double stretched = width * params_.stretch_gain;
  const double tick_ns = 1e3 / params_.counter_mhz;
  return std::max(0.0, std::floor(stretched / tick_ns));
}

sensors::CalibrationResult PpwmSensor::calibrate(
    double idle_v, util::Rng& rng, std::size_t samples_per_setting) {
  sensors::CalibrationResult result;
  result.success = true;
  result.idle_readout = mean_readout(idle_v, samples_per_setting, rng);
  return result;
}

fabric::Netlist PpwmSensor::netlist() const {
  fabric::Netlist nl;
  const auto in = nl.add_cell(fabric::CellType::kPort, "clk_in");
  // Sensitive path: LUT chain.
  fabric::CellId prev = in;
  for (int i = 0; i < 24; ++i) {
    const auto lut = nl.add_cell(fabric::CellType::kLut,
                                 "sens" + std::to_string(i),
                                 fabric::LutConfig{1, 0x2});
    nl.connect(prev, lut);
    prev = lut;
  }
  const auto sens_end = prev;
  // Reference path: buffer/routing chain.
  prev = in;
  for (int i = 0; i < 20; ++i) {
    const auto buf =
        nl.add_cell(fabric::CellType::kBuf, "ref" + std::to_string(i));
    nl.connect(prev, buf);
    prev = buf;
  }
  // Phase comparator LUT + counter FF.
  const auto xor_lut = nl.add_cell(fabric::CellType::kLut, "phase_xor",
                                   fabric::LutConfig{2, 0x6});
  nl.connect(sens_end, xor_lut);
  nl.connect(prev, xor_lut);
  const auto counter =
      nl.add_cell(fabric::CellType::kFf, "counter", fabric::FfConfig{});
  nl.connect(xor_lut, counter);
  return nl;
}

}  // namespace leakydsp::sensors
