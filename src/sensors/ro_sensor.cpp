#include "sensors/ro_sensor.h"

#include <cmath>

#include "fabric/netlist_builders.h"
#include "util/contracts.h"

namespace leakydsp::sensors {

RoSensor::RoSensor(const fabric::Device& device, fabric::SiteCoord site,
                   RoParams params)
    : site_(site), params_(params) {
  LD_REQUIRE(params_.f0_mhz > 0.0, "oscillator frequency must be positive");
  LD_REQUIRE(params_.window_ns > 0.0, "window must be positive");
  LD_REQUIRE(device.site_type(site) == fabric::SiteType::kClb,
             "RO sensor occupies a CLB site");
}

double RoSensor::frequency_mhz(double supply_v) const {
  // Oscillation period scales with gate delay.
  return params_.f0_mhz / params_.law.scale(supply_v);
}

double RoSensor::sample(double supply_v, util::Rng& rng) {
  const double expected =
      frequency_mhz(supply_v) * params_.window_ns * 1e-3;  // counts
  const double noisy = expected + (params_.count_jitter > 0.0
                                       ? rng.gaussian(0.0, params_.count_jitter)
                                       : 0.0);
  return std::max(0.0, std::floor(noisy));
}

sensors::CalibrationResult RoSensor::calibrate(
    double idle_v, util::Rng& rng, std::size_t samples_per_setting) {
  sensors::CalibrationResult result;
  result.success = true;
  result.idle_readout = mean_readout(idle_v, samples_per_setting, rng);
  return result;
}

fabric::Netlist RoSensor::netlist() const {
  return fabric::build_ro_netlist(1);
}

}  // namespace leakydsp::sensors
