#include "sensors/calibration.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "util/contracts.h"

namespace leakydsp::sensors {

CalibrationResult sweep_settings(VoltageSensor& sensor, int settings,
                                 const std::function<void(int)>& apply,
                                 double idle_v,
                                 std::size_t samples_per_setting,
                                 util::Rng& rng) {
  LD_REQUIRE(settings >= 2, "a sweep needs at least two settings");
  LD_REQUIRE(samples_per_setting >= 1, "need at least one sample per step");
  std::vector<double> mean(static_cast<std::size_t>(settings));
  for (int k = 0; k < settings; ++k) {
    apply(k);
    mean[static_cast<std::size_t>(k)] =
        sensor.mean_readout(idle_v, samples_per_setting, rng);
  }
  auto variation = [&](int k) {
    return std::abs(mean[static_cast<std::size_t>(k)] -
                    mean[static_cast<std::size_t>(k - 1)]);
  };

  // The paper's rule: iteratively increase the delay until the readout
  // variation between two consecutive adjustments reaches its maximum.
  // Taking the earliest setting within 10% of the maximum keeps the idle
  // readout near the top of the range, so droops (which only slow the
  // sensor down) stay on scale, and breaks near-ties deterministically.
  double global_max = 0.0;
  for (int k = 1; k < settings; ++k) {
    global_max = std::max(global_max, variation(k));
  }
  CalibrationResult result;
  for (int k = 1; k < settings; ++k) {
    if (variation(k) >= 0.9 * global_max) {
      result.chosen_setting = k;
      result.steepness = variation(k);
      break;
    }
  }
  result.success = result.steepness > 0.0;
  apply(result.chosen_setting);
  result.idle_readout = mean[static_cast<std::size_t>(result.chosen_setting)];
  return result;
}

}  // namespace leakydsp::sensors
