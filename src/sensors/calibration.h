// The paper's post-deployment calibration (Section III), written once for
// every sensor. Sensors supply only how a setting index maps onto their
// delay knobs; readouts go through VoltageSensor::sample_batch, the
// sampling path trace campaigns use.
#pragma once

#include <cstddef>
#include <functional>

#include "sensors/sensor.h"
#include "util/rng.h"

namespace leakydsp::sensors {

/// Mean of `n` readouts of `sensor` at the constant supply `supply_v`, read
/// in one sample_batch call and summed in order.
double mean_readout(VoltageSensor& sensor, double supply_v, std::size_t n,
                    util::Rng& rng);

/// The tap sweep: for k = 0 .. settings-1, apply(k) and take the mean of
/// `samples_per_setting` readouts at `idle_v`. Chooses the first k >= 1
/// whose |mean[k] - mean[k-1]| is at least 0.9 x the largest such
/// difference, applies it, and reports it with that difference as
/// `steepness` and mean[k] as `idle_readout`. `apply` must move the
/// capture edge monotonically with k.
CalibrationResult sweep_settings(VoltageSensor& sensor, int settings,
                                 const std::function<void(int)>& apply,
                                 double idle_v,
                                 std::size_t samples_per_setting,
                                 util::Rng& rng);

}  // namespace leakydsp::sensors
