// The paper's post-deployment calibration (Section III), written once for
// every sensor. Sensors supply only how a setting index maps onto their
// delay knobs; each setting's mean idle readout comes from
// VoltageSensor::mean_readout, whose base implementation reads through
// sample_batch (the sampling path trace campaigns use) and which LeakyDSP
// overrides with a one-pass count of the same readouts.
#pragma once

#include <cstddef>
#include <functional>

#include "sensors/sensor.h"
#include "util/rng.h"

namespace leakydsp::sensors {

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
