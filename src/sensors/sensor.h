// Common interface of on-chip voltage sensors. A sensor turns the local
// supply voltage at its die location into a digital readout once per sample
// clock; everything downstream (traces, CPA, covert channels) only sees
// readouts.
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <string>

#include "fabric/geometry.h"
#include "util/contracts.h"
#include "util/rng.h"

namespace leakydsp::sensors {

/// Result of a calibration sweep.
struct CalibrationResult {
  bool success = false;
  int chosen_setting = 0;     ///< tap/offset index selected
  double steepness = 0.0;     ///< |d readout / d setting| at the choice
  double idle_readout = 0.0;  ///< mean readout after calibration
};

/// Abstract voltage-fluctuation sensor.
class VoltageSensor {
 public:
  virtual ~VoltageSensor() = default;

  /// Short identifier used in tables ("LeakyDSP", "TDC", "RO").
  virtual std::string name() const = 0;

  /// Die placement of the sensing element.
  virtual fabric::SiteCoord site() const = 0;

  /// Width of the raw output word (48 for LeakyDSP/DSP48, 128 for the TDC
  /// configuration the paper compares against).
  virtual std::size_t readout_bits() const = 0;

  /// One sample: digitizes the instantaneous supply `supply_v` [V] into a
  /// readout (number of unflipped bits / traversed stages).
  virtual double sample(double supply_v, util::Rng& rng) = 0;

  /// Batched sampling: digitizes supply_v[i] into out[i] for every i, in
  /// order. The base implementation loops sample(); sensors with a hot
  /// campaign path override it with an allocation-free kernel (LUT delay
  /// scaling, ziggurat jitter). Batched readouts follow the same
  /// distribution as the scalar path but may consume the rng stream
  /// differently (documented per sensor), so a given experiment must pick
  /// one path and stay on it. Trace campaigns read through
  /// sample_traces() and calibration through mean_readout(), both the
  /// same stream as this call; sample() and SensorRig's per-sample API stay
  /// the scalar reference.
  virtual void sample_batch(std::span<const double> supply_v,
                            std::span<double> out, util::Rng& rng) {
    LD_REQUIRE(out.size() >= supply_v.size(),
               "output span too small: " << out.size() << " < "
                                         << supply_v.size());
    for (std::size_t i = 0; i < supply_v.size(); ++i) {
      out[i] = sample(supply_v[i], rng);
    }
  }

  /// Most traces one sample_traces() call digitizes: the AVX-512 lanes
  /// the LeakyDSP group kernel steps side by side.
  static constexpr std::size_t kTraceGroup = util::Rng::kZigLanes;

  /// A group of 1..kTraceGroup equally long traces, trace g on its own
  /// generator rngs[g]: supplies and out hold the traces back to back
  /// (trace g at [g * n, (g + 1) * n), n = supplies.size() / rngs.size()).
  /// Every trace gets exactly the readouts, rng state and draws() of
  /// sample_batch(trace g, out g, rngs[g]); the base implementation is that
  /// loop, and an override may only change how fast it runs.
  virtual void sample_traces(std::span<const double> supplies,
                             std::span<double> out,
                             std::span<util::Rng> rngs) {
    const std::size_t n = trace_length(supplies, out, rngs);
    for (std::size_t g = 0; g < rngs.size(); ++g) {
      sample_batch(supplies.subspan(g * n, n), out.subspan(g * n, n),
                   rngs[g]);
    }
  }

  /// Mean of `n` readouts at the constant supply `supply_v`: the readouts
  /// of one sample_batch() call over n copies of the supply, summed in
  /// order and divided by n (n >= 1). The base implementation is that
  /// call; an override must return the same bits and leave the same rng
  /// state and draws(), and may only change how fast it runs. Calibration
  /// sweeps read through this call.
  virtual double mean_readout(double supply_v, std::size_t n,
                              util::Rng& rng);

  /// Post-deployment calibration at the given idle supply voltage, following
  /// the paper's procedure: sweep the adjustable delay and keep the setting
  /// with maximum readout variation between consecutive settings (see
  /// sensors/calibration.h). Reads through mean_readout().
  virtual CalibrationResult calibrate(double idle_v, util::Rng& rng,
                                      std::size_t samples_per_setting = 64) = 0;

  /// Deep copy including calibration state (taps, offsets, controller
  /// state). Parallel campaigns give every worker block its own clone so
  /// concurrent sampling never shares mutable sensor state.
  virtual std::unique_ptr<VoltageSensor> clone() const = 0;

 protected:
  /// Checks sample_traces()' group shape and returns the trace length.
  static std::size_t trace_length(std::span<const double> supplies,
                                  std::span<double> out,
                                  std::span<util::Rng> rngs) {
    LD_REQUIRE(!rngs.empty() && rngs.size() <= kTraceGroup,
               "trace group of " << rngs.size() << " outside 1.."
                                 << kTraceGroup);
    LD_REQUIRE(supplies.size() % rngs.size() == 0,
               supplies.size() << " supplies do not split into "
                               << rngs.size() << " equal traces");
    LD_REQUIRE(out.size() >= supplies.size(),
               "output span too small: " << out.size() << " < "
                                         << supplies.size());
    return supplies.size() / rngs.size();
  }
};

}  // namespace leakydsp::sensors
