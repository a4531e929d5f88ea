// SensorRig: one deployed sensor wired to the PDN — spatial coupling
// (transfer gains), temporal droop dynamics, ambient supply noise, and the
// sensor's own sampling front-end. Every experiment in the paper is "some
// victim draws current; the rig samples readouts". The rig's per-sample
// API is the scalar reference and the characterization benches' path;
// trace campaigns sample through a Sampler clone's batched stages
// (attack::TraceCampaign).
#pragma once

#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "fabric/device.h"
#include "pdn/coupling.h"
#include "pdn/droop_filter.h"
#include "pdn/grid.h"
#include "sensors/sensor.h"
#include "util/rng.h"

namespace leakydsp::sim {

/// Environmental parameters of a rig.
struct RigParams {
  double vnom = 1.0;
  pdn::DroopDynamics dynamics{};
  double ambient_sigma_v = 0.4e-3;     ///< rms ambient supply noise [V]
  double ambient_correlation_ns = 50.0;
  double sample_period_ns = 1e3 / 300.0;  ///< sensor clock (300 MHz)
};

/// A sensor attached to the PDN at its die location.
class SensorRig {
 public:
  SensorRig(const pdn::PdnGrid& grid, sensors::VoltageSensor& sensor,
            RigParams params = {});

  const RigParams& params() const { return params_; }
  const pdn::SensorCoupling& coupling() const { return coupling_; }
  sensors::VoltageSensor& sensor() { return *sensor_; }

  /// Supply voltage the sensor would see for the given static droop input,
  /// advancing the filter and noise state by one sample.
  double supply_for_droop(double static_droop_v, util::Rng& rng);

  /// One readout under the given current draws.
  double sample(std::span<const pdn::CurrentInjection> draws, util::Rng& rng);

  /// `n` readouts under per-sample draws supplied by `draw_fn` (called once
  /// per sample; may mutate its output buffer argument in place).
  std::vector<double> collect(
      std::size_t n, util::Rng& rng,
      const std::function<void(std::vector<pdn::CurrentInjection>&)>& draw_fn);

  /// `n` readouts under constant draws.
  std::vector<double> collect_constant(
      std::size_t n, std::span<const pdn::CurrentInjection> draws,
      util::Rng& rng);

  /// Calibrates the sensor at the idle nominal supply and clears dynamics.
  sensors::CalibrationResult calibrate(util::Rng& rng);

  /// Clears filter and noise state (idle settling between experiments).
  void settle();

  /// A self-contained copy of the rig's sampling front-end: its own sensor
  /// clone plus fresh (settled) droop-filter and ambient-noise state.
  /// Parallel campaign workers sample through one of these per trace block,
  /// so concurrent blocks never share mutable state with the rig or each
  /// other; the rig itself is left untouched.
  class Sampler {
   public:
    /// The cloned sensor (batched paths call its sample_batch directly).
    sensors::VoltageSensor& sensor() { return *sensor_; }

    /// Batched SensorRig::supply_for_droop: turns a whole trace of static
    /// droops into supply voltages in one pass, drawing ambient innovations
    /// with the ziggurat sampler. Same filter/noise state evolution as the
    /// rig's scalar reference, different rng consumption.
    void supply_batch(std::span<const double> static_droops_v,
                      std::span<double> out, util::Rng& rng) {
      for (std::size_t i = 0; i < static_droops_v.size(); ++i) {
        out[i] =
            vnom_ - filter_.step(static_droops_v[i]) - ambient_.step_zig(rng);
      }
    }

    /// Clears filter and noise state (between traces).
    void settle() {
      filter_.reset();
      ambient_.reset();
    }

   private:
    friend class SensorRig;
    Sampler(std::unique_ptr<sensors::VoltageSensor> sensor,
            const RigParams& params)
        : sensor_(std::move(sensor)),
          filter_(params.dynamics, params.sample_period_ns),
          ambient_(params.ambient_sigma_v, params.ambient_correlation_ns,
                   params.sample_period_ns),
          vnom_(params.vnom) {}

    std::unique_ptr<sensors::VoltageSensor> sensor_;
    pdn::DroopFilter filter_;
    pdn::AmbientNoise ambient_;
    double vnom_;
  };

  /// Clones the rig's sampling front-end in its current calibration state.
  Sampler make_sampler() const {
    return Sampler(sensor_->clone(), params_);
  }

 private:
  const pdn::PdnGrid& grid_;
  sensors::VoltageSensor* sensor_;
  RigParams params_;
  pdn::SensorCoupling coupling_;
  pdn::DroopFilter filter_;
  pdn::AmbientNoise ambient_;
};

}  // namespace leakydsp::sim
