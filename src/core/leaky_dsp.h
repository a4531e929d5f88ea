// LeakyDSP — the paper's contribution (Section III).
//
// A cascade of n DSP48 blocks configured as the malicious identity function
// P = ((A + 0) * 1) + 0 with every internal pipeline register bypassed. The
// input word toggles between all-zeros and all-ones each sensor clock; the
// signal ripples asynchronously through pre-adder, multiplier and ALU of
// each block, and the final block's output register captures whatever has
// settled at the (IDELAY-adjusted) capture edge. Supply droop slows the
// chain, fewer output bits settle, and the Hamming weight of the unflipped
// bits becomes a fine-grained digital proxy for the local supply voltage.
//
// Timing model: the amplified path has nominal delay n * dsp_delay_ns; the
// 48 output bits settle across a window of bit_spread_ns with a periodic
// ripple (the black-box internal carry structure the paper mentions when
// noting the response is "monotonic but not absolutely uniform"). All
// delays stretch by the alpha-power voltage law.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "fabric/device.h"
#include "fabric/netlist.h"
#include "fabric/primitives.h"
#include "sensors/sensor.h"
#include "timing/delay_model.h"
#include "util/aligned.h"

namespace leakydsp::core {

/// Physical/timing parameters of a LeakyDSP instance.
struct LeakyDspParams {
  std::size_t n_dsp = 3;        ///< cascaded DSP blocks (paper's choice)
  double dsp_delay_ns = 3.9;    ///< async path through one block at vnom
  double bit_spread_ns = 0.40;  ///< settle window across the 48 output bits
  /// Settle spacing tapers across the word: tight near the top (late bits,
  /// where the calibrated idle point sits) and wide near the bottom — the
  /// response compresses at large droops, the paper's "monotonic but not
  /// absolutely uniform" behaviour. 1.2 means the spacing spans 0.4x..1.6x
  /// of the mean.
  double taper = 1.55;
  double ripple_beta = 0.15;  ///< relative amplitude of the spacing ripple
  double ripple_period_bits = 16.0;
  double jitter_sigma_ns = 0.008;  ///< per-bit capture jitter (rms)
  double clock_mhz = 300.0;        ///< sensor sample clock
  timing::AlphaPowerLaw law{};
};

/// Functional + timing model of one deployed LeakyDSP sensor.
class LeakyDspSensor : public sensors::VoltageSensor {
 public:
  /// `site` must be a DSP site of `device`; the cascade occupies n_dsp
  /// consecutive DSP sites above it in the same column.
  LeakyDspSensor(const fabric::Device& device, fabric::SiteCoord site,
                 LeakyDspParams params = {});

  std::string name() const override { return "LeakyDSP"; }
  fabric::SiteCoord site() const override { return site_; }
  std::size_t readout_bits() const override { return kOutputBits; }

  const LeakyDspParams& params() const { return params_; }
  double clock_period_ns() const { return 1e3 / params_.clock_mhz; }

  /// Current IDELAY settings (signal line, capture-clock line).
  int a_taps() const { return a_taps_; }
  int clk_taps() const { return clk_taps_; }
  void set_taps(int a_taps, int clk_taps);

  /// MMCM dynamic fine phase shift of the capture clock, in steps of
  /// tap_ps/5 (~15.6 ps on 7-series): the sub-tap knob the second
  /// calibration stage uses. Range 0..5.
  int fine_phase() const { return fine_phase_; }
  void set_fine_phase(int steps);

  /// Effective capture instant relative to the input toggle [ns]: a whole
  /// number of sample clocks plus the IDELAY phase difference.
  double sampling_time_ns() const;

  /// Nominal settle time of output bit `i` at nominal supply [ns].
  double bit_settle_ns(std::size_t i) const;

  /// One readout at supply `supply_v`: number of unflipped output bits.
  double sample(double supply_v, util::Rng& rng) override;

  /// Batched readouts through the hot-path kernel: per sample, the voltage
  /// scale comes from a precomputed timing::ScaleTable instead of std::pow,
  /// and per-bit jitter is drawn with the ziggurat sampler (one
  /// fill_gaussian_zig() per readout) — only for the bits whose settle
  /// time lies within kJitterCutSigma of the capture edge (about 21 of
  /// the 48 on a calibrated campaign trace); bits further out are counted
  /// deterministically (a per-bit truncation that perturbs each flip
  /// probability by < 7e-16). Same distribution as sample(), different
  /// rng consumption.
  void sample_batch(std::span<const double> supply_v, std::span<double> out,
                    util::Rng& rng) override;

  /// Jitter truncation radius of the batched kernel, in units of
  /// jitter_sigma_ns: P(|N(0,1)| > 8) < 1.3e-15.
  static constexpr double kJitterCutSigma = 8.0;

  /// The paper's calibration: from fine phase 0, sweep the capture edge
  /// through the clock-line then signal-line IDELAY taps and keep the tap
  /// with maximum readout variation between consecutive taps; then pick
  /// the MMCM fine phase whose idle readout is nearest 85% of full scale.
  sensors::CalibrationResult calibrate(
      double idle_v, util::Rng& rng,
      std::size_t samples_per_setting = 64) override;

  std::unique_ptr<sensors::VoltageSensor> clone() const override {
    return std::make_unique<LeakyDspSensor>(*this);
  }

  /// Functional check: the value the cascade computes for input `a`
  /// (settled case) under the malicious identity configuration.
  std::int64_t compute_identity(std::int64_t a) const;

  /// DSP block configurations of this instance (for bitstream audits).
  const std::vector<fabric::Dsp48Config>& block_configs() const {
    return configs_;
  }

  /// Structural netlist of this instance.
  fabric::Netlist netlist() const;

 private:
  static constexpr std::size_t kOutputBits = 48;

  fabric::Architecture arch_;
  fabric::SiteCoord site_;
  LeakyDspParams params_;
  timing::ScaleTable scale_lut_;  // LUT over the operational supply range
  std::vector<fabric::Dsp48Config> configs_;
  // Per-bit nominal settle times; 64-byte aligned for the SIMD edge-window
  // bit count in sample_batch.
  util::aligned_vector<double> settle_ns_;
  // sample_batch scratch (per-sample scale factors and capture bounds);
  // not part of the sensor state.
  util::aligned_vector<double> scale_scratch_;
  util::aligned_vector<double> bound_scratch_;
  util::aligned_vector<double> bound_hi_scratch_;
  int a_taps_ = 0;
  int clk_taps_ = 0;
  int fine_phase_ = 0;      // MMCM fine shift, 0..5 steps of tap_ps/5
  int capture_cycles_ = 0;  // whole sample clocks spanned by the chain
};

}  // namespace leakydsp::core
