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
  /// and per-bit jitter is drawn with the ziggurat sampler — only for the
  /// bits whose settle time lies within kJitterCutSigma of the capture
  /// edge (about 21 of the 48 on a calibrated campaign trace); bits
  /// further out are counted deterministically (a per-bit truncation that
  /// perturbs each flip probability by < 7e-16). The window's jitters are
  /// one gaussian_zig() per bit in bit order, readout after readout. Same
  /// distribution as sample(), different rng consumption.
  void sample_batch(std::span<const double> supply_v, std::span<double> out,
                    util::Rng& rng) override;

  /// sample_batch() for up to kTraceGroup traces at once. On the AVX-512
  /// tier (with jitter) the group kernel steps the traces' ziggurat
  /// streams side by side, one trace per lane, into small per-lane
  /// buffers and counts the readouts whose windows are complete from
  /// there; the readouts, rng states and draws() are those of
  /// sample_batch() on every trace. Other tiers, and jitter-free sensors,
  /// loop sample_batch().
  void sample_traces(std::span<const double> supplies, std::span<double> out,
                     std::span<util::Rng> rngs) override;

  /// The base mean_readout() in one counting pass: the voltage scale,
  /// capture bounds and settled prefix are the same for every readout at a
  /// constant supply, so they are computed once (through the SIMD ops
  /// sample_batch uses, on one element), and only the edge window's bits
  /// are tested per readout. The window jitters come from the same
  /// ziggurat stream, filled a few whole readouts at a time. Every readout
  /// is an integer count, so the base path's in-order sum is exact and
  /// equals this total: same bits, rng state and draws().
  double mean_readout(double supply_v, std::size_t n,
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

  /// The capture bounds of jittered readouts at voltage scales scale[0, n):
  /// (t_capture -/+ kJitterCutSigma sigma) / scale. Bits that settle by
  /// `lo` always settle, bits after `hi` never do; the ones between draw
  /// jitter. Shared by sample_batch and the group kernel's windows.
  void capture_bounds(const double* scale, double* lo, double* hi,
                      std::size_t n) const;

  fabric::Architecture arch_;
  fabric::SiteCoord site_;
  LeakyDspParams params_;
  timing::ScaleTable scale_lut_;  // LUT over the operational supply range
  std::vector<fabric::Dsp48Config> configs_;
  // Per-bit nominal settle times; 64-byte aligned for the SIMD edge-window
  // bit count in sample_batch.
  util::aligned_vector<double> settle_ns_;
  // sample_batch/sample_traces scratch (per-sample scale factors, capture
  // bounds and the group kernel's edge windows); not part of the sensor
  // state.
  util::aligned_vector<double> scale_scratch_;
  util::aligned_vector<double> bound_scratch_;
  util::aligned_vector<double> bound_hi_scratch_;
  std::vector<std::uint8_t> window_scratch_;
  int a_taps_ = 0;
  int clk_taps_ = 0;
  int fine_phase_ = 0;      // MMCM fine shift, 0..5 steps of tap_ps/5
  int capture_cycles_ = 0;  // whole sample clocks spanned by the chain
};

namespace detail {

/// A trace group's jittered readouts, ready to count: the inputs
/// LeakyDspSensor::sample_traces hands the AVX-512 group kernel. Per-readout
/// arrays hold the traces back to back (trace g's readout s at
/// g * readouts + s).
struct TraceGroupView {
  const double* settle = nullptr;  ///< the 48 ascending settle times [ns]
  double t_capture = 0.0;          ///< capture instant [ns]
  double sigma = 0.0;              ///< jitter rms [ns], > 0
  std::size_t readouts = 0;        ///< readouts per trace
  const double* scale = nullptr;  ///< voltage scale per readout
  const double* lo = nullptr;     ///< capture bounds per readout
  const double* hi = nullptr;
  std::uint8_t* windows = nullptr;  ///< scratch: 2 bytes per readout
  double* out = nullptr;            ///< readouts
};

#ifdef LEAKYDSP_SIMD_AVX512
/// Counts every readout of `group`, trace g drawing its window jitters
/// from rngs[g] (rngs.size() <= util::Rng::kZigLanes). Bit-identical to
/// sample_batch()'s per-readout loop on each trace; defined in
/// leaky_dsp_avx512.cpp.
void count_trace_group_avx512(const TraceGroupView& group,
                              std::span<util::Rng> rngs);
#endif

}  // namespace detail

}  // namespace leakydsp::core
