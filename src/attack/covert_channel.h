// LeakyDSP-based covert channel (Section IV-C).
//
// Sender: a power-virus tenant that idles to transmit '1' and activates all
// instances to transmit '0'. Receiver: a LeakyDSP tenant that averages its
// readouts over each bit window and thresholds against the midpoint of the
// two levels learned from the frame preamble.
//
// The receiver's per-bit decision statistic is simulated at bit granularity
// (simulating every 300 MHz readout of a multi-second transfer is
// pointless): the bit-window average of the readout stream equals the level
// for the transmitted symbol plus
//   - band-limited supply wander whose bit-average scales as 1/sqrt(T_bit)
//     (the dominant term — white sensor noise averages out completely over
//     >10^5 samples), and
//   - sporadic disturbance bursts from other tenants / board regulation
//     (Poisson arrivals, exponential duration) that pull idle bits toward
//     the active level — the BER floor the paper observes at long bit
//     times.
#pragma once

#include <cstddef>
#include <vector>

#include "sim/sensor_rig.h"
#include "util/rng.h"
#include "victim/power_virus.h"

namespace leakydsp::attack {

/// Channel timing and noise parameters.
struct CovertChannelParams {
  double bit_time_ms = 4.0;           ///< the paper's recommended setting
  std::size_t frame_data_bits = 968;  ///< payload bits per frame
  std::size_t preamble_bits = 8;      ///< 10101010 sync/calibration header

  /// rms of the bit-averaged readout noise for a 1 ms window [readout
  /// bits]; scales as 1/sqrt(T_bit).
  double wander_sigma_bits = 7.35;
  /// Correlation of the wander between adjacent bits (AR(1) coefficient at
  /// 1 ms; raised to the bit-time power).
  double wander_rho_per_ms = 0.35;

  double burst_rate_hz = 1.5;          ///< disturbance arrivals
  double burst_duration_ms_mean = 1.5;  ///< exponential mean
  /// Burst droop amplitude relative to the on/off level separation.
  double burst_amplitude_rel = 1.2;
};

/// Transfer statistics (the paper's TR/BER metrics).
struct ChannelStats {
  std::size_t bits_sent = 0;
  std::size_t bit_errors = 0;
  double elapsed_s = 0.0;

  double ber() const {
    return bits_sent == 0
               ? 0.0
               : static_cast<double>(bit_errors) /
                     static_cast<double>(bits_sent);
  }
  /// Payload transmission rate [bit/s] including framing overhead.
  double transmission_rate() const {
    return elapsed_s > 0.0 ? static_cast<double>(bits_sent) / elapsed_s : 0.0;
  }
};

/// One slot's disturbance of the receiver's window average.
struct SlotNoise {
  double wander = 0.0;  ///< supply wander, correlated across slots
  double droop = 0.0;   ///< burst droop; subtracts from the readout
};

/// The slot-level noise process both covert channels share: AR(1) supply
/// wander with rms wander_sigma_bits / sqrt(T_slot), plus disturbance
/// bursts (Poisson arrivals, exponential duration) whose droop is a
/// fraction of the channel's level `swing`. Construction draws the initial
/// wander from `rng`.
class ChannelNoise {
 public:
  ChannelNoise(const CovertChannelParams& params, double swing,
               util::Rng& rng);

  /// Advances one slot and returns its wander and burst droop.
  SlotNoise step(util::Rng& rng);

 private:
  CovertChannelParams params_;
  double swing_ = 0.0;
  double rho_ = 0.0;         // AR(1) coefficient per slot
  double innovation_ = 0.0;  // rms of the AR(1) innovation
  double wander_ = 0.0;
  double burst_remaining_ms_ = 0.0;
  double burst_amplitude_ = 0.0;
};

/// One sender/receiver pair on a shared FPGA.
class CovertChannel {
 public:
  /// `rig` wraps the receiver sensor, which must already be calibrated
  /// (rig.calibrate once at deployment); `sender` is the power-virus
  /// tenant. The idle/active levels are measured during construction.
  CovertChannel(sim::SensorRig& rig, victim::PowerVirus& sender,
                CovertChannelParams params, util::Rng& rng);

  const CovertChannelParams& params() const { return params_; }

  /// Mean readout with the sender idle ('1') and active ('0').
  double level_idle() const { return level_idle_; }
  double level_active() const { return level_active_; }

  /// Transmits `payload` and returns error statistics plus the decoded
  /// bits (appended to `decoded` when non-null).
  ChannelStats transmit(const std::vector<bool>& payload, util::Rng& rng,
                        std::vector<bool>* decoded = nullptr);

 private:
  /// Receiver bit-window average for one transmitted symbol.
  double receive_bit_statistic(bool bit, double wander, double burst_droop)
      const;

  sim::SensorRig* rig_;
  victim::PowerVirus* sender_;
  CovertChannelParams params_;
  double level_idle_ = 0.0;
  double level_active_ = 0.0;
};

}  // namespace leakydsp::attack
