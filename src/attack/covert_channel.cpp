#include "attack/covert_channel.h"

#include <algorithm>
#include <cmath>

#include "stats/descriptive.h"
#include "util/contracts.h"

namespace leakydsp::attack {

ChannelNoise::ChannelNoise(const CovertChannelParams& params, double swing,
                           util::Rng& rng)
    : params_(params), swing_(swing) {
  const double bit_ms = params_.bit_time_ms;
  const double sigma = params_.wander_sigma_bits / std::sqrt(bit_ms);
  rho_ = std::pow(params_.wander_rho_per_ms, bit_ms);
  innovation_ = sigma * std::sqrt(1.0 - rho_ * rho_);
  wander_ = rng.gaussian(0.0, sigma);
}

SlotNoise ChannelNoise::step(util::Rng& rng) {
  const double bit_ms = params_.bit_time_ms;
  wander_ = rho_ * wander_ + rng.gaussian(0.0, innovation_);
  double droop = 0.0;
  if (burst_remaining_ms_ > 0.0) {
    const double overlap = std::min(burst_remaining_ms_, bit_ms);
    droop = burst_amplitude_ * swing_ * (overlap / bit_ms);
    burst_remaining_ms_ -= bit_ms;
  } else if (rng.bernoulli(
                 std::min(1.0, params_.burst_rate_hz * bit_ms * 1e-3))) {
    burst_remaining_ms_ =
        rng.exponential(1.0 / params_.burst_duration_ms_mean);
    const double overlap = std::min(burst_remaining_ms_, bit_ms);
    burst_amplitude_ = params_.burst_amplitude_rel * rng.uniform(0.5, 1.5);
    droop = burst_amplitude_ * swing_ * (overlap / bit_ms);
    burst_remaining_ms_ -= bit_ms;
  }
  return {wander_, droop};
}

CovertChannel::CovertChannel(sim::SensorRig& rig, victim::PowerVirus& sender,
                             CovertChannelParams params, util::Rng& rng)
    : rig_(&rig), sender_(&sender), params_(params) {
  LD_REQUIRE(params_.bit_time_ms > 0.0, "bit time must be positive");
  LD_REQUIRE(params_.frame_data_bits >= 1, "frame needs payload bits");
  LD_REQUIRE(params_.preamble_bits >= 2, "preamble needs bits");

  // Level measurement: average many readouts with the sender idle/active.
  // The receiver sensor itself must already be calibrated (once, at
  // deployment) — re-calibrating per channel setting would move the
  // operating point between measurements.
  const std::size_t n = 2000;
  sender_->set_enabled(false);
  {
    const auto idle = rig_->collect(
        n, rng, [&](std::vector<pdn::CurrentInjection>& draws) {
          for (const auto& d : sender_->draws(rng)) draws.push_back(d);
        });
    level_idle_ = stats::mean(idle);
  }
  sender_->set_enabled(true);
  {
    const auto active = rig_->collect(
        n, rng, [&](std::vector<pdn::CurrentInjection>& draws) {
          for (const auto& d : sender_->draws(rng)) draws.push_back(d);
        });
    level_active_ = stats::mean(active);
  }
  sender_->set_enabled(false);
  LD_ENSURE(level_idle_ > level_active_ + 1.0,
            "sender droop not resolvable by the receiver (levels "
                << level_idle_ << " vs " << level_active_ << ")");
}

double CovertChannel::receive_bit_statistic(bool bit, double wander,
                                            double burst_droop) const {
  // '1' = sender idle (high readout), '0' = sender active (low readout).
  const double level = bit ? level_idle_ : level_active_;
  return level + wander - burst_droop;
}

ChannelStats CovertChannel::transmit(const std::vector<bool>& payload,
                                     util::Rng& rng,
                                     std::vector<bool>* decoded) {
  const double bit_ms = params_.bit_time_ms;
  const double swing = level_idle_ - level_active_;

  ChannelStats stats;
  ChannelNoise noise(params_, swing, rng);
  std::size_t sent = 0;

  while (sent < payload.size()) {
    // --- preamble: alternating 1010...; the receiver re-learns the two
    // levels and the threshold from it.
    double pre_hi = 0.0;
    double pre_lo = 0.0;
    std::size_t hi_n = 0;
    std::size_t lo_n = 0;
    for (std::size_t p = 0; p < params_.preamble_bits; ++p) {
      const bool bit = (p % 2) == 0;
      const SlotNoise n = noise.step(rng);
      const double r = receive_bit_statistic(bit, n.wander, n.droop);
      if (bit) {
        pre_hi += r;
        ++hi_n;
      } else {
        pre_lo += r;
        ++lo_n;
      }
    }
    // Sanity-check the preamble against the calibrated levels: a
    // disturbance burst during the preamble would skew the threshold for
    // the whole frame, so fall back to the calibration midpoint when the
    // measured separation is implausible.
    const double pre_hi_mean = pre_hi / static_cast<double>(hi_n);
    const double pre_lo_mean = pre_lo / static_cast<double>(lo_n);
    const bool preamble_plausible =
        std::abs((pre_hi_mean - pre_lo_mean) - swing) < 0.3 * swing;
    const double threshold =
        preamble_plausible ? 0.5 * (pre_hi_mean + pre_lo_mean)
                           : 0.5 * (level_idle_ + level_active_);

    // --- payload bits of this frame.
    const std::size_t frame_bits =
        std::min(params_.frame_data_bits, payload.size() - sent);
    for (std::size_t i = 0; i < frame_bits; ++i) {
      const bool bit = payload[sent + i];
      const SlotNoise n = noise.step(rng);
      const double r = receive_bit_statistic(bit, n.wander, n.droop);
      const bool received = r > threshold;
      if (decoded != nullptr) decoded->push_back(received);
      if (received != bit) ++stats.bit_errors;
    }
    sent += frame_bits;
    stats.elapsed_s += (static_cast<double>(frame_bits) +
                        static_cast<double>(params_.preamble_bits)) *
                       bit_ms * 1e-3;
  }
  stats.bits_sent = sent;
  return stats;
}

}  // namespace leakydsp::attack
