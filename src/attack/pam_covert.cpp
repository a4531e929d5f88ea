#include "attack/pam_covert.h"

#include <cmath>
#include <limits>

#include "stats/descriptive.h"
#include "util/contracts.h"

namespace leakydsp::attack {

namespace {
// Gray mapping: symbol index (by decreasing readout, i.e. increasing
// activity) -> 2 bits. Adjacent symbols differ in one bit, so the dominant
// nearest-neighbour errors cost one bit, not two.
constexpr std::array<std::array<bool, 2>, 4> kGray = {
    {{false, false}, {false, true}, {true, true}, {true, false}}};
}  // namespace

PamCovertChannel::PamCovertChannel(sim::SensorRig& rig,
                                   victim::PowerVirus& sender,
                                   CovertChannelParams params, util::Rng& rng)
    : rig_(&rig), sender_(&sender), params_(params) {
  LD_REQUIRE(params_.bit_time_ms > 0.0, "slot time must be positive");
  LD_REQUIRE(sender_->group_count() == 8,
             "PAM levels assume the paper's 8-group virus");
  groups_ = {0, 3, 5, 8};  // ~equidistant droop levels

  const std::size_t n = 1500;
  for (int s = 0; s < 4; ++s) {
    sender_->set_active_groups(groups_[static_cast<std::size_t>(s)]);
    rig_->settle();
    const auto readouts = rig_->collect(
        n, rng, [&](std::vector<pdn::CurrentInjection>& draws) {
          for (const auto& d : sender_->draws(rng)) draws.push_back(d);
        });
    levels_[static_cast<std::size_t>(s)] = stats::mean(readouts);
  }
  sender_->set_active_groups(0);
  for (int s = 1; s < 4; ++s) {
    LD_ENSURE(levels_[static_cast<std::size_t>(s - 1)] >
                  levels_[static_cast<std::size_t>(s)] + 1.0,
              "PAM levels " << s - 1 << " and " << s << " not separable");
  }
}

double PamCovertChannel::level(int symbol) const {
  LD_REQUIRE(symbol >= 0 && symbol < 4, "symbol out of range");
  return levels_[static_cast<std::size_t>(symbol)];
}

int PamCovertChannel::decode_symbol(double statistic) const {
  int best = 0;
  double best_d = std::numeric_limits<double>::max();
  for (int s = 0; s < 4; ++s) {
    const double d = std::abs(statistic - levels_[static_cast<std::size_t>(s)]);
    if (d < best_d) {
      best_d = d;
      best = s;
    }
  }
  return best;
}

ChannelStats PamCovertChannel::transmit(const std::vector<bool>& payload,
                                        util::Rng& rng,
                                        std::vector<bool>* decoded) {
  const double bit_ms = params_.bit_time_ms;

  ChannelStats stats;
  ChannelNoise noise(params_, levels_.front() - levels_.back(), rng);

  const std::size_t symbols_per_frame = params_.frame_data_bits / 2;
  std::size_t sent = 0;
  while (sent < payload.size()) {
    // Preamble slots (symbol ramp 0..3, repeated) keep the receiver's
    // level table honest; counted as overhead only.
    for (std::size_t p = 0; p < params_.preamble_bits; ++p) noise.step(rng);

    const std::size_t frame_bits =
        std::min(symbols_per_frame * 2, payload.size() - sent);
    for (std::size_t i = 0; i < frame_bits; i += 2) {
      const bool b0 = payload[sent + i];
      const bool b1 = sent + i + 1 < payload.size() ? payload[sent + i + 1]
                                                    : false;
      int symbol = 0;
      for (int s = 0; s < 4; ++s) {
        if (kGray[static_cast<std::size_t>(s)][0] == b0 &&
            kGray[static_cast<std::size_t>(s)][1] == b1) {
          symbol = s;
        }
      }
      const SlotNoise n = noise.step(rng);
      const double statistic =
          levels_[static_cast<std::size_t>(symbol)] + (n.wander - n.droop);
      const int received = decode_symbol(statistic);
      const auto& rx = kGray[static_cast<std::size_t>(received)];
      if (decoded != nullptr) {
        decoded->push_back(rx[0]);
        if (sent + i + 1 < payload.size()) decoded->push_back(rx[1]);
      }
      if (rx[0] != b0) ++stats.bit_errors;
      if (sent + i + 1 < payload.size() && rx[1] != b1) ++stats.bit_errors;
    }
    sent += frame_bits;
    stats.elapsed_s += (static_cast<double>((frame_bits + 1) / 2) +
                        static_cast<double>(params_.preamble_bits)) *
                       bit_ms * 1e-3;
  }
  stats.bits_sent = sent;
  return stats;
}

}  // namespace leakydsp::attack
