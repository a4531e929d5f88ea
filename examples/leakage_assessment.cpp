// TVLA leakage assessment demo: before investing in a 25k-trace CPA, an
// attacker (or an evaluator auditing a deployment) runs the standard
// fixed-vs-random Welch t-test to check whether the channel leaks at all.
//
//   $ ./example_leakage_assessment [--traces N]
#include <iostream>

#include "attack/campaign.h"
#include "attack/tvla.h"
#include "core/leaky_dsp.h"
#include "sim/scenarios.h"
#include "sim/sensor_rig.h"
#include "util/cli.h"
#include "util/rng.h"
#include "util/table.h"
#include "victim/aes_core.h"

using namespace leakydsp;

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv, {"traces", "seed"});
  const auto traces = cli.get_count("traces", 1500, 1);
  util::Rng rng(cli.get_seed("seed", 17));

  const sim::Basys3Scenario scenario;
  crypto::Key key;
  for (auto& b : key) b = static_cast<std::uint8_t>(rng() & 0xff);
  victim::AesCoreParams params;
  params.current_per_hd_bit *= 3.0;  // demo scale
  victim::AesCoreModel aes(key, scenario.aes_site(), scenario.grid(), params);

  core::LeakyDspSensor sensor(
      scenario.device(),
      scenario.attack_placements()[sim::Basys3Scenario::kBestPlacementIndex]);
  sim::SensorRig rig(scenario.grid(), sensor);
  rig.calibrate(rng);
  attack::TraceCampaign campaign(rig, aes);

  const std::size_t samples =
      (aes.cycles_per_encryption() + 2) * campaign.samples_per_cycle();
  attack::TvlaAccumulator acc(samples);
  crypto::Block fixed_pt;
  for (auto& b : fixed_pt) b = static_cast<std::uint8_t>(rng() & 0xff);
  std::cout << "TVLA: " << traces << " fixed + " << traces
            << " random traces of " << samples << " samples each...\n\n";
  for (std::size_t t = 0; t < traces; ++t) {
    acc.add_fixed(campaign.generate_trace(fixed_pt, rng));
    crypto::Block random_pt;
    for (auto& b : random_pt) b = static_cast<std::uint8_t>(rng() & 0xff);
    acc.add_random(campaign.generate_trace(random_pt, rng));
  }
  const auto result = acc.result();

  // Per-victim-cycle summary of |t| maxima.
  util::Table table({"victim cycle", "phase", "max |t|", "> 4.5"});
  const std::size_t spc = campaign.samples_per_cycle();
  for (std::size_t cycle = 0; cycle * spc < samples; ++cycle) {
    double max_t = 0.0;
    for (std::size_t k = cycle * spc;
         k < std::min((cycle + 1) * spc, samples); ++k) {
      max_t = std::max(max_t, std::abs(result.t_values[k]));
    }
    const char* phase = cycle == 0               ? "load"
                        : cycle <= 10            ? "round"
                                                 : "idle/ring";
    table.row()
        .add(cycle)
        .add(cycle >= 1 && cycle <= 10
                 ? (std::string(phase) + " " + std::to_string(cycle))
                 : phase)
        .add(max_t, 2)
        .add(max_t > attack::kTvlaThreshold ? "LEAKS" : "-");
  }
  table.print(std::cout);
  std::cout << "\nverdict: " << (result.leaks() ? "channel LEAKS" : "no leakage detected")
            << " (max |t| = " << result.max_abs_t << " at sample "
            << result.worst_sample << ")\n"
            << "Fixed-vs-random differences concentrate in the round "
               "cycles — the data-dependent Hamming-distance leakage CPA "
               "exploits.\n";
  return 0;
}
