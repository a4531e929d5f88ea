// Regenerates Fig. 6: impact of the AES clock frequency on the attack.
//
// The sensor stays at the best-case placement (P6) sampling at 300 MHz
// while the victim AES core runs at 20, 33.3, 50 and 100 MHz (15, 9, 6 and
// 3 sensor samples per victim cycle). Faster victim clocks give the
// attacker fewer samples per round and smear adjacent rounds through the
// PDN's droop dynamics, so key extraction needs more traces.
//
// Paper reference: efficiency decreases monotonically with frequency; at
// 100 MHz the key needs ~78 k traces (collected 60 k + an extra 20 k).
//
// The four campaigns are independent jobs drained together through one
// serve::CampaignService over the hardware's threads.
#include <iostream>
#include <vector>

#include "attack/campaign.h"
#include "basys3_cells.h"
#include "sim/scenarios.h"
#include "util/cli.h"
#include "util/table.h"
#include "victim/aes_core.h"

using namespace leakydsp;

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv, {"seed", "max-traces", "quick!"});
  const auto seed = cli.get_seed("seed", 8);
  const bool quick = cli.get_flag("quick");
  const auto max_traces =
      cli.get_count("max-traces", quick ? 12000 : 160000, 1);

  const sim::Basys3Scenario scenario;
  const auto best_site =
      scenario
          .attack_placements()[sim::Basys3Scenario::kBestPlacementIndex];

  std::cout << "=== Fig. 6: impact of the AES frequency (placement P6) ===\n"
            << "Sensor @ 300 MHz at (" << best_site.x << "," << best_site.y
            << "); seed " << seed
            << (quick ? " [--quick: leakage boosted 3x]" : "") << "\n\n";

  attack::CampaignConfig config;
  config.max_traces = max_traces;
  config.rank_stride = 10000;

  const double freqs[] = {20.0, 100.0 / 3.0, 50.0, 100.0};
  const char* paper[] = {"25k", "-", "-", "78k (worst)"};
  std::vector<std::size_t> samples_per_cycle(4);
  std::vector<serve::CampaignJob> jobs;
  for (std::size_t f = 0; f < 4; ++f) {
    victim::AesCoreParams aes_params;
    aes_params.clock_mhz = freqs[f];
    if (quick) aes_params.current_per_hd_bit *= 3.0;
    jobs.push_back(bench::basys3_job(util::format_double(freqs[f], 1),
                                     scenario, best_site, seed,
                                     static_cast<int>(f), aes_params, config));
    // Read the campaign's samples per victim cycle off its world as the
    // service builds it.
    jobs.back().make = [make = std::move(jobs.back().make),
                        &spc = samples_per_cycle[f]] {
      auto world = make();
      spc = world->campaign().samples_per_cycle();
      return world;
    };
  }
  const auto outcomes = bench::drain_cells(std::move(jobs), /*threads=*/0);

  util::Table table({"AES clock [MHz]", "sensor samples/cycle",
                     "traces to break", "paper"});
  for (std::size_t f = 0; f < 4; ++f) {
    const attack::CampaignResult& result = outcomes[f].result;
    table.row()
        .add(freqs[f], 1)
        .add(samples_per_cycle[f])
        .add(result.broken
                 ? util::format_count(result.traces_to_break)
                 : ("not broken in " + util::format_count(result.traces_run)))
        .add(paper[f]);
  }
  table.print(std::cout);
  std::cout << "\nExpected shape: traces to break increase monotonically "
               "with the victim clock frequency.\n";
  return 0;
}
