// Extension study: side-channel distinguishers on the same LeakyDSP
// channel — classical single-bit DPA (difference of means) vs CPA
// (Pearson on the 8-bit HD model) at increasing trace counts, at the
// best placement. CPA's richer hypothesis wins at every budget; the gap
// is the reason the paper (like all modern work) evaluates with CPA.
#include <iostream>

#include "attack/campaign.h"
#include "attack/cpa.h"
#include "attack/dpa.h"
#include "core/leaky_dsp.h"
#include "poi_stream.h"
#include "sim/scenarios.h"
#include "sim/sensor_rig.h"
#include "util/cli.h"
#include "util/rng.h"
#include "util/table.h"
#include "util/thread_pool.h"
#include "victim/aes_core.h"

using namespace leakydsp;

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv, {"seed", "max-traces"});
  util::Rng rng(cli.get_seed("seed", 20));
  const auto max_traces = cli.get_count("max-traces", 30000, 1);

  const sim::Basys3Scenario scenario;
  crypto::Key key;
  for (auto& b : key) b = static_cast<std::uint8_t>(rng() & 0xff);
  victim::AesCoreParams params;
  params.current_per_hd_bit *= 3.0;  // demo scale: CPA breaks ~3k
  victim::AesCoreModel aes(key, scenario.aes_site(), scenario.grid(),
                           params);
  core::LeakyDspSensor sensor(
      scenario.device(),
      scenario.attack_placements()[sim::Basys3Scenario::kBestPlacementIndex]);
  sim::SensorRig rig(scenario.grid(), sensor);
  rig.calibrate(rng);

  const attack::TraceCampaign campaign(rig, aes);
  attack::CpaAttack cpa(campaign.poi_count());
  attack::DpaAttack dpa(campaign.poi_count());

  std::cout << "=== Distinguisher comparison on the LeakyDSP channel ===\n"
            << "AES @ 20 MHz, 3x leakage (demo scale), placement P6; "
               "correct key bytes out of 16 per distinguisher\n\n";

  util::Table table({"traces", "CPA (8-bit HD model)",
                     "DPA (single-bit DoM)"});
  const auto& truth = aes.cipher().round_keys()[10];
  auto count_correct = [&](const crypto::RoundKey& recovered) {
    int correct = 0;
    for (std::size_t b = 0; b < 16; ++b) correct += recovered[b] == truth[b];
    return correct;
  };

  // Both distinguishers see the campaign's own trace stream, one row per
  // sixth of the budget (and one at the end).
  auto cursor = campaign.start_record(rng);
  util::ThreadPool pool;
  const std::size_t step = max_traces / 6;
  for (std::size_t done = 0; done < max_traces;) {
    const std::size_t next =
        step == 0 ? max_traces : std::min(done + step, max_traces);
    bench::stream_poi_rows(
        campaign, cursor, next - done, pool,
        [&](std::span<const crypto::Block> cts, std::span<const double> rows) {
          cpa.add_traces(cts, rows);
          dpa.add_traces(cts, rows);
        });
    done = next;
    table.row()
        .add(util::format_count(done))
        .add(count_correct(cpa.recovered_round_key()))
        .add(count_correct(dpa.recovered_round_key()));
  }
  table.print(std::cout);
  std::cout << "\nExpected shape: CPA reaches 16/16 first; single-bit DPA "
               "needs several times more traces (it models one of the "
               "eight leaking bits).\n";
  return 0;
}
