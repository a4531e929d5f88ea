// Extension study: side-channel distinguishers on the same LeakyDSP
// channel — classical single-bit DPA (difference of means) vs CPA
// (Pearson on the 8-bit HD model) at increasing trace counts, at the
// best placement. CPA's richer hypothesis wins at every budget; the gap
// is the reason the paper (like all modern work) evaluates with CPA.
#include <iostream>

#include "attack/cpa.h"
#include "attack/dpa.h"
#include "core/leaky_dsp.h"
#include "sim/scenarios.h"
#include "sim/sensor_rig.h"
#include "util/cli.h"
#include "util/rng.h"
#include "util/table.h"
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

  const double gain = rig.coupling().gain_at_node(aes.pdn_node());
  const std::size_t spc = 15;
  const std::size_t poi_begin = 10 * spc;
  const std::size_t poi_count = 2 * spc;
  const std::size_t trace_samples = 13 * spc;

  attack::CpaAttack cpa(poi_count);
  attack::DpaAttack dpa(poi_count);

  std::cout << "=== Distinguisher comparison on the LeakyDSP channel ===\n"
            << "AES @ 20 MHz, 3x leakage (demo scale), placement P6; "
               "correct key bytes out of 16 per distinguisher\n\n";

  util::Table table({"traces", "CPA (8-bit HD model)",
                     "DPA (single-bit DoM)"});
  const auto& truth = aes.cipher().round_keys()[10];
  auto count_correct = [&](const crypto::RoundKey& recovered) {
    int correct = 0;
    for (int b = 0; b < 16; ++b) {
      if (recovered[static_cast<std::size_t>(b)] ==
          truth[static_cast<std::size_t>(b)]) {
        ++correct;
      }
    }
    return correct;
  };

  crypto::Block pt;
  for (auto& b : pt) b = static_cast<std::uint8_t>(rng() & 0xff);
  std::vector<double> poi(poi_count);
  // The CPA side accumulates in 64-trace batches (the campaign's block
  // size) so the batched kernel does the heavy lifting; batches flush at
  // every checkpoint, where the snapshot must reflect all traces so far.
  constexpr std::size_t kCpaBatch = 64;
  std::vector<crypto::Block> batch_cts;
  std::vector<double> batch_rows;
  batch_cts.reserve(kCpaBatch);
  batch_rows.reserve(kCpaBatch * poi_count);
  const auto flush_cpa = [&] {
    if (batch_cts.empty()) return;
    cpa.add_traces(batch_cts, batch_rows);
    batch_cts.clear();
    batch_rows.clear();
  };
  std::size_t next_checkpoint = max_traces / 6;
  for (std::size_t t = 1; t <= max_traces; ++t) {
    aes.start_encryption(pt);
    for (std::size_t s = 0; s < trace_samples; ++s) {
      const double droop = gain * aes.current_at_cycle(s / spc);
      const double readout =
          rig.sensor().sample(rig.supply_for_droop(droop, rng), rng);
      if (s >= poi_begin && s < poi_begin + poi_count) {
        poi[s - poi_begin] = readout;
      }
    }
    batch_cts.push_back(aes.ciphertext());
    batch_rows.insert(batch_rows.end(), poi.begin(), poi.end());
    if (batch_cts.size() == kCpaBatch) flush_cpa();
    dpa.add_trace(aes.ciphertext(), poi);
    pt = aes.ciphertext();
    if (t == next_checkpoint || t == max_traces) {
      flush_cpa();
      table.row()
          .add(util::format_count(t))
          .add(count_correct(cpa.recovered_round_key()))
          .add(count_correct(dpa.recovered_round_key()));
      next_checkpoint += max_traces / 6;
    }
  }
  table.print(std::cout);
  std::cout << "\nExpected shape: CPA reaches 16/16 first; single-bit DPA "
               "needs several times more traces (it models one of the "
               "eight leaking bits).\n";
  return 0;
}
