// Capture side of the paper's split workflow: record sensor traces of AES
// encryptions (as the UART collection does on the real board) into a
// binary trace file for offline analysis.
//
//   $ ./example_record_traces --traces 6000 --out /tmp/leakydsp.ldtr
//   $ ./example_offline_attack --in /tmp/leakydsp.ldtr
//
// Capture fans out over --threads workers (default: hardware concurrency);
// the recorded file is byte-identical for every thread count.
#include <iomanip>
#include <iostream>
#include <sstream>

#include "attack/campaign.h"
#include "core/leaky_dsp.h"
#include "sim/scenarios.h"
#include "sim/sensor_rig.h"
#include "sim/trace_store.h"
#include "util/cli.h"
#include "util/rng.h"
#include "victim/aes_core.h"

using namespace leakydsp;

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv, {"traces", "out", "seed", "threads"});
  const auto traces = cli.get_count("traces", 6000, 1);
  const auto out = cli.get_string("out", "/tmp/leakydsp.ldtr");
  util::Rng rng(cli.get_seed("seed", 19));

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
  attack::CampaignConfig config;
  config.threads = cli.get_threads();
  attack::TraceCampaign campaign(rig, aes, config);

  // Stream straight into the v2 writer: memory stays bounded by one wave
  // of blocks no matter how many traces are captured, and the file carries
  // per-chunk CRCs so a killed capture is detected at load time.
  const std::size_t samples =
      (aes.cycles_per_encryption() + 2) * campaign.samples_per_cycle();
  sim::TraceStoreWriter writer(out, samples);
  campaign.record(rng, traces, writer);
  writer.finish();

  std::ostringstream key_hex;
  key_hex << std::hex << std::setfill('0');
  for (const auto b : key) key_hex << std::setw(2) << static_cast<int>(b);
  std::cout << "recorded " << writer.size() << " traces x " << samples
            << " samples to " << out << "\n"
            << "victim's secret key (for checking the offline attack): "
            << key_hex.str() << "\n";
  return 0;
}
