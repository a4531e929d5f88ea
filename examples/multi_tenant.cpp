// Multi-tenant demo: an AES server (bottom-left) and a bursty FIR
// accelerator (top-right) share the PDN with an attacker holding *two*
// LeakyDSP sensors, one next to each victim. Both rigs sample the same
// tenant draws on the shared sensor clock; running with the FIR tenant
// idle and then active shows each sensor responding chiefly to its
// neighbour — spatial attribution through the shared supply.
//
//   $ ./example_multi_tenant
#include <iostream>
#include <vector>

#include "core/leaky_dsp.h"
#include "pdn/grid.h"
#include "sim/scenarios.h"
#include "sim/sensor_rig.h"
#include "stats/descriptive.h"
#include "util/rng.h"
#include "util/table.h"
#include "victim/workloads.h"

using namespace leakydsp;

namespace {

struct RunStats {
  double near_aes_rms = 0.0;
  double near_fir_rms = 0.0;
};

}  // namespace

int main() {
  util::Rng rng(21);
  const sim::Basys3Scenario scenario;
  const auto& device = scenario.device();
  const auto& grid = scenario.grid();

  crypto::Key key;
  for (auto& b : key) b = static_cast<std::uint8_t>(rng() & 0xff);

  core::LeakyDspSensor sensor_a(device, {16, 18});  // next to the AES core
  core::LeakyDspSensor sensor_f(device, {52, 44});  // next to the FIR
  sim::SensorRig rig_a(grid, sensor_a);
  sim::SensorRig rig_f(grid, sensor_f);
  rig_a.calibrate(rng);
  rig_f.calibrate(rng);

  const std::size_t aes_node = grid.node_of_site(scenario.aes_site());
  const std::size_t fir_node = grid.node_of_site({52, 50});
  constexpr std::size_t kSamples = 20000;

  // Both rigs start settled and sample one shared draw schedule: the
  // tenants draw from rng.fork(0), rig r samples from rng.fork(r + 1), so
  // each readout stream is independent of how the others are stepped.
  auto run = [&](bool fir_active) {
    victim::AesStreamWorkload aes(key);
    victim::FirFilterWorkload fir;
    rig_a.settle();
    rig_f.settle();
    util::Rng source_rng = rng.fork(0);
    util::Rng rng_a = rng.fork(1);
    util::Rng rng_f = rng.fork(2);
    std::vector<double> near_aes, near_fir;
    std::vector<pdn::CurrentInjection> draws;
    for (std::size_t s = 0; s < kSamples; ++s) {
      const double t = static_cast<double>(s) * rig_a.params().sample_period_ns;
      draws.clear();
      draws.push_back({aes_node, aes.current_at(t, source_rng)});
      if (fir_active) {
        draws.push_back({fir_node, fir.current_at(t, source_rng)});
      }
      near_aes.push_back(rig_a.sample(draws, rng_a));
      near_fir.push_back(rig_f.sample(draws, rng_f));
    }
    RunStats stats;
    stats.near_aes_rms = stats::stddev(near_aes);
    stats.near_fir_rms = stats::stddev(near_fir);
    return stats;
  };

  std::cout << "Tenants on " << device.name()
            << ": AES @ (10,8) always on; FIR @ (52,50) toggled.\n"
            << "Attacker sensors: A @ (16,18) beside the AES, F @ (52,44) "
               "beside the FIR.\n"
            << "20,000 shared sensor-clock samples per run.\n\n";

  const auto aes_only = run(false);
  const auto both = run(true);

  util::Table table({"sensor", "rms, AES only", "rms, AES + FIR",
                     "increase [%]"});
  table.row()
      .add("A (beside AES)")
      .add(aes_only.near_aes_rms, 2)
      .add(both.near_aes_rms, 2)
      .add(100.0 * (both.near_aes_rms / aes_only.near_aes_rms - 1.0), 1);
  table.row()
      .add("F (beside FIR)")
      .add(aes_only.near_fir_rms, 2)
      .add(both.near_fir_rms, 2)
      .add(100.0 * (both.near_fir_rms / aes_only.near_fir_rms - 1.0), 1);
  table.print(std::cout);

  std::cout << "\nSwitching the FIR tenant on barely moves the sensor "
               "beside the AES core but sharply\nraises the modulation at "
               "the sensor beside the FIR — the PDN's spatial "
               "non-uniformity\nlets a co-tenant localize activity, the "
               "effect behind Fig. 4 and Table I.\n";
  return 0;
}
