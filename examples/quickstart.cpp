// Quickstart: deploy a LeakyDSP sensor on the Basys3 device model,
// calibrate it, and watch it sense a co-tenant's power-virus activity.
//
//   $ ./example_quickstart
//
// Walks through the library's core objects: Device -> PdnGrid ->
// LeakyDspSensor -> SensorRig -> readouts.
#include <iostream>

#include "core/leaky_dsp.h"
#include "fabric/device.h"
#include "pdn/grid.h"
#include "sim/sensor_rig.h"
#include "stats/descriptive.h"
#include "util/cli.h"
#include "util/rng.h"
#include "victim/power_virus.h"

using namespace leakydsp;

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv, {});  // takes no options; answers --help
  util::Rng rng(/*seed=*/2026);

  // 1. A device floorplan and its power delivery network.
  const auto device = fabric::Device::basys3();
  const pdn::PdnGrid grid(device);
  std::cout << "Device: " << device.name() << " (" << device.width() << "x"
            << device.height() << " sites, " << grid.node_count()
            << " PDN nodes, " << grid.pad_count() << " power pads)\n";

  // 2. The malicious sensor: three cascaded DSP48 blocks on a DSP column.
  core::LeakyDspSensor sensor(device, /*site=*/{16, 20});
  std::cout << "LeakyDSP: " << sensor.params().n_dsp
            << " cascaded DSP48E1 blocks, " << sensor.readout_bits()
            << "-bit output, computes P = A ("
            << sensor.compute_identity(0xABCDE) << " for A = 0xABCDE)\n";

  // 3. Attach it to the PDN and run the paper's calibration.
  sim::SensorRig rig(grid, sensor);
  const auto cal = rig.calibrate(rng);
  std::cout << "Calibration: tap setting " << cal.chosen_setting
            << ", fine phase " << sensor.fine_phase() << ", idle readout "
            << cal.idle_readout << " of 48 bits\n";

  // 4. A victim tenant: 8000 ring-oscillator power-virus instances in the
  //    bottom clock regions.
  victim::PowerVirus virus(device, grid,
                           {device.clock_region(1).bounds,
                            device.clock_region(2).bounds});

  // 5. Sense increasing activity.
  std::cout << "\nactive virus groups -> mean readout (500 samples):\n";
  auto draw_fn = [&](std::vector<pdn::CurrentInjection>& draws) {
    for (const auto& d : virus.draws(rng)) draws.push_back(d);
  };
  for (std::size_t groups = 0; groups <= virus.group_count(); groups += 2) {
    virus.set_active_groups(groups);
    rig.settle();
    const auto readouts = rig.collect(500, rng, draw_fn);
    std::cout << "  " << groups << " groups (" << groups * 1000
              << " instances): " << stats::mean(readouts) << " bits\n";
  }

  std::cout << "\nThe readout falls as co-tenant activity grows: the DSP "
               "cascade slows with supply droop\nand fewer output bits "
               "settle before the capture clock. That is the whole attack "
               "primitive.\n";
  return 0;
}
