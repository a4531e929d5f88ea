// Extension study: recovering DNN accelerator architectures through
// LeakyDSP readouts — the layer-structure side channel of Zhang et al.
// (TIFS'21, reference [42]) rebuilt on the DSP sensor. Three candidate
// networks run at the victim site; the attacker segments the readout
// stream into constant-current phases and counts layers per inference.
#include <iostream>

#include "attack/layer_detect.h"
#include "core/leaky_dsp.h"
#include "sim/scenarios.h"
#include "sim/sensor_rig.h"
#include "util/cli.h"
#include "util/rng.h"
#include "util/table.h"
#include "victim/dnn_accelerator.h"

using namespace leakydsp;

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv, {"seed", "inferences"});
  util::Rng rng(cli.get_seed("seed", 16));
  const auto inferences = cli.get_count("inferences", 8, 1);

  const sim::Basys3Scenario scenario;
  core::LeakyDspSensor sensor(
      scenario.device(),
      scenario.attack_placements()[sim::Basys3Scenario::kBestPlacementIndex]);
  sim::SensorRig rig(scenario.grid(), sensor);
  rig.calibrate(rng);
  const std::size_t node =
      scenario.grid().node_of_site(scenario.aes_site());
  const double gain = rig.coupling().gain_at_node(node);
  const double dt = rig.params().sample_period_ns;

  std::cout << "=== DNN architecture fingerprinting (extension, cf. [42]) "
               "===\n"
            << "LeakyDSP @ 300 MHz observes " << inferences
            << " inferences per candidate network; the attacker counts "
               "layers from the readout stream.\n\n";

  util::Table table({"network", "true layers", "estimated layers",
                     "inferences observed", "correct"});
  struct Candidate {
    const char* name;
    victim::DnnWorkload workload;
  };
  Candidate candidates[] = {
      {"MLP (2 fc)", victim::DnnWorkload::mlp_like()},
      {"LeNet-like (5 layers)", victim::DnnWorkload::lenet_like()},
      {"VGG-like (9 layers)", victim::DnnWorkload::vgg_like()},
  };
  for (auto& c : candidates) {
    rig.settle();
    const auto period_samples =
        static_cast<std::size_t>(c.workload.inference_period_ns() / dt);
    const std::size_t samples = period_samples * (inferences + 1);
    std::vector<double> readouts;
    readouts.reserve(samples);
    for (std::size_t s = 0; s < samples; ++s) {
      const double droop =
          gain * c.workload.current_at(static_cast<double>(s) * dt, rng);
      readouts.push_back(
          rig.sensor().sample(rig.supply_for_droop(droop, rng), rng));
    }
    const auto estimate = attack::estimate_layers(readouts);
    table.row()
        .add(c.name)
        .add(c.workload.layers().size())
        .add(estimate.layers_per_inference)
        .add(estimate.inferences_seen)
        .add(estimate.layers_per_inference == c.workload.layers().size()
                 ? "yes"
                 : "NO");
  }
  table.print(std::cout);
  std::cout << "\nExpected shape: the layer count — the coarsest secret of "
               "the architecture — is recovered exactly for every "
               "candidate.\n";
  return 0;
}
