// Emits the Vivado XDC constraints for the Table-I experiment floorplan:
// the victim tenant's Pblock, the attacker's sensor Pblock at the best
// placement, and LOC constraints pinning the three cascaded DSP48 blocks —
// the text a tenant would feed to the real toolchain.
//
//   $ ./example_export_constraints > leakydsp_tenant.xdc
#include <iostream>

#include "fabric/xdc_export.h"
#include "sim/scenarios.h"
#include "util/cli.h"

using namespace leakydsp;

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv, {});  // takes no options; answers --help
  const sim::Basys3Scenario scenario;
  const auto best =
      scenario
          .attack_placements()[sim::Basys3Scenario::kBestPlacementIndex];

  const std::vector<fabric::Pblock> pblocks = {
      scenario.victim_pblock(),
      {"attacker_leakydsp",
       fabric::Rect{best.x, best.y, best.x, best.y + 2}},
  };
  std::vector<fabric::LocConstraint> locs;
  for (int i = 0; i < 3; ++i) {
    locs.push_back({"sensor/dsp_chain[" + std::to_string(i) + "]",
                    fabric::SiteType::kDsp,
                    {best.x, best.y + i}});
  }
  std::cout << fabric::xdc_file(scenario.device(), pblocks,
                                {"aes_core/*", "sensor/*"}, locs);
  return 0;
}
