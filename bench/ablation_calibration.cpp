// Ablation (Section III): the IDELAY/fine-phase calibration is what makes
// LeakyDSP "adaptive to different placements". This bench repeats the
// Fig. 4 placement sweep with calibration enabled vs. disabled (taps left
// at power-on defaults) and reports the sensitivity at each region.
//
// Expected shape: uncalibrated sensors park their capture edge outside or
// at the saturated end of the settle window and lose most (often all) of
// their sensitivity; calibration recovers it at every placement. The run
// exits non-zero unless, at every region, calibrated sensitivity is at
// least kMinCalibrated bits and uncalibrated sensitivity at most
// kMaxUncalibrated bits.
#include <iostream>
#include <vector>

#include "core/leaky_dsp.h"
#include "sim/scenarios.h"
#include "sim/sensor_rig.h"
#include "stats/descriptive.h"
#include "util/cli.h"
#include "util/rng.h"
#include "util/table.h"
#include "victim/power_virus.h"

using namespace leakydsp;

namespace {

constexpr double kMinCalibrated = 15.0;
constexpr double kMaxUncalibrated = 1.0;

double sensitivity(sim::SensorRig& rig, victim::PowerVirus& virus,
                   std::size_t readouts, util::Rng& rng) {
  auto draw_fn = [&](std::vector<pdn::CurrentInjection>& draws) {
    for (const auto& d : virus.draws(rng)) draws.push_back(d);
  };
  virus.set_enabled(false);
  rig.settle();
  const double off = stats::mean(rig.collect(readouts, rng, draw_fn));
  virus.set_enabled(true);
  rig.settle();
  const double on = stats::mean(rig.collect(readouts, rng, draw_fn));
  virus.set_enabled(false);
  return off - on;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv, {"seed", "readouts"});
  const auto seed = cli.get_seed("seed", 9);
  const auto readouts = cli.get_count("readouts", 1000, 1);

  const sim::Basys3Scenario scenario;
  util::Rng rng(seed);
  victim::PowerVirus virus(scenario.device(), scenario.grid(),
                           scenario.virus_regions());

  std::cout << "=== Ablation: IDELAY calibration on/off across placements "
               "===\n"
            << "Fig. 4 setup (8000 virus instances in regions 1-2); " << readouts
            << " readouts per setting; seed " << seed << "\n\n";

  util::Table table({"region", "sensitivity calibrated",
                     "sensitivity uncalibrated"});
  bool pass = true;
  for (int r = 1; r <= 6; ++r) {
    core::LeakyDspSensor calibrated(scenario.device(),
                                    scenario.region_dsp_site(r));
    sim::SensorRig cal_rig(scenario.grid(), calibrated);
    cal_rig.calibrate(rng);
    const double with_cal = sensitivity(cal_rig, virus, readouts, rng);

    core::LeakyDspSensor uncalibrated(scenario.device(),
                                      scenario.region_dsp_site(r));
    sim::SensorRig raw_rig(scenario.grid(), uncalibrated);
    // Power-on defaults: both IDELAY lines at tap 0, no fine phase.
    const double without_cal = sensitivity(raw_rig, virus, readouts, rng);

    table.row().add(r).add(with_cal, 2).add(without_cal, 2);
    pass = pass && with_cal >= kMinCalibrated &&
           without_cal <= kMaxUncalibrated;
  }
  table.print(std::cout);
  std::cout << "\nExpected shape: calibrated sensitivity is large and "
               "placement-dependent; uncalibrated sensors sit outside the "
               "settle window and sense little or nothing.\n"
            << "Gate (every region: calibrated >= " << kMinCalibrated
            << " bits, uncalibrated <= " << kMaxUncalibrated
            << " bits): " << (pass ? "PASS" : "FAIL") << "\n";
  return pass ? 0 : 1;
}
