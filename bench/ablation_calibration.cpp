// Ablation (Section III): the IDELAY/fine-phase calibration is what makes
// LeakyDSP "adaptive to different placements". This bench repeats the
// Fig. 4 placement sweep with calibration enabled vs. disabled (taps left
// at power-on defaults) and reports the sensitivity at each region. A
// third column keeps region 1's calibrated taps and fine phase at every
// region, which separates what calibration adapts to the placement from
// what it corrects once for the sensor: if that column matches the
// calibrated one, the placement does not move the setting.
//
// Expected shape: uncalibrated sensors park their capture edge outside or
// at the saturated end of the settle window and lose most (often all) of
// their sensitivity; calibration recovers it at every placement. The run
// exits non-zero unless, at every region, calibrated sensitivity is at
// least kMinCalibrated bits and uncalibrated sensitivity at most
// kMaxUncalibrated bits. The fixed-setting column reads from its own
// stream, rng.fork(region), so it is not gated and moves no other column.
#include <cstdint>
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
                     "sensitivity uncalibrated",
                     "sensitivity at region 1's setting"});
  bool pass = true;
  int fixed_a_taps = 0;
  int fixed_clk_taps = 0;
  int fixed_phase = 0;
  for (int r = 1; r <= 6; ++r) {
    core::LeakyDspSensor calibrated(scenario.device(),
                                    scenario.region_dsp_site(r));
    sim::SensorRig cal_rig(scenario.grid(), calibrated);
    cal_rig.calibrate(rng);
    if (r == 1) {
      fixed_a_taps = calibrated.a_taps();
      fixed_clk_taps = calibrated.clk_taps();
      fixed_phase = calibrated.fine_phase();
    }
    util::Rng fixed_rng = rng.fork(static_cast<std::uint64_t>(r));
    const double with_cal = sensitivity(cal_rig, virus, readouts, rng);

    core::LeakyDspSensor uncalibrated(scenario.device(),
                                      scenario.region_dsp_site(r));
    sim::SensorRig raw_rig(scenario.grid(), uncalibrated);
    // Power-on defaults: both IDELAY lines at tap 0, no fine phase.
    const double without_cal = sensitivity(raw_rig, virus, readouts, rng);

    // Region 1's calibrated setting, not recalibrated here (at region 1
    // itself: the same setting on another stream).
    core::LeakyDspSensor fixed(scenario.device(), scenario.region_dsp_site(r));
    fixed.set_taps(fixed_a_taps, fixed_clk_taps);
    fixed.set_fine_phase(fixed_phase);
    sim::SensorRig fixed_rig(scenario.grid(), fixed);
    const double at_fixed = sensitivity(fixed_rig, virus, readouts, fixed_rng);

    table.row().add(r).add(with_cal, 2).add(without_cal, 2).add(at_fixed, 2);
    pass = pass && with_cal >= kMinCalibrated &&
           without_cal <= kMaxUncalibrated;
  }
  table.print(std::cout);
  std::cout << "\nRegion 1's setting: a_taps " << fixed_a_taps << ", clk_taps "
            << fixed_clk_taps << ", fine phase " << fixed_phase << "\n";
  std::cout << "\nExpected shape: calibrated sensitivity is large and "
               "placement-dependent; uncalibrated sensors sit outside the "
               "settle window and sense little or nothing. Placement moves "
               "the settle times only through the idle IR drop, less than "
               "one tap step, so region 1's setting senses as well as each "
               "region's own: calibration corrects the power-on offset.\n"
            << "Gate (every region: calibrated >= " << kMinCalibrated
            << " bits, uncalibrated <= " << kMaxUncalibrated
            << " bits): " << (pass ? "PASS" : "FAIL") << "\n";
  return pass ? 0 : 1;
}
