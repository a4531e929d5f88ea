// Regenerates Fig. 3: sensitivity of LeakyDSP and TDC (same placement
// area) to different victim activity levels.
//
// 8,000 power-virus instances in clock regions 1-2, split into 8 groups of
// 1,000; activating 0..8 groups spans 9 voltage levels. For each level the
// bench collects 2,000 readouts per sensor and reports the mean; the
// summary rows give the Pearson correlation coefficient and regression
// slope of readout vs. active groups.
//
// Paper reference: LeakyDSP r = -0.974, slope = -3.45; TDC r = -0.996,
// slope = -1.09 (TDC has 128 output bits, LeakyDSP 48).
#include <cstdio>
#include <iostream>
#include <vector>

#include "core/leaky_dsp.h"
#include "sensors/tdc.h"
#include "sim/scenarios.h"
#include "sim/sensor_rig.h"
#include "stats/descriptive.h"
#include "util/cli.h"
#include "util/rng.h"
#include "util/table.h"
#include "victim/power_virus.h"

using namespace leakydsp;

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv, {"seed", "readouts"});
  const auto seed = cli.get_seed("seed", 1);
  const auto readouts = cli.get_count("readouts", 2000, 1);

  const sim::Basys3Scenario scenario;
  util::Rng rng(seed);

  victim::PowerVirus virus(scenario.device(), scenario.grid(),
                           scenario.virus_regions());

  core::LeakyDspSensor leaky(scenario.device(), scenario.fig3_dsp_site());
  sensors::TdcSensor tdc(scenario.device(), scenario.fig3_clb_site());
  sim::SensorRig leaky_rig(scenario.grid(), leaky);
  sim::SensorRig tdc_rig(scenario.grid(), tdc);
  leaky_rig.calibrate(rng);
  tdc_rig.calibrate(rng);

  std::vector<double> levels;
  std::vector<double> leaky_means;
  std::vector<double> tdc_means;

  util::Table table({"active groups", "virus instances", "LeakyDSP readout",
                     "TDC readout"});
  for (std::size_t level = 0; level <= virus.group_count(); ++level) {
    virus.set_active_groups(level);
    auto draw_fn = [&](std::vector<pdn::CurrentInjection>& draws) {
      for (const auto& d : virus.draws(rng)) draws.push_back(d);
    };
    leaky_rig.settle();
    tdc_rig.settle();
    const auto leaky_samples = leaky_rig.collect(readouts, rng, draw_fn);
    const auto tdc_samples = tdc_rig.collect(readouts, rng, draw_fn);
    const double lm = stats::mean(leaky_samples);
    const double tm = stats::mean(tdc_samples);
    levels.push_back(static_cast<double>(level));
    leaky_means.push_back(lm);
    tdc_means.push_back(tm);
    table.row()
        .add(level)
        .add(level * virus.instances_per_group())
        .add(lm, 2)
        .add(tm, 2);
  }

  const auto leaky_fit = stats::linear_fit(levels, leaky_means);
  const auto tdc_fit = stats::linear_fit(levels, tdc_means);

  std::cout << "=== Fig. 3: sensitivity under different victim activities "
               "===\n"
            << "LeakyDSP at DSP site (" << scenario.fig3_dsp_site().x << ","
            << scenario.fig3_dsp_site().y << "), TDC at CLB site ("
            << scenario.fig3_clb_site().x << "," << scenario.fig3_clb_site().y
            << "); " << readouts << " readouts per level, seed " << seed
            << "\n\n";
  table.print(std::cout);

  util::Table summary(
      {"sensor", "Pearson r", "paper r", "slope [readout/group]", "paper slope"});
  summary.row()
      .add("LeakyDSP")
      .add(leaky_fit.r, 3)
      .add("-0.974")
      .add(leaky_fit.slope, 2)
      .add("-3.45");
  summary.row()
      .add("TDC")
      .add(tdc_fit.r, 3)
      .add("-0.996")
      .add(tdc_fit.slope, 2)
      .add("-1.09");
  std::cout << '\n';
  summary.print(std::cout);
  std::cout << "\nLeakyDSP slope / TDC slope = "
            << util::format_double(leaky_fit.slope / tdc_fit.slope, 2)
            << " (paper: " << util::format_double(3.45 / 1.09, 2) << ")\n";
  return 0;
}
