// Regenerates Fig. 5: key-rank estimation for LeakyDSP.
//
// (a) All eight placements ranked by their estimated key rank after 20 k
//     traces — the paper's colour-gradient heat map, printed as a ranked
//     table.
// (b) Key-rank upper/lower bounds vs. trace count for five selected
//     placements: the best case (P6), the worst case, the placement closest
//     to the victim (P2), and two mid-field placements.
//
// Paper reference: rank falls with traces everywhere, at placement-
// dependent speed; the ordering matches the placement quality of Table I.
//
// The eight campaigns are independent jobs drained together through one
// serve::CampaignService over the hardware's threads.
#include <algorithm>
#include <iostream>
#include <string>
#include <vector>

#include "attack/campaign.h"
#include "basys3_cells.h"
#include "sim/scenarios.h"
#include "util/cli.h"
#include "util/table.h"
#include "victim/aes_core.h"

using namespace leakydsp;

namespace {

/// "P<i+1>": the paper's 1-based placement label.
std::string placement_label(std::size_t i) {
  std::string label = "P";
  label += std::to_string(i + 1);
  return label;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv, {"seed", "max-traces", "quick!"});
  const auto seed = cli.get_seed("seed", 4);
  const bool quick = cli.get_flag("quick");
  const auto max_traces =
      cli.get_count("max-traces", quick ? 10000 : 60000, 1);

  const sim::Basys3Scenario scenario;
  victim::AesCoreParams aes_params;
  if (quick) aes_params.current_per_hd_bit *= 3.0;

  attack::CampaignConfig config;
  config.max_traces = max_traces;
  config.rank_stride = quick ? 2000 : 5000;

  std::cout << "=== Fig. 5: key-rank estimation for LeakyDSP ===\n"
            << "Rank bounds every " << config.rank_stride
            << " traces up to " << util::format_count(max_traces)
            << "; seed " << seed
            << (quick ? " [--quick: leakage boosted 3x]" : "") << "\n\n";

  // Every placement runs to max_traces, keeping all rank checkpoints.
  std::vector<serve::CampaignJob> jobs;
  for (std::size_t i = 0; i < scenario.attack_placements().size(); ++i) {
    jobs.push_back(bench::basys3_job(placement_label(i), scenario,
                                     scenario.attack_placements()[i], seed,
                                     static_cast<int>(i), aes_params, config));
    jobs.back().stop_when_broken = false;
  }
  const auto outcomes = bench::drain_cells(std::move(jobs), /*threads=*/0);

  // (a) heat ranking at 20 k traces (or the nearest checkpoint).
  const std::size_t heat_traces = std::min<std::size_t>(20000, max_traces);
  std::cout << "--- Fig. 5(a): placements ranked by key rank at "
            << util::format_count(heat_traces) << " traces ---\n";
  std::vector<std::pair<double, std::size_t>> heat;
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    double mid = 128.0;
    for (const auto& cp : outcomes[i].result.checkpoints) {
      if (cp.traces <= heat_traces) mid = cp.rank.log2_mid();
    }
    heat.push_back({mid, i});
  }
  std::sort(heat.begin(), heat.end());
  util::Table heat_table({"rank order", "placement", "log2 key rank",
                          "bytes correct"});
  for (std::size_t order = 0; order < heat.size(); ++order) {
    const std::size_t i = heat[order].second;
    int correct = 0;
    for (const auto& cp : outcomes[i].result.checkpoints) {
      if (cp.traces <= heat_traces) correct = cp.correct_bytes;
    }
    heat_table.row()
        .add(order + 1)
        .add(placement_label(i))
        .add(heat[order].first, 1)
        .add(correct);
  }
  heat_table.print(std::cout);

  // (b) rank curves for 5 selected placements: best, worst, closest and
  // the two mid-field ones nearest the median heat rank.
  const std::size_t best = heat.front().second;
  const std::size_t worst = heat.back().second;
  const auto closest =
      static_cast<std::size_t>(sim::Basys3Scenario::kClosestPlacementIndex);
  std::vector<std::size_t> selected{best, worst, closest};
  for (const auto& [mid, i] : heat) {
    if (selected.size() >= 5) break;
    if (std::find(selected.begin(), selected.end(), i) == selected.end()) {
      selected.push_back(i);
    }
  }
  std::sort(selected.begin(), selected.end());

  std::cout << "\n--- Fig. 5(b): log2 key-rank bounds [lower, upper] vs "
               "traces ---\n";
  std::vector<std::string> headers{"traces"};
  for (const auto i : selected) headers.push_back(placement_label(i));
  util::Table curves(headers);
  const auto& first = outcomes[selected[0]].result.checkpoints;
  for (std::size_t c = 0; c < first.size(); ++c) {
    auto& row = curves.row();
    row.add(util::format_count(first[c].traces));
    for (const auto i : selected) {
      const auto& cp = outcomes[i].result.checkpoints[c];
      std::string bounds = "[";
      bounds += util::format_double(cp.rank.log2_lower, 1);
      bounds += ", ";
      bounds += util::format_double(cp.rank.log2_upper, 1);
      bounds += ']';
      row.add(bounds);
    }
  }
  curves.print(std::cout);
  std::cout << "\nbest placement this run: P" << best + 1
            << "; worst: P" << worst + 1 << "; closest to victim: P"
            << closest + 1 << "\n";
  return 0;
}
