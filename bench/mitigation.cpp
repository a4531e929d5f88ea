// Mitigations (Section V discussion):
//
// 1. Bitstream checks: audits the three sensor families' netlists against
//    the deployed provider policy (combinational loops, latches, vertical
//    carry chains) and against the paper's proposed extension (reject
//    fully-asynchronous DSP configurations). Also demonstrates the
//    programmable-clock bypass of static timing rules.
// 2. Active-fence noise injection: a defender tenant injects random
//    switching noise into the PDN next to the AES core; the bench measures
//    how many traces the best-placement attack needs as the fence
//    amplitude grows. Its four campaigns are independent jobs drained
//    together through one serve::CampaignService.
// 3. Masking: campaigns against the unprotected and the first-order
//    masked core (AesCoreParams::masked) count the round-10 key bytes
//    first-order CPA recovers from each.
// 4. Second-order CPA (skipped under --quick): 140k traces of a
//    high-leakage masked core's campaign stream feed first-order and
//    one-pass second-order CPA; key enumeration finishes the residual rank.
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "attack/campaign.h"
#include "basys3_cells.h"
#include "poi_stream.h"
#include "attack/cpa.h"
#include "attack/key_enumeration.h"
#include "attack/second_order_cpa.h"
#include "core/leaky_dsp.h"
#include "fabric/bitstream_checker.h"
#include "fabric/netlist_builders.h"
#include "sim/scenarios.h"
#include "sim/sensor_rig.h"
#include "util/cli.h"
#include "util/rng.h"
#include "util/table.h"
#include "util/thread_pool.h"
#include "victim/active_fence.h"
#include "victim/aes_core.h"

using namespace leakydsp;

namespace {

std::string verdict(const fabric::CheckReport& report) {
  if (report.accepted()) return "ACCEPTED";
  std::string out = "REJECTED (";
  for (std::size_t i = 0; i < report.violations.size(); ++i) {
    if (i != 0) out += ", ";
    out += report.violations[i].rule;
  }
  return out + ")";
}

/// Bytes of the recovered round-10 key that match the true one.
int correct_bytes(const crypto::RoundKey& recovered,
                  const crypto::RoundKey& truth) {
  int correct = 0;
  for (std::size_t b = 0; b < 16; ++b) correct += recovered[b] == truth[b];
  return correct;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv, {"seed", "max-traces", "quick!"});
  const auto seed = cli.get_seed("seed", 10);
  const bool quick = cli.get_flag("quick");
  const auto max_traces =
      cli.get_count("max-traces", quick ? 10000 : 80000, 1);

  std::cout << "=== Mitigation study (Section V) ===\n\n"
            << "--- 1. Bitstream checks ---\n";
  {
    const auto deployed = fabric::CheckPolicy::deployed();
    const auto proposed = fabric::CheckPolicy::with_dsp_rule();
    util::Table table({"design", "deployed checks", "+ proposed DSP rule"});
    const auto leaky = fabric::build_leakydsp_netlist(
        fabric::Architecture::kSeries7, 3);
    const auto tdc = fabric::build_tdc_netlist(32, 5, 0);
    const auto ro = fabric::build_ro_netlist(64);
    table.row()
        .add("LeakyDSP (3 DSP48E1)")
        .add(verdict(audit_bitstream(leaky, deployed)))
        .add(verdict(audit_bitstream(leaky, proposed)));
    table.row()
        .add("TDC (128 stages)")
        .add(verdict(audit_bitstream(tdc, deployed)))
        .add(verdict(audit_bitstream(tdc, proposed)));
    table.row()
        .add("RO virus (64 loops)")
        .add(verdict(audit_bitstream(ro, deployed)))
        .add(verdict(audit_bitstream(ro, proposed)));
    table.print(std::cout);

    fabric::CheckPolicy timing = fabric::CheckPolicy::deployed();
    timing.declared_clock_period_ns = 3.333;  // honest 300 MHz declaration
    fabric::CheckPolicy bypassed = fabric::CheckPolicy::deployed();
    bypassed.declared_clock_period_ns = 100.0;  // programmable-clock bypass
    std::cout << "\ntiming rule, honest 300 MHz declaration: "
              << verdict(audit_bitstream(leaky, timing))
              << "\ntiming rule, declared 10 MHz (paper's bypass): "
              << verdict(audit_bitstream(leaky, bypassed)) << "\n";
  }

  std::cout << "\n--- 2. Active-fence noise injection ---\n"
            << "Defender fence cells (shared-PRNG toggling) ring the victim "
               "Pblock; attack at best placement (P6)"
            << (quick ? "; [--quick: leakage boosted 3x]" : "") << "\n\n";
  {
    const sim::Basys3Scenario scenario;
    victim::AesCoreParams aes_params;
    if (quick) aes_params.current_per_hd_bit *= 3.0;
    attack::CampaignConfig config;
    config.max_traces = max_traces;
    config.rank_stride = 20000;

    // Fence cells occupy the guard band directly above the victim Pblock
    // (between the AES core and the attacker placements). The fences are
    // const and shared: every campaign draws from its own RNG stream.
    const std::size_t fence_sizes[] = {0, 500, 1000, 2000};
    std::vector<std::unique_ptr<const victim::ActiveFence>> fences;
    std::vector<serve::CampaignJob> jobs;
    for (const std::size_t fence_cells : fence_sizes) {
      jobs.push_back(bench::basys3_job(
          std::to_string(fence_cells), scenario,
          scenario.attack_placements()
              [sim::Basys3Scenario::kBestPlacementIndex],
          seed, static_cast<int>(fence_cells + 1), aes_params, config));
      fences.emplace_back();
      if (fence_cells == 0) continue;
      victim::ActiveFenceParams fence_params;
      fence_params.instance_count = fence_cells;
      fences.back() = std::make_unique<const victim::ActiveFence>(
          scenario.device(), scenario.grid(), fabric::Rect{6, 17, 24, 24},
          fence_params);
      jobs.back().make = [make = std::move(jobs.back().make),
                          fence = fences.back().get()] {
        auto world = make();
        world->campaign().add_interferer(
            [fence](double, util::Rng& r,
                    std::vector<pdn::CurrentInjection>& out) {
              for (const auto& d : fence->draws(r)) out.push_back(d);
            });
        return world;
      };
    }
    const auto outcomes = bench::drain_cells(std::move(jobs), /*threads=*/0);

    util::Table table({"fence cells", "fence mean current [A]",
                       "traces to break"});
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
      const attack::CampaignResult& result = outcomes[i].result;
      table.row()
          .add(fence_sizes[i])
          .add(fences[i] ? fences[i]->mean_current() : 0.0, 2)
          .add(result.broken
                   ? util::format_count(result.traces_to_break)
                   : ("not broken in " +
                      util::format_count(result.traces_run)));
    }
    table.print(std::cout);
    std::cout << "\nExpected shape: traces to break grow with the fence "
                 "size (the paper notes noise injection obscures power "
                 "patterns at a power/area cost).\n";
  }

  std::cout << "\n--- 3. Masked (constant-power-style) implementation ---\n"
            << "First-order Boolean masking with fresh per-round masks; "
               "CPA on the last-round HD model\n\n";
  {
    const sim::Basys3Scenario scenario;
    util::Rng rng(seed + 1);
    crypto::Key key;
    for (auto& b : key) b = static_cast<std::uint8_t>(rng() & 0xff);
    const std::size_t traces = quick ? 4000 : 12000;
    attack::CampaignConfig config;
    config.max_traces = traces;
    config.rank_stride = traces;

    // One campaign per core, run to the end; its one rank checkpoint
    // counts the recovered round-10 key bytes.
    auto bytes_recovered = [&](bool masked, util::Rng run_rng) {
      victim::AesCoreParams aes_params;
      aes_params.current_per_hd_bit *= 3.0;  // generous leakage for the demo
      aes_params.masked = masked;
      victim::AesCoreModel aes(key, scenario.aes_site(), scenario.grid(),
                               aes_params);
      core::LeakyDspSensor sensor(
          scenario.device(),
          scenario
              .attack_placements()[sim::Basys3Scenario::kBestPlacementIndex]);
      sim::SensorRig rig(scenario.grid(), sensor);
      rig.calibrate(run_rng);
      attack::TraceCampaign campaign(rig, aes, config);
      return campaign.run(run_rng, /*stop_when_broken=*/false)
          .checkpoints.back()
          .correct_bytes;
    };

    util::Table table({"implementation", "traces", "key bytes recovered"});
    table.row()
        .add("unprotected")
        .add(util::format_count(traces))
        .add(bytes_recovered(false, rng.fork(1)));
    table.row()
        .add("first-order masked")
        .add(util::format_count(traces))
        .add(bytes_recovered(true, rng.fork(2)));
    table.print(std::cout);
    std::cout << "\nExpected shape: the unprotected core loses most or all "
                 "key bytes at this trace count; the masked core's "
                 "share-register transitions decorrelate the leakage and "
                 "first-order CPA recovers ~0 bytes (2-3 by chance).\n";
  }

  if (!quick) {
    std::cout << "\n--- 4. Second-order CPA defeats the masking ---\n"
              << "Centered-square preprocessing converts the masked shares' "
                 "variance leakage back into a\ncorrelatable first moment "
                 "(quadratic SNR penalty). High-leakage core (~21x "
                 "calibrated),\n140k traces, same trace set fed to both "
                 "attacks.\n\n";
    const sim::Basys3Scenario scenario;
    util::Rng rng(seed + 2);
    crypto::Key key;
    for (auto& b : key) b = static_cast<std::uint8_t>(rng() & 0xff);
    victim::AesCoreParams aes_params;
    aes_params.current_per_hd_bit = 0.2;
    aes_params.masked = true;
    victim::AesCoreModel masked(key, scenario.aes_site(), scenario.grid(),
                                aes_params);
    core::LeakyDspSensor sensor(
        scenario.device(),
        scenario
            .attack_placements()[sim::Basys3Scenario::kBestPlacementIndex]);
    sim::SensorRig rig(scenario.grid(), sensor);
    rig.calibrate(rng);
    const attack::TraceCampaign campaign(rig, masked);
    const std::size_t traces = 140000;

    attack::CpaAttack first_order(campaign.poi_count());
    attack::SecondOrderCpa second_order(campaign.poi_count());
    auto cursor = campaign.start_record(rng);
    util::ThreadPool pool;
    bench::stream_poi_rows(
        campaign, cursor, traces, pool,
        [&](std::span<const crypto::Block> cts, std::span<const double> rows) {
          first_order.add_traces(cts, rows);
          second_order.add_traces(cts, rows);
        });

    const auto& truth = masked.cipher().round_keys()[10];
    util::Table table({"attack on the masked core", "traces",
                       "key bytes recovered"});
    table.row()
        .add("first-order CPA")
        .add(util::format_count(traces))
        .add(correct_bytes(first_order.recovered_round_key(), truth));
    table.row()
        .add("second-order CPA (centered-square)")
        .add(util::format_count(traces))
        .add(correct_bytes(second_order.recovered_round_key(), truth));
    table.print(std::cout);

    // Any byte the second-order argmax leaves buried falls to optimal-order
    // enumeration — the real attacker's final step.
    std::array<attack::ByteScores, 16> scores;
    for (int b = 0; b < 16; ++b) {
      scores[static_cast<std::size_t>(b)] = second_order.snapshot_byte(b);
    }
    const crypto::Block known_pt{};
    const auto enumeration = attack::enumerate_and_verify(
        scores, known_pt, masked.cipher().encrypt(known_pt), 1u << 22);
    std::cout << "\nsecond-order scores + key enumeration: "
              << (enumeration.found
                      ? ("FULL KEY after " +
                         util::format_count(enumeration.candidates_tested) +
                         " candidates")
                      : "not found within 2^22 candidates")
              << "\n";
    std::cout << "\nExpected shape: first-order CPA stays blind at any "
                 "trace count; second-order CPA\n(plus enumeration of the "
                 "residual rank) recovers the full key — but needs ~1000x\n"
                 "the traces the unprotected core would at this leakage, "
                 "which is precisely the\nprotection margin masking "
                 "buys.\n";
  }
  return 0;
}
