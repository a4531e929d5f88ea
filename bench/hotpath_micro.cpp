// Microbenchmarks of the single-core hot-path kernels, pairing each
// optimized kernel with the exact/scalar path it replaced:
//
//   scale        — AlphaPowerLaw::scale (std::pow) vs ScaleTable (cubic LUT)
//   stages       — binary-search stages_within vs the O(1) uniform fast path
//   gaussian     — Box–Muller gaussian() vs the ziggurat gaussian_zig(),
//                  plus fill_gaussian_zig() in 64-value blocks
//   sample       — LeakyDSP / TDC scalar sample() loop vs sample_batch()
//   group        — eight per-trace LeakyDSP sample_batch() calls vs one
//                  8-trace sample_traces() (ns per readout)
//   cpa          — CpaAttack add_trace loop vs batched add_traces
//   key_rank     — the estimator's 16 histograms convolved with the plain
//                  dense loop vs the whole estimate_key_rank call
//   crc32        — Crc32::update over 1 MiB: the scalar tier's bytewise
//                  loop vs the dispatch tier (the PCLMULQDQ fold on AVX2
//                  and AVX-512), in ns per byte and MB/s
//
//   $ ./hotpath_micro [--quick]
//   $ LEAKYDSP_SIMD=scalar ./hotpath_micro --quick   # cap the SIMD tier
//
// Prints a table and writes BENCH_hotpath.json (with host metadata) into
// the working directory. --quick cuts the iteration counts ~10x; CI runs it
// as a smoke test. Running it under each LEAKYDSP_SIMD tier compares the
// dispatch tiers' kernels (the cpa_add_traces row times add_traces).
#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <iostream>
#include <limits>
#include <optional>
#include <span>
#include <vector>

#include "attack/cpa.h"
#include "attack/key_rank.h"
#include "attack/power_model.h"
#include "core/leaky_dsp.h"
#include "crypto/aes128.h"
#include "obs/obs.h"
#include "sensors/tdc.h"
#include "sim/scenarios.h"
#include "timing/delay_model.h"
#include "util/bench_json.h"
#include "util/cli.h"
#include "util/cpu_features.h"
#include "util/crc32.h"
#include "util/rng.h"
#include "util/table.h"

using namespace leakydsp;

namespace {

// Keeps results observable so the compiler cannot delete a timed loop.
volatile double g_sink = 0.0;

struct BenchResult {
  double ns_per_op = 0.0;
  std::size_t ops = 0;
};

/// Runs `body(iterations)` once to warm caches, then timed; `body` returns
/// the number of elementary operations it performed.
template <typename Body>
BenchResult run_bench(std::size_t iterations, Body&& body) {
  (void)body(iterations / 8 + 1);  // warm-up
  const auto start = std::chrono::steady_clock::now();
  const std::size_t ops = body(iterations);
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return {seconds / static_cast<double>(ops) * 1e9, ops};
}

/// The key-rank estimator's convolution work done the dense way: the 16
/// per-byte log-likelihood histograms of attack::estimate_key_rank (same
/// sharpening, same bin geometry) convolved with the plain double loop
/// over every bin. Returns the joint histogram's mass.
double dense_rank_convolution(const std::array<attack::ByteScores, 16>& s) {
  const attack::KeyRankParams params;
  std::array<std::array<double, 256>, 16> ll{};
  double ll_min = std::numeric_limits<double>::max();
  double ll_max = std::numeric_limits<double>::lowest();
  for (std::size_t b = 0; b < 16; ++b) {
    std::array<double, 256> p{};
    double norm = 0.0;
    for (std::size_t g = 0; g < 256; ++g) {
      p[g] = std::pow(s[b].score[g] + params.epsilon, params.gamma);
      norm += p[g];
    }
    for (std::size_t g = 0; g < 256; ++g) {
      ll[b][g] = std::log2(p[g] / norm);
      ll_min = std::min(ll_min, ll[b][g]);
      ll_max = std::max(ll_max, ll[b][g]);
    }
  }
  const double width = (ll_max - ll_min) / static_cast<double>(params.bins);
  const double lo = ll_min - 0.5 * width;
  std::vector<double> joint;
  for (std::size_t b = 0; b < 16; ++b) {
    std::vector<double> h(params.bins + 1, 0.0);
    for (const double v : ll[b]) {
      const auto bin = static_cast<std::size_t>((v - lo) / width);
      h[std::min(bin, params.bins)] += 1.0;
    }
    if (b == 0) {
      joint = std::move(h);
      continue;
    }
    std::vector<double> out(joint.size() + h.size() - 1, 0.0);
    for (std::size_t i = 0; i < joint.size(); ++i) {
      if (joint[i] == 0.0) continue;
      for (std::size_t j = 0; j < h.size(); ++j) {
        out[i + j] += joint[i] * h[j];
      }
    }
    joint = std::move(out);
  }
  double mass = 0.0;
  for (const double c : joint) mass += c;
  return mass;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv, {"quick!"}, obs::cli_options());
  const std::string trace_out = obs::apply_cli(cli);
  const bool quick = cli.get_flag("quick");
  const std::size_t kScale = quick ? 1 : 10;

  util::BenchJson report("hotpath_micro");
  util::Table table({"kernel", "variant", "ns/op", "ops", "speedup"});

  const auto record = [&](const char* kernel, const char* baseline_name,
                          BenchResult baseline, const char* fast_name,
                          BenchResult fast) -> util::BenchJsonRow& {
    const double speedup = baseline.ns_per_op / fast.ns_per_op;
    table.row()
        .add(kernel)
        .add(baseline_name)
        .add(baseline.ns_per_op, 2)
        .add(baseline.ops)
        .add(1.0, 2);
    table.row().add("").add(fast_name).add(fast.ns_per_op, 2).add(fast.ops).add(
        speedup, 2);
    return report.row()
        .set("kernel", kernel)
        .set("baseline", baseline_name)
        .set("baseline_ns_per_op", baseline.ns_per_op)
        .set("fast", fast_name)
        .set("fast_ns_per_op", fast.ns_per_op)
        .set("speedup", speedup);
  };

  // ---- voltage→delay scale: exact std::pow law vs cubic-Hermite LUT ----
  {
    const timing::AlphaPowerLaw law{};
    const timing::ScaleTable lut(law);
    std::vector<double> volts;
    util::Rng rng(1);
    for (int i = 0; i < 4096; ++i) volts.push_back(rng.uniform(0.92, 1.0));
    const auto exact = run_bench(200000 * kScale, [&](std::size_t n) {
      double acc = 0.0;
      for (std::size_t i = 0; i < n; ++i) acc += law.scale(volts[i & 4095]);
      g_sink = acc;
      return n;
    });
    const auto fast = run_bench(200000 * kScale, [&](std::size_t n) {
      double acc = 0.0;
      for (std::size_t i = 0; i < n; ++i) acc += lut(volts[i & 4095]);
      g_sink = acc;
      return n;
    });
    record("scale", "alpha_power_exact", exact, "scale_table_lut", fast);
  }

  // ---- TDC traversal count: binary search vs O(1) uniform fast path ----
  {
    const timing::AlphaPowerLaw law{};
    const timing::DelayChain uniform(std::vector<double>(128, 0.015), law);
    std::vector<double> perturbed(128, 0.015);
    perturbed[64] = 0.0150000001;  // defeats uniform detection only
    const timing::DelayChain nonuniform(perturbed, law);
    std::vector<double> budgets;
    util::Rng rng(2);
    for (int i = 0; i < 4096; ++i) budgets.push_back(rng.uniform(0.0, 2.2));
    const auto search = run_bench(200000 * kScale, [&](std::size_t n) {
      std::size_t acc = 0;
      for (std::size_t i = 0; i < n; ++i) {
        acc += nonuniform.stages_within_scaled(budgets[i & 4095], 1.07);
      }
      g_sink = static_cast<double>(acc);
      return n;
    });
    const auto fast = run_bench(200000 * kScale, [&](std::size_t n) {
      std::size_t acc = 0;
      for (std::size_t i = 0; i < n; ++i) {
        acc += uniform.stages_within_scaled(budgets[i & 4095], 1.07);
      }
      g_sink = static_cast<double>(acc);
      return n;
    });
    record("stages_within", "binary_search", search, "uniform_divide", fast);
  }

  // ---- standard normal: Box–Muller vs 256-layer ziggurat ----
  {
    util::Rng rng_a(3);
    util::Rng rng_b(3);
    const auto bm = run_bench(200000 * kScale, [&](std::size_t n) {
      double acc = 0.0;
      for (std::size_t i = 0; i < n; ++i) acc += rng_a.gaussian();
      g_sink = acc;
      return n;
    });
    const auto zig = run_bench(200000 * kScale, [&](std::size_t n) {
      double acc = 0.0;
      for (std::size_t i = 0; i < n; ++i) acc += rng_b.gaussian_zig();
      g_sink = acc;
      return n;
    });
    util::Rng rng_c(3);
    const auto fill = run_bench(200000 * kScale, [&](std::size_t n) {
      std::array<double, 64> block;
      double acc = 0.0;
      std::size_t ops = 0;
      for (; ops < n; ops += block.size()) {
        rng_c.fill_gaussian_zig(block);
        acc += block[0];
      }
      g_sink = acc;
      return ops;
    });
    util::BenchJsonRow& row =
        record("gaussian", "box_muller", bm, "ziggurat", zig);
    const double fill_speedup = bm.ns_per_op / fill.ns_per_op;
    table.row()
        .add("")
        .add("ziggurat_fill")
        .add(fill.ns_per_op, 2)
        .add(fill.ops)
        .add(fill_speedup, 2);
    row.set("fill", "ziggurat_fill")
        .set("fill_ns_per_op", fill.ns_per_op)
        .set("fill_speedup", fill_speedup);
  }

  // ---- sensor readouts: scalar sample() loop vs sample_batch() ----
  const sim::Basys3Scenario scenario;
  {
    core::LeakyDspSensor sensor(scenario.device(), scenario.fig3_dsp_site());
    util::Rng cal(4);
    sensor.calibrate(1.0, cal);
    std::vector<double> supplies;
    util::Rng rng(5);
    for (int i = 0; i < 4096; ++i) supplies.push_back(rng.uniform(0.99, 1.0));
    std::vector<double> out(supplies.size());
    util::Rng rng_a(6);
    util::Rng rng_b(6);
    const auto scalar = run_bench(20 * kScale, [&](std::size_t n) {
      for (std::size_t r = 0; r < n; ++r) {
        double acc = 0.0;
        for (const double v : supplies) acc += sensor.sample(v, rng_a);
        g_sink = acc;
      }
      return n * supplies.size();
    });
    const auto batch = run_bench(20 * kScale, [&](std::size_t n) {
      for (std::size_t r = 0; r < n; ++r) {
        sensor.sample_batch(supplies, out, rng_b);
        g_sink = out[0];
      }
      return n * supplies.size();
    });
    record("leakydsp_sample", "scalar_loop", scalar, "sample_batch", batch);

    // A campaign block's digitization: eight 195-readout traces near the
    // calibrated idle point, each on its own stream, as eight sample_batch
    // calls vs one sample_traces call (the AVX-512 group kernel when that
    // tier dispatches, the same loop otherwise). ns per readout.
    constexpr std::size_t kGroup = sensors::VoltageSensor::kTraceGroup;
    constexpr std::size_t kReadouts = 195;
    std::vector<double> group_supplies(kGroup * kReadouts);
    for (double& v : group_supplies) v = 1.0 - rng.uniform(0.0, 3e-3);
    std::vector<double> group_out(group_supplies.size());
    std::vector<util::Rng> rngs_a;
    for (std::size_t g = 0; g < kGroup; ++g) rngs_a.push_back(rng.fork(g));
    std::vector<util::Rng> rngs_b = rngs_a;
    const auto per_trace = run_bench(400 * kScale, [&](std::size_t n) {
      for (std::size_t r = 0; r < n; ++r) {
        for (std::size_t g = 0; g < kGroup; ++g) {
          sensor.sample_batch(
              std::span<const double>(group_supplies)
                  .subspan(g * kReadouts, kReadouts),
              std::span<double>(group_out).subspan(g * kReadouts, kReadouts),
              rngs_a[g]);
        }
        g_sink = group_out[0];
      }
      return n * group_supplies.size();
    });
    const auto grouped = run_bench(400 * kScale, [&](std::size_t n) {
      for (std::size_t r = 0; r < n; ++r) {
        sensor.sample_traces(group_supplies, group_out, rngs_b);
        g_sink = group_out[0];
      }
      return n * group_supplies.size();
    });
    record("leakydsp_group", "per_trace_batch", per_trace, "sample_traces",
           grouped);
  }
  {
    sensors::TdcSensor sensor(scenario.device(), scenario.fig3_clb_site());
    util::Rng cal(7);
    sensor.calibrate(1.0, cal);
    std::vector<double> supplies;
    util::Rng rng(8);
    for (int i = 0; i < 4096; ++i) supplies.push_back(rng.uniform(0.99, 1.0));
    std::vector<double> out(supplies.size());
    util::Rng rng_a(9);
    util::Rng rng_b(9);
    const auto scalar = run_bench(50 * kScale, [&](std::size_t n) {
      for (std::size_t r = 0; r < n; ++r) {
        double acc = 0.0;
        for (const double v : supplies) acc += sensor.sample(v, rng_a);
        g_sink = acc;
      }
      return n * supplies.size();
    });
    const auto batch = run_bench(50 * kScale, [&](std::size_t n) {
      for (std::size_t r = 0; r < n; ++r) {
        sensor.sample_batch(supplies, out, rng_b);
        g_sink = out[0];
      }
      return n * supplies.size();
    });
    record("tdc_sample", "scalar_loop", scalar, "sample_batch", batch);
  }

  // ---- CPA accumulation: per-trace add_trace loop vs batched add_traces ----
  {
    // The campaigns' POI window: two victim cycles of the Basys3 P6 attack
    // (20 MHz AES sampled at 300 MHz), 2 * 15 = 30 POI.
    constexpr std::size_t kPoi = 30;
    constexpr std::size_t kBatch = 64;
    util::Rng rng(10);
    std::vector<crypto::Block> cts(kBatch);
    std::vector<double> rows(kBatch * kPoi);
    for (auto& ct : cts) {
      for (auto& b : ct) b = static_cast<std::uint8_t>(rng() & 0xff);
    }
    for (auto& s : rows) s = 40.0 + rng.gaussian();

    attack::CpaAttack per_trace(kPoi);
    const auto loop = run_bench(40 * kScale, [&](std::size_t n) {
      for (std::size_t r = 0; r < n; ++r) {
        for (std::size_t t = 0; t < kBatch; ++t) {
          per_trace.add_trace(cts[t], {rows.data() + t * kPoi, kPoi});
        }
      }
      g_sink = static_cast<double>(per_trace.trace_count());
      return n * kBatch;
    });
    attack::CpaAttack simd(kPoi);
    const auto simd_res = run_bench(40 * kScale, [&](std::size_t n) {
      for (std::size_t r = 0; r < n; ++r) simd.add_traces(cts, rows);
      g_sink = static_cast<double>(simd.trace_count());
      return n * kBatch;
    });
    record("cpa_add_traces", "add_trace_loop", loop, "simd_kernel", simd_res);
  }

  // ---- key rank: dense convolution vs the tier-dispatched estimator ----
  {
    // A fixed mid-attack snapshot: 1,000 synthetic traces, each one
    // POI of last-round Hamming distance plus binomial noise.
    util::Rng rng(11);
    crypto::RoundKey rk10;
    for (auto& b : rk10) b = static_cast<std::uint8_t>(rng() & 0xff);
    constexpr std::size_t kTraces = 1000;
    std::vector<crypto::Block> cts(kTraces);
    std::vector<double> rows(kTraces);
    for (std::size_t t = 0; t < kTraces; ++t) {
      for (auto& b : cts[t]) b = static_cast<std::uint8_t>(rng() & 0xff);
      int leak = 0;
      for (int b = 0; b < 16; ++b) {
        leak += attack::last_round_hd(cts[t], b,
                                      rk10[static_cast<std::size_t>(b)]);
      }
      for (int w = 0; w < 16; ++w) leak += std::popcount(rng());
      rows[t] = static_cast<double>(leak);
    }
    attack::CpaAttack cpa(1);
    cpa.add_traces(cts, rows);
    const auto scores = cpa.snapshot();
    const auto dense = run_bench(20 * kScale, [&](std::size_t n) {
      double acc = 0.0;
      for (std::size_t r = 0; r < n; ++r) acc += dense_rank_convolution(scores);
      g_sink = acc;
      return n;
    });
    const auto fast = run_bench(20 * kScale, [&](std::size_t n) {
      double acc = 0.0;
      for (std::size_t r = 0; r < n; ++r) {
        acc += attack::estimate_key_rank(scores, rk10).log2_upper;
      }
      g_sink = acc;
      return n;
    });
    record("key_rank", "dense_convolution", dense, "estimate_key_rank", fast);
  }

  // ---- CRC-32: bytewise loop vs the dispatch tier's fold, over 1 MiB ----
  double crc_mb_per_s[2] = {0.0, 0.0};
  {
    std::vector<std::uint8_t> buf(std::size_t{1} << 20);
    util::Rng rng(13);
    for (auto& b : buf) b = static_cast<std::uint8_t>(rng() & 0xff);
    const auto time_crc = [&](std::size_t reps) {
      return run_bench(reps, [&](std::size_t n) {
        std::uint32_t acc = 0;
        for (std::size_t r = 0; r < n; ++r) acc ^= util::crc32(buf);
        g_sink = acc;
        return n * buf.size();
      });
    };
    util::set_simd_tier_override(util::SimdTier::kScalar);
    const auto bytewise = time_crc(4 * kScale);
    util::set_simd_tier_override(std::nullopt);
    const auto fold = time_crc(100 * kScale);
    // ns per byte -> MB/s (1e6 bytes per second).
    crc_mb_per_s[0] = 1e3 / bytewise.ns_per_op;
    crc_mb_per_s[1] = 1e3 / fold.ns_per_op;
    record("crc32", "bytewise_loop", bytewise,
           util::to_string(util::current_simd_tier()), fold)
        .set("baseline_mb_per_s", crc_mb_per_s[0])
        .set("fast_mb_per_s", crc_mb_per_s[1]);
  }

  std::cout << "=== hot-path microbenchmarks"
            << (quick ? " (--quick)" : "") << " ===\n\n";
  table.print(std::cout);
  std::cout << "\ncrc32 over 1 MiB: bytewise " << crc_mb_per_s[0] << " MB/s, "
            << util::to_string(util::current_simd_tier()) << " tier "
            << crc_mb_per_s[1] << " MB/s\n";
  obs::fill_bench_metrics(report.metrics());
  report.write("BENCH_hotpath.json");
  obs::write_trace_out(trace_out);
  std::cout << "\nwrote BENCH_hotpath.json\n";
  return 0;
}
