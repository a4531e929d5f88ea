#include <algorithm>
#include <cmath>
#include <iostream>
#include <optional>

#include "attack/cpa.h"
#include "bench.h"
#include "pdn/solver.h"
#include "sim/trace_store.h"

namespace leakydsp::bench {

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  // A metric that is not a finite number cannot be compared across runs.
  if (!std::isfinite(value)) {
    check(false, "metric " + name + " is not finite");
    value = 0.0;
  }
  metrics.push_back({name, value, unit});
}

void Report::info(const std::string& name, const std::string& value) {
  infos.emplace_back(name, value);
}

bool Report::check(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) {
    ++failed;
    std::cerr << "CHECK FAILED: " << what << "\n";
  }
  return ok;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

Measured measure(const Options& opts, std::size_t setup_reps,
                 const std::function<void()>& setup,
                 const std::function<void()>& unit) {
  Measured out;
  std::vector<double> setups;
  const auto time_setup = [&] {
    pdn::SolverContext::clear_cache();
    const auto start = Clock::now();
    setup();
    setups.push_back(seconds_since(start));
  };
  for (std::size_t i = 0; i < (opts.smoke ? 1 : setup_reps); ++i) time_setup();
  const auto window = Clock::now();
  for (;;) {
    const auto start = Clock::now();
    unit();
    out.unit_s.push_back(seconds_since(start));
    if (opts.smoke ||
        seconds_since(window) + out.unit_s.back() > opts.seconds) {
      break;
    }
    time_setup();
  }
  out.setup_s = median(setups);
  return out;
}

bool same_result(const attack::CampaignResult& a,
                 const attack::CampaignResult& b) {
  if (a.traces_to_break != b.traces_to_break || a.broken != b.broken ||
      a.traces_run != b.traces_run ||
      a.mean_poi_readout != b.mean_poi_readout ||
      a.checkpoints.size() != b.checkpoints.size() ||
      a.final_scores != b.final_scores) {
    return false;
  }
  for (std::size_t i = 0; i < a.checkpoints.size(); ++i) {
    const auto& ca = a.checkpoints[i];
    const auto& cb = b.checkpoints[i];
    if (ca.traces != cb.traces || ca.correct_bytes != cb.correct_bytes ||
        ca.full_key != cb.full_key ||
        ca.rank.log2_lower != cb.rank.log2_lower ||
        ca.rank.log2_upper != cb.rank.log2_upper) {
      return false;
    }
  }
  return true;
}

bool same_results(const std::vector<attack::CampaignResult>& a,
                  const std::vector<attack::CampaignResult>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!same_result(a[i], b[i])) return false;
  }
  return true;
}

OfflineAttack offline_attack(const std::string& path, std::size_t poi_begin,
                             std::size_t poi_count,
                             const crypto::RoundKey& true_rk10,
                             Tracer* tracer) {
  constexpr std::size_t kBatch = 64;
  OfflineAttack out;
  try {
    std::optional<sim::TraceStoreReader> reader;
    {
      Tracer::Span span(tracer, "sim.trace_store.read");
      reader.emplace(path);
    }
    if (reader->samples_per_trace() < poi_begin + poi_count) {
      out.error = "POI window outside the stored traces";
      return out;
    }
    attack::CpaAttack cpa(poi_count);
    std::vector<crypto::Block> cts;
    std::vector<double> rows;
    const auto flush = [&] {
      if (cts.empty()) return;
      Tracer::Span span(tracer, "attack.cpa.add_traces");
      cpa.add_traces(cts, rows);
      cts.clear();
      rows.clear();
    };
    sim::StoredTrace trace;
    for (;;) {
      {
        Tracer::Span span(tracer, "sim.trace_store.read");
        if (!reader->next(trace)) break;
      }
      cts.push_back(trace.ciphertext);
      rows.insert(rows.end(), trace.samples.begin() + poi_begin,
                  trace.samples.begin() + poi_begin + poi_count);
      if (cts.size() == kBatch) flush();
      ++out.traces;
    }
    flush();
    {
      Tracer::Span span(tracer, "attack.key_rank");
      out.rank = attack::estimate_key_rank(cpa.snapshot(), true_rk10);
    }
    Tracer::Span span(tracer, "attack.break_check");
    out.key = cpa.recovered_master_key();
  } catch (const sim::TraceFormatError& e) {
    out.error = e.what();
  }
  return out;
}

attack::CampaignConfig basys3_config(const Options& opts, std::size_t traces,
                                     std::size_t threads) {
  attack::CampaignConfig config;
  config.max_traces = traces;
  config.break_check_stride = opts.smoke ? 10 : 1000;
  config.rank_stride = opts.smoke ? 50 : 5000;
  config.threads = threads;
  return config;
}

Basys3World::Basys3World(const Options& opts,
                         const attack::CampaignConfig& config)
    : rng(opts.seed) {
  for (auto& b : key) b = static_cast<std::uint8_t>(rng() & 0xff);
  victim::AesCoreParams params;  // 20 MHz, the paper's default victim
  if (opts.smoke) params.current_per_hd_bit *= 20.0;
  aes = std::make_unique<victim::AesCoreModel>(key, scenario.aes_site(),
                                               scenario.grid(), params);
  sensor = std::make_unique<core::LeakyDspSensor>(
      scenario.device(),
      scenario.attack_placements()[sim::Basys3Scenario::kBestPlacementIndex]);
  rig = std::make_unique<sim::SensorRig>(scenario.grid(), *sensor);
  rig->calibrate(rng);
  campaign = std::make_unique<attack::TraceCampaign>(*rig, *aes, config);
}

}  // namespace leakydsp::bench
