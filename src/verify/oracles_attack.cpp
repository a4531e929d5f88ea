// Differential oracles for the attack pipeline:
//   - CpaAttack fed at random batch splits vs the plain per-trace reference
//     (verify/cpa_reference.h), bitwise in serialized state,
//   - the N-thread campaign vs the 1-thread campaign (bit-identical by the
//     determinism contract),
//   - a campaign killed at a generated point and resumed from its durable
//     checkpoint vs an uninterrupted straight run (bit-identical).
#include <algorithm>
#include <atomic>
#include <cstdint>
#include <filesystem>
#include <limits>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "attack/campaign.h"
#include "attack/cpa.h"
#include "core/leaky_dsp.h"
#include "crypto/aes128.h"
#include "sim/scenarios.h"
#include "sim/sensor_rig.h"
#include "util/byte_io.h"
#include "verify/cpa_reference.h"
#include "verify/oracle.h"
#include "victim/aes_core.h"

namespace leakydsp::verify {

namespace {

// ----------------------------------------- CpaAttack vs plain reference

struct CpaCase {
  std::int64_t poi = 4;
  std::int64_t traces = 50;
  std::int64_t max_batch = 16;  ///< add_traces calls take 1..max_batch traces
  std::uint64_t seed = 0;
};

std::string describe_cpa(const CpaCase& c) {
  std::ostringstream oss;
  oss << "{poi=" << c.poi << " traces=" << c.traces
      << " max_batch=" << c.max_batch << " seed=" << c.seed << "}";
  return oss.str();
}

Property<CpaCase> cpa_reference_property() {
  Property<CpaCase> prop;
  prop.name = "attack.cpa_vs_reference";
  prop.generate = [](util::Rng& rng) {
    CpaCase c;
    // Up to 70 POI: past the campaigns' 30-POI window and every vector
    // tile shape (AVX-512 runs 32-POI passes). Traces are capped so a case
    // costs at most ~4,800 trace-POI rows; that still spans several of
    // add_traces' L1 blocks (2048 / POI traces each) at any POI.
    c.poi = gen_int(rng, 1, 70);
    c.traces = gen_int(rng, 1, std::min<std::int64_t>(200, 4800 / c.poi));
    c.max_batch = gen_int(rng, 1, 600);  // past the kernel's trace block
    c.seed = rng();
    return c;
  };
  prop.shrink = [](const CpaCase& c) {
    std::vector<CpaCase> out;
    for (const std::int64_t traces : shrink_int(c.traces, 1)) {
      CpaCase s = c;
      s.traces = traces;
      out.push_back(s);
    }
    for (const std::int64_t poi : shrink_int(c.poi, 1)) {
      CpaCase s = c;
      s.poi = poi;
      out.push_back(s);
    }
    for (const std::int64_t batch : shrink_int(c.max_batch, 1)) {
      CpaCase s = c;
      s.max_batch = batch;
      out.push_back(s);
    }
    return out;
  };
  prop.describe = describe_cpa;
  prop.check = [](const CpaCase& c) -> CheckOutcome {
    const std::size_t poi = static_cast<std::size_t>(c.poi);
    const std::size_t n = static_cast<std::size_t>(c.traces);
    util::Rng rng(c.seed);
    std::vector<crypto::Block> cts(n);
    std::vector<double> rows(n * poi);
    // Correlated synthetic leakage so the sums are far from degenerate.
    for (std::size_t t = 0; t < n; ++t) {
      for (auto& b : cts[t]) b = static_cast<std::uint8_t>(rng() & 0xff);
      for (std::size_t k = 0; k < poi; ++k) {
        rows[t * poi + k] =
            static_cast<double>(cts[t][0] & 0x0f) + rng.gaussian();
      }
    }

    attack::CpaAttack cpa(poi);
    for (std::size_t lo = 0; lo < n;) {
      const std::size_t m = std::min<std::size_t>(
          1 + rng.uniform_u64(static_cast<std::uint64_t>(c.max_batch)),
          n - lo);
      cpa.add_traces({cts.data() + lo, m}, {rows.data() + lo * poi, m * poi});
      lo += m;
    }
    util::ByteWriter state;
    cpa.serialize(state);
    const std::vector<std::uint8_t> reference =
        reference_cpa_state(cts, rows, poi);
    const auto got = state.span();
    if (got.size() != reference.size()) {
      return fail("serialized state size " + std::to_string(got.size()) +
                  " vs reference " + std::to_string(reference.size()));
    }
    const auto diff = std::mismatch(got.begin(), got.end(), reference.begin());
    if (diff.first != got.end()) {
      return fail("serialized state diverges from the plain reference at "
                  "byte offset " +
                  std::to_string(diff.first - got.begin()));
    }
    return pass();
  };
  return prop;
}

// --------------------------------------------------- campaign oracles

/// Thrown by the fuse interferer to simulate a mid-campaign kill.
struct KillSignal : std::runtime_error {
  KillSignal() : std::runtime_error("simulated kill") {}
};

constexpr long long kNeverKill = std::numeric_limits<long long>::max();

struct CampaignCase {
  std::int64_t max_traces = 96;
  std::int64_t block_traces = 32;
  std::int64_t break_stride = 48;
  std::int64_t rank_stride = 96;
  std::int64_t threads = 2;
  double victim_clock_mhz = 100.0;
  double current_per_hd_bit = 0.15;
  std::uint64_t seed = 0;
};

std::string describe_campaign(const CampaignCase& c) {
  std::ostringstream oss;
  oss << "{max_traces=" << c.max_traces << " block=" << c.block_traces
      << " break_stride=" << c.break_stride << " rank_stride=" << c.rank_stride
      << " threads=" << c.threads << " victim_mhz=" << c.victim_clock_mhz
      << " i_hd=" << c.current_per_hd_bit << " seed=" << c.seed << "}";
  return oss.str();
}

CampaignCase gen_campaign_case(util::Rng& rng) {
  CampaignCase c;
  c.max_traces = gen_int(rng, 64, 160);
  c.block_traces = gen_int(rng, 8, 64);
  c.break_stride = gen_int(rng, 16, 64);
  c.rank_stride = gen_int(rng, 32, 160);
  c.threads = gen_int(rng, 2, 4);
  c.victim_clock_mhz = gen_choice<double>(rng, {20.0, 50.0, 100.0, 150.0});
  c.current_per_hd_bit = gen_real(rng, 0.01, 0.2);
  c.seed = rng();
  return c;
}

std::vector<CampaignCase> shrink_campaign_case(const CampaignCase& c) {
  std::vector<CampaignCase> out;
  for (const std::int64_t traces : shrink_int(c.max_traces, 64)) {
    CampaignCase s = c;
    s.max_traces = traces;
    out.push_back(s);
  }
  for (const std::int64_t block : shrink_int(c.block_traces, 8)) {
    CampaignCase s = c;
    s.block_traces = block;
    out.push_back(s);
  }
  if (c.threads > 2) {
    CampaignCase s = c;
    s.threads = 2;
    out.push_back(s);
  }
  return out;
}

const sim::Basys3Scenario& shared_scenario() {
  static const sim::Basys3Scenario scenario;
  return scenario;
}

/// Rebuilds the full campaign from the case seed and executes it: fresh
/// key, victim, sensor and calibration every time, so two invocations with
/// the same case are exact replicas (the determinism contract's premise).
attack::CampaignResult execute_campaign(const CampaignCase& c,
                                        std::size_t threads,
                                        const std::string& checkpoint_dir,
                                        long long fuse_samples, bool resume) {
  const auto& scenario = shared_scenario();
  util::Rng rng(c.seed);
  crypto::Key key;
  for (auto& b : key) b = static_cast<std::uint8_t>(rng() & 0xff);
  victim::AesCoreParams aes_params;
  aes_params.clock_mhz = c.victim_clock_mhz;
  aes_params.current_per_hd_bit = c.current_per_hd_bit;
  victim::AesCoreModel aes(key, scenario.aes_site(), scenario.grid(),
                           aes_params);
  core::LeakyDspSensor sensor(
      scenario.device(),
      scenario.attack_placements()[sim::Basys3Scenario::kBestPlacementIndex]);
  sim::SensorRig rig(scenario.grid(), sensor);
  rig.calibrate(rng);
  attack::CampaignConfig config;
  config.max_traces = static_cast<std::size_t>(c.max_traces);
  config.break_check_stride = static_cast<std::size_t>(c.break_stride);
  config.rank_stride = static_cast<std::size_t>(c.rank_stride);
  config.block_traces = static_cast<std::size_t>(c.block_traces);
  config.threads = threads;
  config.checkpoint_dir = checkpoint_dir;
  attack::TraceCampaign campaign(rig, aes, config);
  auto fuse = std::make_shared<std::atomic<long long>>(fuse_samples);
  campaign.add_interferer(
      [fuse](double, util::Rng&, std::vector<pdn::CurrentInjection>&) {
        if (fuse->fetch_sub(1, std::memory_order_relaxed) <= 0) {
          throw KillSignal();
        }
      });
  return resume ? campaign.resume() : campaign.run(rng);
}

CheckOutcome compare_results(const attack::CampaignResult& a,
                             const attack::CampaignResult& b,
                             const char* what) {
  const auto mismatch = [&](const std::string& field) {
    return fail(std::string(what) + ": CampaignResult field '" + field +
                "' differs");
  };
  if (a.traces_to_break != b.traces_to_break)
    return mismatch("traces_to_break");
  if (a.broken != b.broken) return mismatch("broken");
  if (a.traces_run != b.traces_run) return mismatch("traces_run");
  if (a.mean_poi_readout != b.mean_poi_readout)
    return mismatch("mean_poi_readout");
  if (a.checkpoints.size() != b.checkpoints.size())
    return mismatch("checkpoints.size");
  for (std::size_t i = 0; i < a.checkpoints.size(); ++i) {
    const auto& ca = a.checkpoints[i];
    const auto& cb = b.checkpoints[i];
    if (ca.traces != cb.traces || ca.correct_bytes != cb.correct_bytes ||
        ca.full_key != cb.full_key ||
        ca.rank.log2_lower != cb.rank.log2_lower ||
        ca.rank.log2_upper != cb.rank.log2_upper) {
      return mismatch("checkpoints[" + std::to_string(i) + "]");
    }
  }
  return pass();
}

Property<CampaignCase> campaign_threads_property() {
  Property<CampaignCase> prop;
  prop.name = "attack.campaign_parallel_vs_serial";
  prop.generate = gen_campaign_case;
  prop.shrink = shrink_campaign_case;
  prop.describe = describe_campaign;
  prop.check = [](const CampaignCase& c) -> CheckOutcome {
    const auto serial = execute_campaign(c, 1, "", kNeverKill, false);
    const auto parallel = execute_campaign(
        c, static_cast<std::size_t>(c.threads), "", kNeverKill, false);
    return compare_results(serial, parallel,
                           "N-thread vs 1-thread campaign");
  };
  return prop;
}

class TempCheckpointDir {
 public:
  explicit TempCheckpointDir(std::uint64_t tag)
      : path_((std::filesystem::temp_directory_path() /
               ("leakydsp_verify_ckpt_" + std::to_string(tag)))
                  .string()) {
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~TempCheckpointDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

Property<CampaignCase> campaign_resume_property() {
  Property<CampaignCase> prop;
  prop.name = "attack.campaign_resume_vs_straight";
  prop.generate = gen_campaign_case;
  prop.shrink = shrink_campaign_case;
  prop.describe = describe_campaign;
  prop.check = [](const CampaignCase& c) -> CheckOutcome {
    const auto straight = execute_campaign(c, 1, "", kNeverKill, false);

    // Kill partway through: the fuse burns one sample per interferer call,
    // so scale by samples per trace to land the kill at a case-dependent
    // block boundary (anywhere from the first block to near completion).
    util::Rng fuse_rng(c.seed ^ 0xF05EULL);
    const auto samples_per_trace =
        static_cast<long long>((1e3 / c.victim_clock_mhz) / (1e3 / 300.0)) *
        13;
    const long long fuse =
        samples_per_trace *
        static_cast<long long>(1 + fuse_rng.uniform_u64(
                                       static_cast<std::uint64_t>(
                                           c.max_traces)));
    const TempCheckpointDir dir(c.seed);
    bool killed = false;
    try {
      (void)execute_campaign(c, static_cast<std::size_t>(c.threads),
                             dir.path(), fuse, false);
    } catch (const KillSignal&) {
      killed = true;
    }
    if (killed && !attack::TraceCampaign::checkpoint_exists(dir.path(), "")) {
      // Killed before the first checkpoint boundary: nothing durable yet,
      // resume() must raise the typed error.
      try {
        (void)execute_campaign(c, 1, dir.path(), kNeverKill, true);
        return fail("resume() without a checkpoint did not throw "
                    "CheckpointError");
      } catch (const attack::CheckpointError&) {
        return pass();
      }
    }
    // Either the fuse outlived the campaign (checkpointed complete run) or
    // we killed it mid-run; both must resume to the straight-run result.
    const auto resumed =
        execute_campaign(c, 1, dir.path(), kNeverKill, true);
    return compare_results(straight, resumed,
                           killed ? "kill+resume vs straight run"
                                  : "resume of completed run vs straight run");
  };
  return prop;
}

}  // namespace

void register_attack_oracles(std::vector<Oracle>& out) {
  out.push_back(make_oracle(
      "CpaAttack add_traces at random batch splits vs the plain per-trace "
      "reference: bit-identical serialized state",
      1, cpa_reference_property()));
  out.push_back(make_oracle(
      "TraceCampaign at N worker threads vs 1 thread: bit-identical "
      "CampaignResult (determinism contract)",
      1, campaign_threads_property()));
  out.push_back(make_oracle(
      "TraceCampaign killed at a generated point and resumed from its "
      "checkpoint vs an uninterrupted run: bit-identical CampaignResult",
      1, campaign_resume_property()));
}

}  // namespace leakydsp::verify
