#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>

#include "harness/checkpoint_world.h"
#include "harness/harness.h"
#include "sim/scenarios.h"

namespace leakydsp::fuzz {

namespace {

constexpr std::uint64_t kHarnessSeed = 212;
constexpr std::size_t kMaxTraces = 96;
constexpr std::size_t kBreakStride = 48;
constexpr std::size_t kRankStride = 96;

attack::CampaignConfig harness_config(const std::string& dir) {
  attack::CampaignConfig config;
  config.max_traces = kMaxTraces;
  config.break_check_stride = kBreakStride;
  config.rank_stride = kRankStride;
  config.threads = 1;
  config.checkpoint_dir = dir;
  return config;
}

const sim::Basys3Scenario& scenario() {
  static const sim::Basys3Scenario s;
  return s;
}

crypto::Key make_key(util::Rng& rng) {
  crypto::Key key;
  for (auto& b : key) b = static_cast<std::uint8_t>(rng() & 0xff);
  return key;
}

victim::AesCoreParams aes_params() {
  victim::AesCoreParams p;
  p.clock_mhz = 100.0;  // short traces keep the harness fast
  p.current_per_hd_bit = 0.15;
  return p;
}

}  // namespace

CheckpointWorld::CheckpointWorld(const std::string& dir)
    : rng(kHarnessSeed),
      aes(make_key(rng), scenario().aes_site(), scenario().grid(),
          aes_params()),
      sensor(scenario().device(),
             scenario()
                 .attack_placements()[sim::Basys3Scenario::kBestPlacementIndex]),
      rig(scenario().grid(), sensor),
      campaign((rig.calibrate(rng), rig), aes, harness_config(dir)) {}

int fuzz_checkpoint(const std::uint8_t* data, std::size_t size) {
  static std::atomic<std::uint64_t> counter{0};
  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("leakydsp_fuzz_ckpt_" +
        std::to_string(counter.fetch_add(1, std::memory_order_relaxed))))
          .string();
  std::filesystem::create_directories(dir);
  {
    std::ofstream os(dir + "/campaign.ckpt",
                     std::ios::binary | std::ios::trunc);
    os.write(reinterpret_cast<const char*>(data),
             static_cast<std::streamsize>(size));
  }
  try {
    CheckpointWorld world(dir);
    (void)world.campaign.resume();
  } catch (const attack::CheckpointError&) {
    // Corrupt, truncated, or config-incompatible checkpoints end here.
  }
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  return 0;
}

}  // namespace leakydsp::fuzz
