// Corruption fault-injection harness: every corrupted trace file and
// campaign checkpoint must be rejected with the typed error for its
// format (TraceFormatError / CheckpointError) — never a crash, a hang,
// an unbounded allocation, or a silently wrong answer. The v2 sweep is
// exhaustive: a single bit flip at EVERY byte offset is detected.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "attack/campaign.h"
#include "core/leaky_dsp.h"
#include "support/corruption.h"
#include "crypto/aes128.h"
#include "sim/scenarios.h"
#include "sim/sensor_rig.h"
#include "sim/trace_store.h"
#include "util/contracts.h"
#include "util/crc32.h"
#include "util/rng.h"
#include "victim/aes_core.h"

namespace la = leakydsp::attack;
namespace lc = leakydsp::crypto;
namespace lcore = leakydsp::core;
namespace lsim = leakydsp::sim;
namespace lv = leakydsp::victim;
namespace lu = leakydsp::util;
namespace ltest = leakydsp::testing;

namespace {

class TempDir {
 public:
  explicit TempDir(const std::string& name)
      : path_(std::string("/tmp/leakydsp_fault_") + name) {
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~TempDir() { std::filesystem::remove_all(path_); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

// v2 trace file: 10 traces of 5 samples in chunks of 4 (4+4+2), so the
// corpus exercises chunk headers, a short final chunk, and the footer.
std::vector<std::uint8_t> make_v2_bytes(const std::string& scratch) {
  lsim::TraceStoreWriter writer(scratch, 5, 4);
  lu::Rng rng(2024);
  for (int t = 0; t < 10; ++t) {
    lc::Block ct;
    for (auto& b : ct) b = static_cast<std::uint8_t>(rng() & 0xff);
    std::vector<double> samples(5);
    for (auto& s : samples) s = rng.gaussian();
    writer.add(ct, samples);
  }
  writer.finish();
  return ltest::read_file(scratch);
}

// Fully drains the file, so payload corruption deep in the stream is
// reached, and returns how many traces were read.
std::size_t load_all(const std::string& path) {
  lsim::TraceStoreReader reader(path);
  lsim::StoredTrace t;
  std::size_t n = 0;
  while (reader.next(t)) ++n;
  return n;
}

void expect_trace_rejected(const std::string& path,
                           const std::vector<std::uint8_t>& corrupt,
                           const std::string& label) {
  ltest::write_file(path, corrupt);
  EXPECT_THROW(load_all(path), lsim::TraceFormatError) << label;
}

}  // namespace

// ------------------------------------------------------------- v2 format

TEST(FaultInjectionV2, EveryByteIsIntegrityProtected) {
  const TempDir dir("v2_sweep");
  const std::string path = dir.path() + "/traces.ldtr";
  const auto base = make_v2_bytes(path);
  ASSERT_EQ(load_all(path), 10u);  // the uncorrupted base is valid

  // Exhaustive single-bit-flip sweep: header, chunk headers, payloads,
  // and footer are each covered by a magic check or a CRC, so a flip at
  // ANY offset must surface as a typed error.
  std::size_t variants = 0;
  for (std::size_t offset = 0; offset < base.size(); ++offset) {
    expect_trace_rejected(
        path, ltest::flip_bit(base, offset, static_cast<unsigned>(offset % 8)),
        "bit flip at offset " + std::to_string(offset));
    ++variants;
  }
  EXPECT_GE(variants, 20u);
}

TEST(FaultInjectionV2, TruncationsAndStructuralDamageRejected) {
  const TempDir dir("v2_struct");
  const std::string path = dir.path() + "/traces.ldtr";
  const auto base = make_v2_bytes(path);

  // Truncations: empty file, torn header, header-only, mid-payload, and
  // one byte short of the footer.
  for (const std::size_t size :
       {std::size_t{0}, std::size_t{5}, std::size_t{15}, std::size_t{31},
        base.size() - 200, base.size() - 1}) {
    expect_trace_rejected(path, ltest::truncate_to(base, size),
                          "truncated to " + std::to_string(size));
  }

  // Zeroed regions.
  expect_trace_rejected(path, ltest::zero_fill(base, 0, 8), "zeroed header");
  expect_trace_rejected(path, ltest::zero_fill(base, 16, 16),
                        "zeroed first chunk header");

  // Trailing garbage after the footer: the last 16 bytes are no longer a
  // footer.
  auto appended = base;
  appended.resize(appended.size() + 24, 0xAB);
  expect_trace_rejected(path, appended, "garbage after footer");

  // Bytes smuggled between the last chunk and the footer.
  auto inserted = base;
  inserted.insert(inserted.end() - 16, 16, 0x00);
  expect_trace_rejected(path, inserted, "data between chunks and footer");
}

TEST(FaultInjectionV2, AdversarialFooterCountsRejectedWithValidCrc) {
  const TempDir dir("v2_adversarial");
  const std::string path = dir.path() + "/traces.ldtr";
  const auto base = make_v2_bytes(path);

  // Recompute the footer CRC after patching the declared trace count, so
  // only the count-vs-file-size validation stands between the attacker
  // and a huge allocation (or an under-read).
  const auto patch_footer_count = [&](std::uint64_t declared) {
    auto bytes = base;
    const std::size_t footer = bytes.size() - 16;
    std::memcpy(bytes.data() + footer + 4, &declared, 8);
    const std::uint32_t crc = lu::crc32({bytes.data() + footer, 12});
    std::memcpy(bytes.data() + footer + 12, &crc, 4);
    return bytes;
  };
  expect_trace_rejected(path, patch_footer_count(0x4000000000000000ull),
                        "footer declares 2^62 traces");
  expect_trace_rejected(path, patch_footer_count(11),
                        "footer declares one trace too many");
  expect_trace_rejected(path, patch_footer_count(9),
                        "chunks exceed the declared count");
}

TEST(FaultInjectionV2, UnfinishedWriterLeavesRejectableFile) {
  const TempDir dir("v2_unfinished");
  const std::string header_only = dir.path() + "/header_only.ldtr";
  {
    lsim::TraceStoreWriter writer(header_only, 5, 4);
    // Killed before any chunk flushed.
  }
  EXPECT_THROW(load_all(header_only), lsim::TraceFormatError);

  const std::string mid_capture = dir.path() + "/mid_capture.ldtr";
  {
    lsim::TraceStoreWriter writer(mid_capture, 5, 4);
    const std::vector<double> samples(5, 1.0);
    for (int t = 0; t < 6; ++t) writer.add(lc::Block{}, samples);
    // Killed with one chunk on disk and one buffered: no footer.
  }
  EXPECT_THROW(load_all(mid_capture), lsim::TraceFormatError);
}

TEST(FaultInjection, TypedErrorsRemainPreconditionErrors) {
  // Generic catch sites predate the typed errors; both types must keep
  // flowing through them.
  const TempDir dir("typed");
  const std::string path = dir.path() + "/traces.ldtr";
  ltest::write_file(path, {'N', 'O', 'P', 'E'});
  EXPECT_THROW(load_all(path), lu::PreconditionError);
  EXPECT_THROW(load_all(path), lsim::TraceFormatError);
}

// ----------------------------------------------------------- checkpoints

namespace {

// Builds the standard small campaign (boosted leakage, 250 traces) used
// by the checkpoint corpus. The rig/aes/sensor must outlive the campaign.
struct CampaignHarness {
  explicit CampaignHarness(const std::string& checkpoint_dir,
                           std::size_t max_traces = 250)
      : rng(212), rig(scenario.grid(), sensor()) {
    la::CampaignConfig config;
    config.max_traces = max_traces;
    config.break_check_stride = 250;
    config.rank_stride = 250;
    config.threads = 1;
    config.checkpoint_dir = checkpoint_dir;
    rig.calibrate(rng);
    campaign.emplace(rig, *aes_model, config);
  }

  lcore::LeakyDspSensor& sensor() {
    lc::Key key;
    for (auto& b : key) b = static_cast<std::uint8_t>(rng() & 0xff);
    lv::AesCoreParams params;
    params.current_per_hd_bit = 0.15;
    aes_model.emplace(key, scenario.aes_site(), scenario.grid(), params);
    sensor_model.emplace(
        scenario.device(),
        scenario.attack_placements()[lsim::Basys3Scenario::kBestPlacementIndex]);
    return *sensor_model;
  }

  lsim::Basys3Scenario scenario;
  lu::Rng rng;
  std::optional<lv::AesCoreModel> aes_model;
  std::optional<lcore::LeakyDspSensor> sensor_model;
  lsim::SensorRig rig;
  std::optional<la::TraceCampaign> campaign;
};

}  // namespace

TEST(FaultInjectionCheckpoint, CorruptCheckpointsRejectedTyped) {
  const TempDir dir("ckpt");
  CampaignHarness harness(dir.path());
  (void)harness.campaign->run(harness.rng);
  ASSERT_TRUE(la::TraceCampaign::checkpoint_exists(dir.path(), ""));
  const std::string path = dir.path() + "/campaign.ckpt";
  const auto base = ltest::read_file(path);
  ASSERT_GE(base.size(), 20u);

  // The uncorrupted checkpoint resumes (completed campaign: returns the
  // stored result without re-running).
  const auto stored = harness.campaign->resume();
  EXPECT_EQ(stored.traces_run, 250u);

  const auto expect_rejected = [&](const std::vector<std::uint8_t>& corrupt,
                                   const std::string& label) {
    ltest::write_file(path, corrupt);
    EXPECT_THROW(harness.campaign->resume(), la::CheckpointError) << label;
  };

  // Bit flips across the whole file: magic, version, size field, config,
  // RNG words, checkpoint list, the megabyte of CPA sums, and the CRC
  // itself. ~32 offsets spread evenly.
  std::size_t variants = 0;
  std::size_t last_offset = base.size();  // dedupe sentinel
  for (std::size_t i = 0; i < 32; ++i) {
    const std::size_t offset = i * (base.size() - 1) / 31;
    if (offset == last_offset) continue;
    last_offset = offset;
    expect_rejected(
        ltest::flip_bit(base, offset, static_cast<unsigned>(i % 8)),
        "bit flip at offset " + std::to_string(offset));
    ++variants;
  }

  for (const std::size_t size :
       {std::size_t{0}, std::size_t{10}, std::size_t{19}, std::size_t{20},
        base.size() / 2, base.size() - 1}) {
    expect_rejected(ltest::truncate_to(base, size),
                    "truncated to " + std::to_string(size));
    ++variants;
  }

  expect_rejected(ltest::zero_fill(base, 0, 4), "zeroed magic");
  expect_rejected(ltest::zero_fill(base, 16, 64), "zeroed payload head");
  variants += 2;

  // Adversarial checkpoint-list length with a VALID payload CRC: the
  // declared count must be bounded by the payload size before reserve().
  {
    auto bytes = base;
    std::uint64_t payload_size = 0;
    std::memcpy(&payload_size, bytes.data() + 8, 8);
    ASSERT_EQ(payload_size, bytes.size() - 20);
    const std::size_t n_checkpoints_at = 16 + 158;  // see campaign.cpp codec
    const std::uint64_t huge = 0xFFFFFFFFFFFFFFFFull;
    std::memcpy(bytes.data() + n_checkpoints_at, &huge, 8);
    const std::uint32_t crc = lu::crc32({bytes.data() + 16, payload_size});
    std::memcpy(bytes.data() + 16 + payload_size, &crc, 4);
    expect_rejected(bytes, "2^64 checkpoints with fixed CRC");
    ++variants;
  }
  EXPECT_GE(variants, 20u);

  // Restore and confirm the harness still resumes — no state was wedged
  // by the corrupt loads.
  ltest::write_file(path, base);
  EXPECT_EQ(harness.campaign->resume().traces_run, 250u);
}

TEST(FaultInjectionCheckpoint, TornRenameRecovery) {
  // Checkpoints commit via write-to-tmp + fsync + rename. A crash between
  // those steps leaves either (a) a committed checkpoint plus an orphaned
  // tmp, or (b) only the torn tmp. Neither state may wedge or mislead.
  const TempDir dir("ckpt_torn");
  CampaignHarness harness(dir.path());
  (void)harness.campaign->run(harness.rng);
  const std::string path = dir.path() + "/campaign.ckpt";
  const std::string tmp = path + ".tmp";
  const auto base = ltest::read_file(path);

  // (a) Crash after the previous boundary committed: the half-written tmp
  // must never shadow the committed checkpoint.
  ltest::write_file(tmp, ltest::truncate_to(base, base.size() / 2));
  ASSERT_TRUE(la::TraceCampaign::checkpoint_exists(dir.path(), ""));
  EXPECT_EQ(harness.campaign->resume().traces_run, 250u);

  // (b) Crash before the first boundary ever committed: only the torn tmp
  // exists. That is crash garbage by definition — checkpoint_exists
  // answers "no checkpoint" and removes it, so a later successful commit
  // cannot be confused with the torn leftovers.
  std::filesystem::remove(path);
  ASSERT_TRUE(std::filesystem::exists(tmp));
  EXPECT_FALSE(la::TraceCampaign::checkpoint_exists(dir.path(), ""));
  EXPECT_FALSE(std::filesystem::exists(tmp))
      << "stray uncommitted tmp survived checkpoint_exists";
  EXPECT_THROW(harness.campaign->resume(), la::CheckpointError);

  // Recovery: the next run recreates a committed checkpoint cleanly.
  CampaignHarness fresh(dir.path());
  const auto rerun = fresh.campaign->run(fresh.rng);
  EXPECT_TRUE(la::TraceCampaign::checkpoint_exists(dir.path(), ""));
  EXPECT_EQ(fresh.campaign->resume().traces_run, rerun.traces_run);
}

TEST(FaultInjectionCheckpoint, MismatchedConfigAndMissingFilesRejected) {
  const TempDir dir("ckpt_mismatch");
  {
    CampaignHarness harness(dir.path());
    // resume() before any checkpoint exists.
    EXPECT_FALSE(la::TraceCampaign::checkpoint_exists(dir.path(), ""));
    EXPECT_THROW(harness.campaign->resume(), la::CheckpointError);
    (void)harness.campaign->run(harness.rng);
  }
  {
    // Same scenario, different max_traces: the checkpoint must refuse to
    // resume into a differently configured campaign.
    CampaignHarness other(dir.path(), /*max_traces=*/500);
    EXPECT_THROW(other.campaign->resume(), la::CheckpointError);
  }
  {
    // resume() without a checkpoint directory configured at all.
    CampaignHarness bare("");
    EXPECT_THROW(bare.campaign->resume(), lu::PreconditionError);
  }
}
