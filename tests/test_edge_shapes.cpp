// Degenerate-shape edge cases for the persistence and campaign layers:
// boundary inputs that are VALID (and must work) or subtly inconsistent
// (and must raise the typed error), as opposed to the corruption sweeps
// in test_fault_injection.cpp.
//
//   trace store: a zero-trace v2 file round-trips; a v2 file whose footer
//   honestly declares zero traces (valid footer CRC) while chunks are
//   present is rejected.
//
//   campaign: max_traces = 1 runs (one trace, no break checks); a trace
//   count that is not a multiple of the 64-trace block still checkpoints
//   and resumes byte-identically; resume() with no checkpoint on disk
//   raises CheckpointError.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "attack/campaign.h"
#include "core/leaky_dsp.h"
#include "crypto/aes128.h"
#include "sim/scenarios.h"
#include "sim/sensor_rig.h"
#include "sim/trace_store.h"
#include "support/corruption.h"
#include "util/byte_io.h"
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
      : path_(std::string("/tmp/leakydsp_edge_") + name) {
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~TempDir() { std::filesystem::remove_all(path_); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

}  // namespace

// ----------------------------------------------------- trace-store edges

TEST(TraceStoreEdges, ZeroTraceV2FileRoundTrips) {
  const TempDir dir("v2_zero");
  const std::string path = dir.path() + "/empty.ldtr";
  {
    lsim::TraceStoreWriter writer(path, 7, 4);
    writer.finish();  // no traces added: header + footer only
  }
  lsim::TraceStoreReader reader(path);
  EXPECT_EQ(reader.trace_count(), 0u);
  EXPECT_EQ(reader.samples_per_trace(), 7u);
  lsim::StoredTrace trace;
  EXPECT_FALSE(reader.next(trace));
  // next() past the end stays false rather than erroring or looping.
  EXPECT_FALSE(reader.next(trace));
}

TEST(TraceStoreEdges, HonestZeroCountFooterWithChunksRejected) {
  const TempDir dir("v2_zero_footer");
  const std::string path = dir.path() + "/traces.ldtr";
  {
    lsim::TraceStoreWriter writer(path, 2, 4);
    lu::Rng rng(99);
    for (int t = 0; t < 3; ++t) {
      lc::Block ct{};
      std::vector<double> samples{rng.gaussian(), rng.gaussian()};
      writer.add(ct, samples);
    }
    writer.finish();
  }
  // Rewrite the footer to declare zero traces WITH a correct footer CRC:
  // a consistency attack rather than bit rot — only the cross-check of
  // footer count against actual chunk content can catch it.
  std::vector<std::uint8_t> bytes = ltest::read_file(path);
  const std::size_t footer_at = bytes.size() - 16;  // "LDEN" + u64 + crc
  ASSERT_EQ(bytes[footer_at], 'L');
  ASSERT_EQ(bytes[footer_at + 1], 'D');
  lu::ByteWriter footer;
  const char magic[4] = {'L', 'D', 'E', 'N'};
  footer.bytes({reinterpret_cast<const std::uint8_t*>(magic), 4});
  footer.u64(0);
  footer.u32(lu::crc32(footer.span()));
  std::copy(footer.span().begin(), footer.span().end(),
            bytes.begin() + static_cast<std::ptrdiff_t>(footer_at));
  ltest::write_file(path, bytes);
  EXPECT_THROW(
      {
        lsim::TraceStoreReader reader(path);
        lsim::StoredTrace t;
        while (reader.next(t)) {
        }
      },
      lsim::TraceFormatError);
}

// ------------------------------------------------ campaign degenerate shapes

namespace {

/// The checkpoint-suite campaign in miniature, parameterized on the trace
/// budget so the degenerate shapes below stay cheap.
class EdgeCampaign {
 public:
  la::CampaignResult execute(std::size_t max_traces, std::size_t threads,
                             const std::string& dir, bool resume) {
    lu::Rng rng(212);
    lc::Key key;
    for (auto& b : key) b = static_cast<std::uint8_t>(rng() & 0xff);
    lv::AesCoreParams aes_params;
    aes_params.clock_mhz = 100.0;
    aes_params.current_per_hd_bit = 0.15;
    lv::AesCoreModel aes(key, scenario_.aes_site(), scenario_.grid(),
                         aes_params);
    lcore::LeakyDspSensor sensor(
        scenario_.device(),
        scenario_
            .attack_placements()[lsim::Basys3Scenario::kBestPlacementIndex]);
    lsim::SensorRig rig(scenario_.grid(), sensor);
    rig.calibrate(rng);
    la::CampaignConfig config;
    config.max_traces = max_traces;
    config.break_check_stride = 25;
    config.rank_stride = 50;
    config.threads = threads;
    config.checkpoint_dir = dir;
    la::TraceCampaign campaign(rig, aes, config);
    return resume ? campaign.resume() : campaign.run(rng);
  }

 private:
  lsim::Basys3Scenario scenario_;
};

}  // namespace

TEST(CampaignEdges, SingleTraceCampaignRuns) {
  EdgeCampaign harness;
  const auto result = harness.execute(1, 1, "", false);
  EXPECT_EQ(result.traces_run, 1u);
  EXPECT_FALSE(result.broken);  // one trace can never break the key
  EXPECT_EQ(result.traces_to_break, 0u);
  EXPECT_TRUE(result.checkpoints.empty());
  // Parallel config on a single trace degenerates cleanly too, and the
  // determinism contract holds even here.
  const auto parallel = harness.execute(1, 4, "", false);
  EXPECT_TRUE(result == parallel);
}

TEST(CampaignEdges, NonBlockMultipleTraceCountCheckpointsAndResumes) {
  // 130 = 2 full 64-trace blocks + a 2-trace remainder: the block
  // schedule's ragged tail. The straight run, the parallel run, and a
  // resume-from-completed-checkpoint must all agree bit for bit.
  EdgeCampaign harness;
  const auto straight = harness.execute(130, 1, "", false);
  EXPECT_EQ(straight.traces_run, 130u);

  const auto parallel = harness.execute(130, 3, "", false);
  EXPECT_TRUE(straight == parallel);

  const TempDir dir("ragged");
  const auto checkpointed = harness.execute(130, 2, dir.path(), false);
  EXPECT_TRUE(straight == checkpointed);
  ASSERT_TRUE(la::TraceCampaign::checkpoint_exists(dir.path(), ""));
  const auto resumed = harness.execute(130, 1, dir.path(), true);
  EXPECT_TRUE(straight == resumed);
}

TEST(CampaignEdges, ResumeWithoutCheckpointThrowsTypedError) {
  EdgeCampaign harness;
  const TempDir dir("no_ckpt");
  ASSERT_FALSE(la::TraceCampaign::checkpoint_exists(dir.path(), ""));
  EXPECT_THROW(harness.execute(50, 1, dir.path(), true),
               la::CheckpointError);
  // The directory not existing at all is the same typed error, not an
  // uncaught filesystem exception.
  EXPECT_THROW(
      harness.execute(50, 1, dir.path() + "/never_created", true),
      la::CheckpointError);
}
