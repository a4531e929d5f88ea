// Replays the committed fuzz seed corpus through the real fuzz harness
// entry points in normal CI — including the ASan/UBSan legs, so every
// corpus input runs under sanitizers on every push even though libFuzzer
// itself only runs in dedicated fuzzing sessions. Also pins corpus
// quality: the "valid_" seeds must take the parsers' happy paths (a
// corpus of only-rejected inputs would fuzz nothing but the first error
// check).
#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "attack/campaign.h"
#include "fabric/device_spec.h"
#include "harness/checkpoint_world.h"
#include "harness/harness.h"
#include "sim/trace_store.h"
#include "support/corruption.h"

namespace lt = leakydsp::testing;

namespace {

std::string corpus_dir(const std::string& surface) {
  return std::string(LEAKYDSP_SOURCE_DIR) + "/fuzz/corpus/" + surface;
}

std::vector<std::string> corpus_files(const std::string& surface) {
  std::vector<std::string> files;
  for (const auto& entry :
       std::filesystem::directory_iterator(corpus_dir(surface))) {
    if (entry.is_regular_file()) files.push_back(entry.path().string());
  }
  std::sort(files.begin(), files.end());
  return files;
}

using HarnessFn = int (*)(const std::uint8_t*, std::size_t);

void replay(const std::string& surface, HarnessFn fn) {
  const auto files = corpus_files(surface);
  ASSERT_FALSE(files.empty()) << "no committed corpus under "
                              << corpus_dir(surface);
  for (const auto& path : files) {
    SCOPED_TRACE(path);
    const auto bytes = lt::read_file(path);
    EXPECT_EQ(fn(bytes.data(), bytes.size()), 0);
  }
}

}  // namespace

TEST(FuzzCorpus, TraceStoreReplaysClean) {
  replay("trace_store", leakydsp::fuzz::fuzz_trace_store);
}

TEST(FuzzCorpus, CheckpointReplaysClean) {
  replay("checkpoint", leakydsp::fuzz::fuzz_checkpoint);
}

TEST(FuzzCorpus, CliReplaysClean) {
  replay("cli", leakydsp::fuzz::fuzz_cli);
}

TEST(FuzzCorpus, DeviceSpecReplaysClean) {
  replay("device_spec", leakydsp::fuzz::fuzz_device_spec);
}

TEST(FuzzCorpus, ValidDeviceSpecSeedsParse) {
  // The valid_ seeds must parse into specs and expand into devices — the
  // corpus has to reach past the JSON and validation layers into the
  // generator itself.
  std::size_t valid = 0;
  for (const auto& path : corpus_files("device_spec")) {
    if (path.find("valid_") == std::string::npos) continue;
    SCOPED_TRACE(path);
    const auto bytes = lt::read_file(path);
    const std::string text(bytes.begin(), bytes.end());
    const auto spec = leakydsp::fabric::parse_device_spec(text);
    const auto device = leakydsp::fabric::generate_device(spec);
    EXPECT_EQ(device.width(), spec.width);
    EXPECT_EQ(device.height(), spec.height);
    // And the emitter must round-trip what the parser accepted.
    EXPECT_TRUE(leakydsp::fabric::parse_device_spec(
                    leakydsp::fabric::spec_to_json(spec)) == spec);
    ++valid;
  }
  EXPECT_GE(valid, 3u);
}

TEST(FuzzCorpus, ValidTraceStoreSeedsParse) {
  // The valid_ seeds must load as well-formed files, proving the corpus
  // reaches past the header checks into chunk decoding.
  for (const auto& path : corpus_files("trace_store")) {
    if (path.find("valid_") == std::string::npos) continue;
    SCOPED_TRACE(path);
    leakydsp::sim::TraceStoreReader reader(path);
    leakydsp::sim::StoredTrace trace;
    std::size_t n = 0;
    while (reader.next(trace)) ++n;
    EXPECT_EQ(n, reader.trace_count());
  }
}

TEST(FuzzCorpus, ValidCheckpointSeedResumes) {
  // Rebuild exactly the campaign the fuzz harness uses (and that wrote
  // the committed seeds); the mid-run seed must resume to completion.
  const std::string dir = (std::filesystem::temp_directory_path() /
                           "leakydsp_fuzz_seed_check")
                              .string();
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  std::filesystem::copy_file(corpus_dir("checkpoint") + "/valid_midrun.ckpt",
                             dir + "/campaign.ckpt");
  leakydsp::fuzz::CheckpointWorld world(dir);
  leakydsp::attack::CampaignResult result;
  ASSERT_NO_THROW(result = world.campaign.resume());
  EXPECT_EQ(result.traces_run, 96u);
  std::filesystem::remove_all(dir);
}
