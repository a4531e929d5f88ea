// The sealed-file container shared by campaign checkpoints and golden
// files: its frame rejects other formats and trailing bytes, and the
// committed goldens and checkpoint seed keep their exact bytes when
// decoded and written back through their codecs.
#include <gtest/gtest.h>

#include <cerrno>
#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "attack/campaign.h"
#include "harness/checkpoint_world.h"
#include "support/corruption.h"
#include "util/sealed_file.h"
#include "verify/golden.h"

namespace fs = std::filesystem;
namespace lt = leakydsp::testing;
namespace lu = leakydsp::util;
namespace lv = leakydsp::verify;

namespace {

class TempDir {
 public:
  explicit TempDir(const std::string& name)
      : path_((fs::temp_directory_path() / ("leakydsp_sealed_" + name))
                  .string()) {
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~TempDir() { fs::remove_all(path_); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

constexpr lu::SealedFormat kTestFormat{{'T', 'E', 'S', 'T'}, 3};

std::vector<std::uint8_t> sample_payload() {
  std::vector<std::uint8_t> payload(100);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::uint8_t>(i * 7 + 1);
  }
  return payload;
}

}  // namespace

TEST(SealedFile, RejectsOtherFormatsTrailingBytesAndMissingFiles) {
  // Bit flips and truncations are swept through both formats by
  // test_golden and test_fault_injection; these are the frame's other
  // rejections.
  const TempDir dir("frame");
  const std::string path = dir.path() + "/file.bin";
  const auto payload = sample_payload();
  lu::write_sealed(path, kTestFormat, payload);
  EXPECT_FALSE(fs::exists(path + ".tmp"));
  EXPECT_EQ(lt::read_file(path).size(),
            payload.size() + lu::kSealedFrameBytes);
  EXPECT_EQ(lu::read_sealed(path, kTestFormat), payload);

  // Magic and version pick the format: a sealed file of another format
  // is rejected, not decoded.
  EXPECT_THROW(lu::read_sealed(path, {{'T', 'E', 'S', 'X'}, 3}),
               lu::SealedFileError);
  EXPECT_THROW(lu::read_sealed(path, {{'T', 'E', 'S', 'T'}, 4}),
               lu::SealedFileError);

  auto extended = lt::read_file(path);
  extended.push_back(0);
  lt::write_file(path, extended);
  EXPECT_THROW(lu::read_sealed(path, kTestFormat), lu::SealedFileError);

  try {
    (void)lu::read_sealed(dir.path() + "/missing.bin", kTestFormat);
    FAIL() << "missing file was read";
  } catch (const lu::SealedFileError& e) {
    EXPECT_EQ(e.error_number(), ENOENT);
    EXPECT_EQ(e.reason(), "cannot open");
  }
}

TEST(SealedFile, CommittedGoldensAndCheckpointSeedKeepTheirBytes) {
  const TempDir dir("committed");

  // Every committed golden, decoded and saved again, is the same file.
  std::size_t goldens = 0;
  for (const auto& entry : fs::directory_iterator(LEAKYDSP_GOLDEN_DIR)) {
    if (entry.path().extension() != ".ldgc") continue;
    SCOPED_TRACE(entry.path().string());
    const std::string copy =
        dir.path() + "/" + entry.path().filename().string();
    lv::save_golden(copy, lv::load_golden(entry.path().string()));
    EXPECT_EQ(lt::read_file(copy), lt::read_file(entry.path().string()));
    ++goldens;
  }
  EXPECT_GE(goldens, 4u);

  // The mid-run checkpoint seed, rehydrated into the fuzz harness's
  // campaign (the one that wrote it) and suspended again, is the same
  // file.
  const std::string seed = std::string(LEAKYDSP_SOURCE_DIR) +
                           "/fuzz/corpus/checkpoint/valid_midrun.ckpt";
  const std::string ckpt = dir.path() + "/campaign.ckpt";
  fs::copy_file(seed, ckpt);
  leakydsp::fuzz::CheckpointWorld world(dir.path());
  const auto task = world.campaign.load_task();
  fs::remove(ckpt);
  world.campaign.suspend(task);
  EXPECT_EQ(lt::read_file(ckpt), lt::read_file(seed));
}
