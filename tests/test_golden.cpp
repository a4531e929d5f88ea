// Golden regression corpus (tier-1): the committed golden/*.ldgc files
// must match a fresh recomputation of the corpus, the LDGC codec must
// round-trip and reject corruption, and the comparator must be exactly as
// strict as each entry's tolerance claims — a zero-tolerance CPA sum
// perturbed by a single ULP fails the check.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <filesystem>
#include <limits>
#include <string>
#include <vector>

#include "support/corruption.h"
#include "verify/golden.h"
#include "verify/golden_corpus.h"

namespace lv = leakydsp::verify;
namespace lt = leakydsp::testing;

namespace {

std::string golden_dir() { return LEAKYDSP_GOLDEN_DIR; }

std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

lv::GoldenFile small_golden() {
  lv::GoldenFile g;
  g.entries.push_back({"exact", 0.0, 0.0, {1.0, -0.0, 2.5e-308, 1e300}});
  g.entries.push_back({"loose", 1e-6, 1e-9, {3.14159, -2.71828}});
  g.entries.push_back(
      {"special", 0.0, 0.0, {std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity()}});
  return g;
}

}  // namespace

TEST(GoldenFormat, RoundTripsThroughDisk) {
  const std::string path = temp_path("ldgc_roundtrip.ldgc");
  const lv::GoldenFile original = small_golden();
  lv::save_golden(path, original);
  const lv::GoldenFile loaded = lv::load_golden(path);
  ASSERT_EQ(loaded.entries.size(), original.entries.size());
  for (std::size_t i = 0; i < original.entries.size(); ++i) {
    EXPECT_EQ(loaded.entries[i].name, original.entries[i].name);
    EXPECT_EQ(loaded.entries[i].abs_tol, original.entries[i].abs_tol);
    EXPECT_EQ(loaded.entries[i].rel_tol, original.entries[i].rel_tol);
    ASSERT_EQ(loaded.entries[i].values.size(),
              original.entries[i].values.size());
  }
  EXPECT_TRUE(lv::compare_golden(original, loaded).empty());
  EXPECT_TRUE(lv::compare_golden(loaded, original).empty());
  std::filesystem::remove(path);
}

TEST(GoldenFormat, RejectsCorruption) {
  const std::string path = temp_path("ldgc_corrupt.ldgc");
  lv::save_golden(path, small_golden());
  const auto pristine = lt::read_file(path);

  // Every single-bit flip anywhere in the file must be caught: header
  // fields fail their checks, payload bits fail the CRC.
  for (std::size_t byte = 0; byte < pristine.size(); ++byte) {
    lt::write_file(path, lt::flip_bit(pristine, byte, byte % 8));
    EXPECT_THROW(lv::load_golden(path), lv::GoldenFormatError)
        << "bit flip at byte " << byte << " loaded cleanly";
  }
  // Truncation at any prefix length must be caught too.
  for (std::size_t size = 0; size < pristine.size(); size += 7) {
    lt::write_file(path, lt::truncate_to(pristine, size));
    EXPECT_THROW(lv::load_golden(path), lv::GoldenFormatError)
        << "truncation to " << size << " bytes loaded cleanly";
  }
  EXPECT_THROW(lv::load_golden(temp_path("ldgc_missing.ldgc")),
               lv::GoldenFormatError);
  std::filesystem::remove(path);
}

TEST(GoldenFormat, FailedSaveThrowsTypedErrorAndLeavesNoTmp) {
  // Saving onto a path that is an existing directory used to escape as an
  // untyped std::filesystem::filesystem_error from the rename and leave
  // "<path>.tmp" behind. The failure is a GoldenFormatError naming the
  // path and the errno, and nothing is left next to the target.
  const std::string dir = temp_path("ldgc_occupied");
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir + "/child");
  try {
    lv::save_golden(dir, small_golden());
    ADD_FAILURE() << "save onto a directory succeeded";
  } catch (const lv::GoldenFormatError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(dir), std::string::npos) << what;
    EXPECT_NE(what.find("errno"), std::string::npos) << what;
  } catch (const std::exception& e) {
    ADD_FAILURE() << "untyped error: " << e.what();
  }
  EXPECT_FALSE(std::filesystem::exists(dir + ".tmp"));
  EXPECT_TRUE(std::filesystem::is_directory(dir + "/child"));
  std::filesystem::remove(dir + ".tmp");
  std::filesystem::remove_all(dir);
}

TEST(GoldenComparator, FlagsMissingExtraAndLengthMismatches) {
  const lv::GoldenFile expected = small_golden();
  lv::GoldenFile actual = small_golden();
  actual.entries[0].name = "renamed";
  const auto mismatches = lv::compare_golden(expected, actual);
  // 'exact' missing from actual + unexpected 'renamed'.
  EXPECT_EQ(mismatches.size(), 2u);

  lv::GoldenFile short_entry = small_golden();
  short_entry.entries[1].values.pop_back();
  EXPECT_EQ(lv::compare_golden(expected, short_entry).size(), 1u);
}

TEST(GoldenComparator, ToleranceSemantics) {
  const lv::GoldenFile expected = small_golden();

  // Within tolerance on the loose entry: passes.
  lv::GoldenFile near = small_golden();
  near.entries[1].values[0] += 0.9e-6;
  EXPECT_TRUE(lv::compare_golden(expected, near).empty());
  // Just beyond it: fails.
  near.entries[1].values[0] = expected.entries[1].values[0] + 1.1e-6;
  EXPECT_EQ(lv::compare_golden(expected, near).size(), 1u);

  // NaN matches NaN, and the zero-tolerance entries demand equality.
  lv::GoldenFile same = small_golden();
  EXPECT_TRUE(lv::compare_golden(expected, same).empty());
}

TEST(GoldenCorpus, CommittedFilesMatchRecomputation) {
  const auto corpus = lv::compute_golden_corpus();
  ASSERT_FALSE(corpus.empty());
  for (const auto& [name, actual] : corpus) {
    SCOPED_TRACE(name);
    lv::GoldenFile expected;
    ASSERT_NO_THROW(expected = lv::load_golden(golden_dir() + "/" + name))
        << "missing or corrupt golden file — regenerate with "
           "build/tools/leakydsp_verify --bless-golden";
    const auto mismatches = lv::compare_golden(expected, actual);
    for (const auto& m : mismatches) ADD_FAILURE() << m;
  }
}

TEST(GoldenCorpus, OneUlpPerturbationOfCpaSumFails) {
  // The committed CPA sums carry zero tolerance: nudging one of them by a
  // single ULP must fail the comparison. This pins the comparator's
  // strictness — a tolerance accidentally widened to "close enough" would
  // let real numerical drift through.
  const lv::GoldenFile expected =
      lv::load_golden(golden_dir() + "/cpa.ldgc");
  const lv::GoldenEntry* scores = expected.find("cpa.byte0.scores");
  ASSERT_NE(scores, nullptr);
  ASSERT_EQ(scores->abs_tol, 0.0);
  ASSERT_EQ(scores->rel_tol, 0.0);
  ASSERT_FALSE(scores->values.empty());

  lv::GoldenFile perturbed = expected;
  for (auto& e : perturbed.entries) {
    if (e.name != "cpa.byte0.scores") continue;
    double& v = e.values[7];
    v = std::nextafter(v, std::numeric_limits<double>::infinity());
  }
  const auto mismatches = lv::compare_golden(expected, perturbed);
  ASSERT_EQ(mismatches.size(), 1u);
  EXPECT_NE(mismatches[0].find("cpa.byte0.scores"), std::string::npos);
}
