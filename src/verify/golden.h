// Golden regression files (LDGC format): named vectors of doubles with
// per-entry tolerances, CRC-protected on disk. The committed corpus under
// golden/ pins the exact numerical outputs of a small fixed-seed campaign
// (CPA sums, key ranks, sensor traces); the tier-1 golden test and the
// leakydsp_verify runner recompute the corpus and compare against these
// files, so any unintended numerical drift in the pipeline fails loudly
// with the first diverging value.
//
// Layout: a sealed file (util/sealed_file.h) with magic "LDGC", version 1,
// whose payload is (little-endian) u32 entry_count, then per entry:
//     u32 name_len | name bytes | f64 abs_tol | f64 rel_tol |
//     u64 value_count | f64 values...
#pragma once

#include <string>
#include <vector>

#include "util/contracts.h"

namespace leakydsp::verify {

/// Thrown when a golden file is missing, truncated, or corrupt (bad magic,
/// version, CRC, or length fields), or cannot be written (the message
/// names the failing path and errno). Derives from util::PreconditionError
/// so generic catch sites keep working.
class GoldenFormatError : public util::PreconditionError {
 public:
  using util::PreconditionError::PreconditionError;
};

/// One named vector with its comparison tolerances. A value `a` matches
/// its expectation `e` when |a - e| <= abs_tol + rel_tol * |e| (NaN
/// matches NaN); abs_tol = rel_tol = 0 demands bit-equality up to the
/// sign of zero.
struct GoldenEntry {
  std::string name;
  double abs_tol = 0.0;
  double rel_tol = 0.0;
  std::vector<double> values;
};

/// An ordered set of entries — the in-memory form of one .ldgc file.
struct GoldenFile {
  std::vector<GoldenEntry> entries;

  const GoldenEntry* find(const std::string& name) const;
};

/// Writes `golden` to `path` durably and atomically (util::write_sealed);
/// throws GoldenFormatError on failure, leaving no "<path>.tmp" behind.
void save_golden(const std::string& path, const GoldenFile& golden);

/// Loads a golden file; throws GoldenFormatError on any corruption.
GoldenFile load_golden(const std::string& path);

/// Compares `actual` against `expected` under the expected entries'
/// tolerances. Returns one message per divergence (missing/extra entries,
/// length mismatches, first out-of-tolerance value per entry); empty
/// means the corpus matches.
std::vector<std::string> compare_golden(const GoldenFile& expected,
                                        const GoldenFile& actual);

}  // namespace leakydsp::verify
