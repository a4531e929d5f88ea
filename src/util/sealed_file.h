// Sealed files: the one on-disk container for every whole-file snapshot the
// repository persists — campaign checkpoints ("LDCK") and golden files
// ("LDGC"). A sealed file frames an opaque payload (little-endian):
//
//   magic[4] | u32 version | u64 payload_size | payload | u32 crc32(payload)
//
// write_sealed commits durably and atomically: it writes "<path>.tmp"
// through a file descriptor, fsyncs it, renames it over `path`, then fsyncs
// the directory, so after a crash (of the process or of the machine) the
// path holds either the previous file or the new one, never a torn mix.
// read_sealed accepts only a file whose frame checks out, so a bit flip, a
// truncation or a foreign file can never reach a payload decoder. The
// formats on top (TraceCampaign's checkpoint codec, verify::save_golden)
// own only their payload layout and rethrow SealedFileError as their own
// typed error. Every filesystem call of both formats lives here.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "util/contracts.h"

namespace leakydsp::util {

/// A failed write_sealed/read_sealed: a system call failed (error_number()
/// holds its errno) or the file is malformed (error_number() == 0). what()
/// reads "'<path>': <reason>" plus " (errno N: <text>)" for a failed call.
class SealedFileError : public PreconditionError {
 public:
  SealedFileError(const std::string& path, const std::string& reason, int err);

  /// The file or directory the failing operation touched.
  const std::string& path() const { return path_; }
  /// What failed, e.g. "fsync failure" or "payload CRC mismatch".
  const std::string& reason() const { return reason_; }
  int error_number() const { return err_; }

 private:
  std::string path_;
  std::string reason_;
  int err_;
};

/// The magic and the one version that identify a sealed format.
struct SealedFormat {
  char magic[4];
  std::uint32_t version;
};

/// Bytes the frame adds around a payload: magic, version, size and CRC.
inline constexpr std::size_t kSealedFrameBytes = 4 + 4 + 8 + 4;

/// Frames `payload` as `format` and commits it to `path` durably (see the
/// file comment), creating the parent directory when it is missing. On any
/// failure it throws SealedFileError and leaves no "<path>.tmp" behind; the
/// previous file at `path`, if any, stays intact until the rename.
void write_sealed(const std::string& path, const SealedFormat& format,
                  std::span<const std::uint8_t> payload);

/// Reads a file written by write_sealed with the same `format` and returns
/// its payload after checking the file size, magic, version, size field
/// and CRC. The payload allocation is bounded by the real file size.
std::vector<std::uint8_t> read_sealed(const std::string& path,
                                      const SealedFormat& format);

}  // namespace leakydsp::util
