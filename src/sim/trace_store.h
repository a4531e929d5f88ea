// Binary trace persistence. The paper's workflow records traces on the
// board over UART and analyzes them offline on a GPU box; this store is
// the equivalent split in the simulation: a campaign writes (ciphertext,
// samples) records to disk, and an offline CPA pass replays them.
//
// On-disk format v2 (little-endian):
//
//   file header   "LDTR" | u32 version=2 | u32 samples_per_trace
//                 | u32 crc32(preceding 12 bytes)
//   chunk*        "CHNK" | u32 trace_count | u32 crc32(payload)
//                 | u32 crc32(preceding 12 bytes)
//                 payload: trace_count x (16 ciphertext bytes
//                          + samples_per_trace f64 samples)
//   footer        "LDEN" | u64 total_traces | u32 crc32(preceding 12 bytes)
//
// Every header and payload is CRC-protected, so bit flips, zero fills and
// truncations are rejected with TraceFormatError instead of being decoded
// into garbage traces; a crash mid-write leaves a file without a footer,
// which readers likewise reject as truncated. Chunking bounds reader and
// writer memory to one chunk regardless of campaign size. v2 is the only
// format: the reader rejects any other version, the unchecksummed v1
// included.
#pragma once

#include <cstdint>
#include <fstream>
#include <span>
#include <string>
#include <vector>

#include "crypto/aes128.h"
#include "util/contracts.h"

namespace leakydsp::sim {

/// Thrown when a trace file is malformed: wrong magic/version, header
/// fields inconsistent with the file size, CRC mismatch, or truncation.
/// Derives from util::PreconditionError so existing catch sites keep
/// working while fault-injection tests can assert the precise type.
class TraceFormatError : public util::PreconditionError {
 public:
  using util::PreconditionError::PreconditionError;
};

/// One recorded trace.
struct StoredTrace {
  crypto::Block ciphertext{};
  std::vector<double> samples;
};

/// Streaming v2 writer with bounded memory: traces accumulate into an
/// in-memory chunk of `chunk_traces` records, each flushed with its CRCs
/// as it fills. finish() seals the file with the footer; a writer that
/// dies before finish() (process crash, exception) leaves a file every
/// reader rejects as truncated — never one that silently parses short.
class TraceStoreWriter {
 public:
  TraceStoreWriter(const std::string& path, std::size_t samples_per_trace,
                   std::size_t chunk_traces = 256);

  /// Closes the stream. If finish() was never called the file has no
  /// footer and is rejected by readers — the crash-consistent outcome.
  ~TraceStoreWriter() = default;

  std::size_t samples_per_trace() const { return samples_per_trace_; }
  /// Traces added so far.
  std::size_t size() const { return total_; }

  /// Appends one trace; the sample count must match. Invalid after
  /// finish().
  void add(const crypto::Block& ciphertext, std::span<const double> samples);

  /// Flushes the pending chunk and writes the footer; the file is only
  /// complete (and loadable) after this returns. Throws
  /// util::InvariantError on I/O failure.
  void finish();

 private:
  void flush_chunk();

  std::string path_;
  std::ofstream os_;
  std::size_t samples_per_trace_;
  std::size_t chunk_traces_;
  std::vector<std::uint8_t> chunk_;  ///< pending payload bytes
  std::size_t chunk_count_ = 0;      ///< traces in the pending chunk
  std::size_t total_ = 0;
  bool finished_ = false;
};

/// Streaming v2 reader: validates the header and footer before handing
/// out traces and every chunk's CRCs as it streams, holding at most one
/// chunk in memory. All corruption surfaces as TraceFormatError from the
/// constructor or next() — never a crash, hang or oversized allocation
/// driven by an adversarial header.
class TraceStoreReader {
 public:
  explicit TraceStoreReader(const std::string& path);

  std::size_t samples_per_trace() const { return samples_per_trace_; }
  /// Total traces in the file, from the CRC-checked footer.
  std::size_t trace_count() const { return total_; }

  /// Reads the next trace into `out`; returns false once all
  /// trace_count() traces have been read and the end of file validated.
  bool next(StoredTrace& out);

 private:
  [[noreturn]] void fail(const std::string& what) const;
  void read_exact(void* dst, std::size_t n, const char* what);
  void load_chunk();

  std::string path_;
  std::ifstream is_;
  std::size_t samples_per_trace_ = 0;
  std::size_t record_bytes_ = 0;
  std::uint64_t total_ = 0;
  std::uint64_t read_ = 0;
  std::uint64_t file_size_ = 0;
  std::uint64_t offset_ = 0;  ///< current file position
  std::vector<std::uint8_t> chunk_;  ///< current chunk payload
  std::size_t chunk_pos_ = 0;
};

}  // namespace leakydsp::sim
