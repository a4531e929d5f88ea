#include "sim/trace_store.h"

#include <cerrno>
#include <cstring>
#include <limits>
#include <sstream>

#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "util/byte_io.h"
#include "util/crc32.h"

/// Streamed-message variant of TraceStoreReader::fail, in the LD_REQUIRE
/// idiom. A macro keeps the ostringstream off the happy path.
#define LD_TRACE_FAIL(msg)      \
  do {                          \
    std::ostringstream ld_oss_; \
    ld_oss_ << msg; /* NOLINT */ \
    fail(ld_oss_.str());        \
  } while (false)

namespace leakydsp::sim {

namespace {

constexpr char kMagic[4] = {'L', 'D', 'T', 'R'};
constexpr char kChunkMagic[4] = {'C', 'H', 'N', 'K'};
constexpr char kFooterMagic[4] = {'L', 'D', 'E', 'N'};
constexpr std::uint32_t kVersion = 2;
constexpr std::uint64_t kFileHeaderBytes = 16;   // magic+version+spt+crc
constexpr std::uint64_t kChunkHeaderBytes = 16;  // magic+count+crc+crc
constexpr std::uint64_t kFooterBytes = 16;       // magic+total+crc

std::uint64_t record_size(std::size_t samples_per_trace) {
  return 16 + static_cast<std::uint64_t>(samples_per_trace) * sizeof(double);
}

std::span<const std::uint8_t> sample_bytes(std::span<const double> samples) {
  return {reinterpret_cast<const std::uint8_t*>(samples.data()),
          samples.size() * sizeof(double)};
}

}  // namespace

// ---------------------------------------------------------------- writer

TraceStoreWriter::TraceStoreWriter(const std::string& path,
                                   std::size_t samples_per_trace,
                                   std::size_t chunk_traces)
    : path_(path),
      samples_per_trace_(samples_per_trace),
      chunk_traces_(chunk_traces) {
  LD_REQUIRE(samples_per_trace_ >= 1, "traces need at least one sample");
  // The header stores the sample count as u32; anything wider used to be
  // silently truncated — now it is a hard error.
  LD_REQUIRE(samples_per_trace_ <= std::numeric_limits<std::uint32_t>::max(),
             "samples_per_trace " << samples_per_trace_
                                  << " exceeds the format's u32 field");
  LD_REQUIRE(chunk_traces_ >= 1, "chunk size must be >= 1");
  errno = 0;
  os_.open(path_, std::ios::binary | std::ios::trunc);
  if (!os_.is_open()) {
    OBS_LOG(obs::LogLevel::kError, "trace_store", "open for write failed",
            obs::f("path", path_), obs::f("errno", errno));
    LD_ENSURE(false, "cannot open '" << path_ << "' for writing");
  }

  util::ByteWriter header;
  header.bytes({reinterpret_cast<const std::uint8_t*>(kMagic), 4});
  header.u32(kVersion);
  header.u32(static_cast<std::uint32_t>(samples_per_trace_));
  const std::uint32_t crc = util::crc32(header.span());
  header.u32(crc);
  os_.write(reinterpret_cast<const char*>(header.span().data()),
            static_cast<std::streamsize>(header.size()));
  LD_ENSURE(os_.good(), "write failure on '" << path_ << "'");
}

void TraceStoreWriter::add(const crypto::Block& ciphertext,
                           std::span<const double> samples) {
  LD_REQUIRE(!finished_, "writer for '" << path_ << "' already finished");
  LD_REQUIRE(samples.size() == samples_per_trace_,
             "expected " << samples_per_trace_ << " samples, got "
                         << samples.size());
  chunk_.insert(chunk_.end(), ciphertext.begin(), ciphertext.end());
  const auto bytes = sample_bytes(samples);
  chunk_.insert(chunk_.end(), bytes.begin(), bytes.end());
  ++chunk_count_;
  ++total_;
  if (chunk_count_ == chunk_traces_) flush_chunk();
}

void TraceStoreWriter::flush_chunk() {
  if (chunk_count_ == 0) return;
  OBS_SPAN("store.write_chunk");
  util::ByteWriter header;
  header.bytes({reinterpret_cast<const std::uint8_t*>(kChunkMagic), 4});
  header.u32(static_cast<std::uint32_t>(chunk_count_));
  header.u32(util::crc32(chunk_));
  header.u32(util::crc32(header.span()));
  errno = 0;
  os_.write(reinterpret_cast<const char*>(header.span().data()),
            static_cast<std::streamsize>(header.size()));
  os_.write(reinterpret_cast<const char*>(chunk_.data()),
            static_cast<std::streamsize>(chunk_.size()));
  if (!os_.good()) {
    OBS_LOG(obs::LogLevel::kError, "trace_store", "chunk short write",
            obs::f("path", path_), obs::f("chunk_traces", chunk_count_),
            obs::f("chunk_bytes", header.size() + chunk_.size()),
            obs::f("errno", errno));
    LD_ENSURE(false, "write failure on '" << path_ << "'");
  }
  OBS_COUNT("store.chunks_written", 1);
  OBS_COUNT("store.bytes_written", header.size() + chunk_.size());
  chunk_.clear();
  chunk_count_ = 0;
}

void TraceStoreWriter::finish() {
  LD_REQUIRE(!finished_, "writer for '" << path_ << "' already finished");
  flush_chunk();
  util::ByteWriter footer;
  footer.bytes({reinterpret_cast<const std::uint8_t*>(kFooterMagic), 4});
  footer.u64(total_);
  footer.u32(util::crc32(footer.span()));
  errno = 0;
  os_.write(reinterpret_cast<const char*>(footer.span().data()),
            static_cast<std::streamsize>(footer.size()));
  os_.flush();
  if (!os_.good()) {
    OBS_LOG(obs::LogLevel::kError, "trace_store", "footer short write",
            obs::f("path", path_), obs::f("total_traces", total_),
            obs::f("errno", errno));
    LD_ENSURE(false, "write failure on '" << path_ << "'");
  }
  OBS_COUNT("store.bytes_written", footer.size());
  os_.close();
  finished_ = true;
}

// ---------------------------------------------------------------- reader

void TraceStoreReader::fail(const std::string& what) const {
  OBS_LOG(obs::LogLevel::kError, "trace_store", "read failed",
          obs::f("path", path_), obs::f("offset", offset_),
          obs::f("reason", what));
  throw TraceFormatError("trace file '" + path_ + "': " + what);
}

void TraceStoreReader::read_exact(void* dst, std::size_t n, const char* what) {
  is_.read(static_cast<char*>(dst), static_cast<std::streamsize>(n));
  if (static_cast<std::size_t>(is_.gcount()) != n || !is_) {
    fail(std::string("truncated while reading ") + what);
  }
  offset_ += n;
  OBS_COUNT("store.bytes_read", n);
}

TraceStoreReader::TraceStoreReader(const std::string& path) : path_(path) {
  is_.open(path_, std::ios::binary);
  if (!is_.is_open()) fail("cannot open");
  is_.seekg(0, std::ios::end);
  file_size_ = static_cast<std::uint64_t>(is_.tellg());
  is_.seekg(0);

  if (file_size_ < 8) fail("too small to hold a header");
  char magic[4];
  read_exact(magic, 4, "magic");
  if (std::memcmp(magic, kMagic, 4) != 0) fail("not a LeakyDSP trace file");
  std::uint32_t version = 0;
  read_exact(&version, 4, "version");
  if (version != kVersion) LD_TRACE_FAIL("unsupported version " << version);
  if (file_size_ < kFileHeaderBytes + kFooterBytes) {
    fail("too small for a header and footer");
  }
  std::uint8_t rest[8];  // samples_per_trace + header crc
  read_exact(rest, 8, "header");
  util::ByteReader header({rest, 8});
  const std::uint32_t spt = header.u32();
  const std::uint32_t stored_crc = header.u32();
  util::Crc32 crc;
  crc.update({reinterpret_cast<const std::uint8_t*>(kMagic), 4});
  crc.update({reinterpret_cast<const std::uint8_t*>(&version), 4});
  crc.update({rest, 4});
  if (crc.value() != stored_crc) fail("header CRC mismatch");
  if (spt < 1) fail("corrupt header: zero samples per trace");
  samples_per_trace_ = spt;
  record_bytes_ = record_size(samples_per_trace_);

  // The footer is validated up front so trace_count() is available (and
  // truncation detected) before streaming begins.
  is_.seekg(static_cast<std::streamoff>(file_size_ - kFooterBytes));
  std::uint8_t footer_bytes[kFooterBytes];
  is_.read(reinterpret_cast<char*>(footer_bytes), kFooterBytes);
  if (static_cast<std::size_t>(is_.gcount()) != kFooterBytes || !is_) {
    fail("truncated while reading footer");
  }
  if (std::memcmp(footer_bytes, kFooterMagic, 4) != 0) {
    fail("missing footer (file truncated or writer never finished)");
  }
  util::ByteReader footer({footer_bytes + 4, kFooterBytes - 4});
  const std::uint64_t declared = footer.u64();
  const std::uint32_t footer_crc = footer.u32();
  if (util::crc32({footer_bytes, 12}) != footer_crc) {
    fail("footer CRC mismatch");
  }
  const std::uint64_t payload_budget =
      file_size_ - kFileHeaderBytes - kFooterBytes;
  if (declared > payload_budget / record_bytes_) {
    LD_TRACE_FAIL("footer declares " << declared
                                     << " traces, more than the file can hold");
  }
  total_ = declared;
  is_.seekg(static_cast<std::streamoff>(kFileHeaderBytes));
  offset_ = kFileHeaderBytes;
}

void TraceStoreReader::load_chunk() {
  std::uint8_t header_bytes[kChunkHeaderBytes];
  read_exact(header_bytes, kChunkHeaderBytes, "chunk header");
  if (std::memcmp(header_bytes, kFooterMagic, 4) == 0) {
    LD_TRACE_FAIL("footer reached after " << read_ << " of " << total_
                                          << " declared traces");
  }
  if (std::memcmp(header_bytes, kChunkMagic, 4) != 0) {
    LD_TRACE_FAIL("bad chunk magic at offset "
                  << (offset_ - kChunkHeaderBytes));
  }
  util::ByteReader header({header_bytes + 4, kChunkHeaderBytes - 4});
  const std::uint32_t count = header.u32();
  const std::uint32_t payload_crc = header.u32();
  const std::uint32_t header_crc = header.u32();
  if (util::crc32({header_bytes, 12}) != header_crc) {
    LD_TRACE_FAIL("chunk header CRC mismatch at offset "
                  << (offset_ - kChunkHeaderBytes));
  }
  if (count < 1) fail("empty chunk");
  if (count > total_ - read_) {
    fail("chunks hold more traces than the footer declares");
  }
  // The footer still has to fit after this chunk; this bounds the
  // allocation below by the real file size.
  const std::uint64_t remaining = file_size_ - offset_ - kFooterBytes;
  if (count > remaining / record_bytes_) {
    fail("chunk payload extends past the end of the file");
  }
  const std::uint64_t payload = count * record_bytes_;
  chunk_.resize(payload);
  read_exact(chunk_.data(), payload, "chunk payload");
  if (util::crc32(chunk_) != payload_crc) {
    LD_TRACE_FAIL("chunk payload CRC mismatch at offset "
                  << (offset_ - payload));
  }
  chunk_pos_ = 0;
}

bool TraceStoreReader::next(StoredTrace& out) {
  if (read_ == total_) {
    if (offset_ != file_size_ - kFooterBytes) {
      fail("trailing data between the last chunk and the footer");
    }
    return false;
  }
  out.samples.resize(samples_per_trace_);
  if (chunk_pos_ == chunk_.size()) load_chunk();
  std::memcpy(out.ciphertext.data(), chunk_.data() + chunk_pos_, 16);
  std::memcpy(out.samples.data(), chunk_.data() + chunk_pos_ + 16,
              samples_per_trace_ * sizeof(double));
  chunk_pos_ += record_bytes_;
  ++read_;
  return true;
}

}  // namespace leakydsp::sim
