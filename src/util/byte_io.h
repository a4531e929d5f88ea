// Bounds-checked little-endian byte-buffer (de)serialization, shared by
// the v2 trace format, the sealed-file frame and the checkpoint and golden
// payload codecs. ByteWriter appends into a growable buffer; ByteReader
// never reads past its span — every overrun throws PreconditionError,
// which the file-format loaders wrap into their typed errors
// (TraceFormatError / CheckpointError / GoldenFormatError), so
// corrupted length fields can never drive an out-of-bounds read.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "util/contracts.h"

namespace leakydsp::util {

/// Append-only serializer. All integers little-endian; this repository
/// only targets little-endian hosts (raw-POD trace files already assume
/// it), so writes are memcpys.
class ByteWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u32(std::uint32_t v) { append(&v, sizeof(v)); }
  void u64(std::uint64_t v) { append(&v, sizeof(v)); }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void bytes(std::span<const std::uint8_t> data) {
    buf_.insert(buf_.end(), data.begin(), data.end());
  }

  std::span<const std::uint8_t> span() const { return buf_; }
  std::vector<std::uint8_t> take() { return std::move(buf_); }
  std::size_t size() const { return buf_.size(); }

 private:
  void append(const void* p, std::size_t n) {
    const std::size_t old = buf_.size();
    buf_.resize(old + n);
    std::memcpy(buf_.data() + old, p, n);
  }

  std::vector<std::uint8_t> buf_;
};

/// Cursor over a fixed span; any read beyond the end throws.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) : data_(data) {}

  std::size_t remaining() const { return data_.size() - pos_; }
  bool exhausted() const { return pos_ == data_.size(); }

  std::uint8_t u8() {
    need(1);
    return data_[pos_++];
  }
  std::uint32_t u32() { return read_pod<std::uint32_t>(); }
  std::uint64_t u64() { return read_pod<std::uint64_t>(); }
  double f64() { return std::bit_cast<double>(u64()); }
  void bytes(std::span<std::uint8_t> out) {
    need(out.size());
    std::memcpy(out.data(), data_.data() + pos_, out.size());
    pos_ += out.size();
  }

 private:
  template <typename T>
  T read_pod() {
    need(sizeof(T));
    T v;
    std::memcpy(&v, data_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }

  void need(std::size_t n) {
    LD_REQUIRE(n <= remaining(), "serialized buffer truncated: need "
                                     << n << " bytes, " << remaining()
                                     << " remain");
  }

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

}  // namespace leakydsp::util
