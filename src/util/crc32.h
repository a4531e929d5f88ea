// CRC-32 (IEEE 802.3 polynomial, reflected) for bitstream and trace-file
// integrity.
//
// Two tiers compute it. The scalar tier is the bytewise table loop, the
// reference. On the AVX2 and AVX-512 dispatch tiers (cpu_features.h), an
// update of 64 bytes or more folds its largest multiple of 16 bytes with
// PCLMULQDQ carry-less multiplies (crc32_avx2.cpp) and finishes the tail
// bytewise. Both tiers return the same value for every input and split, so
// the tier never moves a stored byte; the fold checksums a MiB in tens of
// microseconds where the bytewise loop takes ~3 ms.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

namespace leakydsp::util {

/// CRC-32 of `data` (init 0xFFFFFFFF, final xor 0xFFFFFFFF — the zlib/PNG
/// convention).
std::uint32_t crc32(std::span<const std::uint8_t> data);

/// Incremental CRC-32 over data arriving in pieces; value() at any point
/// equals crc32() of the concatenation fed so far. Used by the chunked
/// trace format to checksum headers and payloads without buffering them
/// into one span.
class Crc32 {
 public:
  Crc32& update(std::span<const std::uint8_t> data);
  std::uint32_t value() const { return crc_ ^ 0xFFFFFFFFu; }

 private:
  std::uint32_t crc_ = 0xFFFFFFFFu;
};

namespace detail {

/// The PCLMULQDQ fold: advances the pre-inverted CRC state `crc` (Crc32's
/// internal form) over `n` bytes. Requires n >= 64 and n % 16 == 0.
/// Defined only when the build compiles the AVX2 tier.
std::uint32_t crc32_fold_avx2(const std::uint8_t* data, std::size_t n,
                              std::uint32_t crc);

}  // namespace detail

}  // namespace leakydsp::util
