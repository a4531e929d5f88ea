#include "util/crc32.h"

#include <array>

#include "util/cpu_features.h"

namespace leakydsp::util {

namespace {

std::array<std::uint32_t, 256> make_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : (c >> 1);
    }
    table[i] = c;
  }
  return table;
}

}  // namespace

std::uint32_t crc32(std::span<const std::uint8_t> data) {
  return Crc32().update(data).value();
}

Crc32& Crc32::update(std::span<const std::uint8_t> data) {
#ifdef LEAKYDSP_SIMD_AVX2
  // The fold starts from four 16-byte lanes, so it needs 64 bytes; headers
  // and other small updates stay on the bytewise loop.
  if (data.size() >= 64 && current_simd_tier() >= SimdTier::kAvx2) {
    const std::size_t folded = data.size() & ~std::size_t{15};
    crc_ = detail::crc32_fold_avx2(data.data(), folded, crc_);
    data = data.subspan(folded);
  }
#endif
  static const auto table = make_table();
  for (const std::uint8_t byte : data) {
    crc_ = table[(crc_ ^ byte) & 0xFFu] ^ (crc_ >> 8);
  }
  return *this;
}

}  // namespace leakydsp::util
