// PCLMULQDQ tier of util::Crc32. Compiled with -mavx2 -mfma -mpclmul
// (src/CMakeLists.txt); the whole body drops out when the build does not
// enable the SIMD tiers, so the GLOB-based module build can always include
// this file.
//
// The fold of Gopal et al., "Fast CRC Computation for Generic Polynomials
// Using PCLMULQDQ Instruction" (Intel, 2009), in the bit-reflected domain:
// four 128-bit lanes absorb 64 bytes per step, the lanes fold into one,
// single 16-byte blocks fold in after them, and a Barrett reduction takes
// the remaining 128 bits to the 32-bit CRC. Carry-less arithmetic is exact,
// so the result equals the bytewise table loop in crc32.cpp for every input.
#include "util/crc32.h"

#ifdef LEAKYDSP_SIMD_AVX2

#include <immintrin.h>

namespace leakydsp::util::detail {

namespace {

// Reflected constants for the polynomial 0x04C11DB7 (the paper's table;
// zlib and Linux use the same ones). k1/k2 fold a lane 512 bits forward,
// k3/k4 fold 128 bits forward, k5 takes 64 bits to 32, and P'/mu are the
// Barrett pair.
constexpr long long kK1 = 0x154442bd4;
constexpr long long kK2 = 0x1c6e41596;
constexpr long long kK3 = 0x1751997d0;
constexpr long long kK4 = 0x0ccaa009e;
constexpr long long kK5 = 0x163cd6124;
constexpr long long kP = 0x1db710641;
constexpr long long kMu = 0x1f7011641;

__m128i load16(const std::uint8_t* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

/// acc * x^(distance) mod P, xored into `next`: the low half multiplies the
/// low constant of `k`, the high half the high constant.
__m128i fold(__m128i acc, __m128i k, __m128i next) {
  const __m128i lo = _mm_clmulepi64_si128(acc, k, 0x00);
  const __m128i hi = _mm_clmulepi64_si128(acc, k, 0x11);
  return _mm_xor_si128(_mm_xor_si128(lo, hi), next);
}

}  // namespace

std::uint32_t crc32_fold_avx2(const std::uint8_t* data, std::size_t n,
                              std::uint32_t crc) {
  const std::uint8_t* const end = data + n;
  __m128i lane[4];
  for (int j = 0; j < 4; ++j) lane[j] = load16(data + 16 * j);
  lane[0] = _mm_xor_si128(lane[0], _mm_cvtsi32_si128(static_cast<int>(crc)));
  const std::uint8_t* p = data + 64;

  const __m128i k12 = _mm_set_epi64x(kK2, kK1);
  for (; end - p >= 64; p += 64) {
    for (int j = 0; j < 4; ++j) {
      lane[j] = fold(lane[j], k12, load16(p + 16 * j));
    }
  }

  const __m128i k34 = _mm_set_epi64x(kK4, kK3);
  __m128i acc = lane[0];
  for (int j = 1; j < 4; ++j) acc = fold(acc, k34, lane[j]);
  for (; p < end; p += 16) acc = fold(acc, k34, load16(p));

  // 128 -> 64 bits: the low half times k4, into the high half.
  acc = _mm_xor_si128(_mm_srli_si128(acc, 8),
                      _mm_clmulepi64_si128(acc, k34, 0x10));
  // 64 -> 32 bits: the low 32 bits times k5, into the upper 32.
  const __m128i low32 = _mm_setr_epi32(-1, 0, -1, 0);
  acc = _mm_xor_si128(
      _mm_srli_si128(acc, 4),
      _mm_clmulepi64_si128(_mm_and_si128(acc, low32),
                           _mm_set_epi64x(0, kK5), 0x00));
  // Barrett reduction: q = floor(acc / P) via mu, then acc ^= q * P.
  const __m128i barrett = _mm_set_epi64x(kMu, kP);
  __m128i q = _mm_clmulepi64_si128(_mm_and_si128(acc, low32), barrett, 0x10);
  q = _mm_clmulepi64_si128(_mm_and_si128(q, low32), barrett, 0x00);
  acc = _mm_xor_si128(acc, q);
  return static_cast<std::uint32_t>(_mm_extract_epi32(acc, 1));
}

}  // namespace leakydsp::util::detail

#endif  // LEAKYDSP_SIMD_AVX2
