#include "util/cpu_features.h"

#include <atomic>
#include <cstdlib>

namespace leakydsp::util {
namespace {

// Programmatic override; -1 = none. Stored as int so a single atomic covers
// "unset" plus every tier.
std::atomic<int> g_override{-1};

SimdTier cpuid_simd_tier() {
#if defined(__x86_64__) || defined(_M_X64)
  // Both vector tiers run the 128-bit PCLMULQDQ CRC fold (crc32_avx2.cpp).
  // Every AVX2 CPU has it, so the check moves no real host's tier.
  if (!__builtin_cpu_supports("pclmul")) return SimdTier::kScalar;
  if (__builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512dq") &&
      __builtin_cpu_supports("avx512bw") && __builtin_cpu_supports("avx512vl")) {
    return SimdTier::kAvx512;
  }
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
    return SimdTier::kAvx2;
  }
#endif
  return SimdTier::kScalar;
}

}  // namespace

const char* to_string(SimdTier tier) {
  switch (tier) {
    case SimdTier::kScalar:
      return "scalar";
    case SimdTier::kAvx2:
      return "avx2";
    case SimdTier::kAvx512:
      return "avx512";
  }
  return "?";
}

bool parse_simd_tier(const std::string& text, std::optional<SimdTier>& out) {
  if (text == "auto") {
    out = std::nullopt;
    return true;
  }
  if (text == "scalar") {
    out = SimdTier::kScalar;
    return true;
  }
  if (text == "avx2") {
    out = SimdTier::kAvx2;
    return true;
  }
  if (text == "avx512") {
    out = SimdTier::kAvx512;
    return true;
  }
  return false;
}

SimdTier max_compiled_simd_tier() {
#if defined(LEAKYDSP_SIMD_AVX512)
  return SimdTier::kAvx512;
#elif defined(LEAKYDSP_SIMD_AVX2)
  return SimdTier::kAvx2;
#else
  return SimdTier::kScalar;
#endif
}

SimdTier probe_simd_tier() {
  SimdTier tier = cpuid_simd_tier();
  if (max_compiled_simd_tier() < tier) tier = max_compiled_simd_tier();
  if (const char* env = std::getenv("LEAKYDSP_SIMD")) {
    std::optional<SimdTier> cap;
    if (parse_simd_tier(env, cap) && cap && *cap < tier) tier = *cap;
  }
  return tier;
}

SimdTier detected_simd_tier() {
  static const SimdTier tier = probe_simd_tier();
  return tier;
}

SimdTier current_simd_tier() {
  const int ovr = g_override.load(std::memory_order_relaxed);
  const SimdTier detected = detected_simd_tier();
  if (ovr < 0) return detected;
  const auto tier = static_cast<SimdTier>(ovr);
  return tier < detected ? tier : detected;
}

void set_simd_tier_override(std::optional<SimdTier> tier) {
  g_override.store(tier ? static_cast<int>(*tier) : -1,
                   std::memory_order_relaxed);
}

}  // namespace leakydsp::util
