// Runtime CPU-feature probing for the SIMD kernel layer. Every explicitly
// vectorized kernel in the repository (CPA panel accumulation, sensor batch
// ops, the CRC-32 fold) is compiled once per ISA tier in its own
// translation unit; this header is the single authority on which tier a
// call dispatches to.
//
// Tier selection is: min(what the CPU reports via cpuid, what the build
// compiled in, what the LEAKYDSP_SIMD environment variable permits), unless
// a programmatic override (tests) pins it lower. Every tier of every kernel
// is bit-identical by construction — see DESIGN.md "SIMD kernel layer &
// dispatch" — so the tier never changes results, only speed.
#pragma once

#include <optional>
#include <string>

namespace leakydsp::util {

/// ISA tiers of the vectorized kernels, in strictly increasing capability
/// order (comparison operators are meaningful).
enum class SimdTier {
  kScalar = 0,  ///< portable C++ (always available, the reference tier)
  kAvx2 = 1,    ///< AVX2 + FMA + PCLMULQDQ (256-bit)
  kAvx512 = 2,  ///< AVX-512 F/DQ/BW/VL + PCLMULQDQ (512-bit; the CRC fold
                ///< stays 128-bit)
};

const char* to_string(SimdTier tier);

/// Parses "scalar", "avx2", "avx512" or "auto" (case-sensitive, the
/// spelling the LEAKYDSP_SIMD environment variable and bench flags use).
/// "auto" yields nullopt (= no cap). Returns false on any other string.
bool parse_simd_tier(const std::string& text, std::optional<SimdTier>& out);

/// Highest tier the build compiled kernels for: kAvx512 or kAvx2 when the
/// x86 tiers were built (-DLEAKYDSP_SIMD=ON on an x86-64 toolchain),
/// kScalar otherwise.
SimdTier max_compiled_simd_tier();

/// Uncached probe: min(cpuid capability, compiled-in tiers, LEAKYDSP_SIMD
/// environment cap). An unparseable LEAKYDSP_SIMD value is ignored (treated
/// as "auto"); a cap above the hardware is clamped down, never up — the
/// variable can only disable tiers, not fabricate them.
SimdTier probe_simd_tier();

/// probe_simd_tier() computed once and cached for the process lifetime.
SimdTier detected_simd_tier();

/// The tier kernels dispatch on right now: the programmatic override when
/// one is set (clamped to detected_simd_tier()), else detected_simd_tier().
SimdTier current_simd_tier();

/// Pins (or, with nullopt, releases) the dispatch tier for this process.
/// Test hook: lets one binary compare every available tier bit-for-bit.
/// Takes effect on the next kernel call; not synchronized with concurrently
/// running kernels, so flip it only while no campaign is in flight.
void set_simd_tier_override(std::optional<SimdTier> tier);

}  // namespace leakydsp::util
