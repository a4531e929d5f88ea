// Plain per-trace CPA accumulation: the oracle reference for
// CpaAttack::add_traces.
//
// One trace at a time, one key byte at a time, with the hypothesis row
// from attack::last_round_hd_row (not the shared pair table) and one
// std::fma per (guess, POI, trace) step in trace order. That is exactly the
// rounding of the scalar accumulate_panel kernel, and the hypothesis sums
// are exact integers either way, so the state this builds must equal
// CpaAttack's bit for bit under every dispatch tier and batch split. The
// TU is compiled with -ffp-contract=off like the kernel TUs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "crypto/aes128.h"

namespace leakydsp::verify {

/// Accumulates `ciphertexts.size()` traces (POI row t at offset
/// t * poi_count of `poi_matrix`) and returns the accumulator state in
/// CpaAttack::serialize's byte layout.
std::vector<std::uint8_t> reference_cpa_state(
    std::span<const crypto::Block> ciphertexts,
    std::span<const double> poi_matrix, std::size_t poi_count);

}  // namespace leakydsp::verify
