// AVX-512 trace-group kernel of LeakyDspSensor::sample_traces.
//
// Up to eight traces of a campaign block are digitized together, trace g in
// lane g. From the sensor's capture bounds the kernel first derives every
// readout's edge window [first, last) with count_le's rule (settle <=
// bound) against the 48 settle times held in registers. Then
// util::Rng::fill_gaussian_zig_lanes steps the eight traces' own ziggurat
// streams side by side in 32-step tiles, each lane stopping at its trace's
// total window count, and each tile lands in a 160-value buffer per lane.
// When a lane's next tile would not fit, its complete windows are counted
// with packed compares of settle * scale + sigma * jitter <= t_capture —
// the expression of sample_batch()'s per-readout loop, rounded the same
// way (multiply, then add; this file builds with -ffp-contract=off) — and
// the remainder (a partial window, < 48 values) moves to the front; after
// the last tile every remaining window is counted. So every readout, rng
// state and draws() count equals sample_batch() on the trace alone.
//
// Working set per call: the 32 x 8 tile and the 8 x 160 lane buffers on
// the stack, next to the per-readout scales, bounds and window bytes in
// the sensor's scratch.
#include "core/leaky_dsp.h"

#ifdef LEAKYDSP_SIMD_AVX512

#include <immintrin.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>

namespace leakydsp::core::detail {

namespace {

constexpr std::size_t kLanes = util::Rng::kZigLanes;
constexpr std::size_t kTile = util::Rng::kZigLaneTile;
constexpr std::size_t kLaneBuffer = 160;

}  // namespace

void count_trace_group_avx512(const TraceGroupView& group,
                              std::span<util::Rng> rngs) {
  const std::size_t lanes = std::min(rngs.size(), kLanes);
  const std::size_t n = group.readouts;
  // Edge windows: count_le's rule (bits with settle <= bound) against the
  // 48 settle times held in six registers.
  __m512d settle_v[6];
  for (std::size_t k = 0; k < 6; ++k) {
    settle_v[k] = _mm512_loadu_pd(group.settle + 8 * k);
  }
  const auto settled_by = [&](double bound) {
    const __m512d b = _mm512_set1_pd(bound);
    unsigned count = 0;
    for (std::size_t k = 0; k < 6; ++k) {
      count += static_cast<unsigned>(__builtin_popcount(
          _mm512_cmp_pd_mask(settle_v[k], b, _CMP_LE_OQ)));
    }
    return static_cast<std::uint8_t>(count);
  };
  std::uint8_t* const windows = group.windows;
  std::array<std::size_t, kLanes> left{};  // jitters each lane still draws
  for (std::size_t l = 0; l < lanes; ++l) {
    for (std::size_t s = l * n; s < (l + 1) * n; ++s) {
      windows[2 * s] = settled_by(group.lo[s]);
      windows[2 * s + 1] = settled_by(group.hi[s]);
      left[l] += windows[2 * s + 1] - windows[2 * s];
    }
  }
  alignas(64) double jitter[kLanes][kLaneBuffer];
  std::array<std::size_t, kLanes> filled{};  // jitters buffered per lane
  std::array<std::size_t, kLanes> used{};    // of which already counted
  std::array<std::size_t, kLanes> next{};    // next readout per lane
  const __m512d t_capture = _mm512_set1_pd(group.t_capture);
  const __m512d sigma = _mm512_set1_pd(group.sigma);

  // Counts lane l's readouts while their windows are buffered.
  const auto count_ready = [&](std::size_t l) {
    const std::size_t base = l * n;
    std::size_t s = next[l];
    std::size_t at = used[l];
    for (; s < n; ++s) {
      const std::size_t first = windows[2 * (base + s)];
      const std::size_t width = windows[2 * (base + s) + 1] - first;
      if (at + width > filled[l]) break;
      const __m512d scale = _mm512_set1_pd(group.scale[base + s]);
      const double* settle = group.settle + first;
      const double* jit = jitter[l] + at;
      // Window bits k < width; a window is at most 48 bits, and all but a
      // few fit the first four chunks, so those run unconditionally (an
      // empty chunk's mask is 0, its loads touch nothing).
      const std::uint64_t bits =
          width >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << width) - 1;
      // Settled-bit mask of the chunk of window bits k .. k + 7.
      const auto chunk = [&](std::size_t k) {
        const __mmask8 m = static_cast<__mmask8>(bits >> k);
        const __m512d arrival = _mm512_add_pd(
            _mm512_mul_pd(_mm512_maskz_loadu_pd(m, settle + k), scale),
            _mm512_mul_pd(sigma, _mm512_maskz_loadu_pd(m, jit + k)));
        return _mm512_mask_cmp_pd_mask(m, arrival, t_capture, _CMP_LE_OQ);
      };
      const __mmask32 low32 =
          _mm512_kunpackw(_mm512_kunpackb(chunk(24), chunk(16)),
                          _mm512_kunpackb(chunk(8), chunk(0)));
      std::size_t count =
          first + static_cast<std::size_t>(
                      __builtin_popcount(_cvtmask32_u32(low32)));
      for (std::size_t k = 32; k < width; k += 8) {
        count += static_cast<std::size_t>(__builtin_popcount(chunk(k)));
      }
      group.out[base + s] = static_cast<double>(count);
      at += width;
    }
    next[l] = s;
    used[l] = at;
  };

  // A lane's buffer is counted out only when the next tile would not fit,
  // a few readouts at a time, and once more after the last tile.
  while (std::any_of(left.begin(), left.begin() + lanes,
                     [](std::size_t v) { return v > 0; })) {
    std::array<double*, kLanes> dst{};
    std::array<std::size_t, kLanes> drawn{};
    for (std::size_t l = 0; l < lanes; ++l) {
      if (filled[l] + kTile > kLaneBuffer) {
        count_ready(l);
        // Shift by whole 8-value blocks, so every tile lands on a 64-byte
        // boundary (filled stays a multiple of 8 until a lane's last tile).
        const std::size_t shift = used[l] / 8 * 8;
        std::memmove(jitter[l], jitter[l] + shift,
                     (filled[l] - shift) * sizeof(double));
        filled[l] -= shift;
        used[l] -= shift;
      }
      dst[l] = jitter[l] + filled[l];
      drawn[l] = std::min(left[l], kTile);
    }
    util::Rng::fill_gaussian_zig_lanes(
        rngs.first(lanes), std::span<std::size_t>(left).first(lanes),
        dst.data());
    for (std::size_t l = 0; l < lanes; ++l) filled[l] += drawn[l];
  }
  for (std::size_t l = 0; l < lanes; ++l) count_ready(l);
}

}  // namespace leakydsp::core::detail

#endif  // LEAKYDSP_SIMD_AVX512
