// Deterministic, seedable random number generation used by every stochastic
// model in the repository. xoshiro256++ core (Blackman & Vigna, public
// domain algorithm) with distribution helpers; no global state, so every
// experiment is reproducible from its --seed.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>

namespace leakydsp::util {

/// xoshiro256++ pseudo-random generator with distribution helpers.
///
/// Satisfies UniformRandomBitGenerator, so it also composes with <random>
/// distributions, but the members below are what the models use (they are
/// cheaper and fully specified, keeping traces bit-reproducible across
/// standard libraries).
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds via splitmix64 so that consecutive small seeds give uncorrelated
  /// streams.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ULL; }

  /// Next raw 64-bit value.
  std::uint64_t operator()();

  /// Number of raw 64-bit draws this generator has produced since
  /// construction. Observability bookkeeping only: not part of
  /// serialize()/deserialize() state (a resumed generator restarts at 0),
  /// and fork() children start at 0.
  std::uint64_t draws() const { return draws_; }

  /// Uniform double in [0, 1).
  double uniform();

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [0, n). Requires n > 0.
  std::uint64_t uniform_u64(std::uint64_t n);

  /// Standard normal via Box–Muller (cached second variate).
  double gaussian();

  /// Normal with the given mean and standard deviation.
  double gaussian(double mean, double stddev);

  /// Standard normal via a 256-layer ziggurat (Marsaglia & Tsang 2000):
  /// one raw draw plus a compare in ~98.9% of calls, no transcendentals on
  /// the common path — several times faster than gaussian(). Kept separate
  /// from gaussian() on purpose: it neither reads nor writes the Box–Muller
  /// cache, so code (and tests) pinned to the gaussian() stream and the
  /// serialized RNG state stay bit-compatible. The one-element case of
  /// fill_gaussian_zig().
  double gaussian_zig();

  /// Fills `out` with exactly out.size() consecutive gaussian_zig() values:
  /// the same stream, the same final state and the same draws() count as
  /// that many single calls. The generator state lives in registers for
  /// the whole fill, so a batch costs a fraction of the per-call overhead.
  /// Batched hot paths use this.
  void fill_gaussian_zig(std::span<double> out);

  /// Ziggurat normal with the given mean and standard deviation.
  double gaussian_zig(double mean, double stddev);

  /// Lanes and steps of one fill_gaussian_zig_lanes() call.
  static constexpr std::size_t kZigLanes = 8;
  static constexpr std::size_t kZigLaneTile = 32;

#if defined(LEAKYDSP_SIMD_AVX512)
  /// Up to kZigLanes fill_gaussian_zig() streams stepped side by side, one
  /// xoshiro256++ state per AVX-512 lane (rngs.size() <= kZigLanes,
  /// left.size() == rngs.size()). Lane l takes the next
  /// min(left[l], kZigLaneTile) values of rngs[l]'s stream, writes them to
  /// out[l][0..), and subtracts their number from left[l]; each out[l] must
  /// have room for kZigLaneTile values (slots past the lane's values may
  /// be overwritten). Every rngs[l] ends with the values, state and
  /// draws() that rngs[l].fill_gaussian_zig() would give. A raw draw that
  /// misses its layer's rectangle (~1.1% of steps) is resolved by that
  /// lane's own gaussian_zig(), restarted from the lane's state before the
  /// step, so the slow path is the scalar one. Call only when the
  /// AVX-512 tier is available at run time.
  static void fill_gaussian_zig_lanes(std::span<Rng> rngs,
                                      std::span<std::size_t> left,
                                      double* const* out);
#endif

  /// Bernoulli trial with probability p of true.
  bool bernoulli(double p);

  /// Exponential inter-arrival time with the given rate (events per unit).
  double exponential(double rate);

  /// Forks an independent child stream; children of distinct indices are
  /// decorrelated even for the same parent.
  Rng fork(std::uint64_t stream_index) const;

  /// Opaque serialized state: the four xoshiro words plus the Box–Muller
  /// cache. deserialize() reconstructs a generator whose entire future
  /// stream is bit-identical to this one's — the campaign checkpoint
  /// format stores exactly this to make resumed runs reproducible.
  std::array<std::uint64_t, 6> serialize() const;
  static Rng deserialize(const std::array<std::uint64_t, 6>& words);

 private:
  /// The ziggurat's rare path for a raw word whose abscissa `x` missed
  /// layer `layer`'s rectangle: the tail sampler for layer 0 (always
  /// accepts) or the wedge test, drawing through operator(). Returns the
  /// accepted magnitude, or nothing when the candidate is rejected.
  std::optional<double> gaussian_zig_slow(std::size_t layer, double x);

#if defined(LEAKYDSP_SIMD_AVX512)
  /// fill_gaussian_zig_lanes' step kernel (rng_avx512.cpp).
  friend struct ZigLaneKernel;
#endif

  /// The ziggurat's 257 layer abscissae, descending (x[256] = 0): what the
  /// common path of every sampler, scalar or lane-stepped, reads.
  static const double* ziggurat_layers();

  std::array<std::uint64_t, 4> state_{};
  double cached_gaussian_ = 0.0;
  bool has_cached_gaussian_ = false;
  std::uint64_t draws_ = 0;
};

}  // namespace leakydsp::util
