// Deterministic, seedable random number generation used by every stochastic
// model in the repository. xoshiro256++ core (Blackman & Vigna, public
// domain algorithm) with distribution helpers; no global state, so every
// experiment is reproducible from its --seed.
#pragma once

#include <array>
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

  std::array<std::uint64_t, 4> state_{};
  double cached_gaussian_ = 0.0;
  bool has_cached_gaussian_ = false;
  std::uint64_t draws_ = 0;
};

}  // namespace leakydsp::util
