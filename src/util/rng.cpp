#include "util/rng.h"

#include <bit>
#include <cmath>
#include <numbers>

#include "util/contracts.h"

namespace leakydsp::util {

namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

constexpr std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

/// One xoshiro256++ step: advances the four state words, returns the output.
inline std::uint64_t xoshiro_next(std::uint64_t& s0, std::uint64_t& s1,
                                  std::uint64_t& s2, std::uint64_t& s3) {
  const std::uint64_t result = rotl(s0 + s3, 23) + s0;
  const std::uint64_t t = s1 << 17;
  s2 ^= s0;
  s3 ^= s1;
  s1 ^= s2;
  s0 ^= s3;
  s2 ^= t;
  s3 = rotl(s3, 45);
  return result;
}

/// Layer tables of the 256-layer ziggurat for the standard normal
/// (Marsaglia & Tsang 2000). x_ holds the layer abscissae in descending
/// order (x_[0] = V/f(R) > x_[1] = R > ... > x_[256] = 0), y_ the density
/// f(x) = exp(-x^2/2) at each abscissa.
struct ZigguratTables {
  static constexpr double kR = 3.6541528853610088;       // rightmost layer edge
  static constexpr double kV = 0.00492867323399;         // per-layer area
  std::array<double, 257> x{};
  std::array<double, 257> y{};

  ZigguratTables() {
    const auto f = [](double t) { return std::exp(-0.5 * t * t); };
    x[0] = kV / f(kR);
    x[1] = kR;
    x[256] = 0.0;
    for (int i = 2; i < 256; ++i) {
      x[static_cast<std::size_t>(i)] = std::sqrt(
          -2.0 * std::log(kV / x[static_cast<std::size_t>(i - 1)] +
                          f(x[static_cast<std::size_t>(i - 1)])));
    }
    for (int i = 0; i <= 256; ++i) {
      y[static_cast<std::size_t>(i)] = f(x[static_cast<std::size_t>(i)]);
    }
  }
};

const ZigguratTables& ziggurat() {
  static const ZigguratTables tables;
  return tables;
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t s = seed;
  for (auto& word : state_) word = splitmix64(s);
}

std::uint64_t Rng::operator()() {
  ++draws_;
  return xoshiro_next(state_[0], state_[1], state_[2], state_[3]);
}

double Rng::uniform() {
  // 53 high bits -> double in [0, 1).
  return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) {
  LD_REQUIRE(lo <= hi, "uniform bounds out of order: " << lo << " > " << hi);
  return lo + (hi - lo) * uniform();
}

std::uint64_t Rng::uniform_u64(std::uint64_t n) {
  LD_REQUIRE(n > 0, "uniform_u64 requires n > 0");
  // Lemire-style rejection to remove modulo bias.
  const std::uint64_t threshold = (~n + 1) % n;  // (2^64 - n) mod n
  for (;;) {
    const std::uint64_t r = (*this)();
    if (r >= threshold) return r % n;
  }
}

double Rng::gaussian() {
  if (has_cached_gaussian_) {
    has_cached_gaussian_ = false;
    return cached_gaussian_;
  }
  double u1 = 0.0;
  do {
    u1 = uniform();
  } while (u1 <= 0.0);
  const double u2 = uniform();
  const double radius = std::sqrt(-2.0 * std::log(u1));
  const double angle = 2.0 * std::numbers::pi * u2;
  cached_gaussian_ = radius * std::sin(angle);
  has_cached_gaussian_ = true;
  return radius * std::cos(angle);
}

double Rng::gaussian(double mean, double stddev) {
  LD_REQUIRE(stddev >= 0.0, "negative stddev " << stddev);
  return mean + stddev * gaussian();
}

double Rng::gaussian_zig() {
  double x = 0.0;
  fill_gaussian_zig({&x, 1});
  return x;
}

void Rng::fill_gaussian_zig(std::span<double> out) {
  const ZigguratTables& t = ziggurat();
  std::uint64_t s0 = state_[0];
  std::uint64_t s1 = state_[1];
  std::uint64_t s2 = state_[2];
  std::uint64_t s3 = state_[3];
  std::uint64_t draws = draws_;
  for (std::size_t k = 0; k < out.size();) {
    const std::uint64_t bits = xoshiro_next(s0, s1, s2, s3);
    ++draws;
    // One raw draw carries everything the common path needs: 8 layer bits,
    // 1 sign bit (moved to the double's sign bit, so the non-negative
    // magnitude is negated without a branch), and 53 mantissa bits for the
    // uniform abscissa.
    const std::size_t i = static_cast<std::size_t>(bits & 0xff);
    const std::uint64_t sign = (bits & 0x100) << 55;
    const double u = static_cast<double>(bits >> 11) * 0x1.0p-53;
    double x = u * t.x[i];
    if (x >= t.x[i + 1]) [[unlikely]] {
      state_ = {s0, s1, s2, s3};
      draws_ = draws;
      const std::optional<double> kept = gaussian_zig_slow(i, x);
      s0 = state_[0];
      s1 = state_[1];
      s2 = state_[2];
      s3 = state_[3];
      draws = draws_;
      if (!kept) continue;
      x = *kept;
    }
    out[k++] = std::bit_cast<double>(std::bit_cast<std::uint64_t>(x) ^ sign);
  }
  state_ = {s0, s1, s2, s3};
  draws_ = draws;
}

std::optional<double> Rng::gaussian_zig_slow(std::size_t layer, double x) {
  const ZigguratTables& t = ziggurat();
  if (layer == 0) {
    // Tail beyond R: Marsaglia's exponential-rejection sampler.
    double xx = 0.0;
    double yy = 0.0;
    do {
      double u1 = 0.0;
      do {
        u1 = uniform();
      } while (u1 <= 0.0);
      double u2 = 0.0;
      do {
        u2 = uniform();
      } while (u2 <= 0.0);
      xx = -std::log(u1) / ZigguratTables::kR;
      yy = -std::log(u2);
    } while (yy + yy < xx * xx);
    return ZigguratTables::kR + xx;
  }
  // Wedge: accept under the true density. Layer i's slab spans densities
  // [y[i], y[i + 1]] (x descends with i, so y ascends; i + 1 <= 256).
  if (t.y[layer] + uniform() * (t.y[layer + 1] - t.y[layer]) <
      std::exp(-0.5 * x * x)) {
    return x;
  }
  return std::nullopt;
}

double Rng::gaussian_zig(double mean, double stddev) {
  LD_REQUIRE(stddev >= 0.0, "negative stddev " << stddev);
  return mean + stddev * gaussian_zig();
}

bool Rng::bernoulli(double p) {
  LD_REQUIRE(p >= 0.0 && p <= 1.0, "probability out of range: " << p);
  return uniform() < p;
}

double Rng::exponential(double rate) {
  LD_REQUIRE(rate > 0.0, "exponential rate must be positive, got " << rate);
  double u = 0.0;
  do {
    u = uniform();
  } while (u <= 0.0);
  return -std::log(u) / rate;
}

std::array<std::uint64_t, 6> Rng::serialize() const {
  return {state_[0], state_[1], state_[2], state_[3],
          std::bit_cast<std::uint64_t>(cached_gaussian_),
          has_cached_gaussian_ ? 1ULL : 0ULL};
}

Rng Rng::deserialize(const std::array<std::uint64_t, 6>& words) {
  Rng rng;
  for (std::size_t i = 0; i < 4; ++i) rng.state_[i] = words[i];
  rng.cached_gaussian_ = std::bit_cast<double>(words[4]);
  rng.has_cached_gaussian_ = words[5] != 0;
  return rng;
}

Rng Rng::fork(std::uint64_t stream_index) const {
  std::uint64_t mix = state_[0] ^ rotl(state_[2], 29) ^
                      (0xd1342543de82ef95ULL * (stream_index + 1));
  Rng child(splitmix64(mix));
  return child;
}

const double* Rng::ziggurat_layers() { return ziggurat().x.data(); }

}  // namespace leakydsp::util
