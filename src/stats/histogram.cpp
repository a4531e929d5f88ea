#include "stats/histogram.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "util/contracts.h"
#include "util/simd_ops.h"

namespace leakydsp::stats {

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : lo_(lo), hi_(hi), width_((hi - lo) / static_cast<double>(bins)) {
  LD_REQUIRE(hi > lo, "histogram range empty: [" << lo << ", " << hi << "]");
  LD_REQUIRE(bins > 0, "histogram needs at least one bin");
  counts_.assign(bins, 0.0);
}

std::size_t Histogram::bin_index(double value) const {
  if (value <= lo_) return 0;
  if (value >= hi_) return counts_.size() - 1;
  const auto idx = static_cast<std::size_t>((value - lo_) / width_);
  return std::min(idx, counts_.size() - 1);
}

void Histogram::add(double value, double weight) {
  LD_REQUIRE(weight >= 0.0 && std::isfinite(weight),
             "histogram weight " << weight << " is negative or not finite");
  counts_[bin_index(value)] += weight;
  total_ += weight;
}

double Histogram::count(std::size_t bin) const {
  LD_REQUIRE(bin < counts_.size(), "bin " << bin << " out of range");
  return counts_[bin];
}

double Histogram::bin_center(std::size_t i) const {
  LD_REQUIRE(i < counts_.size(), "bin " << i << " out of range");
  return lo_ + (static_cast<double>(i) + 0.5) * width_;
}

double Histogram::mass_above(std::size_t bin) const {
  LD_REQUIRE(bin < counts_.size(), "bin " << bin << " out of range");
  double sum = 0.0;
  for (std::size_t i = bin + 1; i < counts_.size(); ++i) sum += counts_[i];
  return sum;
}

double Histogram::mass_at_or_above(std::size_t bin) const {
  LD_REQUIRE(bin < counts_.size(), "bin " << bin << " out of range");
  double sum = 0.0;
  for (std::size_t i = bin; i < counts_.size(); ++i) sum += counts_[i];
  return sum;
}

namespace {

/// [first, end) of the nonzero bins; first == end when every bin is zero.
std::pair<std::size_t, std::size_t> support(const std::vector<double>& c) {
  const auto nonzero = [](double v) { return v != 0.0; };
  const auto first = std::find_if(c.begin(), c.end(), nonzero);
  if (first == c.end()) return {0, 0};
  const auto last = std::find_if(c.rbegin(), c.rend(), nonzero);
  return {static_cast<std::size_t>(first - c.begin()),
          static_cast<std::size_t>(c.rend() - last)};
}

}  // namespace

Histogram Histogram::convolve(const Histogram& other) const {
  LD_REQUIRE(std::abs(width_ - other.width_) <= 1e-12 * std::abs(width_),
             "convolution requires equal bin widths");
  const std::size_t n = counts_.size();
  const std::size_t m = other.counts_.size();
  Histogram out(lo_ + other.lo_,
                lo_ + other.lo_ + width_ * static_cast<double>(n + m - 1),
                n + m - 1);
  // Counts are finite and >= 0 (add() checks every weight), so the zero
  // bins outside each support only ever add exact +0 terms: convolving the
  // supports alone leaves the bits of the full convolution unchanged.
  const auto [a_first, a_end] = support(counts_);
  const auto [b_first, b_end] = support(other.counts_);
  if (a_first < a_end && b_first < b_end) {
    util::simd::convolve(counts_.data() + a_first, a_end - a_first,
                         other.counts_.data() + b_first, b_end - b_first,
                         out.counts_.data() + a_first + b_first);
  }
  for (const double c : out.counts_) out.total_ += c;
  return out;
}

}  // namespace leakydsp::stats
