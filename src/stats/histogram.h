// Fixed-bin histogram over a bounded real range, plus histogram convolution.
// The key-rank estimator (attack/key_rank.h) convolves 16 per-byte score
// histograms to bound the rank of the correct AES key — the algorithm of
// Glowacz et al. (FSE'15) as used by the paper's key-rank metric.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace leakydsp::stats {

/// Histogram with `bins` equal-width bins spanning [lo, hi]. Values outside
/// the range are clamped into the edge bins (the key-rank bound accounting
/// treats clamping as part of the quantization error).
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t bins);

  /// Adds `weight` (finite and >= 0) to the bin of `value`.
  void add(double value, double weight = 1.0);

  double lo() const { return lo_; }
  double hi() const { return hi_; }
  std::size_t bins() const { return counts_.size(); }
  double bin_width() const { return width_; }
  double total() const { return total_; }

  double count(std::size_t bin) const;
  const std::vector<double>& counts() const { return counts_; }

  /// Index of the bin containing `value` (after clamping).
  std::size_t bin_index(double value) const;

  /// Center of bin `i`.
  double bin_center(std::size_t i) const;

  /// Sum of counts in bins strictly above `bin`.
  double mass_above(std::size_t bin) const;

  /// Sum of counts in bins at or above `bin`.
  double mass_at_or_above(std::size_t bin) const;

  /// Convolution: the distribution of X+Y for independent X, Y described by
  /// the two histograms. Both must have identical lo/width; the result has
  /// bins() + other.bins() - 1 bins starting at lo()+other.lo(). Runs
  /// util::simd::convolve over each operand's first..last nonzero bin; the
  /// counts are bit-identical to the plain dense double loop.
  Histogram convolve(const Histogram& other) const;

 private:
  double lo_;
  double hi_;
  double width_;
  double total_ = 0.0;
  std::vector<double> counts_;
};

}  // namespace leakydsp::stats
