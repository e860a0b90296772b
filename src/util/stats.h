// Lightweight descriptive statistics used by the experiment harnesses:
// running moments, sample collections with percentiles, and fixed-bin
// histograms (the paper reports error histograms and per-day percentages).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace mm::util {

/// Single-pass mean/variance/min/max accumulator (Welford).
class RunningStats {
 public:
  void add(double x) noexcept;
  void merge(const RunningStats& other) noexcept;

  [[nodiscard]] std::size_t count() const noexcept { return count_; }
  [[nodiscard]] double mean() const noexcept { return mean_; }
  /// Sample variance (n-1 denominator); 0 for fewer than two samples.
  [[nodiscard]] double variance() const noexcept;
  [[nodiscard]] double stddev() const noexcept;
  [[nodiscard]] double min() const noexcept { return min_; }
  [[nodiscard]] double max() const noexcept { return max_; }
  [[nodiscard]] double sum() const noexcept { return mean_ * static_cast<double>(count_); }

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Stores all samples; supports exact percentiles. Use for modest sample
/// counts (the experiments collect at most a few hundred thousand values).
class SampleSet {
 public:
  void add(double x);
  void add_all(const std::vector<double>& xs);

  [[nodiscard]] std::size_t count() const noexcept { return samples_.size(); }
  [[nodiscard]] bool empty() const noexcept { return samples_.empty(); }
  [[nodiscard]] double mean() const noexcept;
  [[nodiscard]] double stddev() const noexcept;
  [[nodiscard]] double min() const;
  [[nodiscard]] double max() const;
  /// Linear-interpolated percentile, p in [0, 100]. Requires non-empty.
  [[nodiscard]] double percentile(double p) const;
  [[nodiscard]] double median() const { return percentile(50.0); }
  [[nodiscard]] const std::vector<double>& samples() const noexcept { return samples_; }

 private:
  void ensure_sorted() const;

  std::vector<double> samples_;
  mutable std::vector<double> sorted_;
  mutable bool sorted_valid_ = false;
};

/// Fixed-width-bin histogram over [lo, hi); out-of-range samples (infinities
/// too, and NaN into the first bin) clamp to the edge bins so totals always
/// match the sample count. Its memory is fixed at construction.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t bins);

  void add(double x) noexcept;
  /// The value at percentile p in [0, 100] by SampleSet::percentile's rank
  /// rule (rank p/100 * (total - 1)), placed linearly inside the bin that
  /// holds that rank. For samples inside [lo, hi) it lies in the same bin as
  /// the sorted sample of rank floor(p/100 * (total - 1)). Requires
  /// total() > 0.
  [[nodiscard]] double percentile(double p) const;
  [[nodiscard]] std::size_t bin_count() const noexcept { return counts_.size(); }
  [[nodiscard]] std::size_t count(std::size_t bin) const { return counts_.at(bin); }
  [[nodiscard]] std::size_t total() const noexcept { return total_; }
  [[nodiscard]] double bin_lo(std::size_t bin) const noexcept;
  [[nodiscard]] double bin_hi(std::size_t bin) const noexcept;
  [[nodiscard]] double fraction(std::size_t bin) const;
  /// Render as aligned text rows "lo..hi | count | bar" for console output.
  [[nodiscard]] std::string to_string(std::size_t bar_width = 40) const;

 private:
  double lo_;
  double width_;
  std::vector<std::size_t> counts_;
  std::size_t total_ = 0;
};

}  // namespace mm::util
