#include "util/stats.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

namespace mm::util {

void RunningStats::add(double x) noexcept {
  if (count_ == 0) {
    min_ = x;
    max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

void RunningStats::merge(const RunningStats& other) noexcept {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  const auto n1 = static_cast<double>(count_);
  const auto n2 = static_cast<double>(other.count_);
  const double delta = other.mean_ - mean_;
  const double n = n1 + n2;
  mean_ += delta * n2 / n;
  m2_ += other.m2_ + delta * delta * n1 * n2 / n;
  count_ += other.count_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double RunningStats::variance() const noexcept {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_ - 1);
}

double RunningStats::stddev() const noexcept { return std::sqrt(variance()); }

void SampleSet::add(double x) {
  samples_.push_back(x);
  sorted_valid_ = false;
}

void SampleSet::add_all(const std::vector<double>& xs) {
  samples_.insert(samples_.end(), xs.begin(), xs.end());
  sorted_valid_ = false;
}

double SampleSet::mean() const noexcept {
  if (samples_.empty()) return 0.0;
  double total = 0.0;
  for (double x : samples_) total += x;
  return total / static_cast<double>(samples_.size());
}

double SampleSet::stddev() const noexcept {
  if (samples_.size() < 2) return 0.0;
  const double m = mean();
  double acc = 0.0;
  for (double x : samples_) acc += (x - m) * (x - m);
  return std::sqrt(acc / static_cast<double>(samples_.size() - 1));
}

double SampleSet::min() const {
  if (samples_.empty()) throw std::out_of_range("SampleSet::min on empty set");
  return *std::min_element(samples_.begin(), samples_.end());
}

double SampleSet::max() const {
  if (samples_.empty()) throw std::out_of_range("SampleSet::max on empty set");
  return *std::max_element(samples_.begin(), samples_.end());
}

void SampleSet::ensure_sorted() const {
  if (sorted_valid_) return;
  sorted_ = samples_;
  std::sort(sorted_.begin(), sorted_.end());
  sorted_valid_ = true;
}

double SampleSet::percentile(double p) const {
  if (samples_.empty()) throw std::out_of_range("SampleSet::percentile on empty set");
  ensure_sorted();
  const double clamped = std::clamp(p, 0.0, 100.0);
  const double rank = clamped / 100.0 * static_cast<double>(sorted_.size() - 1);
  const auto below = static_cast<std::size_t>(rank);
  const auto above = std::min(below + 1, sorted_.size() - 1);
  const double fraction = rank - static_cast<double>(below);
  return sorted_[below] + fraction * (sorted_[above] - sorted_[below]);
}

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : lo_(lo), width_((hi - lo) / static_cast<double>(bins)), counts_(bins, 0) {
  if (bins == 0 || !(hi > lo)) throw std::invalid_argument("Histogram needs hi > lo and bins > 0");
}

void Histogram::add(double x) noexcept {
  // Clamped before the cast to an index: an infinite or NaN position has no
  // integer value, and a huge finite one overflows it.
  const double raw = std::floor((x - lo_) / width_);
  const double last = static_cast<double>(counts_.size() - 1);
  const double bin = raw >= 0.0 ? std::min(raw, last) : 0.0;
  ++counts_[static_cast<std::size_t>(bin)];
  ++total_;
}

double Histogram::percentile(double p) const {
  if (total_ == 0) throw std::out_of_range("Histogram::percentile on empty histogram");
  const double rank = std::clamp(p, 0.0, 100.0) / 100.0 * static_cast<double>(total_ - 1);
  std::size_t bin = 0;
  std::size_t below = 0;  // samples in the bins before `bin`
  while (bin + 1 < counts_.size() && static_cast<double>(below + counts_[bin]) <= rank) {
    below += counts_[bin];
    ++bin;
  }
  // The bin holds the rank, so it holds at least one sample.
  return bin_lo(bin) +
         width_ * (rank - static_cast<double>(below)) / static_cast<double>(counts_[bin]);
}

double Histogram::bin_lo(std::size_t bin) const noexcept {
  return lo_ + width_ * static_cast<double>(bin);
}

double Histogram::bin_hi(std::size_t bin) const noexcept {
  return lo_ + width_ * static_cast<double>(bin + 1);
}

double Histogram::fraction(std::size_t bin) const {
  if (total_ == 0) return 0.0;
  return static_cast<double>(counts_.at(bin)) / static_cast<double>(total_);
}

std::string Histogram::to_string(std::size_t bar_width) const {
  std::ostringstream out;
  std::size_t peak = 0;
  for (std::size_t c : counts_) peak = std::max(peak, c);
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    out.width(9);
    out << bin_lo(i) << " ..";
    out.width(9);
    out << bin_hi(i) << " |";
    out.width(7);
    out << counts_[i] << " | ";
    const std::size_t bar =
        peak == 0 ? 0 : counts_[i] * bar_width / peak;
    for (std::size_t b = 0; b < bar; ++b) out << '#';
    out << '\n';
  }
  return out.str();
}

}  // namespace mm::util
