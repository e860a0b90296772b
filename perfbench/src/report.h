// Shared plumbing for the perfbench workloads: the wall clock, peak RSS, the
// per-run result a workload hands back, and the JSON result line it prints.
// Medians and percentiles come from util::SampleSet.
#pragma once

#include <cstdint>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "util/stats.h"

namespace mm::perfbench {

/// Monotonic wall clock in seconds.
[[nodiscard]] double now_s();

/// Returns the heap's free memory to the kernel and restarts the process's
/// peak-RSS high-water mark at its current resident set (Linux
/// /proc/self/clear_refs), so that memory the set-ups held and released no
/// longer counts; false when the kernel refused.
[[nodiscard]] bool reset_peak_rss();

/// Peak resident set size since the last reset_peak_rss() (VmHWM), in MB.
[[nodiscard]] double peak_rss_mb();

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// Name -> metric, printed in name order.
using MetricMap = std::map<std::string, Metric>;

/// Command-line options every workload receives.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory for the run's files (WAL, pcap, snapshot); created and removed
  /// by main().
  std::filesystem::path scratch;
  /// Where the traced run writes its spans and library counters (empty = no
  /// file).
  std::filesystem::path trace_out;
};

/// What one run of a workload did and measured.
struct RunResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Every output check that did not hold, in words (printed to stderr).
  std::vector<std::string> check_failures;
  MetricMap end_to_end;
  MetricMap per_layer;
  /// Work counts: a pure function of the seed, so two runs with one seed
  /// report identical values.
  std::map<std::string, double> work;
  /// Traced run: the library's own counters as a JSON object, written with
  /// the spans.
  std::string counters_json;

  /// Records one output check; a failed check counts `failed_ops` failed
  /// operations and marks the run incorrect.
  void check(bool ok, const std::string& what, std::uint64_t failed_ops = 1);
  [[nodiscard]] bool correct() const noexcept { return check_failures.empty(); }

  void e2e(const std::string& name, double value, const std::string& unit) {
    end_to_end[name] = {value, unit};
  }
  void layer(const std::string& name, double value, const std::string& unit) {
    per_layer[name] = {value, unit};
  }
};

/// JSON number with every significant digit (non-finite values become 0).
[[nodiscard]] std::string json_number(double value);
[[nodiscard]] std::string json_string(const std::string& text);
/// {"name": {"value": v, "unit": "u"}, ...}
[[nodiscard]] std::string json_metrics(const MetricMap& metrics);

/// Prints each repetition's total_s to stderr (one line per repetition).
void log_reps(const std::string& workload, const util::SampleSet& total_s);

/// Repetition count for a workload whose one repetition takes about
/// `nominal_rep_s` on the reference machine: enough to fill `seconds`, never
/// fewer than `min_reps`. A function of the arguments only, so every run with
/// the same --seconds does the same work.
[[nodiscard]] int reps_for(double seconds, double nominal_rep_s, int min_reps);

}  // namespace mm::perfbench
