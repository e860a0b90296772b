// The three workloads and the metric catalogue they report against.
//
// Every workload reports every end-to-end metric (run without --trace) and
// every per-layer metric (run with --trace); a layer a workload never calls
// reads 0 with a call count of 0.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "report.h"

namespace mm::perfbench {

RunResult run_live_fabric(const Options& options);
RunResult run_offline_city(const Options& options);
RunResult run_wps_city(const Options& options);

struct MetricSpec {
  std::string name;
  std::string unit;
};

/// End-to-end metrics, identical for every workload.
[[nodiscard]] const std::vector<MetricSpec>& end_to_end_metrics();
/// Per-layer metrics of the traced run, identical for every workload.
[[nodiscard]] const std::vector<MetricSpec>& per_layer_metrics();

/// The traced layers, in outside-in order; each yields <layer>.self_s and
/// <layer>.calls.
[[nodiscard]] const std::vector<const char*>& traced_layers();

/// Fills <layer>.self_s / <layer>.calls and trace.spans from the tracer.
void add_layer_times(RunResult& result);

/// Set-up repeated `times` times, each timed; keeps the last result. The
/// previous result is released before the next set-up starts, so only one
/// copy of the inputs is ever resident.
template <typename Make>
auto timed_setups(int times, util::SampleSet& seconds, Make&& make) {
  std::optional<decltype(make())> kept;
  for (int i = 0; i < times; ++i) {
    kept.reset();
    const double t0 = now_s();
    kept.emplace(make());
    seconds.add(now_s() - t0);
  }
  return std::move(*kept);
}

/// Set-ups per run (setup_s is their median), for a set-up of seconds.
inline constexpr int kSetups = 3;

}  // namespace mm::perfbench
