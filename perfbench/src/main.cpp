// perfbench: the repository's end-to-end benchmark binary.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --scratch DIR [--trace-out FILE]
//
// Workloads: live_fabric, offline_city, wps_city (see perfbench/README.md).
// The last line of stdout is the run's result:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics of a
// traced run (--trace 1). The line before it lists the run's work counts.
#include <malloc.h>

#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <string>

#include "report.h"
#include "trace.h"
#include "workloads.h"

namespace {

using namespace mm::perfbench;
namespace fs = std::filesystem;

const std::map<std::string, RunResult (*)(const Options&)>& workloads() {
  static const std::map<std::string, RunResult (*)(const Options&)> table = {
      {"live_fabric", run_live_fabric},
      {"offline_city", run_offline_city},
      {"wps_city", run_wps_city},
  };
  return table;
}

int usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload NAME --seed N --seconds S --trace 0|1 "
               "--scratch DIR [--trace-out FILE]\n";
  return 2;
}

/// Completes a metric map against its catalogue: unknown names are a bug in
/// the workload; missing ones read 0 (a layer this workload never calls).
bool complete(MetricMap& metrics, const std::vector<MetricSpec>& catalogue, bool zero_fill) {
  std::set<std::string> known;
  for (const MetricSpec& spec : catalogue) {
    known.insert(spec.name);
    if (metrics.count(spec.name) == 0) {
      if (!zero_fill) {
        std::cerr << "perfbench: workload did not report " << spec.name << "\n";
        return false;
      }
      metrics[spec.name] = {0.0, spec.unit};
    }
  }
  for (const auto& [name, metric] : metrics) {
    if (known.count(name) == 0) {
      std::cerr << "perfbench: metric " << name << " is not in the catalogue\n";
      return false;
    }
  }
  return true;
}

void write_trace_file(const Options& options, const RunResult& result) {
  std::ofstream out(options.trace_out);
  out << "{\"workload\": " << json_string(options.workload) << ", \"seed\": " << options.seed
      << ",\n\"per_layer\": " << json_metrics(result.per_layer)
      << ",\n\"counters\": " << (result.counters_json.empty() ? "{}" : result.counters_json)
      << ",\n\"spans\": ";
  Tracer::write_spans(out);
  out << "}\n";
}

}  // namespace

int main(int argc, char** argv) {
  // Fixed malloc thresholds: glibc otherwise raises the mmap threshold after
  // the first large free, and whether later big buffers land in the heap or
  // in fresh mappings — and so the peak RSS — depends on allocation timing.
  // The threshold is glibc's largest, so a repetition reuses the heap pages
  // the previous one freed, as a long-running process does, instead of
  // faulting in and zeroing fresh mappings for every large buffer (a cost
  // that swings with the host's memory traffic). Freed memory stays mapped
  // until reset_peak_rss() trims it.
  mallopt(M_MMAP_THRESHOLD, 32 * 1024 * 1024);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  Options options;
  std::map<std::string, std::string> args;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0 || i + 1 >= argc) return usage("bad argument " + key);
    args[key.substr(2)] = argv[++i];
  }
  for (const char* required : {"workload", "seed", "seconds", "trace", "scratch"}) {
    if (args.count(required) == 0) return usage(std::string("missing --") + required);
  }
  options.workload = args["workload"];
  const auto fn = workloads().find(options.workload);
  if (fn == workloads().end()) return usage("unknown workload " + options.workload);
  options.seed = std::strtoull(args["seed"].c_str(), nullptr, 10);
  options.seconds = std::strtod(args["seconds"].c_str(), nullptr);
  options.trace = args["trace"] == "1";
  if (!(options.seconds > 0.0)) return usage("--seconds must be positive");
  options.scratch = args["scratch"];
  if (args.count("trace-out") != 0) options.trace_out = args["trace-out"];

  std::error_code ec;
  fs::remove_all(options.scratch, ec);
  fs::create_directories(options.scratch, ec);
  if (ec) return usage("cannot create scratch directory " + options.scratch.string());

  RunResult result = fn->second(options);
  fs::remove_all(options.scratch, ec);

  const bool complete_ok =
      options.trace ? complete(result.per_layer, per_layer_metrics(), /*zero_fill=*/true)
                    : complete(result.end_to_end, end_to_end_metrics(), /*zero_fill=*/false);
  if (!complete_ok) return 3;
  if (options.trace && !options.trace_out.empty()) write_trace_file(options, result);

  for (const std::string& failure : result.check_failures) {
    std::cerr << "perfbench: check failed: " << failure << "\n";
  }
  std::cout << "work {";
  bool first = true;
  for (const auto& [name, value] : result.work) {
    std::cout << (first ? "" : ", ") << json_string(name) << ": " << json_number(value);
    first = false;
  }
  std::cout << "}\n";
  std::cout << "{\"correct\": " << (result.correct() ? "true" : "false")
            << ", \"attempted\": " << std::max<std::uint64_t>(result.attempted, 1)
            << ", \"failed\": " << result.failed << ", \"metrics\": "
            << json_metrics(options.trace ? result.per_layer : result.end_to_end) << "}"
            << std::endl;
  return 0;
}
