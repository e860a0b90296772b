#include "report.h"

#include <malloc.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

namespace mm::perfbench {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

bool reset_peak_rss() {
  malloc_trim(0);  // hand the set-ups' freed heap back, so only live data stays resident
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";  // 5 = reset the peak RSS to the current RSS
  clear.flush();
  return static_cast<bool>(clear);
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // VmHWM is in KiB
    }
  }
  return 0.0;
}

void RunResult::check(bool ok, const std::string& what, std::uint64_t failed_ops) {
  if (ok) return;
  check_failures.push_back(what);
  failed += std::max<std::uint64_t>(failed_ops, 1);
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string json_metrics(const MetricMap& metrics) {
  std::ostringstream out;
  out << "{";
  bool first = true;
  for (const auto& [name, metric] : metrics) {
    out << (first ? "" : ", ") << json_string(name) << ": {\"value\": "
        << json_number(metric.value) << ", \"unit\": " << json_string(metric.unit) << "}";
    first = false;
  }
  out << "}";
  return out.str();
}

void log_reps(const std::string& workload, const util::SampleSet& total_s) {
  for (std::size_t i = 0; i < total_s.count(); ++i) {
    std::fprintf(stderr, "perfbench: %s rep %zu: total_s %.4f\n", workload.c_str(), i,
                 total_s.samples()[i]);
  }
}

int reps_for(double seconds, double nominal_rep_s, int min_reps) {
  const auto fit = static_cast<int>(std::floor(seconds / nominal_rep_s));
  return std::max(min_reps, fit);
}

}  // namespace mm::perfbench
