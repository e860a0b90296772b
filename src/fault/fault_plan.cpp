#include "fault/fault_plan.h"

#include <cmath>
#include <sstream>
#include <vector>

#include "util/csv.h"

namespace mm::fault {

bool FaultPlan::active() const noexcept {
  return corrupt_rate > 0.0 || truncate_rate > 0.0 || drop_rate > 0.0 ||
         duplicate_rate > 0.0 || nic_dropout_rate > 0.0 || clock_skew_max_s > 0.0 ||
         clock_drift_max_ppm > 0.0 || reorder_rate > 0.0 || burst_rate > 0.0 ||
         torn_write_rate > 0.0;
}

util::Result<FaultPlan> FaultPlan::parse(const std::string& spec) {
  using R = util::Result<FaultPlan>;
  FaultPlan plan;
  if (spec.empty()) return plan;
  for (const std::string& item : util::split_list(spec)) {
    const auto eq = item.find('=');
    if (eq == std::string::npos) return R::failure("fault plan: missing '=' in '" + item + "'");
    const std::string key = item.substr(0, eq);
    const std::string val = item.substr(eq + 1);
    if (key == "seed") {
      if (!util::parse_int_field(val, plan.seed)) {
        return R::failure("fault plan: bad seed '" + val + "'");
      }
      continue;
    }
    double value = 0.0;
    if (!util::parse_double_field(val, value) || !std::isfinite(value) || value < 0.0) {
      return R::failure("fault plan: bad value for '" + key + "': '" + val + "'");
    }
    const bool is_rate = key == "corrupt" || key == "truncate" || key == "drop" ||
                         key == "dup" || key == "nic-dropout" || key == "reorder" ||
                         key == "burst" || key == "torn";
    if (is_rate && value > 1.0) {
      return R::failure("fault plan: rate '" + key + "' must be in [0,1]");
    }
    if (key == "corrupt") {
      plan.corrupt_rate = value;
    } else if (key == "corrupt-bits") {
      plan.corrupt_bits_max = static_cast<int>(value);
    } else if (key == "truncate") {
      plan.truncate_rate = value;
    } else if (key == "drop") {
      plan.drop_rate = value;
    } else if (key == "dup") {
      plan.duplicate_rate = value;
    } else if (key == "nic-dropout") {
      plan.nic_dropout_rate = value;
    } else if (key == "dropout-mean") {
      plan.nic_dropout_mean_s = value;
    } else if (key == "skew") {
      plan.clock_skew_max_s = value;
    } else if (key == "drift") {
      plan.clock_drift_max_ppm = value;
    } else if (key == "reorder") {
      plan.reorder_rate = value;
    } else if (key == "reorder-depth") {
      plan.reorder_depth_max = static_cast<int>(value);
    } else if (key == "burst") {
      plan.burst_rate = value;
    } else if (key == "burst-frames") {
      plan.burst_frames_mean = value;
    } else if (key == "torn") {
      plan.torn_write_rate = value;
    } else {
      return R::failure("fault plan: unknown key '" + key + "'");
    }
  }
  if (plan.corrupt_bits_max < 1) return R::failure("fault plan: corrupt-bits must be >= 1");
  if (plan.nic_dropout_rate > 0.0 && plan.nic_dropout_mean_s <= 0.0) {
    return R::failure("fault plan: dropout-mean must be > 0 when nic-dropout is set");
  }
  if (plan.reorder_depth_max < 1) {
    return R::failure("fault plan: reorder-depth must be >= 1");
  }
  if (plan.burst_rate > 0.0 && plan.burst_frames_mean < 1.0) {
    return R::failure("fault plan: burst-frames must be >= 1 when burst is set");
  }
  return plan;
}

std::string FaultPlan::to_spec() const {
  std::ostringstream out;
  out.precision(12);
  const char* sep = "";
  auto emit = [&](const char* key, double value, double silent) {
    if (value == silent) return;
    out << sep << key << '=' << value;
    sep = ",";
  };
  emit("corrupt", corrupt_rate, 0.0);
  emit("corrupt-bits", corrupt_bits_max, 8.0);
  emit("truncate", truncate_rate, 0.0);
  emit("drop", drop_rate, 0.0);
  emit("dup", duplicate_rate, 0.0);
  emit("nic-dropout", nic_dropout_rate, 0.0);
  emit("dropout-mean", nic_dropout_mean_s, 30.0);
  emit("skew", clock_skew_max_s, 0.0);
  emit("drift", clock_drift_max_ppm, 0.0);
  emit("reorder", reorder_rate, 0.0);
  emit("reorder-depth", reorder_depth_max, 4.0);
  emit("burst", burst_rate, 0.0);
  emit("burst-frames", burst_frames_mean, 16.0);
  emit("torn", torn_write_rate, 0.0);
  out << sep << "seed=" << seed;
  return out.str();
}

}  // namespace mm::fault
