#include "trace.h"
#include "workloads.h"

namespace mm::perfbench {

const std::vector<MetricSpec>& end_to_end_metrics() {
  static const std::vector<MetricSpec> metrics = {
      {"setup_s", "s"},         // median of the run's set-ups (input generation)
      {"total_s", "s"},         // raw input -> finished map / answers, median per rep
      {"median_error_m", "m"},  // located position vs ground truth
      {"peak_rss_mb", "MB"},    // peak resident set of the measured repetitions
  };
  return metrics;
}

const std::vector<const char*>& traced_layers() {
  static const std::vector<const char*> layers = {
      "feed_mux", "shard", "wal", "locate", "replay", "tracker",
      "identity", "trajectory", "aprad", "wps",
  };
  return layers;
}

const std::vector<MetricSpec>& per_layer_metrics() {
  static const std::vector<MetricSpec> metrics = [] {
    std::vector<MetricSpec> m;
    const auto add = [&m](std::string name, std::string unit) {
      m.push_back({std::move(name), std::move(unit)});
    };
    add("trace.overhead_s", "s");  // traced minus untraced total_s
    add("trace.spans", "count");
    for (const char* layer : traced_layers()) {
      add(std::string(layer) + ".self_s", "s");
      add(std::string(layer) + ".calls", "count");
    }
    // The workloads' named figures, from the traced repetition.
    add("frames_per_s", "frames/s");
    add("resolve_s", "s");
    add("locate_s", "s");
    add("track_s", "s");
    add("radii_s", "s");
    add("cold_s", "s");
    add("queries_per_s", "queries/s");
    add("pct_tracked", "%");
    // net + pipeline.feed_mux
    for (const char* n : {"wire_frames", "crc_failures", "fec_recovered", "fec_gaps",
                          "fec_duplicates"}) {
      add(std::string("feed_mux.") + n, "count");
    }
    // pipeline.shard
    for (const char* n : {"frames", "publishes", "incremental", "full_recomputes",
                          "ring_high_water"}) {
      add(std::string("shard.") + n, "count");
    }
    add("shard.incremental_ratio", "ratio");
    add("shard.drain_s", "s");
    // durability.wal
    for (const char* n : {"records", "commits", "fsyncs", "segments", "checkpoints"}) {
      add(std::string("wal.") + n, "count");
    }
    add("wal.stop_s", "s");
    // pipeline.locate
    add("locate.p50_us", "us");
    add("locate.p99_us", "us");
    add("locate.count", "count");
    add("locate.hit_ratio", "ratio");
    add("locate.lateness_p50_us", "us");
    add("locate.lateness_p99_us", "us");
    // net80211 + capture.replay
    for (const char* n : {"records", "malformed", "devices"}) {
      add(std::string("replay.") + n, "count");
    }
    // marauder.tracker
    add("tracker.plan_s", "s");
    add("tracker.locate_s", "s");
    add("tracker.merge_s", "s");
    add("tracker.unique_gamma_ratio", "ratio");
    add("tracker.memo_hit_ratio", "ratio");
    add("tracker.outlier_devices", "count");
    // marauder.identity
    add("identity.ingest_s", "s");
    add("identity.resolve_s", "s");
    for (const char* n : {"ssid_edges", "seq_edges", "gamma_edges", "linked_pairs",
                          "identities"}) {
      add(std::string("identity.") + n, "count");
    }
    // marauder.trajectory
    add("trajectory.points", "count");
    add("trajectory.degraded_points", "count");
    // marauder.aprad + lp
    add("aprad.constraint_s", "s");
    add("aprad.lp_s", "s");
    for (const char* n : {"lp_vars", "less_rows", "co_pairs"}) {
      add(std::string("aprad.") + n, "count");
    }
    // wps.service
    add("wps.open_s", "s");
    add("wps.cold_pass_s", "s");
    add("wps.prewarm_s", "s");
    for (const char* n : {"tiles", "quarantined_tiles", "cold_queries", "warm_queries"}) {
      add(std::string("wps.") + n, "count");
    }
    for (const char* phase : {"cold", "warm"}) {
      for (const char* op : {"lookup", "nearest", "range"}) {
        for (const char* q : {"p50", "p99"}) {
          add(std::string("wps.") + phase + "_" + op + "_" + q + "_us", "us");
        }
      }
    }
    return m;
  }();
  return metrics;
}

void add_layer_times(RunResult& result) {
  const auto times = Tracer::layer_times();
  for (const char* layer : traced_layers()) {
    const auto it = times.find(layer);
    const LayerTime lt = it == times.end() ? LayerTime{} : it->second;
    result.layer(std::string(layer) + ".self_s", lt.self_s, "s");
    result.layer(std::string(layer) + ".calls", static_cast<double>(lt.calls), "count");
  }
  result.layer("trace.spans", static_cast<double>(Tracer::span_count()), "count");
}

}  // namespace mm::perfbench
