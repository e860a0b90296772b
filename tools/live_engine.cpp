#include "live_engine.h"

#include <algorithm>
#include <csignal>
#include <fstream>
#include <iostream>
#include <utility>

#include "commands.h"
#include "sim/scenario.h"
#include "util/table.h"

namespace mm::tools {

namespace {

std::atomic<bool> g_stop{false};

/// Upper bounds of --shards and --ring-capacity: each shard is one worker
/// thread and one ring of this many slots at most, so a mistyped value
/// cannot start thousands of threads or reserve gigabytes per shard.
constexpr std::int64_t kMaxShards = 64;
constexpr std::int64_t kMaxRingCapacity = std::int64_t{1} << 20;

extern "C" void live_engine_signal_handler(int) { g_stop.store(true); }

void write_stats_json(const std::string& path, const pipeline::PipelineStats& stats,
                      const FeedReport& feed, bool interrupted) {
  std::ofstream out(path);
  out << "{\n";
  out << "  \"elapsed_s\": " << stats.elapsed_s << ",\n";
  out << "  \"total_frames\": " << stats.total_frames << ",\n";
  out << "  \"total_dropped\": " << stats.total_dropped << ",\n";
  out << "  \"frames_per_sec\": " << stats.frames_per_sec << ",\n";
  out << "  \"directory_size\": " << stats.directory_size << ",\n";
  out << "  \"directory_overflows\": " << stats.directory_overflows << ",\n";
  if (feed.write_json) feed.write_json(out);
  out << "  \"quarantined\": " << feed.quarantined << ",\n";
  out << "  \"interrupted\": " << (interrupted ? "true" : "false") << ",\n";
  out << "  \"durability\": {\"enabled\": "
      << (stats.durability_enabled ? "true" : "false")
      << ", \"wal_records\": " << stats.total_wal_records
      << ", \"checkpoints\": " << stats.total_checkpoints << "},\n";
  const pipeline::RecoveryStats& r = stats.recovery;
  out << "  \"recovery\": {\"performed\": " << (r.performed ? "true" : "false")
      << ", \"checkpoints_loaded\": " << r.checkpoints_loaded
      << ", \"checkpoints_damaged\": " << r.checkpoints_damaged
      << ", \"wal_segments_read\": " << r.wal_segments_read
      << ", \"wal_records_replayed\": " << r.wal_records_replayed
      << ", \"wal_records_skipped\": " << r.wal_records_skipped
      << ", \"wal_torn_tails\": " << r.wal_torn_tails
      << ", \"wal_discarded_records\": " << r.wal_discarded_records
      << ", \"wal_segments_abandoned\": " << r.wal_segments_abandoned
      << ", \"devices_restored\": " << r.devices_restored
      << ", \"positions_republished\": " << r.positions_republished
      << ", \"max_applied_seq\": " << r.max_applied_seq
      << ", \"feed_dropped\": " << feed.dropped
      << ", \"ring_dropped\": " << stats.total_dropped
      << ", \"quarantined\": " << feed.quarantined << "},\n";
  out << "  \"shards\": [\n";
  for (std::size_t i = 0; i < stats.shards.size(); ++i) {
    const pipeline::ShardStats& s = stats.shards[i];
    out << "    {\"frames\": " << s.frames << ", \"frames_per_sec\": " << s.frames_per_sec
        << ", \"contacts\": " << s.contacts << ", \"publishes\": " << s.publishes
        << ", \"devices\": " << s.devices
        << ", \"ring_dropped\": " << s.ring_dropped
        << ", \"ring_high_water\": " << s.ring_high_water
        << ", \"ring_capacity\": " << s.ring_capacity
        << ", \"applied_seq\": " << s.applied_seq
        << ", \"wal_records\": " << s.wal_records
        << ", \"wal_commits\": " << s.wal_commits
        << ", \"wal_segments\": " << s.wal_segments
        << ", \"wal_append_failures\": " << s.wal_append_failures
        << ", \"checkpoints\": " << s.checkpoints
        << ", \"checkpoint_failures\": " << s.checkpoint_failures
        << ", \"dedup_skipped\": " << s.dedup_skipped
        << ", \"restarts\": " << s.restarts << ", \"lost_events\": " << s.lost_events
        << ", \"degraded\": " << (s.degraded ? "true" : "false")
        << ", \"dead\": " << (s.dead ? "true" : "false") << "}"
        << (i + 1 < stats.shards.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
}

}  // namespace

LiveEngine::LiveEngine(std::string who)
    : who_(std::move(who)), frame_(sim::uml_north_campus()) {}

const std::atomic<bool>& LiveEngine::stop_flag() { return g_stop; }

int LiveEngine::open(const util::Flags& flags) {
  pipeline::LiveTrackerConfig config;
  config.shards = static_cast<std::size_t>(flags.get_int_in("shards", 4, 1, kMaxShards));
  config.ring_capacity =
      static_cast<std::size_t>(flags.get_int_in("ring-capacity", 1 << 14, 1, kMaxRingCapacity));
  // Finite and > 0: a shard worker would throw at its first multi-disc
  // locate and exit.
  config.default_radius_m =
      flags.get_double_in("default-radius", 100.0, kMinPositive, kMaxFinite);
  config.mloc.reject_outliers = flags.has("reject-outliers");
  const std::string policy = flags.get("drop-policy", "drop");
  if (policy == "drop") {
    config.drop_policy = pipeline::DropPolicy::kDropNewest;
  } else if (policy == "block") {
    config.drop_policy = pipeline::DropPolicy::kBlock;
  } else {
    std::cerr << who_ << ": unknown --drop-policy '" << policy << "' (drop|block)\n";
    return 2;
  }

  // Phoenix durability: a WAL directory turns on per-shard logging; the
  // checkpoint cadence is the recovery-window dial; --recover replays
  // whatever a previous (possibly crashed) run left there.
  const std::string wal_dir = flags.get("wal-dir", "");
  if (!wal_dir.empty()) {
    config.durability.dir = wal_dir;
    // NaN would pass the tracker's "0 = final only" test, and no elapsed
    // time compares below it, so every poll with new records would
    // checkpoint.
    config.durability.checkpoint_interval_s =
        flags.get_double_in("checkpoint-secs", 30.0, 0.0, kMaxFinite);
    config.durability.wal.fsync_on_commit = !flags.has("no-fsync");
  }
  const bool do_recover = flags.has("recover");
  if (do_recover && wal_dir.empty()) {
    std::cerr << who_ << ": --recover requires --wal-dir\n";
    return 2;
  }

  marauder::CsvImportStats apdb_stats;
  auto db_result = marauder::ApDatabase::from_csv(flags.get("apdb", ""), frame_, &apdb_stats);
  if (!db_result.ok()) {
    std::cerr << who_ << ": --apdb: " << db_result.error() << "\n";
    return 1;
  }
  db_.emplace(std::move(db_result).value());
  if (apdb_stats.quarantined > 0) {
    std::cerr << "apdb: quarantined " << apdb_stats.quarantined << "/"
              << apdb_stats.rows_total << " malformed rows\n";
  }

  tracker_ = std::make_unique<pipeline::LiveTracker>(*db_, config);
  if (!do_recover) return 0;
  auto recovered = tracker_->recover();
  if (!recovered.ok()) {
    std::cerr << who_ << ": --recover: " << recovered.error() << "\n";
    return 1;
  }
  const pipeline::RecoveryStats& r = recovered.value();
  std::cout << "recovered " << r.checkpoints_loaded << " checkpoints, "
            << r.wal_records_replayed << " WAL records replayed ("
            << r.wal_records_skipped << " skipped, " << r.wal_torn_tails
            << " torn tails), " << r.devices_restored << " devices, "
            << r.positions_republished << " positions republished\n";
  return 0;
}

void LiveEngine::start() {
  std::signal(SIGINT, live_engine_signal_handler);
  std::signal(SIGTERM, live_engine_signal_handler);
  tracker_->start();
}

void LiveEngine::stop() {
  tracker_->stop();
  std::signal(SIGINT, SIG_DFL);
  std::signal(SIGTERM, SIG_DFL);
  stats_ = tracker_->stats();
}

int LiveEngine::report(const util::Flags& flags, const FeedReport& feed) const {
  const bool interrupted = g_stop.load();
  if (interrupted) {
    std::cout << "interrupted: rings drained, final checkpoint "
              << (stats_.durability_enabled ? "written" : "skipped (no --wal-dir)")
              << "\n\n";
  }

  util::Table shard_table({"shard", "frames", "frames/s", "contacts", "publishes",
                           "devices", "ring drop", "ring hwm", "wal", "ckpt", "health"});
  bool shard_dead = false;
  for (std::size_t i = 0; i < stats_.shards.size(); ++i) {
    const pipeline::ShardStats& s = stats_.shards[i];
    std::string health = s.degraded       ? "DEGRADED"
                         : s.dead         ? "dead"
                         : s.restarts > 0 ? "restarted x" + std::to_string(s.restarts)
                                          : "ok";
    if (s.wal_dead) health += ", wal dead";
    shard_dead = shard_dead || s.dead;
    shard_table.add_row(
        {std::to_string(i), std::to_string(s.frames), util::Table::fmt(s.frames_per_sec, 0),
         std::to_string(s.contacts), std::to_string(s.publishes),
         std::to_string(s.devices), std::to_string(s.ring_dropped),
         std::to_string(s.ring_high_water) + "/" + std::to_string(s.ring_capacity),
         std::to_string(s.wal_records), std::to_string(s.checkpoints), health});
  }
  shard_table.print(std::cout);
  std::cout << "\n" << feed.summary << stats_.total_frames << " processed in "
            << util::Table::fmt(stats_.elapsed_s, 3) << " s ("
            << util::Table::fmt(stats_.frames_per_sec, 0) << " frames/s)\n\n";

  auto snapshot = tracker_->snapshot();
  std::sort(snapshot.begin(), snapshot.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  util::Table device_table(
      {"device", "x (m)", "y (m)", "lat", "lon", "|Gamma|", "updates", "degraded"});
  for (const auto& [mac, pos] : snapshot) {
    const geo::Geodetic g = frame_.to_geodetic({pos.x_m, pos.y_m});
    std::string degraded = pos.used_fallback != 0 ? "fallback"
                           : pos.discs_rejected > 0
                               ? std::to_string(pos.discs_rejected) + " discs rejected"
                               : "";
    if (pos.shard_degraded != 0) {
      degraded = degraded.empty() ? "shard down" : degraded + ", shard down";
    }
    device_table.add_row(
        {mac.to_string(), util::Table::fmt(pos.x_m, 1), util::Table::fmt(pos.y_m, 1),
         util::Table::fmt(g.lat_deg, 6), util::Table::fmt(g.lon_deg, 6),
         std::to_string(pos.gamma_size), std::to_string(pos.updates), degraded});
  }
  device_table.print(std::cout);
  std::cout << "\ntracking " << snapshot.size() << " devices live\n";

  const std::string json_path = flags.get("stats-json", "");
  if (!json_path.empty()) {
    write_stats_json(json_path, stats_, feed, interrupted);
    std::cout << "wrote " << json_path << "\n";
  }
  if (interrupted) return 130;
  if (shard_dead) {
    std::cerr << who_ << ": a shard worker died; its unapplied events are lost\n";
    return 1;
  }
  return 0;
}

}  // namespace mm::tools
