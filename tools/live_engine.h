// The live-engine front end of `mmctl live` and `mmctl net-recv`.
//
// Both commands run one tracking engine (Riptide, DESIGN.md §8, with
// Phoenix durability, §9); they differ only in how events reach it — a
// pcap replay or Lattice wire streams (§12). Everything around the feed
// lives here once: the LiveTrackerConfig and durability flags, the --apdb
// load, --recover, the SIGINT/SIGTERM stop flag, the shard and device
// tables, and the --stats-json writer. A command keeps its feed, the feed's
// flags, and whatever the feed adds to the report.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <optional>
#include <string>

#include "geo/geodetic.h"
#include "marauder/ap_database.h"
#include "pipeline/live_tracker.h"
#include "util/flags.h"

namespace mm::tools {

/// What a feed hands the engine's report once the tracker has stopped.
struct FeedReport {
  /// Opens the throughput line under the shard table ("N records -> ...").
  std::string summary;
  std::uint64_t dropped = 0;      ///< events refused by a full ring (kDropNewest)
  std::uint64_t quarantined = 0;  ///< input records discarded as malformed
  /// Writes the feed's own top-level stats-JSON members, each line ending
  /// in ",\n".
  std::function<void(std::ostream&)> write_json;
};

class LiveEngine {
 public:
  /// `who` ("mmctl live") prefixes every error message.
  explicit LiveEngine(std::string who);
  LiveEngine(const LiveEngine&) = delete;
  LiveEngine& operator=(const LiveEngine&) = delete;

  /// Parses the shared flags (--shards, --ring-capacity, --drop-policy,
  /// --default-radius, --reject-outliers, --wal-dir, --checkpoint-secs,
  /// --no-fsync, --recover), loads --apdb and builds the tracker; with
  /// --recover it replays what --wal-dir holds and prints one report line.
  /// Returns 0, or the exit code to quit with (2: bad flag, 1: bad input).
  [[nodiscard]] int open(const util::Flags& flags);

  /// Installs the SIGINT/SIGTERM stop flag and starts the shards.
  void start();
  /// Drains every ring and writes the final checkpoint — the same path
  /// whether the feed ended or a signal stopped it — then restores the
  /// default signal handlers and snapshots stats().
  void stop();

  [[nodiscard]] pipeline::LiveTracker& tracker() { return *tracker_; }
  /// Set by SIGINT/SIGTERM. A feed polls it between events, so a Ctrl-C
  /// lands between two frames and the report still comes out.
  [[nodiscard]] static const std::atomic<bool>& stop_flag();
  /// The engine's counters as of stop().
  [[nodiscard]] const pipeline::PipelineStats& stats() const { return stats_; }

  /// Prints the shard table, the feed's throughput line and the device
  /// table, writes --stats-json, and returns the exit code: 130 after a
  /// signal, else 1 when a shard's worker is dead at exit, else 0.
  [[nodiscard]] int report(const util::Flags& flags, const FeedReport& feed) const;

 private:
  std::string who_;
  geo::EnuFrame frame_;
  std::optional<marauder::ApDatabase> db_;
  std::unique_ptr<pipeline::LiveTracker> tracker_;
  pipeline::PipelineStats stats_;
};

}  // namespace mm::tools
