// Riptide's observable surface: per-shard and whole-engine counters snapshot
// by LiveTracker::stats() and rendered by `mmctl live` (and serialized into
// BENCH_pipeline.json by bench_live_throughput). Everything here is a plain
// copied value — reading stats never touches the hot path beyond relaxed
// atomic loads.
#pragma once

#include <cstdint>
#include <vector>

namespace mm::pipeline {

struct ShardStats {
  std::uint64_t frames = 0;               ///< events popped and applied
  std::uint64_t contacts = 0;             ///< Gamma-building events among them
  std::uint64_t publishes = 0;            ///< seqlock position publishes
  /// Always zero: a publish is one mloc_locate, with no cached region to
  /// extend or recompute. These two remain only because the perfbench
  /// live_fabric workload still reads them; they go with its next change.
  std::uint64_t incremental_updates = 0;
  std::uint64_t full_recomputes = 0;
  std::uint64_t devices = 0;              ///< devices owned by this shard's store
  std::uint64_t ring_pushed = 0;
  std::uint64_t ring_dropped = 0;
  /// Sampled peak ring occupancy; the capacity once a push was refused
  /// (FrameRing::high_water_mark).
  std::uint64_t ring_high_water = 0;
  std::uint64_t ring_capacity = 0;
  double frames_per_sec = 0.0;            ///< frames / engine wall-clock

  // Phoenix durability (zero when the WAL is off).
  std::uint64_t applied_seq = 0;          ///< exactly-once high-water mark
  std::uint64_t wal_records = 0;
  std::uint64_t wal_commits = 0;
  std::uint64_t wal_fsyncs = 0;
  std::uint64_t wal_segments = 0;
  std::uint64_t wal_append_failures = 0;
  std::uint64_t checkpoints = 0;
  std::uint64_t checkpoint_failures = 0;
  std::uint64_t dedup_skipped = 0;        ///< re-fed events already applied pre-crash
  bool wal_dead = false;                  ///< writer gave up after an I/O failure

  // Phoenix supervision.
  std::uint64_t restarts = 0;             ///< generations swapped in by the supervisor
  std::uint64_t lost_events = 0;          ///< ring events unrecoverable at restart
  bool degraded = false;                  ///< circuit-broken: partition has no worker
  /// The current worker exited on an exception: the rest of its ring is
  /// never applied unless a supervisor restarts the shard.
  bool dead = false;
};

/// What recover() did — kept by the tracker and surfaced in `mmctl live
/// --stats-json` so an operator can see how much of the pre-crash run came
/// back and what the torn tails cost.
struct RecoveryStats {
  bool performed = false;
  std::uint64_t checkpoints_loaded = 0;
  std::uint64_t checkpoints_damaged = 0;   ///< newer checkpoints skipped as unusable
  std::uint64_t wal_segments_read = 0;
  std::uint64_t wal_records_replayed = 0;
  std::uint64_t wal_records_skipped = 0;   ///< already covered by a checkpoint
  std::uint64_t wal_torn_tails = 0;
  std::uint64_t wal_discarded_records = 0;  ///< lower bound: frames in torn tails
  std::uint64_t wal_segments_abandoned = 0; ///< after a mid-log torn segment
  std::uint64_t devices_restored = 0;
  std::uint64_t positions_republished = 0;
  std::uint64_t max_applied_seq = 0;
};

struct PipelineStats {
  std::vector<ShardStats> shards;
  double elapsed_s = 0.0;          ///< start() to stop() (or to now if running)
  std::uint64_t total_frames = 0;
  std::uint64_t total_dropped = 0;
  double frames_per_sec = 0.0;
  std::uint64_t directory_size = 0;       ///< devices with a published position
  std::uint64_t directory_overflows = 0;  ///< publishes refused: table at load limit

  // Phoenix rollups.
  bool durability_enabled = false;
  std::uint64_t total_wal_records = 0;
  std::uint64_t total_checkpoints = 0;
  std::uint64_t total_restarts = 0;
  std::uint64_t degraded_shards = 0;
  RecoveryStats recovery{};  ///< zeroed when recover() never ran

  /// Always zero: locate() takes no lock and keeps no latency samples.
  /// These remain only because the perfbench live_fabric trace still reads
  /// them; they go with its next change.
  std::uint64_t locate_count = 0;
  double locate_p50_us = 0.0;
  double locate_p99_us = 0.0;
};

}  // namespace mm::pipeline
