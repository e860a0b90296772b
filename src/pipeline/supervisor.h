// Phoenix's ShardSupervisor: the watchdog that keeps Riptide's partitions
// alive (DESIGN.md section 9).
//
// A background thread samples every shard's health on a fixed cadence:
//   - a worker whose thread exited on an exception is *crashed*;
//   - a worker whose heartbeat has not moved for stall_timeout_s while the
//     shard is busy (ring non-empty or an event mid-flight) is *wedged* —
//     an idle shard parked on yield() is healthy no matter how still it is.
// Either way the shard is restarted: LiveTracker swaps in a fresh generation
// recovered from the shard's checkpoint + WAL, and the other shards never
// notice. Restarts back off exponentially; applying frames again resets the
// strike counter; a shard that crash-loops past max_restarts is circuit-
// broken — its partition is marked degraded and queries for its devices
// carry the flag from then on. So is a shard whose restart cannot recover
// its state (LiveTracker::restart_shard), counted in circuit_breaks too.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include "pipeline/live_tracker.h"

namespace mm::pipeline {

struct SupervisorOptions {
  double poll_interval_s = 0.05;
  /// Heartbeat frozen this long while busy = wedged.
  double stall_timeout_s = 0.5;
  /// Consecutive restarts (without frame progress in between) before the
  /// breaker trips.
  std::size_t max_restarts = 5;
  double backoff_initial_s = 0.05;
  double backoff_max_s = 2.0;
};

struct SupervisorShardStats {
  std::uint64_t restarts = 0;
  std::uint64_t stalls_detected = 0;
  std::uint64_t crashes_detected = 0;
  bool degraded = false;
};

struct SupervisorStats {
  std::uint64_t polls = 0;
  std::uint64_t stalls_detected = 0;
  std::uint64_t crashes_detected = 0;
  std::uint64_t restarts = 0;
  std::uint64_t circuit_breaks = 0;
  std::vector<SupervisorShardStats> shards;
};

class ShardSupervisor {
 public:
  /// The tracker is borrowed and must outlive the supervisor. Start the
  /// supervisor after tracker.start() and stop it before tracker.stop().
  ShardSupervisor(LiveTracker& tracker, SupervisorOptions options);
  ~ShardSupervisor();

  ShardSupervisor(const ShardSupervisor&) = delete;
  ShardSupervisor& operator=(const ShardSupervisor&) = delete;

  /// Marks the tracker supervised (LiveTracker::set_supervised) and starts
  /// the watchdog.
  void start();
  /// Joins the watchdog, then marks the tracker unsupervised; idempotent.
  void stop();
  [[nodiscard]] bool running() const noexcept { return running_; }

  [[nodiscard]] SupervisorStats stats() const;

 private:
  struct ShardWatch {
    std::uint64_t last_heartbeat = 0;
    std::uint64_t last_frames = 0;
    double stalled_for_s = 0.0;
    std::size_t strikes = 0;  ///< consecutive restarts without progress
    double backoff_s = 0.0;
    std::chrono::steady_clock::time_point next_restart_at{};
    bool backoff_armed = false;
  };

  void watch_loop();
  void poll_once();
  void handle_unhealthy(std::size_t shard, ShardWatch& watch, bool crashed);

  LiveTracker& tracker_;
  SupervisorOptions options_;
  std::vector<ShardWatch> watches_;
  std::thread thread_;
  std::atomic<bool> stopping_{false};
  bool running_ = false;

  std::atomic<std::uint64_t> polls_{0};
  std::atomic<std::uint64_t> stalls_{0};
  std::atomic<std::uint64_t> crashes_{0};
  std::atomic<std::uint64_t> restarts_{0};
  std::atomic<std::uint64_t> circuit_breaks_{0};
  /// Per-shard counters, written only by the watchdog thread.
  struct ShardCounters {
    std::atomic<std::uint64_t> restarts{0};
    std::atomic<std::uint64_t> stalls{0};
    std::atomic<std::uint64_t> crashes{0};
  };
  std::vector<ShardCounters> shard_counters_;
};

}  // namespace mm::pipeline
