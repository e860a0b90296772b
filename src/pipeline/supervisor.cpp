#include "pipeline/supervisor.h"

#include <algorithm>

namespace mm::pipeline {

ShardSupervisor::ShardSupervisor(LiveTracker& tracker, SupervisorOptions options)
    : tracker_(tracker),
      options_(options),
      watches_(tracker.shard_count()),
      shard_counters_(tracker.shard_count()) {
  if (options_.poll_interval_s <= 0.0) options_.poll_interval_s = 0.01;
  if (options_.backoff_initial_s <= 0.0) options_.backoff_initial_s = 0.01;
}

ShardSupervisor::~ShardSupervisor() { stop(); }

void ShardSupervisor::start() {
  if (running_) return;
  stopping_.store(false, std::memory_order_release);
  for (std::size_t i = 0; i < watches_.size(); ++i) {
    const ShardHealth health = tracker_.shard_health(i);
    watches_[i].last_heartbeat = health.heartbeat;
    watches_[i].last_frames = health.frames;
    watches_[i].stalled_for_s = 0.0;
  }
  tracker_.set_supervised(true);
  thread_ = std::thread([this] { watch_loop(); });
  running_ = true;
}

void ShardSupervisor::stop() {
  if (!running_) return;
  stopping_.store(true, std::memory_order_release);
  if (thread_.joinable()) thread_.join();
  tracker_.set_supervised(false);
  running_ = false;
}

void ShardSupervisor::watch_loop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    poll_once();
    std::this_thread::sleep_for(
        std::chrono::duration<double>(options_.poll_interval_s));
  }
}

void ShardSupervisor::poll_once() {
  polls_.fetch_add(1, std::memory_order_relaxed);
  for (std::size_t i = 0; i < watches_.size(); ++i) {
    ShardWatch& watch = watches_[i];
    const ShardHealth health = tracker_.shard_health(i);
    if (health.degraded) continue;

    // Frame progress is the ground truth of recovery: a shard that applies
    // events again after a restart has earned a clean slate.
    if (health.frames > watch.last_frames) {
      watch.last_frames = health.frames;
      watch.strikes = 0;
      watch.backoff_armed = false;
    }

    if (health.dead) {
      crashes_.fetch_add(1, std::memory_order_relaxed);
      shard_counters_[i].crashes.fetch_add(1, std::memory_order_relaxed);
      handle_unhealthy(i, watch, /*crashed=*/true);
      continue;
    }

    if (health.busy && health.heartbeat == watch.last_heartbeat) {
      watch.stalled_for_s += options_.poll_interval_s;
      if (watch.stalled_for_s >= options_.stall_timeout_s) {
        stalls_.fetch_add(1, std::memory_order_relaxed);
        shard_counters_[i].stalls.fetch_add(1, std::memory_order_relaxed);
        handle_unhealthy(i, watch, /*crashed=*/false);
      }
      continue;
    }
    watch.stalled_for_s = 0.0;
    watch.last_heartbeat = health.heartbeat;
  }
}

void ShardSupervisor::handle_unhealthy(std::size_t shard, ShardWatch& watch,
                                       bool /*crashed*/) {
  const auto now = std::chrono::steady_clock::now();
  if (watch.backoff_armed && now < watch.next_restart_at) return;

  if (watch.strikes >= options_.max_restarts) {
    tracker_.circuit_break_shard(shard);
    circuit_breaks_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  if (!tracker_.restart_shard(shard)) {
    // A restart whose recovery failed circuit-broke the shard itself.
    if (tracker_.shard_degraded(shard)) circuit_breaks_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  restarts_.fetch_add(1, std::memory_order_relaxed);
  shard_counters_[shard].restarts.fetch_add(1, std::memory_order_relaxed);
  ++watch.strikes;
  watch.stalled_for_s = 0.0;
  watch.backoff_s = watch.backoff_armed
                        ? std::min(watch.backoff_s * 2.0, options_.backoff_max_s)
                        : options_.backoff_initial_s;
  watch.backoff_armed = true;
  watch.next_restart_at = now + std::chrono::duration_cast<
                                    std::chrono::steady_clock::duration>(
                                    std::chrono::duration<double>(watch.backoff_s));
  // Re-anchor on the fresh generation so the replacement isn't instantly
  // judged by the zombie's frozen heartbeat.
  const ShardHealth health = tracker_.shard_health(shard);
  watch.last_heartbeat = health.heartbeat;
  watch.last_frames = health.frames;
}

SupervisorStats ShardSupervisor::stats() const {
  SupervisorStats out;
  out.polls = polls_.load(std::memory_order_relaxed);
  out.stalls_detected = stalls_.load(std::memory_order_relaxed);
  out.crashes_detected = crashes_.load(std::memory_order_relaxed);
  out.restarts = restarts_.load(std::memory_order_relaxed);
  out.circuit_breaks = circuit_breaks_.load(std::memory_order_relaxed);
  out.shards.reserve(shard_counters_.size());
  for (std::size_t i = 0; i < shard_counters_.size(); ++i) {
    SupervisorShardStats s;
    s.restarts = shard_counters_[i].restarts.load(std::memory_order_relaxed);
    s.stalls_detected = shard_counters_[i].stalls.load(std::memory_order_relaxed);
    s.crashes_detected = shard_counters_[i].crashes.load(std::memory_order_relaxed);
    s.degraded = tracker_.shard_degraded(i);
    out.shards.push_back(s);
  }
  return out;
}

}  // namespace mm::pipeline
