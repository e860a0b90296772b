#include "pipeline/live_tracker.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>
#include <unordered_set>

#include "durability/checkpoint.h"
#include "util/counters.h"

namespace mm::pipeline {

/// A device's known-AP discs in AP-MAC order, the order batch M-Loc takes
/// them in; every publish is mloc_locate over `discs`.
struct LiveTracker::DeviceState {
  std::vector<net80211::MacAddress> aps;  ///< ascending
  std::vector<geo::Circle> discs;         ///< aligned with aps
  SeqlockSlot* slot = nullptr;
};

/// One *generation* of a shard: a ring, a worker thread, and the state only
/// that worker touches. Counters the stats()/supervision surfaces read while
/// the engine runs are atomics; everything else is worker-private by the
/// ownership discipline. A supervisor restart swaps the whole generation —
/// the abandoned one is fenced out of publishing (see process_event) and
/// parked in the shard's graveyard until stop() can join it.
struct LiveTracker::ShardState {
  explicit ShardState(const LiveTrackerConfig& config)
      : ring(config.ring_capacity), store(config.store) {}

  FrameRing ring;
  std::thread thread;

  // Worker-private (single writer; external reads only after stop(), or by
  // restart_shard after the worker is fenced/joined).
  capture::ObservationStore store;
  std::unordered_map<net80211::MacAddress, DeviceState, net80211::MacHasher> devices;
  /// Devices whose records changed since the last summary flush
  /// (worker-private; drained by flush_summaries).
  std::unordered_set<net80211::MacAddress, net80211::MacHasher> summary_dirty;
  /// Chimera summary board: DeviceSummary of every device this shard owns.
  /// The one shard structure read cross-thread while running — guarded by
  /// its mutex, written only on ring-idle/shutdown flushes so the ingest hot
  /// path never touches the lock.
  mutable std::mutex summary_mutex;
  std::unordered_map<net80211::MacAddress, marauder::DeviceSummary, net80211::MacHasher>
      summaries;  // guarded by summary_mutex
  std::unique_ptr<durability::WalWriter> wal;
  std::uint64_t applied_seq = 0;  ///< exactly-once high-water mark
  std::uint64_t checkpointed_seq = 0;
  bool has_checkpoint = false;
  bool checkpoint_anchored = false;
  std::chrono::steady_clock::time_point last_checkpoint{};
  std::size_t maintenance_tick = 0;

  // Read live by stats().
  std::atomic<std::uint64_t> frames{0};
  std::atomic<std::uint64_t> contacts{0};
  std::atomic<std::uint64_t> publishes{0};
  std::atomic<std::uint64_t> device_count{0};
  std::atomic<std::uint64_t> applied_seq_pub{0};
  std::atomic<std::uint64_t> dedup_skipped{0};
  std::atomic<std::uint64_t> wal_records{0};
  std::atomic<std::uint64_t> wal_commits{0};
  std::atomic<std::uint64_t> wal_fsyncs{0};
  std::atomic<std::uint64_t> wal_segments{0};
  std::atomic<std::uint64_t> wal_append_failures{0};
  std::atomic<bool> wal_dead{false};
  std::atomic<std::uint64_t> checkpoints{0};
  std::atomic<std::uint64_t> checkpoint_failures{0};

  // Supervision (watchdog samples these; the worker publishes them).
  std::atomic<std::uint64_t> heartbeat{0};
  std::atomic<bool> in_event{false};
  /// The fence: set (release) by restart/circuit-break before the
  /// replacement state becomes visible. The worker checks it right after the
  /// ingest hook and before the WAL append / store apply / seqlock publish,
  /// so a zombie that wakes up after being superseded cannot double-write.
  std::atomic<bool> abandoned{false};
  std::atomic<bool> dead{false};  ///< worker exited via an exception
};

/// The stable per-partition anchor: producers and queries reach the current
/// generation through the atomic pointer; the supervisor swaps it.
struct LiveTracker::Shard {
  std::atomic<ShardState*> state{nullptr};
  std::unique_ptr<ShardState> owned;                    // lifecycle_mutex_
  std::vector<std::unique_ptr<ShardState>> graveyard;   // lifecycle_mutex_
  std::atomic<bool> degraded{false};
  std::atomic<std::uint64_t> restarts{0};
  std::atomic<std::uint64_t> lost_events{0};
};

LiveTracker::LiveTracker(const marauder::ApDatabase& db, LiveTrackerConfig config)
    : db_(db),
      config_(std::move(config)),
      directory_(config_.directory_capacity) {
  if (config_.shards == 0) config_.shards = 1;
  if (config_.durability.enabled()) {
    for (std::size_t i = 0; i < config_.shards; ++i) {
      std::filesystem::create_directories(shard_dir(i));
    }
  }
  shards_.reserve(config_.shards);
  for (std::size_t i = 0; i < config_.shards; ++i) {
    auto shard = std::make_unique<Shard>();
    shard->owned = make_state(i);
    shard->state.store(shard->owned.get(), std::memory_order_release);
    shards_.push_back(std::move(shard));
  }
}

LiveTracker::~LiveTracker() { stop(); }

std::filesystem::path LiveTracker::shard_dir(std::size_t shard) const {
  return config_.durability.dir / ("shard-" + std::to_string(shard));
}

std::unique_ptr<LiveTracker::ShardState> LiveTracker::make_state(
    std::size_t shard) const {
  auto state = std::make_unique<ShardState>(config_);
  if (config_.durability.enabled()) {
    state->wal = std::make_unique<durability::WalWriter>(
        shard_dir(shard), static_cast<std::uint32_t>(shard), config_.durability.wal);
  }
  return state;
}

util::Result<RecoveryStats> LiveTracker::recover() {
  using R = util::Result<RecoveryStats>;
  if (running_) return R::failure("recover: engine is running");
  RecoveryStats stats;
  stats.performed = true;
  if (config_.durability.enabled()) {
    for (std::size_t i = 0; i < shards_.size(); ++i) {
      auto recovered = recover_state(i, *shards_[i]->owned, stats);
      if (!recovered.ok()) return R::failure(recovered.error());
    }
  }
  recovery_ = stats;
  return stats;
}

util::Result<bool> LiveTracker::recover_state(std::size_t shard, ShardState& state,
                                              RecoveryStats& stats) {
  using R = util::Result<bool>;
  const std::filesystem::path dir = shard_dir(shard);

  auto loaded = durability::load_latest_checkpoint(dir, config_.store);
  if (!loaded.ok()) return R::failure(loaded.error());
  if (loaded.value().has_value()) {
    durability::LoadedCheckpoint ck = *std::move(loaded).value();
    state.store = std::move(ck.store);
    state.applied_seq = ck.meta.applied_seq;
    state.checkpointed_seq = ck.meta.applied_seq;
    state.has_checkpoint = true;
    state.frames.store(ck.meta.frames, std::memory_order_relaxed);
    state.contacts.store(ck.meta.contacts, std::memory_order_relaxed);
    ++stats.checkpoints_loaded;
    stats.checkpoints_damaged += ck.damaged_skipped;
    stats.checkpoint_rows_loaded += ck.load_stats.rows_loaded;
    stats.checkpoint_rows_quarantined += ck.load_stats.quarantined;
  }

  auto replayed = durability::replay_wal(
      dir, state.applied_seq, [&](const durability::WalRecord& record) {
        capture::apply_event(record.event, state.store);
        state.frames.fetch_add(1, std::memory_order_relaxed);
        if (record.event.kind == capture::FrameEventKind::kContact) {
          state.contacts.fetch_add(1, std::memory_order_relaxed);
        }
      });
  if (!replayed.ok()) return R::failure(replayed.error());
  const durability::WalReplayStats& wal = replayed.value();
  state.applied_seq = std::max(state.applied_seq, wal.max_seq);
  state.applied_seq_pub.store(state.applied_seq, std::memory_order_relaxed);
  state.device_count.store(state.store.device_count(), std::memory_order_relaxed);
  stats.wal_segments_read += wal.segments_read;
  stats.wal_records_replayed += wal.records_replayed;
  stats.wal_records_skipped += wal.records_skipped;
  stats.wal_torn_tails += wal.torn_tails;
  stats.wal_discarded_records += wal.discarded_records;
  stats.wal_segments_abandoned += wal.segments_abandoned;
  stats.devices_restored += state.store.device_count();
  stats.max_applied_seq = std::max(stats.max_applied_seq, state.applied_seq);

  rebuild_live_state(state, &stats);
  return true;
}

void LiveTracker::rebuild_live_state(ShardState& state, RecoveryStats* stats) {
  // The live M-Loc state is a pure function of the restored store: per
  // device, the discs of its database-known contact APs in ascending MAC
  // order (the contact map's order), published once. That publish is
  // mloc_locate over the very discs the uninterrupted run's last publish
  // used, so it is bit-identical; `updates` is the disc count because every
  // Gamma growth published exactly once; `updated_at_s` is the first_seen of
  // the newest-contacted known AP, which is the capture time of the event
  // that produced the uninterrupted run's last publish.
  std::uint64_t earlier_publishes = 0;
  for (const net80211::MacAddress& mac : state.store.devices()) {
    const capture::DeviceRecord* rec = state.store.device(mac);
    DeviceState* device = nullptr;
    double updated_at_s = 0.0;
    for (const auto& [ap, contact] : rec->contacts) {
      const marauder::KnownAp* known = db_.find(ap);
      if (known == nullptr) continue;
      if (device == nullptr) device = &state.devices[mac];
      device->aps.push_back(ap);
      device->discs.push_back(disc_of(*known));
      updated_at_s = std::max(updated_at_s, contact.first_seen);
    }
    if (device == nullptr) continue;
    // The uninterrupted run published once per disc; the last of those is
    // the one below, which counts itself.
    earlier_publishes += device->discs.size() - 1;
    publish_device(state, mac, *device, updated_at_s);
    if (stats != nullptr && device->slot != nullptr) ++stats->positions_republished;
  }
  state.publishes.fetch_add(earlier_publishes, std::memory_order_relaxed);

  // The summary board is a pure function of the restored store too.
  for (const net80211::MacAddress& mac : state.store.devices()) {
    state.summary_dirty.insert(mac);
  }
  flush_summaries(state);
}

void LiveTracker::start() {
  if (running_) return;
  stopping_.store(false, std::memory_order_release);
  started_at_ = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    if (shards_[i]->degraded.load(std::memory_order_relaxed)) continue;
    start_worker(i, *shards_[i]->owned);
  }
  running_ = true;
}

void LiveTracker::start_worker(std::size_t shard, ShardState& state) {
  state.thread = std::thread([this, shard, s = &state] { worker_loop(shard, *s); });
}

void LiveTracker::stop() {
  if (!running_) return;
  stopping_.store(true, std::memory_order_release);
  const std::lock_guard<std::mutex> lock(lifecycle_mutex_);
  for (auto& shard : shards_) {
    if (shard->owned->thread.joinable()) shard->owned->thread.join();
    // Abandoned generations exit at their next fence check (a wedged worker
    // must have been released by now — in-process supervision cannot free a
    // thread that never runs again).
    for (auto& zombie : shard->graveyard) {
      if (zombie->thread.joinable()) zombie->thread.join();
    }
  }
  elapsed_s_ = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                             started_at_)
                   .count();
  running_ = false;
}

std::size_t LiveTracker::shard_for(const net80211::MacAddress& key) const noexcept {
  return util::shard_of(util::mix64(key.to_u64()), shards_.size());
}

bool LiveTracker::push(const capture::FrameEvent& event) {
  Shard& shard = *shards_[shard_for(event.partition_key())];
  std::size_t spins = 0;
  for (;;) {
    if (shard.degraded.load(std::memory_order_acquire)) {
      // Circuit-broken: nobody will ever drain this partition. Dropping is
      // the only option that keeps kBlock producers from deadlocking.
      util::sat_fetch_add(shard.lost_events);
      return false;
    }
    // Re-read the generation every attempt: a supervisor restart swaps the
    // ring, and blocked producers must migrate to the replacement.
    ShardState* state = shard.state.load(std::memory_order_acquire);
    if (state->ring.try_push(event)) return true;
    if (config_.drop_policy == DropPolicy::kDropNewest) {
      state->ring.count_drop();
      return false;
    }
    // kBlock: lossless mode; space appears as soon as the worker catches up.
    // Yield first, but on an oversubscribed host a blocked producer that
    // only ever yields keeps getting rescheduled and starves the very worker
    // it is waiting on — after a burst of failed yields, sleep long enough
    // for the worker to drain a real batch.
    if (++spins < 64) {
      std::this_thread::yield();
    } else {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  }
}

void LiveTracker::worker_loop(std::size_t shard, ShardState& state) {
  try {
    capture::FrameEvent event;
    for (;;) {
      state.heartbeat.fetch_add(1, std::memory_order_relaxed);
      if (state.abandoned.load(std::memory_order_acquire)) return;
      if (state.ring.try_pop(event)) {
        process_event(shard, state, event);
        // A saturated ring never goes idle, so the checkpoint clock is also
        // polled on a sparse frame cadence.
        if ((++state.maintenance_tick & 0xFFF) == 0) {
          maybe_checkpoint(shard, state, /*force=*/false);
        }
        continue;
      }
      idle_maintenance(shard, state);
      if (stopping_.load(std::memory_order_acquire)) {
        // Producers are done once stop() is called; one more drain pass
        // catches anything published between the failed pop and the flag.
        if (!state.ring.try_pop(event)) break;
        process_event(shard, state, event);
        continue;
      }
      std::this_thread::yield();
    }
    // Clean shutdown: everything is drained. Seal the WAL (fsync'd even when
    // per-commit fsync is off) and leave a final checkpoint so the next start
    // recovers without replay.
    if (state.wal != nullptr && !state.wal->failed()) {
      (void)state.wal->seal();
      mirror_wal_stats(state);
    }
    flush_summaries(state);
    maybe_checkpoint(shard, state, /*force=*/true);
  } catch (...) {
    // The supervisor sees `dead` and swaps in a fresh generation recovered
    // from this shard's WAL + checkpoint.
    state.dead.store(true, std::memory_order_release);
  }
}

void LiveTracker::process_event(std::size_t shard, ShardState& state,
                                const capture::FrameEvent& event) {
  state.in_event.store(true, std::memory_order_relaxed);
  state.heartbeat.fetch_add(1, std::memory_order_relaxed);
  if (config_.ingest_hook) config_.ingest_hook(shard, event);
  // Zombie fence: if the supervisor abandoned this generation while the
  // worker was stalled (in tests the hook above IS the stall), the thread
  // must not touch the WAL, the store, or the seqlock slots its replacement
  // now owns.
  if (state.abandoned.load(std::memory_order_acquire)) {
    state.in_event.store(false, std::memory_order_relaxed);
    return;
  }

  // Exactly-once cursor: events carry the feed-assigned stream sequence
  // (raw pushes get a synthesized per-shard one). A recovery re-feed routes
  // the whole capture through here again; everything at or below the
  // recovered high-water mark was already applied before the crash.
  const std::uint64_t seq =
      event.stream_seq != 0 ? event.stream_seq : state.applied_seq + 1;
  if (seq <= state.applied_seq) {
    state.dedup_skipped.fetch_add(1, std::memory_order_relaxed);
    state.in_event.store(false, std::memory_order_relaxed);
    return;
  }

  if (state.wal != nullptr && !state.wal->failed()) {
    // The codec stores the seq itself (the decoder re-stamps stream_seq from
    // it), so the event is logged in place — no record copy on the hot path.
    (void)state.wal->append(seq, event);  // failure recorded in stats; stay live
    // Mirroring into the published atomics is commit-cadence work, not
    // per-frame work; a dead writer is mirrored immediately so the stats
    // show the failure.
    if (state.wal->buffered_records() == 0 || state.wal->failed()) {
      mirror_wal_stats(state);
    }
  }

  capture::apply_event(event, state.store);
  if (event.kind != capture::FrameEventKind::kBeacon) {
    state.summary_dirty.insert(event.device);
  }
  state.applied_seq = seq;
  state.applied_seq_pub.store(seq, std::memory_order_relaxed);
  state.frames.fetch_add(1, std::memory_order_relaxed);
  state.device_count.store(state.store.device_count(), std::memory_order_relaxed);
  if (event.kind == capture::FrameEventKind::kContact) {
    state.contacts.fetch_add(1, std::memory_order_relaxed);
    // Gamma gained evidence; if the AP is database-known the device's disc
    // set may grow, which is the only thing that can move its M-Loc estimate.
    const marauder::KnownAp* ap = db_.find(event.ap);
    if (ap != nullptr) {
      DeviceState& device = state.devices[event.device];
      const auto it = std::lower_bound(device.aps.begin(), device.aps.end(), event.ap);
      if (it == device.aps.end() || *it != event.ap) {
        const auto pos = it - device.aps.begin();
        device.aps.insert(it, event.ap);
        device.discs.insert(device.discs.begin() + pos, disc_of(*ap));
        publish_device(state, event.device, device, event.time_s);
      }
    }
  }
  state.in_event.store(false, std::memory_order_relaxed);
}

geo::Circle LiveTracker::disc_of(const marauder::KnownAp& ap) const {
  return {ap.position, ap.radius_m.value_or(config_.default_radius_m)};
}

void LiveTracker::publish_device(ShardState& state, const net80211::MacAddress& mac,
                                 DeviceState& device, double event_time_s) {
  if (device.slot == nullptr) {
    device.slot = directory_.insert(mac);
    if (device.slot == nullptr) {
      directory_overflows_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
  }
  const marauder::LocalizationResult result =
      marauder::mloc_locate(device.discs, config_.mloc);
  LivePosition position;
  position.x_m = result.estimate.x;
  position.y_m = result.estimate.y;
  position.updated_at_s = event_time_s;
  position.gamma_size = static_cast<std::uint32_t>(device.discs.size());
  position.ok = result.ok ? 1 : 0;
  position.used_fallback = result.used_fallback ? 1 : 0;
  position.discs_rejected = static_cast<std::uint16_t>(result.discs_rejected);
  position.updates = device.discs.size();
  device.slot->publish(position);
  state.publishes.fetch_add(1, std::memory_order_relaxed);
}

void LiveTracker::idle_maintenance(std::size_t shard, ShardState& state) {
  if (state.wal != nullptr && !state.wal->failed() &&
      state.wal->buffered_records() > 0) {
    // Ring idle: close the group early so quiet periods leave no long
    // uncommitted tail for a crash to eat.
    (void)state.wal->commit();
    mirror_wal_stats(state);
  }
  flush_summaries(state);
  maybe_checkpoint(shard, state, /*force=*/false);
}

void LiveTracker::flush_summaries(ShardState& state) {
  if (state.summary_dirty.empty()) return;
  // Summarize outside the lock (store reads are worker-private), then move
  // the batch onto the board in one short critical section.
  std::vector<marauder::DeviceSummary> fresh;
  fresh.reserve(state.summary_dirty.size());
  for (const net80211::MacAddress& mac : state.summary_dirty) {
    const capture::DeviceRecord* rec = state.store.device(mac);
    if (rec != nullptr) fresh.push_back(marauder::summarize_device(*rec));
  }
  state.summary_dirty.clear();
  const std::lock_guard<std::mutex> lock(state.summary_mutex);
  for (marauder::DeviceSummary& summary : fresh) {
    state.summaries[summary.mac] = std::move(summary);
  }
}

void LiveTracker::maybe_checkpoint(std::size_t shard, ShardState& state, bool force) {
  if (!config_.durability.enabled()) return;
  if (state.has_checkpoint && state.checkpointed_seq == state.applied_seq) {
    return;  // nothing new to snapshot (also skips redundant final writes)
  }
  const auto now = std::chrono::steady_clock::now();
  if (!force) {
    if (config_.durability.checkpoint_interval_s <= 0.0) return;
    if (!state.checkpoint_anchored) {
      state.checkpoint_anchored = true;
      state.last_checkpoint = now;
      return;
    }
    const double since =
        std::chrono::duration<double>(now - state.last_checkpoint).count();
    if (since < config_.durability.checkpoint_interval_s) return;
  }
  state.checkpoint_anchored = true;
  state.last_checkpoint = now;  // advance even on failure: no hammering a bad disk

  durability::CheckpointMeta meta;
  meta.shard = static_cast<std::uint32_t>(shard);
  meta.shard_count = static_cast<std::uint32_t>(shards_.size());
  meta.applied_seq = state.applied_seq;
  meta.frames = state.frames.load(std::memory_order_relaxed);
  meta.contacts = state.contacts.load(std::memory_order_relaxed);
  meta.publishes = state.publishes.load(std::memory_order_relaxed);
  auto written = durability::write_checkpoint(shard_dir(shard), meta, state.store,
                                              config_.durability.checkpoint_save);
  if (written.ok()) {
    state.checkpointed_seq = state.applied_seq;
    state.has_checkpoint = true;
    state.checkpoints.fetch_add(1, std::memory_order_relaxed);
    durability::reclaim_wal_segments(shard_dir(shard), state.applied_seq);
  } else {
    util::sat_fetch_add(state.checkpoint_failures);
  }
}

void LiveTracker::mirror_wal_stats(ShardState& state) const {
  const durability::WalWriterStats& s = state.wal->stats();
  state.wal_records.store(s.records, std::memory_order_relaxed);
  state.wal_commits.store(s.commits, std::memory_order_relaxed);
  state.wal_fsyncs.store(s.fsyncs, std::memory_order_relaxed);
  state.wal_segments.store(s.segments_opened, std::memory_order_relaxed);
  state.wal_append_failures.store(s.append_failures, std::memory_order_relaxed);
  state.wal_dead.store(state.wal->failed(), std::memory_order_relaxed);
}

ShardHealth LiveTracker::shard_health(std::size_t shard) const {
  const Shard& s = *shards_.at(shard);
  const ShardState* state = s.state.load(std::memory_order_acquire);
  ShardHealth health;
  health.heartbeat = state->heartbeat.load(std::memory_order_relaxed);
  health.frames = state->frames.load(std::memory_order_relaxed);
  health.busy =
      state->in_event.load(std::memory_order_relaxed) || state->ring.size() > 0;
  health.dead = state->dead.load(std::memory_order_acquire);
  health.degraded = s.degraded.load(std::memory_order_relaxed);
  return health;
}

bool LiveTracker::restart_shard(std::size_t shard) {
  const std::lock_guard<std::mutex> lock(lifecycle_mutex_);
  if (!running_ || stopping_.load(std::memory_order_acquire)) return false;
  Shard& s = *shards_.at(shard);
  if (s.degraded.load(std::memory_order_relaxed)) return false;

  ShardState* old = s.owned.get();
  // Fence the old worker out before anything else: from here on it cannot
  // append to the WAL, mutate the store, or publish to the directory.
  old->abandoned.store(true, std::memory_order_release);
  const bool old_dead = old->dead.load(std::memory_order_acquire);
  if (old_dead && old->thread.joinable()) old->thread.join();

  auto fresh = make_state(shard);
  if (config_.durability.enabled()) {
    RecoveryStats scratch;
    // Failure here means the durability directory itself is unreadable; the
    // partition continues with whatever state was recoverable (possibly
    // empty) rather than staying wedged.
    (void)recover_state(shard, *fresh, scratch);
  }
  ShardState* fresh_ptr = fresh.get();
  s.state.store(fresh_ptr, std::memory_order_release);

  if (old_dead) {
    // The old worker is joined, so we are the ring's only consumer: carry
    // its backlog over to the replacement.
    capture::FrameEvent event;
    while (old->ring.try_pop(event)) {
      if (!fresh_ptr->ring.try_push(event)) util::sat_fetch_add(s.lost_events);
    }
  } else {
    // Wedged: the zombie may wake mid-drain and pop concurrently, which the
    // MPSC ring does not allow. Its backlog is lost — counted, not hidden.
    util::sat_fetch_add(s.lost_events, old->ring.size());
  }

  s.graveyard.push_back(std::move(s.owned));
  s.owned = std::move(fresh);
  start_worker(shard, *fresh_ptr);
  s.restarts.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void LiveTracker::circuit_break_shard(std::size_t shard) {
  const std::lock_guard<std::mutex> lock(lifecycle_mutex_);
  Shard& s = *shards_.at(shard);
  if (s.degraded.exchange(true, std::memory_order_acq_rel)) return;
  ShardState* state = s.owned.get();
  state->abandoned.store(true, std::memory_order_release);
  if (state->dead.load(std::memory_order_acquire) && state->thread.joinable()) {
    state->thread.join();
  }
  util::sat_fetch_add(s.lost_events, state->ring.size());
}

bool LiveTracker::shard_degraded(std::size_t shard) const noexcept {
  return shards_[shard]->degraded.load(std::memory_order_acquire);
}

std::optional<LivePosition> LiveTracker::locate(const net80211::MacAddress& mac) const {
  const SeqlockSlot* slot = directory_.find(mac);
  LivePosition position;
  if (slot == nullptr || !slot->read(position)) return std::nullopt;
  position.shard_degraded = shard_degraded(shard_for(mac)) ? 1 : 0;
  return position;
}

std::vector<std::pair<net80211::MacAddress, LivePosition>> LiveTracker::snapshot()
    const {
  auto out = directory_.snapshot();
  for (auto& [mac, position] : out) {
    if (shard_degraded(shard_for(mac))) position.shard_degraded = 1;
  }
  return out;
}

marauder::IdentityMap LiveTracker::resolve_identities(
    const marauder::ResolverOptions& options) const {
  marauder::IdentityResolver resolver(options);
  for (const auto& shard : shards_) {
    // Each MAC lives in exactly one shard, so merging the boards is a
    // disjoint union; upsert order is irrelevant (resolve() sorts by MAC).
    ShardState* state = shard->state.load(std::memory_order_acquire);
    const std::lock_guard<std::mutex> lock(state->summary_mutex);
    for (const auto& [mac, summary] : state->summaries) {
      resolver.upsert(summary);
    }
  }
  return resolver.resolve();
}

std::optional<LivePosition> LiveTracker::locate_identity(
    const marauder::ResolvedIdentity& identity) const {
  std::optional<LivePosition> best;
  for (const net80211::MacAddress& mac : identity.macs) {
    std::optional<LivePosition> position = locate(mac);
    if (!position) continue;
    if (!best || position->updated_at_s > best->updated_at_s) best = position;
  }
  return best;
}

const capture::ObservationStore& LiveTracker::shard_store(std::size_t shard) const {
  return shards_.at(shard)->owned->store;
}

PipelineStats LiveTracker::stats() const {
  PipelineStats out;
  const double elapsed =
      running_ ? std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                               started_at_)
                     .count()
               : elapsed_s_;
  out.elapsed_s = elapsed;
  out.durability_enabled = config_.durability.enabled();
  out.recovery = recovery_;
  out.shards.reserve(shards_.size());
  for (const auto& shard : shards_) {
    const ShardState* state = shard->state.load(std::memory_order_acquire);
    ShardStats s;
    s.frames = state->frames.load(std::memory_order_relaxed);
    s.contacts = state->contacts.load(std::memory_order_relaxed);
    s.publishes = state->publishes.load(std::memory_order_relaxed);
    s.devices = state->device_count.load(std::memory_order_relaxed);
    s.ring_pushed = state->ring.pushed();
    s.ring_dropped = state->ring.dropped();
    s.ring_high_water = state->ring.high_water_mark();
    s.ring_capacity = state->ring.capacity();
    s.frames_per_sec =
        elapsed > 0.0 ? static_cast<double>(s.frames) / elapsed : 0.0;
    s.applied_seq = state->applied_seq_pub.load(std::memory_order_relaxed);
    s.wal_records = state->wal_records.load(std::memory_order_relaxed);
    s.wal_commits = state->wal_commits.load(std::memory_order_relaxed);
    s.wal_fsyncs = state->wal_fsyncs.load(std::memory_order_relaxed);
    s.wal_segments = state->wal_segments.load(std::memory_order_relaxed);
    s.wal_append_failures = state->wal_append_failures.load(std::memory_order_relaxed);
    s.checkpoints = state->checkpoints.load(std::memory_order_relaxed);
    s.checkpoint_failures = state->checkpoint_failures.load(std::memory_order_relaxed);
    s.dedup_skipped = state->dedup_skipped.load(std::memory_order_relaxed);
    s.wal_dead = state->wal_dead.load(std::memory_order_relaxed);
    s.restarts = shard->restarts.load(std::memory_order_relaxed);
    s.lost_events = shard->lost_events.load(std::memory_order_relaxed);
    s.degraded = shard->degraded.load(std::memory_order_relaxed);
    out.total_frames = util::sat_add(out.total_frames, s.frames);
    out.total_dropped = util::sat_add(out.total_dropped, s.ring_dropped);
    out.total_wal_records = util::sat_add(out.total_wal_records, s.wal_records);
    out.total_checkpoints = util::sat_add(out.total_checkpoints, s.checkpoints);
    out.total_restarts = util::sat_add(out.total_restarts, s.restarts);
    if (s.degraded) ++out.degraded_shards;
    out.shards.push_back(s);
  }
  out.frames_per_sec =
      elapsed > 0.0 ? static_cast<double>(out.total_frames) / elapsed : 0.0;
  out.directory_size = directory_.size();
  out.directory_overflows = directory_overflows_.load(std::memory_order_relaxed);
  return out;
}

}  // namespace mm::pipeline
