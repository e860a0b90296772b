// Riptide: the sharded streaming ingestion + live-tracking engine.
//
// Threading model (DESIGN.md section 8):
//   producers (capture threads / the pcap feed)
//        --push()-->  per-shard FrameRing (lock-free MPSC)
//        --worker-->  shard-private ObservationStore + per-device known-AP discs
//        --publish--> mloc_locate into the shared DeviceDirectory of seqlock slots
//        <--read----  locate() / snapshot() from any thread, never blocking ingest
//
// Devices are hash-partitioned by MAC (the same util::mix64 the store's
// device index uses): every event of one device — and every beacon of one
// BSSID — lands in the same shard, so each shard's store slice is written by
// exactly one thread and per-device event order equals producer push order.
// That ownership discipline is what lets the whole engine run without a
// single lock on the ingest path, and what makes a single-producer replay
// through the live path bit-for-bit equal to the batch pipeline.
//
// Phoenix (DESIGN.md section 9) adds crash safety and self-healing on top:
// each shard optionally write-ahead-logs every applied event and snapshots
// its store slice periodically; recover() rebuilds pre-crash state from
// checkpoint + WAL tail; and a shard's worker lives in a *generation* — a
// ShardState the engine can atomically swap out when the ShardSupervisor
// decides the worker is wedged or dead, re-attaching the partition to its
// WAL + checkpoint without disturbing the other shards.
#pragma once

#include <chrono>
#include <cstddef>
#include <filesystem>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "capture/frame_event.h"
#include "capture/observation_store.h"
#include "capture/persistence.h"
#include "durability/wal.h"
#include "marauder/ap_database.h"
#include "marauder/identity.h"
#include "marauder/mloc.h"
#include "net80211/mac_address.h"
#include "pipeline/frame_ring.h"
#include "pipeline/pipeline_stats.h"
#include "pipeline/seqlock.h"

namespace mm::pipeline {

/// Phoenix durability knobs. Off (no WAL, no checkpoints) unless `dir` is
/// set; each shard then owns `dir`/shard-<i>/ with its WAL segments and
/// checkpoints.
struct DurabilityOptions {
  std::filesystem::path dir;
  durability::WalWriterOptions wal{};
  /// Seconds of wall-clock between periodic checkpoints (written by the
  /// owning worker, so the snapshot is consistent without locks). 0 = only
  /// the final checkpoint at stop().
  double checkpoint_interval_s = 0.0;
  capture::SaveOptions checkpoint_save{};

  [[nodiscard]] bool enabled() const noexcept { return !dir.empty(); }
};

struct LiveTrackerConfig {
  std::size_t shards = 4;
  std::size_t ring_capacity = 1 << 14;  ///< per shard, rounded up to a power of 2
  DropPolicy drop_policy = DropPolicy::kDropNewest;
  /// Radius for database APs without a known transmission distance —
  /// mirrors the batch pipeline's discs_for(gamma, default_radius_m).
  double default_radius_m = 100.0;
  marauder::MLocOptions mloc{};
  capture::ObservationStoreOptions store{};
  std::size_t directory_capacity = 1 << 16;
  DurabilityOptions durability{};
  /// Test seam: called by the worker at the top of every event, before the
  /// WAL append. The crash/wedge harnesses block, throw, or _exit here; it
  /// must be empty (the default) in production.
  std::function<void(std::size_t shard, const capture::FrameEvent&)> ingest_hook;
};

/// What the supervisor samples per shard to tell healthy from wedged/dead.
struct ShardHealth {
  std::uint64_t heartbeat = 0;  ///< advances every worker loop iteration
  std::uint64_t frames = 0;     ///< events applied (progress indicator)
  bool busy = false;            ///< ring non-empty or an event mid-flight
  bool dead = false;            ///< worker thread exited on an exception
  bool degraded = false;        ///< circuit-broken (no worker; partition down)
};

class LiveTracker {
 public:
  /// The AP database is borrowed and must outlive the tracker; it is read
  /// concurrently by all shard workers and must not be mutated while running.
  LiveTracker(const marauder::ApDatabase& db, LiveTrackerConfig config);
  ~LiveTracker();

  LiveTracker(const LiveTracker&) = delete;
  LiveTracker& operator=(const LiveTracker&) = delete;

  /// Rebuilds every shard from its durability directory: latest valid
  /// checkpoint, then the WAL tail through the normal ingest path, then each
  /// device's known-AP discs and one publish (bit-for-bit what the
  /// uninterrupted run last published: both are mloc_locate over those discs).
  /// Must be called before start(); a cold directory is not an error.
  util::Result<RecoveryStats> recover();

  void start();
  /// Lets the workers drain every ring, write a final checkpoint (when
  /// durability is on), then joins them. Idempotent.
  void stop();
  [[nodiscard]] bool running() const noexcept { return running_; }

  /// Routes one decoded event to its owner shard. Under kDropNewest a full
  /// ring drops the event (returns false, counted); under kBlock the caller
  /// spins until the worker frees space — re-reading the shard's state each
  /// spin, so a supervisor restart migrates blocked producers to the
  /// replacement ring. Pushes to a circuit-broken shard are dropped under
  /// either policy.
  bool push(const capture::FrameEvent& event);

  [[nodiscard]] std::size_t shard_count() const noexcept { return shards_.size(); }
  [[nodiscard]] std::size_t shard_for(const net80211::MacAddress& key) const noexcept;

  /// Latest published position of one device; nullopt when never located.
  /// Wait-free against ingest (seqlock read; no lock, no allocation).
  /// `shard_degraded` is stamped at read time from the owning shard's
  /// circuit-breaker flag.
  [[nodiscard]] std::optional<LivePosition> locate(const net80211::MacAddress& mac) const;

  /// All published positions, each entry torn-free (epoch-consistent per
  /// device; the set is whatever was claimed when the scan passed).
  [[nodiscard]] std::vector<std::pair<net80211::MacAddress, LivePosition>> snapshot()
      const;

  // --- Chimera identity surface (DESIGN.md §16) ---
  //
  // Each shard worker keeps a mutex-guarded *summary board*: the
  // marauder::DeviceSummary of every device it owns, refreshed from its
  // store slice on ring-idle and at shutdown (summaries are pure functions
  // of DeviceRecords, so the flush is incremental over dirty devices).
  // Resolution merges the boards — each MAC lives in exactly one shard — and
  // is therefore the same pure function the batch path computes: after
  // stop(), resolve_identities() over a capture pushed through the live path
  // equals marauder::resolve_identities() over the batch store, identically.

  /// Resolves pseudonyms into identities over the merged per-shard summary
  /// boards. Callable while running (boards lag ingest by at most one
  /// idle/flush cycle) or after stop() (exact).
  [[nodiscard]] marauder::IdentityMap resolve_identities(
      const marauder::ResolverOptions& options = {}) const;

  /// "Where is identity X": the freshest published position among the
  /// identity's alias MACs (seqlock reads; wait-free against ingest). This
  /// is what keeps the map pointing at a victim through pseudonym rotation.
  [[nodiscard]] std::optional<LivePosition> locate_identity(
      const marauder::ResolvedIdentity& identity) const;

  [[nodiscard]] PipelineStats stats() const;

  /// Shard-private store slice. Safe to read only after stop() (the owning
  /// worker mutates it while running).
  [[nodiscard]] const capture::ObservationStore& shard_store(std::size_t shard) const;

  // --- Supervision surface (ShardSupervisor; also usable from tests) ---

  [[nodiscard]] ShardHealth shard_health(std::size_t shard) const;
  /// Swaps in a fresh generation for the shard: abandons the current worker
  /// (a wedged one is fenced out of publishing; a dead one is joined and its
  /// ring drained into the replacement), recovers the new state from the
  /// shard's checkpoint + WAL, and starts a new worker. False when the
  /// engine is not running or the shard is circuit-broken.
  bool restart_shard(std::size_t shard);
  /// Gives up on the shard: abandons its worker and marks the partition
  /// degraded. Queries for its devices carry shard_degraded from then on.
  void circuit_break_shard(std::size_t shard);
  [[nodiscard]] bool shard_degraded(std::size_t shard) const noexcept;

 private:
  struct DeviceState;
  struct ShardState;
  struct Shard;

  [[nodiscard]] std::filesystem::path shard_dir(std::size_t shard) const;
  std::unique_ptr<ShardState> make_state(std::size_t shard) const;
  void start_worker(std::size_t shard, ShardState& state);
  void worker_loop(std::size_t shard, ShardState& state);
  void process_event(std::size_t shard, ShardState& state,
                     const capture::FrameEvent& event);
  /// The disc batch M-Loc builds for `ap` (ApDatabase::discs_for's rule).
  [[nodiscard]] geo::Circle disc_of(const marauder::KnownAp& ap) const;
  /// mloc_locate over the device's discs, published to its directory slot.
  void publish_device(ShardState& state, const net80211::MacAddress& mac,
                      DeviceState& device, double event_time_s);
  void idle_maintenance(std::size_t shard, ShardState& state);
  /// Re-summarizes dirty devices from the shard's store slice onto its
  /// summary board (worker thread only; board mutex held for the move).
  void flush_summaries(ShardState& state);
  void maybe_checkpoint(std::size_t shard, ShardState& state, bool force);
  void mirror_wal_stats(ShardState& state) const;
  /// Checkpoint + WAL tail -> store/counters; then live-state rebuild.
  util::Result<bool> recover_state(std::size_t shard, ShardState& state,
                                   RecoveryStats& stats);
  void rebuild_live_state(ShardState& state, RecoveryStats* stats);

  const marauder::ApDatabase& db_;
  LiveTrackerConfig config_;
  std::vector<std::unique_ptr<Shard>> shards_;
  DeviceDirectory directory_;
  std::atomic<bool> stopping_{false};
  bool running_ = false;
  /// Serializes restart/circuit-break/stop against each other (the swap of a
  /// shard's generation); never taken on the ingest or query paths.
  std::mutex lifecycle_mutex_;
  RecoveryStats recovery_{};
  std::chrono::steady_clock::time_point started_at_{};
  double elapsed_s_ = 0.0;  ///< frozen at stop()

  std::atomic<std::uint64_t> directory_overflows_{0};
};

}  // namespace mm::pipeline
