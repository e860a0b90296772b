// Phoenix checkpoints: periodic snapshots of one shard's state, paired with
// the WAL so recovery replays only the tail.
//
// A checkpoint is two files in the shard's durability directory:
//   ckpt-<applied_seq>.obs   the shard's ObservationStore slice, written by
//                            the existing atomic CSV path (tmp+fsync+rename)
//   ckpt-<applied_seq>.meta  a small CRC-guarded key=value file with the
//                            applied-sequence high-water mark and counters
// The meta file is written (atomically) only after the obs file has been
// renamed into place, so it is the commit marker: a crash between the two
// leaves an orphan obs file that no meta points at, which recovery ignores.
// Loading walks metas newest-first and falls back to an older checkpoint when
// the newest pair is damaged.
//
// Live positions are deliberately NOT serialized: a shard keeps nothing per
// device beside its store slice, and a position is a pure function of the
// device's store record and the AP database. Recovery publishes each restored
// device once through the live publish (gamma_append, discs_for,
// mloc_locate: the calls the uninterrupted run's last publish made), so the
// rebuilt estimates are bit-for-bit equal to that run's.
#pragma once

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <optional>
#include <span>
#include <vector>

#include "capture/observation_store.h"
#include "capture/persistence.h"
#include "util/result.h"

namespace mm::durability {

/// The commit-marker contents: where the snapshot sits in the stream, plus
/// the shard counters that must survive a restart.
struct CheckpointMeta {
  std::uint32_t shard = 0;
  std::uint32_t shard_count = 0;
  std::uint64_t applied_seq = 0;  ///< highest stream_seq applied to the store
  std::uint64_t frames = 0;
  std::uint64_t contacts = 0;
  std::uint64_t publishes = 0;
};

/// How many complete checkpoints prune keeps (the newest, plus one fallback
/// in case the newest turns out damaged on the next recovery).
inline constexpr std::size_t kCheckpointsKept = 2;

/// Writes one checkpoint (obs then meta, each atomic) and prunes older ones
/// down to kCheckpointsKept. Fails without disturbing existing checkpoints.
util::Result<bool> write_checkpoint(const std::filesystem::path& dir,
                                    const CheckpointMeta& meta,
                                    const capture::ObservationStore& store,
                                    const capture::SaveOptions& save_options = {});

struct LoadedCheckpoint {
  CheckpointMeta meta;
  capture::ObservationStore store;
  capture::LoadStats load_stats;
  std::size_t damaged_skipped = 0;  ///< newer checkpoints that failed to load
};

/// Loads the newest complete checkpoint in `dir`, falling back over damaged
/// ones; nullopt when the directory holds no usable checkpoint (cold start).
/// `store_options` configure the restored store (the contact-history cap must
/// match the original run for bit-equal compaction decisions).
[[nodiscard]] util::Result<std::optional<LoadedCheckpoint>> load_latest_checkpoint(
    const std::filesystem::path& dir,
    const capture::ObservationStoreOptions& store_options = {});

/// Meta files in `dir`, sorted ascending by applied sequence.
[[nodiscard]] std::vector<std::filesystem::path> list_checkpoint_metas(
    const std::filesystem::path& dir);

/// Atomic file write: `bytes` go to `<path>.tmp`, are fsync'ed when
/// `do_fsync`, and are renamed over `path`, so a reader finds the old file
/// or the new one, never a torn one. Checkpoint metas and WPS snapshots
/// both commit this way.
util::Result<bool> write_file_atomic(const std::filesystem::path& path,
                                     std::span<const std::byte> bytes, bool do_fsync);

}  // namespace mm::durability
