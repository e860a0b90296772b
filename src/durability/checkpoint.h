// Phoenix checkpoints: periodic snapshots of one shard's state, paired with
// the WAL so recovery replays only the tail.
//
// A checkpoint is one file in the shard's durability directory,
// ckpt-<applied_seq>.ckpt: a header line with the CheckpointMeta fields, the
// store slice in the observation-CSV rows of capture/persistence, and a
// trailing crc= line, the CRC-32C of every byte before it. write_file_atomic
// (tmp, fsync, rename) makes the rename its one commit point. A file loads
// whole or not at all: a bad CRC, header or name, or any row the parser
// would quarantine, makes it damaged, and loading falls back to the older
// checkpoint kept. The WAL is reclaimed only up to that one (write_checkpoint
// returns its sequence), so the fallback still finds every later record.
// Once a fallback loads, the damaged files are renamed to <name>.damaged:
// kept for inspection, but no longer counted when prune picks the fallback
// of the next checkpoint. When checkpoints exist but none is intact, or only
// the retired .meta/.obs pair is there, loading fails and moves nothing,
// instead of replaying a reclaimed log.
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
#include "util/result.h"

namespace mm::durability {

/// The header fields: where the snapshot sits in the stream, plus the shard
/// counters that must survive a restart.
struct CheckpointMeta {
  std::uint32_t shard = 0;
  std::uint32_t shard_count = 0;
  std::uint64_t applied_seq = 0;  ///< highest stream_seq applied to the store
  std::uint64_t frames = 0;
  std::uint64_t contacts = 0;
  std::uint64_t publishes = 0;
};

/// How many checkpoints prune keeps (the newest, plus one fallback in case
/// the newest turns out damaged on the next recovery).
inline constexpr std::size_t kCheckpointsKept = 2;

/// Writes one checkpoint (fsync'ed) and prunes older ones down to
/// kCheckpointsKept. Returns the applied sequence of the oldest checkpoint
/// kept: the WAL must keep every record after it. Fails without disturbing
/// existing checkpoints.
util::Result<std::uint64_t> write_checkpoint(const std::filesystem::path& dir,
                                             const CheckpointMeta& meta,
                                             const capture::ObservationStore& store);

struct LoadedCheckpoint {
  CheckpointMeta meta;
  capture::ObservationStore store;
  std::size_t damaged_skipped = 0;  ///< newer checkpoints that failed to load
};

/// Loads the newest intact checkpoint in `dir` by the rules above; nullopt
/// when the directory holds no checkpoint (cold start), an error naming `dir`
/// when none loads. `store_options` configure the restored store (the
/// contact-history cap must match the original run for bit-equal compaction
/// decisions).
[[nodiscard]] util::Result<std::optional<LoadedCheckpoint>> load_latest_checkpoint(
    const std::filesystem::path& dir,
    const capture::ObservationStoreOptions& store_options = {});

/// Checkpoint files in `dir`, sorted ascending by applied sequence.
[[nodiscard]] std::vector<std::filesystem::path> list_checkpoints(
    const std::filesystem::path& dir);

/// Atomic file write: `bytes` go to `<path>.tmp`, are fsync'ed when
/// `do_fsync`, and are renamed over `path`, so a reader finds the old file
/// or the new one, never a torn one. Checkpoints and WPS snapshots both
/// commit this way.
util::Result<bool> write_file_atomic(const std::filesystem::path& path,
                                     std::span<const std::byte> bytes, bool do_fsync);

}  // namespace mm::durability
