// Observation-store persistence: save the attack's accumulated evidence to
// a CSV file and restore it. Lets the capture rig run unattended and the
// analysis happen elsewhere/later (complementing replay_pcap, which
// rebuilds evidence from raw frames instead).
//
// Format: one row per record, tagged in column 0:
//   device,<mac>,<first>,<last>,<probe_requests>,<ssid|ssid|...>
//   contact,<device>,<ap>,<first>,<last>,<count>,<last_rssi>,<t;t;...>
//   sighting,<bssid>,<ssid>,<channel>,<beacons>,<last_rssi>
// Text fields go unquoted: control bytes and , " % | are written as %XX
// (SSIDs are raw over-the-air bytes), so each record is one line and reads
// back unchanged. Quoted fields of older files still load.
//
// Robustness contract: saves are atomic (temp file + fsync + rename, with
// bounded retry on transient I/O failure), so a crash mid-save leaves the
// previous snapshot intact; loads quarantine malformed rows (skip + count)
// instead of losing a 7-day run to one damaged line. Both report status as
// util::Result rather than throwing.
#pragma once

#include <cstdint>
#include <filesystem>
#include <iosfwd>
#include <string>
#include <vector>

#include "capture/observation_store.h"
#include "util/result.h"

namespace mm::fault {
class FaultInjector;
}  // namespace mm::fault

namespace mm::capture {

struct SaveOptions {
  /// Total tries for the write-temp-and-rename sequence.
  int max_attempts = 3;
  /// Sleep between attempts, doubled each retry.
  double backoff_s = 0.01;
  /// When set, the save asks the injector whether this write is torn: the
  /// temp file is chopped and the save reports failure without renaming —
  /// exactly what a crash mid-write does (tests/fault_soak_test).
  fault::FaultInjector* injector = nullptr;
};

struct SaveStats {
  int attempts = 1;  ///< 1 = first try succeeded
};

struct LoadStats {
  std::size_t rows_total = 0;   ///< rows present in the file
  std::size_t rows_loaded = 0;  ///< rows restored into the store
  std::size_t quarantined = 0;  ///< malformed rows skipped (and counted)
  /// First few quarantine reasons, for operator diagnostics.
  std::vector<std::string> sample_errors;
};

struct LoadResult {
  ObservationStore store;
  LoadStats stats;
};

/// Appends the store's full state to `out`, one row per record in the format
/// above; live checkpoints (durability/checkpoint.h) carry the same rows.
void observations_csv(const ObservationStore& store, std::string& out);

/// Restores a store from rows written by observations_csv. Malformed rows
/// (bad MACs, unparsable numbers, short rows, unknown tags, contacts whose
/// device row was lost) are quarantined and counted, not fatal.
/// `store_options` configure the restored store — a recovery that will keep
/// ingesting must restore with the original run's contact-history cap, or
/// later compaction decisions diverge from the uninterrupted run's.
[[nodiscard]] LoadResult parse_observations(
    std::istream& in, const ObservationStoreOptions& store_options = {});

/// Writes the store's full state atomically (see SaveOptions). Fails only
/// when every attempt failed; the destination is never left half-written.
util::Result<SaveStats> save_observations(const ObservationStore& store,
                                          const std::filesystem::path& path,
                                          const SaveOptions& options = {});

/// Restores a store saved by save_observations (parse_observations over the
/// file); only an unreadable file fails.
[[nodiscard]] util::Result<LoadResult> load_observations(
    const std::filesystem::path& path, const ObservationStoreOptions& store_options = {});

/// Checkpointing for a long-running capture, which calls checkpoint_now() on
/// its own clock: a killed rig loses at most one interval of evidence. Each
/// checkpoint is a full atomic save_observations.
class ObservationCheckpointer {
 public:
  /// The store must outlive the checkpointer.
  ObservationCheckpointer(const ObservationStore* store, std::filesystem::path path,
                          SaveOptions options = {});

  util::Result<SaveStats> checkpoint_now();

  [[nodiscard]] std::size_t checkpoints_written() const noexcept { return written_; }
  [[nodiscard]] std::uint64_t failures() const noexcept { return failures_; }
  [[nodiscard]] const std::filesystem::path& path() const noexcept { return path_; }

 private:
  const ObservationStore* store_;
  std::filesystem::path path_;
  SaveOptions options_;
  std::size_t written_ = 0;
  std::uint64_t failures_ = 0;
};

}  // namespace mm::capture
