// Feeds a recorded pcap through the live pipeline: the capture-thread role
// when Riptide is driven from a file instead of monitor-mode cards.
//
// The record loop is capture::replay_pcap's own (capture::replay_records):
// the same capture::RecordFaults applied in the same order (so a given
// plan+seed damages exactly the same records on both paths), the same
// decode_record quarantine policy, the same stats counters — except that
// decoded events are pushed into a LiveTracker instead of applied to a store
// inline. Under the kBlock drop policy this makes the live run
// informationally identical to a batch replay of the same file, which the
// live/batch equivalence test pins bit-for-bit.
//
// The records are decoded on replay_records' helper thread; the pacing
// wait, the sequence stamp and the push run on the calling thread, which
// checks `stop` before each record, so a paced feed still stops between
// records while the helper has read ahead (DESIGN.md §6).
#pragma once

#include <filesystem>

#include "capture/replay.h"
#include "pipeline/live_tracker.h"
#include "sim/replay_clock.h"
#include "util/result.h"

namespace mm::pipeline {

struct LiveFeedOptions {
  /// Faults injected into each record before parsing; mirrors
  /// capture::ReplayOptions::fault_plan.
  fault::FaultPlan fault_plan{};
  /// Wall-clock pacing: 0 = as fast as possible, 1 = capture speed.
  double speed = 0.0;
  /// Cooperative cancellation (the `mmctl live` SIGINT/SIGTERM path): when
  /// set and it becomes true, the feed stops between records and returns
  /// normally with `interrupted` flagged, so the tracker can still drain and
  /// write its final checkpoint. Records the decode helper read ahead are
  /// not pushed; `replay`'s framing and fault counters may include them.
  const std::atomic<bool>* stop = nullptr;
};

struct LiveFeedStats {
  /// Decode/quarantine counters, identical in meaning (and, for the same
  /// file + plan, in value) to the batch replay's.
  capture::ReplayStats replay;
  std::uint64_t pushed = 0;   ///< events handed to the tracker
  /// Events the tracker refused (LiveTracker::push returned false).
  std::uint64_t dropped = 0;
  bool interrupted = false;   ///< stopped early by LiveFeedOptions::stop
};

/// Streams every intact record of the capture into the tracker. The tracker
/// must be start()ed; the caller stop()s it afterwards to drain. Fails (as a
/// Result) only when the file cannot be opened or is not a radiotap pcap.
///
/// Every event is stamped with a 1-based stream sequence before the push.
/// The assignment is a pure function of the file + fault plan (the injector
/// stream is deterministic and drops/duplicates are decided before decoding),
/// so re-feeding the same capture after a crash reproduces the same
/// sequences — which is what lets recovered shards skip exactly the events
/// they already applied (Phoenix's exactly-once cursor).
util::Result<LiveFeedStats> feed_pcap(const std::filesystem::path& path,
                                      LiveTracker& tracker,
                                      const LiveFeedOptions& options = {});

}  // namespace mm::pipeline
