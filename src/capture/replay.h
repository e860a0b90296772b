// Offline analysis: rebuild an ObservationStore from a recorded monitor-mode
// pcap (radiotap linktype). This is the workflow an attacker uses when the
// capture rig and the analysis machine are separate — and it doubles as a
// consumer for real-world captures, since the reader speaks the standard
// pcap + radiotap + 802.11 management-frame formats. Damaged records are
// quarantined (skipped and counted), never fatal; a replay can also run
// under a FaultPlan to soak the pipeline against transport damage.
#pragma once

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "capture/frame_event.h"
#include "capture/observation_store.h"
#include "fault/fault_injector.h"
#include "net80211/pcap.h"
#include "util/counters.h"
#include "util/result.h"

namespace mm::capture {

struct ReplayOptions {
  /// Faults injected into each record's bytes before parsing (drop,
  /// duplication, bit corruption, truncation). Inactive by default.
  fault::FaultPlan fault_plan{};
};

struct ReplayStats {
  std::uint64_t records = 0;        ///< pcap records read
  std::uint64_t malformed = 0;      ///< radiotap/frame parse failures (quarantined)
  std::uint64_t framing_quarantined = 0;  ///< records with corrupt pcap framing
  bool truncated_tail = false;      ///< the file ended mid-record
  std::uint64_t probe_requests = 0;
  std::uint64_t probe_responses = 0;
  std::uint64_t beacons = 0;
  std::uint64_t other = 0;          ///< valid frames with nothing to learn
  fault::FaultStats faults;         ///< damage injected by the fault plan

  /// Everything skipped instead of ingested — the monotone counter the
  /// soak harness watches.
  [[nodiscard]] std::uint64_t quarantined() const noexcept {
    return malformed + framing_quarantined;
  }
};

/// Replays every intact record of the capture into the store. Fails (as a
/// Result, not an exception) only if the file cannot be opened, is not a
/// pcap, or does not carry radiotap frames; malformed records and a
/// truncated tail are counted, not fatal.
util::Result<ReplayStats> replay_pcap(const std::filesystem::path& path,
                                      ObservationStore& store,
                                      const ReplayOptions& options = {});

/// Radiotap + 802.11 decode of one pcap record into its observation event;
/// nullopt when the record is malformed. Zero-copy: the frame is validated
/// and classified where it lies.
[[nodiscard]] std::optional<ClassifiedFrame> decode_record(
    const net80211::PcapRecordView& record);

/// A FaultPlan applied to a capture's records in file order, by
/// replay_records below: a given plan and seed damage exactly the same
/// records in the same way on the batch and streaming paths. Under an
/// inactive plan records pass through untouched and uncopied.
class RecordFaults {
 public:
  explicit RecordFaults(const fault::FaultPlan& plan)
      : injector_(plan), active_(plan.active()) {}

  /// How many times the record is delivered (0 = dropped, 2 = duplicated).
  /// Under an active plan `record` is redirected to a damaged copy held
  /// here, valid until the next call.
  [[nodiscard]] int apply(net80211::PcapRecordView& record);
  [[nodiscard]] const fault::FaultStats& stats() const noexcept { return injector_.stats(); }

 private:
  fault::FaultInjector injector_;
  bool active_;
  std::vector<std::uint8_t> damaged_;  ///< reused: the injector edits a copy
};

/// Bumps the ReplayStats subtype counter for one decoded frame.
void count_frame_class(FrameClass cls, ReplayStats& stats);

/// Why `reader` cannot feed a replay (it did not open as a pcap, or its
/// frames are not radiotap, linktype 127); nullopt when it can.
[[nodiscard]] std::optional<std::string> radiotap_error(const net80211::PcapReader& reader);

/// The one pcap -> event loop, shared by replay_pcap, pipeline::feed_pcap
/// and `mmctl net-send`, so all three damage, quarantine and count exactly
/// the same records: each record passes through `faults` in file order,
/// each delivery is decoded by decode_record and counted into `stats`, and
/// each decoded event goes to `on_event(const FrameEvent&)`. A set `stop`
/// ends the walk before the next record. The reader's framing counters and
/// the fault counters are copied into `stats` either way. Returns true when
/// `stop` ended the walk.
template <typename OnEvent>
bool replay_records(net80211::PcapReader& reader, RecordFaults& faults, ReplayStats& stats,
                    OnEvent&& on_event, const std::atomic<bool>* stop = nullptr) {
  bool interrupted = false;
  while (auto record = reader.next()) {
    if (stop != nullptr && stop->load(std::memory_order_acquire)) {
      interrupted = true;
      break;
    }
    ++stats.records;
    const int deliveries = faults.apply(*record);
    for (int i = 0; i < deliveries; ++i) {
      const auto decoded = decode_record(*record);
      if (!decoded) {
        util::sat_inc(stats.malformed);  // quarantine counters never wrap
        continue;
      }
      count_frame_class(decoded->cls, stats);
      if (decoded->has_event) on_event(decoded->event);
    }
  }
  stats.framing_quarantined = reader.quarantined();
  stats.truncated_tail = reader.truncated();
  stats.faults = faults.stats();
  return interrupted;
}

}  // namespace mm::capture
