// Offline analysis: rebuild an ObservationStore from a recorded monitor-mode
// pcap (radiotap linktype). This is the workflow an attacker uses when the
// capture rig and the analysis machine are separate — and it doubles as a
// consumer for real-world captures, since the reader speaks the standard
// pcap + radiotap + 802.11 management-frame formats. Damaged records are
// quarantined (skipped and counted), never fatal; a replay can also run
// under a FaultPlan to soak the pipeline against transport damage. Every
// replay decodes on one helper thread while the calling thread applies the
// decoded events, in file order (replay_records below, DESIGN.md §6).
#pragma once

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <filesystem>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <thread>
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
  std::uint64_t records = 0;        ///< pcap records walked (up to a stop)
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

/// Radiotap + 802.11 decode of one pcap record into `out`; false (and `out`
/// unspecified) when the record is malformed. Zero-copy: the frame is
/// validated and classified where it lies, and `out` holds values only.
[[nodiscard]] bool decode_record(const net80211::PcapRecordView& record, ClassifiedFrame& out);

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

/// Slots per block that the decode stage of replay_records hands to its
/// caller (one per delivery, and one per record the fault plan dropped),
/// and blocks in flight between the two. Constants, not settings: a block
/// amortizes one hand-off over thousands of records, and four keep the
/// helper decoding while the caller applies.
inline constexpr std::size_t kReplayBlockSlots = 2048;
inline constexpr std::size_t kReplayBlocksInFlight = 4;

/// One slot of a decoded block: a value, never a view into the reader's
/// buffer or the fault plan's damaged copy.
struct DecodedSlot {
  enum class Kind : std::uint8_t {
    kDropped,    ///< the fault plan dropped the record: counted, not delivered
    kMalformed,  ///< radiotap or frame parse failed: quarantined
    kFrame,      ///< `frame` holds the decoded delivery
  };
  Kind kind = Kind::kDropped;
  bool starts_record = false;  ///< the first (or only) slot of its pcap record
  ClassifiedFrame frame;
};

/// The decode stage of replay_records: one helper thread, started by the
/// constructor, owns `reader` and `faults` until finish() or the destructor
/// joins it. It reads the records in file order, applies the fault plan,
/// and decodes each delivery straight into the next slot of a block; the
/// caller takes the blocks in order through next_block(). The helper
/// checks `stop` after each read and stops reading once it is set. The
/// caller must not touch `reader` or `faults` until the helper is joined.
class RecordDecodeStage {
 public:
  RecordDecodeStage(net80211::PcapReader& reader, RecordFaults& faults,
                    const std::atomic<bool>* stop);
  /// Cancels the helper and joins it; an exception it raised is dropped
  /// (the caller is already unwinding with its own).
  ~RecordDecodeStage();
  RecordDecodeStage(const RecordDecodeStage&) = delete;
  RecordDecodeStage& operator=(const RecordDecodeStage&) = delete;

  /// The next block in file order, never empty while records remain; empty
  /// once the helper has handed out its last one. Hands the previous block
  /// back to the helper, so its slots are valid only until this next call.
  [[nodiscard]] std::span<const DecodedSlot> next_block();
  /// Cancels the helper, joins it, and rethrows an exception it raised.
  /// True when the helper stopped reading because `stop` was set: a record
  /// followed the last one it decoded.
  bool finish();

 private:
  void run() noexcept;
  void decode_all();
  /// Hands the block being filled to the caller and waits for a free one;
  /// false when the caller cancelled.
  bool publish(std::size_t slots);
  void cancel() noexcept;

  net80211::PcapReader& reader_;
  RecordFaults& faults_;
  const std::atomic<bool>* stop_;
  std::vector<DecodedSlot> slots_;  ///< kReplayBlocksInFlight blocks, back to back
  bool stopped_ = false;            ///< helper-only until the join
  std::exception_ptr error_;        ///< helper-only until the join

  std::mutex mutex_;  ///< guards the fields below
  std::condition_variable filled_cv_;  ///< helper -> caller: a block or the end
  std::condition_variable freed_cv_;   ///< caller -> helper: a block back, or cancel
  std::array<std::size_t, kReplayBlocksInFlight> sizes_{};
  std::uint64_t filled_ = 0;  ///< blocks the helper has handed out
  std::uint64_t taken_ = 0;   ///< blocks the caller has handed back
  bool holding_ = false;      ///< the caller holds block taken_
  bool done_ = false;         ///< the helper will hand out no more blocks
  bool cancelled_ = false;

  std::thread helper_;  ///< last: it starts once the members above exist
};

/// The one pcap -> event loop, shared by replay_pcap, pipeline::feed_pcap
/// and `mmctl net-send`, so all three damage, quarantine and count exactly
/// the same records. It runs in two stages that overlap: a
/// RecordDecodeStage helper reads, damages and decodes the records into
/// blocks, and the calling thread takes the blocks in file order, counts
/// `records`, `malformed` and the subtype counters into `stats`, and calls
/// `on_event(const FrameEvent&)` for each decoded event, once per delivery,
/// in file order. The helper is joined before this returns, on every path.
///
/// Stop: the caller checks `stop` before each record it delivers, so a set
/// `stop` ends the walk between records and the walk returns true. Records
/// the helper read ahead are neither delivered nor counted in `records` or
/// the subtype counters; the reader's framing counters and the fault
/// counters, copied into `stats` after the join, may include them (at most
/// kReplayBlocksInFlight blocks). An uninterrupted walk counts exactly.
///
/// Exceptions: one thrown by `on_event` stops and joins the helper, then
/// leaves; one raised on the helper (std::bad_alloc) is rethrown here after
/// the join; std::system_error when the helper thread cannot start.
template <typename OnEvent>
bool replay_records(net80211::PcapReader& reader, RecordFaults& faults, ReplayStats& stats,
                    OnEvent&& on_event, const std::atomic<bool>* stop = nullptr) {
  RecordDecodeStage decoder(reader, faults, stop);
  bool interrupted = false;
  while (!interrupted) {
    const std::span<const DecodedSlot> block = decoder.next_block();
    if (block.empty()) break;
    for (const DecodedSlot& slot : block) {
      if (slot.starts_record) {
        if (stop != nullptr && stop->load(std::memory_order_acquire)) {
          interrupted = true;
          break;
        }
        ++stats.records;
      }
      switch (slot.kind) {
        case DecodedSlot::Kind::kDropped:
          break;
        case DecodedSlot::Kind::kMalformed:
          util::sat_inc(stats.malformed);  // quarantine counters never wrap
          break;
        case DecodedSlot::Kind::kFrame:
          count_frame_class(slot.frame.cls, stats);
          if (slot.frame.has_event) on_event(slot.frame.event);
          break;
      }
    }
  }
  interrupted = decoder.finish() || interrupted;
  stats.framing_quarantined = reader.quarantined();
  stats.truncated_tail = reader.truncated();
  stats.faults = faults.stats();
  return interrupted;
}

}  // namespace mm::capture
