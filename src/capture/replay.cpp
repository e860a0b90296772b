#include "capture/replay.h"

#include <algorithm>

#include "capture/frame_event.h"
#include "net80211/frames.h"
#include "net80211/pcap.h"
#include "net80211/radiotap.h"

namespace mm::capture {

void count_frame_class(FrameClass cls, ReplayStats& stats) {
  switch (cls) {
    case FrameClass::kProbeRequest:
      ++stats.probe_requests;
      break;
    case FrameClass::kProbeResponse:
      ++stats.probe_responses;
      break;
    case FrameClass::kBeacon:
      ++stats.beacons;
      break;
    case FrameClass::kOther:
      ++stats.other;
      break;
  }
}

bool decode_record(const net80211::PcapRecordView& record, ClassifiedFrame& out) {
  const auto rt = net80211::Radiotap::parse(record.data);
  if (!rt.ok()) return false;
  // Radiotap::parse guarantees header_length <= data.size(), so the body
  // span below never reads out of bounds even on hostile length fields.
  const auto parsed = net80211::FrameView::parse(record.data.subspan(rt.value().header_length));
  if (!parsed.ok()) return false;
  const double time_s = static_cast<double>(record.timestamp_us) * 1e-6;
  const double rssi = rt.value().header.antenna_signal_dbm;
  out = classify_frame(parsed.value(), time_s, rssi);
  return true;
}

int RecordFaults::apply(net80211::PcapRecordView& record) {
  if (!active_) return 1;
  damaged_.assign(record.data.begin(), record.data.end());
  const fault::FaultInjector::FrameAction action = injector_.apply_frame(damaged_);
  record.data = damaged_;
  switch (action) {
    case fault::FaultInjector::FrameAction::kDrop:
      return 0;
    case fault::FaultInjector::FrameAction::kDuplicate:
      return 2;
    case fault::FaultInjector::FrameAction::kPass:
      break;
  }
  return 1;
}

std::optional<std::string> radiotap_error(const net80211::PcapReader& reader) {
  if (!reader.ok()) return reader.error();
  if (reader.linktype() != net80211::kLinktypeRadiotap) {
    return "expected radiotap linktype 127, got " + std::to_string(reader.linktype());
  }
  return std::nullopt;
}

RecordDecodeStage::RecordDecodeStage(net80211::PcapReader& reader, RecordFaults& faults,
                                     const std::atomic<bool>* stop)
    : reader_(reader),
      faults_(faults),
      stop_(stop),
      slots_(kReplayBlockSlots * kReplayBlocksInFlight),
      helper_([this] { run(); }) {}

RecordDecodeStage::~RecordDecodeStage() {
  if (!helper_.joinable()) return;
  cancel();
  helper_.join();
}

void RecordDecodeStage::cancel() noexcept {
  {
    const std::lock_guard lock(mutex_);
    cancelled_ = true;
  }
  freed_cv_.notify_one();
}

std::span<const DecodedSlot> RecordDecodeStage::next_block() {
  std::unique_lock lock(mutex_);
  if (holding_) {
    holding_ = false;
    ++taken_;
    freed_cv_.notify_one();
  }
  filled_cv_.wait(lock, [this] { return filled_ > taken_ || done_; });
  if (filled_ == taken_) return {};
  holding_ = true;
  const std::size_t block = taken_ % kReplayBlocksInFlight;
  return {slots_.data() + block * kReplayBlockSlots, sizes_[block]};
}

bool RecordDecodeStage::finish() {
  cancel();
  helper_.join();
  if (error_) std::rethrow_exception(error_);
  return stopped_;
}

void RecordDecodeStage::run() noexcept {
  try {
    decode_all();
  } catch (...) {
    error_ = std::current_exception();
  }
  {
    const std::lock_guard lock(mutex_);
    done_ = true;
  }
  filled_cv_.notify_one();
}

bool RecordDecodeStage::publish(std::size_t slots) {
  std::unique_lock lock(mutex_);
  sizes_[filled_ % kReplayBlocksInFlight] = slots;
  ++filled_;
  filled_cv_.notify_one();
  freed_cv_.wait(lock, [this] {
    return cancelled_ || filled_ - taken_ < kReplayBlocksInFlight;
  });
  return !cancelled_;
}

void RecordDecodeStage::decode_all() {
  std::uint64_t block = 0;  // blocks handed out: the one being filled
  std::size_t used = 0;     // its slots written so far
  while (auto record = reader_.next()) {
    if (stop_ != nullptr && stop_->load(std::memory_order_acquire)) {
      stopped_ = true;
      break;
    }
    const int deliveries = faults_.apply(*record);
    // Each delivery is decoded before the next read: the record's bytes
    // live in the reader's buffer (or the damaged copy) only until then.
    for (int i = 0; i < std::max(deliveries, 1); ++i) {
      if (used == kReplayBlockSlots) {
        if (!publish(used)) return;
        ++block;
        used = 0;
      }
      DecodedSlot& slot =
          slots_[(block % kReplayBlocksInFlight) * kReplayBlockSlots + used++];
      slot.starts_record = i == 0;
      if (deliveries == 0) {
        slot.kind = DecodedSlot::Kind::kDropped;
      } else {
        slot.kind = decode_record(*record, slot.frame) ? DecodedSlot::Kind::kFrame
                                                        : DecodedSlot::Kind::kMalformed;
      }
    }
  }
  if (used > 0) publish(used);
}

util::Result<ReplayStats> replay_pcap(const std::filesystem::path& path,
                                      ObservationStore& store,
                                      const ReplayOptions& options) {
  net80211::PcapReader reader(path);
  if (const auto error = radiotap_error(reader)) {
    return util::Result<ReplayStats>::failure("replay_pcap: " + *error);
  }
  RecordFaults faults(options.fault_plan);
  ReplayStats stats;
  replay_records(reader, faults, stats,
                 [&store](const FrameEvent& event) { apply_event(event, store); });
  return stats;
}

}  // namespace mm::capture
