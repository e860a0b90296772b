#include "capture/replay.h"

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

std::optional<ClassifiedFrame> decode_record(const net80211::PcapRecordView& record) {
  const auto rt = net80211::Radiotap::parse(record.data);
  if (!rt.ok()) return std::nullopt;
  // Radiotap::parse guarantees header_length <= data.size(), so the body
  // span below never reads out of bounds even on hostile length fields.
  const auto parsed = net80211::FrameView::parse(record.data.subspan(rt.value().header_length));
  if (!parsed.ok()) return std::nullopt;
  const double time_s = static_cast<double>(record.timestamp_us) * 1e-6;
  const double rssi = rt.value().header.antenna_signal_dbm;
  return classify_frame(parsed.value(), time_s, rssi);
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
