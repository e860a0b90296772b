#include "capture/replay.h"

#include "capture/frame_event.h"
#include "net80211/frames.h"
#include "net80211/pcap.h"
#include "net80211/radiotap.h"
#include "util/counters.h"

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

namespace {

/// Parses one record and, when intact, feeds it to the store.
void ingest_record(const net80211::PcapRecordView& record, ObservationStore& store,
                   ReplayStats& stats) {
  const auto decoded = decode_record(record);
  if (!decoded) {
    util::sat_inc(stats.malformed);  // quarantine counters never wrap
    return;
  }
  count_frame_class(decoded->cls, stats);
  if (decoded->has_event) apply_event(decoded->event, store);
}

}  // namespace

util::Result<ReplayStats> replay_pcap(const std::filesystem::path& path,
                                      ObservationStore& store,
                                      const ReplayOptions& options) {
  using R = util::Result<ReplayStats>;
  net80211::PcapReader reader(path);
  if (!reader.ok()) return R::failure("replay_pcap: " + reader.error());
  if (reader.linktype() != net80211::kLinktypeRadiotap) {
    return R::failure("replay_pcap: expected radiotap linktype 127, got " +
                      std::to_string(reader.linktype()));
  }

  RecordFaults faults(options.fault_plan);
  ReplayStats stats;
  while (auto record = reader.next()) {
    ++stats.records;
    const int deliveries = faults.apply(*record);
    for (int i = 0; i < deliveries; ++i) ingest_record(*record, store, stats);
  }
  stats.framing_quarantined = reader.quarantined();
  stats.truncated_tail = reader.truncated();
  stats.faults = faults.stats();
  return stats;
}

}  // namespace mm::capture
