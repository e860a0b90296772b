#include "capture/frame_event.h"

#include <algorithm>
#include <cstring>

#include "capture/observation_store.h"

namespace mm::capture {

void FrameEvent::set_ssid(std::optional<std::string_view> s) {
  has_ssid = s.has_value();
  ssid_len = 0;
  if (!has_ssid) return;
  ssid_len = static_cast<std::uint8_t>(std::min(s->size(), kMaxSsid));
  std::memcpy(ssid, s->data(), ssid_len);
}

namespace {

/// The one classify policy; Frame is FrameView or ManagementFrame, which
/// share their fields and the ssid()/ds_channel() accessors.
template <typename Frame>
ClassifiedFrame classify(const Frame& frame, double time_s, double rssi_dbm) {
  ClassifiedFrame out;
  out.event.time_s = time_s;
  out.event.rssi_dbm = rssi_dbm;
  // The on-air sequence-control field carries 12 bits; frames built in
  // memory may hold a wider counter, so mask exactly as serialization does.
  const std::int32_t seq12 = static_cast<std::int32_t>(frame.sequence & 0x0FFF);
  switch (frame.subtype) {
    case net80211::ManagementSubtype::kProbeRequest:
      out.cls = FrameClass::kProbeRequest;
      out.has_event = true;
      out.event.kind = FrameEventKind::kProbeRequest;
      out.event.device = frame.addr2;
      out.event.device_seq = seq12;
      out.event.set_ssid(frame.ssid());
      break;
    case net80211::ManagementSubtype::kProbeResponse:
      // addr2 = AP, addr1 = client: evidence the client communicates with
      // the AP (the Gamma-set building block of Section II-A).
      out.cls = FrameClass::kProbeResponse;
      out.has_event = true;
      out.event.kind = FrameEventKind::kContact;
      out.event.ap = frame.addr2;
      out.event.device = frame.addr1;
      break;
    case net80211::ManagementSubtype::kBeacon:
      out.cls = FrameClass::kBeacon;
      out.has_event = true;
      out.event.kind = FrameEventKind::kBeacon;
      out.event.ap = frame.addr2;
      out.event.set_ssid(frame.ssid().value_or(""));
      out.event.channel = static_cast<std::int16_t>(frame.ds_channel().value_or(0));
      break;
    case net80211::ManagementSubtype::kAssociationRequest:
      // The device exists ("found") even though it never probed.
      out.cls = FrameClass::kOther;
      out.has_event = true;
      out.event.kind = FrameEventKind::kPresence;
      out.event.device = frame.addr2;
      out.event.device_seq = seq12;
      break;
    case net80211::ManagementSubtype::kAssociationResponse:
      out.cls = FrameClass::kOther;
      if (frame.status_code == 0) {
        // A successful association is two-way proof of communicability.
        out.has_event = true;
        out.event.kind = FrameEventKind::kContact;
        out.event.ap = frame.addr2;
        out.event.device = frame.addr1;
      }
      break;
    case net80211::ManagementSubtype::kDataNull:
      // The client (addr2) keeps talking to its association (addr3), but
      // that is one-way evidence: a device that walked out of its AP's disc
      // keeps sending keep-alives to it. Gamma only takes frames an AP sent
      // (probe / association responses), so this marks presence alone.
      out.cls = FrameClass::kOther;
      out.has_event = true;
      out.event.kind = FrameEventKind::kPresence;
      out.event.device = frame.addr2;
      out.event.device_seq = seq12;
      break;
    default:
      out.cls = FrameClass::kOther;
      break;
  }
  return out;
}

}  // namespace

ClassifiedFrame classify_frame(const net80211::FrameView& frame, double time_s,
                               double rssi_dbm) {
  return classify(frame, time_s, rssi_dbm);
}

ClassifiedFrame classify_frame(const net80211::ManagementFrame& frame, double time_s,
                               double rssi_dbm) {
  return classify(frame, time_s, rssi_dbm);
}

bool apply_event(const FrameEvent& event, ObservationStore& store) {
  bool new_contact = false;
  switch (event.kind) {
    case FrameEventKind::kProbeRequest:
      store.record_probe_request(event.device, event.time_s, event.ssid_opt());
      break;
    case FrameEventKind::kPresence:
      store.record_presence(event.device, event.time_s);
      break;
    case FrameEventKind::kContact:
      new_contact =
          store.record_contact(event.ap, event.device, event.time_s, event.rssi_dbm);
      break;
    case FrameEventKind::kBeacon:
      store.record_beacon(event.ap, event.ssid_view(), event.channel, event.time_s,
                          event.rssi_dbm);
      break;
  }
  if (event.device_seq >= 0 && event.kind != FrameEventKind::kBeacon) {
    store.record_device_seq(event.device, event.time_s,
                            static_cast<std::uint16_t>(event.device_seq & 0x0FFF));
  }
  return new_contact;
}

}  // namespace mm::capture
