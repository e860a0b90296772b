#include "net80211/frames.h"

#include <algorithm>

#include "net80211/crc32.h"
#include "util/bytes.h"

namespace mm::net80211 {

namespace {

void put_mac(std::vector<std::uint8_t>& out, const MacAddress& mac) {
  out.insert(out.end(), mac.bytes().begin(), mac.bytes().end());
}

class Cursor {
 public:
  explicit Cursor(std::span<const std::uint8_t> data) : data_(data) {}

  [[nodiscard]] std::size_t remaining() const noexcept { return data_.size() - pos_; }
  [[nodiscard]] bool take_u8(std::uint8_t& v) noexcept {
    if (remaining() < 1) return false;
    v = data_[pos_++];
    return true;
  }
  [[nodiscard]] bool take_u16(std::uint16_t& v) noexcept {
    if (remaining() < 2) return false;
    v = util::load_u16(data_.data() + pos_);
    pos_ += 2;
    return true;
  }
  [[nodiscard]] bool take_u64(std::uint64_t& v) noexcept {
    if (remaining() < 8) return false;
    v = util::load_u64(data_.data() + pos_);
    pos_ += 8;
    return true;
  }
  [[nodiscard]] bool take_mac(MacAddress& mac) noexcept {
    if (remaining() < 6) return false;
    std::array<std::uint8_t, 6> bytes{};
    std::copy_n(data_.begin() + static_cast<std::ptrdiff_t>(pos_), 6, bytes.begin());
    mac = MacAddress(bytes);
    pos_ += 6;
    return true;
  }
  [[nodiscard]] bool skip(std::size_t n) noexcept {
    if (remaining() < n) return false;
    pos_ += n;
    return true;
  }
  [[nodiscard]] std::span<const std::uint8_t> rest() const noexcept {
    return data_.subspan(pos_);
  }

 private:
  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

bool has_fixed_beacon_fields(ManagementSubtype s) {
  return s == ManagementSubtype::kBeacon || s == ManagementSubtype::kProbeResponse;
}

}  // namespace

const char* subtype_name(ManagementSubtype subtype) noexcept {
  switch (subtype) {
    case ManagementSubtype::kAssociationRequest:
      return "association-request";
    case ManagementSubtype::kAssociationResponse:
      return "association-response";
    case ManagementSubtype::kProbeRequest:
      return "probe-request";
    case ManagementSubtype::kProbeResponse:
      return "probe-response";
    case ManagementSubtype::kBeacon:
      return "beacon";
    case ManagementSubtype::kDeauthentication:
      return "deauthentication";
    case ManagementSubtype::kDataNull:
      return "data-null";
  }
  return "unknown";
}

namespace ie {

InformationElement ssid(std::string_view name) {
  InformationElement element;
  element.id = kSsid;
  element.payload.assign(name.begin(), name.end());
  return element;
}

InformationElement supported_rates_bg() {
  // Basic rates flagged with the high bit (1, 2, 5.5, 11 Mbps) + OFDM rates.
  return {kSupportedRates, {0x82, 0x84, 0x8b, 0x96, 0x24, 0x30, 0x48, 0x6c}};
}

InformationElement ds_channel(int channel) {
  return {kDsParameterSet, {static_cast<std::uint8_t>(channel)}};
}

}  // namespace ie

std::optional<std::span<const std::uint8_t>> FrameView::find_ie(
    std::uint8_t id) const noexcept {
  for (std::size_t pos = 0; pos + 2 <= ie_bytes.size(); pos += 2 + ie_bytes[pos + 1]) {
    if (ie_bytes[pos] == id) return ie_bytes.subspan(pos + 2, ie_bytes[pos + 1]);
  }
  return std::nullopt;
}

std::optional<std::string_view> FrameView::ssid() const noexcept {
  const auto payload = find_ie(ie::kSsid);
  if (!payload) return std::nullopt;
  return std::string_view(reinterpret_cast<const char*>(payload->data()), payload->size());
}

std::optional<int> FrameView::ds_channel() const noexcept {
  const auto payload = find_ie(ie::kDsParameterSet);
  if (!payload || payload->empty()) return std::nullopt;
  return static_cast<int>(payload->front());
}

std::optional<std::string> ManagementFrame::ssid() const {
  const InformationElement* element = find_ie(ie::kSsid);
  if (element == nullptr) return std::nullopt;
  return std::string(element->payload.begin(), element->payload.end());
}

std::optional<int> ManagementFrame::ds_channel() const {
  const InformationElement* element = find_ie(ie::kDsParameterSet);
  if (element == nullptr || element->payload.empty()) return std::nullopt;
  return static_cast<int>(element->payload.front());
}

const InformationElement* ManagementFrame::find_ie(std::uint8_t id) const noexcept {
  for (const InformationElement& element : ies) {
    if (element.id == id) return &element;
  }
  return nullptr;
}

std::vector<std::uint8_t> ManagementFrame::serialize() const {
  std::vector<std::uint8_t> out;
  out.reserve(64);
  if (subtype == ManagementSubtype::kDataNull) {
    // Null-function data frame: type 2, subtype 4.
    out.push_back(0x48);
  } else {
    // Frame control: version 0, type 0 (management), subtype.
    out.push_back(static_cast<std::uint8_t>(static_cast<std::uint8_t>(subtype) << 4));
  }
  out.push_back(0x00);  // flags
  util::append_u16(out, 0x0000);  // duration
  put_mac(out, addr1);
  put_mac(out, addr2);
  put_mac(out, addr3);
  util::append_u16(out, static_cast<std::uint16_t>(sequence << 4));  // fragment 0

  if (has_fixed_beacon_fields(subtype)) {
    util::append_u64(out, timestamp_us);
    util::append_u16(out, beacon_interval_tu);
    util::append_u16(out, capability);
  } else if (subtype == ManagementSubtype::kDeauthentication) {
    util::append_u16(out, reason_code);
  } else if (subtype == ManagementSubtype::kAssociationRequest) {
    util::append_u16(out, capability);
    util::append_u16(out, listen_interval);
  } else if (subtype == ManagementSubtype::kAssociationResponse) {
    util::append_u16(out, capability);
    util::append_u16(out, status_code);
    util::append_u16(out, association_id);
  }

  for (const InformationElement& element : ies) {
    out.push_back(element.id);
    out.push_back(static_cast<std::uint8_t>(element.payload.size()));
    out.insert(out.end(), element.payload.begin(), element.payload.end());
  }

  util::append_u32(out, crc32(out));
  return out;
}

util::Result<FrameView> FrameView::parse(std::span<const std::uint8_t> bytes, bool verify_fcs) {
  using R = util::Result<FrameView>;
  constexpr std::size_t kHeaderLen = 24;
  constexpr std::size_t kFcsLen = 4;
  if (bytes.size() < kHeaderLen + kFcsLen) {
    return R::failure("frame too short");
  }

  if (verify_fcs) {
    const auto body = bytes.subspan(0, bytes.size() - kFcsLen);
    if (crc32(body) != util::load_u32(bytes.data() + bytes.size() - kFcsLen)) {
      return R::failure("FCS mismatch");
    }
  }

  Cursor cur(bytes.subspan(0, bytes.size() - kFcsLen));
  std::uint8_t fc0 = 0;
  std::uint8_t fc1 = 0;
  std::uint16_t duration = 0;
  FrameView frame;
  if (!cur.take_u8(fc0) || !cur.take_u8(fc1) || !cur.take_u16(duration)) {
    return R::failure("truncated header");
  }
  if ((fc0 & 0x03) != 0) return R::failure("not protocol version 0");
  const int frame_type = (fc0 >> 2) & 0x03;
  if (frame_type == 2) {
    // Data plane: only the null-function keep-alive is modeled.
    if ((fc0 >> 4) != 4) {
      return R::failure("unsupported data subtype");
    }
    frame.subtype = ManagementSubtype::kDataNull;
  } else if (frame_type != 0) {
    return R::failure("not a management or data frame");
  } else {
    const auto subtype = static_cast<ManagementSubtype>(fc0 >> 4);
    switch (subtype) {
      case ManagementSubtype::kAssociationRequest:
      case ManagementSubtype::kAssociationResponse:
      case ManagementSubtype::kProbeRequest:
      case ManagementSubtype::kProbeResponse:
      case ManagementSubtype::kBeacon:
      case ManagementSubtype::kDeauthentication:
        frame.subtype = subtype;
        break;
      default:
        return R::failure("unsupported management subtype");
    }
  }

  std::uint16_t seq_ctl = 0;
  if (!cur.take_mac(frame.addr1) || !cur.take_mac(frame.addr2) ||
      !cur.take_mac(frame.addr3) || !cur.take_u16(seq_ctl)) {
    return R::failure("truncated addresses");
  }
  frame.sequence = static_cast<std::uint16_t>(seq_ctl >> 4);

  if (has_fixed_beacon_fields(frame.subtype)) {
    if (!cur.take_u64(frame.timestamp_us) || !cur.take_u16(frame.beacon_interval_tu) ||
        !cur.take_u16(frame.capability)) {
      return R::failure("truncated fixed fields");
    }
  } else if (frame.subtype == ManagementSubtype::kDeauthentication) {
    if (!cur.take_u16(frame.reason_code)) {
      return R::failure("truncated reason code");
    }
  } else if (frame.subtype == ManagementSubtype::kAssociationRequest) {
    if (!cur.take_u16(frame.capability) || !cur.take_u16(frame.listen_interval)) {
      return R::failure("truncated association request");
    }
  } else if (frame.subtype == ManagementSubtype::kAssociationResponse) {
    if (!cur.take_u16(frame.capability) || !cur.take_u16(frame.status_code) ||
        !cur.take_u16(frame.association_id)) {
      return R::failure("truncated association response");
    }
  }

  // The elements stay where they are; only their bounds are checked.
  frame.ie_bytes = cur.rest();
  while (cur.remaining() > 0) {
    std::uint8_t id = 0;
    std::uint8_t length = 0;
    if (!cur.take_u8(id) || !cur.take_u8(length)) {
      return R::failure("truncated IE header");
    }
    if (!cur.skip(length)) return R::failure("IE length exceeds frame");
  }
  return frame;
}

util::Result<ManagementFrame> ManagementFrame::parse(std::span<const std::uint8_t> bytes,
                                                     bool verify_fcs) {
  const auto view = FrameView::parse(bytes, verify_fcs);
  if (!view.ok()) return util::Result<ManagementFrame>::failure(view.error());
  ManagementFrame frame;
  static_cast<FrameFields&>(frame) = view.value();
  std::size_t elements = 0;
  view.value().for_each_ie([&](std::uint8_t, std::span<const std::uint8_t>) { ++elements; });
  frame.ies.reserve(elements);
  view.value().for_each_ie([&](std::uint8_t id, std::span<const std::uint8_t> payload) {
    frame.ies.push_back({id, {payload.begin(), payload.end()}});
  });
  return frame;
}

ManagementFrame make_beacon(const MacAddress& bssid, std::string_view ssid, int channel,
                            std::uint64_t timestamp_us, std::uint16_t sequence) {
  ManagementFrame frame;
  frame.subtype = ManagementSubtype::kBeacon;
  frame.addr1 = MacAddress::broadcast();
  frame.addr2 = bssid;
  frame.addr3 = bssid;
  frame.sequence = sequence;
  frame.timestamp_us = timestamp_us;
  frame.ies = {ie::ssid(ssid), ie::supported_rates_bg(), ie::ds_channel(channel)};
  return frame;
}

ManagementFrame make_probe_request(const MacAddress& client,
                                   std::optional<std::string_view> ssid,
                                   std::uint16_t sequence) {
  ManagementFrame frame;
  frame.subtype = ManagementSubtype::kProbeRequest;
  frame.addr1 = MacAddress::broadcast();
  frame.addr2 = client;
  frame.addr3 = MacAddress::broadcast();
  frame.sequence = sequence;
  frame.ies = {ie::ssid(ssid.value_or("")), ie::supported_rates_bg()};
  return frame;
}

ManagementFrame make_probe_response(const MacAddress& bssid, const MacAddress& client,
                                    std::string_view ssid, int channel,
                                    std::uint64_t timestamp_us, std::uint16_t sequence) {
  ManagementFrame frame;
  frame.subtype = ManagementSubtype::kProbeResponse;
  frame.addr1 = client;
  frame.addr2 = bssid;
  frame.addr3 = bssid;
  frame.sequence = sequence;
  frame.timestamp_us = timestamp_us;
  frame.ies = {ie::ssid(ssid), ie::supported_rates_bg(), ie::ds_channel(channel)};
  return frame;
}

ManagementFrame make_association_request(const MacAddress& client, const MacAddress& bssid,
                                         std::string_view ssid, std::uint16_t sequence) {
  ManagementFrame frame;
  frame.subtype = ManagementSubtype::kAssociationRequest;
  frame.addr1 = bssid;
  frame.addr2 = client;
  frame.addr3 = bssid;
  frame.sequence = sequence;
  frame.ies = {ie::ssid(ssid), ie::supported_rates_bg()};
  return frame;
}

ManagementFrame make_association_response(const MacAddress& bssid, const MacAddress& client,
                                          std::uint16_t status,
                                          std::uint16_t association_id,
                                          std::uint16_t sequence) {
  ManagementFrame frame;
  frame.subtype = ManagementSubtype::kAssociationResponse;
  frame.addr1 = client;
  frame.addr2 = bssid;
  frame.addr3 = bssid;
  frame.sequence = sequence;
  frame.status_code = status;
  frame.association_id = association_id;
  frame.ies = {ie::supported_rates_bg()};
  return frame;
}

ManagementFrame make_data_null(const MacAddress& client, const MacAddress& bssid,
                               std::uint16_t sequence) {
  ManagementFrame frame;
  frame.subtype = ManagementSubtype::kDataNull;
  frame.addr1 = bssid;
  frame.addr2 = client;
  frame.addr3 = bssid;
  frame.sequence = sequence;
  return frame;
}

ManagementFrame make_deauth(const MacAddress& target, const MacAddress& bssid,
                            std::uint16_t reason, std::uint16_t sequence) {
  ManagementFrame frame;
  frame.subtype = ManagementSubtype::kDeauthentication;
  frame.addr1 = target;
  frame.addr2 = bssid;
  frame.addr3 = bssid;
  frame.sequence = sequence;
  frame.reason_code = reason;
  return frame;
}

}  // namespace mm::net80211
