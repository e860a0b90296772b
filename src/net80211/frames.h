// 802.11 management frames: the probing traffic (probe request/response and
// beacons) the Marauder's Map sniffs, plus deauthentication for the active
// attack (forcing quiet devices to rescan). Frames serialize to the real
// over-the-air management-frame layout (frame control, addresses, fixed
// fields, tagged information elements, CRC-32 FCS) so the pcap files the
// capture layer writes are structurally faithful.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "net80211/mac_address.h"
#include "util/result.h"

namespace mm::net80211 {

enum class ManagementSubtype : std::uint8_t {
  kAssociationRequest = 0,
  kAssociationResponse = 1,
  kProbeRequest = 4,
  kProbeResponse = 5,
  kBeacon = 8,
  kDeauthentication = 12,
  /// Not a real management subtype: stands in for any data-plane frame a
  /// device exchanges with its AP (the traffic that makes a non-probing
  /// mobile "found" in the Fig 10 sense). Encoded as a null-function data
  /// frame on the wire.
  kDataNull = 255,
};

[[nodiscard]] const char* subtype_name(ManagementSubtype subtype) noexcept;

/// Tagged parameter (id, length, payload).
struct InformationElement {
  std::uint8_t id = 0;
  std::vector<std::uint8_t> payload;

  bool operator==(const InformationElement&) const = default;
};

namespace ie {
inline constexpr std::uint8_t kSsid = 0;
inline constexpr std::uint8_t kSupportedRates = 1;
inline constexpr std::uint8_t kDsParameterSet = 3;

/// SSID element; an empty SSID is the broadcast/wildcard probe.
[[nodiscard]] InformationElement ssid(std::string_view name);
/// 802.11b/g basic rate set (1, 2, 5.5, 11 Mbps as basic + OFDM rates).
[[nodiscard]] InformationElement supported_rates_bg();
/// DS Parameter Set: the AP's operating channel.
[[nodiscard]] InformationElement ds_channel(int channel);
}  // namespace ie

/// Header and fixed fields: everything a frame carries besides its tagged
/// elements. Fields a subtype does not carry keep their defaults.
struct FrameFields {
  ManagementSubtype subtype = ManagementSubtype::kBeacon;
  MacAddress addr1;  ///< destination
  MacAddress addr2;  ///< source
  MacAddress addr3;  ///< BSSID
  std::uint16_t sequence = 0;

  // Fixed fields for beacon / probe response.
  std::uint64_t timestamp_us = 0;
  std::uint16_t beacon_interval_tu = 100;
  std::uint16_t capability = 0x0401;  // ESS | short preamble

  // Fixed field for deauthentication.
  std::uint16_t reason_code = 0;

  // Fixed fields for association request / response.
  std::uint16_t listen_interval = 10;
  std::uint16_t status_code = 0;
  std::uint16_t association_id = 0;
};

/// A validated frame whose information elements stay in the bytes it was
/// parsed from: the decode path's zero-copy form. It borrows those bytes,
/// so it must not outlive them.
struct FrameView : FrameFields {
  /// The tagged-element region (FCS excluded), bounds-checked by parse().
  std::span<const std::uint8_t> ie_bytes;

  /// Payload of the first element with this id, if any.
  [[nodiscard]] std::optional<std::span<const std::uint8_t>> find_ie(
      std::uint8_t id) const noexcept;
  /// First SSID element, if any (empty for the wildcard SSID).
  [[nodiscard]] std::optional<std::string_view> ssid() const noexcept;
  /// Channel from the DS Parameter Set element, if present.
  [[nodiscard]] std::optional<int> ds_channel() const noexcept;

  /// Calls fn(id, payload) for every element, in frame order.
  template <typename Fn>
  void for_each_ie(Fn&& fn) const {
    for (std::size_t pos = 0; pos + 2 <= ie_bytes.size(); pos += 2 + ie_bytes[pos + 1]) {
      fn(ie_bytes[pos], ie_bytes.subspan(pos + 2, ie_bytes[pos + 1]));
    }
  }

  /// The one frame validator: FCS (with `verify_fcs`, rejecting a corrupted
  /// frame the way a real NIC drops bad-FCS frames), header, fixed fields
  /// and element bounds.
  [[nodiscard]] static util::Result<FrameView> parse(std::span<const std::uint8_t> bytes,
                                                     bool verify_fcs = true);
};

/// An owning frame: what the simulator builds and serializes.
struct ManagementFrame : FrameFields {
  std::vector<InformationElement> ies;

  /// First SSID element, if any (nullopt when absent; empty string for the
  /// wildcard SSID).
  [[nodiscard]] std::optional<std::string> ssid() const;
  /// Channel from the DS Parameter Set element, if present.
  [[nodiscard]] std::optional<int> ds_channel() const;
  [[nodiscard]] const InformationElement* find_ie(std::uint8_t id) const noexcept;

  /// Over-the-air byte layout including the trailing FCS.
  [[nodiscard]] std::vector<std::uint8_t> serialize() const;

  /// FrameView::parse plus a copy of the elements.
  [[nodiscard]] static util::Result<ManagementFrame> parse(
      std::span<const std::uint8_t> bytes, bool verify_fcs = true);
};

/// AP beacon on its operating channel.
[[nodiscard]] ManagementFrame make_beacon(const MacAddress& bssid, std::string_view ssid,
                                          int channel, std::uint64_t timestamp_us,
                                          std::uint16_t sequence);

/// Client probe request; nullopt SSID probes the wildcard (broadcast) SSID,
/// a concrete SSID is a directed probe (the implicit identifier of Pang et
/// al. that breaks MAC pseudonyms).
[[nodiscard]] ManagementFrame make_probe_request(const MacAddress& client,
                                                 std::optional<std::string_view> ssid,
                                                 std::uint16_t sequence);

/// AP's unicast reply to a client probe — the frame the Marauder's Map uses
/// to learn that the client is communicable with the AP.
[[nodiscard]] ManagementFrame make_probe_response(const MacAddress& bssid,
                                                  const MacAddress& client,
                                                  std::string_view ssid, int channel,
                                                  std::uint64_t timestamp_us,
                                                  std::uint16_t sequence);

/// Spoofed deauthentication used by the active attack.
[[nodiscard]] ManagementFrame make_deauth(const MacAddress& target,
                                          const MacAddress& bssid,
                                          std::uint16_t reason,
                                          std::uint16_t sequence);

/// Client association request to an AP.
[[nodiscard]] ManagementFrame make_association_request(const MacAddress& client,
                                                       const MacAddress& bssid,
                                                       std::string_view ssid,
                                                       std::uint16_t sequence);

/// AP's association response (status 0 = success).
[[nodiscard]] ManagementFrame make_association_response(const MacAddress& bssid,
                                                        const MacAddress& client,
                                                        std::uint16_t status,
                                                        std::uint16_t association_id,
                                                        std::uint16_t sequence);

/// Null-function data frame from an associated client (keep-alive / data-
/// plane presence — what lets the sniffer "find" a mobile that never probes).
[[nodiscard]] ManagementFrame make_data_null(const MacAddress& client,
                                             const MacAddress& bssid,
                                             std::uint16_t sequence);

}  // namespace mm::net80211
