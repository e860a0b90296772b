// The decoded observation event: the one unit of knowledge a captured
// 802.11 management frame contributes to the ObservationStore. Extracting it
// into a trivially-copyable value decouples *decoding* (radiotap + frame
// parsing, done by capture threads) from *ingestion* (store updates, done by
// Riptide's shard workers): events flow through the lock-free FrameRing by
// plain copy, and the batch replay path applies the exact same events in the
// exact same way — which is what makes live-path results bit-for-bit equal
// to batch results on the same capture.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>

#include "net80211/frames.h"
#include "net80211/mac_address.h"

namespace mm::capture {

class ObservationStore;

enum class FrameEventKind : std::uint8_t {
  kProbeRequest,  ///< device probed (directed SSID optional)
  kPresence,      ///< device seen without probing (association request)
  kContact,       ///< AP <-> device communication evidence (Gamma building block)
  kBeacon,        ///< AP advertisement (sightings inventory)
};

/// Which ReplayStats counter a frame belongs to (the subtype histogram the
/// batch replay and the live feed both report).
enum class FrameClass : std::uint8_t { kProbeRequest, kProbeResponse, kBeacon, kOther };

struct FrameEvent {
  /// SSIDs are at most 32 octets on the air; anything longer (malformed IE)
  /// is truncated identically on the batch and live paths.
  static constexpr std::size_t kMaxSsid = 32;

  FrameEventKind kind = FrameEventKind::kPresence;
  /// Position of this event in its capture stream, assigned by the feed
  /// (1-based; 0 = unassigned). Phoenix's exactly-once cursor: each shard
  /// checkpoints the highest sequence it has applied, and recovery skips
  /// events at or below that high-water mark.
  std::uint64_t stream_seq = 0;
  net80211::MacAddress device;  ///< the mobile (kBeacon: unused)
  net80211::MacAddress ap;      ///< the AP / BSSID (kProbeRequest/kPresence: unused)
  double time_s = 0.0;
  double rssi_dbm = -200.0;
  std::int16_t channel = 0;     ///< kBeacon only (DS parameter set)
  /// 802.11 sequence number of the *device-transmitted* frame (0..4095), or
  /// -1 when the frame was transmitted by the AP (probe response, successful
  /// association response) and teaches nothing about the device's counter.
  /// Chimera's sequence-continuity linker feeds on this: the 12-bit counter
  /// survives a MAC rotation, so a fresh pseudonym picking up where a dead
  /// one left off is evidence both MACs share one radio.
  std::int32_t device_seq = -1;
  bool has_ssid = false;
  std::uint8_t ssid_len = 0;
  char ssid[kMaxSsid] = {};

  /// The key Riptide partitions on: all events of one device (and all
  /// beacons of one BSSID) land in the same shard, preserving per-key order.
  [[nodiscard]] const net80211::MacAddress& partition_key() const noexcept {
    return kind == FrameEventKind::kBeacon ? ap : device;
  }

  /// The SSID bytes in place ("" when absent).
  [[nodiscard]] std::string_view ssid_view() const noexcept {
    return has_ssid ? std::string_view(ssid, ssid_len) : std::string_view();
  }
  /// The SSID in place, nullopt when absent (as FrameView::ssid()).
  [[nodiscard]] std::optional<std::string_view> ssid_opt() const noexcept {
    if (!has_ssid) return std::nullopt;
    return ssid_view();
  }
  void set_ssid(std::optional<std::string_view> s);
};

static_assert(std::is_trivially_copyable_v<FrameEvent>,
              "FrameEvent crosses the lock-free ring by plain copy");

struct ClassifiedFrame {
  FrameClass cls = FrameClass::kOther;
  bool has_event = false;
  FrameEvent event;
};

/// Maps one parsed management frame to its observation event (if it carries
/// one) and its stats bucket. This is the single decode policy shared by the
/// batch replay, the sniffer's live sink, and Riptide's feed: the decode
/// path hands it a zero-copy view, the simulator its owning frame, and both
/// overloads run the same body.
[[nodiscard]] ClassifiedFrame classify_frame(const net80211::FrameView& frame,
                                             double time_s, double rssi_dbm);
[[nodiscard]] ClassifiedFrame classify_frame(const net80211::ManagementFrame& frame,
                                             double time_s, double rssi_dbm);

/// Applies one event to a store — the single ingestion policy shared by the
/// batch and live paths. True when the event created a contact (its
/// device's first frame from its AP).
bool apply_event(const FrameEvent& event, ObservationStore& store);

}  // namespace mm::capture
