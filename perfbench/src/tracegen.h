// Seeded probe-traffic generator: the inputs of the live_fabric and
// offline_city workloads.
//
// sim::World delivers every frame to every receiver through an event queue,
// which costs 15-45 us per captured frame and grows with devices squared —
// far too slow to run as set-up for a million-frame city. This generator
// produces the same traffic classes from the same public models, device by
// device, with no event queue:
//
//   * APs from sim::generate_campus_aps; devices walk sim::RandomWaypoint
//     (the arena's speeds and seeds);
//   * a sim::DefenseProfile on the devices sim::assign_defense_adoption
//     picks (MAC rotation, throttled and anonymized probing, TX jitter);
//   * each scan sweeps the 11 b/g channels (wildcard probe, then directed
//     probes); an AP answers when the device sits inside its service disc
//     on the AP's channel — the paper's disc model, as sim::AccessPoint;
//   * a device joins its home network on the first frame it hears from the
//     home AP and then sends keep-alives; the 12-bit sequence counter
//     starts at MacHasher(mac) & 0xfff and keeps counting across rotations;
//   * a sniffer site captures a frame with capture::Sniffer's own decode
//     probability (rooftop LNA chain, cards on channels 1/6/11) at the
//     free-space receive level — the nearest site decides.
//
// tests/tracegen_check.cpp compares the result against a sim::World capture
// of the same configuration.
#pragma once

#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "capture/frame_event.h"
#include "geo/vec2.h"
#include "net80211/frames.h"
#include "net80211/mac_address.h"
#include "sim/mobility.h"
#include "sim/population.h"
#include "sim/scenario.h"

namespace mm::perfbench {

/// Device scan and keep-alive cadence before any defense applies, and the
/// sniffer sites' antenna height (the sim comparison configures its world
/// with the same values).
inline constexpr double kScanIntervalS = 35.0;
inline constexpr double kKeepaliveIntervalS = 15.0;
inline constexpr double kSiteHeightM = 20.0;

struct TraceConfig {
  /// Seeds the layout: AP positions, walks, schedules, capture draws.
  std::uint64_t seed = 1;
  /// Seeds only the names — device MACs, rotated pseudonyms, BSSIDs — as a
  /// bijection over the same layout, so the amount of work stays fixed
  /// while everything keyed on identity (hash placement, shard routing,
  /// sort orders) moves.
  std::uint64_t label_seed = 1;
  std::size_t devices = 50;
  double duration_s = 1200.0;
  std::size_t num_aps = 120;
  double half_extent_m = 280.0;
  /// Run by half of the devices (sim::assign_defense_adoption picks them).
  sim::DefenseProfile defense;
  bool beacons = false;
  std::vector<geo::Vec2> sites{{0.0, 0.0}};

  /// The arena's device population on a small campus: 50 devices for
  /// 1200 s, half of them rotating every 75 s with anonymized probes;
  /// layout and labels both from `seed`.
  [[nodiscard]] static TraceConfig campus(std::uint64_t seed);
};

enum class FrameKind : std::uint8_t {
  kProbeRequest,
  kProbeResponse,
  kAssociationRequest,
  kAssociationResponse,
  kDataNull,
  kBeacon,
};

/// One captured frame, compact enough to keep millions in memory; the
/// net80211 frame is rebuilt from it on demand.
struct TraceFrame {
  double time_s = 0.0;
  float rssi_dbm = 0.0F;      ///< receive level at the capturing site
  std::uint32_t device = 0;   ///< transmitting or addressed device (not beacons)
  std::uint32_t ap = 0;       ///< AP index (not probe requests)
  net80211::MacAddress mac;   ///< the device's pseudonym at that instant
  std::uint16_t seq = 0;      ///< transmitter's 12-bit sequence number
  FrameKind kind = FrameKind::kProbeRequest;
  std::int8_t ssid = -1;      ///< probe request: directed SSID index, -1 = wildcard
  std::uint8_t channel = 1;   ///< b/g channel the frame went out on
  std::uint8_t site = 0;      ///< capturing site
};

struct Trace {
  TraceConfig config;
  std::vector<sim::ApTruth> aps;
  std::vector<std::shared_ptr<const sim::MobilityModel>> mobility;  ///< per device
  std::vector<std::vector<std::string>> directed_ssids;             ///< per device
  /// Every pseudonym a device used, oldest first (entry 0 = factory MAC).
  std::vector<std::vector<net80211::MacAddress>> pseudonyms;
  std::vector<bool> adopters;
  std::unordered_map<net80211::MacAddress, std::uint32_t, net80211::MacHasher> owner;
  /// Captured frames in capture order (time, then generation order).
  std::vector<TraceFrame> frames;
};

/// Factory MAC of device `d` (globally administered, so it never collides
/// with a rotated, locally administered pseudonym).
[[nodiscard]] net80211::MacAddress device_mac(const TraceConfig& config, std::size_t d);

/// The mobility model of device `d` (shared with the sim comparison).
[[nodiscard]] std::shared_ptr<const sim::MobilityModel> device_mobility(
    const TraceConfig& config, std::size_t d);

/// Remembered networks device `d` probes for before any defense applies.
[[nodiscard]] std::vector<std::string> device_ssids(std::size_t d);

/// Index of the AP nearest to `p` (the device's home network).
[[nodiscard]] std::size_t nearest_ap(const std::vector<sim::ApTruth>& aps, geo::Vec2 p);

/// Generates the trace; deterministic in the config.
[[nodiscard]] Trace generate_trace(const TraceConfig& config);

/// Rebuilds the over-the-air frame with net80211's encoders.
[[nodiscard]] net80211::ManagementFrame build_frame(const Trace& trace,
                                                    const TraceFrame& frame);

/// Writes the capture as a radiotap pcap; returns the bytes written.
std::uint64_t write_pcap(const Trace& trace, const std::filesystem::path& path);

/// The observation events each site decodes, in capture order, one vector
/// per site (capture::classify_frame over the rebuilt frames).
[[nodiscard]] std::vector<std::vector<capture::FrameEvent>> site_events(const Trace& trace);

}  // namespace mm::perfbench
