// The sniffer's knowledge base: per-device probing evidence and the set of
// APs observed communicating with each device (the Gamma sets consumed by
// M-Loc / AP-Rad / AP-Loc), plus AP beacon sightings (channel distribution,
// SSID inventory).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "net80211/mac_address.h"
#include "sim/event_queue.h"

namespace mm::capture {

struct ObservationWindow {
  sim::SimTime begin = 0.0;
  sim::SimTime end = 1e300;

  [[nodiscard]] bool contains(sim::SimTime t) const noexcept {
    return t >= begin && t <= end;
  }
};

/// Evidence that one AP communicated with one device.
struct ApContact {
  /// The first instant *applied*, which is not the earliest one when events
  /// arrive out of time order. A live position's `updated_at_s` is the
  /// newest of these among the device's known APs, on the live path and in
  /// LiveTracker::rebuild_live_state alike, so it must mean what the live
  /// path saw first.
  sim::SimTime first_seen = 0.0;
  sim::SimTime last_seen = 0.0;  ///< the latest instant, in any arrival order
  std::uint64_t count = 0;
  double last_rssi_dbm = -200.0;
  /// Observation instants, in arrival order. Bounded by the store's
  /// contact_history_cap: once the cap is reached the first-applied instants
  /// are compacted away (first_seen/last_seen/count always remain exact), so
  /// a long-running stream holds bounded memory per device.
  std::vector<sim::SimTime> times;
};

struct DeviceRecord {
  net80211::MacAddress mac;
  /// The earliest and latest instant of any event applied to the device, in
  /// any arrival order. [first_seen, last_seen] covers every contact instant,
  /// which is what lets gamma_append reject an idle device in O(1).
  sim::SimTime first_seen = 0.0;
  sim::SimTime last_seen = 0.0;
  std::uint64_t probe_requests = 0;
  std::vector<std::string> directed_ssids;  ///< implicit identifiers leaked
  std::map<net80211::MacAddress, ApContact> contacts;
  /// 802.11 sequence-number trace from device-transmitted frames. The 12-bit
  /// counter is an implicit identifier in its own right: it keeps counting
  /// across a MAC rotation, so the first sequence a fresh pseudonym shows
  /// (relative to the last sequence a vanished one showed) is linking
  /// evidence for Chimera's IdentityResolver. seq_frames == 0 means the
  /// device was never caught transmitting a sequence-bearing frame. The
  /// first/last pair is the seq of the earliest/latest instant (on a tie,
  /// the first/last applied), so it too is independent of arrival order.
  std::uint64_t seq_frames = 0;
  std::uint16_t first_seq = 0;          ///< 0..4095
  std::uint16_t last_seq = 0;           ///< 0..4095
  sim::SimTime first_seq_time = 0.0;
  sim::SimTime last_seq_time = 0.0;

  [[nodiscard]] bool has_seq() const noexcept { return seq_frames > 0; }
};

struct ApSighting {
  net80211::MacAddress bssid;
  std::string ssid;
  int channel = 0;
  std::uint64_t beacons = 0;
  double last_rssi_dbm = -200.0;
};

struct ObservationStoreOptions {
  /// Per-contact cap on retained observation instants. When exceeded, the
  /// first-applied quarter of the instants is dropped (amortized O(1) per
  /// frame). ObservationWindow queries read the retained, last-applied
  /// instants; the aggregate fields (first_seen/last_seen/count) are always
  /// exact.
  std::size_t contact_history_cap = 4096;
};

class ObservationStore {
 public:
  ObservationStore() = default;
  explicit ObservationStore(ObservationStoreOptions options) : options_(options) {}

  /// Counts one probe request; a directed (non-empty) SSID new to the
  /// device is copied into its record, so a repeated SSID builds no string.
  void record_probe_request(const net80211::MacAddress& device, sim::SimTime time,
                            std::optional<std::string_view> directed_ssid);
  /// Marks a device as seen (association/data traffic) without counting a
  /// probe — the "found but not probing" class of Fig 10/11.
  void record_presence(const net80211::MacAddress& device, sim::SimTime time);
  /// Counts one AP-to-device frame; true when it is the first contact
  /// between the two (the event that can grow the device's Gamma).
  bool record_contact(const net80211::MacAddress& ap, const net80211::MacAddress& device,
                      sim::SimTime time, double rssi_dbm);
  /// Counts one beacon. The first beacon of a BSSID fixes its sighting's SSID
  /// and channel; every beacon updates the last RSSI.
  void record_beacon(const net80211::MacAddress& bssid, std::string_view ssid, int channel,
                     sim::SimTime time, double rssi_dbm);
  /// Notes the 12-bit 802.11 sequence number of one device-transmitted frame
  /// (see DeviceRecord's seq trace). Called by apply_event alongside the
  /// per-kind record above, so batch and live ingestion stay identical.
  void record_device_seq(const net80211::MacAddress& device, sim::SimTime time,
                         std::uint16_t seq);

  [[nodiscard]] const ObservationStoreOptions& options() const noexcept { return options_; }
  [[nodiscard]] std::size_t device_count() const noexcept { return devices_.size(); }
  /// Device MACs in ascending order (the index is unordered internally; the
  /// sorted view keeps exports, tables, and locate_all deterministic).
  [[nodiscard]] std::vector<net80211::MacAddress> devices() const;
  [[nodiscard]] const DeviceRecord* device(const net80211::MacAddress& mac) const;
  /// Every device record, in the index's own order: fixed for a given store,
  /// but neither sorted nor insertion order. For one pass over all devices
  /// that does not need MAC order; a pointer stays valid until clear().
  [[nodiscard]] std::vector<const DeviceRecord*> records() const;

  /// Appends the device's Gamma to `out` without clearing it: the APs with
  /// at least one retained contact instant t inside the window
  /// (begin <= t <= end), in ascending BSSID order. This is the one Gamma
  /// membership rule; the locate paths fill one reused buffer through it.
  /// A device whose [first_seen, last_seen] misses the window is rejected
  /// in O(1) without reading its contacts.
  static void gamma_append(const DeviceRecord& record, const ObservationWindow& window,
                           std::vector<net80211::MacAddress>& out);
  /// The same rule by MAC; an unknown device has an empty Gamma.
  void gamma_append(const net80211::MacAddress& device, const ObservationWindow& window,
                    std::vector<net80211::MacAddress>& out) const;

  /// gamma_append as a set, for callers that need set algebra.
  [[nodiscard]] std::set<net80211::MacAddress> gamma(
      const net80211::MacAddress& device, const ObservationWindow& window = {}) const;

  /// Session-split Gamma sets: each device's contact timeline is partitioned
  /// wherever consecutive observations are more than `session_gap_s` apart,
  /// and each session yields its own Gamma. This is the right co-observation
  /// evidence for AP-Rad — the paper's r_i + r_j >= d_ij constraint assumes
  /// the two APs were seen by the mobile "within a short period of time";
  /// treating a whole walk as one Gamma would co-observe APs hundreds of
  /// meters apart and poison (or render infeasible) the LP.
  [[nodiscard]] std::vector<std::set<net80211::MacAddress>> session_gammas(
      double session_gap_s, const ObservationWindow& window = {}) const;

  /// Devices that sent at least one probe request (the Fig 10/11 statistic).
  [[nodiscard]] std::size_t probing_device_count() const;

  /// One sighting per BSSID, in ascending BSSID order.
  [[nodiscard]] const std::vector<ApSighting>& ap_sightings() const { return sightings_; }
  /// The sighting of `bssid`, or nullptr (binary search).
  [[nodiscard]] const ApSighting* sighting(const net80211::MacAddress& bssid) const;

  void clear();

  /// Wholesale state restoration (used by the persistence layer; see
  /// capture/persistence.h). Replaces any existing record with the same key.
  /// A restored device's [first_seen, last_seen] is widened over its
  /// contact instants, so the idle test in gamma_append stays exact.
  void restore_device(DeviceRecord record);
  void restore_sighting(ApSighting sighting);

 private:
  void cap_contact_history(ApContact& contact) const;

  ObservationStoreOptions options_;
  std::unordered_map<net80211::MacAddress, DeviceRecord, net80211::MacHasher> devices_;
  /// Sorted by BSSID. A capture hears a few hundred APs and sends ~10 beacons
  /// a second for each, so a binary search per beacon beats a tree walk, and
  /// the rare insert's move is cheap.
  std::vector<ApSighting> sightings_;
};

}  // namespace mm::capture
