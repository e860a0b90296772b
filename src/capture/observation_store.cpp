#include "capture/observation_store.h"

#include <algorithm>

namespace mm::capture {

namespace {
using DeviceMap =
    std::unordered_map<net80211::MacAddress, DeviceRecord, net80211::MacHasher>;

// The aggregates below are order-independent: first_seen is the earliest
// instant and last_seen the latest, whatever order events arrive in (the feed
// mux interleaves sites by chunk, not by time). A tie keeps the choice a
// stream in time order makes, so such a stream yields the bits it always did.
DeviceRecord& touch_device(DeviceMap& devices, const net80211::MacAddress& mac,
                           sim::SimTime time) {
  auto [it, inserted] = devices.try_emplace(mac);
  DeviceRecord& rec = it->second;
  if (inserted) {
    rec.mac = mac;
    rec.first_seen = time;
  } else if (time < rec.first_seen) {
    rec.first_seen = time;
  }
  rec.last_seen = std::max(rec.last_seen, time);
  return rec;
}

/// Where `bssid`'s sighting is, or would be inserted (sightings are sorted by
/// BSSID).
template <typename Sightings>
auto sighting_slot(Sightings& sightings, const net80211::MacAddress& bssid) {
  return std::lower_bound(
      sightings.begin(), sightings.end(), bssid,
      [](const ApSighting& s, const net80211::MacAddress& key) { return s.bssid < key; });
}
}  // namespace

void ObservationStore::record_probe_request(const net80211::MacAddress& device,
                                            sim::SimTime time,
                                            std::optional<std::string_view> directed_ssid) {
  DeviceRecord& rec = touch_device(devices_, device, time);
  ++rec.probe_requests;
  if (directed_ssid && !directed_ssid->empty()) {
    if (std::find(rec.directed_ssids.begin(), rec.directed_ssids.end(), *directed_ssid) ==
        rec.directed_ssids.end()) {
      rec.directed_ssids.emplace_back(*directed_ssid);
    }
  }
}

void ObservationStore::record_presence(const net80211::MacAddress& device,
                                       sim::SimTime time) {
  (void)touch_device(devices_, device, time);
}

bool ObservationStore::record_contact(const net80211::MacAddress& ap,
                                      const net80211::MacAddress& device, sim::SimTime time,
                                      double rssi_dbm) {
  DeviceRecord& rec = touch_device(devices_, device, time);
  auto [it, inserted] = rec.contacts.try_emplace(ap);
  ApContact& contact = it->second;
  if (inserted) contact.first_seen = time;
  if (inserted || !(time < contact.last_seen)) contact.last_seen = time;
  ++contact.count;
  contact.last_rssi_dbm = rssi_dbm;
  contact.times.push_back(time);
  cap_contact_history(contact);
  return inserted;
}

void ObservationStore::cap_contact_history(ApContact& contact) const {
  const std::size_t cap = std::max<std::size_t>(options_.contact_history_cap, 4);
  if (contact.times.size() <= cap) return;
  // Drop the first-applied quarter in one move; amortized O(1) per recorded
  // frame. `times` keeps arrival order, so what stays is the most recently
  // applied instants.
  const std::size_t drop = cap / 4;
  contact.times.erase(contact.times.begin(),
                      contact.times.begin() + static_cast<std::ptrdiff_t>(drop));
}

void ObservationStore::record_device_seq(const net80211::MacAddress& device,
                                         sim::SimTime time, std::uint16_t seq) {
  DeviceRecord& rec = touch_device(devices_, device, time);
  seq &= 0x0FFF;
  if (rec.seq_frames == 0 || time < rec.first_seq_time) {
    rec.first_seq = seq;
    rec.first_seq_time = time;
  }
  if (rec.seq_frames == 0 || !(time < rec.last_seq_time)) {
    rec.last_seq = seq;
    rec.last_seq_time = time;
  }
  ++rec.seq_frames;
}

void ObservationStore::record_beacon(const net80211::MacAddress& bssid,
                                     std::string_view ssid, int channel,
                                     sim::SimTime /*time*/, double rssi_dbm) {
  auto it = sighting_slot(sightings_, bssid);
  if (it == sightings_.end() || it->bssid != bssid) {
    it = sightings_.insert(it, ApSighting{bssid, std::string(ssid), channel});
  }
  ++it->beacons;
  it->last_rssi_dbm = rssi_dbm;
}

const ApSighting* ObservationStore::sighting(const net80211::MacAddress& bssid) const {
  const auto it = sighting_slot(sightings_, bssid);
  return it == sightings_.end() || it->bssid != bssid ? nullptr : &*it;
}

std::vector<net80211::MacAddress> ObservationStore::devices() const {
  std::vector<net80211::MacAddress> out;
  out.reserve(devices_.size());
  for (const auto& [mac, rec] : devices_) out.push_back(mac);
  std::sort(out.begin(), out.end());
  return out;
}

const DeviceRecord* ObservationStore::device(const net80211::MacAddress& mac) const {
  const auto it = devices_.find(mac);
  return it == devices_.end() ? nullptr : &it->second;
}

std::vector<const DeviceRecord*> ObservationStore::records() const {
  std::vector<const DeviceRecord*> out;
  out.reserve(devices_.size());
  for (const auto& [mac, rec] : devices_) out.push_back(&rec);
  return out;
}

void ObservationStore::gamma_append(const net80211::MacAddress& device,
                                    const ObservationWindow& window,
                                    std::vector<net80211::MacAddress>& out) const {
  const DeviceRecord* rec = this->device(device);
  if (rec != nullptr) gamma_append(*rec, window, out);
}

void ObservationStore::gamma_append(const DeviceRecord& rec, const ObservationWindow& window,
                                    std::vector<net80211::MacAddress>& out) {
  // Every contact instant lies in [first_seen, last_seen] (the store keeps
  // the span order-independent and restore_device widens it), so a device
  // whose span misses the window has no instant in it.
  if (rec.last_seen < window.begin || rec.first_seen > window.end) return;
  out.reserve(out.size() + rec.contacts.size());
  // contacts is an ordered map, so appending in iteration order yields
  // ascending BSSIDs.
  for (const auto& [ap, contact] : rec.contacts) {
    // First/last retained instants are genuine members of `times`, so hitting
    // either settles the any-member-in-window question in O(1) — the common
    // case for the default whole-capture window. Only windows that clip both
    // ends fall back to the linear membership scan.
    const bool in_window =
        (!contact.times.empty() && (window.contains(contact.times.front()) ||
                                    window.contains(contact.times.back()))) ||
        std::any_of(contact.times.begin(), contact.times.end(),
                    [&](sim::SimTime t) { return window.contains(t); });
    if (in_window) out.push_back(ap);
  }
}

std::set<net80211::MacAddress> ObservationStore::gamma(
    const net80211::MacAddress& device, const ObservationWindow& window) const {
  std::vector<net80211::MacAddress> aps;
  gamma_append(device, window, aps);
  return {aps.begin(), aps.end()};
}

std::vector<std::set<net80211::MacAddress>> ObservationStore::session_gammas(
    double session_gap_s, const ObservationWindow& window) const {
  std::vector<std::set<net80211::MacAddress>> gammas;
  for (const auto& mac : devices()) {
    const DeviceRecord& rec = *device(mac);
    // Flatten the device's contact events into a time-sorted list.
    std::vector<std::pair<sim::SimTime, net80211::MacAddress>> events;
    for (const auto& [ap, contact] : rec.contacts) {
      for (sim::SimTime t : contact.times) {
        if (window.contains(t)) events.emplace_back(t, ap);
      }
    }
    std::sort(events.begin(), events.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });

    std::set<net80211::MacAddress> session;
    sim::SimTime last = 0.0;
    for (const auto& [t, ap] : events) {
      if (!session.empty() && t - last > session_gap_s) {
        gammas.push_back(std::move(session));
        session.clear();
      }
      session.insert(ap);
      last = t;
    }
    if (!session.empty()) gammas.push_back(std::move(session));
  }
  return gammas;
}

std::size_t ObservationStore::probing_device_count() const {
  std::size_t count = 0;
  for (const auto& [mac, rec] : devices_) count += rec.probe_requests > 0 ? 1 : 0;
  return count;
}

void ObservationStore::clear() {
  devices_.clear();
  sightings_.clear();
}

void ObservationStore::restore_device(DeviceRecord record) {
  for (const auto& [ap, contact] : record.contacts) {
    for (const sim::SimTime t : contact.times) {
      if (t < record.first_seen) record.first_seen = t;
      if (t > record.last_seen) record.last_seen = t;
    }
  }
  const net80211::MacAddress mac = record.mac;
  devices_[mac] = std::move(record);
}

void ObservationStore::restore_sighting(ApSighting sighting) {
  const auto it = sighting_slot(sightings_, sighting.bssid);
  if (it != sightings_.end() && it->bssid == sighting.bssid) {
    *it = std::move(sighting);
  } else {
    sightings_.insert(it, std::move(sighting));
  }
}

}  // namespace mm::capture
