#include "capture/observation_store.h"

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "capture/frame_event.h"
#include "util/rng.h"

namespace mm::capture {
namespace {

const net80211::MacAddress kDevA = *net80211::MacAddress::parse("00:16:6f:00:00:0a");
const net80211::MacAddress kDevB = *net80211::MacAddress::parse("00:16:6f:00:00:0b");
const net80211::MacAddress kAp1 = *net80211::MacAddress::parse("00:1a:2b:00:00:01");
const net80211::MacAddress kAp2 = *net80211::MacAddress::parse("00:1a:2b:00:00:02");
const net80211::MacAddress kAp3 = *net80211::MacAddress::parse("00:1a:2b:00:00:03");

TEST(ObservationStore, EmptyByDefault) {
  const ObservationStore store;
  EXPECT_EQ(store.device_count(), 0u);
  EXPECT_TRUE(store.devices().empty());
  EXPECT_EQ(store.device(kDevA), nullptr);
  EXPECT_TRUE(store.gamma(kDevA).empty());
  EXPECT_EQ(store.probing_device_count(), 0u);
}

TEST(ObservationStore, ProbeRequestCreatesDevice) {
  ObservationStore store;
  store.record_probe_request(kDevA, 1.0, std::nullopt);
  EXPECT_EQ(store.device_count(), 1u);
  const DeviceRecord* rec = store.device(kDevA);
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(rec->probe_requests, 1u);
  EXPECT_DOUBLE_EQ(rec->first_seen, 1.0);
  EXPECT_DOUBLE_EQ(rec->last_seen, 1.0);
}

TEST(ObservationStore, DirectedSsidsDeduplicated) {
  ObservationStore store;
  store.record_probe_request(kDevA, 1.0, std::string("HomeNet"));
  store.record_probe_request(kDevA, 2.0, std::string("HomeNet"));
  store.record_probe_request(kDevA, 3.0, std::string("WorkNet"));
  store.record_probe_request(kDevA, 4.0, std::string(""));  // wildcard ignored
  const DeviceRecord* rec = store.device(kDevA);
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(rec->directed_ssids, (std::vector<std::string>{"HomeNet", "WorkNet"}));
}

TEST(ObservationStore, GammaCollectsContacts) {
  ObservationStore store;
  store.record_contact(kAp1, kDevA, 1.0, -70.0);
  store.record_contact(kAp2, kDevA, 1.1, -75.0);
  store.record_contact(kAp1, kDevB, 2.0, -60.0);
  EXPECT_EQ(store.gamma(kDevA), (std::set<net80211::MacAddress>{kAp1, kAp2}));
  EXPECT_EQ(store.gamma(kDevB), (std::set<net80211::MacAddress>{kAp1}));
}

TEST(ObservationStore, GammaWindowFilters) {
  ObservationStore store;
  store.record_contact(kAp1, kDevA, 1.0, -70.0);
  store.record_contact(kAp2, kDevA, 5.0, -70.0);
  store.record_contact(kAp3, kDevA, 9.0, -70.0);
  EXPECT_EQ(store.gamma(kDevA, {4.0, 6.0}), (std::set<net80211::MacAddress>{kAp2}));
  EXPECT_EQ(store.gamma(kDevA, {0.0, 10.0}),
            (std::set<net80211::MacAddress>{kAp1, kAp2, kAp3}));
  EXPECT_TRUE(store.gamma(kDevA, {20.0, 30.0}).empty());
}

TEST(ObservationStore, ContactAccumulatesCounts) {
  ObservationStore store;
  store.record_contact(kAp1, kDevA, 1.0, -70.0);
  store.record_contact(kAp1, kDevA, 2.0, -65.0);
  const DeviceRecord* rec = store.device(kDevA);
  ASSERT_NE(rec, nullptr);
  const ApContact& contact = rec->contacts.at(kAp1);
  EXPECT_EQ(contact.count, 2u);
  EXPECT_DOUBLE_EQ(contact.first_seen, 1.0);
  EXPECT_DOUBLE_EQ(contact.last_seen, 2.0);
  EXPECT_DOUBLE_EQ(contact.last_rssi_dbm, -65.0);
  EXPECT_EQ(contact.times.size(), 2u);
}

TEST(ObservationStore, AllGammasSkipsDevicesWithoutContacts) {
  ObservationStore store;
  store.record_probe_request(kDevA, 1.0, std::nullopt);  // probing, no contacts
  store.record_contact(kAp1, kDevB, 1.0, -70.0);
  std::vector<std::set<net80211::MacAddress>> gammas;
  for (const auto& mac : store.devices()) {
    auto gamma = store.gamma(mac);
    if (!gamma.empty()) gammas.push_back(std::move(gamma));
  }
  ASSERT_EQ(gammas.size(), 1u);
  EXPECT_EQ(gammas[0], (std::set<net80211::MacAddress>{kAp1}));
}

TEST(ObservationStore, SessionGammasSplitByGap) {
  ObservationStore store;
  // One scan at t~1 (AP1, AP2), another at t~100 (AP2, AP3).
  store.record_contact(kAp1, kDevA, 1.00, -70.0);
  store.record_contact(kAp2, kDevA, 1.05, -70.0);
  store.record_contact(kAp2, kDevA, 100.00, -70.0);
  store.record_contact(kAp3, kDevA, 100.10, -70.0);
  const auto sessions = store.session_gammas(5.0);
  ASSERT_EQ(sessions.size(), 2u);
  EXPECT_EQ(sessions[0], (std::set<net80211::MacAddress>{kAp1, kAp2}));
  EXPECT_EQ(sessions[1], (std::set<net80211::MacAddress>{kAp2, kAp3}));
}

TEST(ObservationStore, SessionGammasSingleSessionWhenDense) {
  ObservationStore store;
  store.record_contact(kAp1, kDevA, 1.0, -70.0);
  store.record_contact(kAp2, kDevA, 3.0, -70.0);
  store.record_contact(kAp3, kDevA, 5.0, -70.0);
  const auto sessions = store.session_gammas(5.0);
  ASSERT_EQ(sessions.size(), 1u);
  EXPECT_EQ(sessions[0].size(), 3u);
}

TEST(ObservationStore, SessionGammasRespectWindow) {
  ObservationStore store;
  store.record_contact(kAp1, kDevA, 1.0, -70.0);
  store.record_contact(kAp2, kDevA, 50.0, -70.0);
  const auto sessions = store.session_gammas(5.0, {40.0, 60.0});
  ASSERT_EQ(sessions.size(), 1u);
  EXPECT_EQ(sessions[0], (std::set<net80211::MacAddress>{kAp2}));
}

TEST(ObservationStore, SessionGammasPerDevice) {
  ObservationStore store;
  store.record_contact(kAp1, kDevA, 1.0, -70.0);
  store.record_contact(kAp2, kDevB, 1.0, -70.0);
  const auto sessions = store.session_gammas(5.0);
  EXPECT_EQ(sessions.size(), 2u);  // one per device, never merged
}

TEST(ObservationStore, ProbingDeviceCount) {
  ObservationStore store;
  store.record_probe_request(kDevA, 1.0, std::nullopt);
  store.record_contact(kAp1, kDevB, 1.0, -70.0);  // seen, never probed
  EXPECT_EQ(store.device_count(), 2u);
  EXPECT_EQ(store.probing_device_count(), 1u);
}

TEST(ObservationStore, BeaconSightings) {
  ObservationStore store;
  store.record_beacon(kAp1, "NetOne", 6, 1.0, -55.0);
  store.record_beacon(kAp1, "NetOne", 6, 1.1, -54.0);
  store.record_beacon(kAp2, "NetTwo", 11, 1.2, -60.0);
  ASSERT_EQ(store.ap_sightings().size(), 2u);
  ASSERT_NE(store.sighting(kAp1), nullptr);
  const ApSighting& s1 = *store.sighting(kAp1);
  EXPECT_EQ(s1.ssid, "NetOne");
  EXPECT_EQ(s1.channel, 6);
  EXPECT_EQ(s1.beacons, 2u);
  EXPECT_DOUBLE_EQ(s1.last_rssi_dbm, -54.0);
}

TEST(ObservationStore, SightingsMatchMapModelUnderRandomBeacons) {
  // The rule the flat table must keep, written against a std::map: a
  // BSSID's first beacon fixes its SSID and channel, every beacon counts,
  // the last RSSI wins, and restore_sighting replaces the whole sighting.
  std::map<net80211::MacAddress, ApSighting> model;
  const auto model_beacon = [&](const net80211::MacAddress& bssid, std::string_view ssid,
                                int channel, double rssi) {
    auto [it, inserted] = model.try_emplace(bssid);
    if (inserted) it->second = ApSighting{bssid, std::string(ssid), channel};
    ++it->second.beacons;
    it->second.last_rssi_dbm = rssi;
  };
  const auto expect_matches_model = [&](const ObservationStore& store) {
    ASSERT_EQ(store.ap_sightings().size(), model.size());
    auto want = model.begin();
    for (const ApSighting& got : store.ap_sightings()) {
      EXPECT_EQ(got.bssid, want->first);
      EXPECT_EQ(got.ssid, want->second.ssid);
      EXPECT_EQ(got.channel, want->second.channel);
      EXPECT_EQ(got.beacons, want->second.beacons);
      EXPECT_EQ(got.last_rssi_dbm, want->second.last_rssi_dbm);
      ASSERT_EQ(store.sighting(got.bssid), &got);
      ++want;
    }
  };

  const std::vector<std::string> ssids = {
      "", "CampusNet", std::string(32, 'W'), std::string("ab\0cd", 5), std::string(1, '\0')};
  util::Rng rng(2024);
  std::vector<net80211::MacAddress> bssids;
  for (int i = 0; i < 40; ++i) {
    bssids.push_back(net80211::MacAddress::from_u64(rng.next_u64() & 0xFFFFFFFFFFFFULL));
  }
  ObservationStore store;
  for (int step = 0; step < 4000; ++step) {
    const net80211::MacAddress& bssid = bssids[rng.uniform_int(0, 39)];
    const std::string& ssid = ssids[rng.uniform_int(0, 4)];
    const int channel = static_cast<int>(rng.uniform_int(1, 11));
    const double rssi = rng.uniform(-95.0, -30.0);
    const std::int64_t action = rng.uniform_int(0, 99);
    if (action < 50) {
      FrameEvent event;
      event.kind = FrameEventKind::kBeacon;
      event.ap = bssid;
      event.time_s = step;
      event.rssi_dbm = rssi;
      event.channel = static_cast<std::int16_t>(channel);
      event.set_ssid(ssid);
      apply_event(event, store);
      model_beacon(bssid, ssid, channel, rssi);
    } else if (action < 98) {
      store.record_beacon(bssid, ssid, channel, step, rssi);
      model_beacon(bssid, ssid, channel, rssi);
    } else {
      const ApSighting restored{bssid, ssid, channel,
                                static_cast<std::uint64_t>(rng.uniform_int(0, 9)), rssi};
      store.restore_sighting(restored);
      model[bssid] = restored;
    }
    if (step == 2000) {
      expect_matches_model(store);
      store.clear();
      model.clear();
      EXPECT_TRUE(store.ap_sightings().empty());
    }
  }
  expect_matches_model(store);
  // Every SSID shape the test drew made it into the table byte for byte.
  std::set<std::string> seen;
  for (const ApSighting& s : store.ap_sightings()) seen.insert(s.ssid);
  EXPECT_EQ(seen, std::set<std::string>(ssids.begin(), ssids.end()));
  EXPECT_EQ(store.sighting(net80211::MacAddress::broadcast()), nullptr);
}

TEST(ObservationStore, AggregatesIndependentOfArrivalOrder) {
  // A contact heard at 12 s is applied before one heard at 10 s (two sites
  // interleaved by chunk). The device's span and the contact's last_seen are
  // the earliest and latest instants; the seq trace follows the instants;
  // the contact's first_seen stays the first instant applied.
  ObservationStore store;
  store.record_contact(kAp1, kDevA, 12.0, -50.0);
  store.record_device_seq(kDevA, 12.0, 700);
  store.record_contact(kAp1, kDevA, 10.0, -51.0);
  store.record_device_seq(kDevA, 10.0, 698);
  const DeviceRecord* rec = store.device(kDevA);
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(rec->first_seen, 10.0);
  EXPECT_EQ(rec->last_seen, 12.0);
  const ApContact& contact = rec->contacts.at(kAp1);
  EXPECT_EQ(contact.first_seen, 12.0);
  EXPECT_EQ(contact.last_seen, 12.0);
  EXPECT_EQ(rec->first_seq, 698);
  EXPECT_EQ(rec->first_seq_time, 10.0);
  EXPECT_EQ(rec->last_seq, 700);
  EXPECT_EQ(rec->last_seq_time, 12.0);
  EXPECT_EQ(rec->seq_frames, 2u);
  // A window holding only the earlier instant still finds the AP.
  EXPECT_EQ(store.gamma(kDevA, {9.5, 10.5}), (std::set<net80211::MacAddress>{kAp1}));

  // On a tie the choice of a stream in time order stands: the first frame
  // applied at the earliest instant, the last one applied at the latest.
  ObservationStore ties;
  ties.record_device_seq(kDevB, 5.0, 100);
  ties.record_device_seq(kDevB, 5.0, 101);
  ties.record_device_seq(kDevB, 5.0, 102);
  EXPECT_EQ(ties.device(kDevB)->first_seq, 100);
  EXPECT_EQ(ties.device(kDevB)->last_seq, 102);
}

TEST(ObservationStore, ShuffledStreamKeepsOrderIndependentAggregates) {
  // One event stream at distinct instants, applied in time order and in a
  // seeded shuffle: every aggregate the store calls order-independent, and
  // every window's Gamma, come out the same.
  util::Rng rng(99);
  std::vector<FrameEvent> events;
  const net80211::MacAddress devices[] = {kDevA, kDevB};
  const net80211::MacAddress aps[] = {kAp1, kAp2, kAp3};
  for (int i = 0; i < 300; ++i) {
    FrameEvent e;
    e.kind = static_cast<FrameEventKind>(rng.uniform_int(0, 2));  // probe, presence, contact
    e.device = devices[rng.uniform_int(0, 1)];
    e.ap = aps[rng.uniform_int(0, 2)];
    e.time_s = 0.5 * i + rng.uniform(0.0, 0.25);
    e.device_seq = rng.bernoulli(0.7) ? static_cast<std::int32_t>(rng.uniform_int(0, 4095)) : -1;
    events.push_back(e);
  }
  ObservationStore ordered;
  for (const FrameEvent& e : events) apply_event(e, ordered);
  for (std::size_t i = events.size() - 1; i > 0; --i) {
    std::swap(events[i], events[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(i)))]);
  }
  ObservationStore shuffled;
  for (const FrameEvent& e : events) apply_event(e, shuffled);

  ASSERT_EQ(shuffled.devices(), ordered.devices());
  for (const net80211::MacAddress& mac : ordered.devices()) {
    const DeviceRecord& a = *ordered.device(mac);
    const DeviceRecord& b = *shuffled.device(mac);
    EXPECT_EQ(a.first_seen, b.first_seen);
    EXPECT_EQ(a.last_seen, b.last_seen);
    EXPECT_EQ(a.probe_requests, b.probe_requests);
    EXPECT_EQ(a.seq_frames, b.seq_frames);
    EXPECT_EQ(a.first_seq, b.first_seq);
    EXPECT_EQ(a.first_seq_time, b.first_seq_time);
    EXPECT_EQ(a.last_seq, b.last_seq);
    EXPECT_EQ(a.last_seq_time, b.last_seq_time);
    ASSERT_EQ(a.contacts.size(), b.contacts.size());
    for (const auto& [ap, contact] : a.contacts) {
      const ApContact& other = b.contacts.at(ap);
      EXPECT_EQ(contact.last_seen, other.last_seen);
      EXPECT_EQ(contact.count, other.count);
      EXPECT_EQ(std::multiset<double>(contact.times.begin(), contact.times.end()),
                std::multiset<double>(other.times.begin(), other.times.end()));
    }
    for (double begin = -10.0; begin < 160.0; begin += 7.5) {
      const ObservationWindow window{begin, begin + 5.0};
      EXPECT_EQ(ordered.gamma(mac, window), shuffled.gamma(mac, window));
    }
  }
}

TEST(ObservationStore, GammaKeepsWindowsThatOnlyTouchTheDeviceSpan) {
  // Windows are inclusive at both ends, so a window that meets a device's
  // span at one instant still holds that instant's contact.
  ObservationStore store;
  store.record_contact(kAp1, kDevA, 10.0, -50.0);
  store.record_contact(kAp2, kDevA, 20.0, -50.0);
  EXPECT_EQ(store.gamma(kDevA, {0.0, 10.0}), (std::set<net80211::MacAddress>{kAp1}));
  EXPECT_EQ(store.gamma(kDevA, {20.0, 30.0}), (std::set<net80211::MacAddress>{kAp2}));
  EXPECT_TRUE(store.gamma(kDevA, {0.0, std::nextafter(10.0, 0.0)}).empty());
  EXPECT_TRUE(store.gamma(kDevA, {std::nextafter(20.0, 30.0), 30.0}).empty());
}

TEST(ObservationStore, RestoreWidensDeviceSpanOverContactInstants) {
  // A restored record whose span misses some of its own contact instants
  // (a hand-edited or older file): the store widens the span, so those
  // instants stay reachable through Gamma.
  DeviceRecord record;
  record.mac = kDevA;
  record.first_seen = 50.0;
  record.last_seen = 60.0;
  ApContact contact;
  contact.first_seen = 10.0;
  contact.last_seen = 70.0;
  contact.count = 2;
  contact.times = {10.0, 70.0};
  record.contacts[kAp1] = contact;
  ObservationStore store;
  store.restore_device(record);
  EXPECT_EQ(store.device(kDevA)->first_seen, 10.0);
  EXPECT_EQ(store.device(kDevA)->last_seen, 70.0);
  EXPECT_EQ(store.gamma(kDevA, {5.0, 15.0}), (std::set<net80211::MacAddress>{kAp1}));
  EXPECT_EQ(store.gamma(kDevA, {65.0, 75.0}), (std::set<net80211::MacAddress>{kAp1}));
  EXPECT_TRUE(store.gamma(kDevA, {20.0, 40.0}).empty());
}

TEST(ObservationStore, ClearResets) {
  ObservationStore store;
  store.record_probe_request(kDevA, 1.0, std::nullopt);
  store.record_beacon(kAp1, "x", 1, 1.0, -50.0);
  store.clear();
  EXPECT_EQ(store.device_count(), 0u);
  EXPECT_TRUE(store.ap_sightings().empty());
}

TEST(ObservationStore, ContactHistoryCapCompactsOldestInstants) {
  ObservationStoreOptions options;
  options.contact_history_cap = 16;
  ObservationStore store(options);
  for (int i = 0; i < 100; ++i) {
    store.record_contact(kAp1, kDevA, static_cast<sim::SimTime>(i), -70.0);
  }
  const ApContact& contact = store.device(kDevA)->contacts.at(kAp1);
  // Aggregates stay exact even though instants were compacted.
  EXPECT_EQ(contact.count, 100u);
  EXPECT_EQ(contact.first_seen, 0.0);
  EXPECT_EQ(contact.last_seen, 99.0);
  // History is bounded by the cap and holds the newest suffix, time-ordered.
  EXPECT_LE(contact.times.size(), 16u);
  EXPECT_EQ(contact.times.back(), 99.0);
  for (std::size_t i = 1; i < contact.times.size(); ++i) {
    EXPECT_LT(contact.times[i - 1], contact.times[i]);
  }
  // Recent-window queries over the retained suffix remain exact.
  EXPECT_EQ(store.gamma(kDevA, ObservationWindow{95.0, 99.0}).count(kAp1), 1u);
}

TEST(ObservationStore, ContactHistoryCapAppliesPerContact) {
  ObservationStoreOptions options;
  options.contact_history_cap = 8;
  ObservationStore store(options);
  for (int i = 0; i < 50; ++i) {
    store.record_contact(kAp1, kDevA, static_cast<sim::SimTime>(i), -70.0);
  }
  store.record_contact(kAp2, kDevA, 1.0, -60.0);
  const DeviceRecord* record = store.device(kDevA);
  EXPECT_LE(record->contacts.at(kAp1).times.size(), 8u);
  // A sparse contact on the same device is untouched by the busy one's cap.
  EXPECT_EQ(record->contacts.at(kAp2).times.size(), 1u);
}

}  // namespace
}  // namespace mm::capture
