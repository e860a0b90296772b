#include "capture/observation_store.h"

#include <gtest/gtest.h>

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
  const ApSighting& s1 = store.ap_sightings().at(kAp1);
  EXPECT_EQ(s1.ssid, "NetOne");
  EXPECT_EQ(s1.channel, 6);
  EXPECT_EQ(s1.beacons, 2u);
  EXPECT_DOUBLE_EQ(s1.last_rssi_dbm, -54.0);
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
