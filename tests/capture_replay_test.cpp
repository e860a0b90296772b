#include "capture/replay.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <string>

#include "capture/sniffer.h"
#include "net80211/pcap.h"
#include "net80211/radiotap.h"
#include "sim/ap.h"
#include "sim/mobile.h"
#include "sim/mobility.h"
#include "unique_temp_path.h"

namespace mm::capture {
namespace {

const net80211::MacAddress kApMac = *net80211::MacAddress::parse("00:1a:2b:00:00:01");
const net80211::MacAddress kClientMac = *net80211::MacAddress::parse("00:16:6f:00:00:02");

std::filesystem::path record_session() {
  const auto path = testing_support::unique_temp_path("mm_replay.pcap");
  sim::World world({});
  sim::ApConfig ap;
  ap.bssid = kApMac;
  ap.ssid = "ReplayNet";
  ap.channel = {rf::Band::kBg24GHz, 6};
  ap.position = {40.0, 0.0};
  ap.service_radius_m = 100.0;
  ap.beacons_enabled = true;
  world.add_access_point(std::make_unique<sim::AccessPoint>(ap));

  sim::MobileConfig mc;
  mc.mac = kClientMac;
  mc.profile.probes = false;
  mc.mobility = std::make_shared<sim::StaticPosition>(geo::Vec2{0.0, 0.0});
  sim::MobileDevice* mobile = world.add_mobile(std::make_unique<sim::MobileDevice>(mc));

  ObservationStore live;
  SnifferConfig sc;
  sc.position = {0.0, 60.0};
  sc.pcap_path = path;
  Sniffer sniffer(sc, &live);
  sniffer.attach(world);
  mobile->trigger_scan();
  world.run_until(5.0);
  return path;
}

TEST(Replay, RebuildsObservationsFromPcap) {
  const auto path = record_session();
  ObservationStore offline;
  const auto replayed = replay_pcap(path, offline);
  ASSERT_TRUE(replayed.ok()) << replayed.error();
  const ReplayStats& stats = replayed.value();
  EXPECT_GT(stats.records, 0u);
  EXPECT_EQ(stats.malformed, 0u);
  EXPECT_EQ(stats.framing_quarantined, 0u);
  EXPECT_FALSE(stats.truncated_tail);
  EXPECT_GT(stats.probe_requests, 0u);
  EXPECT_EQ(stats.probe_responses, 1u);
  EXPECT_GT(stats.beacons, 0u);

  // The offline store carries the same Gamma evidence the live store did.
  EXPECT_EQ(offline.gamma(kClientMac), (std::set<net80211::MacAddress>{kApMac}));
  const DeviceRecord* rec = offline.device(kClientMac);
  ASSERT_NE(rec, nullptr);
  EXPECT_GT(rec->probe_requests, 0u);
  // Beacon sightings recovered too (channel survey works offline).
  const ApSighting* sighting = offline.sighting(kApMac);
  ASSERT_NE(sighting, nullptr);
  EXPECT_EQ(sighting->ssid, "ReplayNet");
  EXPECT_EQ(sighting->channel, 6);
  std::filesystem::remove(path);
}

TEST(Replay, RejectsWrongLinktype) {
  const auto path = testing_support::unique_temp_path("mm_replay_bad.pcap");
  { net80211::PcapWriter writer(path, net80211::kLinktype80211); }
  ObservationStore store;
  const auto replayed = replay_pcap(path, store);
  EXPECT_FALSE(replayed.ok());
  EXPECT_NE(replayed.error().find("linktype"), std::string::npos);
  std::filesystem::remove(path);
}

TEST(Replay, MissingFileIsFailure) {
  ObservationStore store;
  const auto replayed = replay_pcap("/nonexistent.pcap", store);
  EXPECT_FALSE(replayed.ok());
  EXPECT_FALSE(replayed.error().empty());
}

TEST(Replay, CountsMalformedRecords) {
  const auto path = testing_support::unique_temp_path("mm_replay_junk.pcap");
  {
    net80211::PcapWriter writer(path, net80211::kLinktypeRadiotap);
    writer.write(0, std::vector<std::uint8_t>{0x01, 0x02, 0x03});  // not radiotap
  }
  ObservationStore store;
  const auto replayed = replay_pcap(path, store);
  ASSERT_TRUE(replayed.ok());
  EXPECT_EQ(replayed.value().records, 1u);
  EXPECT_EQ(replayed.value().malformed, 1u);
  EXPECT_EQ(replayed.value().quarantined(), 1u);
  EXPECT_EQ(store.device_count(), 0u);
  std::filesystem::remove(path);
}

// A radiotap header whose advertised length exceeds the record must be
// quarantined as malformed without ever reading past the record's bytes
// (run under ASan in CI to prove the "never" part).
TEST(Replay, RadiotapLengthBeyondRecordQuarantined) {
  const auto path = testing_support::unique_temp_path("mm_replay_oob.pcap");
  {
    net80211::Radiotap rt;
    rt.antenna_signal_dbm = -60;
    auto packet = rt.serialize();
    // Lie in the it_len field: claim far more header than the record holds.
    packet[2] = 0xff;
    packet[3] = 0x00;
    net80211::PcapWriter writer(path, net80211::kLinktypeRadiotap);
    writer.write(0, packet);
  }
  ObservationStore store;
  const auto replayed = replay_pcap(path, store);
  ASSERT_TRUE(replayed.ok());
  EXPECT_EQ(replayed.value().records, 1u);
  EXPECT_EQ(replayed.value().malformed, 1u);
  EXPECT_EQ(store.device_count(), 0u);
  std::filesystem::remove(path);
}

TEST(Replay, TruncatedTailReported) {
  const auto path = record_session();
  std::filesystem::resize_file(path, std::filesystem::file_size(path) - 7);
  ObservationStore store;
  const auto replayed = replay_pcap(path, store);
  ASSERT_TRUE(replayed.ok());
  EXPECT_TRUE(replayed.value().truncated_tail);
  EXPECT_GT(replayed.value().records, 0u);  // intact prefix still ingested
  std::filesystem::remove(path);
}

// Replaying under a full-drop fault plan ingests nothing; a duplication
// plan ingests every record twice. Both leave the stats ledger consistent.
TEST(Replay, FaultPlanDropAndDuplicate) {
  const auto path = record_session();

  ObservationStore clean_store;
  const auto clean = replay_pcap(path, clean_store);
  ASSERT_TRUE(clean.ok());

  ReplayOptions drop_all;
  drop_all.fault_plan.drop_rate = 1.0;
  ObservationStore dropped_store;
  const auto dropped = replay_pcap(path, dropped_store, drop_all);
  ASSERT_TRUE(dropped.ok());
  EXPECT_EQ(dropped.value().faults.frames_dropped, clean.value().records);
  EXPECT_EQ(dropped_store.device_count(), 0u);

  ReplayOptions dup_all;
  dup_all.fault_plan.duplicate_rate = 1.0;
  ObservationStore duped_store;
  const auto duped = replay_pcap(path, duped_store, dup_all);
  ASSERT_TRUE(duped.ok());
  EXPECT_EQ(duped.value().faults.frames_duplicated, clean.value().records);
  EXPECT_EQ(duped.value().probe_requests, 2 * clean.value().probe_requests);
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace mm::capture
