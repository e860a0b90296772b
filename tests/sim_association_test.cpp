// Association + keep-alive behaviour: devices that never probe but stay
// associated with their home network are still "found" by the sniffer (the
// Fig 10/11 found-vs-probing distinction). Their association response is
// communicability evidence; their own keep-alives are not, because a device
// keeps sending them after it has walked out of its AP's disc.
#include <gtest/gtest.h>

#include <memory>

#include "capture/sniffer.h"
#include "net80211/crc32.h"
#include "net80211/frames.h"
#include "sim/ap.h"
#include "sim/mobile.h"
#include "sim/mobility.h"

namespace mm::sim {
namespace {

const net80211::MacAddress kApMac = *net80211::MacAddress::parse("00:1a:2b:00:0c:01");
const net80211::MacAddress kClientMac = *net80211::MacAddress::parse("00:16:6f:00:0c:02");

TEST(Frames, AssociationRequestRoundtrip) {
  const auto frame = net80211::make_association_request(kClientMac, kApMac, "HomeNet", 5);
  const auto parsed = net80211::ManagementFrame::parse(frame.serialize());
  ASSERT_TRUE(parsed.ok()) << parsed.error();
  EXPECT_EQ(parsed.value().subtype, net80211::ManagementSubtype::kAssociationRequest);
  EXPECT_EQ(parsed.value().addr1, kApMac);
  EXPECT_EQ(parsed.value().addr2, kClientMac);
  EXPECT_EQ(parsed.value().ssid().value_or(""), "HomeNet");
  EXPECT_EQ(parsed.value().listen_interval, 10);
}

TEST(Frames, AssociationResponseRoundtrip) {
  const auto frame = net80211::make_association_response(kApMac, kClientMac, 0, 7, 6);
  const auto parsed = net80211::ManagementFrame::parse(frame.serialize());
  ASSERT_TRUE(parsed.ok()) << parsed.error();
  EXPECT_EQ(parsed.value().subtype, net80211::ManagementSubtype::kAssociationResponse);
  EXPECT_EQ(parsed.value().status_code, 0);
  EXPECT_EQ(parsed.value().association_id, 7);
}

TEST(Frames, DataNullRoundtrip) {
  const auto frame = net80211::make_data_null(kClientMac, kApMac, 9);
  const auto bytes = frame.serialize();
  EXPECT_EQ(bytes[0], 0x48);  // type 2 (data), subtype 4 (null function)
  const auto parsed = net80211::ManagementFrame::parse(bytes);
  ASSERT_TRUE(parsed.ok()) << parsed.error();
  EXPECT_EQ(parsed.value().subtype, net80211::ManagementSubtype::kDataNull);
  EXPECT_EQ(parsed.value().addr2, kClientMac);
  EXPECT_EQ(parsed.value().addr3, kApMac);
  EXPECT_STREQ(net80211::subtype_name(parsed.value().subtype), "data-null");
}

TEST(Frames, OtherDataSubtypesRejected) {
  auto bytes = net80211::make_data_null(kClientMac, kApMac, 0).serialize();
  bytes[0] = 0x88;  // QoS data subtype
  bytes.resize(bytes.size() - 4);
  const std::uint32_t fcs = net80211::crc32(bytes);
  for (int i = 0; i < 4; ++i) bytes.push_back(static_cast<std::uint8_t>(fcs >> (8 * i)));
  EXPECT_FALSE(net80211::ManagementFrame::parse(bytes).ok());
}

struct AssocScene {
  World world{{}};
  AccessPoint* ap = nullptr;
  MobileDevice* mobile = nullptr;
};

std::unique_ptr<AssocScene> make_scene(bool beacons, double radius = 120.0) {
  auto scene = std::make_unique<AssocScene>();
  ApConfig ap;
  ap.bssid = kApMac;
  ap.ssid = "HomeNet";
  ap.channel = {rf::Band::kBg24GHz, 6};
  ap.position = {40.0, 0.0};
  ap.service_radius_m = radius;
  ap.beacons_enabled = beacons;
  scene->ap = scene->world.add_access_point(std::make_unique<AccessPoint>(ap));

  MobileConfig mc;
  mc.mac = kClientMac;
  mc.profile.probes = false;
  mc.profile.home_ssid = "HomeNet";
  mc.profile.keepalive_interval_s = 5.0;
  mc.mobility = std::make_shared<StaticPosition>(geo::Vec2{0.0, 0.0});
  scene->mobile = scene->world.add_mobile(std::make_unique<MobileDevice>(mc));
  return scene;
}

TEST(Association, DeviceJoinsHomeNetworkViaBeacon) {
  auto scene = make_scene(/*beacons=*/true);
  scene->world.run_until(30.0);
  ASSERT_TRUE(scene->mobile->associated_bssid().has_value());
  EXPECT_EQ(*scene->mobile->associated_bssid(), kApMac);
  EXPECT_EQ(scene->ap->associations(), 1u);
  EXPECT_GT(scene->mobile->keepalives_sent(), 2u);
  EXPECT_EQ(scene->mobile->probes_sent(), 0u);  // never probed
}

TEST(Association, DeviceJoinsViaProbeResponseToo) {
  auto scene = make_scene(/*beacons=*/false);
  scene->mobile->trigger_scan();  // a probe response also reveals HomeNet
  scene->world.run_until(30.0);
  EXPECT_TRUE(scene->mobile->associated_bssid().has_value());
}

TEST(Association, NoJoinWhenSsidUnknown) {
  auto scene = make_scene(/*beacons=*/true);
  // Replace the mobile's home SSID after construction is not possible;
  // build a second mobile with a different home network instead.
  MobileConfig mc;
  mc.mac = *net80211::MacAddress::parse("00:16:6f:00:0c:03");
  mc.profile.probes = false;
  mc.profile.home_ssid = "SomeOtherNet";
  mc.mobility = std::make_shared<StaticPosition>(geo::Vec2{0.0, 0.0});
  MobileDevice* other = scene->world.add_mobile(std::make_unique<MobileDevice>(mc));
  scene->world.run_until(30.0);
  EXPECT_FALSE(other->associated_bssid().has_value());
}

TEST(Association, SnifferFindsNonProbingAssociatedDevice) {
  auto scene = make_scene(/*beacons=*/true);
  capture::ObservationStore store;
  capture::SnifferConfig sc;
  sc.position = {0.0, 80.0};
  capture::Sniffer sniffer(sc, &store);
  sniffer.attach(scene->world);
  scene->world.run_until(60.0);

  EXPECT_GT(sniffer.stats().associations, 0u);
  EXPECT_GT(sniffer.stats().data_frames, 5u);
  // Found but not probing — exactly the Fig 10/11 distinction.
  const capture::DeviceRecord* rec = store.device(kClientMac);
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(rec->probe_requests, 0u);
  EXPECT_EQ(store.probing_device_count(), 0u);
  EXPECT_GE(store.device_count(), 1u);
  // The association response supports localization: Gamma non-empty.
  EXPECT_EQ(store.gamma(kClientMac).count(kApMac), 1u);
}

TEST(Association, KeepAlivesOutsideTheDiscAreNotGammaEvidence) {
  // Associate at the origin, then walk 560 m past the AP's 120 m disc while
  // the keep-alives to it go on. A sniffer at the far end hears every one.
  auto scene = make_scene(/*beacons=*/true);
  MobileConfig mc;
  mc.mac = *net80211::MacAddress::parse("00:16:6f:00:0c:04");
  mc.profile.probes = false;
  mc.profile.home_ssid = "HomeNet";
  mc.profile.keepalive_interval_s = 5.0;
  mc.mobility = std::make_shared<RouteWalk>(
      std::vector<geo::Vec2>{{0.0, 0.0}, {600.0, 0.0}}, 10.0, /*start_time=*/30.0);
  MobileDevice* walker = scene->world.add_mobile(std::make_unique<MobileDevice>(mc));

  capture::ObservationStore store;
  capture::SnifferConfig sc;
  sc.position = {600.0, 40.0};
  capture::Sniffer sniffer(sc, &store);
  sniffer.attach(scene->world);
  scene->world.run_until(150.0);

  ASSERT_TRUE(walker->associated_bssid().has_value());
  const capture::ObservationWindow after_leaving{100.0, 150.0};
  const capture::DeviceRecord* rec = store.device(mc.mac);
  ASSERT_NE(rec, nullptr);
  EXPECT_GE(rec->last_seen, after_leaving.begin);  // still found out there
  EXPECT_GT(sniffer.stats().data_frames, 5u);
  EXPECT_EQ(store.gamma(mc.mac, after_leaving).count(kApMac), 0u);
}

}  // namespace
}  // namespace mm::sim
