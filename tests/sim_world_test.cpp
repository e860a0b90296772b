#include "sim/world.h"

#include <gtest/gtest.h>

#include <memory>
#include <tuple>
#include <vector>

#include "sim/ap.h"
#include "sim/attacker.h"
#include "sim/mobile.h"
#include "sim/mobility.h"

namespace mm::sim {
namespace {

const net80211::MacAddress kApMac = *net80211::MacAddress::parse("00:1a:2b:00:00:01");
const net80211::MacAddress kClientMac = *net80211::MacAddress::parse("00:16:6f:00:00:02");

/// Records every frame delivered to it.
class RecordingReceiver final : public FrameReceiver {
 public:
  explicit RecordingReceiver(geo::Vec2 pos) : pos_(pos) {}
  [[nodiscard]] geo::Vec2 position() const override { return pos_; }
  [[nodiscard]] double antenna_height_m() const override { return 10.0; }
  void on_air_frame(const net80211::ManagementFrame& frame, const RxInfo& rx) override {
    frames.push_back(frame);
    infos.push_back(rx);
  }

  std::vector<net80211::ManagementFrame> frames;
  std::vector<RxInfo> infos;

 private:
  geo::Vec2 pos_;
};

/// A fixed receiver that ignores every frame from beyond `reach_m` and
/// promises the world so, which puts it in the indexed delivery grid.
class BoundedReceiver final : public FrameReceiver {
 public:
  BoundedReceiver(geo::Vec2 pos, double reach_m) : pos_(pos), reach_m_(reach_m) {}
  [[nodiscard]] geo::Vec2 position() const override { return pos_; }
  [[nodiscard]] double antenna_height_m() const override { return 2.0; }
  [[nodiscard]] DeliveryInterest delivery_interest() const override {
    return {pos_, reach_m_, std::nullopt};
  }
  void on_air_frame(const net80211::ManagementFrame&, const RxInfo& rx) override {
    if (rx.distance_m > reach_m_) return;
    heard.emplace_back(rx.tx_position.x, rx.tx_position.y, rx.rssi_dbm);
  }

  std::vector<std::tuple<double, double, double>> heard;

 private:
  geo::Vec2 pos_;
  double reach_m_;
};

std::unique_ptr<MobileDevice> make_mobile(geo::Vec2 pos, ScanProfile profile = {}) {
  MobileConfig cfg;
  cfg.mac = kClientMac;
  cfg.profile = profile;
  cfg.mobility = std::make_shared<StaticPosition>(pos);
  return std::make_unique<MobileDevice>(cfg);
}

ApConfig base_ap(geo::Vec2 pos, double radius, int channel = 6) {
  ApConfig cfg;
  cfg.bssid = kApMac;
  cfg.ssid = "TestNet";
  cfg.channel = {rf::Band::kBg24GHz, channel};
  cfg.position = pos;
  cfg.service_radius_m = radius;
  return cfg;
}

TEST(World, TransmitDeliversToRegisteredReceivers) {
  World world({.seed = 1, .propagation = nullptr});
  RecordingReceiver sniffer({100.0, 0.0});
  world.register_receiver(&sniffer);
  world.transmit(net80211::make_probe_request(kClientMac, std::nullopt, 1),
                 {{0.0, 0.0}, 1.5, 15.0, 0.0, {rf::Band::kBg24GHz, 6}, nullptr});
  ASSERT_EQ(sniffer.frames.size(), 1u);
  EXPECT_EQ(sniffer.frames[0].subtype, net80211::ManagementSubtype::kProbeRequest);
  EXPECT_NEAR(sniffer.infos[0].distance_m, 100.0, 1e-9);
  // Free space at 100 m / 2.437 GHz: ~ -65 dBm at 15 dBm tx.
  EXPECT_LT(sniffer.infos[0].rssi_dbm, -60.0);
  EXPECT_GT(sniffer.infos[0].rssi_dbm, -75.0);
}

TEST(World, SenderExcludedFromDelivery) {
  World world({});
  RecordingReceiver a({0.0, 0.0});
  RecordingReceiver b({10.0, 0.0});
  world.register_receiver(&a);
  world.register_receiver(&b);
  world.transmit(net80211::make_probe_request(kClientMac, std::nullopt, 1),
                 {{0.0, 0.0}, 1.5, 15.0, 0.0, {rf::Band::kBg24GHz, 1}, &a});
  EXPECT_TRUE(a.frames.empty());
  EXPECT_EQ(b.frames.size(), 1u);
}

TEST(World, UnregisterStopsDelivery) {
  World world({});
  RecordingReceiver r({0.0, 0.0});
  world.register_receiver(&r);
  world.unregister_receiver(&r);
  world.transmit(net80211::make_probe_request(kClientMac, std::nullopt, 1),
                 {{10.0, 0.0}, 1.5, 15.0, 0.0, {rf::Band::kBg24GHz, 1}, nullptr});
  EXPECT_TRUE(r.frames.empty());
  EXPECT_EQ(world.frames_transmitted(), 1u);
}

TEST(World, IndexedDeliveryFollowsRegistrationChangesLikeScan) {
  // The indexed world builds its receiver grid on the first transmit after
  // the set of distance-bounded receivers changes: one registered after the
  // first transmit and one unregistered mid-run must hear exactly what the
  // kScan oracle delivers to them.
  struct Heard {
    std::vector<std::tuple<double, double, double>> early, leaving, late;
    std::uint64_t culled = 0;
  };
  const auto run = [](DeliveryMode mode) {
    World world({.seed = 5, .propagation = nullptr, .delivery = mode});
    BoundedReceiver early({0.0, 0.0}, 130.0);
    BoundedReceiver leaving({300.0, 0.0}, 60.0);
    BoundedReceiver late({150.0, 40.0}, 80.0);
    const auto send = [&](geo::Vec2 from) {
      world.transmit(net80211::make_probe_request(kClientMac, std::nullopt, 1),
                     {from, 1.5, 15.0, 0.0, {rf::Band::kBg24GHz, 6}, nullptr});
    };
    world.register_receiver(&early);
    world.register_receiver(&leaving);
    send({50.0, 0.0});
    world.register_receiver(&late);
    send({120.0, 40.0});
    send({280.0, 0.0});
    world.unregister_receiver(&leaving);
    send({290.0, 10.0});
    send({140.0, 30.0});
    send({60.0, 10.0});
    return Heard{early.heard, leaving.heard, late.heard, world.deliveries_culled()};
  };
  const Heard scan = run(DeliveryMode::kScan);
  const Heard indexed = run(DeliveryMode::kIndexed);
  EXPECT_EQ(indexed.early, scan.early);
  EXPECT_EQ(indexed.leaving, scan.leaving);
  EXPECT_EQ(indexed.late, scan.late);
  // Each receiver heard something, the one that left nothing after it left,
  // and the indexed world culled the far ones.
  EXPECT_EQ(scan.early.size(), 3u);
  EXPECT_EQ(scan.leaving.size(), 1u);
  EXPECT_EQ(scan.late.size(), 2u);
  EXPECT_EQ(scan.culled, 0u);
  EXPECT_GT(indexed.culled, 0u);
}

TEST(World, ApAnswersProbeInsideDisc) {
  World world({});
  world.add_access_point(std::make_unique<AccessPoint>(base_ap({50.0, 0.0}, 100.0)));
  MobileDevice* mobile = world.add_mobile(make_mobile({0.0, 0.0}, {.probes = false}));
  RecordingReceiver sniffer({0.0, 200.0});
  world.register_receiver(&sniffer);

  mobile->trigger_scan();
  world.run_until(2.0);

  // Sniffer saw probe requests (11 channels) and exactly one probe response.
  int responses = 0;
  for (const auto& f : sniffer.frames) {
    if (f.subtype == net80211::ManagementSubtype::kProbeResponse) {
      ++responses;
      EXPECT_EQ(f.addr1, kClientMac);
      EXPECT_EQ(f.addr2, kApMac);
    }
  }
  EXPECT_EQ(responses, 1);
  EXPECT_EQ(mobile->heard_aps().count(kApMac), 1u);
}

TEST(World, ApIgnoresProbeOutsideDisc) {
  World world({});
  AccessPoint* ap =
      world.add_access_point(std::make_unique<AccessPoint>(base_ap({200.0, 0.0}, 100.0)));
  MobileDevice* mobile = world.add_mobile(make_mobile({0.0, 0.0}, {.probes = false}));
  mobile->trigger_scan();
  world.run_until(2.0);
  EXPECT_EQ(ap->probes_answered(), 0u);
  EXPECT_TRUE(mobile->heard_aps().empty());
}

TEST(World, ApOnlyHearsItsOwnChannel) {
  World world({});
  // AP on channel 6 within range; scanning sweeps all channels, so exactly
  // the channel-6 probe elicits a response.
  AccessPoint* ap =
      world.add_access_point(std::make_unique<AccessPoint>(base_ap({10.0, 0.0}, 100.0, 6)));
  MobileDevice* mobile = world.add_mobile(make_mobile({0.0, 0.0}, {.probes = false}));
  mobile->trigger_scan();
  world.run_until(2.0);
  EXPECT_EQ(ap->probes_answered(), 1u);
}

TEST(World, DirectedProbeOnlyAnsweredForMatchingSsid) {
  World world({});
  ApConfig cfg = base_ap({10.0, 0.0}, 100.0);
  cfg.ssid = "CampusNet";
  AccessPoint* ap = world.add_access_point(std::make_unique<AccessPoint>(cfg));

  ScanProfile profile;
  profile.probes = false;
  profile.directed_ssids = {"HomeNet"};  // not this AP's SSID
  MobileDevice* mobile = world.add_mobile(make_mobile({0.0, 0.0}, profile));
  mobile->trigger_scan();
  world.run_until(2.0);
  // Wildcard probe answered once; the directed HomeNet probe ignored.
  EXPECT_EQ(ap->probes_answered(), 1u);
}

TEST(World, BeaconsFollowInterval) {
  World world({});
  ApConfig cfg = base_ap({0.0, 0.0}, 100.0);
  cfg.beacons_enabled = true;
  AccessPoint* ap = world.add_access_point(std::make_unique<AccessPoint>(cfg));
  world.run_until(10.0);
  // ~10 s / 102.4 ms ~= 97 beacons (first one jittered).
  EXPECT_GE(ap->beacons_sent(), 90u);
  EXPECT_LE(ap->beacons_sent(), 99u);
}

TEST(World, PeriodicScanningHappensWithoutTrigger) {
  World world({.seed = 3, .propagation = nullptr});
  world.add_access_point(std::make_unique<AccessPoint>(base_ap({20.0, 0.0}, 100.0)));
  MobileDevice* mobile =
      world.add_mobile(make_mobile({0.0, 0.0}, {.probes = true, .scan_interval_s = 10.0}));
  world.run_until(60.0);
  EXPECT_GE(mobile->scans_started(), 3u);
  EXPECT_FALSE(mobile->heard_aps().empty());
}

TEST(World, QuietDeviceNeverProbes) {
  World world({});
  world.add_access_point(std::make_unique<AccessPoint>(base_ap({20.0, 0.0}, 100.0)));
  MobileDevice* mobile = world.add_mobile(make_mobile({0.0, 0.0}, {.probes = false}));
  world.run_until(120.0);
  EXPECT_EQ(mobile->probes_sent(), 0u);
}

TEST(World, ActiveAttackProvokesQuietDevice) {
  World world({});
  world.add_access_point(std::make_unique<AccessPoint>(base_ap({20.0, 0.0}, 100.0)));
  MobileDevice* mobile = world.add_mobile(make_mobile({0.0, 0.0}, {.probes = false}));
  ActiveProber prober({.position = {0.0, 50.0}, .interval_s = 5.0});
  prober.attach(world);
  world.run_until(30.0);
  EXPECT_GT(prober.deauths_sent(), 0u);
  EXPECT_GT(mobile->probes_sent(), 0u);  // deauth provoked a sweep
  EXPECT_EQ(mobile->heard_aps().count(kApMac), 1u);
}

TEST(World, DeauthDebounceLimitsScanStorm) {
  World world({});
  MobileDevice* mobile = world.add_mobile(make_mobile({0.0, 0.0}, {.probes = false}));
  ActiveProber prober({.position = {0.0, 10.0}, .interval_s = 0.05});
  prober.attach(world);
  world.run_until(1.0);
  // 20 bursts in 1 s, but the 0.5 s debounce allows at most ~3 sweeps.
  EXPECT_LE(mobile->scans_started(), 3u);
}

TEST(World, MovingMobilePositionTracksMobility) {
  World world({});
  MobileConfig cfg;
  cfg.mac = kClientMac;
  cfg.profile.probes = false;
  cfg.mobility = std::make_shared<RouteWalk>(
      std::vector<geo::Vec2>{{0.0, 0.0}, {100.0, 0.0}}, 10.0);
  MobileDevice* mobile = world.add_mobile(std::make_unique<MobileDevice>(cfg));
  world.run_until(5.0);
  EXPECT_NEAR(mobile->position().x, 50.0, 1e-9);
}

TEST(World, RotateMacChangesIdentity) {
  World world({});
  MobileDevice* mobile = world.add_mobile(make_mobile({0.0, 0.0}, {.probes = false}));
  const auto fresh = *net80211::MacAddress::parse("02:aa:bb:cc:dd:ee");
  mobile->rotate_mac(fresh);
  EXPECT_EQ(mobile->mac(), fresh);
}

TEST(World, FrameCountsAccumulate) {
  World world({});
  RecordingReceiver sniffer({10.0, 0.0});
  world.register_receiver(&sniffer);
  MobileDevice* mobile = world.add_mobile(make_mobile({0.0, 0.0}, {.probes = false}));
  mobile->trigger_scan();
  world.run_until(1.0);
  EXPECT_EQ(world.frames_transmitted(), 11u);  // one wildcard probe per b/g channel
  EXPECT_EQ(mobile->probes_sent(), 11u);
  EXPECT_EQ(sniffer.frames.size(), 11u);
}

}  // namespace
}  // namespace mm::sim
