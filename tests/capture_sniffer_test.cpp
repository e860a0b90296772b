#include "capture/sniffer.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <memory>

#include "capture/persistence.h"
#include "capture/wardrive.h"
#include "net80211/pcap.h"
#include "net80211/radiotap.h"
#include "sim/ap.h"
#include "sim/mobile.h"
#include "sim/mobility.h"
#include "sim/scenario.h"
#include "unique_temp_path.h"

namespace mm::capture {
namespace {

const net80211::MacAddress kApMac = *net80211::MacAddress::parse("00:1a:2b:00:00:01");
const net80211::MacAddress kClientMac = *net80211::MacAddress::parse("00:16:6f:00:00:02");

sim::ApConfig base_ap(geo::Vec2 pos, double radius, int channel = 6) {
  sim::ApConfig cfg;
  cfg.bssid = kApMac;
  cfg.ssid = "TestNet";
  cfg.channel = {rf::Band::kBg24GHz, channel};
  cfg.position = pos;
  cfg.service_radius_m = radius;
  return cfg;
}

std::unique_ptr<sim::MobileDevice> make_mobile(geo::Vec2 pos) {
  sim::MobileConfig cfg;
  cfg.mac = kClientMac;
  cfg.profile.probes = false;
  cfg.mobility = std::make_shared<sim::StaticPosition>(pos);
  return std::make_unique<sim::MobileDevice>(cfg);
}

TEST(Sniffer, RequiresStore) {
  EXPECT_THROW(Sniffer({}, nullptr), std::invalid_argument);
}

TEST(Sniffer, RequiresChannelsUnlessHopping) {
  SnifferConfig cfg;
  cfg.card_channels.clear();
  ObservationStore store;
  EXPECT_THROW(Sniffer(cfg, &store), std::invalid_argument);
  cfg.hopping = true;
  EXPECT_NO_THROW(Sniffer(cfg, &store));
}

TEST(Sniffer, CapturesProbeTrafficAndBuildsGamma) {
  sim::World world({});
  world.add_access_point(std::make_unique<sim::AccessPoint>(base_ap({60.0, 0.0}, 120.0)));
  sim::MobileDevice* mobile = world.add_mobile(make_mobile({0.0, 0.0}));

  ObservationStore store;
  SnifferConfig cfg;
  cfg.position = {0.0, 150.0};
  Sniffer sniffer(cfg, &store);
  sniffer.attach(world);

  mobile->trigger_scan();
  world.run_until(2.0);

  EXPECT_GT(sniffer.stats().frames_decoded, 0u);
  EXPECT_GT(sniffer.stats().probe_requests, 0u);
  EXPECT_EQ(sniffer.stats().probe_responses, 1u);
  EXPECT_EQ(store.gamma(kClientMac), (std::set<net80211::MacAddress>{kApMac}));
  const DeviceRecord* rec = store.device(kClientMac);
  ASSERT_NE(rec, nullptr);
  EXPECT_GT(rec->probe_requests, 0u);
}

// Fig 9: the sniffer's card tuned to channels 1/6/11 hears probes sent on
// those channels but misses probes on channels >= 2 away.
TEST(Sniffer, CrossChannelDecodeProbabilities) {
  ObservationStore store;
  SnifferConfig cfg;
  Sniffer sniffer(cfg, &store);
  const rf::Channel card{rf::Band::kBg24GHz, 11};
  const double strong = -50.0;  // close transmitter
  EXPECT_GT(sniffer.decode_probability(strong, {rf::Band::kBg24GHz, 11}, card), 0.99);
  const double adjacent = sniffer.decode_probability(strong, {rf::Band::kBg24GHz, 10}, card);
  const double two_off = sniffer.decode_probability(strong, {rf::Band::kBg24GHz, 9}, card);
  EXPECT_GT(adjacent, two_off);
  EXPECT_LT(two_off, 0.05);
  // At a more typical capture level the adjacent channel is marginal ("few").
  const double typical = -85.0;
  const double adj_typical =
      sniffer.decode_probability(typical, {rf::Band::kBg24GHz, 10}, card);
  EXPECT_LT(adj_typical, 0.8);
  EXPECT_LT(sniffer.decode_probability(typical, {rf::Band::kBg24GHz, 9}, card), 1e-3);
  EXPECT_DOUBLE_EQ(sniffer.decode_probability(strong, {rf::Band::kBg24GHz, 6}, card), 0.0);
}

TEST(Sniffer, WeakSignalUndecodable) {
  ObservationStore store;
  Sniffer sniffer(SnifferConfig{}, &store);
  const rf::Channel ch6{rf::Band::kBg24GHz, 6};
  EXPECT_LT(sniffer.decode_probability(-150.0, ch6, ch6), 0.01);
}

TEST(Sniffer, LnaChainDecodesFartherThanBareCard) {
  ObservationStore store;
  SnifferConfig lna_cfg;
  lna_cfg.chain = rf::presets::chain_lna();
  SnifferConfig dlink_cfg;
  dlink_cfg.chain = rf::presets::chain_dlink();
  Sniffer lna(lna_cfg, &store);
  Sniffer dlink(dlink_cfg, &store);
  const rf::Channel ch6{rf::Band::kBg24GHz, 6};
  const double weak = -95.0;
  EXPECT_GT(lna.decode_probability(weak, ch6, ch6),
            dlink.decode_probability(weak, ch6, ch6) + 0.4);
}

TEST(Sniffer, HoppingCardCyclesChannels) {
  ObservationStore store;
  SnifferConfig cfg;
  cfg.hopping = true;
  cfg.hop_dwell_s = 4.0;
  Sniffer sniffer(cfg, &store);
  EXPECT_EQ(sniffer.card_count(), 1u);
  EXPECT_EQ(sniffer.card_channel(0, 0.0).number, 1);
  EXPECT_EQ(sniffer.card_channel(0, 4.5).number, 2);
  EXPECT_EQ(sniffer.card_channel(0, 43.9).number, 11);
  EXPECT_EQ(sniffer.card_channel(0, 44.1).number, 1);  // wraps
}

TEST(Sniffer, FixedCardsReportTheirChannels) {
  ObservationStore store;
  Sniffer sniffer(SnifferConfig{}, &store);
  EXPECT_EQ(sniffer.card_count(), 3u);
  EXPECT_EQ(sniffer.card_channel(0, 100.0).number, 1);
  EXPECT_EQ(sniffer.card_channel(1, 100.0).number, 6);
  EXPECT_EQ(sniffer.card_channel(2, 100.0).number, 11);
}

TEST(Sniffer, WritesPcapOfDecodedFrames) {
  const auto path = testing_support::unique_temp_path("mm_sniffer_test.pcap");
  {
    sim::World world({});
    world.add_access_point(std::make_unique<sim::AccessPoint>(base_ap({20.0, 0.0}, 100.0)));
    sim::MobileDevice* mobile = world.add_mobile(make_mobile({0.0, 0.0}));
    ObservationStore store;
    SnifferConfig cfg;
    cfg.position = {0.0, 50.0};
    cfg.pcap_path = path;
    Sniffer sniffer(cfg, &store);
    sniffer.attach(world);
    mobile->trigger_scan();
    world.run_until(2.0);
    EXPECT_GT(sniffer.stats().frames_decoded, 0u);
  }
  net80211::PcapReader reader(path);
  const auto records = reader.read_all();
  EXPECT_FALSE(records.empty());
  // Every record must carry a parseable radiotap header + frame.
  for (const auto& rec : records) {
    const auto rt = net80211::Radiotap::parse(rec.data);
    ASSERT_TRUE(rt.ok());
    const std::span<const std::uint8_t> body{rec.data.data() + rt.value().header_length,
                                             rec.data.size() - rt.value().header_length};
    EXPECT_TRUE(net80211::ManagementFrame::parse(body).ok());
  }
  std::filesystem::remove(path);
}

TEST(Sniffer, DecodeProbabilityMonotoneInSignal) {
  ObservationStore store;
  Sniffer sniffer(SnifferConfig{}, &store);
  const rf::Channel ch6{rf::Band::kBg24GHz, 6};
  double prev = 0.0;
  for (double rssi = -130.0; rssi <= -40.0; rssi += 5.0) {
    const double p = sniffer.decode_probability(rssi, ch6, ch6);
    EXPECT_GE(p, prev - 1e-12) << "rssi " << rssi;
    prev = p;
  }
  EXPECT_GT(prev, 0.99);
}

// The 802.11a note of Section III-B: a b/g-only scan sweep never reaches a
// 5 GHz AP (supporting 802.11a needs 12 more cards; our simulated victim
// sweeps b/g only, so an A-band AP stays invisible).
TEST(Sniffer, FiveGhzApInvisibleToBgScan) {
  sim::World world({});
  sim::ApConfig ap = base_ap({10.0, 0.0}, 100.0);
  ap.channel = {rf::Band::kA5GHz, 36};
  sim::AccessPoint* five_ghz = world.add_access_point(std::make_unique<sim::AccessPoint>(ap));
  sim::MobileDevice* mobile = world.add_mobile(make_mobile({0.0, 0.0}));
  ObservationStore store;
  SnifferConfig sc;
  sc.position = {0.0, 20.0};
  Sniffer sniffer(sc, &store);
  sniffer.attach(world);
  mobile->trigger_scan();
  world.run_until(2.0);
  EXPECT_EQ(five_ghz->probes_answered(), 0u);
  EXPECT_TRUE(store.gamma(kClientMac).empty());
}

// A full-drop fault plan: every decoded frame is lost before the store, and
// the loss shows up in the monotone degradation counters.
TEST(Sniffer, FaultPlanDropsAllFrames) {
  sim::World world({});
  world.add_access_point(std::make_unique<sim::AccessPoint>(base_ap({60.0, 0.0}, 120.0)));
  sim::MobileDevice* mobile = world.add_mobile(make_mobile({0.0, 0.0}));

  ObservationStore store;
  SnifferConfig cfg;
  cfg.position = {0.0, 150.0};
  cfg.fault_plan.drop_rate = 1.0;
  Sniffer sniffer(cfg, &store);
  sniffer.attach(world);
  mobile->trigger_scan();
  world.run_until(2.0);

  EXPECT_GT(sniffer.stats().frames_decoded, 0u);
  EXPECT_EQ(sniffer.stats().frames_fault_dropped, sniffer.stats().frames_decoded);
  EXPECT_EQ(sniffer.fault_stats().frames_dropped, sniffer.stats().frames_decoded);
  EXPECT_EQ(store.device_count(), 0u);
}

// Aggressive truncation damages frames beyond parsing: they are quarantined
// (counted, never crashing the rig) instead of entering the store.
TEST(Sniffer, TruncatedFramesQuarantinedNotFatal) {
  sim::World world({});
  world.add_access_point(std::make_unique<sim::AccessPoint>(base_ap({60.0, 0.0}, 120.0)));
  sim::MobileDevice* mobile = world.add_mobile(make_mobile({0.0, 0.0}));

  ObservationStore store;
  SnifferConfig cfg;
  cfg.position = {0.0, 150.0};
  cfg.fault_plan.truncate_rate = 1.0;
  Sniffer sniffer(cfg, &store);
  sniffer.attach(world);
  mobile->trigger_scan();
  world.run_until(2.0);

  EXPECT_GT(sniffer.stats().frames_decoded, 0u);
  EXPECT_EQ(sniffer.fault_stats().frames_truncated, sniffer.stats().frames_decoded);
  EXPECT_GT(sniffer.stats().frames_quarantined, 0u);
}

// Total NIC dropout: every decode attempt hits a downed card.
TEST(Sniffer, NicDropoutSkipsCards) {
  sim::World world({});
  world.add_access_point(std::make_unique<sim::AccessPoint>(base_ap({60.0, 0.0}, 120.0)));
  sim::MobileDevice* mobile = world.add_mobile(make_mobile({0.0, 0.0}));

  ObservationStore store;
  SnifferConfig cfg;
  cfg.position = {0.0, 150.0};
  cfg.fault_plan.nic_dropout_rate = 1.0;
  Sniffer sniffer(cfg, &store);
  sniffer.attach(world);
  mobile->trigger_scan();
  world.run_until(2.0);

  EXPECT_EQ(sniffer.stats().frames_decoded, 0u);
  EXPECT_GT(sniffer.stats().card_down_skips, 0u);
  EXPECT_EQ(store.device_count(), 0u);
}

// Checkpointing from the capture loop: snapshots appear at the configured
// sim-time cadence and load back cleanly.
TEST(Sniffer, CheckpointsObservationStore) {
  const auto path = testing_support::unique_temp_path("mm_sniffer_cp.csv");
  std::filesystem::remove(path);
  sim::World world({});
  world.add_access_point(std::make_unique<sim::AccessPoint>(base_ap({60.0, 0.0}, 120.0)));
  sim::MobileDevice* mobile = world.add_mobile(make_mobile({0.0, 0.0}));

  ObservationStore store;
  SnifferConfig cfg;
  cfg.position = {0.0, 150.0};
  cfg.checkpoint_path = path;
  cfg.checkpoint_interval_s = 1.0;
  Sniffer sniffer(cfg, &store);
  sniffer.attach(world);
  for (double t : {0.5, 2.0, 3.5}) {
    world.queue().schedule(t, [mobile] { mobile->trigger_scan(); });
  }
  world.run_until(5.0);

  ASSERT_NE(sniffer.checkpointer(), nullptr);
  EXPECT_GE(sniffer.checkpointer()->checkpoints_written(), 1u);
  EXPECT_EQ(sniffer.checkpointer()->failures(), 0u);
  auto loaded = load_observations(path);
  ASSERT_TRUE(loaded.ok()) << loaded.error();
  EXPECT_GT(loaded.value().store.device_count(), 0u);
  std::filesystem::remove(path);
}

TEST(Wardriver, CollectsTrainingTuples) {
  sim::World world({});
  world.add_access_point(std::make_unique<sim::AccessPoint>(base_ap({50.0, 0.0}, 100.0)));
  Wardriver driver;
  driver.attach(world);
  driver.sample_at(1.0, {0.0, 0.0});      // within 100 m of the AP
  driver.sample_at(5.0, {400.0, 0.0});    // far away
  world.run_until(10.0);
  ASSERT_EQ(driver.tuples().size(), 2u);
  EXPECT_EQ(driver.tuples()[0].heard_aps, (std::set<net80211::MacAddress>{kApMac}));
  EXPECT_TRUE(driver.tuples()[1].heard_aps.empty());
  EXPECT_EQ(driver.tuples()[0].position, geo::Vec2(0.0, 0.0));
}

TEST(Wardriver, DriveRouteSamplesEvenly) {
  sim::World world({});
  world.add_access_point(std::make_unique<sim::AccessPoint>(base_ap({0.0, 0.0}, 120.0)));
  Wardriver driver;
  driver.attach(world);
  const sim::SimTime finish =
      driver.drive_route({{-100.0, 0.0}, {100.0, 0.0}}, 5.0, 50.0);
  world.run_until(finish + 1.0);
  // 200 m at 50 m spacing: samples at -100, -50, 0, 50, 100 => 5 tuples.
  ASSERT_EQ(driver.tuples().size(), 5u);
  for (const auto& tuple : driver.tuples()) {
    EXPECT_EQ(tuple.heard_aps.count(kApMac), 1u) << "at x=" << tuple.position.x;
  }
}

TEST(Wardriver, RouteValidation) {
  sim::World world({});
  Wardriver driver;
  driver.attach(world);
  EXPECT_THROW(driver.drive_route({{0.0, 0.0}}, 5.0, 10.0), std::invalid_argument);
  EXPECT_THROW(driver.drive_route({{0.0, 0.0}, {1.0, 0.0}}, 0.0, 10.0),
               std::invalid_argument);
  EXPECT_THROW(driver.drive_route({{0.0, 0.0}, {1.0, 0.0}}, 5.0, 0.0),
               std::invalid_argument);
}

TEST(Wardriver, SampleBeforeAttachThrows) {
  Wardriver driver;
  EXPECT_THROW(driver.sample_at(1.0, {0.0, 0.0}), std::logic_error);
}

// End-to-end with a realistic campus: the sniffer sees many devices' Gamma
// sets, each non-empty when the mobile walks within AP coverage.
TEST(Sniffer, CampusScaleGammaCollection) {
  sim::CampusConfig campus;
  campus.seed = 77;
  campus.num_aps = 140;
  campus.half_extent_m = 300.0;
  campus.building_fraction = 0.0;  // uniform coverage: this test checks the
                                   // capture mechanics, not placement shape
  const auto aps = sim::generate_campus_aps(campus);

  sim::World world({.seed = 5, .propagation = nullptr});
  sim::populate_world(world, aps, /*beacons_enabled=*/false);

  sim::MobileConfig mc;
  mc.mac = kClientMac;
  mc.profile.probes = false;
  mc.mobility = std::make_shared<sim::StaticPosition>(geo::Vec2{0.0, 0.0});
  sim::MobileDevice* mobile = world.add_mobile(std::make_unique<sim::MobileDevice>(mc));

  ObservationStore store;
  SnifferConfig cfg;
  cfg.position = {0.0, 0.0};
  cfg.antenna_height_m = 20.0;
  Sniffer sniffer(cfg, &store);
  sniffer.attach(world);

  mobile->trigger_scan();
  world.run_until(3.0);

  const auto gamma = store.gamma(kClientMac);
  // Ground truth: only APs whose disc covers the origin may appear (the
  // disc-model guarantee), and every such AP on a main channel (1/6/11,
  // where the sniffer decodes with probability ~1) must appear.
  std::set<net80211::MacAddress> covering_any;
  std::set<net80211::MacAddress> covering_main;
  for (const auto& ap : aps) {
    if (ap.position.norm() <= ap.radius_m) {
      covering_any.insert(ap.bssid);
      if (ap.channel == 1 || ap.channel == 6 || ap.channel == 11) {
        covering_main.insert(ap.bssid);
      }
    }
  }
  EXPECT_GE(covering_main.size(), 3u) << "scenario too sparse to be meaningful";
  for (const auto& mac : covering_main) {
    EXPECT_EQ(gamma.count(mac), 1u) << "missed main-channel AP " << mac.to_string();
  }
  for (const auto& mac : gamma) {
    EXPECT_EQ(covering_any.count(mac), 1u)
        << "AP outside its disc appeared in Gamma: " << mac.to_string();
  }
}

}  // namespace
}  // namespace mm::capture
