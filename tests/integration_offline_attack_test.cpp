// Full offline-attack integration: the capture rig writes a radiotap pcap;
// a separate analysis pass replays the pcap into a fresh ObservationStore
// and localizes the victim from the recording alone. This exercises the
// complete artifact chain: simulator -> sniffer -> pcap file -> replay ->
// Gamma sets -> M-Loc.
#include <gtest/gtest.h>

#include <filesystem>
#include <memory>

#include "capture/replay.h"
#include "capture/sniffer.h"
#include "marauder/tracker.h"
#include "sim/mobile.h"
#include "sim/mobility.h"
#include "sim/scenario.h"
#include "unique_temp_path.h"

namespace mm {
namespace {

const net80211::MacAddress kVictim = *net80211::MacAddress::parse("00:16:6f:aa:bb:cc");

TEST(OfflineAttack, LocateVictimFromRecordedPcap) {
  const auto pcap_path = testing_support::unique_temp_path("mm_offline_attack.pcap");

  sim::CampusConfig campus;
  campus.seed = 4242;
  campus.num_aps = 120;
  campus.half_extent_m = 300.0;
  const auto truth = sim::generate_campus_aps(campus);

  const geo::Vec2 victim_true{80.0, -60.0};
  capture::ObservationStore live_store;
  {
    sim::World world({.seed = 7, .propagation = nullptr});
    sim::populate_world(world, truth, /*beacons_enabled=*/false);

    sim::MobileConfig mc;
    mc.mac = kVictim;
    mc.profile.probes = false;
    mc.mobility = std::make_shared<sim::StaticPosition>(victim_true);
    sim::MobileDevice* victim = world.add_mobile(std::make_unique<sim::MobileDevice>(mc));

    capture::SnifferConfig sc;
    sc.position = {0.0, 0.0};
    sc.antenna_height_m = 20.0;
    sc.pcap_path = pcap_path;
    capture::Sniffer sniffer(sc, &live_store);
    sniffer.attach(world);

    victim->trigger_scan();
    world.run_until(3.0);
  }  // sniffer destroyed -> pcap flushed

  // Offline pass: everything reconstructed from the file.
  capture::ObservationStore offline_store;
  const auto replayed = capture::replay_pcap(pcap_path, offline_store);
  ASSERT_TRUE(replayed.ok()) << replayed.error();
  EXPECT_GT(replayed.value().probe_responses, 3u);
  EXPECT_EQ(replayed.value().malformed, 0u);

  // The offline Gamma matches the live one.
  EXPECT_EQ(offline_store.gamma(kVictim), live_store.gamma(kVictim));

  marauder::Tracker tracker(marauder::ApDatabase::from_truth(truth, true),
                            {.algorithm = marauder::Algorithm::kMLoc});
  const auto live = tracker.locate(live_store, kVictim);
  const auto offline = tracker.locate(offline_store, kVictim);
  ASSERT_TRUE(live.ok);
  ASSERT_TRUE(offline.ok);
  // Identical evidence -> identical estimate.
  EXPECT_NEAR(live.estimate.distance_to(offline.estimate), 0.0, 1e-9);
  EXPECT_LT(offline.estimate.distance_to(victim_true), 40.0);

  std::filesystem::remove(pcap_path);
}

TEST(OfflineAttack, ApRadFromRecordedPcap) {
  const auto pcap_path = testing_support::unique_temp_path("mm_offline_aprad.pcap");

  sim::CampusConfig campus;
  campus.seed = 555;
  campus.num_aps = 100;
  campus.half_extent_m = 250.0;
  const auto truth = sim::generate_campus_aps(campus);

  const geo::Vec2 victim_true{-40.0, 30.0};
  {
    sim::World world({.seed = 8, .propagation = nullptr});
    sim::populate_world(world, truth, false);

    sim::MobileConfig mc;
    mc.mac = kVictim;
    mc.profile.probes = false;
    mc.mobility = std::make_shared<sim::StaticPosition>(victim_true);
    sim::MobileDevice* victim = world.add_mobile(std::make_unique<sim::MobileDevice>(mc));

    // A handful of wandering background devices for co-observation evidence.
    util::Rng rng(99);
    for (int i = 0; i < 15; ++i) {
      sim::MobileConfig bg;
      bg.mac = net80211::MacAddress::random(rng, {0x00, 0x21, 0x5c});
      bg.profile.probes = true;
      bg.profile.scan_interval_s = 20.0;
      bg.mobility = std::make_shared<sim::RandomWaypoint>(
          geo::Vec2{-250.0, -250.0}, geo::Vec2{250.0, 250.0}, 1.0, 2.0, 300.0,
          1000 + static_cast<std::uint64_t>(i));
      world.add_mobile(std::make_unique<sim::MobileDevice>(bg));
    }

    capture::ObservationStore live;
    capture::SnifferConfig sc;
    sc.position = {0.0, 0.0};
    sc.antenna_height_m = 20.0;
    sc.pcap_path = pcap_path;
    capture::Sniffer sniffer(sc, &live);
    sniffer.attach(world);

    world.queue().schedule(100.0, [victim] { victim->trigger_scan(); });
    world.run_until(300.0);
  }

  capture::ObservationStore offline;
  (void)capture::replay_pcap(pcap_path, offline);

  marauder::Tracker aprad(marauder::ApDatabase::from_truth(truth, false),
                          {.algorithm = marauder::Algorithm::kApRad});
  aprad.prepare(offline);
  const auto result = aprad.locate(offline, kVictim, {99.0, 106.0});
  ASSERT_TRUE(result.ok);
  EXPECT_LT(result.estimate.distance_to(victim_true), 60.0);

  std::filesystem::remove(pcap_path);
}

}  // namespace
}  // namespace mm
