// Chimera over Riptide: identity resolution on the live path must equal the
// batch path exactly.
//
// The contract (live_tracker.h, "Chimera identity surface"): each MAC lives
// in exactly one shard's store slice and resolve() is
// ingestion-order-independent — so after stop(), LiveTracker::
// resolve_identities() over a capture pushed through the rings equals
// marauder::resolve_identities() over the batch store, identity for
// identity. Holds clean, under a fault plan (same plan + seed damages both
// paths identically) and for a tracker rebuilt by recover() from a stopped
// run's durability directory. While the engine runs it resolves nothing.
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <vector>

#include "capture/replay.h"
#include "capture/sniffer.h"
#include "fault/fault_injector.h"
#include "marauder/ap_database.h"
#include "marauder/identity.h"
#include "pipeline/live_feed.h"
#include "pipeline/live_tracker.h"
#include "sim/mobile.h"
#include "sim/mobility.h"
#include "sim/scenario.h"
#include "unique_temp_path.h"

namespace mm::pipeline {
namespace {

::testing::AssertionResult bits_equal(double a, double b) {
  if (std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b)) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure() << a << " != " << b << " (bitwise)";
}

struct RotatingScenario {
  std::vector<sim::ApTruth> truth;
  std::filesystem::path pcap_path;
};

/// A population of MAC-rotating devices: directed SSIDs for some (the legacy
/// signal), pure counter/Gamma evidence for the anonymized ones, so batch ==
/// live must hold across every evidence path.
RotatingScenario record_rotating_capture(const char* pcap_name) {
  RotatingScenario s;
  sim::CampusConfig campus;
  campus.seed = 9090;
  campus.num_aps = 80;
  campus.half_extent_m = 220.0;
  s.truth = sim::generate_campus_aps(campus);

  sim::World world({.seed = 31, .propagation = nullptr});
  sim::populate_world(world, s.truth, /*beacons_enabled=*/true);

  const std::vector<geo::Vec2> positions = {
      {40.0, -20.0}, {-60.0, 30.0}, {10.0, 70.0}, {-30.0, -50.0}};
  for (std::size_t i = 0; i < positions.size(); ++i) {
    std::array<std::uint8_t, 6> bytes{0x00, 0x16, 0x6f, 0x00, 0x05,
                                      static_cast<std::uint8_t>(i + 1)};
    sim::MobileConfig mc;
    mc.mac = net80211::MacAddress(bytes);
    mc.mobility = std::make_shared<sim::StaticPosition>(positions[i]);
    mc.profile.probes = true;
    mc.profile.scan_interval_s = 4.0;
    mc.profile.mac_rotation_interval_s = 7.0;
    if (i % 2 == 0) {
      mc.profile.directed_ssids = {"home-" + std::to_string(i)};
    }
    world.add_mobile(std::make_unique<sim::MobileDevice>(mc));
  }

  capture::ObservationStore store;
  capture::SnifferConfig cfg;
  cfg.position = {0.0, 0.0};
  cfg.antenna_height_m = 20.0;
  cfg.pcap_path = testing_support::unique_temp_path(pcap_name);
  {
    capture::Sniffer sniffer(cfg, &store);
    sniffer.attach(world);
    world.run_until(30.0);
  }
  s.pcap_path = *cfg.pcap_path;
  return s;
}

marauder::ResolverOptions full_resolver() {
  marauder::ResolverOptions options;
  options.signals = marauder::ResolverSignals::all();
  return options;
}

void expect_maps_equal(const marauder::IdentityMap& live,
                       const marauder::IdentityMap& batch) {
  ASSERT_EQ(live.size(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    SCOPED_TRACE("identity " + std::to_string(i));
    EXPECT_EQ(live.identities[i].id, batch.identities[i].id);
    EXPECT_EQ(live.identities[i].macs, batch.identities[i].macs);
    EXPECT_EQ(live.identities[i].fingerprint, batch.identities[i].fingerprint);
    EXPECT_TRUE(bits_equal(live.identities[i].first_seen, batch.identities[i].first_seen));
    EXPECT_TRUE(bits_equal(live.identities[i].last_seen, batch.identities[i].last_seen));
  }
  EXPECT_EQ(live.by_mac, batch.by_mac);
}

void expect_live_resolution_matches_batch(const RotatingScenario& s,
                                          const marauder::ApDatabase& db,
                                          const fault::FaultPlan& plan) {
  // Batch path.
  capture::ObservationStore batch_store;
  capture::ReplayOptions replay_options;
  replay_options.fault_plan = plan;
  const auto replayed = capture::replay_pcap(s.pcap_path, batch_store, replay_options);
  ASSERT_TRUE(replayed.ok()) << replayed.error();
  const marauder::IdentityMap batch =
      marauder::resolve_identities(batch_store, full_resolver());

  // Live path, lossless policy.
  LiveTrackerConfig config;
  config.shards = 4;
  config.ring_capacity = 1 << 10;
  config.drop_policy = DropPolicy::kBlock;
  LiveTracker tracker(db, config);
  tracker.start();
  LiveFeedOptions feed_options;
  feed_options.fault_plan = plan;
  const auto fed = feed_pcap(s.pcap_path, tracker, feed_options);
  // The workers own the store slices until stop().
  EXPECT_EQ(tracker.resolve_identities(full_resolver()).size(), 0u);
  tracker.stop();
  ASSERT_TRUE(fed.ok()) << fed.error();
  ASSERT_EQ(fed.value().dropped, 0u);

  const marauder::IdentityMap live = tracker.resolve_identities(full_resolver());
  expect_maps_equal(live, batch);

  // The rotation actually produced pseudonyms, and at least one identity
  // re-linked several of them — otherwise this test proves nothing.
  EXPECT_GT(batch_store.device_count(), 4u);
  std::size_t best = 0;
  for (const auto& identity : batch.identities) best = std::max(best, identity.macs.size());
  EXPECT_GE(best, 2u);
}

TEST(PipelineIdentity, LiveResolutionEqualsBatchOnCleanCapture) {
  const RotatingScenario s = record_rotating_capture("mm_pipeline_identity.pcap");
  const auto db = marauder::ApDatabase::from_truth(s.truth, true);
  expect_live_resolution_matches_batch(s, db, fault::FaultPlan{});
  std::filesystem::remove(s.pcap_path);
}

TEST(PipelineIdentity, LiveResolutionEqualsBatchUnderFaultPlan) {
  const RotatingScenario s = record_rotating_capture("mm_pipeline_identity_fault.pcap");
  const auto db = marauder::ApDatabase::from_truth(s.truth, true);
  for (const double severity : {0.05, 0.2}) {
    SCOPED_TRACE("severity " + std::to_string(severity));
    fault::FaultPlan plan;
    plan.corrupt_rate = severity;
    plan.drop_rate = severity / 2.0;
    plan.duplicate_rate = severity / 4.0;
    plan.seed = 77;
    expect_live_resolution_matches_batch(s, db, plan);
  }
  std::filesystem::remove(s.pcap_path);
}

TEST(PipelineIdentity, ResolutionAfterRecoveryEqualsBatch) {
  const RotatingScenario s = record_rotating_capture("mm_pipeline_identity_recover.pcap");
  const auto db = marauder::ApDatabase::from_truth(s.truth, true);
  const std::filesystem::path dir =
      testing_support::unique_temp_path("mm_pipeline_identity_recover");
  std::filesystem::remove_all(dir);

  capture::ObservationStore batch_store;
  const auto replayed = capture::replay_pcap(s.pcap_path, batch_store);
  ASSERT_TRUE(replayed.ok()) << replayed.error();
  const marauder::IdentityMap batch =
      marauder::resolve_identities(batch_store, full_resolver());

  LiveTrackerConfig config;
  config.shards = 4;
  config.drop_policy = DropPolicy::kBlock;
  config.durability.dir = dir;
  config.durability.wal.fsync_on_commit = false;
  {
    LiveTracker first(db, config);
    first.start();
    const auto fed = feed_pcap(s.pcap_path, first);
    first.stop();
    ASSERT_TRUE(fed.ok()) << fed.error();
  }

  LiveTracker second(db, config);
  const auto recovered = second.recover();
  ASSERT_TRUE(recovered.ok()) << recovered.error();
  EXPECT_EQ(recovered.value().devices_restored, batch_store.device_count());
  expect_maps_equal(second.resolve_identities(full_resolver()), batch);
  std::size_t best = 0;
  for (const auto& identity : batch.identities) best = std::max(best, identity.macs.size());
  EXPECT_GE(best, 2u);

  std::filesystem::remove_all(dir);
  std::filesystem::remove(s.pcap_path);
}

TEST(PipelineIdentity, LocateIdentityReturnsFreshestAliasPosition) {
  const RotatingScenario s = record_rotating_capture("mm_pipeline_identity_locate.pcap");
  const auto db = marauder::ApDatabase::from_truth(s.truth, true);

  LiveTrackerConfig config;
  config.shards = 4;
  config.drop_policy = DropPolicy::kBlock;
  LiveTracker tracker(db, config);
  tracker.start();
  const auto fed = feed_pcap(s.pcap_path, tracker);
  tracker.stop();
  ASSERT_TRUE(fed.ok()) << fed.error();

  const marauder::IdentityMap map = tracker.resolve_identities(full_resolver());
  std::size_t identities_located = 0;
  for (const auto& identity : map.identities) {
    std::optional<LivePosition> freshest;
    for (const auto& mac : identity.macs) {
      const auto position = tracker.locate(mac);
      if (position && (!freshest || position->updated_at_s > freshest->updated_at_s)) {
        freshest = position;
      }
    }
    const auto got = tracker.locate_identity(identity);
    ASSERT_EQ(got.has_value(), freshest.has_value());
    if (!got) continue;
    ++identities_located;
    EXPECT_TRUE(bits_equal(got->x_m, freshest->x_m));
    EXPECT_TRUE(bits_equal(got->y_m, freshest->y_m));
    EXPECT_TRUE(bits_equal(got->updated_at_s, freshest->updated_at_s));
  }
  EXPECT_GT(identities_located, 0u);
  std::filesystem::remove(s.pcap_path);
}

}  // namespace
}  // namespace mm::pipeline
