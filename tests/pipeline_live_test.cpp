// Riptide end-to-end: the live path (feed_pcap -> rings -> shard workers ->
// M-Loc per Gamma growth -> seqlock directory) against the batch path
// (replay_pcap -> ObservationStore -> mloc_locate) on the same capture.
//
// The acceptance contract: under the lossless (kBlock) policy with drop rate
// zero, the live engine's published estimate for every device is
// BIT-identical to the batch result, the sharded store slices hold exactly
// the batch store's records, and a fault plan quarantines exactly the same
// records on both paths (same plan + seed => same deterministic damage).
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <future>
#include <stdexcept>
#include <thread>
#include <unordered_map>
#include <vector>

#include "capture/replay.h"
#include "capture/sniffer.h"
#include "marauder/ap_database.h"
#include "marauder/mloc.h"
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

struct LiveScenario {
  std::vector<sim::ApTruth> truth;
  std::vector<net80211::MacAddress> victims;
  std::filesystem::path pcap_path;
};

/// Simulates a campus walk and records the sniffer's capture to a pcap.
LiveScenario record_capture(const char* pcap_name) {
  LiveScenario s;
  sim::CampusConfig campus;
  campus.seed = 4242;
  campus.num_aps = 90;
  campus.half_extent_m = 240.0;
  s.truth = sim::generate_campus_aps(campus);

  sim::World world({.seed = 7, .propagation = nullptr});
  sim::populate_world(world, s.truth, /*beacons_enabled=*/true);

  const std::vector<geo::Vec2> positions = {
      {50.0, -30.0}, {-70.0, 40.0}, {15.0, 85.0}, {-40.0, -60.0}, {95.0, 10.0}};
  std::vector<sim::MobileDevice*> devices;
  for (std::size_t i = 0; i < positions.size(); ++i) {
    std::array<std::uint8_t, 6> bytes{0x00, 0x16, 0x6f, 0x00, 0x02,
                                      static_cast<std::uint8_t>(i + 1)};
    s.victims.emplace_back(bytes);
    sim::MobileConfig mc;
    mc.mac = s.victims.back();
    mc.mobility = std::make_shared<sim::StaticPosition>(positions[i]);
    devices.push_back(world.add_mobile(std::make_unique<sim::MobileDevice>(mc)));
  }

  capture::ObservationStore store;
  capture::SnifferConfig cfg;
  cfg.position = {0.0, 0.0};
  cfg.antenna_height_m = 20.0;
  cfg.pcap_path = testing_support::unique_temp_path(pcap_name);
  {
    capture::Sniffer sniffer(cfg, &store);
    sniffer.attach(world);
    for (std::size_t i = 0; i < devices.size(); ++i) {
      sim::MobileDevice* dev = devices[i];
      world.queue().schedule(1.0 + 0.4 * static_cast<double>(i),
                             [dev] { dev->trigger_scan(); });
      world.queue().schedule(4.0 + 0.4 * static_cast<double>(i),
                             [dev] { dev->trigger_scan(); });
    }
    world.run_until(8.0);
  }
  s.pcap_path = *cfg.pcap_path;
  return s;
}

void expect_contact_equal(const capture::ApContact& live,
                          const capture::ApContact& batch) {
  EXPECT_TRUE(bits_equal(live.first_seen, batch.first_seen));
  EXPECT_TRUE(bits_equal(live.last_seen, batch.last_seen));
  EXPECT_EQ(live.count, batch.count);
  EXPECT_TRUE(bits_equal(live.last_rssi_dbm, batch.last_rssi_dbm));
  EXPECT_EQ(live.times, batch.times);
}

/// Every record of the batch store must exist, field-identical, in the shard
/// slice the partitioner routed its device to — and nowhere else.
void expect_stores_equal(const LiveTracker& tracker,
                         const capture::ObservationStore& batch) {
  std::size_t live_devices = 0;
  for (std::size_t i = 0; i < tracker.shard_count(); ++i) {
    live_devices += tracker.shard_store(i).device_count();
  }
  EXPECT_EQ(live_devices, batch.device_count());

  for (const auto& mac : batch.devices()) {
    const capture::DeviceRecord* want = batch.device(mac);
    ASSERT_NE(want, nullptr);
    const auto& shard = tracker.shard_store(tracker.shard_for(mac));
    const capture::DeviceRecord* got = shard.device(mac);
    ASSERT_NE(got, nullptr) << mac.to_string() << " missing from its shard";
    SCOPED_TRACE(mac.to_string());
    EXPECT_TRUE(bits_equal(got->first_seen, want->first_seen));
    EXPECT_TRUE(bits_equal(got->last_seen, want->last_seen));
    EXPECT_EQ(got->probe_requests, want->probe_requests);
    EXPECT_EQ(got->directed_ssids, want->directed_ssids);
    ASSERT_EQ(got->contacts.size(), want->contacts.size());
    for (const auto& [ap, contact] : want->contacts) {
      const auto it = got->contacts.find(ap);
      ASSERT_NE(it, got->contacts.end()) << "contact " << ap.to_string();
      expect_contact_equal(it->second, contact);
    }
  }

  std::size_t live_sightings = 0;
  for (std::size_t i = 0; i < tracker.shard_count(); ++i) {
    live_sightings += tracker.shard_store(i).ap_sightings().size();
  }
  EXPECT_EQ(live_sightings, batch.ap_sightings().size());
  for (const capture::ApSighting& want : batch.ap_sightings()) {
    const auto& shard = tracker.shard_store(tracker.shard_for(want.bssid));
    const capture::ApSighting* got = shard.sighting(want.bssid);
    ASSERT_NE(got, nullptr) << want.bssid.to_string();
    EXPECT_EQ(got->ssid, want.ssid);
    EXPECT_EQ(got->channel, want.channel);
    EXPECT_EQ(got->beacons, want.beacons);
    EXPECT_TRUE(bits_equal(got->last_rssi_dbm, want.last_rssi_dbm));
  }
}

/// Adds to `rejecting` the devices whose live estimate dropped outlier discs.
void expect_live_matches_batch(const LiveScenario& s, const marauder::ApDatabase& db,
                               const fault::FaultPlan& plan,
                               const marauder::MLocOptions& mloc,
                               std::size_t& rejecting) {
  // Batch path.
  capture::ObservationStore batch_store;
  capture::ReplayOptions replay_options;
  replay_options.fault_plan = plan;
  const auto replayed = capture::replay_pcap(s.pcap_path, batch_store, replay_options);
  ASSERT_TRUE(replayed.ok()) << replayed.error();
  const capture::ReplayStats& batch_stats = replayed.value();

  // Live path, lossless policy.
  LiveTrackerConfig config;
  config.shards = 4;
  config.ring_capacity = 1 << 10;
  config.drop_policy = DropPolicy::kBlock;
  config.mloc = mloc;
  LiveTracker tracker(db, config);
  tracker.start();
  LiveFeedOptions feed_options;
  feed_options.fault_plan = plan;
  const auto fed = feed_pcap(s.pcap_path, tracker, feed_options);
  tracker.stop();
  ASSERT_TRUE(fed.ok()) << fed.error();
  const LiveFeedStats& live_stats = fed.value();

  // Acceptance: zero drops on the lossless path.
  EXPECT_EQ(live_stats.dropped, 0u);
  const PipelineStats engine = tracker.stats();
  EXPECT_EQ(engine.total_dropped, 0u);
  EXPECT_EQ(engine.total_frames, live_stats.pushed);

  // Quarantine accounting: both paths saw the same records and damaged /
  // quarantined exactly the same ones (same plan, same seed, same order).
  EXPECT_EQ(live_stats.replay.records, batch_stats.records);
  EXPECT_EQ(live_stats.replay.malformed, batch_stats.malformed);
  EXPECT_EQ(live_stats.replay.framing_quarantined, batch_stats.framing_quarantined);
  EXPECT_EQ(live_stats.replay.quarantined(), batch_stats.quarantined());
  EXPECT_EQ(live_stats.replay.probe_requests, batch_stats.probe_requests);
  EXPECT_EQ(live_stats.replay.probe_responses, batch_stats.probe_responses);
  EXPECT_EQ(live_stats.replay.beacons, batch_stats.beacons);
  EXPECT_EQ(live_stats.replay.other, batch_stats.other);
  EXPECT_EQ(live_stats.replay.faults.frames_seen, batch_stats.faults.frames_seen);
  EXPECT_EQ(live_stats.replay.faults.frames_corrupted,
            batch_stats.faults.frames_corrupted);
  EXPECT_EQ(live_stats.replay.faults.frames_truncated,
            batch_stats.faults.frames_truncated);
  EXPECT_EQ(live_stats.replay.faults.frames_dropped, batch_stats.faults.frames_dropped);
  EXPECT_EQ(live_stats.replay.faults.frames_duplicated,
            batch_stats.faults.frames_duplicated);

  expect_stores_equal(tracker, batch_store);

  // The headline invariant: live locate == batch locate, bit for bit.
  std::size_t devices_located = 0;
  for (const auto& mac : batch_store.devices()) {
    SCOPED_TRACE(mac.to_string());
    std::vector<net80211::MacAddress> gamma;
    batch_store.gamma_append(mac, {}, gamma);
    const auto discs = db.discs_for(gamma, 100.0);
    const auto live = tracker.locate(mac);
    if (discs.empty()) {
      EXPECT_FALSE(live.has_value()) << "live published without known-AP evidence";
      continue;
    }
    const auto batch = marauder::mloc_locate(discs, config.mloc);
    ASSERT_TRUE(live.has_value()) << "batch located but live never published";
    ++devices_located;
    EXPECT_TRUE(bits_equal(live->x_m, batch.estimate.x));
    EXPECT_TRUE(bits_equal(live->y_m, batch.estimate.y));
    EXPECT_EQ(live->ok != 0, batch.ok);
    EXPECT_EQ(live->used_fallback != 0, batch.used_fallback);
    EXPECT_EQ(live->discs_rejected, batch.discs_rejected);
    EXPECT_EQ(live->gamma_size, discs.size());
    // One publish per Gamma growth, none for a repeated AP.
    EXPECT_EQ(live->updates, discs.size());
    if (live->discs_rejected > 0) ++rejecting;
  }
  EXPECT_GE(devices_located, s.victims.size());
}

TEST(PipelineLive, CleanReplayMatchesBatchBitForBit) {
  const LiveScenario s = record_capture("mm_pipeline_live.pcap");
  const auto db = marauder::ApDatabase::from_truth(s.truth, true);
  std::size_t rejecting = 0;
  expect_live_matches_batch(s, db, {}, {}, rejecting);
  std::filesystem::remove(s.pcap_path);
}

// Fault-plan soak through the live path: the deterministic damage streams
// must quarantine identically on both paths and leave them bit-identical on
// the surviving evidence — with and without outlier rejection (what `mmctl
// live --reject-outliers` sets), and over a database in which some APs moved
// after the crawl, so that rejection has inconsistent discs to drop.
TEST(PipelineLive, FaultPlanSoakQuarantinesIdenticallyToBatch) {
  const LiveScenario s = record_capture("mm_pipeline_live_fault.pcap");
  std::vector<sim::ApTruth> moved = s.truth;
  for (std::size_t i = 0; i < moved.size(); i += 7) moved[i].position.x += 350.0;
  const std::array<marauder::ApDatabase, 2> dbs = {
      marauder::ApDatabase::from_truth(s.truth, true),
      marauder::ApDatabase::from_truth(moved, true)};
  std::size_t rejecting = 0;
  for (std::size_t d = 0; d < dbs.size(); ++d) {
    for (const bool reject : {false, true}) {
      for (const double severity : {0.01, 0.1, 0.3}) {
        SCOPED_TRACE("severity " + std::to_string(severity) +
                     (d == 1 ? ", moved APs" : "") + (reject ? ", reject_outliers" : ""));
        fault::FaultPlan plan;
        plan.corrupt_rate = severity;
        plan.truncate_rate = severity / 2.0;
        plan.drop_rate = severity / 2.0;
        plan.duplicate_rate = severity / 4.0;
        plan.seed = 99;
        expect_live_matches_batch(s, dbs[d], plan, {.reject_outliers = reject},
                                  rejecting);
      }
    }
  }
  EXPECT_GT(rejecting, 0u) << "no live estimate exercised outlier rejection";
  std::filesystem::remove(s.pcap_path);
}

// A worker that dies on an exception with no supervisor to restart it must
// show in stats(), and must not stall the other shard. Under kBlock the
// producer must not stall either: once the dead shard's ring (far smaller
// than the capture here) is full, its pushes are dropped and counted as lost.
// The feed runs against a deadline; a producer still blocked at the deadline
// fails the test and is released by breaking the shard's circuit.
TEST(PipelineLive, DeadWorkerIsReportedWithoutSupervisor) {
  const LiveScenario s = record_capture("mm_pipeline_live_dead.pcap");
  const auto db = marauder::ApDatabase::from_truth(s.truth, true);

  for (const DropPolicy policy : {DropPolicy::kDropNewest, DropPolicy::kBlock}) {
    SCOPED_TRACE(policy == DropPolicy::kBlock ? "kBlock" : "kDropNewest");
    LiveTrackerConfig config;
    config.shards = 2;
    config.ring_capacity = 64;
    config.drop_policy = policy;
    // Shard 0's worker dies at its first event; the hook never runs again.
    config.ingest_hook = [](std::size_t shard, const capture::FrameEvent&) {
      if (shard == 0) throw std::runtime_error("injected worker fault");
    };
    LiveTracker tracker(db, config);
    tracker.start();
    auto feeding = std::async(std::launch::async,
                              [&] { return feed_pcap(s.pcap_path, tracker); });
    if (feeding.wait_for(std::chrono::seconds(15)) != std::future_status::ready) {
      ADD_FAILURE() << "feed_pcap still blocked on the dead shard after 15 s";
      tracker.circuit_break_shard(0);
    }
    const auto fed = feeding.get();
    tracker.stop();
    ASSERT_TRUE(fed.ok()) << fed.error();

    const PipelineStats stats = tracker.stats();
    ASSERT_EQ(stats.shards.size(), 2u);
    const ShardStats& dead = stats.shards[0];
    const ShardStats& live = stats.shards[1];
    EXPECT_TRUE(dead.dead);
    EXPECT_FALSE(dead.degraded);
    EXPECT_EQ(dead.frames, 0u);
    // A full ring, plus the event the worker died on when it popped that
    // one before the feed ended (kDropNewest does not wait for the pop).
    EXPECT_GE(dead.ring_pushed, dead.ring_capacity);
    EXPECT_LE(dead.ring_pushed, dead.ring_capacity + 1);
    EXPECT_FALSE(live.dead);
    EXPECT_GT(live.frames, 0u);
    EXPECT_EQ(live.frames, live.ring_pushed);
    // Every event the feed offered is either in a ring or counted dropped.
    EXPECT_EQ(fed.value().pushed, dead.ring_pushed + live.ring_pushed);
    // stop() counts the dead ring's backlog as lost: every event pushed into
    // it except the one the worker died on.
    if (policy == DropPolicy::kBlock) {
      EXPECT_EQ(dead.ring_pushed, dead.ring_capacity + 1);
      EXPECT_GT(fed.value().dropped, 0u);
      EXPECT_EQ(dead.ring_dropped + live.ring_dropped, 0u);
      // A push the full ring refused was counted lost when it was dropped.
      EXPECT_EQ(dead.lost_events, fed.value().dropped + dead.ring_pushed - 1);
    } else {
      EXPECT_GT(dead.ring_dropped, 0u);
      // Refused pushes stay in ring_dropped.
      EXPECT_EQ(dead.lost_events, dead.ring_pushed - 1);
      EXPECT_EQ(fed.value().dropped, dead.ring_dropped + live.ring_dropped);
    }
  }
  std::filesystem::remove(s.pcap_path);
}

// Query threads hammer locate()/snapshot() while ingest runs: estimates must
// always be internally consistent (seqlock: no torn positions) and publish
// counts monotone per device.
TEST(PipelineLive, ConcurrentQueriesSeeConsistentSnapshots) {
  const LiveScenario s = record_capture("mm_pipeline_live_query.pcap");
  const auto db = marauder::ApDatabase::from_truth(s.truth, true);

  LiveTrackerConfig config;
  config.shards = 4;
  config.drop_policy = DropPolicy::kBlock;
  LiveTracker tracker(db, config);
  tracker.start();

  std::atomic<bool> feeding{true};
  std::thread feeder([&] {
    // Replay the capture repeatedly to keep ingest busy under the readers.
    for (int round = 0; round < 10; ++round) {
      const auto fed = feed_pcap(s.pcap_path, tracker);
      ASSERT_TRUE(fed.ok());
    }
    feeding.store(false, std::memory_order_release);
  });

  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      std::unordered_map<std::uint64_t, std::uint64_t> last_updates;
      while (feeding.load(std::memory_order_acquire)) {
        for (const auto& [mac, pos] : tracker.snapshot()) {
          ASSERT_TRUE(std::isfinite(pos.x_m));
          ASSERT_TRUE(std::isfinite(pos.y_m));
          ASSERT_GE(pos.gamma_size, 1u);
          auto& last = last_updates[mac.to_u64()];
          ASSERT_GE(pos.updates, last);  // single-writer publishes are monotone
          last = pos.updates;
        }
        for (const auto& victim : s.victims) (void)tracker.locate(victim);
      }
    });
  }
  feeder.join();
  for (auto& t : readers) t.join();
  tracker.stop();

  const PipelineStats stats = tracker.stats();
  EXPECT_EQ(stats.total_dropped, 0u);
  std::filesystem::remove(s.pcap_path);
}

}  // namespace
}  // namespace mm::pipeline
