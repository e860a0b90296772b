// Phoenix's ShardSupervisor against misbehaving workers: a wedged worker
// (heartbeat frozen while busy) is detected and restarted with its state
// recovered from the WAL; a crashed worker (hook throws) likewise; and a
// crash-looping shard trips the circuit breaker, degrading only its own
// partition — queries for its devices carry the flag, the other shards never
// notice.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "capture/frame_event.h"
#include "capture/observation_store.h"
#include "marauder/ap_database.h"
#include "pipeline/live_tracker.h"
#include "pipeline/supervisor.h"
#include "sim/scenario.h"
#include "unique_temp_path.h"

namespace mm::pipeline {
namespace {

namespace fs = std::filesystem;
using namespace std::chrono_literals;

template <typename Pred>
bool wait_for(Pred pred, double timeout_s = 10.0) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                            std::chrono::duration<double>(timeout_s));
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(2ms);
  }
  return pred();
}

std::vector<sim::ApTruth> make_truth() {
  std::vector<sim::ApTruth> truth;
  for (std::uint64_t i = 0; i < 8; ++i) {
    sim::ApTruth ap;
    ap.bssid = net80211::MacAddress::from_u64(0x001a2b000100u + i);
    ap.ssid = "sup-" + std::to_string(i);
    ap.channel = static_cast<int>(1 + i);
    ap.position = {20.0 * static_cast<double>(i), 10.0 * static_cast<double>(i % 3)};
    ap.radius_m = 120.0;
    truth.push_back(ap);
  }
  return truth;
}

/// First MAC in a salted probe sequence that the tracker routes to `shard`.
net80211::MacAddress mac_for_shard(const LiveTracker& tracker, std::size_t shard,
                                   std::uint64_t salt) {
  for (std::uint64_t i = 0;; ++i) {
    const auto mac = net80211::MacAddress::from_u64(0x020000000000u + salt * 4096 + i);
    if (tracker.shard_for(mac) == shard) return mac;
  }
}

capture::FrameEvent contact_event(const net80211::MacAddress& device,
                                  const net80211::MacAddress& ap, std::uint64_t seq,
                                  double time_s) {
  capture::FrameEvent event;
  event.kind = capture::FrameEventKind::kContact;
  event.stream_seq = seq;
  event.device = device;
  event.ap = ap;
  event.time_s = time_s;
  event.rssi_dbm = -45.0;
  return event;
}

struct SupervisedRig {
  explicit SupervisedRig(const char* dir_name)
      : truth(make_truth()),
        db(marauder::ApDatabase::from_truth(truth, true)),
        dir(testing_support::unique_temp_path(dir_name)) {
    fs::remove_all(dir);
    fs::create_directories(dir);
  }
  ~SupervisedRig() { fs::remove_all(dir); }

  LiveTrackerConfig config() const {
    LiveTrackerConfig config;
    config.shards = 2;
    config.ring_capacity = 1 << 8;
    config.drop_policy = DropPolicy::kDropNewest;
    config.durability.dir = dir;
    config.durability.wal.commit_every_records = 1;  // every applied event durable
    config.durability.wal.fsync_on_commit = false;
    return config;
  }

  std::vector<sim::ApTruth> truth;
  marauder::ApDatabase db;
  fs::path dir;
};

TEST(ShardSupervisor, WedgedShardIsRestartedWithoutDisturbingTheOthers) {
  SupervisedRig rig("mm_sup_wedge");
  constexpr std::size_t kTarget = 0;
  constexpr std::size_t kOther = 1;

  std::mutex wedge_mutex;
  std::condition_variable wedge_cv;
  std::atomic<bool> wedge{false};
  bool wedged_now = false;

  LiveTrackerConfig config = rig.config();
  config.ingest_hook = [&](std::size_t shard, const capture::FrameEvent&) {
    if (shard == kTarget && wedge.load(std::memory_order_acquire)) {
      std::unique_lock lock(wedge_mutex);
      wedged_now = true;
      wedge_cv.notify_all();
      wedge_cv.wait(lock, [&] { return !wedge.load(std::memory_order_acquire); });
    }
  };
  LiveTracker tracker(rig.db, config);
  tracker.start();
  SupervisorOptions sup;
  sup.poll_interval_s = 0.02;
  sup.stall_timeout_s = 0.15;
  ShardSupervisor supervisor(tracker, sup);
  supervisor.start();

  const auto target_dev = mac_for_shard(tracker, kTarget, 1);
  const auto other_dev = mac_for_shard(tracker, kOther, 2);

  // Phase 1: clean traffic on both shards, fully applied and WAL-committed.
  std::uint64_t seq = 0;
  std::vector<capture::FrameEvent> target_events;
  for (std::uint64_t i = 0; i < 6; ++i) {
    target_events.push_back(contact_event(target_dev, rig.truth[i].bssid, ++seq,
                                          1.0 + 0.1 * static_cast<double>(i)));
    ASSERT_TRUE(tracker.push(target_events.back()));
    ASSERT_TRUE(tracker.push(contact_event(other_dev, rig.truth[i].bssid, ++seq,
                                           1.0 + 0.1 * static_cast<double>(i))));
  }
  ASSERT_TRUE(wait_for([&] {
    return tracker.shard_health(kTarget).frames == 6 &&
           tracker.shard_health(kOther).frames == 6;
  }));

  // Phase 2: wedge the target worker mid-event.
  wedge.store(true, std::memory_order_release);
  capture::FrameEvent poison =
      contact_event(target_dev, rig.truth[6].bssid, ++seq, 2.0);
  ASSERT_TRUE(tracker.push(poison));
  {
    std::unique_lock lock(wedge_mutex);
    ASSERT_TRUE(wedge_cv.wait_for(lock, 5s, [&] { return wedged_now; }));
  }

  // The watchdog must call the freeze: stall detected, shard restarted.
  ASSERT_TRUE(wait_for([&] { return tracker.stats().shards[kTarget].restarts >= 1; }));
  // Release the zombie; the abandon fence discards its in-flight event.
  wedge.store(false, std::memory_order_release);
  wedge_cv.notify_all();

  // The restarted generation recovered phase 1 from the WAL.
  ASSERT_TRUE(wait_for([&] { return tracker.shard_health(kTarget).frames >= 6; }));

  // Phase 3: re-push the target stream (same sequences): the cursor skips
  // the recovered prefix and applies only what the wedge swallowed.
  for (const auto& event : target_events) ASSERT_TRUE(tracker.push(event));
  ASSERT_TRUE(tracker.push(poison));
  ASSERT_TRUE(wait_for([&] { return tracker.shard_health(kTarget).frames >= 7; }));

  supervisor.stop();
  tracker.stop();

  const SupervisorStats sup_stats = supervisor.stats();
  EXPECT_GE(sup_stats.stalls_detected, 1u);
  EXPECT_GE(sup_stats.restarts, 1u);
  EXPECT_EQ(sup_stats.circuit_breaks, 0u);

  const PipelineStats stats = tracker.stats();
  EXPECT_GE(stats.shards[kTarget].restarts, 1u);
  EXPECT_FALSE(stats.shards[kTarget].degraded);
  EXPECT_GT(stats.shards[kTarget].dedup_skipped, 0u);
  // The other shard never noticed: no restarts, stream intact.
  EXPECT_EQ(stats.shards[kOther].restarts, 0u);
  EXPECT_EQ(stats.shards[kOther].frames, 6u);

  // Target store holds exactly the 7-contact stream.
  const capture::DeviceRecord* rec = tracker.shard_store(kTarget).device(target_dev);
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(rec->contacts.size(), 7u);
  const auto located = tracker.locate(target_dev);
  ASSERT_TRUE(located.has_value());
  EXPECT_EQ(located->shard_degraded, 0);
}

TEST(ShardSupervisor, CrashedWorkerIsRestartedAndItsRingDrained) {
  SupervisedRig rig("mm_sup_crash");
  constexpr std::size_t kTarget = 1;

  std::atomic<bool> crash_armed{false};
  LiveTrackerConfig config = rig.config();
  config.ingest_hook = [&](std::size_t shard, const capture::FrameEvent&) {
    if (shard == kTarget &&
        crash_armed.exchange(false, std::memory_order_acq_rel)) {
      throw std::runtime_error("injected worker crash");
    }
  };
  LiveTracker tracker(rig.db, config);
  tracker.start();
  SupervisorOptions sup;
  sup.poll_interval_s = 0.02;
  sup.stall_timeout_s = 0.2;
  ShardSupervisor supervisor(tracker, sup);
  supervisor.start();

  const auto device = mac_for_shard(tracker, kTarget, 3);
  std::uint64_t seq = 0;
  std::vector<capture::FrameEvent> events;
  for (std::uint64_t i = 0; i < 5; ++i) {
    events.push_back(contact_event(device, rig.truth[i].bssid, ++seq,
                                   1.0 + 0.1 * static_cast<double>(i)));
    ASSERT_TRUE(tracker.push(events.back()));
  }
  ASSERT_TRUE(wait_for([&] { return tracker.shard_health(kTarget).frames == 5; }));

  crash_armed.store(true, std::memory_order_release);
  events.push_back(contact_event(device, rig.truth[5].bssid, ++seq, 2.0));
  ASSERT_TRUE(tracker.push(events.back()));

  ASSERT_TRUE(wait_for([&] { return tracker.stats().shards[kTarget].restarts >= 1; }));
  ASSERT_TRUE(wait_for([&] { return tracker.shard_health(kTarget).frames >= 5; }));

  // Re-push the stream; only the crashed-away event actually applies.
  for (const auto& event : events) ASSERT_TRUE(tracker.push(event));
  ASSERT_TRUE(wait_for([&] { return tracker.shard_health(kTarget).frames >= 6; }));

  supervisor.stop();
  tracker.stop();

  const SupervisorStats sup_stats = supervisor.stats();
  EXPECT_GE(sup_stats.crashes_detected, 1u);
  EXPECT_GE(sup_stats.restarts, 1u);
  EXPECT_EQ(sup_stats.circuit_breaks, 0u);
  const capture::DeviceRecord* rec = tracker.shard_store(kTarget).device(device);
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(rec->contacts.size(), 6u);
  EXPECT_FALSE(tracker.shard_degraded(kTarget));
}

TEST(ShardSupervisor, CrashLoopTripsTheBreakerAndDegradesOnlyThatPartition) {
  SupervisedRig rig("mm_sup_breaker");
  constexpr std::size_t kTarget = 0;
  constexpr std::size_t kOther = 1;

  std::atomic<bool> poison_active{false};
  LiveTrackerConfig config = rig.config();
  config.ingest_hook = [&](std::size_t shard, const capture::FrameEvent&) {
    if (shard == kTarget && poison_active.load(std::memory_order_acquire)) {
      throw std::runtime_error("crash loop");
    }
  };
  LiveTracker tracker(rig.db, config);
  tracker.start();
  SupervisorOptions sup;
  sup.poll_interval_s = 0.01;
  sup.stall_timeout_s = 0.5;
  sup.max_restarts = 2;
  sup.backoff_initial_s = 0.01;
  sup.backoff_max_s = 0.02;
  ShardSupervisor supervisor(tracker, sup);
  supervisor.start();

  const auto target_dev = mac_for_shard(tracker, kTarget, 4);
  const auto other_dev = mac_for_shard(tracker, kOther, 5);

  // Publish a position on each shard first, then start the crash loop.
  std::uint64_t seq = 0;
  ASSERT_TRUE(tracker.push(contact_event(target_dev, rig.truth[0].bssid, ++seq, 1.0)));
  ASSERT_TRUE(tracker.push(contact_event(other_dev, rig.truth[1].bssid, ++seq, 1.0)));
  ASSERT_TRUE(wait_for([&] {
    return tracker.shard_health(kTarget).frames == 1 &&
           tracker.shard_health(kOther).frames == 1;
  }));

  poison_active.store(true, std::memory_order_release);
  // Keep feeding poison: every generation dies on its first event, restarts
  // never make progress, and the strike counter walks to the breaker.
  const bool broke = wait_for(
      [&] {
        if (tracker.shard_degraded(kTarget)) return true;
        (void)tracker.push(
            contact_event(target_dev, rig.truth[2].bssid, ++seq, 2.0));
        return false;
      },
      15.0);
  ASSERT_TRUE(broke) << "breaker never tripped";

  supervisor.stop();

  const SupervisorStats sup_stats = supervisor.stats();
  EXPECT_GE(sup_stats.crashes_detected, 1u);
  EXPECT_EQ(sup_stats.circuit_breaks, 1u);
  EXPECT_TRUE(tracker.shard_degraded(kTarget));
  EXPECT_FALSE(tracker.shard_degraded(kOther));
  // A dead partition refuses restarts and drops pushes under either policy.
  EXPECT_FALSE(tracker.restart_shard(kTarget));
  EXPECT_FALSE(tracker.push(contact_event(target_dev, rig.truth[3].bssid, ++seq, 3.0)));

  // Degradation is visible exactly where it should be: the downed shard's
  // devices carry the flag, the healthy shard's do not.
  const auto down = tracker.locate(target_dev);
  ASSERT_TRUE(down.has_value());
  EXPECT_EQ(down->shard_degraded, 1);
  const auto up = tracker.locate(other_dev);
  ASSERT_TRUE(up.has_value());
  EXPECT_EQ(up->shard_degraded, 0);

  const PipelineStats stats = tracker.stats();
  EXPECT_EQ(stats.degraded_shards, 1u);
  EXPECT_TRUE(stats.shards[kTarget].degraded);
  EXPECT_FALSE(stats.shards[kOther].degraded);

  tracker.stop();
}

// A restart whose recovery fails gives the partition up: a generation run on
// what did load would checkpoint the loss over the evidence for good.
TEST(ShardSupervisor, FailedRecoveryDegradesThePartitionInsteadOfRestarting) {
  SupervisedRig rig("mm_sup_norecover");
  constexpr std::size_t kTarget = 0;
  constexpr std::size_t kOther = 1;

  std::atomic<bool> crash_armed{false};
  LiveTrackerConfig config = rig.config();
  config.durability.checkpoint_interval_s = 0.01;
  config.ingest_hook = [&](std::size_t shard, const capture::FrameEvent&) {
    if (shard == kTarget && crash_armed.exchange(false, std::memory_order_acq_rel)) {
      throw std::runtime_error("injected worker crash");
    }
  };
  LiveTracker tracker(rig.db, config);
  tracker.start();
  const auto target_dev = mac_for_shard(tracker, kTarget, 6);
  const auto other_dev = mac_for_shard(tracker, kOther, 7);

  std::uint64_t seq = 0;
  for (std::uint64_t i = 0; i < 4; ++i) {
    const double t = 1.0 + 0.1 * static_cast<double>(i);
    ASSERT_TRUE(tracker.push(contact_event(target_dev, rig.truth[i].bssid, ++seq, t)));
    ASSERT_TRUE(tracker.push(contact_event(other_dev, rig.truth[i].bssid, ++seq, t)));
  }
  ASSERT_TRUE(wait_for([&] { return tracker.stats().shards[kTarget].checkpoints >= 1; }));

  // Kill the target worker before any supervisor runs, so no newer
  // checkpoint appears; the event behind the fatal one stays in its ring.
  crash_armed.store(true, std::memory_order_release);
  ASSERT_TRUE(tracker.push(contact_event(target_dev, rig.truth[4].bssid, ++seq, 2.0)));
  ASSERT_TRUE(tracker.push(contact_event(target_dev, rig.truth[5].bssid, ++seq, 2.1)));
  ASSERT_TRUE(wait_for([&] { return tracker.shard_health(kTarget).dead; }));
  std::size_t damaged = 0;
  for (const auto& entry : fs::directory_iterator(rig.dir / "shard-0")) {
    if (!entry.path().filename().string().starts_with("ckpt-")) continue;
    std::fstream file(entry.path(), std::ios::in | std::ios::out | std::ios::binary);
    const auto middle = static_cast<std::streamoff>(fs::file_size(entry.path()) / 2);
    char byte = 0;
    file.seekg(middle);
    file.get(byte);
    file.seekp(middle);
    file.put(static_cast<char>(byte ^ 0x01));
    ++damaged;
  }
  ASSERT_GE(damaged, 1u);

  SupervisorOptions sup;
  sup.poll_interval_s = 0.02;
  ShardSupervisor supervisor(tracker, sup);
  supervisor.start();
  ASSERT_TRUE(wait_for([&] { return tracker.shard_degraded(kTarget); }));

  // The other partition keeps applying events.
  const std::uint64_t other_frames = tracker.shard_health(kOther).frames;
  ASSERT_TRUE(tracker.push(contact_event(other_dev, rig.truth[6].bssid, ++seq, 3.0)));
  ASSERT_TRUE(wait_for([&] { return tracker.shard_health(kOther).frames > other_frames; }));
  supervisor.stop();

  const SupervisorStats sup_stats = supervisor.stats();
  EXPECT_EQ(sup_stats.restarts, 0u);
  EXPECT_EQ(sup_stats.circuit_breaks, 1u);
  const PipelineStats stats = tracker.stats();
  EXPECT_EQ(stats.shards[kTarget].restarts, 0u);
  EXPECT_TRUE(stats.shards[kTarget].degraded);
  EXPECT_GE(stats.shards[kTarget].lost_events, 1u);
  EXPECT_FALSE(stats.shards[kOther].degraded);
  tracker.stop();
}

}  // namespace
}  // namespace mm::pipeline
