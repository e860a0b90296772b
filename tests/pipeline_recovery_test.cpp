// Phoenix crash recovery, end to end: a child process ingests a capture with
// durability on and SIGKILLs itself mid-ingest at a randomized offset (the hook
// fires between the WAL append of the previous event and the apply of the
// next — the worst places a crash can land). The parent then recovers from
// whatever the corpse left on disk — checkpoint + WAL tail, possibly with a
// torn segment — re-feeds the capture (the exactly-once cursor dedups the
// recovered prefix), and must end bit-for-bit equal to an uninterrupted run:
// same store slices, same published positions, clean or under a fault plan.
#include <gtest/gtest.h>

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <csignal>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "capture/sniffer.h"
#include "durability/checkpoint.h"
#include "durability/wal.h"
#include "marauder/ap_database.h"
#include "pipeline/live_feed.h"
#include "pipeline/live_tracker.h"
#include "sim/mobile.h"
#include "sim/mobility.h"
#include "sim/scenario.h"
#include "unique_temp_path.h"

namespace mm::pipeline {
namespace {

namespace fs = std::filesystem;

::testing::AssertionResult bits_equal(double a, double b) {
  if (std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b)) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure() << a << " != " << b << " (bitwise)";
}

struct RecoveryScenario {
  std::vector<sim::ApTruth> truth;
  fs::path pcap_path;
};

/// Simulates a small campus capture (same shape as pipeline_live_test).
RecoveryScenario record_capture(const char* pcap_name) {
  RecoveryScenario s;
  sim::CampusConfig campus;
  campus.seed = 1337;
  campus.num_aps = 60;
  campus.half_extent_m = 200.0;
  s.truth = sim::generate_campus_aps(campus);

  sim::World world({.seed = 21, .propagation = nullptr});
  sim::populate_world(world, s.truth, /*beacons_enabled=*/true);

  const std::vector<geo::Vec2> positions = {
      {40.0, -20.0}, {-60.0, 30.0}, {10.0, 70.0}, {-30.0, -50.0}};
  std::vector<sim::MobileDevice*> devices;
  for (std::size_t i = 0; i < positions.size(); ++i) {
    std::array<std::uint8_t, 6> bytes{0x00, 0x16, 0x6f, 0x00, 0x03,
                                      static_cast<std::uint8_t>(i + 1)};
    sim::MobileConfig mc;
    mc.mac = net80211::MacAddress(bytes);
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
      world.queue().schedule(1.0 + 0.3 * static_cast<double>(i),
                             [dev] { dev->trigger_scan(); });
      world.queue().schedule(3.5 + 0.3 * static_cast<double>(i),
                             [dev] { dev->trigger_scan(); });
    }
    world.run_until(7.0);
  }
  s.pcap_path = *cfg.pcap_path;
  return s;
}

LiveTrackerConfig base_config(const fs::path& wal_dir) {
  LiveTrackerConfig config;
  config.shards = 4;
  config.ring_capacity = 1 << 10;
  config.drop_policy = DropPolicy::kBlock;  // lossless: equality must be exact
  config.durability.dir = wal_dir;
  config.durability.wal.commit_every_records = 4;
  config.durability.wal.fsync_on_commit = false;  // a killed process keeps OS-buffered writes
  config.durability.checkpoint_interval_s = 0.0;  // checkpoints forced by tests
  return config;
}

/// Runs the capture through a durable tracker to completion. The reference
/// every crashed-and-recovered run must match.
void run_uninterrupted(const RecoveryScenario& s, const fault::FaultPlan& plan,
                       LiveTracker& tracker) {
  tracker.start();
  LiveFeedOptions options;
  options.fault_plan = plan;
  const auto fed = feed_pcap(s.pcap_path, tracker, options);
  ASSERT_TRUE(fed.ok()) << fed.error();
  tracker.stop();
}

/// Forks a child that ingests with the same config but SIGKILLs itself when
/// the hook has seen `kill_after` events. Returns after reaping the child.
void crash_mid_ingest(const RecoveryScenario& s, const marauder::ApDatabase& db,
                      const fs::path& wal_dir, const fault::FaultPlan& plan,
                      std::uint64_t kill_after) {
  const pid_t pid = fork();
  ASSERT_GE(pid, 0) << "fork failed";
  if (pid == 0) {
    // Child: no gtest assertions (they would confuse the parent's report) —
    // any outcome other than death by SIGKILL shows up as a wait-status
    // mismatch. SIGKILL is a real crash and runs no exit hooks, so a
    // sanitizer's at-exit report (TSan's leak of the still-running shard
    // threads) cannot turn it into an ordinary exit.
    static std::atomic<std::uint64_t> seen{0};
    LiveTrackerConfig config = base_config(wal_dir);
    config.durability.checkpoint_interval_s = 0.001;  // checkpoint aggressively
    config.ingest_hook = [kill_after](std::size_t, const capture::FrameEvent&) {
      if (seen.fetch_add(1, std::memory_order_relaxed) + 1 == kill_after) {
        kill(getpid(), SIGKILL);  // crash point: mid-event, WAL tail uncommitted
      }
    };
    LiveTracker tracker(db, config);
    tracker.start();
    LiveFeedOptions options;
    options.fault_plan = plan;
    (void)feed_pcap(s.pcap_path, tracker, options);
    tracker.stop();
    _exit(7);  // capture was shorter than kill_after — test bug
  }
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_FALSE(WIFEXITED(status))
      << "child exited with " << WEXITSTATUS(status)
      << " instead of dying at the crash point (7: capture too short)";
  ASSERT_TRUE(WIFSIGNALED(status));
  ASSERT_EQ(WTERMSIG(status), SIGKILL) << "child died of another signal";
}

/// The headline assertion: identical store slices and published positions.
void expect_trackers_equal(LiveTracker& recovered, LiveTracker& reference) {
  ASSERT_EQ(recovered.shard_count(), reference.shard_count());
  for (std::size_t i = 0; i < reference.shard_count(); ++i) {
    SCOPED_TRACE("shard " + std::to_string(i));
    const auto& got = recovered.shard_store(i);
    const auto& want = reference.shard_store(i);
    ASSERT_EQ(got.device_count(), want.device_count());
    for (const auto& mac : want.devices()) {
      SCOPED_TRACE(mac.to_string());
      const capture::DeviceRecord* w = want.device(mac);
      const capture::DeviceRecord* g = got.device(mac);
      ASSERT_NE(g, nullptr);
      EXPECT_TRUE(bits_equal(g->first_seen, w->first_seen));
      EXPECT_TRUE(bits_equal(g->last_seen, w->last_seen));
      EXPECT_EQ(g->probe_requests, w->probe_requests);
      EXPECT_EQ(g->directed_ssids, w->directed_ssids);
      ASSERT_EQ(g->contacts.size(), w->contacts.size());
      for (const auto& [ap, contact] : w->contacts) {
        const auto it = g->contacts.find(ap);
        ASSERT_NE(it, g->contacts.end()) << ap.to_string();
        EXPECT_TRUE(bits_equal(it->second.first_seen, contact.first_seen));
        EXPECT_TRUE(bits_equal(it->second.last_seen, contact.last_seen));
        EXPECT_EQ(it->second.count, contact.count);
        EXPECT_TRUE(bits_equal(it->second.last_rssi_dbm, contact.last_rssi_dbm));
        EXPECT_EQ(it->second.times, contact.times);
      }
    }
    ASSERT_EQ(got.ap_sightings().size(), want.ap_sightings().size());
  }

  auto want_snapshot = reference.snapshot();
  auto got_snapshot = recovered.snapshot();
  ASSERT_EQ(got_snapshot.size(), want_snapshot.size());
  std::sort(want_snapshot.begin(), want_snapshot.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::sort(got_snapshot.begin(), got_snapshot.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  for (std::size_t i = 0; i < want_snapshot.size(); ++i) {
    SCOPED_TRACE(want_snapshot[i].first.to_string());
    EXPECT_EQ(got_snapshot[i].first, want_snapshot[i].first);
    const LivePosition& w = want_snapshot[i].second;
    const LivePosition& g = got_snapshot[i].second;
    EXPECT_TRUE(bits_equal(g.x_m, w.x_m));
    EXPECT_TRUE(bits_equal(g.y_m, w.y_m));
    EXPECT_TRUE(bits_equal(g.updated_at_s, w.updated_at_s));
    EXPECT_EQ(g.gamma_size, w.gamma_size);
    EXPECT_EQ(g.updates, w.updates);
    EXPECT_EQ(g.ok, w.ok);
    EXPECT_EQ(g.used_fallback, w.used_fallback);
    EXPECT_EQ(g.discs_rejected, w.discs_rejected);
  }
}

void crash_recover_compare(const RecoveryScenario& s, const marauder::ApDatabase& db,
                           const fault::FaultPlan& plan, std::uint64_t kill_after,
                           const char* tag, bool tear_wal_tail = false) {
  SCOPED_TRACE(std::string(tag) + " kill_after=" + std::to_string(kill_after));
  const fs::path ref_dir = testing_support::unique_temp_path(std::string(tag) + "_ref");
  const fs::path crash_dir = testing_support::unique_temp_path(std::string(tag) + "_crash");
  fs::remove_all(ref_dir);
  fs::remove_all(crash_dir);
  fs::create_directories(ref_dir);
  fs::create_directories(crash_dir);

  LiveTracker reference(db, base_config(ref_dir));
  run_uninterrupted(s, plan, reference);

  crash_mid_ingest(s, db, crash_dir, plan, kill_after);

  if (tear_wal_tail) {
    // The crash also tore the newest WAL segment of shard 0 mid-record: the
    // torn records fall below the recovered high-water mark, so the re-feed
    // re-applies them and equality still holds.
    const fs::path shard0 = crash_dir / "shard-0";
    const auto segments = durability::list_wal_segments(shard0);
    if (!segments.empty()) {
      std::error_code ec;
      const auto size = fs::file_size(segments.back(), ec);
      if (!ec && size > 5) fs::resize_file(segments.back(), size - 5, ec);
    }
  }

  LiveTracker recovered(db, base_config(crash_dir));
  const auto stats = recovered.recover();
  ASSERT_TRUE(stats.ok()) << stats.error();
  EXPECT_TRUE(stats.value().performed);
  // A deep crash must have left durable state behind (a very early one may
  // die before the first group commit or checkpoint — that is the point of
  // the early offset: recovery of an empty corpse must also be correct).
  if (kill_after >= 50) {
    EXPECT_GT(stats.value().max_applied_seq, 0u);
  }

  // The recovered prefix is real pre-crash state: every restored device must
  // exist in the reference with a bit-identical first sighting.
  for (std::size_t i = 0; i < recovered.shard_count(); ++i) {
    const auto& slice = recovered.shard_store(i);
    for (const auto& mac : slice.devices()) {
      const capture::DeviceRecord* w = reference.shard_store(i).device(mac);
      ASSERT_NE(w, nullptr) << mac.to_string() << " restored but never existed";
      EXPECT_TRUE(bits_equal(slice.device(mac)->first_seen, w->first_seen));
    }
  }

  // Re-feed the whole capture: the cursor skips everything already applied.
  recovered.start();
  LiveFeedOptions options;
  options.fault_plan = plan;
  const auto fed = feed_pcap(s.pcap_path, recovered, options);
  ASSERT_TRUE(fed.ok()) << fed.error();
  recovered.stop();

  const PipelineStats after = recovered.stats();
  std::uint64_t dedup_skipped = 0;
  for (const auto& shard : after.shards) dedup_skipped += shard.dedup_skipped;
  if (kill_after >= 50) {
    EXPECT_GT(dedup_skipped, 0u) << "recovery restored state but nothing deduped";
  }

  expect_trackers_equal(recovered, reference);

  fs::remove_all(ref_dir);
  fs::remove_all(crash_dir);
}

TEST(PipelineRecovery, KillAtRandomOffsetsRecoversBitForBit) {
  const RecoveryScenario s = record_capture("mm_recovery_clean.pcap");
  const auto db = marauder::ApDatabase::from_truth(s.truth, true);
  // "Random" offsets, fixed for reproducibility: early (first commit group
  // not full), mid-stream, and deep (past several checkpoints).
  for (const std::uint64_t kill_after : {3u, 57u, 211u}) {
    crash_recover_compare(s, db, {}, kill_after, "mm_rec_clean");
  }
  fs::remove(s.pcap_path);
}

TEST(PipelineRecovery, CrashUnderAFaultPlanRecoversBitForBit) {
  const RecoveryScenario s = record_capture("mm_recovery_fault.pcap");
  const auto db = marauder::ApDatabase::from_truth(s.truth, true);
  fault::FaultPlan plan;
  plan.corrupt_rate = 0.05;
  plan.drop_rate = 0.02;
  plan.duplicate_rate = 0.02;
  plan.seed = 77;
  // The fault stream is deterministic, so the reference run and the child's
  // partial run damage the same frames and assign the same sequences.
  for (const std::uint64_t kill_after : {23u, 140u}) {
    crash_recover_compare(s, db, plan, kill_after, "mm_rec_fault");
  }
  fs::remove(s.pcap_path);
}

TEST(PipelineRecovery, TornWalTailStillRecoversBitForBit) {
  const RecoveryScenario s = record_capture("mm_recovery_torn.pcap");
  const auto db = marauder::ApDatabase::from_truth(s.truth, true);
  crash_recover_compare(s, db, {}, 90, "mm_rec_torn", /*tear_wal_tail=*/true);
  fs::remove(s.pcap_path);
}

// Contacts can reach a shard out of capture-time order: the feed mux
// interleaves its sites by chunk, not by time. A position's updated_at_s is
// the newest first contact among the device's known APs on the live path
// and in recovery alike, so a recovered shard republishes the stamp of the
// run it recovers.
TEST(PipelineRecovery, OutOfOrderContactsRecoverTheSameStamp) {
  const auto device = net80211::MacAddress::from_u64(0x00166f000401ULL);
  const auto ap1 = net80211::MacAddress::from_u64(0x00166f100001ULL);
  const auto ap2 = net80211::MacAddress::from_u64(0x00166f100002ULL);
  marauder::ApDatabase db;
  db.add({ap1, "one", {0.0, 0.0}, 80.0});
  db.add({ap2, "two", {60.0, 0.0}, 80.0});
  const fs::path dir = testing_support::unique_temp_path("mm_rec_stamp");
  fs::remove_all(dir);
  fs::create_directories(dir);
  LiveTrackerConfig config = base_config(dir);
  config.shards = 1;

  LiveTracker uninterrupted(db, config);
  uninterrupted.start();
  std::uint64_t seq = 0;
  for (const auto& [ap, time_s] : {std::pair{ap1, 10.0}, std::pair{ap2, 5.0}}) {
    capture::FrameEvent event;
    event.kind = capture::FrameEventKind::kContact;
    event.stream_seq = ++seq;
    event.device = device;
    event.ap = ap;
    event.time_s = time_s;
    event.rssi_dbm = -50.0;
    ASSERT_TRUE(uninterrupted.push(event));
  }
  uninterrupted.stop();
  const std::optional<LivePosition> live = uninterrupted.locate(device);
  ASSERT_TRUE(live.has_value());
  EXPECT_TRUE(bits_equal(live->updated_at_s, 10.0));
  EXPECT_EQ(live->updates, 2u);

  LiveTracker recovered(db, config);
  const auto stats = recovered.recover();
  ASSERT_TRUE(stats.ok()) << stats.error();
  EXPECT_EQ(stats.value().positions_republished, 1u);
  expect_trackers_equal(recovered, uninterrupted);
  fs::remove_all(dir);
}

// Two runs of one shard over 60 single-contact devices at -50 dBm: events
// 1-20 end in the seq-20 checkpoint, a recovered run of 21-60 in the seq-60
// one. Small segments and a commit per record, so the stop() checkpoints
// reclaim WAL segments.
struct TwoCheckpointRun {
  static constexpr std::uint64_t kDevices = 60;
  net80211::MacAddress ap = net80211::MacAddress::from_u64(0x00166f200001ULL);
  marauder::ApDatabase db;
  fs::path dir;
  LiveTrackerConfig config;

  explicit TwoCheckpointRun(const char* name) : dir(testing_support::unique_temp_path(name)) {
    db.add({ap, "one", {0.0, 0.0}, 80.0});
    fs::remove_all(dir);
    fs::create_directories(dir);
    config = base_config(dir);
    config.shards = 1;
    config.durability.wal.segment_bytes = 512;
    config.durability.wal.commit_every_records = 1;
  }
  ~TwoCheckpointRun() { fs::remove_all(dir); }

  void feed(LiveTracker& tracker, std::uint64_t first, std::uint64_t last) const {
    tracker.start();
    for (std::uint64_t seq = first; seq <= last; ++seq) {
      capture::FrameEvent event;
      event.kind = capture::FrameEventKind::kContact;
      event.stream_seq = seq;
      event.device = net80211::MacAddress::from_u64(0x00166f300000ULL + seq);
      event.ap = ap;
      event.time_s = static_cast<double>(seq);
      event.rssi_dbm = -50.0;
      ASSERT_TRUE(tracker.push(event));
    }
    tracker.stop();
  }

  void run() const {
    LiveTracker first(db, config);
    ASSERT_NO_FATAL_FAILURE(feed(first, 1, 20));
    LiveTracker second(db, config);
    const auto recovered = second.recover();
    ASSERT_TRUE(recovered.ok()) << recovered.error();
    ASSERT_NO_FATAL_FAILURE(feed(second, 21, kDevices));
  }

  /// The shard's checkpoint file at applied sequence `seq`.
  [[nodiscard]] fs::path checkpoint(std::uint64_t seq) const {
    const std::string digits = std::to_string(seq);
    return dir / "shard-0" /
           ("ckpt-" + std::string(20 - digits.size(), '0') + digits + ".ckpt");
  }
};

std::string read_text(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void write_text(const fs::path& path, const std::string& text) {
  std::ofstream(path, std::ios::binary | std::ios::trunc) << text;
}

void flip_middle_byte(const fs::path& path) {
  std::string text = read_text(path);
  ASSERT_FALSE(text.empty()) << path;
  text[text.size() / 2] ^= 0x01;
  write_text(path, text);
}

// Recovery falls back to the older checkpoint kept when the newest is
// damaged, so the WAL must still hold every record after the older one:
// checkpoints reclaim segments only up to it.
TEST(PipelineRecovery, DamagedNewestCheckpointFallsBackWithoutLosingWalRecords) {
  TwoCheckpointRun run("mm_rec_fallback");
  ASSERT_NO_FATAL_FAILURE(run.run());
  ASSERT_NO_FATAL_FAILURE(flip_middle_byte(run.checkpoint(60)));

  LiveTracker recovered(run.db, run.config);
  const auto stats = recovered.recover();
  ASSERT_TRUE(stats.ok()) << stats.error();
  EXPECT_EQ(stats.value().checkpoints_damaged, 1u);
  EXPECT_EQ(stats.value().checkpoints_loaded, 1u);
  EXPECT_EQ(stats.value().wal_records_replayed, 40u);
  EXPECT_EQ(stats.value().max_applied_seq, TwoCheckpointRun::kDevices);
  EXPECT_EQ(recovered.shard_store(0).device_count(), TwoCheckpointRun::kDevices);

  // The damaged file was set aside, so the next checkpoint (seq 100) keeps
  // the seq-20 one as its fallback, and the WAL after it: a damaged newest
  // checkpoint again loses nothing.
  ASSERT_NO_FATAL_FAILURE(run.feed(recovered, TwoCheckpointRun::kDevices + 1, 100));
  EXPECT_EQ(durability::list_checkpoints(run.dir / "shard-0"),
            (std::vector<fs::path>{run.checkpoint(20), run.checkpoint(100)}));
  ASSERT_NO_FATAL_FAILURE(flip_middle_byte(run.checkpoint(100)));
  LiveTracker again(run.db, run.config);
  const auto second = again.recover();
  ASSERT_TRUE(second.ok()) << second.error();
  EXPECT_EQ(second.value().checkpoints_damaged, 1u);
  EXPECT_EQ(second.value().wal_records_replayed, 80u);
  EXPECT_EQ(second.value().max_applied_seq, 100u);
  EXPECT_EQ(again.shard_store(0).device_count(), 100u);
}

// A checkpoint is checked whole: one changed digit in a store row (a
// contact's last RSSI, -50 -> -59) refuses the file, and the older
// checkpoint plus the WAL restore the true value.
TEST(PipelineRecovery, OneByteBodyChangeRefusesTheCheckpoint) {
  TwoCheckpointRun run("mm_rec_body");
  ASSERT_NO_FATAL_FAILURE(run.run());
  const fs::path newest = run.checkpoint(60);
  std::string text = read_text(newest);
  const std::size_t contact = text.find("\ncontact,");
  ASSERT_NE(contact, std::string::npos);
  const std::size_t rssi = text.find(",-50,", contact);
  ASSERT_NE(rssi, std::string::npos);
  text[rssi + 3] = '9';
  write_text(newest, text);

  LiveTracker recovered(run.db, run.config);
  const auto stats = recovered.recover();
  ASSERT_TRUE(stats.ok()) << stats.error();
  EXPECT_EQ(stats.value().checkpoints_damaged, 1u);
  const capture::ObservationStore& store = recovered.shard_store(0);
  EXPECT_EQ(store.device_count(), TwoCheckpointRun::kDevices);
  for (const auto& mac : store.devices()) {
    for (const auto& [ap, contact] : store.device(mac)->contacts) {
      EXPECT_TRUE(bits_equal(contact.last_rssi_dbm, -50.0)) << mac.to_string();
    }
  }
}

// SSIDs are raw over-the-air bytes, so one probe or beacon can carry a
// line break. The stop() checkpoint must hold it: the shard then recovers
// from that checkpoint instead of refusing it as damaged.
TEST(PipelineRecovery, RawSsidBytesSurviveTheCheckpoint) {
  TwoCheckpointRun run("mm_rec_ssid");
  const auto device = net80211::MacAddress::from_u64(0x00166f300001ULL);
  const std::string directed("home\nnet|5%\r\0", 13);
  const std::string advertised = "cafe\r\n\"free\",wifi";
  {
    LiveTracker tracker(run.db, run.config);
    tracker.start();
    capture::FrameEvent probe;
    probe.kind = capture::FrameEventKind::kProbeRequest;
    probe.stream_seq = 1;
    probe.device = device;
    probe.time_s = 1.0;
    probe.set_ssid(directed);
    ASSERT_TRUE(tracker.push(probe));
    capture::FrameEvent beacon;
    beacon.kind = capture::FrameEventKind::kBeacon;
    beacon.stream_seq = 2;
    beacon.ap = run.ap;
    beacon.time_s = 2.0;
    beacon.rssi_dbm = -60.0;
    beacon.channel = 6;
    beacon.set_ssid(advertised);
    ASSERT_TRUE(tracker.push(beacon));
    tracker.stop();
  }

  LiveTracker recovered(run.db, run.config);
  const auto stats = recovered.recover();
  ASSERT_TRUE(stats.ok()) << stats.error();
  EXPECT_EQ(stats.value().checkpoints_loaded, 1u);
  EXPECT_EQ(stats.value().checkpoints_damaged, 0u);
  EXPECT_EQ(stats.value().wal_records_replayed, 0u);
  const capture::ObservationStore& store = recovered.shard_store(0);
  ASSERT_NE(store.device(device), nullptr);
  EXPECT_EQ(store.device(device)->directed_ssids, std::vector<std::string>{directed});
  ASSERT_NE(store.sighting(run.ap), nullptr);
  EXPECT_EQ(store.sighting(run.ap)->ssid, advertised);
}

TEST(PipelineRecovery, ColdDirectoryIsNotAnError) {
  const RecoveryScenario s = record_capture("mm_recovery_cold.pcap");
  const auto db = marauder::ApDatabase::from_truth(s.truth, true);
  const fs::path dir = testing_support::unique_temp_path("mm_rec_cold");
  fs::remove_all(dir);
  fs::create_directories(dir);
  LiveTracker tracker(db, base_config(dir));
  const auto stats = tracker.recover();
  ASSERT_TRUE(stats.ok()) << stats.error();
  EXPECT_EQ(stats.value().checkpoints_loaded, 0u);
  EXPECT_EQ(stats.value().max_applied_seq, 0u);
  // And the engine still runs normally afterwards.
  tracker.start();
  const auto fed = feed_pcap(s.pcap_path, tracker);
  ASSERT_TRUE(fed.ok()) << fed.error();
  tracker.stop();
  EXPECT_GT(tracker.stats().total_frames, 0u);
  fs::remove_all(dir);
  fs::remove(s.pcap_path);
}

}  // namespace
}  // namespace mm::pipeline
