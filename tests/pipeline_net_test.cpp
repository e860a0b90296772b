// Lattice end-to-end: remote sniffer streams through the SnifferFeedMux
// into Riptide, pinned against the direct in-process push path.
//
// The acceptance contract (ISSUE: loss-sweep invariant): when the fabric
// loses at most one data frame per parity block, the reassembled stream —
// and therefore every published position — is BIT-identical to the lossless
// run; beyond parity's reach the mux counts unrecoverable gaps and keeps
// flowing, never throws. Re-pumping the same recorded streams into a
// recovered tracker reproduces the same global sequences, so Phoenix's
// exactly-once dedup suppresses every replayed event.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <filesystem>
#include <vector>

#include "fault/fault_plan.h"
#include "marauder/ap_database.h"
#include "net/fec.h"
#include "net/link_sim.h"
#include "net/wire_codec.h"
#include "pipeline/feed_mux.h"
#include "pipeline/live_tracker.h"
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

struct Fixture {
  std::vector<sim::ApTruth> truth;
  marauder::ApDatabase db;
  std::vector<capture::FrameEvent> events;

  static Fixture make(std::size_t event_count) {
    sim::CampusConfig campus;
    campus.seed = 1337;
    campus.num_aps = 60;
    Fixture f{sim::generate_campus_aps(campus), marauder::ApDatabase(), {}};
    f.db = marauder::ApDatabase::from_truth(f.truth, true);
    for (std::size_t i = 0; i < event_count; ++i) {
      capture::FrameEvent ev;
      ev.kind = capture::FrameEventKind::kContact;
      const std::size_t d = i % 5;
      ev.device = net80211::MacAddress::from_u64(0x0016f0000100ULL + d);
      ev.ap = f.truth[(d * 7 + (i / 5) % 9) % f.truth.size()].bssid;
      ev.time_s = static_cast<double>(i) * 0.01;
      ev.rssi_dbm = -55.0 - static_cast<double>(i % 25);
      f.events.push_back(ev);
    }
    return f;
  }
};

using Snapshot = std::vector<std::pair<net80211::MacAddress, LivePosition>>;

Snapshot sorted_snapshot(LiveTracker& tracker) {
  auto snap = tracker.snapshot();
  std::sort(snap.begin(), snap.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return snap;
}

void expect_snapshots_equal(const Snapshot& a, const Snapshot& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].first, b[i].first);
    EXPECT_TRUE(bits_equal(a[i].second.x_m, b[i].second.x_m))
        << a[i].first.to_string();
    EXPECT_TRUE(bits_equal(a[i].second.y_m, b[i].second.y_m))
        << a[i].first.to_string();
    EXPECT_TRUE(bits_equal(a[i].second.updated_at_s, b[i].second.updated_at_s))
        << a[i].first.to_string();
    EXPECT_EQ(a[i].second.gamma_size, b[i].second.gamma_size);
    EXPECT_EQ(a[i].second.updates, b[i].second.updates);
    EXPECT_EQ(a[i].second.used_fallback, b[i].second.used_fallback);
  }
}

LiveTrackerConfig lossless_config(std::size_t shards = 2) {
  LiveTrackerConfig config;
  config.shards = shards;
  config.drop_policy = DropPolicy::kBlock;
  return config;
}

/// The oracle: push the events straight into the tracker, in order.
Snapshot run_direct(const Fixture& f) {
  LiveTracker tracker(f.db, lossless_config());
  tracker.start();
  std::uint64_t seq = 0;
  for (capture::FrameEvent ev : f.events) {
    ev.stream_seq = ++seq;
    tracker.push(ev);
  }
  tracker.stop();
  return sorted_snapshot(tracker);
}

std::vector<std::uint8_t> encode(const std::vector<capture::FrameEvent>& events,
                                 std::size_t block_k, std::uint32_t stream_id = 1) {
  net::FecEncoder encoder(stream_id, block_k);
  std::vector<std::uint8_t> wire;
  std::uint64_t seq = 0;
  for (const capture::FrameEvent& ev : events) encoder.push(++seq, ev, wire);
  encoder.flush(wire);
  return wire;
}

std::vector<std::vector<std::uint8_t>> split_frames(const std::vector<std::uint8_t>& wire) {
  std::vector<std::vector<std::uint8_t>> frames;
  std::size_t off = 0;
  while (off + net::kWireHeaderBytes <= wire.size()) {
    const std::size_t len = static_cast<std::size_t>(wire[off + 18]) |
                            (static_cast<std::size_t>(wire[off + 19]) << 8);
    const std::size_t frame_len = net::kWireHeaderBytes + len;
    frames.emplace_back(wire.begin() + static_cast<std::ptrdiff_t>(off),
                        wire.begin() + static_cast<std::ptrdiff_t>(off + frame_len));
    off += frame_len;
  }
  return frames;
}

void pump(SnifferFeedMux& mux, std::size_t feed, const std::vector<std::uint8_t>& bytes,
          std::size_t chunk = 1000) {
  for (std::size_t off = 0; off < bytes.size(); off += chunk) {
    mux.on_bytes(feed, {bytes.data() + off, std::min(chunk, bytes.size() - off)});
  }
}

TEST(PipelineNet, LosslessFeedBitIdenticalToDirectPush) {
  const Fixture f = Fixture::make(2000);
  const Snapshot direct = run_direct(f);
  ASSERT_FALSE(direct.empty());

  LiveTracker tracker(f.db, lossless_config());
  tracker.start();
  SnifferFeedMux mux(tracker);
  const std::size_t feed = mux.add_feed(1);
  pump(mux, feed, encode(f.events, 8));
  mux.finish();
  tracker.stop();

  const FeedMuxStats stats = mux.stats();
  EXPECT_EQ(stats.events_delivered, f.events.size());
  EXPECT_EQ(stats.last_stream_seq, f.events.size());
  ASSERT_EQ(stats.feeds.size(), 1u);
  EXPECT_FALSE(stats.feeds[0].degraded());
  EXPECT_EQ(stats.feeds[0].fec.unrecoverable_gaps, 0u);
  expect_snapshots_equal(sorted_snapshot(tracker), direct);
}

TEST(PipelineNet, SingleLossPerBlockRecoversBitIdentical) {
  const Fixture f = Fixture::make(2000);
  const Snapshot direct = run_direct(f);

  constexpr std::size_t kBlock = 8;
  const auto frames = split_frames(encode(f.events, kBlock));
  // Drop the third data frame of every block: exactly one loss per block,
  // all of it inside parity's reach.
  std::vector<std::uint8_t> damaged;
  std::size_t data_index = 0;
  std::size_t dropped = 0;
  for (const auto& frame : frames) {
    const bool is_data = frame[3] == 0;
    if (is_data && data_index++ % kBlock == 2) {
      ++dropped;
      continue;
    }
    damaged.insert(damaged.end(), frame.begin(), frame.end());
  }
  ASSERT_GT(dropped, 0u);

  LiveTracker tracker(f.db, lossless_config());
  tracker.start();
  SnifferFeedMux mux(tracker);
  pump(mux, mux.add_feed(1), damaged);
  mux.finish();
  tracker.stop();

  const FeedMuxStats stats = mux.stats();
  EXPECT_EQ(stats.feeds[0].fec.recovered, dropped);
  EXPECT_EQ(stats.feeds[0].fec.unrecoverable_gaps, 0u);
  EXPECT_EQ(stats.events_delivered, f.events.size());
  expect_snapshots_equal(sorted_snapshot(tracker), direct);
}

TEST(PipelineNet, HeavyLossCountsGapsAndKeepsFlowing) {
  const Fixture f = Fixture::make(3000);
  fault::FaultPlan plan;
  plan.drop_rate = 0.2;
  plan.corrupt_rate = 0.05;
  plan.burst_rate = 0.005;
  plan.burst_frames_mean = 12.0;
  plan.reorder_rate = 0.05;
  plan.seed = 0xBAD;

  net::LinkSimulator link(plan);
  for (const auto& frame : split_frames(encode(f.events, 8))) link.send(frame);
  link.flush();
  const std::vector<std::uint8_t> damaged = link.take();

  LiveTracker tracker(f.db, lossless_config());
  tracker.start();
  SnifferFeedMux mux(tracker);
  pump(mux, mux.add_feed(1), damaged);
  mux.finish();  // must not throw, must not wedge
  tracker.stop();

  const FeedMuxStats stats = mux.stats();
  ASSERT_EQ(stats.feeds.size(), 1u);
  EXPECT_TRUE(stats.feeds[0].degraded());
  EXPECT_GT(stats.feeds[0].fec.unrecoverable_gaps, 0u);
  EXPECT_GT(stats.feeds[0].fec.recovered, 0u);
  EXPECT_GT(stats.events_delivered, 0u);
  EXPECT_LT(stats.events_delivered, f.events.size());
  // Gap accounting closes the books: every sent sequence was either
  // delivered or given up on.
  EXPECT_EQ(stats.events_delivered + stats.feeds[0].fec.unrecoverable_gaps,
            f.events.size());
}

TEST(PipelineNet, TwoFeedsMatchDirectPushOfTheUnion) {
  const Fixture f = Fixture::make(2000);
  const Snapshot direct = run_direct(f);

  // Split by device: per-device order is preserved inside each stream, which
  // is all the per-key state machines depend on.
  std::vector<capture::FrameEvent> a_events;
  std::vector<capture::FrameEvent> b_events;
  for (std::size_t i = 0; i < f.events.size(); ++i) {
    (i % 5 < 3 ? a_events : b_events).push_back(f.events[i]);
  }
  const std::vector<std::uint8_t> a_wire = encode(a_events, 8, 1);
  const std::vector<std::uint8_t> b_wire = encode(b_events, 8, 2);

  LiveTracker tracker(f.db, lossless_config());
  tracker.start();
  SnifferFeedMux mux(tracker);
  const std::size_t fa = mux.add_feed(1);
  const std::size_t fb = mux.add_feed(2);
  // Interleave chunks the way a poll loop over two sockets would.
  std::size_t oa = 0;
  std::size_t ob = 0;
  constexpr std::size_t kChunk = 512;
  while (oa < a_wire.size() || ob < b_wire.size()) {
    if (oa < a_wire.size()) {
      const std::size_t n = std::min(kChunk, a_wire.size() - oa);
      mux.on_bytes(fa, {a_wire.data() + oa, n});
      oa += n;
    }
    if (ob < b_wire.size()) {
      const std::size_t n = std::min(kChunk, b_wire.size() - ob);
      mux.on_bytes(fb, {b_wire.data() + ob, n});
      ob += n;
    }
  }
  mux.finish();
  tracker.stop();

  const FeedMuxStats stats = mux.stats();
  EXPECT_EQ(stats.events_delivered, f.events.size());
  expect_snapshots_equal(sorted_snapshot(tracker), direct);
}

TEST(PipelineNet, ForeignStreamIdIsCountedAndIgnored) {
  const Fixture f = Fixture::make(200);
  LiveTracker tracker(f.db, lossless_config());
  tracker.start();
  SnifferFeedMux mux(tracker);
  const std::size_t feed = mux.add_feed(1);
  pump(mux, feed, encode(f.events, 8, /*stream_id=*/9));
  mux.finish();
  tracker.stop();

  const FeedMuxStats stats = mux.stats();
  EXPECT_EQ(stats.events_delivered, 0u);
  EXPECT_GT(stats.feeds[0].stream_mismatches, 0u);
}

TEST(PipelineNet, WalRefeedAfterRecoveryDedupsEverything) {
  const Fixture f = Fixture::make(1500);
  const std::vector<std::uint8_t> wire = encode(f.events, 8);
  const std::filesystem::path wal_dir = testing_support::unique_temp_path("mm_net_refeed_wal");
  std::filesystem::remove_all(wal_dir);

  LiveTrackerConfig config = lossless_config();
  config.durability.dir = wal_dir;
  config.durability.wal.fsync_on_commit = false;

  Snapshot first;
  {
    LiveTracker tracker(f.db, config);
    tracker.start();
    SnifferFeedMux mux(tracker);
    pump(mux, mux.add_feed(1), wire);
    mux.finish();
    tracker.stop();
    first = sorted_snapshot(tracker);
    EXPECT_GT(tracker.stats().total_wal_records, 0u);
  }

  // Crash-restart story: recover the state, then re-pump the same recorded
  // stream. The mux reassigns the same global sequences (release order is a
  // pure function of the chunks), so Phoenix's high-water cursor skips every
  // event — exactly-once end to end.
  LiveTracker tracker(f.db, config);
  const auto recovered = tracker.recover();
  ASSERT_TRUE(recovered.ok()) << recovered.error();
  EXPECT_GT(recovered.value().devices_restored, 0u);
  tracker.start();
  SnifferFeedMux mux(tracker);
  pump(mux, mux.add_feed(1), wire);
  mux.finish();
  tracker.stop();

  EXPECT_EQ(mux.stats().events_delivered, f.events.size());
  std::uint64_t dedup_skipped = 0;
  for (const auto& s : tracker.stats().shards) dedup_skipped += s.dedup_skipped;
  EXPECT_EQ(dedup_skipped, f.events.size());
  expect_snapshots_equal(sorted_snapshot(tracker), first);
  std::filesystem::remove_all(wal_dir);
}

}  // namespace
}  // namespace mm::pipeline
