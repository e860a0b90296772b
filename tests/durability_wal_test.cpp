// Phoenix WAL + checkpoint units: the record codec round-trips bit-exactly,
// the writer group-commits and rotates, torn tails truncate at the first bad
// frame (and only there), reclaim only deletes provably-covered segments, and
// checkpoint loading falls back over damaged snapshots.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "capture/frame_event.h"
#include "capture/observation_store.h"
#include "durability/checkpoint.h"
#include "durability/crc32c.h"
#include "durability/wal.h"
#include "fault/fault_injector.h"
#include "unique_temp_path.h"

namespace mm::durability {
namespace {

namespace fs = std::filesystem;

fs::path fresh_dir(const char* name) {
  const fs::path dir = testing_support::unique_temp_path(name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

capture::FrameEvent make_event(std::uint64_t i) {
  capture::FrameEvent event;
  event.kind = static_cast<capture::FrameEventKind>(i % 4);
  event.device = net80211::MacAddress::from_u64(0x001600000000u + i);
  event.ap = net80211::MacAddress::from_u64(0x001a2b000000u + i * 7);
  event.time_s = 1.5 + 0.001 * static_cast<double>(i);
  event.rssi_dbm = -40.0 - static_cast<double>(i % 50);
  event.channel = static_cast<std::int16_t>(1 + i % 11);
  if (i % 3 == 0) event.set_ssid("net-" + std::to_string(i));
  return event;
}

void expect_events_equal(const capture::FrameEvent& a, const capture::FrameEvent& b) {
  EXPECT_EQ(a.kind, b.kind);
  EXPECT_EQ(a.device, b.device);
  EXPECT_EQ(a.ap, b.ap);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.time_s), std::bit_cast<std::uint64_t>(b.time_s));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.rssi_dbm),
            std::bit_cast<std::uint64_t>(b.rssi_dbm));
  EXPECT_EQ(a.channel, b.channel);
  EXPECT_EQ(a.ssid_opt(), b.ssid_opt());
}

std::vector<std::uint8_t> read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void write_file(const fs::path& path, const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

TEST(WalCodec, PayloadRoundTripsBitExactly) {
  for (std::uint64_t i = 0; i < 64; ++i) {
    WalRecord record{.seq = i + 1, .event = make_event(i)};
    std::uint8_t buf[kWalPayloadBytes];
    encode_wal_payload(record, buf);
    WalRecord decoded;
    ASSERT_TRUE(decode_wal_payload({buf, kWalPayloadBytes}, decoded));
    EXPECT_EQ(decoded.seq, record.seq);
    EXPECT_EQ(decoded.event.stream_seq, record.seq);  // decoder re-stamps the cursor
    expect_events_equal(decoded.event, record.event);
  }
}

TEST(WalCodec, DecodeRejectsMalformedPayloads) {
  WalRecord record{.seq = 7, .event = make_event(1)};
  std::uint8_t buf[kWalPayloadBytes];
  encode_wal_payload(record, buf);
  WalRecord out;
  EXPECT_FALSE(decode_wal_payload({buf, kWalPayloadBytes - 1}, out));  // short
  std::uint8_t bad_kind[kWalPayloadBytes];
  std::memcpy(bad_kind, buf, sizeof(buf));
  bad_kind[8] = 0x7f;  // kind beyond kBeacon
  EXPECT_FALSE(decode_wal_payload({bad_kind, kWalPayloadBytes}, out));
  std::uint8_t bad_ssid[kWalPayloadBytes];
  std::memcpy(bad_ssid, buf, sizeof(buf));
  bad_ssid[44] = 33;  // ssid_len beyond the 802.11 maximum
  EXPECT_FALSE(decode_wal_payload({bad_ssid, kWalPayloadBytes}, out));
}

TEST(WalWriter, RoundTripsThroughSegmentFiles) {
  const fs::path dir = fresh_dir("mm_wal_roundtrip");
  constexpr std::uint64_t kRecords = 100;
  {
    WalWriterOptions options;
    options.commit_every_records = 8;
    options.fsync_on_commit = false;
    WalWriter writer(dir, /*shard=*/3, options);
    for (std::uint64_t i = 0; i < kRecords; ++i) {
      ASSERT_TRUE(writer.append({.seq = i + 1, .event = make_event(i)}).ok());
    }
    ASSERT_TRUE(writer.seal().ok());
    EXPECT_EQ(writer.stats().records, kRecords);
    EXPECT_EQ(writer.stats().last_committed_seq, kRecords);
    EXPECT_GE(writer.stats().commits, kRecords / 8);
  }

  std::vector<WalRecord> replayed;
  const auto stats = replay_wal(dir, /*from_seq=*/0,
                                [&](const WalRecord& r) { replayed.push_back(r); });
  ASSERT_TRUE(stats.ok()) << stats.error();
  EXPECT_EQ(stats.value().records_replayed, kRecords);
  EXPECT_EQ(stats.value().torn_tails, 0u);
  EXPECT_EQ(stats.value().max_seq, kRecords);
  ASSERT_EQ(replayed.size(), kRecords);
  for (std::uint64_t i = 0; i < kRecords; ++i) {
    EXPECT_EQ(replayed[i].seq, i + 1);  // ascending, gap-free
    expect_events_equal(replayed[i].event, make_event(i));
  }
}

TEST(WalWriter, GroupCommitBuffersUntilCadence) {
  const fs::path dir = fresh_dir("mm_wal_group");
  WalWriterOptions options;
  options.commit_every_records = 64;
  options.fsync_on_commit = false;
  WalWriter writer(dir, 0, options);
  for (std::uint64_t i = 0; i < 10; ++i) {
    ASSERT_TRUE(writer.append({.seq = i + 1, .event = make_event(i)}).ok());
  }
  // Nothing committed yet: a crash here loses exactly this buffered group.
  EXPECT_EQ(writer.stats().commits, 0u);
  EXPECT_EQ(writer.buffered_records(), 10u);
  const auto segments = list_wal_segments(dir);
  ASSERT_EQ(segments.size(), 1u);
  const auto before = read_wal_segment(segments[0]);
  ASSERT_TRUE(before.ok());
  EXPECT_TRUE(before.value().records.empty());

  ASSERT_TRUE(writer.commit().ok());
  EXPECT_EQ(writer.buffered_records(), 0u);
  const auto after = read_wal_segment(segments[0]);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after.value().records.size(), 10u);
}

TEST(WalWriter, RotatesSegmentsNamedByFirstSequence) {
  const fs::path dir = fresh_dir("mm_wal_rotate");
  WalWriterOptions options;
  options.segment_bytes = 512;  // a handful of records per segment
  options.commit_every_records = 4;
  options.fsync_on_commit = false;
  WalWriter writer(dir, 0, options);
  constexpr std::uint64_t kRecords = 60;
  for (std::uint64_t i = 0; i < kRecords; ++i) {
    ASSERT_TRUE(writer.append({.seq = i + 1, .event = make_event(i)}).ok());
  }
  ASSERT_TRUE(writer.seal().ok());
  EXPECT_GT(writer.stats().segments_opened, 2u);

  const auto segments = list_wal_segments(dir);
  ASSERT_EQ(segments.size(), writer.stats().segments_opened);
  std::uint64_t expect_next = 1;
  for (const auto& path : segments) {
    const auto seg = read_wal_segment(path);
    ASSERT_TRUE(seg.ok()) << seg.error();
    ASSERT_TRUE(seg.value().header_ok);
    EXPECT_FALSE(seg.value().torn);
    ASSERT_FALSE(seg.value().records.empty());
    // The file name advertises exactly the first sequence inside.
    EXPECT_EQ(seg.value().first_seq, seg.value().records.front().seq);
    EXPECT_EQ(seg.value().records.front().seq, expect_next);
    expect_next = seg.value().records.back().seq + 1;
  }
  EXPECT_EQ(expect_next, kRecords + 1);
}

TEST(WalWriter, InjectedTornWriteKillsTheWriterAndLeavesADecodableTail) {
  const fs::path dir = fresh_dir("mm_wal_torn_inject");
  fault::FaultPlan plan;
  plan.torn_write_rate = 1.0;  // first commit tears
  plan.seed = 11;
  fault::FaultInjector injector(plan);
  WalWriterOptions options;
  options.commit_every_records = 8;
  options.injector = &injector;
  WalWriter writer(dir, 0, options);
  bool failed = false;
  for (std::uint64_t i = 0; i < 32 && !failed; ++i) {
    const auto appended = writer.append({.seq = i + 1, .event = make_event(i)});
    failed = !appended.ok();
  }
  EXPECT_TRUE(failed);
  EXPECT_TRUE(writer.failed());
  EXPECT_GE(writer.stats().append_failures, 1u);
  // Whatever the tear left on disk replays as a clean prefix, never an error.
  std::uint64_t last = 0;
  const auto stats =
      replay_wal(dir, 0, [&](const WalRecord& r) { EXPECT_EQ(r.seq, ++last); });
  ASSERT_TRUE(stats.ok()) << stats.error();
  EXPECT_LE(stats.value().records_replayed, 8u);
}

TEST(WalReader, TornTailTruncatesAtFirstBadFrameOnly) {
  const fs::path dir = fresh_dir("mm_wal_torn_tail");
  constexpr std::uint64_t kRecords = 20;
  {
    WalWriterOptions options;
    options.commit_every_records = 1;
    options.fsync_on_commit = false;
    WalWriter writer(dir, 0, options);
    for (std::uint64_t i = 0; i < kRecords; ++i) {
      ASSERT_TRUE(writer.append({.seq = i + 1, .event = make_event(i)}).ok());
    }
    ASSERT_TRUE(writer.seal().ok());
  }
  const auto segments = list_wal_segments(dir);
  ASSERT_EQ(segments.size(), 1u);
  auto bytes = read_file(segments[0]);
  // Flip one payload byte in the middle: every record before it must
  // survive, everything from it on is the torn tail.
  const std::size_t header = 28;
  const std::size_t frame = 8 + kWalPayloadBytes;
  const std::size_t victim = 12;  // 0-based record index
  bytes[header + victim * frame + 8 + 40] ^= 0x40;
  write_file(segments[0], bytes);

  const auto seg = read_wal_segment(segments[0]);
  ASSERT_TRUE(seg.ok());
  EXPECT_TRUE(seg.value().header_ok);
  EXPECT_TRUE(seg.value().torn);
  ASSERT_EQ(seg.value().records.size(), victim);
  EXPECT_EQ(seg.value().records.back().seq, victim);
  EXPECT_EQ(seg.value().discarded_bytes, (kRecords - victim) * frame);
  EXPECT_GE(seg.value().discarded_records, 1u);

  const auto stats = replay_wal(dir, 0, [](const WalRecord&) {});
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().records_replayed, victim);
  EXPECT_EQ(stats.value().torn_tails, 1u);
}

TEST(WalReader, MidLogTornSegmentAbandonsEverythingAfterIt) {
  const fs::path dir = fresh_dir("mm_wal_midlog");
  {
    WalWriterOptions options;
    options.segment_bytes = 512;
    options.commit_every_records = 1;
    options.fsync_on_commit = false;
    WalWriter writer(dir, 0, options);
    for (std::uint64_t i = 0; i < 40; ++i) {
      ASSERT_TRUE(writer.append({.seq = i + 1, .event = make_event(i)}).ok());
    }
    ASSERT_TRUE(writer.seal().ok());
  }
  auto segments = list_wal_segments(dir);
  ASSERT_GE(segments.size(), 3u);
  // Chop the middle segment: replaying past the hole would apply records out
  // of order, so replay must stop there and count the rest as abandoned.
  auto bytes = read_file(segments[1]);
  bytes.resize(bytes.size() - 10);
  write_file(segments[1], bytes);

  std::uint64_t last = 0;
  const auto stats =
      replay_wal(dir, 0, [&](const WalRecord& r) { EXPECT_EQ(r.seq, ++last); });
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().torn_tails, 1u);
  EXPECT_EQ(stats.value().segments_abandoned, segments.size() - 2);
  const auto first_abandoned = read_wal_segment(segments[2]);
  ASSERT_TRUE(first_abandoned.ok());
  EXPECT_LT(last, first_abandoned.value().first_seq);
}

TEST(WalReclaim, DeletesOnlyProvablyCoveredSegments) {
  const fs::path dir = fresh_dir("mm_wal_reclaim");
  {
    WalWriterOptions options;
    options.segment_bytes = 512;
    options.commit_every_records = 1;
    options.fsync_on_commit = false;
    WalWriter writer(dir, 0, options);
    for (std::uint64_t i = 0; i < 40; ++i) {
      ASSERT_TRUE(writer.append({.seq = i + 1, .event = make_event(i)}).ok());
    }
    ASSERT_TRUE(writer.seal().ok());
  }
  const auto before = list_wal_segments(dir);
  ASSERT_GE(before.size(), 3u);
  const auto second = read_wal_segment(before[1]);
  ASSERT_TRUE(second.ok());

  // applied_seq below the second segment's start proves nothing: segment 0
  // may still hold needed records.
  EXPECT_EQ(reclaim_wal_segments(dir, second.value().first_seq - 2), 0u);
  // applied_seq at (first_seq - 1) of segment 1 proves segment 0 is covered.
  EXPECT_EQ(reclaim_wal_segments(dir, second.value().first_seq - 1), 1u);
  EXPECT_EQ(list_wal_segments(dir).size(), before.size() - 1);
  // Even an absurdly high mark never deletes the newest segment.
  reclaim_wal_segments(dir, 1'000'000);
  const auto after = list_wal_segments(dir);
  ASSERT_EQ(after.size(), 1u);
  EXPECT_EQ(after[0], before.back());
}

capture::ObservationStore make_store(std::uint64_t events) {
  capture::ObservationStore store;
  for (std::uint64_t i = 0; i < events; ++i) {
    capture::FrameEvent event = make_event(i);
    event.kind = capture::FrameEventKind::kContact;
    apply_event(event, store);
  }
  return store;
}

TEST(Checkpoint, WriteLoadRoundTripsMetaAndStore) {
  const fs::path dir = fresh_dir("mm_ckpt_roundtrip");
  const capture::ObservationStore store = make_store(30);
  CheckpointMeta meta;
  meta.shard = 2;
  meta.shard_count = 4;
  meta.applied_seq = 30;
  meta.frames = 30;
  meta.contacts = 30;
  meta.publishes = 12;
  ASSERT_TRUE(write_checkpoint(dir, meta, store).ok());

  const auto loaded = load_latest_checkpoint(dir);
  ASSERT_TRUE(loaded.ok()) << loaded.error();
  ASSERT_TRUE(loaded.value().has_value());
  const LoadedCheckpoint& ck = *loaded.value();
  EXPECT_EQ(ck.meta.shard, meta.shard);
  EXPECT_EQ(ck.meta.shard_count, meta.shard_count);
  EXPECT_EQ(ck.meta.applied_seq, meta.applied_seq);
  EXPECT_EQ(ck.meta.frames, meta.frames);
  EXPECT_EQ(ck.meta.contacts, meta.contacts);
  EXPECT_EQ(ck.meta.publishes, meta.publishes);
  EXPECT_EQ(ck.damaged_skipped, 0u);
  EXPECT_EQ(ck.store.device_count(), store.device_count());
  for (const auto& mac : store.devices()) {
    const auto* want = store.device(mac);
    const auto* got = ck.store.device(mac);
    ASSERT_NE(got, nullptr) << mac.to_string();
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got->first_seen),
              std::bit_cast<std::uint64_t>(want->first_seen));
    EXPECT_EQ(got->contacts.size(), want->contacts.size());
  }
}

TEST(Checkpoint, FallsBackOverADamagedNewerCheckpoint) {
  const fs::path dir = fresh_dir("mm_ckpt_fallback");
  CheckpointMeta older;
  older.applied_seq = 10;
  older.frames = 10;
  ASSERT_TRUE(write_checkpoint(dir, older, make_store(10)).ok());
  CheckpointMeta newer;
  newer.applied_seq = 20;
  newer.frames = 20;
  ASSERT_TRUE(write_checkpoint(dir, newer, make_store(20)).ok());

  auto metas = list_checkpoints(dir);
  ASSERT_EQ(metas.size(), 2u);
  auto bytes = read_file(metas.back());  // newest
  bytes[bytes.size() / 2] ^= 0x01;       // CRC now fails
  write_file(metas.back(), bytes);

  const auto loaded = load_latest_checkpoint(dir);
  ASSERT_TRUE(loaded.ok()) << loaded.error();
  ASSERT_TRUE(loaded.value().has_value());
  EXPECT_EQ(loaded.value()->meta.applied_seq, 10u);
  EXPECT_EQ(loaded.value()->damaged_skipped, 1u);

  // The damaged file is set aside, out of prune's count: the next
  // checkpoint keeps the seq-10 one as its fallback, not the damaged one.
  EXPECT_TRUE(fs::exists(metas.back().string() + ".damaged"));
  EXPECT_EQ(list_checkpoints(dir), std::vector<fs::path>{metas.front()});
  CheckpointMeta next;
  next.applied_seq = 30;
  const auto written = write_checkpoint(dir, next, make_store(30));
  ASSERT_TRUE(written.ok()) << written.error();
  EXPECT_EQ(written.value(), 10u);
  EXPECT_EQ(list_checkpoints(dir).size(), kCheckpointsKept);
}

// SSIDs are raw over-the-air bytes: line breaks, the directed-list
// separator '|', '%', quotes, commas and a NUL must load back unchanged,
// or a row would quarantine and the whole checkpoint be refused.
TEST(Checkpoint, RawSsidBytesRoundTrip) {
  const fs::path dir = fresh_dir("mm_ckpt_ssid");
  const auto device = net80211::MacAddress::from_u64(0x00166f000001ULL);
  const auto bssid = net80211::MacAddress::from_u64(0x001a2b000001ULL);
  const std::vector<std::string> directed = {"home\nnet", "a|b", "100%", "%41",
                                             std::string("\r\0\"x\",y\x7f\xff", 9)};
  const std::string beacon = "cafe\r\nfree";
  capture::ObservationStore store;
  for (const std::string& ssid : directed) store.record_probe_request(device, 1.0, ssid);
  store.record_beacon(bssid, beacon, 6, 2.0, -60.0);
  CheckpointMeta meta;
  meta.applied_seq = 6;
  ASSERT_TRUE(write_checkpoint(dir, meta, store).ok());

  const auto loaded = load_latest_checkpoint(dir);
  ASSERT_TRUE(loaded.ok()) << loaded.error();
  ASSERT_TRUE(loaded.value().has_value());
  const capture::ObservationStore& got = loaded.value()->store;
  ASSERT_NE(got.device(device), nullptr);
  EXPECT_EQ(got.device(device)->directed_ssids, directed);
  ASSERT_NE(got.sighting(bssid), nullptr);
  EXPECT_EQ(got.sighting(bssid)->ssid, beacon);
}

TEST(Checkpoint, PruneKeepsTheNewestTwo) {
  const fs::path dir = fresh_dir("mm_ckpt_prune");
  std::vector<std::uint64_t> oldest_kept;
  for (std::uint64_t seq : {5u, 10u, 15u, 20u}) {
    CheckpointMeta meta;
    meta.applied_seq = seq;
    const auto written = write_checkpoint(dir, meta, make_store(seq));
    ASSERT_TRUE(written.ok()) << written.error();
    oldest_kept.push_back(written.value());
  }
  // What the WAL must keep: the first checkpoint is its own fallback.
  EXPECT_EQ(oldest_kept, (std::vector<std::uint64_t>{5, 5, 10, 15}));
  const auto metas = list_checkpoints(dir);
  ASSERT_EQ(metas.size(), kCheckpointsKept);
  const auto loaded = load_latest_checkpoint(dir);
  ASSERT_TRUE(loaded.ok());
  ASSERT_TRUE(loaded.value().has_value());
  EXPECT_EQ(loaded.value()->meta.applied_seq, 20u);
}

// Its WAL is reclaimed below the checkpoints, so a directory holding only
// the retired two-file format is an error, not a cold start.
TEST(Checkpoint, RetiredMetaObsPairIsRefused) {
  const fs::path dir = fresh_dir("mm_ckpt_retired");
  write_file(dir / "ckpt-00000000000000000010.obs", {});
  write_file(dir / "ckpt-00000000000000000010.meta", {});
  const auto refused = load_latest_checkpoint(dir);
  ASSERT_FALSE(refused.ok());
  EXPECT_NE(refused.error().find(dir.string()), std::string::npos) << refused.error();
}

// The on-disk format, spelled out: a header line, observation-CSV rows and a
// CRC-32C trailer over everything before it. A row the parser would
// quarantine refuses the whole file even under a valid CRC.
TEST(Checkpoint, QuarantinedRowRefusesTheWholeFile) {
  const auto checkpoint_with = [](const std::string& rows) {
    std::string text =
        "mmckpt v2 shard=1 shard_count=2 applied_seq=7 frames=3 contacts=2 publishes=1\n" +
        rows;
    char trailer[16];
    std::snprintf(trailer, sizeof(trailer), "crc=%08x\n",
                  crc32c({reinterpret_cast<const std::uint8_t*>(text.data()), text.size()}));
    text += trailer;
    return std::vector<std::uint8_t>(text.begin(), text.end());
  };
  const std::string device_row = "device,00:16:00:00:00:01,1.5,2.5,0,,0,0,0,0,0\n";
  const fs::path dir = fresh_dir("mm_ckpt_quarantine");
  const fs::path path = dir / "ckpt-00000000000000000007.ckpt";

  write_file(path, checkpoint_with(device_row));
  const auto loaded = load_latest_checkpoint(dir);
  ASSERT_TRUE(loaded.ok()) << loaded.error();
  ASSERT_TRUE(loaded.value().has_value());
  EXPECT_EQ(loaded.value()->meta.shard, 1u);
  EXPECT_EQ(loaded.value()->meta.frames, 3u);
  EXPECT_EQ(loaded.value()->store.device_count(), 1u);

  write_file(path, checkpoint_with(device_row + "bogus,row\n"));
  EXPECT_FALSE(load_latest_checkpoint(dir).ok());
}

TEST(Crc32c, MatchesKnownVector) {
  // RFC 3720 test vector: crc32c("123456789") = 0xE3069283.
  const char* digits = "123456789";
  EXPECT_EQ(crc32c({reinterpret_cast<const std::uint8_t*>(digits), 9}), 0xE3069283u);
}

}  // namespace
}  // namespace mm::durability
