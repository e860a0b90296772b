// Deterministic fuzz tests for the Phoenix WAL decoder and checkpoint
// loader, in the style of the net80211 parser fuzzers: recovery feeds
// read_wal_segment_bytes whatever a crash left on disk, so the decoder must
// be total — arbitrary bytes produce a (possibly empty, possibly torn)
// prefix of records, never a crash, an over-read, or an allocation driven by
// a hostile length field — and a damaged checkpoint must be refused whole.
#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "capture/persistence.h"
#include "durability/checkpoint.h"
#include "durability/wal.h"
#include "unique_temp_path.h"
#include "util/rng.h"

namespace mm::durability {
namespace {

std::vector<std::uint8_t> random_bytes(util::Rng& rng, std::size_t n) {
  std::vector<std::uint8_t> out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  return out;
}

/// Builds one genuine segment file through the writer into `bytes`; callers
/// wrap it in ASSERT_NO_FATAL_FAILURE.
void valid_segment_bytes(std::uint64_t records, std::vector<std::uint8_t>& bytes) {
  const auto dir = testing_support::unique_temp_path("mm_wal_fuzz");
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  WalWriterOptions options;
  options.commit_every_records = 1;
  options.fsync_on_commit = false;
  WalWriter writer(dir, 1, options);
  for (std::uint64_t i = 0; i < records; ++i) {
    WalRecord record;
    record.seq = i + 1;
    record.event.kind = capture::FrameEventKind::kContact;
    record.event.device = net80211::MacAddress::from_u64(0xaa0000000000u + i);
    record.event.ap = net80211::MacAddress::from_u64(0xbb0000000000u + i);
    record.event.time_s = static_cast<double>(i);
    record.event.rssi_dbm = -50.0;
    EXPECT_TRUE(writer.append(record).ok());
  }
  EXPECT_TRUE(writer.seal().ok());
  const auto segments = list_wal_segments(dir);
  ASSERT_EQ(segments.size(), 1u);
  std::ifstream in(segments[0], std::ios::binary);
  bytes.assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  std::filesystem::remove_all(dir);
}

TEST(WalFuzz, RandomBuffersNeverCrash) {
  util::Rng rng(0xa15eedu);
  int headers_ok = 0;
  for (int trial = 0; trial < 5000; ++trial) {
    const auto len = static_cast<std::size_t>(rng.uniform_int(0, 512));
    const auto bytes = random_bytes(rng, len);
    const SegmentReadResult result = read_wal_segment_bytes(bytes);
    headers_ok += result.header_ok ? 1 : 0;
    EXPECT_TRUE(result.records.empty());  // random bytes never pass the CRCs
  }
  // An 8-byte magic + header CRC makes a random hit essentially impossible.
  EXPECT_EQ(headers_ok, 0);
}

TEST(WalFuzz, MutatedValidSegmentsDecodeToAPrefix) {
  util::Rng rng(0x90e1fu);
  std::vector<std::uint8_t> base;
  ASSERT_NO_FATAL_FAILURE(valid_segment_bytes(24, base));
  // The mutated decode may keep only records the CRC still vouches for, and
  // whatever survives must be an untouched prefix: ascending seqs from 1.
  for (int trial = 0; trial < 2000; ++trial) {
    auto bytes = base;
    const int mutations = static_cast<int>(rng.uniform_int(1, 8));
    for (int m = 0; m < mutations; ++m) {
      const auto pos = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(bytes.size()) - 1));
      bytes[pos] = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    }
    if (rng.bernoulli(0.3)) {
      bytes.resize(static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(bytes.size()))));
    }
    const SegmentReadResult result = read_wal_segment_bytes(bytes);
    std::uint64_t expect = 0;
    for (const WalRecord& record : result.records) {
      ASSERT_EQ(record.seq, ++expect);
    }
  }
}

TEST(WalFuzz, TruncationSweepIsTotal) {
  std::vector<std::uint8_t> full;
  ASSERT_NO_FATAL_FAILURE(valid_segment_bytes(6, full));
  for (std::size_t len = 0; len <= full.size(); ++len) {
    const std::vector<std::uint8_t> prefix(
        full.begin(), full.begin() + static_cast<std::ptrdiff_t>(len));
    const SegmentReadResult result = read_wal_segment_bytes(prefix);
    if (len == full.size()) {
      EXPECT_TRUE(result.header_ok);
      EXPECT_FALSE(result.torn);
      EXPECT_EQ(result.records.size(), 6u);
    } else if (result.header_ok && len < full.size()) {
      // Any shorter prefix is torn (or empty), never silently complete.
      EXPECT_TRUE(result.torn || result.records.size() < 6u);
    }
  }
}

TEST(WalFuzz, HostileLengthFieldsAreFramesNotAllocations) {
  // A frame whose length field reads 0xffffffff (or anything past the
  // payload bound) must be treated as a torn tail, not a 4 GiB reserve.
  std::vector<std::uint8_t> bytes;
  ASSERT_NO_FATAL_FAILURE(valid_segment_bytes(3, bytes));
  const std::size_t header = 28;
  std::memset(bytes.data() + header, 0xff, 4);
  const SegmentReadResult result = read_wal_segment_bytes(bytes);
  EXPECT_TRUE(result.header_ok);
  EXPECT_TRUE(result.torn);
  EXPECT_TRUE(result.records.empty());

  // Length zero is equally dead: progress must not stall into a spin.
  std::vector<std::uint8_t> zero;
  ASSERT_NO_FATAL_FAILURE(valid_segment_bytes(3, zero));
  std::memset(zero.data() + header, 0x00, 4);
  const SegmentReadResult zres = read_wal_segment_bytes(zero);
  EXPECT_TRUE(zres.torn);
  EXPECT_TRUE(zres.records.empty());
}

TEST(WalFuzz, RandomPayloadDecodeIsTotal) {
  util::Rng rng(0xc4c);
  WalRecord out;
  int accepted = 0;
  for (int trial = 0; trial < 5000; ++trial) {
    const auto payload = random_bytes(rng, kWalPayloadBytes);
    accepted += decode_wal_payload(payload, out) ? 1 : 0;
  }
  // kind and ssid_len validation reject most random payloads but not all;
  // the point is totality, not rejection rate.
  EXPECT_LT(accepted, 5000);
}

/// A small store: `devices` pseudonyms spread over three APs, one probing,
/// plus one beacon sighting.
capture::ObservationStore small_store(std::uint64_t devices) {
  capture::ObservationStore store;
  for (std::uint64_t i = 0; i < devices; ++i) {
    const auto device = net80211::MacAddress::from_u64(0xaa0000000000u + i);
    const auto ap = net80211::MacAddress::from_u64(0xbb0000000000u + i % 3);
    store.record_contact(ap, device, 1.0 + 0.25 * static_cast<double>(i),
                         -50.0 - static_cast<double>(i));
  }
  store.record_probe_request(net80211::MacAddress::from_u64(0xaa0000000000u), 0.5,
                             std::string("Home,Net"));
  store.record_beacon(net80211::MacAddress::from_u64(0xbb0000000000u), "Cafe", 6, 0.75,
                      -61.5);
  return store;
}

std::string csv_of(const capture::ObservationStore& store) {
  std::string out;
  capture::observations_csv(store, out);
  return out;
}

void write_bytes(const std::filesystem::path& path, const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

/// Two checkpoints in a fresh directory: `older` at seq 10, then a newer
/// one at seq 20. Returns the newer file's path; callers wrap it in
/// ASSERT_NO_FATAL_FAILURE.
void two_checkpoints(const std::filesystem::path& dir,
                     const capture::ObservationStore& older,
                     std::filesystem::path& newer_path) {
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  CheckpointMeta meta;
  meta.applied_seq = 10;
  ASSERT_TRUE(write_checkpoint(dir, meta, older).ok());
  meta.applied_seq = 20;
  ASSERT_TRUE(write_checkpoint(dir, meta, small_store(7)).ok());
  const auto listed = list_checkpoints(dir);
  ASSERT_EQ(listed.size(), 2u);
  newer_path = listed.back();
}

/// Every truncation of `bytes`, then a one-bit flip at every byte (bit
/// i % 8 of byte i), each passed to `check` as (damaged bytes, label).
template <typename Check>
void for_each_damage(const std::vector<std::uint8_t>& bytes, Check check) {
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    check(std::vector<std::uint8_t>(bytes.begin(),
                                    bytes.begin() + static_cast<std::ptrdiff_t>(len)),
          "truncated to " + std::to_string(len));
  }
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    std::vector<std::uint8_t> flipped = bytes;
    flipped[i] ^= static_cast<std::uint8_t>(1u << (i % 8));
    check(flipped, "bit flip at byte " + std::to_string(i));
  }
}

TEST(CheckpointFuzz, DamagedNewerCheckpointFallsBackToTheOlderOneWhole) {
  const auto dir = testing_support::unique_temp_path("mm_ckpt_fuzz");
  const capture::ObservationStore older = small_store(4);
  std::filesystem::path newer;
  ASSERT_NO_FATAL_FAILURE(two_checkpoints(dir, older, newer));
  const std::string want = csv_of(older);
  std::vector<std::uint8_t> bytes;
  {
    std::ifstream in(newer, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  }
  ASSERT_GT(bytes.size(), 100u);

  // CRC-32C catches every single-bit error and every cut: no damaged
  // variant may load, and the fallback is the older store exactly.
  for_each_damage(bytes, [&](const std::vector<std::uint8_t>& damaged,
                             const std::string& label) {
    write_bytes(newer, damaged);
    const auto loaded = load_latest_checkpoint(dir);
    ASSERT_TRUE(loaded.ok()) << label << ": " << loaded.error();
    ASSERT_TRUE(loaded.value().has_value()) << label;
    EXPECT_EQ(loaded.value()->meta.applied_seq, 10u) << label;
    EXPECT_EQ(loaded.value()->damaged_skipped, 1u) << label;
    EXPECT_EQ(csv_of(loaded.value()->store), want) << label;
  });
  std::filesystem::remove_all(dir);
}

TEST(CheckpointFuzz, DamageWithoutAFallbackFailsCleanly) {
  const auto dir = testing_support::unique_temp_path("mm_ckpt_fuzz_alone");
  std::filesystem::path newer;
  ASSERT_NO_FATAL_FAILURE(two_checkpoints(dir, small_store(4), newer));
  std::vector<std::uint8_t> bytes;
  {
    std::ifstream in(newer, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  }
  std::filesystem::remove(list_checkpoints(dir).front());

  // The only checkpoint is damaged: an error naming the directory, never a
  // store and never a cold start over a reclaimed log.
  for_each_damage(bytes, [&](const std::vector<std::uint8_t>& damaged,
                             const std::string& label) {
    write_bytes(newer, damaged);
    const auto loaded = load_latest_checkpoint(dir);
    ASSERT_FALSE(loaded.ok()) << label;
    EXPECT_NE(loaded.error().find(dir.string()), std::string::npos) << loaded.error();
  });
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace mm::durability
