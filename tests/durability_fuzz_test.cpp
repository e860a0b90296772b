// Deterministic fuzz tests for the Phoenix WAL decoder, in the style of the
// net80211 parser fuzzers: recovery feeds read_wal_segment_bytes whatever a
// crash left on disk, so the decoder must be total — arbitrary bytes produce
// a (possibly empty, possibly torn) prefix of records, never a crash, an
// over-read, or an allocation driven by a hostile length field.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "durability/wal.h"
#include "util/rng.h"

namespace mm::durability {
namespace {

std::vector<std::uint8_t> random_bytes(util::Rng& rng, std::size_t n) {
  std::vector<std::uint8_t> out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  return out;
}

/// Builds one genuine segment file through the writer into `bytes`; callers
/// wrap it in ASSERT_NO_FATAL_FAILURE. The directory is unique to this process and test case: ctest -j runs the
/// cases as concurrent processes, and a shared one let one case's cleanup
/// delete another's segment.
void valid_segment_bytes(std::uint64_t records, std::vector<std::uint8_t>& bytes) {
  const auto dir =
      std::filesystem::temp_directory_path() /
      ("mm_wal_fuzz_" + std::to_string(::getpid()) + "_" +
       testing::UnitTest::GetInstance()->current_test_info()->name());
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

}  // namespace
}  // namespace mm::durability
