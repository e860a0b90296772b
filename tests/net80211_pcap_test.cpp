#include "net80211/pcap.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>

#include "net80211/frames.h"
#include "net80211/radiotap.h"
#include "unique_temp_path.h"

namespace mm::net80211 {
namespace {

std::filesystem::path temp_pcap(const char* name) {
  return testing_support::unique_temp_path(name);
}

TEST(Radiotap, SerializeParseRoundtrip) {
  Radiotap hdr;
  hdr.channel_freq_mhz = 2462;
  hdr.channel_flags = 0x00a0;
  hdr.antenna_signal_dbm = -67;
  hdr.antenna_noise_dbm = -99;
  const auto bytes = hdr.serialize();
  const auto parsed = Radiotap::parse(bytes);
  ASSERT_TRUE(parsed.ok()) << parsed.error();
  EXPECT_EQ(parsed.value().header, hdr);
  EXPECT_EQ(parsed.value().header_length, bytes.size());
}

TEST(Radiotap, RejectsBadVersion) {
  auto bytes = Radiotap{}.serialize();
  bytes[0] = 1;
  EXPECT_FALSE(Radiotap::parse(bytes).ok());
}

TEST(Radiotap, RejectsShortBuffer) {
  const std::vector<std::uint8_t> tiny(4, 0);
  EXPECT_FALSE(Radiotap::parse(tiny).ok());
}

TEST(Radiotap, RejectsUnknownPresentBits) {
  auto bytes = Radiotap{}.serialize();
  bytes[7] |= 0x80;  // set an unsupported present bit
  EXPECT_FALSE(Radiotap::parse(bytes).ok());
}

TEST(Radiotap, NegativeSignalLevelsSurvive) {
  Radiotap hdr;
  hdr.antenna_signal_dbm = -128;
  hdr.antenna_noise_dbm = -1;
  const auto parsed = Radiotap::parse(hdr.serialize());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().header.antenna_signal_dbm, -128);
  EXPECT_EQ(parsed.value().header.antenna_noise_dbm, -1);
}

TEST(Pcap, EmptyFileRoundtrip) {
  const auto path = temp_pcap("mm_empty.pcap");
  { PcapWriter writer(path); }
  PcapReader reader(path);
  EXPECT_EQ(reader.linktype(), kLinktypeRadiotap);
  EXPECT_EQ(reader.snaplen(), 65535u);
  EXPECT_FALSE(reader.next().has_value());
  EXPECT_FALSE(reader.truncated());
  std::filesystem::remove(path);
}

TEST(Pcap, RecordsRoundtrip) {
  const auto path = temp_pcap("mm_records.pcap");
  const PcapRecord r1{1000001, {0xde, 0xad, 0xbe, 0xef}};
  const PcapRecord r2{2000002, {0x01}};
  {
    PcapWriter writer(path, kLinktype80211);
    writer.write(r1.timestamp_us, r1.data);
    writer.write(r2.timestamp_us, r2.data);
    EXPECT_EQ(writer.records_written(), 2u);
  }
  PcapReader reader(path);
  EXPECT_EQ(reader.linktype(), kLinktype80211);
  const auto records = reader.read_all();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0], r1);
  EXPECT_EQ(records[1], r2);
  std::filesystem::remove(path);
}

TEST(Pcap, TimestampSplitAcrossSecondBoundary) {
  const auto path = temp_pcap("mm_ts.pcap");
  {
    PcapWriter writer(path);
    writer.write(5999999, std::vector<std::uint8_t>{0x00});
  }
  PcapReader reader(path);
  const auto rec = reader.next();
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->timestamp_us, 5999999u);
  std::filesystem::remove(path);
}

TEST(Pcap, SnaplenTruncatesStoredData) {
  const auto path = temp_pcap("mm_snap.pcap");
  {
    PcapWriter writer(path, kLinktypeRadiotap, /*snaplen=*/8);
    writer.write(0, std::vector<std::uint8_t>(100, 0xab));
  }
  PcapReader reader(path);
  const auto rec = reader.next();
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->data.size(), 8u);
  std::filesystem::remove(path);
}

TEST(Pcap, MissingFileIsError) {
  PcapReader reader("/nonexistent/capture.pcap");
  EXPECT_FALSE(reader.ok());
  EXPECT_FALSE(reader.error().empty());
  EXPECT_FALSE(reader.next().has_value());  // safe to call anyway
}

TEST(Pcap, MissingDirectoryWriterIsError) {
  PcapWriter writer("/nonexistent/dir/capture.pcap");
  EXPECT_FALSE(writer.ok());
  EXPECT_FALSE(writer.write(0, std::vector<std::uint8_t>{0x01}));
  EXPECT_EQ(writer.records_written(), 0u);
  EXPECT_EQ(writer.write_failures(), 1u);
}

TEST(Pcap, BadMagicIsError) {
  const auto path = temp_pcap("mm_badmagic.pcap");
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    const char junk[] = "NOTAPCAPFILE............";
    std::fwrite(junk, 1, sizeof(junk), f);
    std::fclose(f);
  }
  PcapReader reader(path);
  EXPECT_FALSE(reader.ok());
  EXPECT_NE(reader.error().find("magic"), std::string::npos);
  EXPECT_FALSE(reader.next().has_value());
  std::filesystem::remove(path);
}

TEST(Pcap, TruncatedMidPayloadDetected) {
  const auto path = temp_pcap("mm_trunc.pcap");
  {
    PcapWriter writer(path);
    writer.write(0, std::vector<std::uint8_t>(32, 0x55));
  }
  // Chop the file mid-payload: record header intact, 16 of 32 data bytes.
  std::filesystem::resize_file(path, std::filesystem::file_size(path) - 16);
  PcapReader reader(path);
  EXPECT_FALSE(reader.next().has_value());
  EXPECT_TRUE(reader.truncated());
  std::filesystem::remove(path);
}

TEST(Pcap, TruncatedMidRecordHeaderDetected) {
  const auto path = temp_pcap("mm_trunc_hdr.pcap");
  {
    PcapWriter writer(path);
    writer.write(0, std::vector<std::uint8_t>{0x01, 0x02});
    writer.write(1, std::vector<std::uint8_t>{0x03});
  }
  // Keep record 1 whole; cut record 2 in the middle of its 16-byte header.
  std::filesystem::resize_file(path, 24 + 16 + 2 + 7);
  PcapReader reader(path);
  EXPECT_TRUE(reader.next().has_value());
  EXPECT_FALSE(reader.next().has_value());
  EXPECT_TRUE(reader.truncated());
  EXPECT_FALSE(reader.next().has_value());  // stays latched, no reread
  std::filesystem::remove(path);
}

TEST(Pcap, StubRecordHeaderOfAnyLengthIsTruncation) {
  // A capture that ends 1-15 bytes after its last whole record lost part of
  // a record header: that is a torn tail, never a clean end.
  const auto path = temp_pcap("mm_trunc_stub.pcap");
  for (std::size_t stub = 1; stub <= 15; ++stub) {
    {
      PcapWriter writer(path);
      writer.write(0, std::vector<std::uint8_t>{0x01, 0x02});
    }
    {
      std::ofstream out(path, std::ios::binary | std::ios::app);
      out.write(std::string(stub, '\x7f').data(), static_cast<std::streamsize>(stub));
    }
    PcapReader reader(path);
    EXPECT_EQ(reader.read_all().size(), 1u) << stub << " stray bytes";
    EXPECT_TRUE(reader.truncated()) << stub << " stray bytes";
    EXPECT_EQ(reader.quarantined(), 0u);
  }
  std::filesystem::remove(path);
}

TEST(Pcap, RecordsStraddlingReadBlocksReadBackIdentical) {
  // The first block holds the file's first kPcapReadBlockBytes bytes. The
  // first record is sized so the second starts `shift` bytes before that
  // boundary: its header (shift 1-15) or payload (shift 16-55) straddles
  // it, or it starts exactly on it (shift 0).
  const auto path = temp_pcap("mm_blocks.pcap");
  for (std::size_t shift = 0; shift <= 56; shift += (shift < 20 ? 1 : 9)) {
    std::vector<PcapRecord> written;
    written.push_back({1, std::vector<std::uint8_t>(kPcapReadBlockBytes - 24 - 16 - shift)});
    for (std::size_t i = 0; i < written[0].data.size(); ++i) {
      written[0].data[i] = static_cast<std::uint8_t>(i * 31 + shift);
    }
    written.push_back({2, std::vector<std::uint8_t>(40, 0xa5)});
    written.push_back({3, {}});
    written.push_back({4, std::vector<std::uint8_t>{0x01, 0x02, 0x03}});
    {
      PcapWriter writer(path, kLinktypeRadiotap, kMaxSaneRecordBytes);
      for (const PcapRecord& r : written) writer.write(r.timestamp_us, r.data);
    }
    PcapReader reader(path);
    EXPECT_EQ(reader.read_all(), written) << "shift " << shift;
    EXPECT_FALSE(reader.truncated());
  }
  std::filesystem::remove(path);
}

TEST(Pcap, MaxSaneRecordReadsBack) {
  // A record of exactly kMaxSaneRecordBytes is data, not corrupt framing:
  // the buffer grows to hold it and the records around it.
  const auto path = temp_pcap("mm_max_record.pcap");
  std::vector<PcapRecord> written;
  written.push_back({7, std::vector<std::uint8_t>(1000, 0x11)});
  written.push_back({8, std::vector<std::uint8_t>(kMaxSaneRecordBytes)});
  for (std::size_t i = 0; i < written[1].data.size(); ++i) {
    written[1].data[i] = static_cast<std::uint8_t>(i ^ (i >> 8));
  }
  written.push_back({9, std::vector<std::uint8_t>(300, 0x22)});
  {
    PcapWriter writer(path, kLinktypeRadiotap, kMaxSaneRecordBytes);
    for (const PcapRecord& r : written) writer.write(r.timestamp_us, r.data);
  }
  PcapReader reader(path);
  EXPECT_EQ(reader.read_all(), written);
  EXPECT_FALSE(reader.truncated());
  EXPECT_EQ(reader.quarantined(), 0u);
  std::filesystem::remove(path);
}

/// What a pcap byte string holds, parsed in memory: the reference the
/// streaming reader must match on every prefix.
struct ReferenceParse {
  bool ok = false;
  std::vector<PcapRecord> records;
  bool truncated = false;
  std::uint64_t quarantined = 0;
};

ReferenceParse parse_in_memory(const std::vector<std::uint8_t>& bytes) {
  const auto u32 = [&](std::size_t at) {
    return static_cast<std::uint32_t>(bytes[at]) | (static_cast<std::uint32_t>(bytes[at + 1]) << 8) |
           (static_cast<std::uint32_t>(bytes[at + 2]) << 16) |
           (static_cast<std::uint32_t>(bytes[at + 3]) << 24);
  };
  ReferenceParse out;
  if (bytes.size() < 24) return out;
  out.ok = true;
  std::size_t pos = 24;
  while (pos < bytes.size()) {
    if (bytes.size() - pos < 16) {
      out.truncated = true;
      break;
    }
    const std::uint32_t incl = u32(pos + 8);
    if (incl > kMaxSaneRecordBytes) {
      ++out.quarantined;
      break;
    }
    if (bytes.size() - pos - 16 < incl) {
      out.truncated = true;
      break;
    }
    const auto data = bytes.begin() + static_cast<std::ptrdiff_t>(pos + 16);
    out.records.push_back({static_cast<std::uint64_t>(u32(pos)) * 1000000 + u32(pos + 4),
                           {data, data + incl}});
    pos += 16 + incl;
  }
  return out;
}

std::vector<std::uint8_t> read_bytes(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

TEST(Pcap, TruncationSweepMatchesInMemoryReference) {
  // Three records (one empty), then the same file with a corrupt length on
  // the third: cut at every byte offset, the reader must return exactly the
  // records, truncated() and quarantined() of an in-memory parse.
  const auto path = temp_pcap("mm_sweep.pcap");
  const auto cut_path = temp_pcap("mm_sweep_cut.pcap");
  {
    PcapWriter writer(path);
    writer.write(1000001, std::vector<std::uint8_t>{0xde, 0xad, 0xbe, 0xef, 0x01});
    writer.write(2000002, std::vector<std::uint8_t>{});
    writer.write(3000003, std::vector<std::uint8_t>(9, 0x5a));
  }
  std::vector<std::uint8_t> corrupt = read_bytes(path);
  corrupt[24 + (16 + 5) + 16 + 8 + 3] = 0x7f;  // third record's incl_len
  for (const std::vector<std::uint8_t>& full : {read_bytes(path), corrupt}) {
    for (std::size_t cut = 0; cut <= full.size(); ++cut) {
      const std::vector<std::uint8_t> prefix(full.begin(),
                                             full.begin() + static_cast<std::ptrdiff_t>(cut));
      {
        std::ofstream out(cut_path, std::ios::binary | std::ios::trunc);
        out.write(reinterpret_cast<const char*>(prefix.data()),
                  static_cast<std::streamsize>(prefix.size()));
      }
      const ReferenceParse expect = parse_in_memory(prefix);
      PcapReader reader(cut_path);
      ASSERT_EQ(reader.ok(), expect.ok) << "cut " << cut;
      if (!expect.ok) continue;
      EXPECT_EQ(reader.read_all(), expect.records) << "cut " << cut;
      EXPECT_EQ(reader.truncated(), expect.truncated) << "cut " << cut;
      EXPECT_EQ(reader.quarantined(), expect.quarantined) << "cut " << cut;
    }
  }
  std::filesystem::remove(path);
  std::filesystem::remove(cut_path);
}

TEST(Pcap, InsaneRecordLengthQuarantined) {
  const auto path = temp_pcap("mm_insane.pcap");
  {
    PcapWriter writer(path);
    writer.write(0, std::vector<std::uint8_t>{0x01, 0x02});
  }
  // Corrupt the record's incl_len (offset 24+8) to a hostile value: the
  // reader must quarantine (not allocate gigabytes or read out of bounds).
  {
    std::FILE* f = std::fopen(path.c_str(), "rb+");
    ASSERT_NE(f, nullptr);
    std::fseek(f, 24 + 8, SEEK_SET);
    const std::uint8_t huge[4] = {0xff, 0xff, 0xff, 0x7f};
    std::fwrite(huge, 1, sizeof(huge), f);
    std::fclose(f);
  }
  PcapReader reader(path);
  ASSERT_TRUE(reader.ok());
  EXPECT_FALSE(reader.next().has_value());
  EXPECT_EQ(reader.quarantined(), 1u);
  EXPECT_FALSE(reader.truncated());
  std::filesystem::remove(path);
}

// End-to-end: a radiotap-framed management frame written to pcap and read
// back parses into the original frame — the exact artifact chain a real
// monitor-mode capture produces.
TEST(Pcap, MonitorModeCaptureChain) {
  const auto path = temp_pcap("mm_chain.pcap");
  const MacAddress ap = *MacAddress::parse("00:1a:2b:00:00:01");
  const ManagementFrame beacon = make_beacon(ap, "CampusNet", 6, 777, 9);

  Radiotap rt;
  rt.channel_freq_mhz = 2437;
  rt.antenna_signal_dbm = -70;
  std::vector<std::uint8_t> packet = rt.serialize();
  const auto body = beacon.serialize();
  packet.insert(packet.end(), body.begin(), body.end());

  {
    PcapWriter writer(path);
    writer.write(42, packet);
  }

  PcapReader reader(path);
  const auto rec = reader.next();
  ASSERT_TRUE(rec.has_value());
  const auto rt_parsed = Radiotap::parse(rec->data);
  ASSERT_TRUE(rt_parsed.ok());
  EXPECT_EQ(rt_parsed.value().header.channel_freq_mhz, 2437);
  const std::span<const std::uint8_t> frame_bytes{
      rec->data.data() + rt_parsed.value().header_length,
      rec->data.size() - rt_parsed.value().header_length};
  const auto frame = ManagementFrame::parse(frame_bytes);
  ASSERT_TRUE(frame.ok()) << frame.error();
  EXPECT_EQ(frame.value().ssid().value_or(""), "CampusNet");
  EXPECT_EQ(frame.value().addr2, ap);
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace mm::net80211
