// Lattice wire codec + FEC + link simulator unit tests: framing round
// trips under any fragmentation, the decoder resynchronizes past damage,
// XOR parity recovers any single loss per block at every position, double
// losses are counted as gaps (never thrown), and the link simulator is
// deterministic under its plan + seed.
#include <gtest/gtest.h>

#include <cstring>
#include <span>
#include <vector>

#include "durability/wal.h"
#include "net/fec.h"
#include "net/link_sim.h"
#include "net/wire_codec.h"
#include "util/rng.h"

namespace mm::net {
namespace {

capture::FrameEvent make_event(std::uint64_t seq) {
  capture::FrameEvent ev;
  ev.kind = capture::FrameEventKind::kContact;
  ev.stream_seq = seq;
  ev.device = net80211::MacAddress::from_u64(0x0016f0000000ULL + seq);
  ev.ap = net80211::MacAddress::from_u64(0x00215c000000ULL + (seq % 7));
  ev.time_s = static_cast<double>(seq) * 0.25;
  ev.rssi_dbm = -60.0 - static_cast<double>(seq % 30);
  ev.channel = static_cast<std::int16_t>(1 + (seq % 11));
  return ev;
}

bool events_equal(const capture::FrameEvent& a, const capture::FrameEvent& b) {
  return a.kind == b.kind && a.stream_seq == b.stream_seq && a.device == b.device &&
         a.ap == b.ap && a.time_s == b.time_s && a.rssi_dbm == b.rssi_dbm &&
         a.channel == b.channel && a.has_ssid == b.has_ssid && a.ssid_len == b.ssid_len &&
         std::memcmp(a.ssid, b.ssid, capture::FrameEvent::kMaxSsid) == 0;
}

/// Splits well-formed encoder output back into individual frames.
std::vector<std::vector<std::uint8_t>> split_frames(const std::vector<std::uint8_t>& wire) {
  std::vector<std::vector<std::uint8_t>> frames;
  std::size_t off = 0;
  while (off + kWireHeaderBytes <= wire.size()) {
    const std::size_t len = static_cast<std::size_t>(wire[off + 18]) |
                            (static_cast<std::size_t>(wire[off + 19]) << 8);
    const std::size_t frame_len = kWireHeaderBytes + len;
    frames.emplace_back(wire.begin() + static_cast<std::ptrdiff_t>(off),
                        wire.begin() + static_cast<std::ptrdiff_t>(off + frame_len));
    off += frame_len;
  }
  EXPECT_EQ(off, wire.size());
  return frames;
}

std::vector<std::uint8_t> encode_stream(std::size_t count, std::size_t block_k) {
  FecEncoder encoder(1, block_k);
  std::vector<std::uint8_t> wire;
  for (std::uint64_t seq = 1; seq <= count; ++seq) {
    encoder.push(seq, make_event(seq), wire);
  }
  encoder.flush(wire);
  return wire;
}

/// Drains decoder -> fec -> released events.
std::vector<capture::FrameEvent> decode_all(FecDecoder& fec, WireDecoder& wire,
                                            std::span<const std::uint8_t> bytes) {
  wire.feed(bytes);
  std::vector<capture::FrameEvent> out;
  WireFrame frame;
  while (wire.next(frame)) fec.push(frame);
  capture::FrameEvent ev;
  while (fec.next(ev)) out.push_back(ev);
  return out;
}

TEST(WireCodec, RoundTripsDataAndParityFrames) {
  WireFrame in;
  in.type = WireFrameType::kParity;
  in.stream_id = 42;
  in.seq = 9001;
  in.block_k = 8;
  in.payload.assign(77, 0xA5);
  std::vector<std::uint8_t> wire;
  append_wire_frame(in, wire);
  EXPECT_EQ(wire.size(), kWireHeaderBytes + 77);

  WireDecoder decoder;
  decoder.feed(wire);
  WireFrame out;
  ASSERT_TRUE(decoder.next(out));
  EXPECT_EQ(out.type, in.type);
  EXPECT_EQ(out.stream_id, in.stream_id);
  EXPECT_EQ(out.seq, in.seq);
  EXPECT_EQ(out.block_k, in.block_k);
  EXPECT_EQ(out.payload, in.payload);
  EXPECT_FALSE(decoder.next(out));
  EXPECT_EQ(decoder.stats().resync_bytes, 0u);
}

TEST(WireCodec, ByteAtATimeFeedDecodesEveryFrame) {
  const std::vector<std::uint8_t> wire = encode_stream(20, 4);
  WireDecoder decoder;
  std::size_t frames = 0;
  WireFrame frame;
  for (const std::uint8_t byte : wire) {
    decoder.feed({&byte, 1});
    while (decoder.next(frame)) ++frames;
  }
  EXPECT_EQ(frames, 20u + 5u);  // 20 data + 5 parity blocks of 4
  EXPECT_EQ(decoder.stats().resync_bytes, 0u);
  EXPECT_EQ(decoder.buffered(), 0u);
}

TEST(WireCodec, ResynchronizesPastGarbage) {
  WireFrame in;
  in.seq = 1;
  in.payload.assign(10, 0x42);
  std::vector<std::uint8_t> wire = {0xDE, 0xAD, 'M', 0xBE};  // garbage incl. a lone magic
  append_wire_frame(in, wire);
  wire.push_back('M');
  wire.push_back('L');  // truncated header start
  in.seq = 2;
  append_wire_frame(in, wire);

  WireDecoder decoder;
  decoder.feed(wire);
  WireFrame out;
  ASSERT_TRUE(decoder.next(out));
  EXPECT_EQ(out.seq, 1u);
  ASSERT_TRUE(decoder.next(out));
  EXPECT_EQ(out.seq, 2u);
  EXPECT_FALSE(decoder.next(out));
  EXPECT_GT(decoder.stats().resync_bytes, 0u);
}

TEST(WireCodec, CrcFlipRejectsFrameButNotItsNeighbours) {
  WireFrame in;
  in.seq = 1;
  in.payload.assign(16, 0x11);
  std::vector<std::uint8_t> wire;
  append_wire_frame(in, wire);
  const std::size_t second = wire.size();
  in.seq = 2;
  append_wire_frame(in, wire);
  in.seq = 3;
  append_wire_frame(in, wire);
  wire[second + kWireHeaderBytes + 3] ^= 0x01;  // flip one payload bit of frame 2

  WireDecoder decoder;
  decoder.feed(wire);
  WireFrame out;
  std::vector<std::uint64_t> seqs;
  while (decoder.next(out)) seqs.push_back(out.seq);
  EXPECT_EQ(seqs, (std::vector<std::uint64_t>{1, 3}));
  EXPECT_GE(decoder.stats().crc_failures, 1u);
  EXPECT_GT(decoder.stats().resync_bytes, 0u);
}

TEST(WireCodec, OversizePayloadThrowsAndBadLengthFieldIsRejected) {
  WireFrame in;
  in.payload.assign(kMaxWirePayloadBytes + 1, 0);
  std::vector<std::uint8_t> wire;
  EXPECT_THROW(append_wire_frame(in, wire), std::invalid_argument);

  in.payload.assign(8, 0x7);
  wire.clear();
  append_wire_frame(in, wire);
  wire[19] = 0xFF;  // length field now far beyond the sanity bound
  WireDecoder decoder;
  decoder.feed(wire);
  WireFrame out;
  EXPECT_FALSE(decoder.next(out));
  EXPECT_GE(decoder.stats().bad_length, 1u);
}

// Appending many frames into one buffer must grow it geometrically. An
// exact-size reserve per call reallocated, and copied the whole stream, on
// every frame, which made encoding a long stream into one vector quadratic.
TEST(WireCodec, AppendingManyFramesGrowsTheBufferGeometrically) {
  constexpr std::uint64_t kFrames = 100'000;
  WireFrame in;
  in.payload.assign(16, 0x5A);
  std::vector<std::uint8_t> wire;
  std::size_t capacity_changes = 0;
  for (std::uint64_t seq = 1; seq <= kFrames && capacity_changes <= 64; ++seq) {
    in.seq = seq;
    const std::size_t before = wire.capacity();
    append_wire_frame(in, wire);
    if (wire.capacity() != before) ++capacity_changes;
  }
  EXPECT_LE(capacity_changes, 64u);
  EXPECT_EQ(wire.size(), kFrames * (kWireHeaderBytes + in.payload.size()));
}

TEST(Fec, ParityPayloadIsXorOfBlock) {
  FecEncoder encoder(1, 3);
  std::vector<std::uint8_t> wire;
  for (std::uint64_t seq = 1; seq <= 3; ++seq) encoder.push(seq, make_event(seq), wire);
  const auto frames = split_frames(wire);
  ASSERT_EQ(frames.size(), 4u);  // 3 data + 1 parity

  WireDecoder decoder;
  decoder.feed(wire);
  std::vector<WireFrame> parsed;
  WireFrame f;
  while (decoder.next(f)) parsed.push_back(f);
  ASSERT_EQ(parsed.size(), 4u);
  ASSERT_EQ(parsed[3].type, WireFrameType::kParity);
  EXPECT_EQ(parsed[3].seq, 1u);
  EXPECT_EQ(parsed[3].block_k, 3u);
  std::vector<std::uint8_t> expected(parsed[0].payload.size(), 0);
  for (int i = 0; i < 3; ++i) {
    for (std::size_t b = 0; b < expected.size(); ++b) expected[b] ^= parsed[i].payload[b];
  }
  EXPECT_EQ(parsed[3].payload, expected);
}

TEST(Fec, SingleLossRecoversAtEveryBlockPosition) {
  constexpr std::size_t kBlock = 4;
  constexpr std::size_t kEvents = 8;
  const std::vector<std::uint8_t> wire = encode_stream(kEvents, kBlock);
  const auto frames = split_frames(wire);

  for (std::size_t drop = 0; drop < frames.size(); ++drop) {
    if (frames[drop][3] != 0) continue;  // only drop data frames here
    WireDecoder decoder;
    FecDecoder fec;
    std::vector<capture::FrameEvent> released;
    for (std::size_t i = 0; i < frames.size(); ++i) {
      if (i == drop) continue;
      const auto out = decode_all(fec, decoder, frames[i]);
      released.insert(released.end(), out.begin(), out.end());
    }
    fec.finish();
    capture::FrameEvent ev;
    while (fec.next(ev)) released.push_back(ev);

    ASSERT_EQ(released.size(), kEvents) << "dropped frame " << drop;
    for (std::size_t i = 0; i < released.size(); ++i) {
      EXPECT_TRUE(events_equal(released[i], make_event(i + 1))) << "dropped " << drop;
    }
    EXPECT_EQ(fec.stats().recovered, 1u);
    EXPECT_EQ(fec.stats().unrecoverable_gaps, 0u);
  }
}

TEST(Fec, PartialBlockFlushCoversTheTail) {
  // 5 events at k=4: one full block + a flushed partial block of 1.
  FecEncoder encoder(1, 4);
  std::vector<std::uint8_t> wire;
  for (std::uint64_t seq = 1; seq <= 5; ++seq) encoder.push(seq, make_event(seq), wire);
  encoder.flush(wire);
  auto frames = split_frames(wire);
  ASSERT_EQ(frames.size(), 7u);  // 5 data + 2 parity

  // Drop the lone data frame of the partial block (index 5; parity is last).
  frames.erase(frames.begin() + 5);
  WireDecoder decoder;
  FecDecoder fec;
  std::vector<capture::FrameEvent> released;
  for (const auto& f : frames) {
    const auto out = decode_all(fec, decoder, f);
    released.insert(released.end(), out.begin(), out.end());
  }
  fec.finish();
  capture::FrameEvent ev;
  while (fec.next(ev)) released.push_back(ev);
  ASSERT_EQ(released.size(), 5u);
  EXPECT_TRUE(events_equal(released[4], make_event(5)));
  EXPECT_EQ(fec.stats().recovered, 1u);
}

TEST(Fec, DuplicateDataFramesAreSuppressed) {
  const std::vector<std::uint8_t> wire = encode_stream(4, 0);
  WireDecoder decoder;
  FecDecoder fec;
  auto released = decode_all(fec, decoder, wire);
  const auto again = decode_all(fec, decoder, wire);  // replay the whole stream
  released.insert(released.end(), again.begin(), again.end());
  EXPECT_EQ(released.size(), 4u);
  EXPECT_EQ(fec.stats().duplicates, 4u);
}

TEST(Fec, ReorderedFramesReleaseInSequenceOrder) {
  const std::vector<std::uint8_t> wire = encode_stream(6, 0);
  auto frames = split_frames(wire);
  std::swap(frames[1], frames[4]);
  std::swap(frames[0], frames[2]);

  WireDecoder decoder;
  FecDecoder fec;
  std::vector<capture::FrameEvent> released;
  for (const auto& f : frames) {
    const auto out = decode_all(fec, decoder, f);
    released.insert(released.end(), out.begin(), out.end());
  }
  fec.finish();
  capture::FrameEvent ev;
  while (fec.next(ev)) released.push_back(ev);
  ASSERT_EQ(released.size(), 6u);
  for (std::size_t i = 0; i < released.size(); ++i) {
    EXPECT_EQ(released[i].stream_seq, i + 1);
  }
  EXPECT_GT(fec.stats().out_of_order, 0u);
  EXPECT_EQ(fec.stats().unrecoverable_gaps, 0u);
}

TEST(Fec, DoubleLossInOneBlockCountsGapsAndMovesOn) {
  const std::vector<std::uint8_t> wire = encode_stream(8, 4);
  auto frames = split_frames(wire);
  // Drop data frames for seq 2 and 3 (indices 1, 2): two losses, one block.
  frames.erase(frames.begin() + 2);
  frames.erase(frames.begin() + 1);

  WireDecoder decoder;
  FecDecoder fec;
  std::vector<capture::FrameEvent> released;
  for (const auto& f : frames) {
    const auto out = decode_all(fec, decoder, f);
    released.insert(released.end(), out.begin(), out.end());
  }
  fec.finish();
  capture::FrameEvent ev;
  while (fec.next(ev)) released.push_back(ev);
  ASSERT_EQ(released.size(), 6u);
  EXPECT_EQ(released[0].stream_seq, 1u);
  EXPECT_EQ(released[1].stream_seq, 4u);  // 2 and 3 skipped
  EXPECT_EQ(fec.stats().unrecoverable_gaps, 2u);
  EXPECT_EQ(fec.stats().recovered, 0u);
}

TEST(Fec, WindowOverrunSkipsTheGapInsteadOfStalling) {
  constexpr std::size_t kWindow = 8;
  const std::vector<std::uint8_t> wire = encode_stream(kWindow + 6, 0);
  auto frames = split_frames(wire);
  frames.erase(frames.begin());  // lose seq 1 with no parity to rebuild it

  WireDecoder decoder;
  FecDecoder fec(FecDecoderOptions{.reorder_window = kWindow});
  std::vector<capture::FrameEvent> released;
  for (const auto& f : frames) {
    const auto out = decode_all(fec, decoder, f);
    released.insert(released.end(), out.begin(), out.end());
  }
  // The window must have forced progress before stream end.
  EXPECT_GT(released.size(), 0u);
  EXPECT_EQ(released[0].stream_seq, 2u);
  EXPECT_EQ(fec.stats().unrecoverable_gaps, 1u);
}

TEST(LinkSim, DeterministicUnderPlanAndSeed) {
  const std::vector<std::uint8_t> wire = encode_stream(64, 8);
  const auto frames = split_frames(wire);

  fault::FaultPlan plan;
  plan.drop_rate = 0.1;
  plan.corrupt_rate = 0.05;
  plan.duplicate_rate = 0.05;
  plan.reorder_rate = 0.1;
  plan.burst_rate = 0.01;
  plan.seed = 99;

  const auto run = [&](const fault::FaultPlan& p) {
    LinkSimulator link(p);
    for (const auto& f : frames) link.send(f);
    link.flush();
    return link.take();
  };
  const std::vector<std::uint8_t> a = run(plan);
  const std::vector<std::uint8_t> b = run(plan);
  EXPECT_EQ(a, b);

  fault::FaultPlan other = plan;
  other.seed = 100;
  EXPECT_NE(run(other), a);
}

TEST(LinkSim, PureReorderLosesNothing) {
  const std::vector<std::uint8_t> wire = encode_stream(32, 0);
  const auto frames = split_frames(wire);
  fault::FaultPlan plan;
  plan.reorder_rate = 0.5;
  plan.reorder_depth_max = 3;
  plan.seed = 5;
  LinkSimulator link(plan);
  for (const auto& f : frames) link.send(f);
  link.flush();
  const std::vector<std::uint8_t> bytes = link.take();
  EXPECT_EQ(bytes.size(), wire.size());
  EXPECT_GT(link.stats().reordered, 0u);

  WireDecoder decoder;
  FecDecoder fec;
  auto released = decode_all(fec, decoder, bytes);
  fec.finish();
  capture::FrameEvent ev;
  while (fec.next(ev)) released.push_back(ev);
  ASSERT_EQ(released.size(), 32u);
  for (std::size_t i = 0; i < released.size(); ++i) {
    EXPECT_TRUE(events_equal(released[i], make_event(i + 1)));
  }
}

TEST(LinkSim, BurstOutageDropsRunsOfFrames) {
  const std::vector<std::uint8_t> wire = encode_stream(512, 0);
  const auto frames = split_frames(wire);
  fault::FaultPlan plan;
  plan.burst_rate = 0.02;
  plan.burst_frames_mean = 8.0;
  plan.seed = 21;
  LinkSimulator link(plan);
  for (const auto& f : frames) link.send(f);
  link.flush();
  EXPECT_GT(link.stats().burst_dropped, 0u);
  EXPECT_EQ(link.stats().frames_delivered + link.stats().burst_dropped,
            link.stats().frames_sent);
}

}  // namespace
}  // namespace mm::net
