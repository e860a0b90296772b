// The slot-ring FecDecoder against the map decoder it replaced
// (fec_map_oracle.h). Seeded streams from an honest encoder — k from 1 to 32
// with k <= window, windows 2..64 and 256, mid-stream flushes — cross a link
// that drops, duplicates and reorders data and parity frames, in bursts that
// make double losses. After every push and after finish() both decoders must
// have released byte-identical events and agree on all eight counters.
//
// The FecRing cases pin what the ring does where the two may differ: a jump
// of any size costs O(window), sequences within one window of 2^64 are
// refused, a parity block longer than the window XORs against what the ring
// still holds, and a payload of the wrong length is dropped on arrival.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

#include "durability/wal.h"
#include "fec_map_oracle.h"
#include "net/fec.h"
#include "net/wire_codec.h"
#include "util/rng.h"

namespace mm::net {
namespace {

capture::FrameEvent make_event(std::uint64_t seq) {
  capture::FrameEvent ev;
  ev.kind = static_cast<capture::FrameEventKind>(seq % 4);
  ev.stream_seq = seq;
  ev.device = net80211::MacAddress::from_u64(0x0016f0000000ULL + seq * 7);
  ev.ap = net80211::MacAddress::from_u64(0x00215c000000ULL + (seq % 17));
  ev.time_s = static_cast<double>(seq) * 0.25;
  ev.rssi_dbm = -40.0 - static_cast<double>(seq % 55);
  ev.channel = static_cast<std::int16_t>(1 + (seq % 11));
  ev.device_seq = static_cast<std::int32_t>(seq % 4096);
  if (seq % 3 == 0) {
    ev.has_ssid = true;
    ev.ssid_len = static_cast<std::uint8_t>(1 + (seq % 12));
    for (std::uint8_t i = 0; i < ev.ssid_len; ++i) {
      ev.ssid[i] = static_cast<char>('a' + (seq + i) % 26);
    }
  }
  return ev;
}

/// An event as the bytes the WAL codec gives it: every field, no padding.
std::array<std::uint8_t, durability::kWalPayloadBytes> bytes_of(const capture::FrameEvent& ev) {
  std::array<std::uint8_t, durability::kWalPayloadBytes> out{};
  durability::encode_wal_payload(ev.stream_seq, ev, out.data());
  return out;
}

/// Encoder output split into frames: `count` events in blocks of `block_k`,
/// with a flush after any event at probability `flush_p`.
std::vector<WireFrame> encode_frames(std::uint64_t count, std::size_t block_k, double flush_p,
                                     util::Rng& rng) {
  FecEncoder encoder(1, block_k);
  std::vector<std::uint8_t> wire;
  for (std::uint64_t seq = 1; seq <= count; ++seq) {
    encoder.push(seq, make_event(seq), wire);
    if (rng.uniform() < flush_p) encoder.flush(wire);
  }
  encoder.flush(wire);
  WireDecoder decoder;
  decoder.feed(wire);
  std::vector<WireFrame> frames;
  WireFrame frame;
  while (decoder.next(frame)) frames.push_back(frame);
  return frames;
}

/// Drops (singly and in bursts), duplicates and reorders frames.
std::vector<WireFrame> impair(const std::vector<WireFrame>& sent, util::Rng& rng) {
  const double drop_p = rng.uniform() * 0.25;
  const double burst_p = rng.uniform() * 0.05;
  const double dup_p = rng.uniform() * 0.1;
  const double reorder_p = rng.uniform() * 0.3;
  const auto max_displace = rng.uniform_int(1, 80);
  std::vector<WireFrame> out;
  for (std::size_t i = 0; i < sent.size(); ++i) {
    if (rng.uniform() < burst_p) {
      i += static_cast<std::size_t>(rng.uniform_int(1, 4));  // lose a run of frames
      continue;
    }
    if (rng.uniform() < drop_p) continue;
    out.push_back(sent[i]);
    if (rng.uniform() < dup_p) {
      const auto at = out.size() - 1 + static_cast<std::size_t>(rng.uniform_int(0, 3));
      out.insert(out.begin() + static_cast<std::ptrdiff_t>(std::min(at, out.size())), sent[i]);
    }
  }
  for (std::size_t i = 0; i < out.size(); ++i) {
    if (rng.uniform() >= reorder_p) continue;
    const auto j = std::min(out.size() - 1,
                            i + static_cast<std::size_t>(rng.uniform_int(1, max_displace)));
    std::swap(out[i], out[j]);
  }
  return out;
}

template <typename Decoder>
void drain(Decoder& fec, std::vector<std::array<std::uint8_t, durability::kWalPayloadBytes>>& out) {
  capture::FrameEvent ev;
  while (fec.next(ev)) out.push_back(bytes_of(ev));
}

void expect_same_stats(const FecDecoderStats& ring, const FecDecoderStats& oracle) {
  EXPECT_EQ(ring.data_frames, oracle.data_frames);
  EXPECT_EQ(ring.parity_frames, oracle.parity_frames);
  EXPECT_EQ(ring.duplicates, oracle.duplicates);
  EXPECT_EQ(ring.out_of_order, oracle.out_of_order);
  EXPECT_EQ(ring.recovered, oracle.recovered);
  EXPECT_EQ(ring.unrecoverable_gaps, oracle.unrecoverable_gaps);
  EXPECT_EQ(ring.recoveries_late, oracle.recoveries_late);
  EXPECT_EQ(ring.bad_payloads, oracle.bad_payloads);
}

TEST(FecDifferential, RingMatchesMapOracleOnSeededStreams) {
  constexpr std::uint64_t kStreams = 2400;
  std::uint64_t recovered = 0;
  std::uint64_t gaps = 0;
  std::uint64_t late = 0;
  for (std::uint64_t seed = 1; seed <= kStreams; ++seed) {
    util::Rng rng(seed * 0x9e3779b97f4a7c15ULL);
    const std::size_t window =
        rng.uniform() < 0.1 ? 256 : static_cast<std::size_t>(rng.uniform_int(2, 64));
    const auto block_k =
        static_cast<std::size_t>(rng.uniform_int(1, static_cast<std::int64_t>(std::min<std::size_t>(32, window))));
    const auto count = static_cast<std::uint64_t>(rng.uniform_int(1, 400));
    const double flush_p = rng.uniform() < 0.5 ? 0.0 : rng.uniform() * 0.1;
    const std::vector<WireFrame> frames = impair(encode_frames(count, block_k, flush_p, rng), rng);

    FecDecoder ring(FecDecoderOptions{.reorder_window = window});
    oracle::FecDecoder map(FecDecoderOptions{.reorder_window = window});
    std::vector<std::array<std::uint8_t, durability::kWalPayloadBytes>> ring_out;
    std::vector<std::array<std::uint8_t, durability::kWalPayloadBytes>> map_out;
    for (std::size_t i = 0; i < frames.size(); ++i) {
      ring.push(frames[i]);
      map.push(frames[i]);
      drain(ring, ring_out);
      drain(map, map_out);
      ASSERT_EQ(ring_out, map_out) << "seed " << seed << " after push " << i;
      expect_same_stats(ring.stats(), map.stats());
      ASSERT_FALSE(HasFailure()) << "seed " << seed << " window " << window << " k "
                                 << block_k << " after push " << i;
    }
    ring.finish();
    map.finish();
    drain(ring, ring_out);
    drain(map, map_out);
    ASSERT_EQ(ring_out, map_out) << "seed " << seed << " after finish";
    expect_same_stats(ring.stats(), map.stats());
    ASSERT_FALSE(HasFailure()) << "seed " << seed << " after finish";
    recovered += ring.stats().recovered;
    gaps += ring.stats().unrecoverable_gaps;
    late += ring.stats().recoveries_late;
  }
  // The streams reached every branch that changes what is released.
  EXPECT_GT(recovered, 0u);
  EXPECT_GT(gaps, 0u);
  EXPECT_GT(late, 0u);
}

WireFrame data_frame(std::uint64_t seq, const capture::FrameEvent& ev) {
  WireFrame frame;
  frame.type = WireFrameType::kData;
  frame.stream_id = 1;
  frame.seq = seq;
  frame.payload.resize(durability::kWalPayloadBytes);
  durability::encode_wal_payload(seq, ev, frame.payload.data());
  return frame;
}

std::vector<std::uint64_t> released_seqs(FecDecoder& fec) {
  std::vector<std::uint64_t> seqs;
  capture::FrameEvent ev;
  while (fec.next(ev)) seqs.push_back(ev.stream_seq);
  return seqs;
}

TEST(FecRing, JumpOfTwoToTheSixtyTwoCostsOneWindow) {
  constexpr std::uint64_t kWindow = 256;
  constexpr std::uint64_t kFar = std::uint64_t{1} << 62;
  FecDecoder fec(FecDecoderOptions{.reorder_window = kWindow});
  fec.push(data_frame(1, make_event(1)));
  fec.push(data_frame(kFar, make_event(kFar)));  // the map decoder walks 2^62 sequences here
  // The oracle's rule: the cursor (2, after seq 1) moves to kFar - window + 1,
  // and every sequence it passes is a gap.
  EXPECT_EQ(fec.stats().unrecoverable_gaps, (kFar - kWindow + 1) - 2);
  EXPECT_EQ(released_seqs(fec), std::vector<std::uint64_t>{1});
  fec.finish();
  EXPECT_EQ(released_seqs(fec), std::vector<std::uint64_t>{kFar});
  EXPECT_EQ(fec.stats().unrecoverable_gaps, kFar - 2);
}

TEST(FecRing, SequencesWithinOneWindowOfTwoToTheSixtyFourAreRefused) {
  constexpr std::uint64_t kWindow = 8;
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  FecDecoder fec(FecDecoderOptions{.reorder_window = kWindow});
  fec.push(data_frame(kMax, make_event(1)));
  fec.push(data_frame(kMax - kWindow + 1, make_event(2)));
  WireFrame parity = data_frame(kMax - kWindow - 1, make_event(3));
  parity.type = WireFrameType::kParity;
  parity.block_k = 3;  // ends at kMax - kWindow + 1
  fec.push(parity);
  EXPECT_EQ(fec.stats().bad_payloads, 3u);
  EXPECT_EQ(fec.stats().unrecoverable_gaps, 0u);

  // The last sequence in range is accepted; the cursor stops one past it.
  fec.push(data_frame(kMax - kWindow, make_event(4)));
  fec.finish();
  EXPECT_EQ(released_seqs(fec), std::vector<std::uint64_t>{kMax - kWindow});
  EXPECT_EQ(fec.stats().unrecoverable_gaps, kMax - kWindow - 1);
  fec.push(data_frame(kMax - kWindow, make_event(4)));  // now behind the cursor
  EXPECT_EQ(fec.stats().duplicates, 1u);
  EXPECT_EQ(fec.stats().bad_payloads, 3u);
}

/// Data frames 1..count at block size `block_k` (one block), minus `lost`.
std::vector<WireFrame> one_block_losing(std::uint64_t count, std::uint64_t lost) {
  util::Rng rng(1);
  std::vector<WireFrame> frames = encode_frames(count, count, 0.0, rng);
  frames.erase(frames.begin() + static_cast<std::ptrdiff_t>(lost - 1));
  return frames;  // the parity frame stays last
}

TEST(FecRing, ParityLongerThanTheWindowXorsWhatTheRingStillHolds) {
  // Window 4 keeps 8 slots. A 6-frame block that lost its last member still
  // has the other five in the ring when its parity arrives: recovered (the
  // map decoder kept only the last 4 released payloads and could not).
  {
    FecDecoder fec(FecDecoderOptions{.reorder_window = 4});
    for (const WireFrame& frame : one_block_losing(6, 6)) fec.push(frame);
    fec.finish();
    EXPECT_EQ(released_seqs(fec), (std::vector<std::uint64_t>{1, 2, 3, 4, 5, 6}));
    EXPECT_EQ(fec.stats().recovered, 1u);
    EXPECT_EQ(fec.stats().unrecoverable_gaps, 0u);
  }
  // Window 2 keeps 4 slots: seq 5 is stored over seq 1, so the same block
  // now reads as a double loss and seq 6 becomes a gap.
  {
    FecDecoder fec(FecDecoderOptions{.reorder_window = 2});
    for (const WireFrame& frame : one_block_losing(6, 6)) fec.push(frame);
    fec.finish();
    EXPECT_EQ(released_seqs(fec), (std::vector<std::uint64_t>{1, 2, 3, 4, 5}));
    EXPECT_EQ(fec.stats().recovered, 0u);
    EXPECT_EQ(fec.stats().unrecoverable_gaps, 1u);
  }
}

TEST(FecRing, PayloadOfTheWrongLengthIsDroppedOnArrival) {
  FecDecoder fec;
  fec.push(data_frame(1, make_event(1)));
  WireFrame short_data = data_frame(2, make_event(2));
  short_data.payload.pop_back();
  fec.push(short_data);
  WireFrame far_long = data_frame(1000, make_event(1000));
  far_long.payload.push_back(0);  // would move the window, if it were kept
  fec.push(far_long);
  WireFrame long_parity = data_frame(1, make_event(1));
  long_parity.type = WireFrameType::kParity;
  long_parity.block_k = 2;
  long_parity.payload.push_back(0);
  fec.push(long_parity);
  EXPECT_EQ(fec.stats().bad_payloads, 3u);
  EXPECT_EQ(fec.stats().unrecoverable_gaps, 0u);
  fec.push(data_frame(3, make_event(3)));
  fec.finish();
  // Seq 2 stayed a hole that no parity could fill: one gap.
  EXPECT_EQ(released_seqs(fec), (std::vector<std::uint64_t>{1, 3}));
  EXPECT_EQ(fec.stats().unrecoverable_gaps, 1u);
  EXPECT_EQ(fec.stats().recovered, 0u);
  EXPECT_EQ(fec.stats().bad_payloads, 3u);
}

TEST(FecRing, EncoderRefusesABlockTheWireCannotCarry) {
  EXPECT_NO_THROW(FecEncoder(1, kMaxFecBlockK));
  EXPECT_THROW(FecEncoder(1, kMaxFecBlockK + 1), std::invalid_argument);
}

}  // namespace
}  // namespace mm::net
