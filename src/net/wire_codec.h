// Lattice: the sensor-fabric wire codec (DESIGN.md §12).
//
// A remote sniffer ships decoded FrameEvents to the central Riptide engine
// over a dumb byte pipe — a serial dongle, a UDP tunnel, a file. The wire
// format is a stream of self-delimiting frames:
//
//   [u8 'M'][u8 'L']                    sync marker (not CRC-covered)
//   [u8 version][u8 type]               v1; type 0 = data, 1 = parity
//   [u32 stream_id]                     per-sniffer feed identity
//   [u64 seq]                           data: event sequence (1-based,
//                                       monotone per stream); parity: first
//                                       sequence of the covered block
//   [u16 block_k]                       parity: data frames covered; data: 0
//   [u16 payload_len]
//   [u32 crc32c]                        over bytes [2, 20) + payload
//   [payload_len bytes]                 data: the durability WAL record
//                                       codec (seq + event, 81 bytes);
//                                       parity: XOR of the block's payloads
//
// All integers little-endian, matching the WAL segment codec. The decoder is
// a resynchronizing scanner: arbitrary garbage, truncation, or bit damage
// advances the scan one byte at a time until the next marker + valid CRC —
// total on arbitrary input, never throws, never over-reads (the same
// contract as read_wal_segment_bytes and the net80211 parsers).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "util/bytes.h"

namespace mm::net {

inline constexpr std::uint8_t kWireMagic0 = 'M';
inline constexpr std::uint8_t kWireMagic1 = 'L';
inline constexpr std::uint8_t kWireVersion = 1;
inline constexpr std::size_t kWireHeaderBytes = 24;
/// Framing sanity bound (mirrors kWalMaxPayloadBytes): a longer length field
/// is a damaged header, not an allocation request.
inline constexpr std::size_t kMaxWirePayloadBytes = 512;

enum class WireFrameType : std::uint8_t {
  kData = 0,    ///< one encoded FrameEvent
  kParity = 1,  ///< XOR parity over a block of data payloads
};

struct WireFrame {
  WireFrameType type = WireFrameType::kData;
  std::uint32_t stream_id = 0;
  std::uint64_t seq = 0;
  std::uint16_t block_k = 0;
  std::vector<std::uint8_t> payload;
};

/// Serializes one frame onto the end of `out`. payload.size() must be at
/// most kMaxWirePayloadBytes (asserted in debug, truncating-free either way:
/// oversize throws std::invalid_argument — an encoder bug, not wire damage).
void append_wire_frame(const WireFrame& frame, std::vector<std::uint8_t>& out);

/// Decode-side damage counters (all monotone).
struct WireDecoderStats {
  std::uint64_t bytes_fed = 0;
  std::uint64_t frames_decoded = 0;
  std::uint64_t resync_bytes = 0;   ///< bytes skipped hunting for a marker
  std::uint64_t crc_failures = 0;   ///< marker found but the CRC disagreed
  std::uint64_t bad_version = 0;
  std::uint64_t bad_type = 0;
  std::uint64_t bad_length = 0;     ///< length field beyond the sanity bound
};

/// Streaming decoder: feed() arbitrary byte chunks (any fragmentation — the
/// wire owes no alignment), then drain complete frames with next(). Bytes
/// that never complete a frame simply stay buffered; buffered() exposes the
/// residue so a stream-end can account for a torn tail.
class WireDecoder {
 public:
  void feed(std::span<const std::uint8_t> bytes);

  /// Extracts the next well-formed frame, resynchronizing past damage.
  /// False when the buffer holds no complete valid frame.
  bool next(WireFrame& out);

  [[nodiscard]] const WireDecoderStats& stats() const noexcept { return stats_; }
  [[nodiscard]] std::size_t buffered() const noexcept { return buffer_.size() - head_; }

 private:
  void compact();

  std::vector<std::uint8_t> buffer_;
  std::size_t head_ = 0;
  WireDecoderStats stats_;
};

/// Walks a buffer of well-formed *encoder output* frame by frame (the
/// encoder never emits damage, so the length field at offset 18 is
/// trustworthy) and hands each whole frame to `fn` as a span. This is the
/// splitter every frame-granular transport shares — the link simulator and
/// the UDP datagram paths both operate on frames, not chunks. Not for wire
/// *input*: bytes that crossed a lossy link go through WireDecoder instead.
template <typename Fn>
void for_each_wire_frame(std::span<const std::uint8_t> bytes, Fn&& fn) {
  std::size_t off = 0;
  while (off + kWireHeaderBytes <= bytes.size()) {
    const std::size_t len = util::load_u16(bytes.data() + off + 18);
    const std::size_t frame_len = kWireHeaderBytes + len;
    if (off + frame_len > bytes.size()) break;  // unreachable for encoder output
    fn(bytes.subspan(off, frame_len));
    off += frame_len;
  }
}

}  // namespace mm::net
