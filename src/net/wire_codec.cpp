#include "net/wire_codec.h"

#include <array>
#include <cstring>
#include <stdexcept>

#include "durability/crc32c.h"
#include "util/bytes.h"

namespace mm::net {

namespace {

/// CRC-covered bytes: header fields [2, 20) immediately followed by the
/// payload. The crc32c helper has no streaming seed, so the two spans are
/// joined in a fixed scratch buffer (bounded by kMaxWirePayloadBytes).
std::uint32_t frame_crc(const std::uint8_t* header2, const std::uint8_t* payload,
                        std::size_t payload_len) {
  std::array<std::uint8_t, (kWireHeaderBytes - 6) + kMaxWirePayloadBytes> scratch;
  std::memcpy(scratch.data(), header2, kWireHeaderBytes - 6);
  if (payload_len > 0) std::memcpy(scratch.data() + (kWireHeaderBytes - 6), payload, payload_len);
  return durability::crc32c({scratch.data(), (kWireHeaderBytes - 6) + payload_len});
}

}  // namespace

void append_wire_frame(const WireFrame& frame, std::vector<std::uint8_t>& out) {
  if (frame.payload.size() > kMaxWirePayloadBytes) {
    throw std::invalid_argument("append_wire_frame: payload exceeds wire bound");
  }
  const std::size_t start = out.size();
  out.push_back(kWireMagic0);
  out.push_back(kWireMagic1);
  out.push_back(kWireVersion);
  out.push_back(static_cast<std::uint8_t>(frame.type));
  util::append_u32(out, frame.stream_id);
  util::append_u64(out, frame.seq);
  util::append_u16(out, frame.block_k);
  util::append_u16(out, static_cast<std::uint16_t>(frame.payload.size()));
  // CRC over the header fields after the marker, then the payload — a frame
  // survives the wire iff the link delivered every covered byte intact.
  util::append_u32(out, frame_crc(out.data() + start + 2, frame.payload.data(),
                         frame.payload.size()));
  out.insert(out.end(), frame.payload.begin(), frame.payload.end());
}

void WireDecoder::feed(std::span<const std::uint8_t> bytes) {
  stats_.bytes_fed += bytes.size();
  buffer_.insert(buffer_.end(), bytes.begin(), bytes.end());
}

void WireDecoder::compact() {
  // Amortized: only slide the survivors down once the dead prefix dominates.
  if (head_ > 4096 && head_ * 2 > buffer_.size()) {
    buffer_.erase(buffer_.begin(), buffer_.begin() + static_cast<std::ptrdiff_t>(head_));
    head_ = 0;
  }
}

bool WireDecoder::next(WireFrame& out) {
  while (buffer_.size() - head_ >= kWireHeaderBytes) {
    const std::uint8_t* p = buffer_.data() + head_;
    if (p[0] != kWireMagic0 || p[1] != kWireMagic1) {
      ++head_;
      ++stats_.resync_bytes;
      continue;
    }
    // A marker is only a candidate: every rejection below advances a single
    // byte, so a corrupted length or type field cannot swallow the valid
    // frame that may start inside what it claimed as payload.
    if (p[2] != kWireVersion) {
      ++stats_.bad_version;
      ++head_;
      ++stats_.resync_bytes;
      continue;
    }
    if (p[3] > static_cast<std::uint8_t>(WireFrameType::kParity)) {
      ++stats_.bad_type;
      ++head_;
      ++stats_.resync_bytes;
      continue;
    }
    const std::size_t payload_len = util::load_u16(p + 18);
    if (payload_len > kMaxWirePayloadBytes) {
      ++stats_.bad_length;
      ++head_;
      ++stats_.resync_bytes;
      continue;
    }
    if (buffer_.size() - head_ < kWireHeaderBytes + payload_len) {
      compact();
      return false;  // frame still in flight
    }
    if (frame_crc(p + 2, p + kWireHeaderBytes, payload_len) != util::load_u32(p + 20)) {
      ++stats_.crc_failures;
      ++head_;
      ++stats_.resync_bytes;
      continue;
    }
    out.type = static_cast<WireFrameType>(p[3]);
    out.stream_id = util::load_u32(p + 4);
    out.seq = util::load_u64(p + 8);
    out.block_k = util::load_u16(p + 16);
    out.payload.assign(p + kWireHeaderBytes, p + kWireHeaderBytes + payload_len);
    head_ += kWireHeaderBytes + payload_len;
    ++stats_.frames_decoded;
    compact();
    return true;
  }
  compact();
  return false;
}

}  // namespace mm::net
