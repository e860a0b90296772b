// The map-based FEC decoder that src/net/fec.{h,cpp} replaced, kept verbatim
// (namespace aside) as the oracle for tests/net_fec_differential_test.cpp.
// It holds undelivered payloads in one std::map, the last reorder_window
// released payloads in a second, pending parity in a third and released
// events in a deque; its window walk visits every skipped sequence.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <vector>

#include "capture/frame_event.h"
#include "net/fec.h"
#include "net/wire_codec.h"

namespace mm::net::oracle {

/// Reassembles one stream's wire frames back into the original event
/// sequence. Single-threaded per stream (the mux owns one per feed).
class FecDecoder {
 public:
  explicit FecDecoder(FecDecoderOptions options = {});

  /// Accepts one CRC-clean frame (data or parity) in any order.
  void push(const WireFrame& frame);

  /// Extracts the next released event, in strictly ascending original
  /// sequence order. False when none is releasable yet.
  bool next(capture::FrameEvent& out);

  /// Stream end: recovers what parity still can, then releases everything
  /// held, counting the remaining holes as unrecoverable gaps.
  void finish();

  [[nodiscard]] const FecDecoderStats& stats() const noexcept { return stats_; }

 private:
  struct ParityBlock {
    std::uint16_t k = 0;
    std::vector<std::uint8_t> payload;
  };

  [[nodiscard]] bool have_payload(std::uint64_t seq) const;
  [[nodiscard]] const std::vector<std::uint8_t>* payload_of(std::uint64_t seq) const;
  void try_recover();
  void release_ready();
  void release_one(std::uint64_t seq, std::vector<std::uint8_t> payload);
  void enforce_window();

  FecDecoderOptions options_;
  std::uint64_t next_expected_ = 1;
  std::uint64_t max_seen_ = 0;
  std::map<std::uint64_t, std::vector<std::uint8_t>> held_;    ///< undelivered payloads
  std::map<std::uint64_t, std::vector<std::uint8_t>> recent_;  ///< released, kept for XOR
  std::map<std::uint64_t, ParityBlock> parity_;                ///< pending blocks by first seq
  std::deque<capture::FrameEvent> out_;
  FecDecoderStats stats_;
};

}  // namespace mm::net::oracle
