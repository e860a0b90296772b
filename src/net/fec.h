// Lattice FEC: XOR parity over blocks of data frames (DESIGN.md §12).
//
// Every data payload is the fixed-size durability WAL record codec (the
// event's stream sequence + fields, kWalPayloadBytes = 81). After every k
// data frames the encoder emits one parity frame whose payload is the XOR of
// the block's k payloads; because all payloads share one size, recovering a
// single loss is the XOR of the parity with the k-1 survivors — and because
// the sequence number is *inside* the payload, the reconstructed frame
// carries its own identity. One parity per block means any single loss per
// block is recoverable (overhead 1/k); a double loss is an unrecoverable
// gap, which the decoder counts and skips — it never stalls the stream and
// never throws.
//
// The decoder releases events in strictly ascending sequence order. When
// every loss is recoverable, the released stream is bit-identical to the
// lossless stream — the invariant pipeline_net_test pins against Riptide.
// Sequences that cannot be released within the reorder window (or by
// stream end) are counted in unrecoverable_gaps and skipped.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <vector>

#include "capture/frame_event.h"
#include "net/wire_codec.h"

namespace mm::net {

/// Encoder-side counters.
struct FecEncoderStats {
  std::uint64_t data_frames = 0;
  std::uint64_t parity_frames = 0;
  std::uint64_t data_bytes = 0;    ///< wire bytes carrying events
  std::uint64_t parity_bytes = 0;  ///< wire bytes of redundancy
};

/// Frames one event stream for the wire. `block_k` data frames per parity
/// frame; 0 disables parity entirely (framing + CRC only).
class FecEncoder {
 public:
  FecEncoder(std::uint32_t stream_id, std::size_t block_k);

  /// Appends the data frame for (seq, event) — sequences must be handed in
  /// ascending, gap-free order (the feed's 1-based counter) — plus the parity
  /// frame whenever a block completes.
  void push(std::uint64_t seq, const capture::FrameEvent& event,
            std::vector<std::uint8_t>& wire_out);

  /// Emits parity for a partial trailing block (stream end / idle flush).
  void flush(std::vector<std::uint8_t>& wire_out);

  [[nodiscard]] const FecEncoderStats& stats() const noexcept { return stats_; }
  [[nodiscard]] std::uint32_t stream_id() const noexcept { return stream_id_; }

 private:
  std::uint32_t stream_id_;
  std::size_t block_k_;
  std::vector<std::uint8_t> parity_;  ///< running XOR of the open block
  std::size_t in_block_ = 0;
  std::uint64_t block_first_seq_ = 0;
  FecEncoderStats stats_;
};

struct FecDecoderOptions {
  /// Sequences the decoder will hold open waiting for a late or recovered
  /// frame. Once the newest seen sequence runs this far ahead of the release
  /// cursor, the cursor skips (counting gaps) — a dead feed position can
  /// delay the stream, never wedge it. Must comfortably exceed block_k +
  /// the link's reorder depth.
  std::size_t reorder_window = 256;
};

/// Decoder-side health counters (all monotone; surfaced per feed in
/// `--stats-json`).
struct FecDecoderStats {
  std::uint64_t data_frames = 0;
  std::uint64_t parity_frames = 0;
  std::uint64_t duplicates = 0;          ///< same sequence delivered again
  std::uint64_t out_of_order = 0;        ///< data frames arriving behind newer ones
  std::uint64_t recovered = 0;           ///< losses rebuilt from parity
  std::uint64_t unrecoverable_gaps = 0;  ///< sequences skipped for good
  std::uint64_t recoveries_late = 0;     ///< parity arrived after the gap was skipped
  std::uint64_t bad_payloads = 0;        ///< CRC-clean frame, malformed record
};

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

}  // namespace mm::net
