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
//
// The decoder keeps one ring of 2 × reorder_window payload slots, tagged
// with their sequence and indexed by it modulo the ring. Held sequences lie
// in [cursor, cursor + window); slots behind the cursor are released history
// that pending parity may still XOR. A frame beyond the window is stored
// only after the window advances, so no store overwrites a payload that a
// block of at most `window` members can still use. A jump of any size costs
// O(window): the walk stops past the last slot that can be held and counts
// the rest as gaps in one step. Three rules bound what the ring honours:
//   * A CRC-clean frame whose payload is not kWalPayloadBytes long counts in
//     bad_payloads and is dropped on arrival, before it can move the window;
//     its sequence stays a hole that parity may fill or the window skips.
//   * A parity block longer than the window XORs against what the ring
//     still holds (a released payload stays until a sequence 2 × window
//     later is stored over it). A member that is gone reads as missing, so
//     the block then waits, as for a double loss, until the cursor passes.
//   * Sequences above 2^64 - 1 - window (within one window of 2^64) are
//     refused: such a data frame, or a parity block ending there, counts in
//     bad_payloads and is dropped. No feed gets there (2^63 events at 10^9
//     a second take 292 years), and no cursor + window sum can wrap.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "capture/frame_event.h"
#include "durability/wal.h"
#include "net/wire_codec.h"

namespace mm::net {

/// Encoder-side counters.
struct FecEncoderStats {
  std::uint64_t data_frames = 0;
  std::uint64_t parity_frames = 0;
  std::uint64_t data_bytes = 0;    ///< wire bytes carrying events
  std::uint64_t parity_bytes = 0;  ///< wire bytes of redundancy
};

/// The largest block the wire's u16 block_k field can name.
inline constexpr std::size_t kMaxFecBlockK = 65535;

/// Frames one event stream for the wire. `block_k` data frames per parity
/// frame; 0 disables parity entirely (framing + CRC only).
class FecEncoder {
 public:
  /// Throws std::invalid_argument when block_k exceeds kMaxFecBlockK — a
  /// caller bug: the wire cannot carry the block size.
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

/// The largest reorder window: its ring of 2 × 65,536 slots of 96 bytes
/// takes 12 MiB per feed, and a window this wide honours every block_k the
/// wire can carry.
inline constexpr std::size_t kMaxReorderWindow = std::size_t{1} << 16;

struct FecDecoderOptions {
  /// Sequences the decoder will hold open waiting for a late or recovered
  /// frame. Once the newest seen sequence runs this far ahead of the release
  /// cursor, the cursor skips (counting gaps) — a dead feed position can
  /// delay the stream, never wedge it. Must comfortably exceed block_k +
  /// the link's reorder depth. Clamped to [2, kMaxReorderWindow].
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
  using Payload = std::array<std::uint8_t, durability::kWalPayloadBytes>;
  /// A payload tagged with its sequence (0: the slot was never written).
  struct Slot {
    std::uint64_t seq = 0;
    Payload payload{};
  };
  struct ParityBlock {
    std::uint64_t first = 0;  ///< first covered sequence
    std::uint64_t k = 0;      ///< covered sequences
    Payload payload{};
  };

  [[nodiscard]] Slot& slot(std::uint64_t seq) { return ring_[seq % ring_.size()]; }
  [[nodiscard]] bool have(std::uint64_t seq) const {
    return ring_[seq % ring_.size()].seq == seq;
  }
  void store(std::uint64_t seq, const std::uint8_t* payload);
  [[nodiscard]] bool settle(const ParityBlock& block);
  void try_recover();
  /// Moves the cursor one sequence: releases the payload held there, or
  /// counts a gap.
  void pass_cursor();
  void advance_window();

  std::uint64_t window_;
  std::uint64_t next_expected_ = 1;
  std::uint64_t max_seen_ = 0;
  std::vector<Slot> ring_;                ///< 2 × window slots
  Slot deferred_;                         ///< a store beyond the window, kept until it advances
  std::vector<ParityBlock> parity_;       ///< pending blocks, ascending first sequence
  std::vector<capture::FrameEvent> out_;  ///< released, drained by next() from out_head_
  std::size_t out_head_ = 0;
  FecDecoderStats stats_;
};

}  // namespace mm::net
