// Lattice feed mux: N remote sniffer byte streams in, one Riptide ingest
// stream out (DESIGN.md §12).
//
// Each feed owns a WireDecoder (framing + CRC resync) and a FecDecoder
// (duplicate suppression keyed on the per-stream sequence, reassembly
// window, XOR-parity recovery, gap accounting). Released events are stamped
// with the mux's global 1-based stream_seq — in release order — and pushed
// into the LiveTracker. That preserves Phoenix's exactly-once contract: a
// shard's dedup cursor is a monotone high-water mark over arrival
// sequences, and the mux's release order is a pure function of the chunk
// sequence it was fed, so re-pumping the same recorded streams after a
// crash reproduces the same global sequences and recovery stays
// bit-identical (pipeline_net_test pins this).
//
// Threading: one pump thread owns the mux (on_bytes/finish); the tracker's
// rings do the cross-thread handoff, exactly like the pcap feed.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "net/fec.h"
#include "net/wire_codec.h"
#include "pipeline/live_tracker.h"

namespace mm::pipeline {

/// Per-feed health surface (rendered into `--stats-json`'s "net" section).
struct FeedStats {
  std::uint32_t stream_id = 0;
  net::WireDecoderStats wire{};
  net::FecDecoderStats fec{};
  std::uint64_t stream_mismatches = 0;  ///< frames carrying a foreign stream id
  std::uint64_t events_delivered = 0;   ///< events handed to the tracker
  std::uint64_t events_dropped = 0;     ///< refused by a full ring (kDropNewest)
  /// The feed lost information: frames resynced/CRC-failed on the wire or
  /// sequences skipped past parity's reach. A degraded feed still flows —
  /// the attack works on gappy capture — but the operator should know.
  [[nodiscard]] bool degraded() const noexcept {
    return wire.crc_failures > 0 || wire.resync_bytes > 0 ||
           fec.unrecoverable_gaps > 0 || fec.bad_payloads > 0;
  }
};

struct FeedMuxStats {
  std::vector<FeedStats> feeds;
  std::uint64_t events_delivered = 0;  ///< sum over feeds
  std::uint64_t events_dropped = 0;
  std::uint64_t last_stream_seq = 0;   ///< global sequences assigned so far
};

class SnifferFeedMux {
 public:
  /// The tracker must be start()ed and outlive the mux.
  SnifferFeedMux(LiveTracker& tracker, net::FecDecoderOptions fec_options = {});

  /// Registers one remote feed; frames whose stream id differs are counted
  /// and ignored (a misdirected cable must not poison another feed's
  /// sequence space). Returns the feed index for on_bytes().
  std::size_t add_feed(std::uint32_t stream_id);

  /// Pumps one received chunk (any fragmentation) through the feed's
  /// decoders and pushes every released event into the tracker.
  void on_bytes(std::size_t feed, std::span<const std::uint8_t> bytes);

  /// End of all streams: drains every feed's reassembly state (counting
  /// final gaps) and pushes the remaining events.
  void finish();

  [[nodiscard]] FeedMuxStats stats() const;

 private:
  struct Feed {
    std::uint32_t stream_id = 0;
    net::WireDecoder wire;
    net::FecDecoder fec;
    std::uint64_t stream_mismatches = 0;
    std::uint64_t events_delivered = 0;
    std::uint64_t events_dropped = 0;
  };

  void drain_events(Feed& feed);

  LiveTracker& tracker_;
  net::FecDecoderOptions fec_options_;
  std::vector<Feed> feeds_;
  std::uint64_t next_seq_ = 0;
};

}  // namespace mm::pipeline
