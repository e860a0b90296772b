#include "net/fec.h"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace mm::net {

FecEncoder::FecEncoder(std::uint32_t stream_id, std::size_t block_k)
    : stream_id_(stream_id), block_k_(block_k) {
  if (block_k_ > kMaxFecBlockK) {
    throw std::invalid_argument("FecEncoder: block_k exceeds the wire's u16 field");
  }
  parity_.assign(durability::kWalPayloadBytes, 0);
}

void FecEncoder::push(std::uint64_t seq, const capture::FrameEvent& event,
                      std::vector<std::uint8_t>& wire_out) {
  WireFrame frame;
  frame.type = WireFrameType::kData;
  frame.stream_id = stream_id_;
  frame.seq = seq;
  frame.payload.resize(durability::kWalPayloadBytes);
  durability::encode_wal_payload(seq, event, frame.payload.data());
  append_wire_frame(frame, wire_out);
  ++stats_.data_frames;
  stats_.data_bytes += kWireHeaderBytes + frame.payload.size();

  if (block_k_ == 0) return;
  if (in_block_ == 0) block_first_seq_ = seq;
  for (std::size_t i = 0; i < parity_.size(); ++i) parity_[i] ^= frame.payload[i];
  if (++in_block_ == block_k_) flush(wire_out);
}

void FecEncoder::flush(std::vector<std::uint8_t>& wire_out) {
  if (in_block_ == 0) return;
  WireFrame frame;
  frame.type = WireFrameType::kParity;
  frame.stream_id = stream_id_;
  frame.seq = block_first_seq_;
  frame.block_k = static_cast<std::uint16_t>(in_block_);
  frame.payload = parity_;
  append_wire_frame(frame, wire_out);
  ++stats_.parity_frames;
  stats_.parity_bytes += kWireHeaderBytes + frame.payload.size();
  parity_.assign(parity_.size(), 0);
  in_block_ = 0;
}

FecDecoder::FecDecoder(FecDecoderOptions options)
    : window_(std::clamp<std::size_t>(options.reorder_window, 2, kMaxReorderWindow)),
      ring_(2 * window_) {}

void FecDecoder::push(const WireFrame& frame) {
  const bool data = frame.type == WireFrameType::kData;
  ++(data ? stats_.data_frames : stats_.parity_frames);
  if (frame.payload.size() != durability::kWalPayloadBytes) {
    ++stats_.bad_payloads;
    return;
  }
  // The last sequence the frame names; above this bound it is refused, so
  // cursor + window never wraps.
  const std::uint64_t last_seq = std::numeric_limits<std::uint64_t>::max() - window_;
  if (data) {
    const std::uint64_t seq = frame.seq;
    if (seq == 0 || seq < next_expected_ || have(seq)) {
      ++stats_.duplicates;
      return;
    }
    if (seq > last_seq) {
      ++stats_.bad_payloads;
      return;
    }
    if (seq < max_seen_) ++stats_.out_of_order;
    if (seq > max_seen_) max_seen_ = seq;
    store(seq, frame.payload.data());
  } else {
    const std::uint64_t first = frame.seq;
    const std::uint64_t k = frame.block_k;
    // A parity frame must name a real block, inside the sequence bound.
    if (first == 0 || k == 0 || first - 1 > last_seq - k) {
      ++stats_.bad_payloads;
      return;
    }
    const auto at = std::lower_bound(
        parity_.begin(), parity_.end(), first,
        [](const ParityBlock& block, std::uint64_t seq) { return block.first < seq; });
    if (at != parity_.end() && at->first == first) {
      ++stats_.duplicates;
      return;
    }
    // Behind the cursor means every covered sequence was already released or
    // skipped for good: the parity is satisfied, not duplicated — on a clean
    // in-order stream this is the fate of *every* parity frame.
    if (first + k <= next_expected_) return;
    ParityBlock& block = *parity_.insert(at, ParityBlock{first, k, {}});
    std::copy_n(frame.payload.data(), block.payload.size(), block.payload.begin());
    // A parity frame proves the block's data frames were sent: let the
    // window make progress past a fully-lost block instead of waiting for
    // data that will never come.
    if (first + k - 1 > max_seen_) max_seen_ = first + k - 1;
  }
  try_recover();
  advance_window();
  if (deferred_.seq != 0) {
    slot(deferred_.seq) = deferred_;
    deferred_.seq = 0;
  }
  while (have(next_expected_)) pass_cursor();
}

void FecDecoder::store(std::uint64_t seq, const std::uint8_t* payload) {
  // A sequence a window or more past the cursor would land on a slot that a
  // held or still-needed payload may occupy: keep it aside until the window
  // has advanced past that payload. Only the pushed frame (or the one loss
  // its parity rebuilds) can lie that far out, so one slot aside suffices.
  Slot& target = seq - next_expected_ < window_ ? slot(seq) : deferred_;
  target.seq = seq;
  std::copy_n(payload, target.payload.size(), target.payload.begin());
}

bool FecDecoder::settle(const ParityBlock& block) {
  const std::uint64_t end = block.first + block.k;
  // Whole block behind the release cursor: everything in it was either
  // released or skipped for good — this parity can no longer help.
  if (end <= next_expected_) return true;
  std::uint64_t missing_seq = 0;
  std::size_t missing = 0;
  for (std::uint64_t seq = block.first; seq < end && missing < 2; ++seq) {
    if (!have(seq)) {
      missing_seq = seq;
      ++missing;
    }
  }
  if (missing >= 2) return false;  // a double loss; hold the parity in case a straggler arrives
  if (missing == 0) return true;   // block fully delivered; parity satisfied
  if (missing_seq < next_expected_) {
    // The gap was already skipped by the window; reviving the sequence now
    // would release it out of order. Count the miss and move on.
    ++stats_.recoveries_late;
    return true;
  }
  // XOR the parity with the k-1 survivors: what remains is the lost
  // payload, sequence number and all (it is encoded inside).
  Payload acc = block.payload;
  for (std::uint64_t seq = block.first; seq < end; ++seq) {
    if (seq == missing_seq) continue;
    const Payload& survivor = slot(seq).payload;
    for (std::size_t i = 0; i < acc.size(); ++i) acc[i] ^= survivor[i];
  }
  store(missing_seq, acc.data());
  ++stats_.recovered;
  return true;
}

void FecDecoder::try_recover() {
  // One pass in ascending first sequence; a rebuilt payload is visible to
  // the blocks after it, and settled blocks are compacted out in place.
  std::size_t kept = 0;
  for (std::size_t i = 0; i < parity_.size(); ++i) {
    if (settle(parity_[i])) continue;
    if (kept != i) parity_[kept] = parity_[i];
    ++kept;
  }
  parity_.resize(kept);
}

void FecDecoder::pass_cursor() {
  if (!have(next_expected_)) {
    ++stats_.unrecoverable_gaps;
  } else if (durability::WalRecord record;
             decode_wal_payload(slot(next_expected_).payload, record)) {
    out_.push_back(record.event);
  } else {
    ++stats_.bad_payloads;
  }
  ++next_expected_;
}

void FecDecoder::advance_window() {
  if (max_seen_ < next_expected_ || max_seen_ - next_expected_ < window_) return;
  const std::uint64_t target = max_seen_ - window_ + 1;
  // Held payloads lie in [cursor, cursor + window): past that the jump holds
  // nothing but holes, counted in one step.
  const std::uint64_t walk_end = next_expected_ + std::min(target - next_expected_, window_);
  while (next_expected_ < walk_end) pass_cursor();
  stats_.unrecoverable_gaps += target - next_expected_;
  next_expected_ = target;
}

bool FecDecoder::next(capture::FrameEvent& out) {
  if (out_head_ == out_.size()) {
    out_.clear();
    out_head_ = 0;
    return false;
  }
  out = out_[out_head_++];
  return true;
}

void FecDecoder::finish() {
  try_recover();
  // Everything held lies in [cursor, max_seen]; parity frames may have
  // testified to data past the last arrival, so the tail is a gap too.
  while (next_expected_ <= max_seen_) pass_cursor();
  parity_.clear();
}

}  // namespace mm::net
