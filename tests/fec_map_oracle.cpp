// The map-based FEC decoder, verbatim from src/net/fec.cpp before the slot
// ring replaced it (see fec_map_oracle.h).
#include "fec_map_oracle.h"

#include "durability/wal.h"

namespace mm::net::oracle {

FecDecoder::FecDecoder(FecDecoderOptions options) : options_(options) {
  if (options_.reorder_window < 2) options_.reorder_window = 2;
}

bool FecDecoder::have_payload(std::uint64_t seq) const {
  return held_.count(seq) != 0 || recent_.count(seq) != 0;
}

const std::vector<std::uint8_t>* FecDecoder::payload_of(std::uint64_t seq) const {
  if (const auto it = held_.find(seq); it != held_.end()) return &it->second;
  if (const auto it = recent_.find(seq); it != recent_.end()) return &it->second;
  return nullptr;
}

void FecDecoder::push(const WireFrame& frame) {
  if (frame.type == WireFrameType::kData) {
    ++stats_.data_frames;
    const std::uint64_t seq = frame.seq;
    if (seq == 0 || seq < next_expected_ || held_.count(seq) != 0) {
      ++stats_.duplicates;
      return;
    }
    if (seq < max_seen_) ++stats_.out_of_order;
    held_.emplace(seq, frame.payload);
    if (seq > max_seen_) max_seen_ = seq;
  } else {
    ++stats_.parity_frames;
    const std::uint64_t first = frame.seq;
    const std::uint64_t k = frame.block_k;
    if (first == 0 || k == 0) {
      ++stats_.bad_payloads;  // a parity frame must name a real block
      return;
    }
    if (parity_.count(first) != 0) {
      ++stats_.duplicates;
      return;
    }
    // Behind the cursor means every covered sequence was already released or
    // skipped for good: the parity is satisfied, not duplicated — on a clean
    // in-order stream this is the fate of *every* parity frame.
    if (first + k <= next_expected_) return;
    parity_.emplace(first,
                    ParityBlock{frame.block_k, frame.payload});
    // A parity frame proves the block's data frames were sent: let the
    // window make progress past a fully-lost block instead of waiting for
    // data that will never come.
    if (first + k - 1 > max_seen_) max_seen_ = first + k - 1;
  }
  try_recover();
  release_ready();
  enforce_window();
}

void FecDecoder::try_recover() {
  for (auto it = parity_.begin(); it != parity_.end();) {
    const std::uint64_t first = it->first;
    const std::uint64_t k = it->second.k;
    if (first + k <= next_expected_) {
      // Whole block behind the release cursor: everything in it was either
      // released or skipped for good — this parity can no longer help.
      it = parity_.erase(it);
      continue;
    }
    std::uint64_t missing_seq = 0;
    std::size_t missing = 0;
    for (std::uint64_t seq = first; seq < first + k && missing < 2; ++seq) {
      if (!have_payload(seq)) {
        missing_seq = seq;
        ++missing;
      }
    }
    if (missing >= 2) {
      ++it;  // a double loss; hold the parity in case a straggler arrives
      continue;
    }
    if (missing == 0) {
      it = parity_.erase(it);  // block fully delivered; parity satisfied
      continue;
    }
    if (missing_seq < next_expected_) {
      // The gap was already skipped by the window; reviving the sequence now
      // would release it out of order. Count the miss and move on.
      ++stats_.recoveries_late;
      it = parity_.erase(it);
      continue;
    }
    // XOR the parity with the k-1 survivors: what remains is the lost
    // payload, sequence number and all (it is encoded inside).
    std::vector<std::uint8_t> acc = it->second.payload;
    bool consistent = true;
    for (std::uint64_t seq = first; seq < first + k && consistent; ++seq) {
      if (seq == missing_seq) continue;
      const std::vector<std::uint8_t>* survivor = payload_of(seq);
      if (survivor == nullptr || survivor->size() != acc.size()) {
        consistent = false;
        break;
      }
      for (std::size_t i = 0; i < acc.size(); ++i) acc[i] ^= (*survivor)[i];
    }
    if (!consistent) {
      ++stats_.bad_payloads;
      it = parity_.erase(it);
      continue;
    }
    held_.emplace(missing_seq, std::move(acc));
    ++stats_.recovered;
    it = parity_.erase(it);
  }
}

void FecDecoder::release_one(std::uint64_t seq, std::vector<std::uint8_t> payload) {
  durability::WalRecord record;
  if (decode_wal_payload(payload, record)) {
    out_.push_back(record.event);
  } else {
    ++stats_.bad_payloads;
  }
  recent_.emplace(seq, std::move(payload));
  while (recent_.size() > options_.reorder_window) recent_.erase(recent_.begin());
  next_expected_ = seq + 1;
}

void FecDecoder::release_ready() {
  for (auto it = held_.find(next_expected_); it != held_.end();
       it = held_.find(next_expected_)) {
    std::vector<std::uint8_t> payload = std::move(it->second);
    held_.erase(it);
    release_one(next_expected_, std::move(payload));
  }
}

void FecDecoder::enforce_window() {
  while (max_seen_ >= next_expected_ + options_.reorder_window) {
    const auto it = held_.find(next_expected_);
    if (it != held_.end()) {
      std::vector<std::uint8_t> payload = std::move(it->second);
      held_.erase(it);
      release_one(next_expected_, std::move(payload));
    } else {
      ++stats_.unrecoverable_gaps;
      ++next_expected_;
    }
  }
  release_ready();
}

bool FecDecoder::next(capture::FrameEvent& out) {
  if (out_.empty()) return false;
  out = out_.front();
  out_.pop_front();
  return true;
}

void FecDecoder::finish() {
  try_recover();
  release_ready();
  while (!held_.empty()) {
    auto it = held_.begin();
    const std::uint64_t seq = it->first;
    stats_.unrecoverable_gaps += seq - next_expected_;
    std::vector<std::uint8_t> payload = std::move(it->second);
    held_.erase(it);
    release_one(seq, std::move(payload));
    release_ready();
  }
  if (max_seen_ >= next_expected_) {
    // Parity frames testified to data that never arrived past the last
    // released sequence: the tail of the stream is a gap too.
    stats_.unrecoverable_gaps += max_seen_ - next_expected_ + 1;
    next_expected_ = max_seen_ + 1;
  }
  parity_.clear();
}

}  // namespace mm::net::oracle
