#include "wps/remote.h"

#include <utility>

#include "util/thread_pool.h"

namespace mm::wps {

// --------------------------------------------------------------------------
// RemoteServer

RemoteServer::RemoteServer(const Service& service,
                           const RemoteServerOptions& options)
    : service_(service), options_(options), dedup_(options.dedup_window) {}

void RemoteServer::emit(const QueryResponse& response, const DedupKey& key,
                        bool cache,
                        std::vector<std::vector<std::uint8_t>>& frames_out) {
  const std::vector<net::WireFrame> frames =
      encode_response(response, key.stream_id, key.seq);
  std::vector<std::uint8_t> concat;
  for (const net::WireFrame& frame : frames) {
    std::vector<std::uint8_t> one;
    net::append_wire_frame(frame, one);
    if (cache) concat.insert(concat.end(), one.begin(), one.end());
    frames_out.push_back(std::move(one));
  }
  if (cache) dedup_.complete(key, std::move(concat));
  ++stats_.responses_sent;
}

void RemoteServer::on_bytes(std::span<const std::uint8_t> bytes,
                            std::vector<std::vector<std::uint8_t>>& frames_out) {
  decoder_.feed(bytes);
  net::WireFrame frame;
  while (decoder_.next(frame)) {
    ++stats_.frames_seen;
    if (frame.type != net::WireFrameType::kData) {
      ++stats_.non_data_frames;
      continue;
    }
    const DedupKey key{frame.stream_id, frame.seq};
    const std::vector<std::uint8_t>* cached = nullptr;
    switch (dedup_.lookup(key, &cached)) {
      case DedupCache::Lookup::kCached: {
        // Retransmit of a completed request: replay the original bytes —
        // never re-execute, so the answer cannot straddle a reload epoch.
        ++stats_.replayed;
        net::for_each_wire_frame(*cached, [&](std::span<const std::uint8_t> f) {
          frames_out.emplace_back(f.begin(), f.end());
        });
        ++stats_.responses_sent;
        continue;
      }
      case DedupCache::Lookup::kInFlight:
        // Already queued; the original execution will answer.
        ++stats_.absorbed_inflight;
        continue;
      case DedupCache::Lookup::kMiss:
        break;
    }
    const std::optional<QueryRequest> req = decode_request(frame.payload);
    if (req.has_value()) {
      ++stats_.requests_decoded;
      switch (req->op) {
        case QueryOp::kLookup: ++stats_.lookup_requests; break;
        case QueryOp::kNearest: ++stats_.nearest_requests; break;
        case QueryOp::kRange: ++stats_.range_requests; break;
      }
    } else {
      ++stats_.bad_requests;
    }
    if (queue_.size() >= options_.max_queue) {
      // Shed loudly: an explicit refusal the client can retry against.
      // Not cached and never begin()'d — a later retransmit competes for
      // queue space afresh.
      ++stats_.shed;
      QueryResponse refusal;
      refusal.op = req.has_value() ? req->op : QueryOp::kLookup;
      refusal.status = QueryStatus::kRetryAfter;
      emit(refusal, key, /*cache=*/false, frames_out);
      continue;
    }
    dedup_.begin(key);
    Pending pending;
    pending.key = key;
    if (req.has_value()) {
      pending.request = *req;
    } else {
      pending.bad = true;
    }
    queue_.push_back(pending);
  }
}

void RemoteServer::drain(std::vector<std::vector<std::uint8_t>>& frames_out) {
  if (queue_.empty()) return;
  std::vector<QueryResponse> responses(queue_.size());
  const std::size_t parallelism = options_.threads == 0
                                      ? util::ThreadPool::default_parallelism()
                                      : options_.threads;
  util::parallel_map_into(
      util::ThreadPool::shared(), parallelism, responses,
      [&](std::size_t i) -> QueryResponse {
        const Pending& p = queue_[i];
        if (p.bad) {
          QueryResponse r;
          r.status = QueryStatus::kBadRequest;
          return r;
        }
        return execute_query(service_, p.request);
      });
  for (std::size_t i = 0; i < queue_.size(); ++i) {
    if (!queue_[i].bad) ++stats_.executed;
    stats_.records_returned += responses[i].aps.size();
    emit(responses[i], queue_[i].key, /*cache=*/true, frames_out);
  }
  queue_.clear();
}

// --------------------------------------------------------------------------
// RemoteClient

RemoteClient::RemoteClient(const RemoteClientOptions& options)
    : options_(options), policy_(options.retry), breaker_(options.breaker) {}

std::uint64_t RemoteClient::issue(const QueryRequest& request,
                                  std::uint64_t now_ms) {
  const std::uint64_t seq = next_seq_++;
  Pending p;
  p.request = request;
  p.issued_ms = now_ms;
  p.next_tx_ms = now_ms;
  pending_.emplace(seq, std::move(p));
  ++stats_.issued;
  return seq;
}

void RemoteClient::finalize(std::uint64_t seq, Pending& p, OutcomeKind kind,
                            QueryResponse response, std::uint64_t now_ms) {
  Outcome outcome;
  outcome.request_id = seq;
  outcome.kind = kind;
  outcome.response = std::move(response);
  outcome.attempts = p.attempts;
  outcome.issued_ms = p.issued_ms;
  outcome.completed_ms = now_ms;
  switch (kind) {
    case OutcomeKind::kAnswered:
      ++stats_.answered;
      breaker_.record_success(now_ms);
      break;
    case OutcomeKind::kShed:
      ++stats_.shed;
      breaker_.record_failure(now_ms);
      break;
    case OutcomeKind::kTimedOut:
      ++stats_.timed_out;
      breaker_.record_failure(now_ms);
      break;
    case OutcomeKind::kCircuitOpen:
      ++stats_.circuit_open;
      break;
  }
  outcomes_.push_back(std::move(outcome));
}

void RemoteClient::tick(std::uint64_t now_ms,
                        std::vector<std::vector<std::uint8_t>>& frames_out) {
  std::vector<std::uint64_t> done;
  for (auto& [seq, p] : pending_) {
    if (!p.in_flight && now_ms >= p.next_tx_ms) {
      if (p.attempts == 0 && !breaker_.allow(now_ms)) {
        finalize(seq, p, OutcomeKind::kCircuitOpen, {}, now_ms);
        done.push_back(seq);
        continue;
      }
      net::WireFrame frame;
      frame.type = net::WireFrameType::kData;
      frame.stream_id = options_.stream_id;
      frame.seq = seq;
      frame.payload = encode_request(p.request);
      std::vector<std::uint8_t> bytes;
      net::append_wire_frame(frame, bytes);
      frames_out.push_back(std::move(bytes));
      ++p.attempts;
      ++stats_.transmissions;
      if (p.attempts > 1) ++stats_.retransmissions;
      p.in_flight = true;
      p.deadline_ms = now_ms + policy_.options().timeout_ms;
      continue;
    }
    if (p.in_flight && now_ms >= p.deadline_ms) {
      if (policy_.exhausted(p.attempts)) {
        finalize(seq, p, OutcomeKind::kTimedOut, {}, now_ms);
        done.push_back(seq);
      } else {
        p.in_flight = false;
        p.next_tx_ms = now_ms + policy_.retry_delay_ms(seq, p.attempts);
      }
    }
  }
  for (std::uint64_t seq : done) pending_.erase(seq);
}

void RemoteClient::on_bytes(std::span<const std::uint8_t> bytes,
                            std::uint64_t now_ms) {
  decoder_.feed(bytes);
  net::WireFrame frame;
  while (decoder_.next(frame)) {
    if (frame.stream_id != options_.stream_id) {
      ++stats_.foreign_frames;
      continue;
    }
    const std::optional<std::uint64_t> completed = assembler_.feed(frame);
    if (!completed.has_value()) continue;
    std::optional<QueryResponse> response = assembler_.take(*completed);
    if (!response.has_value()) continue;
    auto it = pending_.find(*completed);
    if (it == pending_.end()) {
      // Duplicate of an answer we already accepted, or a reply that lost
      // the race against timeout exhaustion.
      ++stats_.stale_responses;
      continue;
    }
    Pending& p = it->second;
    if (response->status == QueryStatus::kRetryAfter) {
      ++stats_.retry_after_seen;
      if (!p.in_flight) {
        // A duplicated refusal for an attempt we already rescheduled.
        ++stats_.stale_responses;
        continue;
      }
      if (policy_.exhausted(p.attempts)) {
        finalize(*completed, p, OutcomeKind::kShed, {}, now_ms);
        pending_.erase(it);
      } else {
        p.in_flight = false;
        p.next_tx_ms = now_ms + policy_.retry_delay_ms(*completed, p.attempts);
      }
      continue;
    }
    finalize(*completed, p, OutcomeKind::kAnswered, std::move(*response), now_ms);
    pending_.erase(it);
  }
}

std::vector<Outcome> RemoteClient::drain() {
  std::vector<Outcome> out = std::move(outcomes_);
  outcomes_.clear();
  return out;
}

// --------------------------------------------------------------------------
// LossyLoopback

LossyLoopback::LossyLoopback(RemoteClient& client, RemoteServer& server,
                             const LoopbackOptions& options)
    : client_(client),
      server_(server),
      options_(options),
      up_(options.up),
      down_(options.down) {}

void LossyLoopback::step() {
  std::vector<std::vector<std::uint8_t>> up_frames;
  client_.tick(now_ms_, up_frames);
  for (const auto& frame : up_frames) up_.send(frame);
  const std::vector<std::uint8_t> up_bytes = up_.take();

  std::vector<std::vector<std::uint8_t>> down_frames;
  server_.on_bytes(up_bytes, down_frames);
  server_.drain(down_frames);
  for (const auto& frame : down_frames) down_.send(frame);
  const std::vector<std::uint8_t> down_bytes = down_.take();

  client_.on_bytes(down_bytes, now_ms_);
  now_ms_ += options_.step_ms;
}

namespace {

/// Safety valve: run() stops after this many steps even if the client is not
/// idle (a correctness bug, surfaced by the caller's accounting checks).
constexpr std::uint64_t kMaxLoopbackSteps = 100000;

}  // namespace

std::uint64_t LossyLoopback::run() {
  std::uint64_t steps = 0;
  // Termination needs no link flush: a frame parked behind reorder delay is
  // released by retransmission traffic, and a request that never hears back
  // finalizes through timeout exhaustion regardless.
  while (!client_.idle() && steps < kMaxLoopbackSteps) {
    step();
    ++steps;
  }
  return steps;
}

}  // namespace mm::wps
