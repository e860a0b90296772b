// Aegis: the fault-tolerant remote WPS serving tier (DESIGN.md §14).
//
// PR 7's Basilisk protocol (wps/query_codec.h) made WPS requests and
// responses wire frames; this layer makes the exchange survive a real
// network. The pieces compose the reliability primitives of
// wps/reliability.h around the existing codec — the codec itself, and the
// bit-identical-to-local-Service result contract, are untouched:
//
//   RemoteClient   issues requests with 8-byte request ids (the frame seq),
//                  retransmits on deterministic seeded timeout/backoff,
//                  honors a per-server circuit breaker, and finalizes every
//                  request into exactly one Outcome — answered, shed,
//                  timed out, or circuit-open. Zero silent losses: issued ==
//                  sum(outcomes), always.
//   RemoteServer   decodes the upstream byte soup, absorbs retransmits
//                  through the dedup window (a retried nearest_k never
//                  re-executes, so it can never straddle a snapshot reload),
//                  sheds with an explicit kRetryAfter response when the
//                  bounded queue is full, and executes batches in
//                  deterministic parallel over the shared pool.
//   LossyLoopback  wires one client to one server through two seeded
//                  LinkSimulators (independent fault plans per direction) on
//                  a virtual millisecond clock — the in-process chaos
//                  harness behind wps_remote_test and bench_wps_chaos.
//
// Everything here is event-driven on caller-supplied milliseconds and
// per-frame byte vectors (one frame == one UDP datagram in mmctl), so the
// same state machines run under virtual time in tests and wall-clock time in
// `mmctl wps-serve` (over UDP or a byte stream) / `wps-query send` — and a
// given (seed, plan, workload) triple replays byte-identically.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <vector>

#include "fault/fault_plan.h"
#include "net/link_sim.h"
#include "net/wire_codec.h"
#include "wps/query_codec.h"
#include "wps/reliability.h"
#include "wps/service.h"

namespace mm::wps {

// --------------------------------------------------------------------------
// Server

struct RemoteServerOptions {
  /// Requests admitted but not yet executed; arrivals beyond this are shed.
  std::size_t max_queue = 256;
  /// Completed responses remembered for retransmit replay.
  std::size_t dedup_window = 4096;
  /// Batch execution parallelism (0 = ThreadPool::default_parallelism()).
  std::size_t threads = 1;
};

struct RemoteServerStats {
  std::uint64_t frames_seen = 0;       ///< well-formed wire frames decoded
  std::uint64_t non_data_frames = 0;   ///< parity/unknown frames ignored
  std::uint64_t requests_decoded = 0;  ///< parseable request payloads
  std::uint64_t lookup_requests = 0;   ///< requests_decoded, split by op
  std::uint64_t nearest_requests = 0;
  std::uint64_t range_requests = 0;
  std::uint64_t bad_requests = 0;      ///< undecodable payloads (answered kBadRequest)
  std::uint64_t executed = 0;          ///< queries actually run against the Service
  std::uint64_t shed = 0;              ///< kRetryAfter refusals (queue full)
  std::uint64_t replayed = 0;          ///< responses re-sent from the dedup cache
  std::uint64_t absorbed_inflight = 0; ///< retransmits swallowed while queued
  std::uint64_t responses_sent = 0;    ///< responses emitted (incl. replays + sheds)
  std::uint64_t records_returned = 0;  ///< AP records in executed responses
                                       ///< (a replay is not counted again)
};

/// One serving endpoint over a Service. Feed it upstream bytes in any
/// fragmentation; it emits responses as per-frame byte vectors (each element
/// one wire frame — one datagram). Retransmits are absorbed by the dedup
/// window: a request id is executed at most once, ever, no matter how many
/// copies of it the link manufactures.
class RemoteServer {
 public:
  RemoteServer(const Service& service, const RemoteServerOptions& options);

  /// Decodes upstream bytes. Dedup replays and shed refusals are appended to
  /// `frames_out` immediately; fresh requests queue for drain().
  void on_bytes(std::span<const std::uint8_t> bytes,
                std::vector<std::vector<std::uint8_t>>& frames_out);

  /// Executes every queued request (deterministic parallel batch), appends
  /// the responses in arrival order, and records them in the dedup window.
  void drain(std::vector<std::vector<std::uint8_t>>& frames_out);

  [[nodiscard]] std::size_t queued() const noexcept { return queue_.size(); }
  [[nodiscard]] const RemoteServerStats& stats() const noexcept { return stats_; }
  [[nodiscard]] const DedupStats& dedup_stats() const noexcept {
    return dedup_.stats();
  }
  [[nodiscard]] const net::WireDecoderStats& decoder_stats() const noexcept {
    return decoder_.stats();
  }
  /// Upstream bytes held back as an incomplete frame (at the end of a byte
  /// stream: its torn tail).
  [[nodiscard]] std::size_t buffered() const noexcept { return decoder_.buffered(); }

 private:
  struct Pending {
    DedupKey key;
    QueryRequest request;
    bool bad = false;  ///< undecodable payload: answer kBadRequest
  };

  void emit(const QueryResponse& response, const DedupKey& key, bool cache,
            std::vector<std::vector<std::uint8_t>>& frames_out);

  const Service& service_;
  RemoteServerOptions options_;
  net::WireDecoder decoder_;
  DedupCache dedup_;
  std::vector<Pending> queue_;
  RemoteServerStats stats_;
};

// --------------------------------------------------------------------------
// Client

struct RemoteClientOptions {
  std::uint32_t stream_id = 1;  ///< this client's identity on the wire
  RetryOptions retry;
  BreakerOptions breaker;
};

/// Terminal classification of one issued request. Exactly one per issue().
enum class OutcomeKind : std::uint8_t {
  kAnswered = 0,     ///< server responded (status kOk or kBadRequest)
  kShed = 1,         ///< every attempt drew a kRetryAfter refusal
  kTimedOut = 2,     ///< every attempt's deadline passed unanswered
  kCircuitOpen = 3,  ///< breaker refused the first transmission
};

struct Outcome {
  std::uint64_t request_id = 0;
  OutcomeKind kind = OutcomeKind::kAnswered;
  QueryResponse response;  ///< populated only for kAnswered
  int attempts = 0;        ///< transmissions spent
  std::uint64_t issued_ms = 0;
  std::uint64_t completed_ms = 0;
};

struct RemoteClientStats {
  std::uint64_t issued = 0;
  std::uint64_t answered = 0;
  std::uint64_t shed = 0;
  std::uint64_t timed_out = 0;
  std::uint64_t circuit_open = 0;
  std::uint64_t transmissions = 0;
  std::uint64_t retransmissions = 0;     ///< transmissions beyond each first
  std::uint64_t retry_after_seen = 0;    ///< kRetryAfter responses observed
  std::uint64_t stale_responses = 0;     ///< responses for already-final requests
  std::uint64_t foreign_frames = 0;      ///< frames for another stream_id
};

/// The retrying request side. Fully event-driven: issue() registers work,
/// tick() advances the virtual clock (transmitting, retransmitting, timing
/// out), on_bytes() consumes downstream bytes, drain() yields finalized
/// Outcomes. Callers own the clock — tests and bench_wps_chaos drive
/// milliseconds forward deterministically; mmctl feeds steady_clock.
class RemoteClient {
 public:
  explicit RemoteClient(const RemoteClientOptions& options);

  /// Registers a request; returns its request id (the wire seq, monotone
  /// from 1). It first transmits on the next tick().
  std::uint64_t issue(const QueryRequest& request, std::uint64_t now_ms);

  /// Advances to now_ms: due (re)transmissions are appended to `frames_out`
  /// (one encoded wire frame per element), expired attempts are retried or
  /// finalized per the RetryPolicy, and breaker verdicts are applied.
  void tick(std::uint64_t now_ms, std::vector<std::vector<std::uint8_t>>& frames_out);

  /// Consumes server->client bytes (any fragmentation, any damage).
  void on_bytes(std::span<const std::uint8_t> bytes, std::uint64_t now_ms);

  /// No request is awaiting transmission or response.
  [[nodiscard]] bool idle() const noexcept { return pending_.empty(); }

  /// Moves out every Outcome finalized since the last drain, in completion
  /// order.
  [[nodiscard]] std::vector<Outcome> drain();

  [[nodiscard]] const RemoteClientStats& stats() const noexcept { return stats_; }
  [[nodiscard]] const BreakerStats& breaker_stats() const noexcept {
    return breaker_.stats();
  }
  [[nodiscard]] const net::WireDecoderStats& decoder_stats() const noexcept {
    return decoder_.stats();
  }
  [[nodiscard]] const ResponseAssembler& assembler() const noexcept {
    return assembler_;
  }

 private:
  struct Pending {
    QueryRequest request;
    int attempts = 0;           ///< transmissions so far
    bool in_flight = false;     ///< awaiting a response (deadline_ms armed)
    std::uint64_t next_tx_ms = 0;
    std::uint64_t deadline_ms = 0;
    std::uint64_t issued_ms = 0;
  };

  void finalize(std::uint64_t seq, Pending& p, OutcomeKind kind,
                QueryResponse response, std::uint64_t now_ms);

  RemoteClientOptions options_;
  RetryPolicy policy_;
  CircuitBreaker breaker_;
  net::WireDecoder decoder_;
  ResponseAssembler assembler_;
  std::map<std::uint64_t, Pending> pending_;  ///< ordered: deterministic ticks
  std::vector<Outcome> outcomes_;
  std::uint64_t next_seq_ = 1;
  RemoteClientStats stats_;
};

// --------------------------------------------------------------------------
// In-process chaos harness

struct LoopbackOptions {
  fault::FaultPlan up;    ///< client -> server damage
  fault::FaultPlan down;  ///< server -> client damage
  std::uint64_t step_ms = 10;
};

/// One client and one server joined by two independently seeded lossy links,
/// pumped on a virtual clock. Each step: client tick -> up link -> server
/// (dedup/shed then execute) -> down link -> client. Links are flushed when
/// the client goes idle so no delayed frame is stranded.
class LossyLoopback {
 public:
  LossyLoopback(RemoteClient& client, RemoteServer& server,
                const LoopbackOptions& options);

  /// Pumps until the client is idle, or for at most kMaxLoopbackSteps
  /// (remote.cpp). Returns steps run.
  std::uint64_t run();

  /// One pump step (advances the clock by step_ms).
  void step();

  [[nodiscard]] std::uint64_t now_ms() const noexcept { return now_ms_; }
  [[nodiscard]] const net::LinkStats& up_stats() const noexcept {
    return up_.stats();
  }
  [[nodiscard]] const net::LinkStats& down_stats() const noexcept {
    return down_.stats();
  }

 private:
  RemoteClient& client_;
  RemoteServer& server_;
  LoopbackOptions options_;
  net::LinkSimulator up_;
  net::LinkSimulator down_;
  std::uint64_t now_ms_ = 0;
};

}  // namespace mm::wps
