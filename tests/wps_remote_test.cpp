// Aegis end-to-end contracts, pumped entirely on the virtual-clock loopback:
// bit-identity with the local Service, zero silent losses under damage,
// idempotent retransmits, explicit shedding, breaker cutoff, and replay
// determinism.
#include "wps/remote.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <filesystem>
#include <vector>

#include "marauder/ap_database.h"
#include "net80211/mac_address.h"
#include "unique_temp_path.h"
#include "util/rng.h"
#include "wps/service.h"
#include "wps/snapshot_writer.h"

namespace mm::wps {
namespace {

namespace fs = std::filesystem;

constexpr std::uint64_t kBssidBase = 0x02ce0000000ULL;

marauder::ApDatabase small_city(std::size_t n, std::uint64_t seed) {
  marauder::ApDatabase db;
  util::Rng rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    marauder::KnownAp ap;
    ap.bssid = net80211::MacAddress::from_u64(kBssidBase + i);
    ap.position = {rng.uniform(-3000.0, 3000.0), rng.uniform(-3000.0, 3000.0)};
    if (rng.bernoulli(0.5)) ap.radius_m = rng.uniform(20.0, 120.0);
    db.add(std::move(ap));
  }
  return db;
}

Service open_city(const std::string& name, std::size_t n, std::uint64_t seed) {
  const fs::path path = testing_support::unique_temp_path(name);
  fs::remove(path);
  SnapshotBuildOptions build;
  build.fsync = false;
  auto written = write_snapshot(small_city(n, seed), geo::Geodetic{}, path, build);
  EXPECT_TRUE(written.ok()) << written.error();
  auto service = Service::open(path);
  EXPECT_TRUE(service.ok()) << service.error();
  return std::move(service).value();
}

std::vector<QueryRequest> mixed_requests(std::size_t count, std::size_t n_aps,
                                         std::uint64_t seed) {
  std::vector<QueryRequest> requests;
  util::Rng rng(seed);
  for (std::size_t i = 0; i < count; ++i) {
    QueryRequest q;
    const double dice = rng.uniform(0.0, 1.0);
    if (dice < 0.4) {
      q.op = QueryOp::kLookup;
      q.bssid = kBssidBase + static_cast<std::uint64_t>(rng.uniform_int(
                                 0, static_cast<std::int64_t>(n_aps) - 1));
    } else if (dice < 0.8) {
      q.op = QueryOp::kNearest;
      q.k = static_cast<std::uint16_t>(rng.uniform_int(1, 9));
      q.center = {rng.uniform(-3000.0, 3000.0), rng.uniform(-3000.0, 3000.0)};
    } else {
      q.op = QueryOp::kRange;
      q.center = {rng.uniform(-3000.0, 3000.0), rng.uniform(-3000.0, 3000.0)};
      q.radius_m = rng.uniform(50.0, 300.0);
    }
    requests.push_back(q);
  }
  return requests;
}

bool bits_equal(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

void expect_same_response(const QueryResponse& got, const QueryResponse& want) {
  EXPECT_EQ(got.op, want.op);
  EXPECT_EQ(got.status, want.status);
  ASSERT_EQ(got.aps.size(), want.aps.size());
  for (std::size_t i = 0; i < got.aps.size(); ++i) {
    EXPECT_EQ(got.aps[i].bssid, want.aps[i].bssid);
    EXPECT_TRUE(bits_equal(got.aps[i].position.x, want.aps[i].position.x));
    EXPECT_TRUE(bits_equal(got.aps[i].position.y, want.aps[i].position.y));
    ASSERT_EQ(got.aps[i].radius_m.has_value(), want.aps[i].radius_m.has_value());
    if (got.aps[i].radius_m) {
      EXPECT_TRUE(bits_equal(*got.aps[i].radius_m, *want.aps[i].radius_m));
    }
  }
}

struct RunTally {
  std::size_t answered = 0;
  std::size_t shed = 0;
  std::size_t timed_out = 0;
  std::size_t circuit_open = 0;
  [[nodiscard]] std::size_t total() const {
    return answered + shed + timed_out + circuit_open;
  }
};

RunTally tally(const std::vector<Outcome>& outcomes) {
  RunTally t;
  for (const Outcome& o : outcomes) {
    switch (o.kind) {
      case OutcomeKind::kAnswered: ++t.answered; break;
      case OutcomeKind::kShed: ++t.shed; break;
      case OutcomeKind::kTimedOut: ++t.timed_out; break;
      case OutcomeKind::kCircuitOpen: ++t.circuit_open; break;
    }
  }
  return t;
}

TEST(WpsRemote, CleanLoopbackBitIdenticalToLocalService) {
  const Service service = open_city("mm_remote_clean.wps", 800, 31);
  const auto requests = mixed_requests(60, 800, 32);

  RemoteClient client({});
  RemoteServer server(service, {});
  LoopbackOptions lopts;  // default plans: a perfect link
  LossyLoopback loop(client, server, lopts);

  for (const QueryRequest& q : requests) client.issue(q, loop.now_ms());
  loop.run();
  ASSERT_TRUE(client.idle());

  const auto outcomes = client.drain();
  ASSERT_EQ(outcomes.size(), requests.size());
  for (const Outcome& o : outcomes) {
    ASSERT_EQ(o.kind, OutcomeKind::kAnswered);
    ASSERT_GE(o.request_id, 1u);
    expect_same_response(o.response, execute_query(service, requests[o.request_id - 1]));
  }
  EXPECT_EQ(client.stats().retransmissions, 0u);
  EXPECT_EQ(server.stats().executed, requests.size());
  EXPECT_EQ(server.dedup_stats().hits, 0u);
}

TEST(WpsRemote, LossyLinkZeroSilentLossAndIdempotentRetries) {
  const Service service = open_city("mm_remote_lossy.wps", 800, 41);
  const auto requests = mixed_requests(120, 800, 42);

  RemoteClientOptions copts;
  copts.retry.max_attempts = 8;
  copts.retry.timeout_ms = 60;
  copts.retry.backoff_base_ms = 20;
  copts.breaker.max_failures = 1000;  // isolate retry/dedup from the breaker
  RemoteServerOptions sopts;
  sopts.dedup_window = 4096;
  RemoteClient client(copts);
  RemoteServer server(service, sopts);

  LoopbackOptions lopts;
  lopts.up.drop_rate = 0.05;
  lopts.up.duplicate_rate = 0.05;
  lopts.up.reorder_rate = 0.05;
  lopts.up.burst_rate = 0.002;
  lopts.up.burst_frames_mean = 4.0;
  lopts.up.seed = 0xa1;
  lopts.down = lopts.up;
  lopts.down.seed = 0xb2;
  lopts.step_ms = 5;
  LossyLoopback loop(client, server, lopts);

  for (const QueryRequest& q : requests) client.issue(q, loop.now_ms());
  loop.run();
  ASSERT_TRUE(client.idle()) << "loopback failed to converge";

  const auto outcomes = client.drain();
  // Zero silent losses: every issued request has exactly one outcome.
  ASSERT_EQ(outcomes.size(), requests.size());
  const RunTally t = tally(outcomes);
  EXPECT_EQ(t.total(), requests.size());
  EXPECT_GT(t.answered, requests.size() * 9 / 10);
  for (const Outcome& o : outcomes) {
    if (o.kind != OutcomeKind::kAnswered) continue;
    expect_same_response(o.response, execute_query(service, requests[o.request_id - 1]));
  }
  // Idempotency: damage forced retransmits, the dedup window absorbed every
  // one that got through — no request id ever executed twice.
  EXPECT_GT(client.stats().retransmissions, 0u);
  EXPECT_LE(server.stats().executed, requests.size());
  EXPECT_GT(server.dedup_stats().hits + loop.up_stats().dropped +
                loop.up_stats().burst_dropped,
            0u);
  EXPECT_EQ(server.dedup_stats().evictions, 0u);
}

TEST(WpsRemote, OverloadShedsExplicitly) {
  const Service service = open_city("mm_remote_shed.wps", 400, 51);
  const auto requests = mixed_requests(40, 400, 52);

  RemoteClientOptions copts;
  copts.retry.max_attempts = 1;  // no second chance: every shed is terminal
  RemoteServerOptions sopts;
  sopts.max_queue = 1;
  RemoteClient client(copts);
  RemoteServer server(service, sopts);
  LossyLoopback loop(client, server, {});

  for (const QueryRequest& q : requests) client.issue(q, loop.now_ms());
  loop.run();
  ASSERT_TRUE(client.idle());

  const RunTally t = tally(client.drain());
  EXPECT_EQ(t.total(), requests.size());
  EXPECT_EQ(t.answered, 1u);  // the queue held exactly one per pump round
  EXPECT_EQ(t.shed, requests.size() - 1);
  EXPECT_EQ(t.timed_out, 0u);
  EXPECT_EQ(server.stats().shed, requests.size() - 1);
  EXPECT_EQ(client.stats().retry_after_seen, requests.size() - 1);
  // Shed is refusal, not loss — and refusals were never cached as answers.
  EXPECT_EQ(server.stats().executed, 1u);
}

// The counters `mmctl wps-serve` reports: requests split by op, and the AP
// records of executed responses — a dedup replay re-sends a response without
// counting its records again, and an undecodable payload counts under no op.
TEST(WpsRemote, ServerCountsRequestsByOpAndRecordsReturned) {
  const Service service = open_city("mm_remote_counts.wps", 600, 61);
  const auto requests = mixed_requests(50, 600, 62);

  std::vector<std::uint8_t> upstream;
  std::vector<std::uint8_t> first;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    net::WireFrame frame;
    frame.type = net::WireFrameType::kData;
    frame.stream_id = 1;
    frame.seq = i + 1;
    frame.payload = encode_request(requests[i]);
    net::append_wire_frame(frame, upstream);
    if (i == 0) first = upstream;
  }
  net::WireFrame garbage;
  garbage.type = net::WireFrameType::kData;
  garbage.stream_id = 1;
  garbage.seq = requests.size() + 1;
  garbage.payload = {0xff, 0x00, 0x01};
  net::append_wire_frame(garbage, upstream);

  RemoteServer server(service, {});
  std::vector<std::vector<std::uint8_t>> frames;
  server.on_bytes(upstream, frames);
  server.drain(frames);
  server.on_bytes(first, frames);  // a retransmit of request 1: replayed

  std::uint64_t lookups = 0;
  std::uint64_t nearests = 0;
  std::uint64_t ranges = 0;
  std::uint64_t records = 0;
  for (const QueryRequest& q : requests) {
    lookups += q.op == QueryOp::kLookup;
    nearests += q.op == QueryOp::kNearest;
    ranges += q.op == QueryOp::kRange;
    records += execute_query(service, q).aps.size();
  }
  const RemoteServerStats& st = server.stats();
  EXPECT_GT(lookups, 0u);
  EXPECT_GT(nearests, 0u);
  EXPECT_GT(ranges, 0u);
  EXPECT_GT(records, 0u);
  EXPECT_EQ(st.requests_decoded, requests.size());
  EXPECT_EQ(st.lookup_requests, lookups);
  EXPECT_EQ(st.nearest_requests, nearests);
  EXPECT_EQ(st.range_requests, ranges);
  EXPECT_EQ(st.bad_requests, 1u);
  EXPECT_EQ(st.executed, requests.size());
  EXPECT_EQ(st.replayed, 1u);
  EXPECT_EQ(st.responses_sent, requests.size() + 2);
  EXPECT_EQ(st.records_returned, records);
  EXPECT_EQ(server.buffered(), 0u);
}

// The dedup window spans a hot-swap between batches: a retransmit arriving
// after reload() replays the bytes answered on the old snapshot and never
// runs on the new one, while a fresh request is answered by the new one.
TEST(WpsRemote, RetransmitAfterReloadReplaysTheOldSnapshotsAnswer) {
  Service service = open_city("mm_remote_swap_a.wps", 400, 71);
  const fs::path path_b = testing_support::unique_temp_path("mm_remote_swap_b.wps");
  fs::remove(path_b);
  SnapshotBuildOptions build;
  build.fsync = false;
  ASSERT_TRUE(write_snapshot(small_city(400, 72), geo::Geodetic{}, path_b, build).ok());

  QueryRequest q;
  q.op = QueryOp::kNearest;
  q.k = 5;
  const auto request = [&](std::uint64_t seq) {
    net::WireFrame frame;
    frame.type = net::WireFrameType::kData;
    frame.stream_id = 1;
    frame.seq = seq;
    frame.payload = encode_request(q);
    std::vector<std::uint8_t> bytes;
    net::append_wire_frame(frame, bytes);
    return bytes;
  };

  RemoteServer server(service, {});
  std::vector<std::vector<std::uint8_t>> before;
  server.on_bytes(request(1), before);
  server.drain(before);
  const QueryResponse old_answer = execute_query(service, q);

  ASSERT_TRUE(service.reload(path_b).ok());
  const QueryResponse new_answer = execute_query(service, q);
  ASSERT_FALSE(bits_equal(old_answer.aps.front().position.x,
                          new_answer.aps.front().position.x));

  std::vector<std::vector<std::uint8_t>> after;
  server.on_bytes(request(1), after);  // retransmit: replayed from the cache
  EXPECT_EQ(after, before);
  server.on_bytes(request(2), after);  // fresh: runs on the new snapshot
  server.drain(after);

  net::WireDecoder decoder;
  for (const auto& f : after) decoder.feed(f);
  ResponseAssembler assembler;
  std::vector<QueryResponse> got;
  net::WireFrame frame;
  while (decoder.next(frame)) {
    if (const auto seq = assembler.feed(frame)) got.push_back(*assembler.take(*seq));
  }
  ASSERT_EQ(got.size(), 2u);
  expect_same_response(got[0], old_answer);
  expect_same_response(got[1], new_answer);
  EXPECT_EQ(server.stats().replayed, 1u);
  EXPECT_EQ(server.stats().executed, 2u);
}

TEST(WpsRemote, ShedRequestsRecoverThroughRetry) {
  const Service service = open_city("mm_remote_shedretry.wps", 400, 53);
  const auto requests = mixed_requests(40, 400, 54);

  RemoteClientOptions copts;
  copts.retry.max_attempts = 10;
  copts.retry.timeout_ms = 50;
  copts.retry.backoff_base_ms = 10;
  copts.breaker.max_failures = 1000;
  RemoteServerOptions sopts;
  sopts.max_queue = 4;  // heavy overload vs 40 simultaneous requests
  RemoteClient client(copts);
  RemoteServer server(service, sopts);
  LoopbackOptions lopts;
  lopts.step_ms = 5;
  LossyLoopback loop(client, server, lopts);

  for (const QueryRequest& q : requests) client.issue(q, loop.now_ms());
  loop.run();
  ASSERT_TRUE(client.idle());

  const RunTally t = tally(client.drain());
  EXPECT_EQ(t.total(), requests.size());
  // Backoff spreads the herd: every request eventually lands and answers
  // bit-identically, with the shed refusals absorbed along the way.
  EXPECT_EQ(t.answered, requests.size());
  EXPECT_GT(server.stats().shed, 0u);
  EXPECT_GT(client.stats().retry_after_seen, 0u);
  EXPECT_EQ(server.stats().executed, requests.size());
}

TEST(WpsRemote, DeadServerTripsBreakerAndFailsFast) {
  const Service service = open_city("mm_remote_dead.wps", 400, 61);
  const auto requests = mixed_requests(30, 400, 62);

  RemoteClientOptions copts;
  copts.retry.max_attempts = 2;
  copts.retry.timeout_ms = 40;
  copts.retry.backoff_base_ms = 10;
  copts.breaker.max_failures = 3;
  copts.breaker.open_initial_ms = 100000;  // stays open for the whole run
  copts.breaker.open_max_ms = 1000000;
  RemoteClient client(copts);
  RemoteServer server(service, {});
  LoopbackOptions lopts;
  lopts.up.drop_rate = 1.0;  // the server is unreachable
  lopts.step_ms = 5;
  LossyLoopback loop(client, server, lopts);

  // First wave: these pass the (still closed) breaker, burn their attempts,
  // and time out — the strikes that trip it.
  for (std::size_t i = 0; i < 10; ++i) client.issue(requests[i], loop.now_ms());
  loop.run();
  ASSERT_TRUE(client.idle());
  ASSERT_GE(client.breaker_stats().trips, 1u);

  // Second wave: the open breaker refuses their first transmission — they
  // fail fast as kCircuitOpen without spending a single timeout.
  for (std::size_t i = 10; i < requests.size(); ++i) {
    client.issue(requests[i], loop.now_ms());
  }
  loop.run();
  ASSERT_TRUE(client.idle());

  const RunTally t = tally(client.drain());
  EXPECT_EQ(t.total(), requests.size());
  EXPECT_EQ(t.answered, 0u);
  EXPECT_EQ(t.timed_out, 10u);
  EXPECT_EQ(t.circuit_open, requests.size() - 10u);
  EXPECT_EQ(server.stats().frames_seen, 0u);
}

TEST(WpsRemote, SameSeedsReplayByteIdentically) {
  const Service service = open_city("mm_remote_replay.wps", 600, 71);
  const auto requests = mixed_requests(80, 600, 72);

  const auto run = [&service, &requests]() {
    RemoteClientOptions copts;
    copts.retry.max_attempts = 6;
    copts.retry.timeout_ms = 60;
    copts.retry.backoff_base_ms = 20;
    copts.retry.seed = 0x5eed;
    copts.breaker.max_failures = 1000;
    RemoteClient client(copts);
    RemoteServer server(service, {});
    LoopbackOptions lopts;
    lopts.up.drop_rate = 0.08;
    lopts.up.reorder_rate = 0.05;
    lopts.up.seed = 0x11;
    lopts.down.drop_rate = 0.08;
    lopts.down.duplicate_rate = 0.05;
    lopts.down.seed = 0x22;
    lopts.step_ms = 5;
    LossyLoopback loop(client, server, lopts);
    for (const QueryRequest& q : requests) client.issue(q, loop.now_ms());
    loop.run();
    EXPECT_TRUE(client.idle());
    return client.drain();
  };

  const auto a = run();
  const auto b = run();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].request_id, b[i].request_id);
    EXPECT_EQ(a[i].kind, b[i].kind);
    EXPECT_EQ(a[i].attempts, b[i].attempts);
    EXPECT_EQ(a[i].completed_ms, b[i].completed_ms);
    EXPECT_EQ(a[i].response.aps.size(), b[i].response.aps.size());
  }
}

}  // namespace
}  // namespace mm::wps
