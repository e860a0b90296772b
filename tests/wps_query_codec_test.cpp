// Basilisk query protocol: requests and chunked responses must round-trip
// bit-exact over the Lattice wire codec, reassemble out of order, and reject
// damaged chunks without ever corrupting a response.
#include "wps/query_codec.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <filesystem>

#include "unique_temp_path.h"
#include "util/rng.h"
#include "wps/snapshot_writer.h"

namespace mm::wps {
namespace {

namespace fs = std::filesystem;

bool bits_equal(double a, double b) {
  std::uint64_t ba = 0;
  std::uint64_t bb = 0;
  std::memcpy(&ba, &a, sizeof(a));
  std::memcpy(&bb, &b, sizeof(b));
  return ba == bb;
}

QueryResponse make_response(QueryOp op, std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  QueryResponse resp;
  resp.op = op;
  for (std::size_t i = 0; i < n; ++i) {
    WpsAp ap;
    ap.bssid = net80211::MacAddress::from_u64(0x020000000000ULL + i);
    ap.position = {rng.uniform(-9000.0, 9000.0), rng.uniform(-9000.0, 9000.0)};
    if (rng.bernoulli(0.5)) ap.radius_m = rng.uniform(10.0, 200.0);
    resp.aps.push_back(ap);
  }
  return resp;
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

TEST(WpsQueryCodec, RequestRoundTrip) {
  for (const QueryOp op : {QueryOp::kLookup, QueryOp::kNearest, QueryOp::kRange}) {
    QueryRequest req;
    req.op = op;
    req.k = 17;
    req.bssid = 0x0242ac110002ULL;
    req.center = {-1234.5, 6789.25};
    req.radius_m = 350.0;
    const auto bytes = encode_request(req);
    EXPECT_EQ(bytes.size(), kRequestPayloadBytes);
    const auto back = decode_request(bytes);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->op, req.op);
    EXPECT_EQ(back->k, req.k);
    EXPECT_EQ(back->bssid, req.bssid);
    EXPECT_TRUE(bits_equal(back->center.x, req.center.x));
    EXPECT_TRUE(bits_equal(back->center.y, req.center.y));
    EXPECT_TRUE(bits_equal(back->radius_m, req.radius_m));
  }
}

TEST(WpsQueryCodec, RequestRejectsGarbage) {
  EXPECT_FALSE(decode_request({}).has_value());
  std::vector<std::uint8_t> short_buf(10, 0);
  EXPECT_FALSE(decode_request(short_buf).has_value());
  std::vector<std::uint8_t> bad_op(kRequestPayloadBytes, 0);
  bad_op[0] = 9;
  EXPECT_FALSE(decode_request(bad_op).has_value());
}

TEST(WpsQueryCodec, EmptyResponseIsOneChunk) {
  const QueryResponse resp = make_response(QueryOp::kLookup, 0, 1);
  const auto frames = encode_response(resp, 7, 42);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].stream_id, 7u);
  EXPECT_EQ(frames[0].seq, 42u);
  ResponseAssembler assembler;
  const auto done = assembler.feed(frames[0]);
  ASSERT_TRUE(done.has_value());
  EXPECT_EQ(*done, 42u);
  const auto back = assembler.take(42);
  ASSERT_TRUE(back.has_value());
  expect_same_response(*back, resp);
}

TEST(WpsQueryCodec, LargeResponseSpansChunksAndReassemblesOutOfOrder) {
  const QueryResponse resp = make_response(QueryOp::kRange, 47, 2);
  auto frames = encode_response(resp, 1, 9);
  ASSERT_EQ(frames.size(), (47 + kMaxRecordsPerChunk - 1) / kMaxRecordsPerChunk);
  for (const auto& f : frames) {
    EXPECT_LE(f.payload.size(), net::kMaxWirePayloadBytes);
  }
  std::reverse(frames.begin(), frames.end());
  ResponseAssembler assembler;
  std::optional<std::uint64_t> done;
  for (const auto& f : frames) {
    EXPECT_FALSE(done.has_value());
    done = assembler.feed(f);
  }
  ASSERT_TRUE(done.has_value());
  const auto back = assembler.take(*done);
  ASSERT_TRUE(back.has_value());
  expect_same_response(*back, resp);
  EXPECT_EQ(assembler.pending(), 0u);
}

TEST(WpsQueryCodec, InterleavedResponsesKeyBySeq) {
  const QueryResponse r1 = make_response(QueryOp::kNearest, 20, 3);
  const QueryResponse r2 = make_response(QueryOp::kRange, 31, 4);
  const auto f1 = encode_response(r1, 5, 100);
  const auto f2 = encode_response(r2, 5, 101);
  ResponseAssembler assembler;
  for (std::size_t i = 0; i < std::max(f1.size(), f2.size()); ++i) {
    if (i < f1.size()) assembler.feed(f1[i]);
    if (i < f2.size()) assembler.feed(f2[i]);
  }
  const auto b1 = assembler.take(100);
  const auto b2 = assembler.take(101);
  ASSERT_TRUE(b1.has_value());
  ASSERT_TRUE(b2.has_value());
  expect_same_response(*b1, r1);
  expect_same_response(*b2, r2);
}

TEST(WpsQueryCodec, DuplicateAndDamagedChunksAreCounted) {
  const QueryResponse resp = make_response(QueryOp::kRange, 40, 5);
  const auto frames = encode_response(resp, 2, 77);
  ASSERT_GE(frames.size(), 2u);
  ResponseAssembler assembler;
  assembler.feed(frames[0]);
  assembler.feed(frames[0]);  // duplicate
  EXPECT_EQ(assembler.chunks_rejected(), 1u);

  net::WireFrame torn = frames[1];
  torn.payload.resize(torn.payload.size() - 7);  // count no longer matches
  assembler.feed(torn);
  EXPECT_EQ(assembler.chunks_rejected(), 2u);

  // The pristine copies still complete the response.
  std::optional<std::uint64_t> done;
  for (std::size_t i = 1; i < frames.size(); ++i) done = assembler.feed(frames[i]);
  ASSERT_TRUE(done.has_value());
  const auto back = assembler.take(77);
  ASSERT_TRUE(back.has_value());
  expect_same_response(*back, resp);
}

// The Aegis downlink regime: a lossy link both duplicates and reorders
// response chunks arbitrarily. Whatever storm arrives, reassembly must stay
// bit-exact and every redundant copy must be counted, not applied.
TEST(WpsQueryCodec, ShuffledDuplicateStormReassemblesBitExact) {
  const QueryResponse resp = make_response(QueryOp::kRange, 58, 8);
  const auto frames = encode_response(resp, 3, 500);
  ASSERT_GE(frames.size(), 4u);

  // Every chunk twice, then a seeded shuffle: worst-case dup + reorder.
  std::vector<net::WireFrame> storm;
  for (const auto& f : frames) {
    storm.push_back(f);
    storm.push_back(f);
  }
  util::Rng rng(0xd0b1e);
  for (std::size_t i = storm.size(); i > 1; --i) {
    const auto j = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(i) - 1));
    std::swap(storm[i - 1], storm[j]);
  }

  ResponseAssembler assembler;
  std::optional<std::uint64_t> done;
  for (const auto& f : storm) {
    if (const auto seq = assembler.feed(f)) done = seq;
  }
  ASSERT_TRUE(done.has_value());
  EXPECT_EQ(*done, 500u);
  // Exactly one copy of each chunk was applied; the rest were rejected
  // (duplicates of pending chunks, or chunks for an already-complete seq).
  EXPECT_EQ(assembler.chunks_rejected(), frames.size());
  const auto back = assembler.take(500);
  ASSERT_TRUE(back.has_value());
  expect_same_response(*back, resp);
  EXPECT_EQ(assembler.pending(), 0u);
}

TEST(WpsQueryCodec, LateDuplicatesAfterTakeAreHarmless) {
  const QueryResponse resp = make_response(QueryOp::kNearest, 25, 9);
  const auto frames = encode_response(resp, 4, 600);
  ResponseAssembler assembler;
  for (const auto& f : frames) assembler.feed(f);
  ASSERT_TRUE(assembler.take(600).has_value());

  // A straggler retransmit of an already-taken response starts a fresh
  // partial assembly (the seq is unknown again) — it must never crash or
  // fabricate a complete response from one chunk of many.
  const auto again = assembler.feed(frames[0]);
  if (frames.size() == 1) {
    EXPECT_TRUE(again.has_value());
  } else {
    EXPECT_FALSE(again.has_value());
  }
}

TEST(WpsQueryCodec, RetryAfterStatusRoundTripsAndUnknownStatusRejected) {
  // kRetryAfter (the Aegis shed refusal) is a valid wire status...
  QueryResponse shed;
  shed.op = QueryOp::kNearest;
  shed.status = QueryStatus::kRetryAfter;
  const auto frames = encode_response(shed, 6, 700);
  ASSERT_EQ(frames.size(), 1u);
  ResponseAssembler assembler;
  const auto done = assembler.feed(frames[0]);
  ASSERT_TRUE(done.has_value());
  const auto back = assembler.take(700);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->status, QueryStatus::kRetryAfter);
  EXPECT_TRUE(back->aps.empty());

  // ...but one past the enum is still garbage and must be rejected.
  net::WireFrame bogus = frames[0];
  bogus.payload[1] = 3;  // status byte
  EXPECT_FALSE(assembler.feed(bogus).has_value());
  EXPECT_GE(assembler.chunks_rejected(), 1u);
}

TEST(WpsQueryCodec, ExecuteMatchesDirectServiceCalls) {
  marauder::ApDatabase db;
  util::Rng rng(6);
  for (int i = 0; i < 600; ++i) {
    marauder::KnownAp ap;
    ap.bssid = net80211::MacAddress::from_u64(0x02aa00000000ULL + static_cast<unsigned>(i));
    ap.position = {rng.uniform(-2000.0, 2000.0), rng.uniform(-2000.0, 2000.0)};
    db.add(std::move(ap));
  }
  const fs::path path = testing_support::unique_temp_path("mm_wps_codec_exec.wps");
  SnapshotBuildOptions build;
  build.fsync = false;
  ASSERT_TRUE(write_snapshot(db, geo::Geodetic{}, path, build).ok());
  auto opened = Service::open(path);
  ASSERT_TRUE(opened.ok());
  const Service service = std::move(opened).value();

  QueryRequest lookup;
  lookup.op = QueryOp::kLookup;
  lookup.bssid = 0x02aa00000007ULL;
  const QueryResponse lr = execute_query(service, lookup);
  EXPECT_EQ(lr.status, QueryStatus::kOk);
  ASSERT_EQ(lr.aps.size(), 1u);
  EXPECT_EQ(lr.aps[0].bssid.to_u64(), lookup.bssid);

  QueryRequest nearest;
  nearest.op = QueryOp::kNearest;
  nearest.k = 12;
  nearest.center = {10.0, -20.0};
  const QueryResponse nr = execute_query(service, nearest);
  const auto oracle_n = service.nearest_k(nearest.center, nearest.k);
  ASSERT_EQ(nr.aps.size(), oracle_n.size());
  for (std::size_t i = 0; i < nr.aps.size(); ++i) {
    EXPECT_EQ(nr.aps[i].bssid, oracle_n[i].bssid);
  }

  QueryRequest range;
  range.op = QueryOp::kRange;
  range.center = {0.0, 0.0};
  range.radius_m = 700.0;
  const QueryResponse rr = execute_query(service, range);
  const auto oracle_r = service.range(range.center, range.radius_m);
  ASSERT_EQ(rr.aps.size(), oracle_r.size());

  // Round-trip the big range response through the wire and compare bits.
  const auto frames = encode_response(rr, 3, 1);
  ResponseAssembler assembler;
  std::optional<std::uint64_t> done;
  for (const auto& f : frames) done = assembler.feed(f);
  ASSERT_TRUE(done.has_value());
  const auto back = assembler.take(1);
  ASSERT_TRUE(back.has_value());
  expect_same_response(*back, rr);

  QueryRequest bad;
  bad.op = QueryOp::kNearest;
  bad.k = 0;
  EXPECT_EQ(execute_query(service, bad).status, QueryStatus::kBadRequest);
  bad.op = QueryOp::kRange;
  bad.radius_m = -1.0;
  EXPECT_EQ(execute_query(service, bad).status, QueryStatus::kBadRequest);
}

}  // namespace
}  // namespace mm::wps
