// Aegis chaos bench: the remote WPS tier driven through a loss×burst sweep of
// seeded LinkSimulator fault plans (independent damage in each direction),
// with every answered query checked bit-for-bit against the local Service.
//
//   bench_wps_chaos [--aps N] [--queries Q] [--window W] [--max-queue N]
//                   [--seed S] [--smoke] [--dir scratch_dir]
//                   [--out BENCH_wps_chaos.json]
//
// Per sweep cell, a closed-loop generator keeps up to W requests outstanding
// against one RemoteClient/RemoteServer pair pumped by LossyLoopback on a
// virtual clock, then the accounting is settled:
//   * success rate      answered / issued
//   * retry amplification   transmissions / issued
//   * shed rate         shed outcomes / issued
//   * p99-with-retries  issue-to-answer latency in virtual ms
// Hard FAIL (exit 1) on any of: an answered response differing by one bit
// from wps::execute_query on the same Service; a query lost forever (issued
// but never finalized — the zero-silent-loss contract); the server executing
// more queries than were issued (a retransmit re-executed past the dedup
// window); a cell that fails to converge.
#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "marauder/ap_database.h"
#include "net80211/mac_address.h"
#include "util/flags.h"
#include "util/rng.h"
#include "util/stats.h"
#include "wps/remote.h"
#include "wps/service.h"
#include "wps/snapshot_writer.h"

namespace {

using namespace mm;
namespace fs = std::filesystem;

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// ~1 AP per 75x75 m whatever the count (the bench_wps convention).
double half_extent_for(std::size_t num_aps) {
  return 37.5 * std::sqrt(static_cast<double>(num_aps));
}

constexpr std::uint64_t kBssidBase = 0x02ae000000000ULL;

marauder::ApDatabase build_city(std::size_t num_aps, std::uint64_t seed) {
  marauder::ApDatabase db;
  util::Rng rng(seed);
  const double half = half_extent_for(num_aps);
  for (std::size_t i = 0; i < num_aps; ++i) {
    marauder::KnownAp ap;
    ap.bssid = net80211::MacAddress::from_u64(kBssidBase + i);
    ap.position = {rng.uniform(-half, half), rng.uniform(-half, half)};
    if (rng.bernoulli(0.6)) ap.radius_m = rng.uniform(20.0, 150.0);
    db.add(std::move(ap));
  }
  return db;
}

std::vector<wps::QueryRequest> make_requests(std::size_t count,
                                             std::size_t num_aps,
                                             std::uint64_t seed) {
  std::vector<wps::QueryRequest> requests;
  requests.reserve(count);
  util::Rng rng(util::hash_combine(seed, 0x9e3779b97f4a7c15ULL));
  const double half = half_extent_for(num_aps);
  for (std::size_t i = 0; i < count; ++i) {
    wps::QueryRequest q;
    const double dice = rng.uniform(0.0, 1.0);
    if (dice < 0.4) {
      q.op = wps::QueryOp::kLookup;
      q.bssid = kBssidBase + static_cast<std::uint64_t>(rng.uniform_int(
                                 0, static_cast<std::int64_t>(num_aps) - 1));
    } else if (dice < 0.8) {
      q.op = wps::QueryOp::kNearest;
      q.k = static_cast<std::uint16_t>(rng.uniform_int(1, 12));
      q.center = {rng.uniform(-half, half), rng.uniform(-half, half)};
    } else {
      q.op = wps::QueryOp::kRange;
      q.center = {rng.uniform(-half, half), rng.uniform(-half, half)};
      q.radius_m = rng.uniform(50.0, 250.0);
    }
    requests.push_back(q);
  }
  return requests;
}

bool bits_equal(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// Bit-exact response equivalence — the remote tier's whole contract.
bool same_response(const wps::QueryResponse& got, const wps::QueryResponse& want) {
  if (got.op != want.op || got.status != want.status) return false;
  if (got.aps.size() != want.aps.size()) return false;
  for (std::size_t i = 0; i < got.aps.size(); ++i) {
    const wps::WpsAp& a = got.aps[i];
    const wps::WpsAp& b = want.aps[i];
    if (a.bssid != b.bssid) return false;
    if (!bits_equal(a.position.x, b.position.x) ||
        !bits_equal(a.position.y, b.position.y)) {
      return false;
    }
    if (a.radius_m.has_value() != b.radius_m.has_value()) return false;
    if (a.radius_m && !bits_equal(*a.radius_m, *b.radius_m)) return false;
  }
  return true;
}

struct CellResult {
  double loss = 0.0;
  double burst = 0.0;
  std::size_t issued = 0;
  std::size_t answered = 0;
  std::size_t shed = 0;
  std::size_t timed_out = 0;
  std::size_t circuit_open = 0;
  std::size_t mismatches = 0;
  std::size_t lost_forever = 0;  ///< issued but never finalized: hard FAIL
  bool duplicate_execution = false;
  std::uint64_t transmissions = 0;
  std::uint64_t retransmissions = 0;
  std::uint64_t server_executed = 0;
  std::uint64_t dedup_hits = 0;
  std::uint64_t up_dropped = 0;
  std::uint64_t down_dropped = 0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;

  [[nodiscard]] bool failed() const {
    return mismatches > 0 || lost_forever > 0 || duplicate_execution;
  }
  [[nodiscard]] double rate(std::size_t n) const {
    return issued == 0 ? 0.0
                       : static_cast<double>(n) / static_cast<double>(issued);
  }
};

CellResult run_cell(const wps::Service& service,
                    const std::vector<wps::QueryRequest>& requests, double loss,
                    double burst, std::size_t window, std::size_t max_queue,
                    std::uint64_t seed) {
  CellResult r;
  r.loss = loss;
  r.burst = burst;

  wps::RemoteClientOptions copts;
  copts.retry.max_attempts = 6;
  copts.retry.timeout_ms = 60;
  copts.retry.backoff_base_ms = 20;
  copts.retry.backoff_max_ms = 400;
  copts.retry.seed = util::hash_combine(seed, 0xc11e57);
  copts.breaker.max_failures = 50;  // chaos cells should retry, not give up
  wps::RemoteServerOptions sopts;
  sopts.max_queue = max_queue;
  // Never evict mid-run: any re-execution the sweep provokes is then a real
  // dedup bug, not a sizing artifact.
  sopts.dedup_window = requests.size() + 16;
  sopts.threads = 2;

  wps::RemoteClient client(copts);
  wps::RemoteServer server(service, sopts);

  wps::LoopbackOptions lopts;
  for (fault::FaultPlan* plan : {&lopts.up, &lopts.down}) {
    plan->drop_rate = loss;
    plan->burst_rate = burst;
    plan->burst_frames_mean = 6.0;
    if (loss > 0.0 || burst > 0.0) {
      plan->duplicate_rate = 0.02;
      plan->reorder_rate = 0.05;
    }
  }
  lopts.up.seed = util::hash_combine(seed, 0x00b5);
  lopts.down.seed = util::hash_combine(seed, 0xd011);
  lopts.step_ms = 5;
  wps::LossyLoopback loop(client, server, lopts);

  const std::size_t total = requests.size();
  std::size_t issued = 0;
  std::size_t completed = 0;
  util::SampleSet answer_ms;

  // Request ids are monotone from 1, so id-1 indexes back into `requests`.
  for (std::uint64_t guard = 0; completed < total && guard < 500'000; ++guard) {
    while (issued < total && issued - completed < window) {
      (void)client.issue(requests[issued], loop.now_ms());
      ++issued;
    }
    loop.step();
    for (const wps::Outcome& o : client.drain()) {
      ++completed;
      switch (o.kind) {
        case wps::OutcomeKind::kAnswered: {
          ++r.answered;
          const auto& request = requests[o.request_id - 1];
          if (!same_response(o.response, wps::execute_query(service, request))) {
            ++r.mismatches;
          }
          answer_ms.add(static_cast<double>(o.completed_ms - o.issued_ms));
          break;
        }
        case wps::OutcomeKind::kShed: ++r.shed; break;
        case wps::OutcomeKind::kTimedOut: ++r.timed_out; break;
        case wps::OutcomeKind::kCircuitOpen: ++r.circuit_open; break;
      }
    }
  }

  r.issued = issued;
  r.lost_forever = issued - completed;
  const wps::RemoteClientStats& cs = client.stats();
  const wps::RemoteServerStats& ss = server.stats();
  const wps::DedupStats& ds = server.dedup_stats();
  r.transmissions = cs.transmissions;
  r.retransmissions = cs.retransmissions;
  r.server_executed = ss.executed;
  r.dedup_hits = ds.hits;
  // A request id executes at most once while it stays in the dedup window;
  // with the window sized past the run, executed > issued means a replay
  // re-ran a query — the idempotency contract broken.
  r.duplicate_execution =
      ss.executed > issued || ds.evictions != 0 ||
      cs.answered + cs.shed + cs.timed_out + cs.circuit_open != cs.issued;
  r.up_dropped = loop.up_stats().dropped + loop.up_stats().burst_dropped;
  r.down_dropped = loop.down_stats().dropped + loop.down_stats().burst_dropped;
  if (!answer_ms.empty()) {
    r.p50_ms = answer_ms.percentile(50.0);
    r.p99_ms = answer_ms.percentile(99.0);
  }
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Flags flags(argc, argv);
  const bool smoke = flags.has("smoke");
  const auto num_aps =
      static_cast<std::size_t>(flags.get_int("aps", smoke ? 20'000 : 150'000));
  const auto queries_per_cell = static_cast<std::size_t>(
      flags.get_int("queries", smoke ? 400 : 3'000));
  const auto window = static_cast<std::size_t>(flags.get_int("window", 32));
  const auto max_queue =
      static_cast<std::size_t>(flags.get_int("max-queue", 16));
  const std::uint64_t seed = flags.get_seed(2026);
  const std::string out_path = flags.get("out", "BENCH_wps_chaos.json");
  fs::path dir = flags.get("dir", "");
  if (dir.empty()) dir = fs::temp_directory_path();
  const fs::path snapshot_path = dir / "bench_wps_chaos.wps";

  const std::vector<double> losses =
      smoke ? std::vector<double>{0.0, 0.05}
            : std::vector<double>{0.0, 0.02, 0.05, 0.10};
  const std::vector<double> bursts = smoke ? std::vector<double>{0.0, 0.002}
                                           : std::vector<double>{0.0, 0.002, 0.01};

  std::cout << "Aegis chaos bench (" << (smoke ? "smoke" : "full") << "): "
            << num_aps << " APs, " << queries_per_cell << " queries/cell, "
            << losses.size() * bursts.size() << " cells, window " << window
            << ", queue " << max_queue << "\n\n";

  const marauder::ApDatabase db = build_city(num_aps, seed);
  wps::SnapshotBuildOptions build_options;
  build_options.fsync = false;  // latency-bound scratch file
  auto written = wps::write_snapshot(db, geo::Geodetic{}, snapshot_path, build_options);
  if (!written.ok()) {
    std::cerr << "FAIL: snapshot build: " << written.error() << "\n";
    return 1;
  }
  auto opened = wps::Service::open(snapshot_path);
  if (!opened.ok()) {
    std::cerr << "FAIL: snapshot open: " << opened.error() << "\n";
    return 1;
  }
  const wps::Service service = std::move(opened).value();
  (void)service.prewarm();  // the sweep measures the tier, not first-touch IO

  const std::vector<wps::QueryRequest> requests =
      make_requests(queries_per_cell, num_aps, seed);

  std::vector<CellResult> cells;
  bool failed = false;
  const double t0 = now_seconds();
  for (const double loss : losses) {
    for (const double burst : bursts) {
      const CellResult r = run_cell(
          service, requests, loss, burst, window, max_queue,
          util::hash_combine(seed, util::hash_combine(
                                       std::bit_cast<std::uint64_t>(loss),
                                       std::bit_cast<std::uint64_t>(burst))));
      failed = failed || r.failed();
      std::cout << "loss " << loss << " burst " << burst << ": success "
                << r.rate(r.answered) << ", shed " << r.rate(r.shed)
                << ", timeout " << r.rate(r.timed_out) << ", retry-amp "
                << r.rate(static_cast<std::size_t>(r.transmissions))
                << ", p99 " << r.p99_ms << " ms, dedup hits " << r.dedup_hits
                << (r.failed() ? "  [FAIL]" : "") << "\n";
      cells.push_back(r);
    }
  }
  const double elapsed_s = now_seconds() - t0;

  std::ofstream out(out_path);
  out << "{\n  \"benchmark\": \"wps_chaos\",\n"
      << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n"
      << "  \"aps\": " << num_aps << ",\n"
      << "  \"queries_per_cell\": " << queries_per_cell << ",\n"
      << "  \"window\": " << window << ",\n"
      << "  \"max_queue\": " << max_queue << ",\n"
      << "  \"elapsed_s\": " << elapsed_s << ",\n"
      << "  \"cells\": [\n";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const CellResult& r = cells[i];
    out << "    {\"loss\": " << r.loss << ", \"burst\": " << r.burst
        << ", \"issued\": " << r.issued << ", \"answered\": " << r.answered
        << ", \"shed\": " << r.shed << ", \"timed_out\": " << r.timed_out
        << ", \"circuit_open\": " << r.circuit_open
        << ", \"success_rate\": " << r.rate(r.answered)
        << ", \"shed_rate\": " << r.rate(r.shed)
        << ", \"retry_amplification\": "
        << r.rate(static_cast<std::size_t>(r.transmissions))
        << ", \"retransmissions\": " << r.retransmissions
        << ", \"server_executed\": " << r.server_executed
        << ", \"dedup_hits\": " << r.dedup_hits
        << ", \"up_dropped\": " << r.up_dropped
        << ", \"down_dropped\": " << r.down_dropped
        << ", \"p50_ms\": " << r.p50_ms << ", \"p99_ms\": " << r.p99_ms
        << ", \"mismatches\": " << r.mismatches
        << ", \"lost_forever\": " << r.lost_forever
        << ", \"duplicate_execution\": "
        << (r.duplicate_execution ? "true" : "false") << "}"
        << (i + 1 < cells.size() ? "," : "") << "\n";
  }
  out << "  ],\n  \"pass\": " << (failed ? "false" : "true") << "\n}\n";
  std::cout << "\nwrote " << out_path << "\n";

  std::error_code ec;
  fs::remove(snapshot_path, ec);

  std::cout << (failed ? "FAIL" : "PASS")
            << ": every query bit-identical or accounted (shed/timeout/"
               "circuit), retransmits absorbed by dedup\n";
  return failed ? 1 : 0;
}
