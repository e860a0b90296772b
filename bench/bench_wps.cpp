// Basilisk WPS backend bench: a 10M+ AP snapshot served concurrently, with
// every sampled answer checked bit-for-bit against the in-memory ApDatabase
// oracle.
//
//   bench_wps [--aps N] [--queries Q] [--threads T] [--oracle-sample S]
//             [--k K] [--radius R] [--tile-size M] [--seed S] [--smoke]
//             [--dir scratch_dir] [--out BENCH_wps.json]
//
// Four phases:
//   * build: pack the synthetic city (constant AP density, so a range query
//     touches the same neighbourhood at any scale) and write the snapshot;
//   * cold: Q mixed queries over T concurrent threads against a freshly
//     opened Service, so each tile's first touch (payload CRC verify, and
//     for geometric queries the tile's spatial index build) is charged to
//     the query that makes it;
//   * warm: Q fresh mixed queries after prewarm(), which pays every tile's
//     first touch up front;
//   * oracle: S randomly drawn lookup/nearest/range queries answered by both
//     a freshly opened Service and the ApDatabase the snapshot was built
//     from — any bit difference is a hard FAIL (exit 1), the whole
//     subsystem's contract.
// Writes machine-readable BENCH_wps.json: the machine (hw_cores, build
// type), then queries/s and p50/p99 latency per op (lookup / nearest_k /
// range) for the cold and the warm pass, and the heap of every tile's
// spatial index once all are built. That heap is a FAIL (exit 1) above
// kMaxIndexBytesPerAp: the indexes hold ids and cell offsets over the
// mapped records, never a copy of the coordinates.
#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
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
#include "util/thread_pool.h"
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

/// ~1 AP per 75x75 m whatever the count (the bench_spatial convention):
/// 10M APs span a ~237 km square — city scale, constant local density.
double half_extent_for(std::size_t num_aps) {
  return 37.5 * std::sqrt(static_cast<double>(num_aps));
}

constexpr std::uint64_t kBssidBase = 0x02b500000000ULL;  // 02:b5:...

/// Tile-index heap allowed per AP after prewarm: a 4-byte id, about one
/// 4-byte cell offset, and the per-tile object. An index that copied each
/// position (16 B) would exceed it.
constexpr double kMaxIndexBytesPerAp = 16.0;

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

enum class Op : std::uint8_t { kLookup, kNearest, kRange };

struct Query {
  Op op = Op::kLookup;
  std::uint64_t bssid = 0;
  geo::Vec2 center;
};

std::vector<Query> make_queries(std::size_t count, std::size_t num_aps,
                                std::uint64_t seed) {
  std::vector<Query> queries;
  queries.reserve(count);
  util::Rng rng(util::hash_combine(seed, 0x9e3779b97f4a7c15ULL));
  const double half = half_extent_for(num_aps);
  for (std::size_t i = 0; i < count; ++i) {
    Query q;
    const double dice = rng.uniform(0.0, 1.0);
    if (dice < 0.5) {
      q.op = Op::kLookup;
      // 10% unknown BSSIDs: misses must stay fast (and correct) too.
      const auto pick = [&](std::size_t n) {
        return static_cast<std::uint64_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
      };
      q.bssid = rng.bernoulli(0.9) ? kBssidBase + pick(num_aps)
                                   : 0x02ff00000000ULL + pick(1 << 20);
    } else {
      q.op = dice < 0.8 ? Op::kNearest : Op::kRange;
      q.center = {rng.uniform(-half, half), rng.uniform(-half, half)};
    }
    queries.push_back(q);
  }
  return queries;
}

bool bits_equal(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool same_ap(const wps::WpsAp& got, const marauder::KnownAp& want) {
  if (got.bssid != want.bssid) return false;
  if (!bits_equal(got.position.x, want.position.x) ||
      !bits_equal(got.position.y, want.position.y)) {
    return false;
  }
  if (got.radius_m.has_value() != want.radius_m.has_value()) return false;
  return !got.radius_m || bits_equal(*got.radius_m, *want.radius_m);
}

bool same_list(const std::vector<wps::WpsAp>& got,
               const std::vector<const marauder::KnownAp*>& want) {
  if (got.size() != want.size()) return false;
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (!same_ap(got[i], *want[i])) return false;
  }
  return true;
}

/// One query against both worlds; false on any bit difference.
bool check_query(const wps::Service& service, const marauder::ApDatabase& db,
                 const Query& q, std::size_t k, double radius_m) {
  switch (q.op) {
    case Op::kLookup: {
      const auto mac = net80211::MacAddress::from_u64(q.bssid);
      const auto got = service.lookup(mac);
      const marauder::KnownAp* want = db.find(mac);
      if (got.has_value() != (want != nullptr)) return false;
      return !got || same_ap(*got, *want);
    }
    case Op::kNearest:
      return same_list(service.nearest_k(q.center, k), db.nearest_aps(q.center, k));
    case Op::kRange:
      return same_list(service.range(q.center, radius_m),
                       db.aps_in_range(q.center, radius_m));
  }
  return false;
}

const char* op_name(Op op) {
  switch (op) {
    case Op::kLookup:
      return "lookup";
    case Op::kNearest:
      return "nearest_k";
    case Op::kRange:
      return "range";
  }
  return "?";
}

constexpr Op kOps[] = {Op::kLookup, Op::kNearest, Op::kRange};

/// One timed pass: `queries` run over `threads` against the one const
/// Service, each latency landing in its query's pre-assigned slot so the
/// per-op percentiles are stable run to run.
struct Pass {
  double elapsed_s = 0.0;
  double qps = 0.0;
  std::size_t queries = 0;
  util::SampleSet latency_us[std::size(kOps)];
};

Pass run_pass(const wps::Service& service, const std::vector<Query>& queries,
              std::size_t threads, std::size_t k, double radius_m) {
  Pass pass;
  pass.queries = queries.size();
  std::vector<double> latency_s(queries.size(), 0.0);
  std::atomic<std::size_t> sink{0};
  const double t0 = now_seconds();
  util::ThreadPool::shared().run_chunks(
      queries.size(), 64, threads, [&](std::size_t, std::size_t begin, std::size_t end) {
        std::size_t local = 0;
        for (std::size_t i = begin; i < end; ++i) {
          const Query& q = queries[i];
          const double q0 = now_seconds();
          switch (q.op) {
            case Op::kLookup:
              local += service.lookup(net80211::MacAddress::from_u64(q.bssid)).has_value();
              break;
            case Op::kNearest:
              local += service.nearest_k(q.center, k).size();
              break;
            case Op::kRange:
              local += service.range(q.center, radius_m).size();
              break;
          }
          latency_s[i] = now_seconds() - q0;
        }
        // A do-not-optimize sink: one relaxed add per chunk keeps the
        // compiler from discarding the query results.
        sink.fetch_add(local, std::memory_order_relaxed);
      });
  pass.elapsed_s = now_seconds() - t0;
  pass.qps = pass.elapsed_s > 0.0 ? static_cast<double>(queries.size()) / pass.elapsed_s : 0.0;
  for (std::size_t i = 0; i < queries.size(); ++i) {
    pass.latency_us[static_cast<std::size_t>(queries[i].op)].add(latency_s[i] * 1e6);
  }
  return pass;
}

double pct(const util::SampleSet& s, double p) { return s.empty() ? 0.0 : s.percentile(p); }

void print_pass(const char* name, const Pass& pass) {
  std::cout << name << ": " << pass.queries << " queries in " << pass.elapsed_s << " s ("
            << pass.qps << " q/s)\n";
  for (const Op op : kOps) {
    const util::SampleSet& s = pass.latency_us[static_cast<std::size_t>(op)];
    std::cout << "  " << op_name(op) << ": " << s.count() << " ops, p50 " << pct(s, 50.0)
              << " us, p99 " << pct(s, 99.0) << " us\n";
  }
}

void write_pass(std::ostream& out, const Pass& pass, std::size_t threads) {
  out << "{\"threads\": " << threads << ", \"queries\": " << pass.queries
      << ", \"elapsed_s\": " << pass.elapsed_s << ", \"qps\": " << pass.qps;
  for (const Op op : kOps) {
    const util::SampleSet& s = pass.latency_us[static_cast<std::size_t>(op)];
    out << ",\n    \"" << op_name(op) << "\": {\"count\": " << s.count()
        << ", \"p50_us\": " << pct(s, 50.0) << ", \"p99_us\": " << pct(s, 99.0) << "}";
  }
  out << "}";
}

}  // namespace

int main(int argc, char** argv) {
  const util::Flags flags(argc, argv);
  const bool smoke = flags.has("smoke");
  const auto num_aps = static_cast<std::size_t>(
      flags.get_int("aps", smoke ? 150'000 : 10'000'000));
  const auto queries_total = static_cast<std::size_t>(
      flags.get_int("queries", smoke ? 6'000 : 40'000));
  const auto threads = static_cast<std::size_t>(flags.get_int("threads", smoke ? 2 : 4));
  const auto oracle_sample = static_cast<std::size_t>(
      flags.get_int("oracle-sample", smoke ? 600 : 2'000));
  const auto k = static_cast<std::size_t>(flags.get_int("k", 8));
  const double radius_m = flags.get_double("radius", 250.0);
  const std::uint64_t seed = flags.get_seed(2009);
  const std::string out_path = flags.get("out", "BENCH_wps.json");
  fs::path dir = flags.get("dir", "");
  if (dir.empty()) dir = fs::temp_directory_path();
  const fs::path snapshot_path = dir / "bench_wps.wps";

  std::cout << "Basilisk WPS bench (" << (smoke ? "smoke" : "full") << "): "
            << num_aps << " APs, " << queries_total << " queries over " << threads
            << " threads\n\n";

  double t0 = now_seconds();
  const marauder::ApDatabase db = build_city(num_aps, seed);
  const double gen_s = now_seconds() - t0;

  wps::SnapshotBuildOptions build_options;
  build_options.tile_size_m = flags.get_double("tile-size", 512.0);
  build_options.fsync = false;  // latency-bound scratch file
  t0 = now_seconds();
  auto written = wps::write_snapshot(db, geo::Geodetic{}, snapshot_path, build_options);
  const double build_s = now_seconds() - t0;
  if (!written.ok()) {
    std::cerr << "FAIL: snapshot build: " << written.error() << "\n";
    return 1;
  }
  const wps::SnapshotBuildStats build_stats = written.value();
  std::cout << "generate " << gen_s << " s, build " << build_s << " s ("
            << build_stats.tiles << " tiles, " << build_stats.file_bytes << " bytes)\n";

  // The timed passes get a service of their own, closed before the oracle
  // pass so the two never hold their tile indexes at once.
  double open_s = 0.0;
  double prewarm_s = 0.0;
  Pass cold;
  Pass warm;
  wps::ServiceStats stats;
  {
    t0 = now_seconds();
    auto opened = wps::Service::open(snapshot_path);
    open_s = now_seconds() - t0;
    if (!opened.ok()) {
      std::cerr << "FAIL: snapshot open: " << opened.error() << "\n";
      return 1;
    }
    const wps::Service& service = opened.value();
    std::cout << "open " << open_s << " s\n";
    cold = run_pass(service, make_queries(queries_total, num_aps, util::hash_combine(seed, 77)),
                    threads, k, radius_m);
    t0 = now_seconds();
    service.prewarm(threads);
    prewarm_s = now_seconds() - t0;
    warm = run_pass(service, make_queries(queries_total, num_aps, util::hash_combine(seed, 78)),
                    threads, k, radius_m);
    stats = service.stats();
  }
  print_pass("cold", cold);
  std::cout << "prewarm: " << prewarm_s << " s\n";
  print_pass("warm", warm);
  const double index_bytes_per_ap =
      num_aps == 0 ? 0.0 : static_cast<double>(stats.index_bytes) / static_cast<double>(num_aps);
  const bool index_ok = index_bytes_per_ap <= kMaxIndexBytesPerAp;
  std::cout << "tile indexes: " << stats.index_bytes << " heap bytes, " << index_bytes_per_ap
            << " per AP (gate <= " << kMaxIndexBytesPerAp << ")\n";

  // Oracle pass, after the timed ones so its allocations (the database's
  // lazily built index) stay out of their latencies: sampled bit-exact
  // equivalence against the in-memory db, on a freshly opened service so
  // first-touch answers are checked too.
  std::size_t mismatches = 0;
  {
    auto checked = wps::Service::open(snapshot_path);
    if (!checked.ok()) {
      std::cerr << "FAIL: snapshot open: " << checked.error() << "\n";
      return 1;
    }
    t0 = now_seconds();
    for (const Query& q : make_queries(oracle_sample, num_aps, seed)) {
      if (!check_query(checked.value(), db, q, k, radius_m)) ++mismatches;
    }
    std::cout << "oracle: " << oracle_sample << " sampled queries, " << mismatches
              << " mismatches (" << now_seconds() - t0 << " s)\n";
  }

  std::ofstream out(out_path);
  out << "{\n  \"benchmark\": \"wps\",\n"
      << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n"
      << "  \"hw_cores\": " << util::ThreadPool::default_parallelism() << ",\n"
      << "  \"build_type\": \"" << MM_BUILD_TYPE << "\",\n"
      << "  \"aps\": " << num_aps << ",\n"
      << "  \"tiles\": " << build_stats.tiles << ",\n"
      << "  \"snapshot_bytes\": " << build_stats.file_bytes << ",\n"
      << "  \"k\": " << k << ",\n"
      << "  \"radius_m\": " << radius_m << ",\n"
      << "  \"build_s\": " << build_s << ",\n"
      << "  \"open_s\": " << open_s << ",\n"
      << "  \"prewarm_s\": " << prewarm_s << ",\n"
      << "  \"index_bytes\": " << stats.index_bytes << ",\n"
      << "  \"index_bytes_per_ap\": " << index_bytes_per_ap << ",\n"
      << "  \"oracle\": {\"samples\": " << oracle_sample
      << ", \"mismatches\": " << mismatches << ", \"identical\": "
      << (mismatches == 0 ? "true" : "false") << "},\n"
      << "  \"cold\": ";
  write_pass(out, cold, threads);
  out << ",\n  \"warm\": ";
  write_pass(out, warm, threads);
  out << ",\n  \"quarantine\": {\"tiles\": " << stats.tiles_quarantined
      << ", \"sections_rejected\": " << stats.sections_rejected << "}\n}\n";
  std::cout << "\nwrote " << out_path << "\n";

  std::error_code ec;
  fs::remove(snapshot_path, ec);

  std::cout << (mismatches == 0 ? "PASS" : "FAIL")
            << ": mmapped service bit-identical to the in-memory oracle\n";
  std::cout << (index_ok ? "PASS" : "FAIL") << ": tile indexes hold " << index_bytes_per_ap
            << " B per AP (<= " << kMaxIndexBytesPerAp << ")\n";
  return mismatches == 0 && index_ok ? 0 : 1;
}
