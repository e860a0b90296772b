// wps_city: the serving tier of Rye & Levin's attack. A city snapshot of 1M
// APs is opened cold and queried until every tile has served a geometric
// query once (lazy tile CRC verify + per-tile spatial index), then two
// closed-loop clients run a warm lookup / nearest_k / range mix, and finally
// answer positioning queries (a client reports the BSSIDs it hears; the
// service's answers feed M-Loc).
#include <algorithm>
#include <bit>
#include <cmath>
#include <numeric>
#include <sstream>
#include <thread>
#include <unordered_map>

#include "city.h"
#include "marauder/mloc.h"
#include "sim/scenario.h"
#include "trace.h"
#include "util/rng.h"
#include "workloads.h"
#include "wps/format.h"
#include "wps/service.h"
#include "wps/snapshot_writer.h"

namespace mm::perfbench {

namespace {

namespace fs = std::filesystem;

constexpr std::size_t kAps = 1'000'000;
constexpr double kTileM = 512.0;
constexpr std::size_t kClients = 2;
constexpr std::size_t kWarmQueries = 30'000;
constexpr std::size_t kPositioning = 20'000;
constexpr std::size_t kOracleSamples = 3000;
constexpr std::size_t kNearestK = 8;
constexpr double kRangeM = 150.0;
constexpr double kDefaultRadiusM = 100.0;
constexpr double kNominalRepS = 3.3;
constexpr std::uint64_t kBssidBase = 0x02b500000000ULL;  // 02:b5:...

/// ~1 AP per 75 x 75 m at any count (bench_wps's constant-density city).
double half_extent() { return 37.5 * std::sqrt(static_cast<double>(kAps)); }

enum class Op : std::uint8_t { kLookup, kNearest, kRange };
constexpr std::size_t kOps = 3;

struct Query {
  Op op = Op::kLookup;
  std::uint64_t bssid = 0;
  geo::Vec2 center;
};

/// A positioning client: where it is and the BSSIDs whose service disc
/// covers it.
struct Client {
  geo::Vec2 truth;
  std::vector<net80211::MacAddress> heard;
};

struct WpsInput {
  std::vector<Query> cold;  ///< a geometric query per tile, a third after a lookup
  std::vector<Query> warm;
  std::vector<Client> clients;
  std::uint64_t snapshot_bytes = 0;
  std::uint64_t digest = 0;
};

/// The city's APs: uniform positions, 60% with a known radius, all drawn
/// from the fixed layout seed. --seed assigns the BSSIDs, as a permutation
/// i -> (a * i + b) mod kAps with a coprime to kAps, so tiles and snapshot
/// size never change while the MAC index order against the tile order does.
std::vector<wps::PackedRecord> make_records(std::uint64_t seed) {
  std::vector<wps::PackedRecord> records(kAps);
  util::Rng rng(kCityLayoutSeed);
  util::Rng names(util::hash_combine(seed, 0xB551Du));
  std::uint64_t a = 0;
  do {
    a = static_cast<std::uint64_t>(names.uniform_int(1, static_cast<std::int64_t>(kAps) - 1));
  } while (std::gcd(a, std::uint64_t{kAps}) != 1);
  const auto b =
      static_cast<std::uint64_t>(names.uniform_int(0, static_cast<std::int64_t>(kAps) - 1));
  const double h = half_extent();
  for (std::size_t i = 0; i < kAps; ++i) {
    wps::PackedRecord& r = records[i];
    r.bssid = kBssidBase + (a * i + b) % kAps;
    r.x = rng.uniform(-h, h);
    r.y = rng.uniform(-h, h);
    r.radius_m = rng.bernoulli(0.6) ? rng.uniform(20.0, 150.0) : std::nan("");
  }
  return records;
}

/// The in-memory database the snapshot is built from: the oracle every
/// sampled answer must match bit for bit.
marauder::ApDatabase make_oracle(const std::vector<wps::PackedRecord>& records) {
  marauder::ApDatabase db;
  for (const wps::PackedRecord& r : records) {
    marauder::KnownAp ap;
    ap.bssid = net80211::MacAddress::from_u64(r.bssid);
    ap.position = {r.x, r.y};
    if (r.has_radius()) ap.radius_m = r.radius_m;
    db.add(std::move(ap));
  }
  return db;
}

WpsInput make_input(std::uint64_t seed, const fs::path& snapshot) {
  WpsInput in;
  std::vector<wps::PackedRecord> records = make_records(seed);
  wps::SnapshotBuildOptions build;
  build.tile_size_m = kTileM;
  build.fsync = false;  // a benchmark input, rebuilt every run
  // write_snapshot sorts the records by (tile, BSSID) in place.
  const auto written = wps::write_snapshot(records, sim::uml_north_campus(), snapshot, build);
  if (written.ok()) in.snapshot_bytes = written.value().file_bytes;

  // Cold pass, over the tiles in a seed-shuffled order. Each tile's
  // lowest-BSSID AP centres one geometric query, which builds the tile's
  // spatial index. The tiles take turns in threes: a lookup of that BSSID
  // (tile CRC verify + MAC index read) and then a range query; a nearest_k;
  // a range query. (A nearest_k costs ten range queries.)
  const auto tile_of = [](const wps::PackedRecord& r) {
    return std::make_pair(wps::tile_coord(r.x, kTileM), wps::tile_coord(r.y, kTileM));
  };
  std::vector<std::size_t> firsts;  ///< each tile's lowest-BSSID record
  for (std::size_t i = 0; i < records.size(); ++i) {
    if (i == 0 || tile_of(records[i]) != tile_of(records[i - 1])) firsts.push_back(i);
  }
  util::Rng order(util::hash_combine(seed, 0xC01Du));
  order.shuffle(firsts);
  for (std::size_t i = 0; i < firsts.size(); ++i) {
    const wps::PackedRecord& r = records[firsts[i]];
    if (i % 3 == 0) in.cold.push_back({Op::kLookup, r.bssid, {r.x, r.y}});
    in.cold.push_back({i % 3 == 1 ? Op::kNearest : Op::kRange, r.bssid, {r.x, r.y}});
  }

  // Warm mix: 40% lookups (10% of them unknown BSSIDs), 30% range, 30%
  // nearest_k.
  const double h = half_extent();
  util::Rng mix(util::hash_combine(seed, 0x9e3779b97f4a7c15ULL));
  in.warm.reserve(kWarmQueries);
  for (std::size_t i = 0; i < kWarmQueries; ++i) {
    Query q;
    const double dice = mix.uniform(0.0, 1.0);
    if (dice < 0.4) {
      q.op = Op::kLookup;
      const auto pick = [&](std::size_t n) {
        return static_cast<std::uint64_t>(mix.uniform_int(0, static_cast<std::int64_t>(n) - 1));
      };
      q.bssid = mix.bernoulli(0.9) ? kBssidBase + pick(kAps) : 0x02ff00000000ULL + pick(1 << 20);
    } else {
      q.op = dice < 0.7 ? Op::kRange : Op::kNearest;
      q.center = {mix.uniform(-h, h), mix.uniform(-h, h)};
    }
    in.warm.push_back(q);
  }

  // Positioning clients hear every AP whose service disc covers them; a
  // grid of kRangeM cells finds the candidates.
  const auto cell = [](double v) { return static_cast<std::int64_t>(std::floor(v / kRangeM)); };
  std::unordered_map<std::uint64_t, std::vector<std::uint32_t>> grid;
  const auto key = [](std::int64_t cx, std::int64_t cy) {
    return (static_cast<std::uint64_t>(cx) << 32) ^ static_cast<std::uint32_t>(cy);
  };
  for (std::uint32_t i = 0; i < records.size(); ++i) {
    grid[key(cell(records[i].x), cell(records[i].y))].push_back(i);
  }
  util::Rng where(util::hash_combine(seed, 0x9051u));
  while (in.clients.size() < kPositioning) {
    Client c;
    c.truth = {where.uniform(-h, h), where.uniform(-h, h)};
    for (std::int64_t dx = -1; dx <= 1; ++dx) {
      for (std::int64_t dy = -1; dy <= 1; ++dy) {
        const auto it = grid.find(key(cell(c.truth.x) + dx, cell(c.truth.y) + dy));
        if (it == grid.end()) continue;
        for (const std::uint32_t i : it->second) {
          const wps::PackedRecord& r = records[i];
          const double radius = r.has_radius() ? r.radius_m : kDefaultRadiusM;
          if (c.truth.distance_to({r.x, r.y}) <= radius) {
            c.heard.push_back(net80211::MacAddress::from_u64(r.bssid));
          }
        }
      }
    }
    std::sort(c.heard.begin(), c.heard.end());
    if (!c.heard.empty()) in.clients.push_back(std::move(c));
  }

  Digest d;
  d.add(in.snapshot_bytes);
  for (const Query& q : in.cold) d.add(q.bssid);
  for (const Query& q : in.warm) d.add(q.bssid ^ std::bit_cast<std::uint64_t>(q.center.x));
  for (const Client& c : in.clients) d.add(c.truth.x + static_cast<double>(c.heard.size()));
  in.digest = d.value();
  return in;
}

/// Runs one query; returns how many records it produced (0 = unanswered).
std::size_t run_query(const wps::Service& svc, const Query& q) {
  switch (q.op) {
    case Op::kLookup:
      return svc.lookup(net80211::MacAddress::from_u64(q.bssid)) ? 1 : 0;
    case Op::kNearest:
      return svc.nearest_k(q.center, kNearestK).size();
    case Op::kRange:
      return svc.range(q.center, kRangeM).size() + 1;  // an empty range is an answer
  }
  return 0;
}

struct Latencies {
  util::SampleSet by_op[kOps];
  void add(Op op, double us) { by_op[static_cast<std::size_t>(op)].add(us); }
  void merge(const Latencies& other) {
    for (std::size_t i = 0; i < kOps; ++i) by_op[i].add_all(other.by_op[i].samples());
  }
};

struct Rep {
  double total_s = 0.0;
  double open_s = 0.0;
  double cold_s = 0.0;
  double prewarm_s = 0.0;
  double warm_s = 0.0;
  double positioning_s = 0.0;
  Latencies cold;
  Latencies warm;
  std::size_t unanswered = 0;  ///< known-BSSID lookups or positioning queries unanswered
  util::SampleSet errors;
  wps::ServiceStats stats;
  std::uint64_t digest = 0;
};

bool bits_equal(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool same_ap(const wps::WpsAp& got, const marauder::KnownAp& want) {
  return got.bssid == want.bssid && bits_equal(got.position.x, want.position.x) &&
         bits_equal(got.position.y, want.position.y) &&
         got.radius_m.has_value() == want.radius_m.has_value() &&
         (!got.radius_m || bits_equal(*got.radius_m, *want.radius_m));
}

bool same_list(const std::vector<wps::WpsAp>& got,
               const std::vector<const marauder::KnownAp*>& want) {
  if (got.size() != want.size()) return false;
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (!same_ap(got[i], *want[i])) return false;
  }
  return true;
}

/// One warm query against the in-memory ApDatabase: bit-identical answers
/// or a mismatch.
bool matches_oracle(const wps::Service& svc, const marauder::ApDatabase& db, const Query& q) {
  switch (q.op) {
    case Op::kLookup: {
      const auto got = svc.lookup(net80211::MacAddress::from_u64(q.bssid));
      const marauder::KnownAp* want = db.find(net80211::MacAddress::from_u64(q.bssid));
      return got.has_value() == (want != nullptr) && (!got || same_ap(*got, *want));
    }
    case Op::kNearest:
      return same_list(svc.nearest_k(q.center, kNearestK), db.nearest_aps(q.center, kNearestK));
    case Op::kRange:
      return same_list(svc.range(q.center, kRangeM), db.aps_in_range(q.center, kRangeM));
  }
  return false;
}

/// Opens the snapshot afresh and compares kOracleSamples evenly spaced warm
/// queries against the in-memory ApDatabase the snapshot was built from;
/// returns how many were checked and how many differed.
std::pair<std::size_t, std::size_t> check_oracle(const WpsInput& in, const fs::path& snapshot,
                                                 std::uint64_t seed) {
  const marauder::ApDatabase oracle = make_oracle(make_records(seed));
  auto opened = wps::Service::open(snapshot);
  if (!opened.ok()) return {0, 0};
  const wps::Service& svc = opened.value();
  std::size_t checked = 0;
  std::size_t mismatches = 0;
  const std::size_t stride = std::max<std::size_t>(1, in.warm.size() / kOracleSamples);
  for (std::size_t i = 0; i < in.warm.size() && checked < kOracleSamples; i += stride) {
    ++checked;
    if (!matches_oracle(svc, oracle, in.warm[i])) ++mismatches;
  }
  return {checked, mismatches};
}

Rep one_rep(const WpsInput& in, const fs::path& snapshot) {
  Rep rep;
  const double t0 = now_s();
  std::optional<wps::Service> opened;
  {
    const Scope span("wps", "open");
    auto result = wps::Service::open(snapshot);
    if (result.ok()) opened.emplace(std::move(result).value());
  }
  const double t_open = now_s();
  if (!opened) {
    rep.unanswered = in.cold.size();
    return rep;
  }
  const wps::Service& svc = *opened;

  std::size_t answers = 0;
  for (const Query& q : in.cold) {
    const double q0 = now_s();
    std::size_t got = 0;
    {
      const Scope span("wps", "cold_query");
      got = run_query(svc, q);
    }
    rep.cold.add(q.op, (now_s() - q0) * 1e6);
    if (got == 0) ++rep.unanswered;
    answers += got;
  }
  const double t_cold = now_s();
  {
    const Scope span("wps", "prewarm");
    (void)svc.prewarm(kClients);
  }
  const double t_prewarm = now_s();

  // Warm mix: closed-loop clients, each taking every kClients-th query.
  Latencies per_client[kClients];
  std::size_t client_answers[kClients] = {};
  std::size_t client_unanswered[kClients] = {};
  {
    std::vector<std::thread> clients;
    for (std::size_t c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        for (std::size_t i = c; i < in.warm.size(); i += kClients) {
          const Query& q = in.warm[i];
          const double q0 = now_s();
          std::size_t got = 0;
          {
            const Scope span("wps", "warm_query");
            got = run_query(svc, q);
          }
          per_client[c].add(q.op, (now_s() - q0) * 1e6);
          client_answers[c] += got;
          if (got == 0 && q.op == Op::kLookup && q.bssid < kBssidBase + kAps) {
            ++client_unanswered[c];
          }
        }
      });
    }
    for (std::thread& t : clients) t.join();
  }
  const double t_warm = now_s();

  // Positioning: each heard BSSID looked up, the discs handed to M-Loc
  // (outside the wps spans: M-Loc is not the service's time).
  util::SampleSet errors[kClients];
  std::size_t position_unanswered[kClients] = {};
  {
    std::vector<std::thread> clients;
    for (std::size_t c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        std::vector<geo::Circle> discs;
        for (std::size_t i = c; i < in.clients.size(); i += kClients) {
          discs.clear();
          for (const net80211::MacAddress& bssid : in.clients[i].heard) {
            std::optional<wps::WpsAp> ap;
            {
              const Scope span("wps", "lookup");
              ap = svc.lookup(bssid);
            }
            if (ap) discs.push_back({ap->position, ap->radius_m.value_or(kDefaultRadiusM)});
          }
          const marauder::LocalizationResult r = marauder::mloc_locate(discs);
          if (!r.ok || discs.size() != in.clients[i].heard.size()) {
            ++position_unanswered[c];
            continue;
          }
          errors[c].add(r.estimate.distance_to(in.clients[i].truth));
        }
      });
    }
    for (std::thread& t : clients) t.join();
  }
  const double t_pos = now_s();

  rep.open_s = t_open - t0;
  rep.cold_s = t_cold - t0;
  rep.prewarm_s = t_prewarm - t_cold;
  rep.warm_s = t_warm - t_prewarm;
  rep.positioning_s = t_pos - t_warm;
  rep.total_s = t_pos - t0;
  rep.stats = svc.stats();
  Digest digest;
  digest.add(static_cast<std::uint64_t>(answers));
  for (std::size_t c = 0; c < kClients; ++c) {
    rep.warm.merge(per_client[c]);
    rep.unanswered += client_unanswered[c] + position_unanswered[c];
    digest.add(static_cast<std::uint64_t>(client_answers[c]));
    rep.errors.add_all(errors[c].samples());
  }
  for (const double e : rep.errors.samples()) digest.add(e);
  rep.digest = digest.value();
  return rep;
}

}  // namespace

RunResult run_wps_city(const Options& options) {
  RunResult result;
  const fs::path snapshot = options.scratch / "city.wps";
  util::SampleSet setup_s;
  std::vector<std::uint64_t> setup_digests;
  const WpsInput input = timed_setups(kSetups, setup_s, [&] {
    WpsInput in = make_input(options.seed, snapshot);
    setup_digests.push_back(in.digest);
    return in;
  });
  result.check(std::equal(setup_digests.begin() + 1, setup_digests.end(), setup_digests.begin()),
               "set-ups produced different snapshots or query sets");

  result.check(reset_peak_rss(), "could not reset the peak RSS after the set-ups");
  const int reps = reps_for(options.seconds, kNominalRepS, 3);
  std::vector<Rep> runs;
  for (int i = 0; i < reps; ++i) {
    runs.push_back(one_rep(input, snapshot));
  }
  const double peak_mb = peak_rss_mb();
  // The checker's reference is built only now, so it is no part of the peak.
  const auto [oracle_checked, oracle_mismatches] = check_oracle(input, snapshot, options.seed);

  const Rep& first = runs.front();
  for (const Rep& r : runs) {
    result.attempted += input.cold.size() + input.warm.size() + input.clients.size();
    result.check(r.unanswered == 0, "WPS queries left unanswered", r.unanswered);
    result.check(r.stats.tiles_quarantined == 0 && r.stats.sections_rejected == 0,
                 "snapshot tiles quarantined", r.stats.tiles_quarantined + 1);
    result.check(r.digest == first.digest, "repetitions produced different answers");
  }
  result.check(oracle_checked > 0 && oracle_mismatches == 0,
               "WPS answers differ from the in-memory ApDatabase", oracle_mismatches);
  result.check(!first.errors.empty(), "no positioning query answered");

  util::SampleSet total;
  for (const Rep& r : runs) total.add(r.total_s);
  log_reps(options.workload, total);
  result.e2e("setup_s", setup_s.median(), "s");
  result.e2e("total_s", total.median(), "s");
  result.e2e("median_error_m", first.errors.empty() ? 0.0 : first.errors.median(), "m");
  result.e2e("peak_rss_mb", peak_mb, "MB");

  result.work = {{"aps", static_cast<double>(kAps)},
                 {"tiles", static_cast<double>(first.stats.tiles_total)},
                 {"snapshot_bytes", static_cast<double>(input.snapshot_bytes)},
                 {"cold_queries", static_cast<double>(input.cold.size())},
                 {"warm_queries", static_cast<double>(input.warm.size())},
                 {"positioning_queries", static_cast<double>(input.clients.size())},
                 {"oracle_checked", static_cast<double>(oracle_checked)},
                 {"reps", static_cast<double>(reps)}};

  if (options.trace) {
    Tracer::clear();
    Tracer::set_enabled(true);
    const Rep t = one_rep(input, snapshot);
    Tracer::set_enabled(false);
    add_layer_times(result);
    result.layer("trace.overhead_s", t.total_s - total.median(), "s");
    result.layer("cold_s", t.cold_s, "s");
    result.layer("queries_per_s", static_cast<double>(input.warm.size()) / t.warm_s,
                 "queries/s");
    result.layer("wps.open_s", t.open_s, "s");
    result.layer("wps.cold_pass_s", t.cold_s - t.open_s, "s");
    result.layer("wps.prewarm_s", t.prewarm_s, "s");
    result.layer("wps.tiles", static_cast<double>(t.stats.tiles_total), "count");
    result.layer("wps.quarantined_tiles", static_cast<double>(t.stats.tiles_quarantined),
                 "count");
    result.layer("wps.cold_queries", static_cast<double>(input.cold.size()), "count");
    result.layer("wps.warm_queries", static_cast<double>(input.warm.size()), "count");
    const char* names[kOps] = {"lookup", "nearest", "range"};
    for (std::size_t op = 0; op < kOps; ++op) {
      for (const auto& [phase, lat] : {std::pair{"cold", &t.cold}, std::pair{"warm", &t.warm}}) {
        const std::string base = std::string("wps.") + phase + "_" + names[op];
        result.layer(base + "_p50_us", lat->by_op[op].percentile(50.0), "us");
        result.layer(base + "_p99_us", lat->by_op[op].percentile(99.0), "us");
      }
    }
    std::ostringstream counters;
    counters << "{\"ServiceStats\": {\"records_total\": " << t.stats.records_total
             << ", \"tiles_total\": " << t.stats.tiles_total
             << ", \"sections_rejected\": " << t.stats.sections_rejected
             << ", \"footer_recovered\": " << (t.stats.footer_recovered ? "true" : "false")
             << ", \"mac_index_present\": " << (t.stats.mac_index_present ? "true" : "false")
             << ", \"tiles_quarantined\": " << t.stats.tiles_quarantined
             << ", \"records_quarantined\": " << t.stats.records_quarantined
             << ", \"epoch\": " << t.stats.epoch << "}}";
    result.counters_json = counters.str();
  }
  return result;
}

}  // namespace mm::perfbench
