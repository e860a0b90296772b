// Atlas spatial-index bench: the indexed hot paths against their linear-scan
// oracles, at constant AP density so the neighbourhood a query touches stays
// fixed while the world grows.
//
//   bench_spatial [--sizes 1000,10000,50000] [--reps R] [--smoke]
//                 [--out BENCH_spatial.json]
//
// Two experiments per size:
//   * AP-Rad constraint generation (aprad_prepare_constraints, which runs
//     through the Atlas grid) vs a bench-local copy of the O(n^2) all-pairs
//     neighbour scan it replaced;
//   * simulated delivery: the same probing scenario through a kIndexed world
//     vs a kScan world.
// Equivalence is a hard failure (exit 1): any bit difference between the
// indexed and scan outputs means the no-op proofs are wrong. Speedups are
// machine-dependent and only WARN when missed (CI runs the --smoke variant
// on whatever cores it gets); the headline target is >= 5x on the AP-Rad
// prepare at 10k APs.
#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "capture/sniffer.h"
#include "geo/spatial_index.h"
#include "marauder/ap_database.h"
#include "marauder/aprad.h"
#include "rf/propagation.h"
#include "sim/mobile.h"
#include "sim/mobility.h"
#include "sim/scenario.h"
#include "util/flags.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace {

using namespace mm;

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// ~1 AP per 75x75 m whatever the count: the 2R interest disc then holds a
/// bounded neighbourhood and the scan/grid gap is a pure function of n.
double half_extent_for(std::size_t num_aps) {
  return 37.5 * std::sqrt(static_cast<double>(num_aps));
}

std::vector<sim::ApTruth> make_truth(std::size_t num_aps) {
  sim::CampusConfig campus;
  campus.seed = 2009;
  campus.num_aps = num_aps;
  campus.half_extent_m = half_extent_for(num_aps);
  return sim::generate_campus_aps(campus);
}

/// One Gamma per AP: the AP plus up to three neighbours within 150 m — local
/// co-observation evidence touching every LP variable.
std::vector<std::set<net80211::MacAddress>> make_gammas(
    const std::vector<sim::ApTruth>& truth) {
  std::vector<geo::Vec2> positions;
  positions.reserve(truth.size());
  for (const auto& ap : truth) positions.push_back(ap.position);
  const geo::SpatialIndex index(positions);
  std::vector<std::set<net80211::MacAddress>> gammas;
  gammas.reserve(truth.size());
  std::vector<geo::SpatialIndex::Id> hits;
  for (std::size_t i = 0; i < truth.size(); ++i) {
    index.query_disc(positions, positions[i], 150.0, hits);
    std::set<net80211::MacAddress> gamma{truth[i].bssid};
    for (const geo::SpatialIndex::Id j : hits) {
      if (gamma.size() >= 4) break;
      gamma.insert(truth[j].bssid);
    }
    gammas.push_back(std::move(gamma));
  }
  return gammas;
}

/// aprad_prepare_constraints with the "<" neighbour scan written as the
/// O(n^2) all-pairs loop: the timing oracle for the library's grid path.
marauder::ApRadConstraints scan_prepare_constraints(
    const marauder::ApDatabase& db, const std::vector<std::set<net80211::MacAddress>>& gammas,
    const marauder::ApRadOptions& options) {
  marauder::ApRadConstraints out;
  const marauder::ApDatabase::RankMap& rank = db.rank_index();
  const marauder::ApDatabase::DiscSlabView slab = db.disc_slab();
  std::map<net80211::MacAddress, std::size_t> index;
  for (const auto& gamma : gammas) {
    for (const auto& mac : gamma) {
      const auto rit = rank.find(mac);
      if (rit == rank.end()) continue;
      if (index.emplace(mac, out.observed.size()).second) {
        out.observed.push_back(mac);
        out.position.push_back({slab.x[rit->second], slab.y[rit->second]});
      }
    }
  }
  std::set<std::pair<std::size_t, std::size_t>> co_observed;
  std::vector<std::size_t> members;
  for (const auto& gamma : gammas) {
    members.clear();
    for (const auto& mac : gamma) {
      const auto it = index.find(mac);
      if (it != index.end()) members.push_back(it->second);
    }
    for (std::size_t a = 0; a < members.size(); ++a) {
      for (std::size_t b = a + 1; b < members.size(); ++b) {
        co_observed.emplace(std::minmax(members[a], members[b]));
      }
    }
  }
  const std::vector<geo::Vec2>& position = out.position;
  const double interest_radius = 2.0 * options.max_radius_m;
  std::vector<std::pair<double, std::size_t>> candidates;
  for (std::size_t i = 0; i < position.size(); ++i) {
    candidates.clear();
    for (std::size_t j = 0; j < position.size(); ++j) {
      if (j == i || co_observed.count(std::minmax(i, j)) != 0) continue;
      const double d = position[i].distance_to(position[j]);
      if (d < interest_radius) candidates.emplace_back(d, j);
    }
    std::sort(candidates.begin(), candidates.end());
    const std::size_t take = std::min(options.max_less_neighbors, candidates.size());
    for (std::size_t c = 0; c < take; ++c) {
      out.less_rows.emplace(std::minmax(i, candidates[c].second), candidates[c].first);
    }
  }
  out.co_pairs.assign(co_observed.begin(), co_observed.end());
  for (const auto& [i, j] : out.co_pairs) {
    out.co_dist.push_back(position[i].distance_to(position[j]));
  }
  return out;
}

bool same_constraints(const marauder::ApRadConstraints& a,
                      const marauder::ApRadConstraints& b) {
  if (a.observed != b.observed || a.co_pairs != b.co_pairs) return false;
  if (a.position.size() != b.position.size() || a.co_dist.size() != b.co_dist.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.position.size(); ++i) {
    if (std::bit_cast<std::uint64_t>(a.position[i].x) !=
            std::bit_cast<std::uint64_t>(b.position[i].x) ||
        std::bit_cast<std::uint64_t>(a.position[i].y) !=
            std::bit_cast<std::uint64_t>(b.position[i].y)) {
      return false;
    }
  }
  for (std::size_t i = 0; i < a.co_dist.size(); ++i) {
    if (std::bit_cast<std::uint64_t>(a.co_dist[i]) !=
        std::bit_cast<std::uint64_t>(b.co_dist[i])) {
      return false;
    }
  }
  if (a.less_rows.size() != b.less_rows.size()) return false;
  auto itb = b.less_rows.begin();
  for (const auto& [pair, d] : a.less_rows) {
    if (pair != itb->first ||
        std::bit_cast<std::uint64_t>(d) != std::bit_cast<std::uint64_t>(itb->second)) {
      return false;
    }
    ++itb;
  }
  return true;
}

struct ApRadRow {
  std::size_t aps = 0;
  double scan_s = 0.0;
  double grid_s = 0.0;
  bool identical = false;
};

ApRadRow bench_aprad(std::size_t num_aps, int reps) {
  ApRadRow row;
  row.aps = num_aps;
  const auto truth = make_truth(num_aps);
  const auto db = marauder::ApDatabase::from_truth(truth, false);
  const auto gammas = make_gammas(truth);

  const marauder::ApRadOptions options;
  marauder::ApRadConstraints scan_out;
  marauder::ApRadConstraints grid_out;
  row.scan_s = 1e300;
  row.grid_s = 1e300;
  for (int rep = 0; rep < reps; ++rep) {
    double t0 = now_seconds();
    scan_out = scan_prepare_constraints(db, gammas, options);
    row.scan_s = std::min(row.scan_s, now_seconds() - t0);
    t0 = now_seconds();
    grid_out = marauder::aprad_prepare_constraints(db, gammas, options);
    row.grid_s = std::min(row.grid_s, now_seconds() - t0);
  }
  row.identical = same_constraints(scan_out, grid_out);
  return row;
}

struct DeliveryRow {
  std::size_t aps = 0;
  double scan_s = 0.0;
  double indexed_s = 0.0;
  std::uint64_t transmitted = 0;
  std::uint64_t culled = 0;
  bool identical = false;
};

struct DeliveryRun {
  capture::ObservationStore store;
  capture::SnifferStats stats;
  double elapsed_s = 0.0;
  std::uint64_t transmitted = 0;
  std::uint64_t culled = 0;
};

DeliveryRun run_delivery(const std::vector<sim::ApTruth>& truth, double half_extent,
                         sim::DeliveryMode mode, double duration_s) {
  DeliveryRun out;
  sim::World world({.seed = 5,
                    .propagation = std::make_shared<rf::LogDistanceModel>(3.5),
                    .delivery = mode});
  sim::populate_world(world, truth, /*beacons_enabled=*/false);
  for (int i = 0; i < 4; ++i) {
    sim::MobileConfig mc;
    mc.mac = net80211::MacAddress::from_u64(0x0016f0aa0000ULL + static_cast<std::uint64_t>(i));
    mc.profile.probes = true;
    mc.profile.scan_interval_s = 2.0;
    mc.mobility = std::make_shared<sim::RandomWaypoint>(
        geo::Vec2{-half_extent, -half_extent}, geo::Vec2{half_extent, half_extent}, 1.0,
        2.0, 60.0, 900 + static_cast<std::uint64_t>(i));
    world.add_mobile(std::make_unique<sim::MobileDevice>(mc));
  }
  capture::SnifferConfig sc;
  sc.position = {0.0, 0.0};
  sc.antenna_height_m = 20.0;
  capture::Sniffer sniffer(sc, &out.store);
  sniffer.attach(world);

  const double t0 = now_seconds();
  world.run_until(duration_s);
  out.elapsed_s = now_seconds() - t0;
  out.stats = sniffer.stats();
  out.transmitted = world.frames_transmitted();
  out.culled = world.deliveries_culled();
  return out;
}

bool same_stores(const capture::ObservationStore& a, const capture::ObservationStore& b) {
  if (a.devices() != b.devices()) return false;
  for (const auto& mac : a.devices()) {
    const capture::DeviceRecord* ra = a.device(mac);
    const capture::DeviceRecord* rb = b.device(mac);
    if (ra->probe_requests != rb->probe_requests ||
        std::bit_cast<std::uint64_t>(ra->first_seen) !=
            std::bit_cast<std::uint64_t>(rb->first_seen) ||
        std::bit_cast<std::uint64_t>(ra->last_seen) !=
            std::bit_cast<std::uint64_t>(rb->last_seen) ||
        ra->contacts.size() != rb->contacts.size()) {
      return false;
    }
    auto itb = rb->contacts.begin();
    for (const auto& [ap, ca] : ra->contacts) {
      if (ap != itb->first || ca.count != itb->second.count ||
          ca.times != itb->second.times) {
        return false;
      }
      ++itb;
    }
  }
  return true;
}

DeliveryRow bench_delivery(std::size_t num_aps, double duration_s) {
  DeliveryRow row;
  row.aps = num_aps;
  const auto truth = make_truth(num_aps);
  const double half_extent = half_extent_for(num_aps);
  const DeliveryRun scan = run_delivery(truth, half_extent, sim::DeliveryMode::kScan,
                                        duration_s);
  const DeliveryRun indexed = run_delivery(truth, half_extent, sim::DeliveryMode::kIndexed,
                                           duration_s);
  row.scan_s = scan.elapsed_s;
  row.indexed_s = indexed.elapsed_s;
  row.transmitted = indexed.transmitted;
  row.culled = indexed.culled;
  row.identical = scan.transmitted == indexed.transmitted &&
                  scan.stats.frames_decoded == indexed.stats.frames_decoded &&
                  same_stores(scan.store, indexed.store);
  return row;
}

std::vector<std::size_t> parse_sizes(const std::string& spec) {
  std::vector<std::size_t> sizes;
  std::stringstream stream(spec);
  std::string token;
  while (std::getline(stream, token, ',')) {
    if (!token.empty()) sizes.push_back(static_cast<std::size_t>(std::stoull(token)));
  }
  return sizes;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Flags flags(argc, argv);
  const bool smoke = flags.has("smoke");
  const std::string default_sizes = smoke ? "1000,4000" : "1000,10000,50000";
  const std::vector<std::size_t> sizes = parse_sizes(flags.get("sizes", default_sizes));
  const int reps = static_cast<int>(flags.get_int("reps", smoke ? 1 : 3));
  const double sim_duration_s = smoke ? 4.0 : 8.0;
  const std::string out_path = flags.get("out", "BENCH_spatial.json");

  std::cout << "Atlas spatial-index bench (" << (smoke ? "smoke" : "full") << ")\n\n";

  std::vector<ApRadRow> aprad_rows;
  std::vector<DeliveryRow> delivery_rows;
  bool identical = true;
  for (const std::size_t n : sizes) {
    const ApRadRow ar = bench_aprad(n, reps);
    const double ar_speedup = ar.grid_s > 0.0 ? ar.scan_s / ar.grid_s : 0.0;
    std::cout << "aprad prepare  " << n << " APs: scan " << ar.scan_s << " s, grid "
              << ar.grid_s << " s (" << ar_speedup << "x) "
              << (ar.identical ? "identical" : "MISMATCH") << "\n";
    identical = identical && ar.identical;
    aprad_rows.push_back(ar);

    const DeliveryRow dr = bench_delivery(n, sim_duration_s);
    const double dr_speedup = dr.indexed_s > 0.0 ? dr.scan_s / dr.indexed_s : 0.0;
    std::cout << "sim delivery   " << n << " APs: scan " << dr.scan_s << " s, indexed "
              << dr.indexed_s << " s (" << dr_speedup << "x, " << dr.culled
              << " culled of " << dr.transmitted << " tx) "
              << (dr.identical ? "identical" : "MISMATCH") << "\n";
    identical = identical && dr.identical;
    delivery_rows.push_back(dr);
  }

  std::ofstream out(out_path);
  out << "{\n  \"benchmark\": \"spatial_index\",\n"
      << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n"
      << "  \"hw_cores\": " << util::ThreadPool::default_parallelism() << ",\n"
      << "  \"build_type\": \"" << MM_BUILD_TYPE << "\",\n"
      << "  \"reps\": " << reps << ",\n  \"aprad\": [";
  for (std::size_t i = 0; i < aprad_rows.size(); ++i) {
    const ApRadRow& r = aprad_rows[i];
    out << (i == 0 ? "" : ",") << "\n    {\"aps\": " << r.aps << ", \"scan_s\": "
        << r.scan_s << ", \"grid_s\": " << r.grid_s << ", \"speedup\": "
        << (r.grid_s > 0.0 ? r.scan_s / r.grid_s : 0.0) << ", \"identical\": "
        << (r.identical ? "true" : "false") << "}";
  }
  out << "\n  ],\n  \"delivery\": [";
  for (std::size_t i = 0; i < delivery_rows.size(); ++i) {
    const DeliveryRow& r = delivery_rows[i];
    out << (i == 0 ? "" : ",") << "\n    {\"aps\": " << r.aps << ", \"scan_s\": "
        << r.scan_s << ", \"indexed_s\": " << r.indexed_s << ", \"speedup\": "
        << (r.indexed_s > 0.0 ? r.scan_s / r.indexed_s : 0.0) << ", \"culled\": "
        << r.culled << ", \"transmitted\": " << r.transmitted << ", \"identical\": "
        << (r.identical ? "true" : "false") << "}";
  }
  out << "\n  ]\n}\n";
  std::cout << "\nwrote " << out_path << "\n";

  // Bit-identity is the contract; a mismatch fails the bench outright.
  std::cout << (identical ? "PASS" : "FAIL")
            << ": indexed outputs bit-identical to scan oracles\n";
  for (const ApRadRow& r : aprad_rows) {
    if (r.aps != 10000) continue;
    const double speedup = r.grid_s > 0.0 ? r.scan_s / r.grid_s : 0.0;
    std::cout << (speedup >= 5.0 ? "PASS" : "WARN") << ": aprad prepare speedup "
              << speedup << "x at 10k APs (target >= 5x)\n";
  }
  return identical ? 0 : 1;
}
