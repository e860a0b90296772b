// Atlas equivalence: every indexed hot path must be bit-identical to the
// linear-scan baseline it replaced. This file pins the three layers end to
// end — the medium's delivery culling (kScan vs kIndexed worlds running the
// same scenario, clean and under a fault plan), AP-Rad's grid neighbour scan
// vs the O(n^2) definition, and ApDatabase's grid queries
// vs brute force over sorted_records(). It also holds the store's Gamma
// membership (first/last-instant shortcut, then a scan) to the rule written
// out as a brute-force loop.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "capture/sniffer.h"
#include "marauder/aprad.h"
#include "marauder/tracker.h"
#include "rf/propagation.h"
#include "sim/mobile.h"
#include "sim/mobility.h"
#include "sim/scenario.h"
#include "unique_temp_path.h"
#include "util/rng.h"

namespace mm {
namespace {

struct RunResult {
  capture::ObservationStore store;
  capture::SnifferStats stats;
  capture::SnifferStats far_stats;  ///< station 50 km out: decodes nothing
  std::uint64_t transmitted = 0;
  std::uint64_t culled = 0;
};

/// One deterministic campus scenario: APs with beacons, a dozen wandering
/// probers, one sniffer. Identical inputs whatever the delivery mode.
RunResult run_campus(sim::DeliveryMode mode, const fault::FaultPlan& plan,
                     double shadowing_sigma_db = 0.0,
                     double far_station_x_m = 50000.0) {
  sim::CampusConfig campus;
  campus.seed = 2024;
  campus.num_aps = 150;
  campus.half_extent_m = 400.0;
  const auto truth = sim::generate_campus_aps(campus);

  RunResult out;
  {
    // Log-distance clutter: max_range_m is finite — with shadowing too,
    // since the truncated draw admits a 6-sigma quantile bound — so the
    // sniffer's rssi-floor culling is actually exercised.
    sim::World world({.seed = 11,
                      .propagation = std::make_shared<rf::LogDistanceModel>(
                          3.2, shadowing_sigma_db, /*seed=*/9),
                      .delivery = mode});
    sim::populate_world(world, truth, /*beacons_enabled=*/true);

    util::Rng rng(77);
    for (int i = 0; i < 12; ++i) {
      sim::MobileConfig mc;
      mc.mac = net80211::MacAddress::random(rng, {0x00, 0x21, 0x5c});
      mc.profile.probes = true;
      mc.profile.scan_interval_s = 15.0;
      mc.mobility = std::make_shared<sim::RandomWaypoint>(
          geo::Vec2{-400.0, -400.0}, geo::Vec2{400.0, 400.0}, 1.0, 2.0, 200.0,
          500 + static_cast<std::uint64_t>(i));
      world.add_mobile(std::make_unique<sim::MobileDevice>(mc));
    }

    capture::SnifferConfig sc;
    sc.position = {0.0, 0.0};
    sc.antenna_height_m = 20.0;
    sc.fault_plan = plan;
    capture::Sniffer sniffer(sc, &out.store);
    sniffer.attach(world);

    // A second station 50 km out — far beyond the log-distance model's
    // conservative max_range_m for its decode floor, so its rssi-floor
    // interest culls every delivery in kIndexed while kScan still offers
    // each frame. Its decode probability is exactly 0 either way.
    capture::ObservationStore far_store;
    capture::SnifferConfig far_sc;
    far_sc.position = {far_station_x_m, 0.0};
    far_sc.antenna_height_m = 20.0;
    far_sc.fault_plan = plan;
    capture::Sniffer far_sniffer(far_sc, &far_store);
    far_sniffer.attach(world);

    world.run_until(90.0);
    out.stats = sniffer.stats();
    out.far_stats = far_sniffer.stats();
    out.transmitted = world.frames_transmitted();
    out.culled = world.deliveries_culled();
    EXPECT_EQ(far_store.device_count(), 0u);
  }
  return out;
}

void expect_stores_equal(const capture::ObservationStore& a,
                         const capture::ObservationStore& b) {
  ASSERT_EQ(a.devices(), b.devices());
  for (const auto& mac : a.devices()) {
    const capture::DeviceRecord* ra = a.device(mac);
    const capture::DeviceRecord* rb = b.device(mac);
    ASSERT_NE(ra, nullptr);
    ASSERT_NE(rb, nullptr);
    EXPECT_EQ(ra->first_seen, rb->first_seen) << mac.to_string();
    EXPECT_EQ(ra->last_seen, rb->last_seen) << mac.to_string();
    EXPECT_EQ(ra->probe_requests, rb->probe_requests) << mac.to_string();
    EXPECT_EQ(ra->directed_ssids, rb->directed_ssids) << mac.to_string();
    ASSERT_EQ(ra->contacts.size(), rb->contacts.size()) << mac.to_string();
    auto itb = rb->contacts.begin();
    for (const auto& [ap, ca] : ra->contacts) {
      ASSERT_EQ(ap, itb->first) << mac.to_string();
      const capture::ApContact& cb = itb->second;
      EXPECT_EQ(ca.first_seen, cb.first_seen);
      EXPECT_EQ(ca.last_seen, cb.last_seen);
      EXPECT_EQ(ca.count, cb.count);
      EXPECT_EQ(ca.last_rssi_dbm, cb.last_rssi_dbm);
      EXPECT_EQ(ca.times, cb.times);
      ++itb;
    }
  }
  ASSERT_EQ(a.ap_sightings().size(), b.ap_sightings().size());
  auto itb = b.ap_sightings().begin();
  for (const capture::ApSighting& sa : a.ap_sightings()) {
    ASSERT_EQ(sa.bssid, itb->bssid);
    EXPECT_EQ(sa.ssid, itb->ssid);
    EXPECT_EQ(sa.channel, itb->channel);
    EXPECT_EQ(sa.beacons, itb->beacons);
    EXPECT_EQ(sa.last_rssi_dbm, itb->last_rssi_dbm);
    ++itb;
  }
}

void expect_results_equal(
    const std::map<net80211::MacAddress, marauder::LocalizationResult>& a,
    const std::map<net80211::MacAddress, marauder::LocalizationResult>& b) {
  ASSERT_EQ(a.size(), b.size());
  auto itb = b.begin();
  for (const auto& [mac, ra] : a) {
    ASSERT_EQ(mac, itb->first);
    const marauder::LocalizationResult& rb = itb->second;
    EXPECT_EQ(ra.ok, rb.ok) << mac.to_string();
    EXPECT_EQ(ra.method, rb.method) << mac.to_string();
    // Bit-exact, not "near": the whole point of the determinism contract.
    EXPECT_EQ(ra.estimate.x, rb.estimate.x) << mac.to_string();
    EXPECT_EQ(ra.estimate.y, rb.estimate.y) << mac.to_string();
    EXPECT_EQ(ra.num_aps, rb.num_aps) << mac.to_string();
    EXPECT_EQ(ra.used_fallback, rb.used_fallback) << mac.to_string();
    ++itb;
  }
}

TEST(AtlasEquivalence, DeliveryCullingIsInvisibleClean) {
  const RunResult scan = run_campus(sim::DeliveryMode::kScan, {});
  const RunResult indexed = run_campus(sim::DeliveryMode::kIndexed, {});

  EXPECT_EQ(scan.culled, 0u);
  EXPECT_GT(indexed.culled, 0u);  // the index must actually cull, or this test is vacuous
  EXPECT_EQ(scan.transmitted, indexed.transmitted);
  // The far station proves the rssi-floor culling: kScan offers it every
  // frame, kIndexed none — and it decodes zero either way.
  EXPECT_EQ(scan.far_stats.frames_on_air, scan.transmitted);
  EXPECT_EQ(indexed.far_stats.frames_on_air, 0u);
  EXPECT_EQ(scan.far_stats.frames_decoded, 0u);
  EXPECT_EQ(indexed.far_stats.frames_decoded, 0u);
  // Offered deliveries never grow; everything decodable is untouched.
  EXPECT_GE(scan.stats.frames_on_air, indexed.stats.frames_on_air);
  EXPECT_EQ(scan.stats.frames_decoded, indexed.stats.frames_decoded);
  EXPECT_EQ(scan.stats.probe_requests, indexed.stats.probe_requests);
  EXPECT_EQ(scan.stats.probe_responses, indexed.stats.probe_responses);
  EXPECT_EQ(scan.stats.beacons, indexed.stats.beacons);
  EXPECT_EQ(scan.stats.associations, indexed.stats.associations);
  EXPECT_EQ(scan.stats.data_frames, indexed.stats.data_frames);
  expect_stores_equal(scan.store, indexed.store);
}

TEST(AtlasEquivalence, DeliveryCullingIsInvisibleUnderFaults) {
  fault::FaultPlan plan;
  plan.corrupt_rate = 0.02;
  plan.truncate_rate = 0.01;
  plan.drop_rate = 0.02;
  plan.duplicate_rate = 0.01;
  plan.nic_dropout_rate = 0.1;
  plan.nic_dropout_mean_s = 10.0;
  plan.clock_skew_max_s = 0.25;
  plan.clock_drift_max_ppm = 40.0;
  plan.seed = 0xFA11;

  const RunResult scan = run_campus(sim::DeliveryMode::kScan, plan);
  const RunResult indexed = run_campus(sim::DeliveryMode::kIndexed, plan);

  EXPECT_GT(indexed.culled, 0u);
  EXPECT_EQ(scan.stats.frames_decoded, indexed.stats.frames_decoded);
  EXPECT_EQ(scan.stats.frames_quarantined, indexed.stats.frames_quarantined);
  EXPECT_EQ(scan.stats.frames_fault_dropped, indexed.stats.frames_fault_dropped);
  EXPECT_EQ(scan.stats.frames_fault_duplicated, indexed.stats.frames_fault_duplicated);
  // (card_down_skips is NOT compared: it counts decode attempts during
  // dropout windows, and culled sub-floor deliveries never attempt.)
  expect_stores_equal(scan.store, indexed.store);
}

TEST(AtlasEquivalence, ShadowedRssiFloorCullingIsInvisible) {
  // Before Slipstream, LogDistanceModel with shadowing retreated to
  // max_range_m = +infinity — shadowed worlds culled nothing and the indexed
  // medium degenerated to a full scan. The draw is now truncated at
  // +/- 6 sigma, so the quantile bound (inverse of the -6 sigma envelope) is
  // provably conservative: the indexed run culls real deliveries while
  // decoding, quarantining, and storing exactly what the scan run does. The
  // shadowing term is a pure position hash — culled links consume zero
  // Bernoulli draws from the event RNG stream, which is what keeps the two
  // modes bit-identical.
  // The 6-sigma allowance widens the cull radius by 10^(36 / (10 * 3.2)) —
  // about 13x — so the shadowed far station sits at 1000 km: provably past
  // the widened bound, because the clean runs above prove the base bound is
  // under 50 km.
  const double sigma_db = 6.0;
  const double far_x_m = 1.0e6;
  const RunResult scan = run_campus(sim::DeliveryMode::kScan, {}, sigma_db, far_x_m);
  const RunResult indexed = run_campus(sim::DeliveryMode::kIndexed, {}, sigma_db, far_x_m);

  EXPECT_EQ(scan.culled, 0u);
  EXPECT_GT(indexed.culled, 0u);  // the finite shadowed bound must actually cull
  EXPECT_EQ(scan.transmitted, indexed.transmitted);
  // The far station sits beyond even the 6-sigma-widened bound, so its
  // rssi-floor interest culls everything in kIndexed; either way it decodes
  // nothing (its links are below the exact-zero decode floor).
  EXPECT_EQ(scan.far_stats.frames_on_air, scan.transmitted);
  EXPECT_EQ(indexed.far_stats.frames_on_air, 0u);
  EXPECT_EQ(scan.far_stats.frames_decoded, 0u);
  EXPECT_EQ(indexed.far_stats.frames_decoded, 0u);
  EXPECT_GE(scan.stats.frames_on_air, indexed.stats.frames_on_air);
  EXPECT_EQ(scan.stats.frames_decoded, indexed.stats.frames_decoded);
  EXPECT_EQ(scan.stats.probe_requests, indexed.stats.probe_requests);
  EXPECT_EQ(scan.stats.beacons, indexed.stats.beacons);
  expect_stores_equal(scan.store, indexed.store);
}

TEST(AtlasEquivalence, LocateAllBitIdenticalAcrossModesAndThreads) {
  const RunResult scan = run_campus(sim::DeliveryMode::kScan, {});
  const RunResult indexed = run_campus(sim::DeliveryMode::kIndexed, {});

  sim::CampusConfig campus;
  campus.seed = 2024;
  campus.num_aps = 150;
  campus.half_extent_m = 400.0;
  const auto truth = sim::generate_campus_aps(campus);

  std::optional<std::map<net80211::MacAddress, marauder::LocalizationResult>> reference;
  for (const capture::ObservationStore* store : {&scan.store, &indexed.store}) {
    for (const std::size_t threads : {1u, 2u, 8u}) {
      marauder::TrackerOptions options;
      options.algorithm = marauder::Algorithm::kApRad;
      options.threads = threads;
      marauder::Tracker tracker(marauder::ApDatabase::from_truth(truth, false), options);
      tracker.prepare(*store);
      const auto results = tracker.locate_all(*store);
      if (!reference) {
        EXPECT_FALSE(results.empty());
        reference = results;
      } else {
        expect_results_equal(*reference, results);
      }
    }
  }
}

// Torn-write checkpointing used to force always-deliver (clock-driven
// checkpoints rode the delivery stream, so the interest had to stay open).
// Now checkpoints are event-queue scheduled: a torn-write station keeps its
// tight interest, the medium culls it like any other, and the checkpoint
// cadence — and the store — are identical in both delivery modes.
TEST(AtlasEquivalence, TornWriteSnifferIsStillCulled) {
  fault::FaultPlan plan;
  plan.torn_write_rate = 0.3;
  plan.seed = 0x70;

  struct TornRun {
    capture::ObservationStore store;
    capture::SnifferStats stats;
    std::size_t checkpoints = 0;
    std::uint64_t torn = 0;
    std::uint64_t culled = 0;
  };
  const auto run_mode = [&](sim::DeliveryMode mode) {
    sim::CampusConfig campus;
    campus.seed = 2024;
    campus.num_aps = 60;
    campus.half_extent_m = 300.0;
    const auto truth = sim::generate_campus_aps(campus);

    TornRun out;
    sim::World world({.seed = 31,
                      .propagation = std::make_shared<rf::LogDistanceModel>(3.2),
                      .delivery = mode});
    sim::populate_world(world, truth, /*beacons_enabled=*/true);
    util::Rng rng(55);
    for (int i = 0; i < 6; ++i) {
      sim::MobileConfig mc;
      mc.mac = net80211::MacAddress::random(rng, {0x00, 0x21, 0x5c});
      mc.profile.probes = true;
      mc.profile.scan_interval_s = 10.0;
      mc.mobility = std::make_shared<sim::RandomWaypoint>(
          geo::Vec2{-300.0, -300.0}, geo::Vec2{300.0, 300.0}, 1.0, 2.0, 150.0,
          900 + static_cast<std::uint64_t>(i));
      world.add_mobile(std::make_unique<sim::MobileDevice>(mc));
    }

    capture::SnifferConfig sc;
    sc.position = {0.0, 0.0};
    sc.antenna_height_m = 20.0;
    sc.fault_plan = plan;
    sc.checkpoint_path = testing_support::unique_temp_path(
        mode == sim::DeliveryMode::kScan ? "mm_torn_scan.csv" : "mm_torn_indexed.csv");
    sc.checkpoint_interval_s = 5.0;
    capture::Sniffer sniffer(sc, &out.store);
    sniffer.attach(world);
    world.run_until(60.0);
    out.stats = sniffer.stats();
    out.checkpoints = sniffer.checkpointer()->checkpoints_written();
    out.torn = sniffer.checkpointer()->failures();
    out.culled = world.deliveries_culled();
    std::filesystem::remove(*sc.checkpoint_path);
    return out;
  };

  const TornRun scan = run_mode(sim::DeliveryMode::kScan);
  const TornRun indexed = run_mode(sim::DeliveryMode::kIndexed);

  // The whole point of the decoupling: the torn-write station no longer
  // pins its interest open, so the indexed medium actually culls.
  EXPECT_EQ(scan.culled, 0u);
  EXPECT_GT(indexed.culled, 0u);
  // Clock-driven cadence is delivery-mode independent, torn saves included.
  EXPECT_EQ(scan.checkpoints + scan.torn, 12u);
  EXPECT_EQ(scan.checkpoints, indexed.checkpoints);
  EXPECT_EQ(scan.torn, indexed.torn);
  EXPECT_EQ(scan.stats.frames_decoded, indexed.stats.frames_decoded);
  expect_stores_equal(scan.store, indexed.store);
}

/// AP-Rad's "<" rows and co-observation pairs by their O(n^2) definition,
/// over the variables and positions constraint generation returned: every
/// other AP is a candidate for each AP's nearest non-co-observed rows, and
/// the co-observed set is rebuilt from the Gammas.
struct ScanConstraints {
  std::map<std::pair<std::size_t, std::size_t>, double> less_rows;
  std::vector<std::pair<std::size_t, std::size_t>> co_pairs;
  std::vector<double> co_dist;
};

ScanConstraints scan_constraints(const marauder::ApRadConstraints& got,
                                 const std::vector<std::set<net80211::MacAddress>>& gammas,
                                 const marauder::ApRadOptions& options) {
  const std::size_t n = got.observed.size();
  std::map<net80211::MacAddress, std::size_t> index;
  for (std::size_t i = 0; i < n; ++i) index.emplace(got.observed[i], i);
  std::set<std::pair<std::size_t, std::size_t>> co_observed;
  for (const auto& gamma : gammas) {
    for (const auto& a : gamma) {
      for (const auto& b : gamma) {
        const auto ia = index.find(a);
        const auto ib = index.find(b);
        if (ia == index.end() || ib == index.end() || ia->second >= ib->second) continue;
        co_observed.emplace(ia->second, ib->second);
      }
    }
  }
  ScanConstraints out;
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<std::pair<double, std::size_t>> candidates;
    for (std::size_t j = 0; j < n; ++j) {
      if (j == i || co_observed.count({std::min(i, j), std::max(i, j)}) != 0) continue;
      const double d = got.position[i].distance_to(got.position[j]);
      if (d < 2.0 * options.max_radius_m) candidates.emplace_back(d, j);
    }
    std::sort(candidates.begin(), candidates.end());
    candidates.resize(std::min(candidates.size(), options.max_less_neighbors));
    for (const auto& [d, j] : candidates) {
      out.less_rows.emplace(std::make_pair(std::min(i, j), std::max(i, j)), d);
    }
  }
  out.co_pairs.assign(co_observed.begin(), co_observed.end());
  for (const auto& [i, j] : out.co_pairs) {
    out.co_dist.push_back(got.position[i].distance_to(got.position[j]));
  }
  return out;
}

TEST(AtlasEquivalence, ApRadConstraintsMatchScanReference) {
  const RunResult run = run_campus(sim::DeliveryMode::kIndexed, {});
  const auto gammas = run.store.session_gammas(5.0);
  ASSERT_FALSE(gammas.empty());

  sim::CampusConfig campus;
  campus.seed = 2024;
  campus.num_aps = 150;
  campus.half_extent_m = 400.0;
  const marauder::ApDatabase db =
      marauder::ApDatabase::from_truth(sim::generate_campus_aps(campus), false);

  // The default options, and one without the per-AP limit, where every
  // candidate inside the 2R interest disc becomes a row.
  marauder::ApRadOptions unlimited;
  unlimited.max_less_neighbors = 1000;
  for (const marauder::ApRadOptions& options : {marauder::ApRadOptions{}, unlimited}) {
    SCOPED_TRACE("max_less_neighbors " + std::to_string(options.max_less_neighbors));
    const marauder::ApRadConstraints got =
        marauder::aprad_prepare_constraints(db, gammas, options);
    ASSERT_FALSE(got.observed.empty());
    ASSERT_EQ(got.position.size(), got.observed.size());
    for (std::size_t i = 0; i < got.observed.size(); ++i) {
      const marauder::KnownAp* ap = db.find(got.observed[i]);
      ASSERT_NE(ap, nullptr);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(ap->position.x),
                std::bit_cast<std::uint64_t>(got.position[i].x));
      EXPECT_EQ(std::bit_cast<std::uint64_t>(ap->position.y),
                std::bit_cast<std::uint64_t>(got.position[i].y));
    }

    const ScanConstraints scan = scan_constraints(got, gammas, options);
    EXPECT_FALSE(scan.less_rows.empty());
    ASSERT_EQ(scan.less_rows.size(), got.less_rows.size());
    auto it = got.less_rows.begin();
    for (const auto& [pair, d] : scan.less_rows) {
      EXPECT_EQ(pair, it->first);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(d), std::bit_cast<std::uint64_t>(it->second))
          << pair.first << "-" << pair.second;
      ++it;
    }
    EXPECT_EQ(scan.co_pairs, got.co_pairs);
    ASSERT_EQ(scan.co_dist.size(), got.co_dist.size());
    for (std::size_t k = 0; k < scan.co_dist.size(); ++k) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(scan.co_dist[k]),
                std::bit_cast<std::uint64_t>(got.co_dist[k]))
          << k;
    }
  }
}

TEST(AtlasEquivalence, ApDatabaseGridQueriesMatchBruteForce) {
  sim::CampusConfig campus;
  campus.seed = 31337;
  campus.num_aps = 200;
  campus.half_extent_m = 500.0;
  const marauder::ApDatabase db =
      marauder::ApDatabase::from_truth(sim::generate_campus_aps(campus), true);
  const std::vector<const marauder::KnownAp*>& sorted = db.sorted_records();
  ASSERT_EQ(sorted.size(), 200u);

  util::Rng rng(0xDB);
  for (int q = 0; q < 40; ++q) {
    const geo::Vec2 center{rng.uniform(-600.0, 600.0), rng.uniform(-600.0, 600.0)};
    const double radius = rng.uniform(0.0, 700.0);
    std::vector<const marauder::KnownAp*> brute;
    for (const marauder::KnownAp* ap : sorted) {
      if (ap->position.distance_to(center) <= radius) brute.push_back(ap);
    }
    EXPECT_EQ(db.aps_in_range(center, radius), brute) << "query " << q;

    const std::size_t k = static_cast<std::size_t>(rng.uniform_int(0, 12));
    std::vector<const marauder::KnownAp*> ranked(sorted.begin(), sorted.end());
    std::stable_sort(ranked.begin(), ranked.end(),
                     [&](const marauder::KnownAp* a, const marauder::KnownAp* b) {
                       return a->position.distance_to(center) <
                              b->position.distance_to(center);
                     });  // stable over ascending BSSID = the (distance, BSSID) order
    ranked.resize(std::min(k, ranked.size()));
    EXPECT_EQ(db.nearest_aps(center, k), ranked) << "query " << q;
  }
}

TEST(AtlasEquivalence, ApDatabaseDiscBoundaryAcrossCellEdgeMatchesBruteForce) {
  // An AP 1e-17 m below a cell edge at exactly the query radius: the grid's
  // cell rectangle must not round it away.
  marauder::ApDatabase db;
  const geo::Vec2 positions[] = {{-1e-17, 0.0}, {0.0, -1e-17}, {2.0, 0.0}, {40.0, 40.0}};
  std::uint64_t bssid = 0x0a0000000001ULL;
  for (const geo::Vec2& p : positions) {
    marauder::KnownAp ap;
    ap.bssid = net80211::MacAddress::from_u64(bssid++);
    ap.position = p;
    db.add(std::move(ap));
  }
  for (const geo::Vec2 center : {geo::Vec2{1.0, 0.0}, geo::Vec2{0.0, 1.0}}) {
    std::vector<const marauder::KnownAp*> brute;
    for (const marauder::KnownAp* ap : db.sorted_records()) {
      if (ap->position.distance_to(center) <= 1.0) brute.push_back(ap);
    }
    ASSERT_FALSE(brute.empty());
    EXPECT_EQ(brute.front()->position.x, -1e-17);  // at exactly the radius
    EXPECT_EQ(db.aps_in_range(center, 1.0), brute);
  }
}

TEST(AtlasEquivalence, ApDatabaseCachesInvalidateOnAddOnly) {
  marauder::ApDatabase db;
  marauder::KnownAp a;
  a.bssid = *net80211::MacAddress::parse("00:00:00:00:00:02");
  a.position = {10.0, 0.0};
  db.add(a);
  marauder::KnownAp b;
  b.bssid = *net80211::MacAddress::parse("00:00:00:00:00:01");
  b.position = {0.0, 0.0};
  db.add(b);

  const auto& sorted = db.sorted_records();
  ASSERT_EQ(sorted.size(), 2u);
  EXPECT_EQ(sorted[0]->bssid, b.bssid);  // ascending BSSID, not insertion order
  // set_radius mutates in place: the cached view must survive, same pointers.
  const marauder::KnownAp* before = sorted[0];
  db.set_radius(b.bssid, 42.0);
  EXPECT_EQ(db.sorted_records()[0], before);
  EXPECT_EQ(db.sorted_records()[0]->radius_m, 42.0);
  EXPECT_EQ(db.nearest_aps({-1.0, 0.0}, 1).front()->bssid, b.bssid);

  // add() must invalidate both the sorted view and the grid.
  marauder::KnownAp c;
  c.bssid = *net80211::MacAddress::parse("00:00:00:00:00:00");
  c.position = {-5.0, 0.0};
  db.add(c);
  ASSERT_EQ(db.sorted_records().size(), 3u);
  EXPECT_EQ(db.sorted_records()[0]->bssid, c.bssid);
  EXPECT_EQ(db.nearest_aps({-6.0, 0.0}, 1).front()->bssid, c.bssid);

  // Copies serve the same answers from their own (cold) caches.
  const marauder::ApDatabase copy = db;
  ASSERT_EQ(copy.sorted_records().size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_NE(copy.sorted_records()[i], db.sorted_records()[i]);  // distinct storage
    EXPECT_EQ(copy.sorted_records()[i]->bssid, db.sorted_records()[i]->bssid);
  }
  // Moves keep the cache (map nodes are pointer-stable across a move).
  marauder::ApDatabase moved = std::move(db);
  ASSERT_EQ(moved.sorted_records().size(), 3u);
  EXPECT_EQ(moved.sorted_records()[0]->bssid, c.bssid);
}

/// The Gamma membership rule written out: an AP is in the device's Gamma
/// when any retained contact instant t has begin <= t <= end. Contacts are a
/// std::map, so members come out in ascending BSSID order.
std::vector<net80211::MacAddress> brute_force_gamma(const capture::ObservationStore& store,
                                                    const net80211::MacAddress& device,
                                                    const capture::ObservationWindow& window) {
  std::vector<net80211::MacAddress> out;
  const capture::DeviceRecord* rec = store.device(device);
  if (rec == nullptr) return out;
  for (const auto& [ap, contact] : rec->contacts) {
    bool member = false;
    for (const sim::SimTime t : contact.times) {
      member = member || (window.begin <= t && t <= window.end);
    }
    if (member) out.push_back(ap);
  }
  return out;
}

/// gamma_append (which must keep what `out` already held) and the gamma()
/// set adapter both equal the brute-force rule.
void expect_gamma_matches_rule(const capture::ObservationStore& store,
                               const net80211::MacAddress& device,
                               const capture::ObservationWindow& window) {
  SCOPED_TRACE(device.to_string() + " [" + std::to_string(window.begin) + ", " +
               std::to_string(window.end) + "]");
  const std::vector<net80211::MacAddress> expected = brute_force_gamma(store, device, window);
  const net80211::MacAddress kept = net80211::MacAddress::from_u64(0xffffffffffffULL);
  std::vector<net80211::MacAddress> appended{kept};
  store.gamma_append(device, window, appended);
  ASSERT_FALSE(appended.empty());
  EXPECT_EQ(appended.front(), kept);
  EXPECT_EQ(std::vector<net80211::MacAddress>(appended.begin() + 1, appended.end()), expected);
  const std::set<net80211::MacAddress> as_set = store.gamma(device, window);
  EXPECT_EQ(std::vector<net80211::MacAddress>(as_set.begin(), as_set.end()), expected);
}

TEST(AtlasEquivalence, GammaMatchesBruteForceMembership) {
  const auto ap = [](std::uint64_t i) {
    return net80211::MacAddress::from_u64(0x001a2b000000ULL + i);
  };
  const auto dev = [](std::uint64_t i) {
    return net80211::MacAddress::from_u64(0x00166f000000ULL + i);
  };

  capture::ObservationStoreOptions options;
  options.contact_history_cap = 8;
  capture::ObservationStore store(options);
  // Instants 10, 20, 30 in order; and 50, 25, 5 recorded out of order, so
  // the front and back instants bracket a middle one.
  for (const double t : {10.0, 20.0, 30.0}) store.record_contact(ap(1), dev(1), t, -60.0);
  for (const double t : {50.0, 25.0, 5.0}) store.record_contact(ap(2), dev(1), t, -60.0);
  // A busy contact whose old instants the cap compacted away.
  for (int t = 0; t < 100; ++t) store.record_contact(ap(3), dev(2), t, -60.0);
  store.record_contact(ap(4), dev(2), 3.0, -60.0);
  ASSERT_GT(store.device(dev(2))->contacts.at(ap(3)).times.front(), 10.0);

  const capture::ObservationWindow windows[] = {
      {},            // whole capture
      {10.0, 10.0},  // exactly one instant, at both edges
      {0.0, 10.0},   // first instant at the inclusive end edge
      {30.0, 40.0},  // last instant at the inclusive begin edge
      {20.0, 20.0},  // only a middle instant of ap(1)
      {12.0, 18.0},  // a gap between instants
      {20.0, 30.0},  // ap(2)'s middle instant only (front 50 and back 5 outside)
      {0.0, 4.0},    // ap(3)'s compacted instants and ap(4)'s one instant
      {95.0, 99.0},  // ap(3)'s retained suffix
      {200.0, 300.0},
  };
  for (const auto& window : windows) {
    expect_gamma_matches_rule(store, dev(1), window);
    expect_gamma_matches_rule(store, dev(2), window);
    expect_gamma_matches_rule(store, dev(3), window);  // never seen
  }
  // Spot checks of the rule itself.
  EXPECT_EQ(store.gamma(dev(1), {20.0, 30.0}), (std::set<net80211::MacAddress>{ap(1), ap(2)}));
  EXPECT_TRUE(store.gamma(dev(1), {12.0, 18.0}).empty());
  EXPECT_TRUE(store.gamma(dev(2), {0.0, 2.0}).empty());

  const RunResult run = run_campus(sim::DeliveryMode::kIndexed, {});
  ASSERT_GT(run.store.device_count(), 0u);
  const capture::ObservationWindow campus_windows[] = {{}, {20.0, 60.0}, {89.0, 90.0}};
  for (const auto& mac : run.store.devices()) {
    for (const auto& window : campus_windows) expect_gamma_matches_rule(run.store, mac, window);
  }
}

}  // namespace
}  // namespace mm
