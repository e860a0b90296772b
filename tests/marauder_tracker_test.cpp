// End-to-end integration: simulated campus -> probe traffic -> sniffer ->
// observation store -> tracker, for every localization algorithm. This is
// the full Fig 1 pipeline the paper's accuracy evaluation (Figs 13-16)
// exercises.
#include "marauder/tracker.h"

#include <gtest/gtest.h>

#include <memory>
#include <numbers>

#include "capture/sniffer.h"
#include "capture/wardrive.h"
#include "sim/mobile.h"
#include "sim/mobility.h"
#include "sim/scenario.h"

namespace mm::marauder {
namespace {

const net80211::MacAddress kVictim = *net80211::MacAddress::parse("00:16:6f:00:00:42");

struct Pipeline {
  std::unique_ptr<sim::World> world;
  std::vector<sim::ApTruth> truth;
  capture::ObservationStore store;
  std::unique_ptr<capture::Sniffer> sniffer;
  sim::MobileDevice* victim = nullptr;
  std::vector<std::pair<double, geo::Vec2>> samples;  // (time, true position)
};

/// Builds a campus, walks the victim along a route, scanning at waypoints.
Pipeline run_campus_walk(std::uint64_t seed, std::size_t num_aps = 130) {
  Pipeline p;
  sim::CampusConfig campus;
  campus.seed = seed;
  campus.num_aps = num_aps;
  campus.half_extent_m = 350.0;
  // Uniform placement: these tests pin down pipeline mechanics and loose
  // accuracy bounds; the clustered-campus shape effects are covered by the
  // figure benches.
  campus.building_fraction = 0.0;
  p.truth = sim::generate_campus_aps(campus);

  p.world = std::make_unique<sim::World>(sim::World::Config{seed ^ 0xbeef, nullptr});
  sim::populate_world(*p.world, p.truth, /*beacons_enabled=*/false);

  const std::vector<geo::Vec2> route = sim::lawnmower_route(250.0, 3);
  auto mobility = std::make_shared<sim::RouteWalk>(route, 1.5);

  sim::MobileConfig mc;
  mc.mac = kVictim;
  mc.profile.probes = false;  // scans triggered at sample instants
  mc.mobility = mobility;
  p.victim = p.world->add_mobile(std::make_unique<sim::MobileDevice>(mc));

  capture::SnifferConfig sc;
  sc.position = {0.0, 0.0};
  sc.antenna_height_m = 20.0;
  p.sniffer = std::make_unique<capture::Sniffer>(sc, &p.store);
  p.sniffer->attach(*p.world);

  // Sample every 60 s of walking (~90 m apart).
  const double total = mobility->arrival_time();
  for (double t = 1.0; t < total; t += 60.0) {
    p.world->queue().schedule(t, [mobile = p.victim] { mobile->trigger_scan(); });
    p.samples.emplace_back(t, mobility->position(t));
  }
  p.world->run_until(total + 5.0);
  return p;
}

double mean_error(const Pipeline& p, Tracker& tracker) {
  tracker.prepare(p.store);
  double total = 0.0;
  int count = 0;
  for (const auto& [t, true_pos] : p.samples) {
    const capture::ObservationWindow window{t - 1.0, t + 5.0};
    const LocalizationResult r = tracker.locate(p.store, kVictim, window);
    if (!r.ok) continue;
    total += r.estimate.distance_to(true_pos);
    ++count;
  }
  EXPECT_GT(count, 10) << "too few localizable samples";
  return total / count;
}

TEST(TrackerEndToEnd, MLocBeatsCentroidAndIsAccurate) {
  const Pipeline p = run_campus_walk(101);

  Tracker mloc(ApDatabase::from_truth(p.truth, true), {.algorithm = Algorithm::kMLoc});
  Tracker centroid(ApDatabase::from_truth(p.truth, true),
                   {.algorithm = Algorithm::kCentroid});

  const double mloc_err = mean_error(p, mloc);
  const double centroid_err = mean_error(p, centroid);

  // Fig 13 shape: M-Loc ~9.4 m vs Centroid ~17.3 m on the paper's testbed.
  EXPECT_LT(mloc_err, 25.0);
  EXPECT_LT(mloc_err, centroid_err);
}

TEST(TrackerEndToEnd, ApRadWorksWithoutRadiusKnowledge) {
  const Pipeline p = run_campus_walk(202);

  Tracker aprad(ApDatabase::from_truth(p.truth, false), {.algorithm = Algorithm::kApRad});
  Tracker mloc(ApDatabase::from_truth(p.truth, true), {.algorithm = Algorithm::kMLoc});

  const double aprad_err = mean_error(p, aprad);
  const double mloc_err = mean_error(p, mloc);

  EXPECT_LT(aprad_err, 60.0);
  // Fig 13: M-Loc (with radius knowledge) beats AP-Rad.
  EXPECT_LT(mloc_err, aprad_err);
}

TEST(TrackerEndToEnd, NearestApCoarserThanMLoc) {
  const Pipeline p = run_campus_walk(303);
  Tracker nearest(ApDatabase::from_truth(p.truth, true),
                  {.algorithm = Algorithm::kNearestAp});
  Tracker mloc(ApDatabase::from_truth(p.truth, true), {.algorithm = Algorithm::kMLoc});
  EXPECT_LT(mean_error(p, mloc), mean_error(p, nearest));
}

TEST(TrackerEndToEnd, ApLocFromWardrivingTraining) {
  Pipeline p = run_campus_walk(404);

  // Training phase: wardrive the campus collecting tuples.
  capture::Wardriver driver;
  driver.attach(*p.world);
  const auto finish =
      driver.drive_route(sim::lawnmower_route(300.0, 4), 8.0, 60.0);
  p.world->run_until(finish + 2.0);
  ASSERT_GT(driver.tuples().size(), 20u);

  TrackerOptions options;
  options.algorithm = Algorithm::kApLoc;
  options.aploc.training_disc_radius_m = 160.0;
  options.aprad.max_radius_m = 200.0;
  Tracker aploc = Tracker::from_training(driver.tuples(), options);
  const double err = mean_error(p, aploc);
  // Fig 17: AP-Loc lands near 12 m with enough tuples; allow generous slack
  // for the simulated substrate.
  EXPECT_LT(err, 80.0);
}

TEST(TrackerEndToEnd, LocateAllCoversVictim) {
  const Pipeline p = run_campus_walk(505);
  Tracker tracker(ApDatabase::from_truth(p.truth, true), {.algorithm = Algorithm::kMLoc});
  const auto all = tracker.locate_all(p.store);
  EXPECT_EQ(all.count(kVictim), 1u);
}

TEST(Tracker, ApRadWithoutPrepareDegradesInsteadOfThrowing) {
  // Faultline convention: an unprepared AP-Rad tracker (no LP radii yet)
  // answers with the Theorem-1 radius cap and flags the result degraded —
  // it never throws.
  const Pipeline p = run_campus_walk(707);
  Tracker tracker(ApDatabase::from_truth(p.truth, false),
                  {.algorithm = Algorithm::kApRad});
  const auto& [t, true_pos] = p.samples[p.samples.size() / 2];
  const capture::ObservationWindow window{t - 1.0, t + 5.0};
  ASSERT_GE(p.store.gamma(kVictim, window).size(), 2u);

  const LocalizationResult unprepared = tracker.locate(p.store, kVictim, window);
  EXPECT_TRUE(unprepared.ok);
  EXPECT_TRUE(unprepared.degraded());
  EXPECT_EQ(unprepared.method, "AP-Rad");
  // Every disc carries the cap, not an estimated radius.
  for (const auto& disc : unprepared.discs) {
    EXPECT_DOUBLE_EQ(disc.radius, tracker.options().aprad.max_radius_m);
  }

  // After prepare() the same query answers from the LP radii: at least one
  // disc shrinks below the blanket cap.
  tracker.prepare(p.store);
  const LocalizationResult prepared = tracker.locate(p.store, kVictim, window);
  EXPECT_TRUE(prepared.ok);
  bool any_estimated = false;
  for (const auto& disc : prepared.discs) {
    if (disc.radius < tracker.options().aprad.max_radius_m) any_estimated = true;
  }
  EXPECT_TRUE(any_estimated);
}

TEST(Tracker, ApRadUnpreparedEmptyGammaStaysNotOk) {
  Tracker tracker(ApDatabase{}, {.algorithm = Algorithm::kApRad});
  const capture::ObservationStore store;
  const LocalizationResult result = tracker.locate(store, kVictim);
  EXPECT_FALSE(result.ok);
  EXPECT_TRUE(result.degraded());
}

TEST(Tracker, ApLocConstructorRejected) {
  EXPECT_THROW(Tracker(ApDatabase{}, {.algorithm = Algorithm::kApLoc}),
               std::invalid_argument);
}

TEST(Tracker, FromTrainingBuildsOnlyApLoc) {
  EXPECT_THROW((void)Tracker::from_training({}, {.algorithm = Algorithm::kApRad}),
               std::invalid_argument);
}

net80211::MacAddress ap_mac(std::uint64_t i) {
  return net80211::MacAddress::from_u64(0x001a2b000100ULL + i);
}

/// A store in which kVictim hears `aps` in one scan.
capture::ObservationStore victim_hears(const std::vector<net80211::MacAddress>& aps) {
  capture::ObservationStore store;
  for (const auto& mac : aps) store.record_contact(mac, kVictim, 1.0, -60.0);
  return store;
}

TEST(Tracker, ApRadLocatesWithTheTrackersMLocOptions) {
  // Three APs beside the victim and one about 1 km off. Unprepared, AP-Rad
  // gives each the 250 m cap, so the far disc misses the other three, and
  // options.mloc.reject_outliers sheds it in both locate paths.
  ApDatabase db;
  const std::vector<geo::Vec2> at{{0.0, 0.0}, {60.0, 0.0}, {0.0, 60.0}, {1000.0, 0.0}};
  std::vector<net80211::MacAddress> heard;
  for (std::uint64_t i = 0; i < at.size(); ++i) {
    db.add({ap_mac(i), "ap", at[i], std::nullopt});
    heard.push_back(ap_mac(i));
  }
  const capture::ObservationStore store = victim_hears(heard);
  TrackerOptions options;
  options.algorithm = Algorithm::kApRad;
  options.mloc.reject_outliers = true;
  const Tracker tracker(std::move(db), options);

  const LocalizationResult one = tracker.locate(store, kVictim);
  ASSERT_TRUE(one.ok);
  EXPECT_EQ(one.discs_rejected, 1u);
  const auto all = tracker.locate_all(store);
  ASSERT_EQ(all.count(kVictim), 1u);
  EXPECT_EQ(all.at(kVictim).discs_rejected, 1u);
}

/// AP-Loc's inputs: six APs of true radius 100 m on a 70 m ring round the
/// victim, wardriven on a 30 m grid, and one victim scan that hears all six.
struct ApLocInputs {
  std::vector<capture::TrainingTuple> tuples;
  capture::ObservationStore store;
};

ApLocInputs aploc_inputs() {
  std::vector<geo::Vec2> aps;
  std::vector<net80211::MacAddress> macs;
  for (std::uint64_t i = 0; i < 6; ++i) {
    aps.push_back(geo::Vec2::from_polar(70.0, static_cast<double>(i) * std::numbers::pi / 3.0));
    macs.push_back(ap_mac(i));
  }
  ApLocInputs inputs;
  for (double x = -150.0; x <= 150.0; x += 30.0) {
    for (double y = -150.0; y <= 150.0; y += 30.0) {
      capture::TrainingTuple tuple{{x, y}, {}};
      for (std::size_t i = 0; i < aps.size(); ++i) {
        if (aps[i].distance_to(tuple.position) <= 100.0) tuple.heard_aps.insert(macs[i]);
      }
      if (!tuple.heard_aps.empty()) inputs.tuples.push_back(std::move(tuple));
    }
  }
  inputs.store = victim_hears(macs);
  return inputs;
}

TEST(Tracker, ApLocRadiiStayWithinTheTrackersApRadCap) {
  const ApLocInputs inputs = aploc_inputs();
  TrackerOptions options;
  options.algorithm = Algorithm::kApLoc;
  options.aprad.max_radius_m = 120.0;  // below the default 250 m cap
  Tracker tracker = Tracker::from_training(inputs.tuples, options);
  tracker.prepare(inputs.store);

  ASSERT_EQ(tracker.database().size(), 6u);
  for (const KnownAp* ap : tracker.database().sorted_records()) {
    ASSERT_TRUE(ap->radius_m.has_value());
    EXPECT_LE(*ap->radius_m, 120.0);
  }
  const LocalizationResult r = tracker.locate(inputs.store, kVictim);
  ASSERT_TRUE(r.ok);
  for (const auto& disc : r.discs) EXPECT_LE(disc.radius, 120.0);
}

TEST(Tracker, ApLocReportsItself) {
  const ApLocInputs inputs = aploc_inputs();
  Tracker tracker = Tracker::from_training(inputs.tuples, {.algorithm = Algorithm::kApLoc});
  tracker.prepare(inputs.store);

  EXPECT_EQ(tracker.options().algorithm, Algorithm::kApLoc);
  EXPECT_TRUE(tracker.options().mloc.exact_region_centroid);
  const LocalizationResult one = tracker.locate(inputs.store, kVictim);
  ASSERT_TRUE(one.ok);
  EXPECT_EQ(one.method, "AP-Loc");
  EXPECT_FALSE(one.degraded());
  const auto all = tracker.locate_all(inputs.store);
  ASSERT_EQ(all.count(kVictim), 1u);
  EXPECT_EQ(all.at(kVictim).method, "AP-Loc");
}

TEST(Tracker, AlgorithmNames) {
  EXPECT_STREQ(to_string(Algorithm::kMLoc), "M-Loc");
  EXPECT_STREQ(to_string(Algorithm::kApRad), "AP-Rad");
  EXPECT_STREQ(to_string(Algorithm::kApLoc), "AP-Loc");
  EXPECT_STREQ(to_string(Algorithm::kCentroid), "Centroid");
  EXPECT_STREQ(to_string(Algorithm::kNearestAp), "NearestAP");
  EXPECT_STREQ(to_string(Algorithm::kWeightedCentroid), "WeightedCentroid");
}

TEST(TrackerEndToEnd, WeightedCentroidWorksAndMLocBeatsIt) {
  const Pipeline p = run_campus_walk(707, 120);
  Tracker weighted(ApDatabase::from_truth(p.truth, true),
                   {.algorithm = Algorithm::kWeightedCentroid});
  Tracker mloc(ApDatabase::from_truth(p.truth, true), {.algorithm = Algorithm::kMLoc});
  const double weighted_err = mean_error(p, weighted);
  EXPECT_LT(weighted_err, 120.0);
  EXPECT_LT(mean_error(p, mloc), weighted_err);
}

TEST(Tracker, UnknownDeviceNotLocated) {
  const Pipeline p = run_campus_walk(606, 40);
  Tracker tracker(ApDatabase::from_truth(p.truth, true), {.algorithm = Algorithm::kMLoc});
  const auto ghost = *net80211::MacAddress::parse("00:00:00:00:99:99");
  EXPECT_FALSE(tracker.locate(p.store, ghost).ok);
}

}  // namespace
}  // namespace mm::marauder
