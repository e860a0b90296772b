// Wardriving + AP-Loc: the no-external-knowledge attack (Section III-C.3).
//
// The attacker knows nothing about the area's APs. A wardriving pass with a
// GPS-equipped laptop collects training tuples; AP-Loc places the APs from
// those tuples, estimates their radii with the LP, and then locates the
// victim — all without WiGLE. The example reports AP placement accuracy and
// victim localization error versus the number of training tuples (Fig 17's
// storyline).
//
//   ./examples/wardrive_aploc [--seed N] [--spacing M]
#include <iostream>
#include <memory>

#include "capture/sniffer.h"
#include "capture/wardrive.h"
#include "marauder/tracker.h"
#include "sim/mobile.h"
#include "sim/mobility.h"
#include "sim/scenario.h"
#include "util/flags.h"
#include "util/stats.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace mm;
  const util::Flags flags(argc, argv);

  sim::CampusConfig campus;
  campus.seed = flags.get_seed(777);
  campus.num_aps = 80;
  campus.half_extent_m = 300.0;
  const auto truth = sim::generate_campus_aps(campus);

  sim::World world({.seed = campus.seed ^ 0x77, .propagation = nullptr});
  sim::populate_world(world, truth, /*beacons_enabled=*/false);

  // --- Training phase: wardrive the neighbourhood. ---
  capture::Wardriver driver;
  driver.attach(world);
  const double spacing = flags.get_double("spacing", 70.0);
  const auto finish = driver.drive_route(sim::lawnmower_route(320.0, 9), 8.0, spacing);
  world.run_until(finish + 2.0);
  std::cout << "wardriving collected " << driver.tuples().size() << " training tuples\n";

  // AP placement accuracy against ground truth.
  marauder::ApLocOptions aploc_options;
  aploc_options.training_disc_radius_m = 160.0;
  const auto estimated = marauder::aploc_estimate_positions(driver.tuples(), aploc_options);
  util::RunningStats placement_error;
  for (const auto& ap : truth) {
    const auto it = estimated.find(ap.bssid);
    if (it != estimated.end()) placement_error.add(it->second.distance_to(ap.position));
  }
  std::cout << "AP-Loc placed " << estimated.size() << "/" << truth.size()
            << " APs, avg placement error " << placement_error.mean() << " m\n\n";

  // --- Attack phase: locate a victim walking through the area. ---
  const double start = world.now();  // walk begins after the training drive
  auto walk =
      std::make_shared<sim::RouteWalk>(sim::lawnmower_route(200.0, 2), 1.5, start);
  sim::MobileConfig mc;
  mc.mac = *net80211::MacAddress::parse("00:16:6f:ca:fe:03");
  mc.profile.probes = false;
  mc.mobility = walk;
  sim::MobileDevice* victim = world.add_mobile(std::make_unique<sim::MobileDevice>(mc));

  capture::ObservationStore store;
  capture::SnifferConfig sniffer_cfg;
  sniffer_cfg.position = {0.0, 0.0};
  sniffer_cfg.antenna_height_m = 20.0;
  capture::Sniffer sniffer(sniffer_cfg, &store);
  sniffer.attach(world);

  std::vector<std::pair<double, geo::Vec2>> samples;
  for (double t = start + 1.0; t < walk->arrival_time(); t += 60.0) {
    world.queue().schedule(t, [victim] { victim->trigger_scan(); });
    samples.emplace_back(t, walk->position(t));
  }
  world.run_until(walk->arrival_time() + 5.0);

  marauder::TrackerOptions options;
  options.algorithm = marauder::Algorithm::kApLoc;
  options.aploc = aploc_options;
  options.aprad.max_radius_m = 200.0;
  marauder::Tracker tracker = marauder::Tracker::from_training(driver.tuples(), options);
  tracker.prepare(store);

  util::Table table({"t (s)", "true (x,y)", "estimate (x,y)", "error (m)"});
  util::RunningStats error;
  for (const auto& [t, true_pos] : samples) {
    const capture::ObservationWindow window{t - 1.0, t + 5.0};
    const auto r = tracker.locate(store, victim->mac(), window);
    if (!r.ok) continue;
    error.add(r.estimate.distance_to(true_pos));
    table.add_row({util::Table::fmt(t, 0),
                   "(" + util::Table::fmt(true_pos.x, 0) + "," +
                       util::Table::fmt(true_pos.y, 0) + ")",
                   "(" + util::Table::fmt(r.estimate.x, 0) + "," +
                       util::Table::fmt(r.estimate.y, 0) + ")",
                   util::Table::fmt(r.estimate.distance_to(true_pos), 1)});
  }
  table.print(std::cout);
  std::cout << "\nAP-Loc average error: " << error.mean() << " m over " << error.count()
            << " samples (no external AP knowledge used)\n";
  return 0;
}
