// Fig 17 — AP-Loc accuracy vs number of training tuples. Wardriving passes
// of increasing sample density produce more tuples; AP-Loc's error drops
// quickly and beats the Centroid baseline already with a handful of tuples
// (paper: 12.21 m average with 19 tuples). The shape check asserts that the
// densest pass's error is below the sparsest pass's and below Centroid's,
// and exits 1 on VIOLATED.
#include <iostream>
#include <vector>

#include "capture/wardrive.h"
#include "common.h"
#include "util/flags.h"
#include "util/stats.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace mm;
  const util::Flags flags(argc, argv);
  const std::uint64_t seed = flags.get_seed(17);

  // One shared campus walk provides the victim observations and the
  // Centroid reference.
  bench::CampusRunConfig cfg;
  cfg.seed = seed;
  bench::CampusRun run = bench::run_campus(cfg);

  marauder::Tracker centroid(marauder::ApDatabase::from_truth(run.truth, true),
                             {.algorithm = marauder::Algorithm::kCentroid});
  util::RunningStats centroid_err;
  for (const auto& o : bench::evaluate(run, centroid)) centroid_err.add(o.error_m());

  std::cout << "Fig 17: AP-Loc average error vs number of training tuples\n"
            << "(Centroid baseline: " << util::Table::fmt(centroid_err.mean(), 2)
            << " m)\n\n";

  util::Table table({"training tuples", "APs placed", "AP-Loc avg error (m)",
                     "beats Centroid"});
  // Denser wardriving -> more tuples (spacing in meters along the route).
  const std::vector<double> spacings{600.0, 400.0, 250.0, 150.0, 100.0, 70.0, 45.0};
  double sparsest_err = 0.0;
  double densest_err = 0.0;
  for (const double spacing : spacings) {
    capture::Wardriver driver;
    driver.attach(*run.world);
    const auto finish =
        driver.drive_route(sim::lawnmower_route(320.0, 9), 8.0, spacing);
    run.world->run_until(finish + 2.0);

    marauder::TrackerOptions options;
    options.algorithm = marauder::Algorithm::kApLoc;
    options.aploc.training_disc_radius_m = 160.0;
    options.aprad.max_radius_m = 200.0;
    marauder::Tracker aploc = marauder::Tracker::from_training(driver.tuples(), options);

    util::RunningStats err;
    for (const auto& o : bench::evaluate(run, aploc)) err.add(o.error_m());
    if (spacing == spacings.front()) sparsest_err = err.mean();
    densest_err = err.mean();
    table.add_row({std::to_string(driver.tuples().size()),
                   std::to_string(aploc.database().size()),
                   util::Table::fmt(err.mean(), 2),
                   err.mean() < centroid_err.mean() ? "yes" : "no"});
    run.world->unregister_receiver(&driver);
  }
  table.print(std::cout);
  const bool shape = densest_err < sparsest_err && densest_err < centroid_err.mean();
  std::cout << "\npaper shape check: the densest pass's error ("
            << util::Table::fmt(densest_err, 2) << " m) is below the\nsparsest pass's ("
            << util::Table::fmt(sparsest_err, 2) << " m) and below Centroid's ("
            << util::Table::fmt(centroid_err.mean(), 2)
            << " m): " << (shape ? "HOLDS" : "VIOLATED")
            << "\n(paper: 12.21 m at 19 tuples vs 17.28 m Centroid)\n";
  return shape ? 0 : 1;
}
