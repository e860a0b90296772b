// Fig 14 — Average error vs minimum number of communicable APs. M-Loc's
// error decreases in k (more discs can only shrink the region); the paper's
// Centroid error does not improve, because larger Gamma sets are more likely
// to be skewed. On the simulated campus Centroid's error falls too, but by a
// smaller share than M-Loc's. The shape check asserts that contrast and the
// M-Loc < AP-Rad < Centroid order in every row, and exits 1 on VIOLATED.
#include <iostream>

#include "common.h"
#include "util/flags.h"
#include "util/stats.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace mm;
  const util::Flags flags(argc, argv);
  const int runs = static_cast<int>(flags.get_int("runs", 5));
  const std::uint64_t seed = flags.get_seed(14);

  std::vector<bench::SampleOutcome> mloc_all;
  std::vector<bench::SampleOutcome> aprad_all;
  std::vector<bench::SampleOutcome> centroid_all;
  for (int run_idx = 0; run_idx < runs; ++run_idx) {
    bench::CampusRunConfig cfg;
    cfg.seed = seed + static_cast<std::uint64_t>(run_idx) * 997;
    const bench::CampusRun run = bench::run_campus(cfg);
    marauder::Tracker mloc(marauder::ApDatabase::from_truth(run.truth, true),
                           {.algorithm = marauder::Algorithm::kMLoc});
    marauder::Tracker aprad(marauder::ApDatabase::from_truth(run.truth, false),
                            {.algorithm = marauder::Algorithm::kApRad});
    marauder::Tracker centroid(marauder::ApDatabase::from_truth(run.truth, true),
                               {.algorithm = marauder::Algorithm::kCentroid});
    for (auto& o : bench::evaluate(run, mloc)) mloc_all.push_back(o);
    for (auto& o : bench::evaluate(run, aprad)) aprad_all.push_back(o);
    for (auto& o : bench::evaluate(run, centroid)) centroid_all.push_back(o);
  }

  auto avg_for_min_k = [](const std::vector<bench::SampleOutcome>& outcomes,
                          std::size_t min_k) {
    util::RunningStats stats;
    for (const auto& o : outcomes) {
      if (o.gamma_size >= min_k) stats.add(o.error_m());
    }
    return stats;
  };

  std::cout << "Fig 14: average error vs minimum #communicable APs (" << mloc_all.size()
            << " samples)\n\n";
  util::Table table({"min k", "samples", "M-Loc avg (m)", "AP-Rad avg (m)",
                     "Centroid avg (m)"});
  double mloc_first = 0.0;
  double mloc_last = 0.0;
  double centroid_first = 0.0;
  double centroid_last = 0.0;
  std::size_t rows = 0;
  bool ordered = true;  // M-Loc < AP-Rad < Centroid in every row
  for (std::size_t k = 1; k <= 10; ++k) {
    const auto m = avg_for_min_k(mloc_all, k);
    const auto a = avg_for_min_k(aprad_all, k);
    const auto c = avg_for_min_k(centroid_all, k);
    if (m.count() < 5) break;
    if (k == 1) {
      mloc_first = m.mean();
      centroid_first = c.mean();
    }
    mloc_last = m.mean();
    centroid_last = c.mean();
    ++rows;
    ordered = ordered && m.mean() < a.mean() && a.mean() < c.mean();
    table.add_row({std::to_string(k), std::to_string(m.count()),
                   util::Table::fmt(m.mean(), 2), util::Table::fmt(a.mean(), 2),
                   util::Table::fmt(c.mean(), 2)});
  }
  table.print(std::cout);
  const double mloc_drop = 1.0 - mloc_last / mloc_first;
  const double centroid_drop = 1.0 - centroid_last / centroid_first;
  const bool shape =
      rows >= 2 && ordered && mloc_last < mloc_first && centroid_drop < mloc_drop;
  std::cout << "\npaper shape check: M-Loc < AP-Rad < Centroid in every row, M-Loc error\n"
            << "falls with k (" << util::Table::fmt(mloc_first, 2) << " -> "
            << util::Table::fmt(mloc_last, 2) << " m, -"
            << util::Table::fmt(100.0 * mloc_drop, 1) << "%) and Centroid's falls less ("
            << util::Table::fmt(centroid_first, 2) << " -> "
            << util::Table::fmt(centroid_last, 2) << " m, -"
            << util::Table::fmt(100.0 * centroid_drop, 1)
            << "%): " << (shape ? "HOLDS" : "VIOLATED") << "\n";
  return shape ? 0 : 1;
}
