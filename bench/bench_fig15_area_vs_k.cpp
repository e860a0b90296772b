// Fig 15 — Intersected area vs minimum number of communicable APs, for
// M-Loc (exact radii) and AP-Rad (LP-estimated radii). AP-Rad's radius
// estimation error inflates the region, so its area sits above M-Loc's.
#include <iostream>

#include "common.h"
#include "marauder/mloc.h"
#include "util/flags.h"
#include "util/stats.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace mm;
  const util::Flags flags(argc, argv);
  const int runs = static_cast<int>(flags.get_int("runs", 5));
  const std::uint64_t seed = flags.get_seed(15);

  std::vector<bench::SampleOutcome> mloc_all;
  std::vector<bench::SampleOutcome> aprad_all;
  for (int run_idx = 0; run_idx < runs; ++run_idx) {
    bench::CampusRunConfig cfg;
    cfg.seed = seed + static_cast<std::uint64_t>(run_idx) * 1009;
    const bench::CampusRun run = bench::run_campus(cfg);
    marauder::Tracker mloc(marauder::ApDatabase::from_truth(run.truth, true),
                           {.algorithm = marauder::Algorithm::kMLoc});
    marauder::Tracker aprad(marauder::ApDatabase::from_truth(run.truth, false),
                            {.algorithm = marauder::Algorithm::kApRad});
    for (auto& o : bench::evaluate(run, mloc)) mloc_all.push_back(o);
    for (auto& o : bench::evaluate(run, aprad)) aprad_all.push_back(o);
  }

  auto area_for_min_k = [](const std::vector<bench::SampleOutcome>& outcomes,
                           std::size_t min_k) {
    util::RunningStats stats;
    for (const auto& o : outcomes) {
      if (o.gamma_size >= min_k) stats.add(marauder::intersected_area(o.result));
    }
    return stats;
  };

  std::cout << "Fig 15: intersected area vs minimum #communicable APs\n\n";
  util::Table table(
      {"min k", "samples", "M-Loc area (m^2)", "AP-Rad area (m^2)", "ratio"});
  bool aprad_larger = true;
  for (std::size_t k = 1; k <= 10; ++k) {
    const auto m = area_for_min_k(mloc_all, k);
    const auto a = area_for_min_k(aprad_all, k);
    if (m.count() < 5) break;
    aprad_larger = aprad_larger && a.mean() >= m.mean() * 0.9;
    table.add_row({std::to_string(k), std::to_string(m.count()),
                   util::Table::fmt(m.mean(), 0), util::Table::fmt(a.mean(), 0),
                   util::Table::fmt(a.mean() / m.mean(), 2)});
  }
  table.print(std::cout);
  std::cout << "\npaper shape check: AP-Rad's intersected area exceeds M-Loc's "
            << "(radius-estimation error): " << (aprad_larger ? "HOLDS" : "VIOLATED")
            << "; both shrink as k grows\n";
  return aprad_larger ? 0 : 1;
}
