// Slipstream offline throughput: Tracker::locate_all over a synthetic
// capture (serial vs a 1/2/4/8 thread sweep), per-stage timings from
// LocateAllProfile, and the parallel Monte-Carlo / AP-Rad kernels. The
// acceptance bar is a >= 4x locate_all speedup at 4+ threads; on machines
// with >= 4 hardware cores missing it is a hard failure, on smaller runners
// it reports WARN. Every parallel run is also checked bit-for-bit against
// its serial twin, and a mismatch is a hard failure anywhere (determinism is
// the engine's contract, not an aspiration).
//
//   bench_offline_throughput [--smoke] [--devices N] [--clusters C]
//                            [--aps-per-device K] [--reps R] [--threads T]
//                            [--mc-trials N] [--out BENCH_offline.json]
//
// --smoke shrinks the workload for CI (fewer devices / reps / MC trials);
// explicit flags still win. Devices are grouped into clusters that share one
// Gamma (phones in the same room hear the same APs), so locate_all's
// grouping localizes at most `clusters` unique disc sets per call.
#include <algorithm>
#include <bit>
#include <chrono>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "analysis/theorems.h"
#include "capture/observation_store.h"
#include "marauder/ap_database.h"
#include "marauder/aprad.h"
#include "marauder/tracker.h"
#include "sim/scenario.h"
#include "util/flags.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace {

using namespace mm;
using ResultMap = std::map<net80211::MacAddress, marauder::LocalizationResult>;

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Synthetic capture: `devices` devices in `clusters` co-located groups, each
/// group contacting the same `aps_per_device` consecutive campus APs.
capture::ObservationStore make_store(std::size_t devices, std::size_t clusters,
                                     std::size_t aps_per_device,
                                     const std::vector<sim::ApTruth>& truth,
                                     std::uint64_t seed) {
  capture::ObservationStore store;
  util::Rng rng(seed);
  std::vector<std::size_t> cluster_base(clusters);
  for (std::size_t c = 0; c < clusters; ++c) {
    cluster_base[c] = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(truth.size()) - 1));
  }
  for (std::size_t d = 0; d < devices; ++d) {
    const auto mac = net80211::MacAddress::from_u64(0x0016f0000000ULL + d);
    const std::size_t base = cluster_base[d % clusters];
    for (std::size_t k = 0; k < aps_per_device; ++k) {
      const auto& ap = truth[(base + k) % truth.size()].bssid;
      store.record_contact(ap, mac, 1.0 + 0.1 * static_cast<double>(k), -60.0);
    }
  }
  return store;
}

bool same_result(const marauder::LocalizationResult& a,
                 const marauder::LocalizationResult& b) {
  if (a.ok != b.ok || a.used_fallback != b.used_fallback ||
      a.discs_rejected != b.discs_rejected || a.num_aps != b.num_aps ||
      std::bit_cast<std::uint64_t>(a.estimate.x) !=
          std::bit_cast<std::uint64_t>(b.estimate.x) ||
      std::bit_cast<std::uint64_t>(a.estimate.y) !=
          std::bit_cast<std::uint64_t>(b.estimate.y) ||
      a.discs.size() != b.discs.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.discs.size(); ++i) {
    if (std::bit_cast<std::uint64_t>(a.discs[i].center.x) !=
            std::bit_cast<std::uint64_t>(b.discs[i].center.x) ||
        std::bit_cast<std::uint64_t>(a.discs[i].center.y) !=
            std::bit_cast<std::uint64_t>(b.discs[i].center.y) ||
        std::bit_cast<std::uint64_t>(a.discs[i].radius) !=
            std::bit_cast<std::uint64_t>(b.discs[i].radius)) {
      return false;
    }
  }
  return true;
}

bool same_results(const ResultMap& a, const ResultMap& b) {
  if (a.size() != b.size()) return false;
  auto ita = a.begin();
  auto itb = b.begin();
  for (; ita != a.end(); ++ita, ++itb) {
    if (ita->first != itb->first || !same_result(ita->second, itb->second)) return false;
  }
  return true;
}

struct LocateRun {
  std::size_t threads = 1;
  double best_s = 0.0;
  double devices_per_sec = 0.0;
  marauder::LocateAllProfile profile;  ///< per-stage breakdown of the best rep
  ResultMap results;
};

/// Times locate_all on a fresh tracker per rep.
LocateRun run_locate(const marauder::ApDatabase& db,
                     const capture::ObservationStore& store, std::size_t threads, int reps) {
  LocateRun run;
  run.threads = threads;
  run.best_s = 1e300;
  for (int rep = 0; rep < reps; ++rep) {
    marauder::TrackerOptions options;
    options.algorithm = marauder::Algorithm::kMLoc;
    options.threads = threads;
    marauder::Tracker tracker(db, options);
    marauder::LocateAllProfile profile;
    const double t0 = now_seconds();
    ResultMap results = tracker.locate_all(store, {}, &profile);
    const double elapsed = now_seconds() - t0;
    if (elapsed < run.best_s) {
      run.best_s = elapsed;
      run.profile = profile;
    }
    run.results = std::move(results);
  }
  run.devices_per_sec =
      run.best_s > 0.0 ? static_cast<double>(store.device_count()) / run.best_s : 0.0;
  return run;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Flags flags(argc, argv);
  const bool smoke = flags.has("smoke");
  const auto devices = static_cast<std::size_t>(
      flags.get_int("devices", smoke ? 1500 : 4000));
  const auto clusters = static_cast<std::size_t>(
      flags.get_int("clusters", static_cast<std::int64_t>(devices) / 4));
  const auto aps_per_device = static_cast<std::size_t>(flags.get_int("aps-per-device", 6));
  const int reps = static_cast<int>(flags.get_int("reps", smoke ? 2 : 3));
  const auto threads_flag = static_cast<std::size_t>(flags.get_int("threads", 0));
  const std::size_t hw_cores = util::ThreadPool::default_parallelism();
  const std::size_t threads = threads_flag == 0 ? hw_cores : threads_flag;
  const int mc_trials = static_cast<int>(flags.get_int("mc-trials", smoke ? 1500 : 4000));
  const std::string out_path = flags.get("out", "BENCH_offline.json");

  sim::CampusConfig campus;
  campus.seed = 2009;
  campus.num_aps = 170;
  const auto truth = sim::generate_campus_aps(campus);
  const auto db = marauder::ApDatabase::from_truth(truth, true);
  const auto store = make_store(devices, std::max<std::size_t>(clusters, 1),
                                aps_per_device, truth, 0xafbe);

  std::cout << "Slipstream offline throughput (" << devices << " devices, "
            << clusters << " clusters, " << hw_cores << " hw cores"
            << (smoke ? ", smoke" : "") << ")\n\n";

  // locate_all baseline: serial, timed after one untimed pass so that it
  // runs as warm as the sweep points it is the speedup baseline for.
  (void)run_locate(db, store, 1, 1);
  const LocateRun serial = run_locate(db, store, 1, reps);
  std::cout << "locate_all serial: " << static_cast<std::uint64_t>(serial.devices_per_sec)
            << " devices/s (" << serial.profile.unique_gammas << " unique gammas)\n\n";

  // Thread sweep: each point bit-compared against the serial run.
  // Per-stage timings come from LocateAllProfile (plan = Gamma gather + key
  // build + grouping, locate = parallel localization of unique disc sets,
  // merge = fan-out + ordered map fold).
  const std::size_t sweep_threads[] = {1, 2, 4, 8};
  std::vector<LocateRun> sweep;
  std::vector<double> sweep_speedup;
  std::vector<bool> sweep_identical;
  bool locate_identical = true;
  double locate_speedup = 0.0;  // best speedup among 4+ thread points
  std::cout << "thread sweep:\n";
  for (const std::size_t t : sweep_threads) {
    LocateRun run = run_locate(db, store, t, reps);
    const double speedup = run.best_s > 0.0 ? serial.best_s / run.best_s : 0.0;
    const bool identical = same_results(serial.results, run.results);
    locate_identical = locate_identical && identical;
    if (t >= 4) locate_speedup = std::max(locate_speedup, speedup);
    std::cout << "  threads=" << t << ": "
              << static_cast<std::uint64_t>(run.devices_per_sec) << " devices/s  ("
              << speedup << "x; plan " << run.profile.plan_s << " s, locate "
              << run.profile.locate_s << " s, merge " << run.profile.merge_s
              << " s; " << run.profile.unique_gammas << " unique gammas, "
              << run.profile.outlier_devices << " outlier devices"
              << (identical ? "" : "; BIT MISMATCH") << ")\n";
    sweep_speedup.push_back(speedup);
    sweep_identical.push_back(identical);
    sweep.push_back(std::move(run));
  }
  std::cout << "\n";

  // Parallel Monte-Carlo kernel (the bench_fig* workhorse).
  const double mc_t0 = now_seconds();
  const double mc_serial = analysis::thm2_monte_carlo_area(8, 1.0, mc_trials, 42, 1);
  const double mc_serial_s = now_seconds() - mc_t0;
  const double mc_t1 = now_seconds();
  const double mc_threaded = analysis::thm2_monte_carlo_area(8, 1.0, mc_trials, 42, threads);
  const double mc_threaded_s = now_seconds() - mc_t1;
  const double mc_speedup = mc_threaded_s > 0.0 ? mc_serial_s / mc_threaded_s : 0.0;
  const bool mc_identical = std::bit_cast<std::uint64_t>(mc_serial) ==
                            std::bit_cast<std::uint64_t>(mc_threaded);
  std::cout << "thm2 Monte Carlo (" << mc_trials << " trials): serial " << mc_serial_s
            << " s, threaded " << mc_threaded_s << " s (" << mc_speedup << "x)\n";

  // Parallel AP-Rad constraint generation.
  std::vector<std::set<net80211::MacAddress>> gammas;
  for (const net80211::MacAddress& mac : store.devices()) {
    std::set<net80211::MacAddress> gamma = store.gamma(mac);
    if (!gamma.empty()) gammas.push_back(std::move(gamma));
  }
  const auto aprad_db = marauder::ApDatabase::from_truth(truth, false);
  marauder::ApRadOptions aprad_serial_opts;
  aprad_serial_opts.threads = 1;
  marauder::ApRadOptions aprad_threaded_opts;
  aprad_threaded_opts.threads = threads;
  const double ar_t0 = now_seconds();
  const auto radii_serial = marauder::aprad_estimate_radii(aprad_db, gammas, aprad_serial_opts);
  const double aprad_serial_s = now_seconds() - ar_t0;
  const double ar_t1 = now_seconds();
  const auto radii_threaded =
      marauder::aprad_estimate_radii(aprad_db, gammas, aprad_threaded_opts);
  const double aprad_threaded_s = now_seconds() - ar_t1;
  const double aprad_speedup =
      aprad_threaded_s > 0.0 ? aprad_serial_s / aprad_threaded_s : 0.0;
  bool aprad_identical = radii_serial.size() == radii_threaded.size();
  if (aprad_identical) {
    auto its = radii_serial.begin();
    auto itt = radii_threaded.begin();
    for (; its != radii_serial.end(); ++its, ++itt) {
      if (its->first != itt->first || std::bit_cast<std::uint64_t>(its->second) !=
                                          std::bit_cast<std::uint64_t>(itt->second)) {
        aprad_identical = false;
        break;
      }
    }
  }
  std::cout << "AP-Rad radii (" << gammas.size() << " gammas): serial " << aprad_serial_s
            << " s, threaded " << aprad_threaded_s << " s (" << aprad_speedup << "x)\n\n";

  std::ofstream out(out_path);
  out << "{\n  \"benchmark\": \"offline_throughput\",\n"
      << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n"
      << "  \"hw_cores\": " << hw_cores << ",\n"
      << "  \"devices\": " << devices << ",\n"
      << "  \"clusters\": " << clusters << ",\n"
      << "  \"reps\": " << reps << ",\n"
      << "  \"serial_devices_per_sec\": " << serial.devices_per_sec << ",\n"
      << "  \"unique_gammas\": " << serial.profile.unique_gammas << ",\n"
      << "  \"outlier_devices\": " << serial.profile.outlier_devices << ",\n"
      << "  \"threads_sweep\": [\n";
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    const LocateRun& run = sweep[i];
    out << "    {\"threads\": " << run.threads
        << ", \"devices_per_sec\": " << run.devices_per_sec
        << ", \"speedup\": " << sweep_speedup[i]
        << ", \"plan_s\": " << run.profile.plan_s
        << ", \"locate_s\": " << run.profile.locate_s
        << ", \"merge_s\": " << run.profile.merge_s
        << ", \"identical\": " << (sweep_identical[i] ? "true" : "false") << "}"
        << (i + 1 < sweep.size() ? "," : "") << "\n";
  }
  out << "  ],\n"
      << "  \"locate_speedup\": " << locate_speedup << ",\n"
      << "  \"locate_identical\": " << (locate_identical ? "true" : "false") << ",\n"
      << "  \"mc_trials\": " << mc_trials << ",\n"
      << "  \"mc_serial_s\": " << mc_serial_s << ",\n"
      << "  \"mc_threaded_s\": " << mc_threaded_s << ",\n"
      << "  \"mc_speedup\": " << mc_speedup << ",\n"
      << "  \"mc_identical\": " << (mc_identical ? "true" : "false") << ",\n"
      << "  \"aprad_serial_s\": " << aprad_serial_s << ",\n"
      << "  \"aprad_threaded_s\": " << aprad_threaded_s << ",\n"
      << "  \"aprad_speedup\": " << aprad_speedup << ",\n"
      << "  \"aprad_identical\": " << (aprad_identical ? "true" : "false") << "\n"
      << "}\n";
  std::cout << "wrote " << out_path << "\n";

  // Determinism is a hard failure everywhere. The >= 4x locate target is a
  // hard failure only where it is provable — machines with >= 4 hardware
  // cores; oversubscribed sweep points on a small runner can't hit it, so
  // those report WARN.
  bool failed = false;
  const bool identical = locate_identical && mc_identical && aprad_identical;
  if (!identical) failed = true;
  std::cout << (identical ? "PASS" : "FAIL")
            << ": parallel results bit-identical to serial\n";
  const bool met = locate_speedup >= 4.0;
  if (hw_cores >= 4) {
    if (!met) failed = true;
    std::cout << (met ? "PASS" : "FAIL") << ": locate_all speedup " << locate_speedup
              << "x at 4+ threads (target >= 4x, " << hw_cores << " hw cores)\n";
  } else {
    std::cout << (met ? "PASS" : "WARN") << ": locate_all speedup " << locate_speedup
              << "x at 4+ threads (target gated: only " << hw_cores
              << " hw cores)\n";
  }
  return failed ? 1 : 0;
}
