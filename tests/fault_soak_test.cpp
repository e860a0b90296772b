// Faultline soak harness: drive the full capture -> persistence -> replay ->
// localization pipeline under swept fault rates and assert the robustness
// contract end to end — no crashes at any rate, quarantine ledgers that are
// consistent and monotone in the injected damage, crash-safe persistence,
// and bounded accuracy degradation at realistic damage levels (median M-Loc
// error within 2x of the clean run at 1% frame corruption, same seed).
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <memory>
#include <vector>

#include "capture/persistence.h"
#include "capture/replay.h"
#include "capture/sniffer.h"
#include "marauder/tracker.h"
#include "sim/mobile.h"
#include "sim/mobility.h"
#include "sim/scenario.h"
#include "unique_temp_path.h"

namespace mm {
namespace {

struct SoakScenario {
  std::vector<sim::ApTruth> truth;
  std::vector<net80211::MacAddress> victims;
  std::vector<geo::Vec2> positions;
};

SoakScenario make_scenario() {
  SoakScenario s;
  sim::CampusConfig campus;
  campus.seed = 909;
  campus.num_aps = 110;
  campus.half_extent_m = 260.0;
  s.truth = sim::generate_campus_aps(campus);
  s.positions = {{60.0, -40.0}, {-80.0, 30.0}, {10.0, 90.0},
                 {-50.0, -70.0}, {100.0, 20.0}, {0.0, 0.0}};
  for (std::size_t i = 0; i < s.positions.size(); ++i) {
    std::array<std::uint8_t, 6> bytes{0x00, 0x16, 0x6f, 0x00, 0x01,
                                      static_cast<std::uint8_t>(i + 1)};
    s.victims.emplace_back(bytes);
  }
  return s;
}

struct SoakRun {
  capture::SnifferStats sniffer;
  fault::FaultStats faults;
  std::size_t located = 0;
  double median_error_m = 0.0;
  std::filesystem::path pcap_path;
};

/// One full capture + localization pass under `plan`. Never throws: any
/// crash here is a soak failure by itself.
SoakRun run_capture(const SoakScenario& s, const fault::FaultPlan& plan,
                    const char* pcap_name = nullptr) {
  sim::World world({.seed = 13, .propagation = nullptr});
  sim::populate_world(world, s.truth, /*beacons_enabled=*/false);

  std::vector<sim::MobileDevice*> devices;
  for (std::size_t i = 0; i < s.victims.size(); ++i) {
    sim::MobileConfig mc;
    mc.mac = s.victims[i];
    mc.profile.probes = false;
    mc.mobility = std::make_shared<sim::StaticPosition>(s.positions[i]);
    devices.push_back(world.add_mobile(std::make_unique<sim::MobileDevice>(mc)));
  }

  capture::ObservationStore store;
  capture::SnifferConfig cfg;
  cfg.position = {0.0, 0.0};
  cfg.antenna_height_m = 20.0;
  cfg.fault_plan = plan;
  if (pcap_name != nullptr) {
    cfg.pcap_path = testing_support::unique_temp_path(pcap_name);
  }
  SoakRun run;
  {
    capture::Sniffer sniffer(cfg, &store);
    sniffer.attach(world);
    for (std::size_t i = 0; i < devices.size(); ++i) {
      sim::MobileDevice* dev = devices[i];
      world.queue().schedule(1.0 + 0.5 * static_cast<double>(i),
                             [dev] { dev->trigger_scan(); });
    }
    world.run_until(6.0);
    run.sniffer = sniffer.stats();
    run.faults = sniffer.fault_stats();
  }
  if (cfg.pcap_path) run.pcap_path = *cfg.pcap_path;

  marauder::TrackerOptions options;
  options.algorithm = marauder::Algorithm::kMLoc;
  options.mloc.reject_outliers = true;
  marauder::Tracker tracker(marauder::ApDatabase::from_truth(s.truth, true), options);
  tracker.prepare(store);

  std::vector<double> errors;
  for (std::size_t i = 0; i < s.victims.size(); ++i) {
    const auto result = tracker.locate(store, s.victims[i]);
    if (!result.ok) continue;
    ++run.located;
    errors.push_back(result.estimate.distance_to(s.positions[i]));
  }
  if (!errors.empty()) {
    std::sort(errors.begin(), errors.end());
    run.median_error_m = errors[errors.size() / 2];
  }
  return run;
}

TEST(FaultSoak, PerFrameFaultSweepNeverCrashesAndCountsMonotone) {
  const SoakScenario s = make_scenario();
  struct Channel {
    const char* name;
    double fault::FaultPlan::* rate;
    std::uint64_t fault::FaultStats::* counter;
  };
  const std::vector<Channel> channels = {
      {"corrupt", &fault::FaultPlan::corrupt_rate, &fault::FaultStats::frames_corrupted},
      {"truncate", &fault::FaultPlan::truncate_rate, &fault::FaultStats::frames_truncated},
      {"drop", &fault::FaultPlan::drop_rate, &fault::FaultStats::frames_dropped},
      {"dup", &fault::FaultPlan::duplicate_rate, &fault::FaultStats::frames_duplicated},
  };
  const std::vector<double> rates = {0.01, 0.05, 0.25};

  for (const Channel& channel : channels) {
    std::uint64_t prev_count = 0;
    for (const double rate : rates) {
      fault::FaultPlan plan;
      plan.*channel.rate = rate;
      const SoakRun run = run_capture(s, plan);
      SCOPED_TRACE(std::string(channel.name) + " @ " + std::to_string(rate));

      // The injector saw every decoded frame.
      EXPECT_EQ(run.faults.frames_seen, run.sniffer.frames_decoded);
      // Same seed, higher rate: more damage. (Exact superset for drop/dup;
      // statistical — but deterministic per seed — for corrupt/truncate,
      // whose in-place damage consumes extra draws.)
      EXPECT_GE(run.faults.*channel.counter, prev_count);
      prev_count = run.faults.*channel.counter;
      // Quarantines never exceed the frames actually damaged.
      EXPECT_LE(run.sniffer.frames_quarantined,
                run.faults.frames_corrupted + run.faults.frames_truncated);
      // Ledger: drops and quarantines come out of the decoded budget, and
      // store deliveries never exceed what survived (each delivery bumps at
      // most one type counter; duplicates bump twice).
      EXPECT_LE(run.faults.frames_dropped + run.sniffer.frames_quarantined,
                run.sniffer.frames_decoded);
      const std::uint64_t delivered = run.sniffer.probe_requests +
                                      run.sniffer.probe_responses + run.sniffer.beacons +
                                      run.sniffer.associations + run.sniffer.data_frames;
      EXPECT_LE(delivered, run.sniffer.frames_decoded - run.faults.frames_dropped -
                               run.sniffer.frames_quarantined +
                               run.sniffer.frames_fault_duplicated);
      EXPECT_GT(delivered, 0u);
      // The attack still runs at every rate.
      EXPECT_GE(run.located, 1u);
    }
  }
}

TEST(FaultSoak, NicDropoutSweepDegradesGracefully) {
  const SoakScenario s = make_scenario();
  for (const double rate : {0.3, 0.6, 0.9}) {
    fault::FaultPlan plan;
    plan.nic_dropout_rate = rate;
    plan.nic_dropout_mean_s = 2.0;
    const SoakRun run = run_capture(s, plan);
    SCOPED_TRACE("nic-dropout @ " + std::to_string(rate));
    EXPECT_GT(run.sniffer.card_down_skips, 0u);
    EXPECT_EQ(run.sniffer.frames_quarantined, 0u);  // dropout loses, never mangles
  }
}

TEST(FaultSoak, ClockFaultsShiftTimestampsOnly) {
  const SoakScenario s = make_scenario();
  const SoakRun clean = run_capture(s, {});
  // Skews stay below the first scan time so no timestamp goes negative and
  // out of the default observation window.
  for (const double skew : {0.05, 0.2, 0.5}) {
    fault::FaultPlan plan;
    plan.clock_skew_max_s = skew;
    plan.clock_drift_max_ppm = 50.0;
    const SoakRun run = run_capture(s, plan);
    SCOPED_TRACE("skew @ " + std::to_string(skew));
    // Clock faults reorder/retime evidence but never destroy it.
    EXPECT_EQ(run.sniffer.frames_decoded, clean.sniffer.frames_decoded);
    EXPECT_EQ(run.sniffer.frames_quarantined, 0u);
    EXPECT_EQ(run.located, clean.located);
  }
}

// The headline acceptance bound: at 1% frame corruption the attack's median
// error stays within 2x of the clean run with the same scenario seed.
TEST(FaultSoak, MedianErrorBoundedAtOnePercentCorruption) {
  const SoakScenario s = make_scenario();
  const SoakRun clean = run_capture(s, {});
  ASSERT_GE(clean.located, s.victims.size() - 1);
  ASSERT_GT(clean.median_error_m, 0.0);

  fault::FaultPlan plan;
  plan.corrupt_rate = 0.01;
  const SoakRun damaged = run_capture(s, plan);
  EXPECT_GE(damaged.located, clean.located - 1);
  // +1 m absolute slack keeps the 2x ratio meaningful if the clean median
  // is sub-meter.
  EXPECT_LE(damaged.median_error_m, 2.0 * clean.median_error_m + 1.0)
      << "clean " << clean.median_error_m << " m vs damaged " << damaged.median_error_m
      << " m";
}

TEST(FaultSoak, ReplaySweepQuarantinesWithoutCrashing) {
  const SoakScenario s = make_scenario();
  const SoakRun clean = run_capture(s, {}, "mm_soak_replay.pcap");
  ASSERT_FALSE(clean.pcap_path.empty());

  for (const char* key : {"corrupt", "truncate", "drop"}) {
    std::uint64_t prev_damage = 0;
    for (const double rate : {0.02, 0.1, 0.4}) {
      const auto plan =
          fault::FaultPlan::parse(std::string(key) + "=" + std::to_string(rate));
      ASSERT_TRUE(plan.ok()) << plan.error();
      capture::ReplayOptions options;
      options.fault_plan = plan.value();
      capture::ObservationStore store;
      const auto replayed = capture::replay_pcap(clean.pcap_path, store, options);
      SCOPED_TRACE(std::string(key) + " @ " + std::to_string(rate));
      ASSERT_TRUE(replayed.ok()) << replayed.error();
      const capture::ReplayStats& stats = replayed.value();
      EXPECT_EQ(stats.faults.frames_seen, stats.records);
      EXPECT_LE(stats.malformed,
                stats.faults.frames_corrupted + stats.faults.frames_truncated);
      const std::uint64_t damage = stats.faults.frames_corrupted +
                                   stats.faults.frames_truncated +
                                   stats.faults.frames_dropped;
      EXPECT_GE(damage, prev_damage);  // same seed, higher rate
      prev_damage = damage;
    }
  }
  std::filesystem::remove(clean.pcap_path);
}

// Crash-safe persistence under repeated torn writes: the previous snapshot
// survives every failed save, and a retry eventually lands the new one.
TEST(FaultSoak, TornWriteSoakNeverLosesPreviousSnapshot) {
  const auto path = testing_support::unique_temp_path("mm_soak_obs.csv");
  const SoakScenario s = make_scenario();
  capture::ObservationStore store;
  store.record_probe_request(s.victims[0], 1.0, std::string("SoakNet"));
  ASSERT_TRUE(capture::save_observations(store, path).ok());
  const auto baseline = capture::load_observations(path);
  ASSERT_TRUE(baseline.ok());
  const std::size_t baseline_devices = baseline.value().store.device_count();

  fault::FaultPlan plan;
  plan.torn_write_rate = 0.7;
  plan.seed = 2027;
  fault::FaultInjector injector(plan);
  capture::SaveOptions options;
  options.injector = &injector;
  options.backoff_s = 0.0;
  options.max_attempts = 1;  // one attempt per call, so failures == tears

  store.record_probe_request(s.victims[1], 2.0, std::string("SoakNet2"));
  int failures = 0;
  bool landed = false;
  for (int attempt = 0; attempt < 64 && !landed; ++attempt) {
    const auto saved = capture::save_observations(store, path, options);
    if (saved.ok()) {
      landed = true;
      break;
    }
    ++failures;
    // After every torn write the destination must still load cleanly with
    // at least the baseline evidence.
    const auto loaded = capture::load_observations(path);
    ASSERT_TRUE(loaded.ok()) << loaded.error();
    EXPECT_EQ(loaded.value().stats.quarantined, 0u);
    EXPECT_GE(loaded.value().store.device_count(), baseline_devices);
  }
  EXPECT_TRUE(landed) << "no save landed in 64 attempts at torn=0.7";
  EXPECT_GT(failures, 0) << "torn=0.7 never fired; injector miswired?";
  EXPECT_EQ(injector.stats().files_torn, static_cast<std::uint64_t>(failures));
  const auto final_load = capture::load_observations(path);
  ASSERT_TRUE(final_load.ok());
  EXPECT_EQ(final_load.value().store.device_count(), 2u);
  std::filesystem::remove(path);
  std::filesystem::remove(path.string() + ".tmp");
}

// Everything at once: a hostile transport with every fault class active, at
// three escalating severities. The pipeline must stay up and keep producing
// estimates from whatever evidence survives.
TEST(FaultSoak, CombinedPlanEndToEnd) {
  const SoakScenario s = make_scenario();
  for (const double severity : {0.01, 0.05, 0.15}) {
    fault::FaultPlan plan;
    plan.corrupt_rate = severity;
    plan.truncate_rate = severity / 2.0;
    plan.drop_rate = severity / 2.0;
    plan.duplicate_rate = severity / 4.0;
    plan.nic_dropout_rate = severity;
    plan.nic_dropout_mean_s = 2.0;
    plan.clock_skew_max_s = 0.2;
    plan.clock_drift_max_ppm = 20.0;
    const SoakRun run = run_capture(s, plan);
    SCOPED_TRACE("severity " + std::to_string(severity));
    EXPECT_GT(run.sniffer.frames_decoded, 0u);
    EXPECT_GE(run.located, 1u);
    EXPECT_LE(run.sniffer.frames_quarantined,
              run.faults.frames_corrupted + run.faults.frames_truncated);
  }
}

}  // namespace
}  // namespace mm
