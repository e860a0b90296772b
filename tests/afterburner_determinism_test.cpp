// Afterburner's core promise: the parallel offline stack is bit-for-bit
// identical to its serial twin at any thread count — locate_all (clean and
// under an active fault plan) and the Monte-Carlo theorem kernels. Slipstream's: locate_all's grouped batch path
// is bit-identical to one locate() per device (the reference below) for every
// algorithm, window and thread count. Run under TSan in CI alongside the pool
// contract tests.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "analysis/theorems.h"
#include "capture/frame_event.h"
#include "capture/persistence.h"
#include "capture/sniffer.h"
#include "capture/wardrive.h"
#include "marauder/aprad.h"
#include "marauder/tracker.h"
#include "sim/mobile.h"
#include "sim/mobility.h"
#include "sim/scenario.h"
#include "unique_temp_path.h"
#include "util/rng.h"

namespace mm {
namespace {

using ResultMap = std::map<net80211::MacAddress, marauder::LocalizationResult>;

bool bit_equal(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

void expect_same_results(const ResultMap& a, const ResultMap& b) {
  ASSERT_EQ(a.size(), b.size());
  auto ita = a.begin();
  auto itb = b.begin();
  for (; ita != a.end(); ++ita, ++itb) {
    ASSERT_EQ(ita->first, itb->first);
    const marauder::LocalizationResult& ra = ita->second;
    const marauder::LocalizationResult& rb = itb->second;
    EXPECT_EQ(ra.ok, rb.ok);
    EXPECT_EQ(ra.method, rb.method);
    EXPECT_EQ(ra.used_fallback, rb.used_fallback);
    EXPECT_EQ(ra.discs_rejected, rb.discs_rejected);
    EXPECT_EQ(ra.num_aps, rb.num_aps);
    EXPECT_TRUE(bit_equal(ra.estimate.x, rb.estimate.x)) << ita->first.to_string();
    EXPECT_TRUE(bit_equal(ra.estimate.y, rb.estimate.y)) << ita->first.to_string();
    ASSERT_EQ(ra.discs.size(), rb.discs.size());
    for (std::size_t i = 0; i < ra.discs.size(); ++i) {
      EXPECT_TRUE(bit_equal(ra.discs[i].center.x, rb.discs[i].center.x));
      EXPECT_TRUE(bit_equal(ra.discs[i].center.y, rb.discs[i].center.y));
      EXPECT_TRUE(bit_equal(ra.discs[i].radius, rb.discs[i].radius));
    }
  }
}

/// What locate_all must equal: one locate() per device in ascending-MAC
/// order, keeping the results that are ok.
ResultMap per_device_reference(const marauder::Tracker& tracker,
                               const capture::ObservationStore& store,
                               const capture::ObservationWindow& window) {
  ResultMap out;
  for (const net80211::MacAddress& mac : store.devices()) {
    marauder::LocalizationResult r = tracker.locate(store, mac, window);
    if (r.ok) out.emplace(mac, std::move(r));
  }
  return out;
}

struct Capture {
  std::vector<sim::ApTruth> truth;
  capture::ObservationStore store;
};

constexpr double kScanPeriodS = 2.0;

/// Static devices scattered over a campus of `num_aps` APs, `scans` scans
/// each kScanPeriodS apart, optionally through a fault plan.
Capture make_capture(const fault::FaultPlan& plan = {}, std::size_t scans = 1,
                     std::size_t num_aps = 120) {
  Capture c;
  sim::CampusConfig campus;
  campus.seed = 1717;
  campus.num_aps = num_aps;
  campus.half_extent_m = 280.0;
  c.truth = sim::generate_campus_aps(campus);

  sim::World world({.seed = 29, .propagation = nullptr});
  sim::populate_world(world, c.truth, /*beacons_enabled=*/false);

  std::vector<sim::MobileDevice*> devices;
  for (std::size_t i = 0; i < 12; ++i) {
    sim::MobileConfig mc;
    std::array<std::uint8_t, 6> bytes{0x00, 0x16, 0x6f, 0x00, 0x02,
                                      static_cast<std::uint8_t>(i + 1)};
    mc.mac = net80211::MacAddress(bytes);
    mc.profile.probes = false;
    const double x = -150.0 + 75.0 * static_cast<double>(i % 5);
    const double y = -100.0 + 100.0 * static_cast<double>(i / 5);
    mc.mobility = std::make_shared<sim::StaticPosition>(geo::Vec2{x, y});
    devices.push_back(world.add_mobile(std::make_unique<sim::MobileDevice>(mc)));
  }

  capture::SnifferConfig cfg;
  cfg.position = {0.0, 0.0};
  cfg.antenna_height_m = 20.0;
  cfg.fault_plan = plan;
  capture::Sniffer sniffer(cfg, &c.store);
  sniffer.attach(world);
  for (std::size_t i = 0; i < devices.size(); ++i) {
    sim::MobileDevice* dev = devices[i];
    for (std::size_t s = 0; s < scans; ++s) {
      world.queue().schedule(
          1.0 + 0.25 * static_cast<double>(i) + kScanPeriodS * static_cast<double>(s),
          [dev] { dev->trigger_scan(); });
    }
  }
  world.run_until(6.0 + kScanPeriodS * static_cast<double>(scans - 1));
  return c;
}

/// Three scans per device (near t = 1, 3 and 5), clean and under the fault
/// plan: the inputs of the reference comparisons below. 60 APs keep each
/// AP-Rad prepare (one per tracker) to a ~40-variable LP.
std::vector<Capture> reference_captures() {
  fault::FaultPlan plan;
  plan.corrupt_rate = 0.08;
  plan.duplicate_rate = 0.05;
  std::vector<Capture> out;
  out.push_back(make_capture({}, 3, 60));
  out.push_back(make_capture(plan, 3, 60));
  return out;
}

/// The whole capture; one window that clips both ends of the three-scan
/// contact histories, so that some contacts are in Gamma only through a
/// middle instant; one that matches nothing.
const capture::ObservationWindow kWindows[] = {{}, {2.5, 3.5}, {1000.0, 2000.0}};

/// For threads 1, 3 and 8 and every window: locate_all on `make(threads)`'s
/// tracker equals the per-device reference on that tracker, bit for bit.
template <typename MakeTracker>
void expect_matches_reference(const Capture& c, MakeTracker make) {
  for (const std::size_t threads : {std::size_t{1}, std::size_t{3}, std::size_t{8}}) {
    const marauder::Tracker tracker = make(threads);
    for (std::size_t w = 0; w < std::size(kWindows); ++w) {
      const capture::ObservationWindow& window = kWindows[w];
      SCOPED_TRACE("threads=" + std::to_string(threads) + " window=" + std::to_string(w));
      const ResultMap reference = per_device_reference(tracker, c.store, window);
      EXPECT_EQ(reference.empty(), w + 1 == std::size(kWindows));  // only the last is empty
      expect_same_results(reference, tracker.locate_all(c.store, window));
    }
  }
}

ResultMap locate_all_with(const Capture& c, std::size_t threads, bool reject_outliers) {
  marauder::TrackerOptions options;
  options.algorithm = marauder::Algorithm::kMLoc;
  options.threads = threads;
  options.mloc.reject_outliers = reject_outliers;
  marauder::Tracker tracker(marauder::ApDatabase::from_truth(c.truth, true), options);
  return tracker.locate_all(c.store);
}

TEST(AfterburnerDeterminism, LocateAllBitIdenticalAcrossThreadCounts) {
  const Capture c = make_capture();
  ASSERT_GE(c.store.device_count(), 10u);
  const ResultMap serial = locate_all_with(c, 1, false);
  ASSERT_FALSE(serial.empty());
  expect_same_results(serial, locate_all_with(c, 2, false));
  expect_same_results(serial, locate_all_with(c, 8, false));
}

TEST(AfterburnerDeterminism, LocateAllIdenticalUnderFaultPlan) {
  // Corrupted frames make inconsistent disc sets likely, so this run drives
  // the greedy rejection path (distance-matrix code) across thread counts.
  fault::FaultPlan plan;
  plan.corrupt_rate = 0.08;
  plan.duplicate_rate = 0.05;
  const Capture c = make_capture(plan);
  ASSERT_GE(c.store.device_count(), 8u);
  const ResultMap serial = locate_all_with(c, 1, true);
  ASSERT_FALSE(serial.empty());
  expect_same_results(serial, locate_all_with(c, 2, true));
  expect_same_results(serial, locate_all_with(c, 8, true));
}

TEST(AfterburnerDeterminism, MonteCarloKernelsBitIdenticalAcrossThreadCounts) {
  const double serial2 = analysis::thm2_monte_carlo_area(6, 1.0, 500, 77, 1);
  EXPECT_TRUE(bit_equal(serial2, analysis::thm2_monte_carlo_area(6, 1.0, 500, 77, 2)));
  EXPECT_TRUE(bit_equal(serial2, analysis::thm2_monte_carlo_area(6, 1.0, 500, 77, 8)));

  const auto serial3 = analysis::thm3_monte_carlo(6, 1.0, 0.9, 500, 77, 1);
  for (const std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
    const auto parallel = analysis::thm3_monte_carlo(6, 1.0, 0.9, 500, 77, threads);
    EXPECT_TRUE(bit_equal(serial3.mean_area, parallel.mean_area));
    EXPECT_TRUE(bit_equal(serial3.coverage_probability, parallel.coverage_probability));
  }
}

TEST(SlipstreamDeterminism, FullMatrixBitIdenticalUnderFaultPlan) {
  // The Slipstream contract for M-Loc, exhaustively: with and without
  // outlier rejection, on the clean capture and under the fault plan, over
  // every window at threads 1, 3 and 8, locate_all equals the per-device
  // reference bit for bit.
  for (const Capture& c : reference_captures()) {
    ASSERT_GE(c.store.device_count(), 8u);
    // The clipping window must leave devices out, and must reach some
    // contact only through an instant between its first and last.
    const capture::ObservationWindow& clip = kWindows[1];
    std::size_t clipped_devices = 0;
    bool middle_only = false;
    for (const net80211::MacAddress& mac : c.store.devices()) {
      std::vector<net80211::MacAddress> gamma;
      c.store.gamma_append(mac, clip, gamma);
      if (gamma.empty()) ++clipped_devices;
      for (const auto& [ap, contact] : c.store.device(mac)->contacts) {
        middle_only = middle_only || (!clip.contains(contact.times.front()) &&
                                      !clip.contains(contact.times.back()) &&
                                      c.store.gamma(mac, clip).count(ap) == 1);
      }
    }
    EXPECT_GT(clipped_devices, 0u);
    EXPECT_LT(clipped_devices, c.store.device_count());
    EXPECT_TRUE(middle_only);

    for (const bool reject : {false, true}) {
      SCOPED_TRACE("reject_outliers=" + std::to_string(reject));
      expect_matches_reference(c, [&](std::size_t threads) {
        marauder::TrackerOptions options;
        options.algorithm = marauder::Algorithm::kMLoc;
        options.threads = threads;
        options.mloc.reject_outliers = reject;
        return marauder::Tracker(marauder::ApDatabase::from_truth(c.truth, true), options);
      });
    }
  }
}

marauder::Tracker aprad_tracker(const Capture& c, std::size_t threads) {
  marauder::TrackerOptions options;
  options.algorithm = marauder::Algorithm::kApRad;
  options.threads = threads;
  return marauder::Tracker(marauder::ApDatabase::from_truth(c.truth, false), options);
}

TEST(LocateAllOracle, UnpreparedApRadMatchesPerDeviceLocateAndFlagsFallback) {
  for (const Capture& c : reference_captures()) {
    expect_matches_reference(c, [&](std::size_t threads) { return aprad_tracker(c, threads); });
    // Without LP radii every disc is the cap, and every result says so.
    const ResultMap results = aprad_tracker(c, 3).locate_all(c.store);
    ASSERT_FALSE(results.empty());
    for (const auto& [mac, r] : results) {
      EXPECT_TRUE(r.used_fallback) << mac.to_string();
      for (const geo::Circle& disc : r.discs) {
        EXPECT_EQ(disc.radius, marauder::ApRadOptions{}.max_radius_m);
      }
    }
  }
}

TEST(LocateAllOracle, PreparedApRadMatchesPerDeviceLocate) {
  for (const Capture& c : reference_captures()) {
    expect_matches_reference(c, [&](std::size_t threads) {
      marauder::Tracker tracker = aprad_tracker(c, threads);
      tracker.prepare(c.store);
      return tracker;
    });
  }
}

TEST(LocateAllOracle, ApLocMatchesPerDeviceLocate) {
  for (const Capture& c : reference_captures()) {
    // Wardriving tuples on a 75 m x 50 m grid over the devices' area: each
    // hears the APs whose true disc covers it.
    std::vector<capture::TrainingTuple> tuples;
    for (double x = -150.0; x <= 150.0; x += 75.0) {
      for (double y = -100.0; y <= 100.0; y += 50.0) {
        capture::TrainingTuple tuple{{x, y}, {}};
        for (const sim::ApTruth& ap : c.truth) {
          if (ap.position.distance_to(tuple.position) <= ap.radius_m) {
            tuple.heard_aps.insert(ap.bssid);
          }
        }
        if (!tuple.heard_aps.empty()) tuples.push_back(std::move(tuple));
      }
    }
    ASSERT_GT(tuples.size(), 20u);
    expect_matches_reference(c, [&](std::size_t threads) {
      marauder::TrackerOptions options;
      options.algorithm = marauder::Algorithm::kApLoc;
      options.threads = threads;
      marauder::Tracker tracker = marauder::Tracker::from_training(tuples, options);
      tracker.prepare(c.store);
      return tracker;
    });
  }
}

/// A city-like capture for the windowed cases: each of 300 pseudonyms lives
/// for 5-40 s of a 600 s capture in one of ten neighbourhoods of a 60-AP
/// campus (so neighbours often share a Gamma), and hears 2-4 of its APs in
/// each of 1..`max_scans` scans. Each device also probes a second before its
/// life and shows presence two seconds after it. Events are in time order.
struct CityStream {
  std::vector<sim::ApTruth> truth;
  std::vector<capture::FrameEvent> events;
};

CityStream city_stream(std::int64_t max_scans = 3) {
  sim::CampusConfig campus;
  campus.seed = 4242;
  campus.num_aps = 60;
  campus.half_extent_m = 280.0;
  CityStream c{sim::generate_campus_aps(campus), {}};
  util::Rng rng(77);
  for (std::uint64_t d = 0; d < 300; ++d) {
    const auto mac = net80211::MacAddress::from_u64(0x0216f0000000ULL + d);
    const double born = rng.uniform(0.0, 560.0);
    const double life = rng.uniform(5.0, 40.0);
    const auto base = static_cast<std::size_t>(6 * rng.uniform_int(0, 9));
    const auto heard = static_cast<std::size_t>(rng.uniform_int(2, 4));
    auto seq = static_cast<std::int32_t>(rng.uniform_int(0, 4095));
    const auto event = [&](capture::FrameEventKind kind, double t) {
      capture::FrameEvent e;
      e.kind = kind;
      e.device = mac;
      e.time_s = t;
      e.device_seq = seq;
      seq = (seq + 1) & 0x0FFF;
      return e;
    };
    c.events.push_back(event(capture::FrameEventKind::kProbeRequest, born - 1.0));
    const std::int64_t scans = rng.uniform_int(1, max_scans);
    for (std::int64_t s = 0; s < scans; ++s) {
      const double t = born + life * rng.uniform();
      for (std::size_t k = 0; k < heard; ++k) {
        capture::FrameEvent e =
            event(capture::FrameEventKind::kContact, t + 0.01 * static_cast<double>(k));
        e.ap = c.truth[base + k].bssid;
        e.rssi_dbm = -60.0 - static_cast<double>(k);
        c.events.push_back(e);
      }
    }
    c.events.push_back(event(capture::FrameEventKind::kPresence, born + life + 2.0));
  }
  std::stable_sort(c.events.begin(), c.events.end(),
                   [](const auto& a, const auto& b) { return a.time_s < b.time_s; });
  return c;
}

capture::ObservationStore apply_all(const std::vector<capture::FrameEvent>& events,
                                    capture::ObservationStoreOptions options = {}) {
  capture::ObservationStore store(options);
  for (const capture::FrameEvent& e : events) capture::apply_event(e, store);
  return store;
}

std::vector<capture::ObservationWindow> thirty_second_windows() {
  std::vector<capture::ObservationWindow> out;
  for (double begin = 0.0; begin < 600.0; begin += 30.0) out.push_back({begin, begin + 30.0});
  return out;
}

/// The Gamma rule written out: every AP with a retained instant in the window.
std::vector<net80211::MacAddress> brute_force_gamma(const capture::DeviceRecord& rec,
                                                    const capture::ObservationWindow& w) {
  std::vector<net80211::MacAddress> out;
  for (const auto& [ap, contact] : rec.contacts) {
    if (std::any_of(contact.times.begin(), contact.times.end(),
                    [&](double t) { return t >= w.begin && t <= w.end; })) {
      out.push_back(ap);
    }
  }
  return out;
}

bool idle_in(const capture::DeviceRecord& rec, const capture::ObservationWindow& w) {
  return rec.last_seen < w.begin || rec.first_seen > w.end;
}

/// For every window: each device's Gamma equals the rule written out, and
/// M-Loc's locate_all at 1, 2 and 8 threads equals one locate() per device
/// bit for bit, with the profile counting every device and one group per
/// distinct non-empty Gamma plus one for the empty Gamma. Returns the number
/// of idle device-windows (the device's span misses the window).
std::size_t expect_windowed_oracle(const std::vector<sim::ApTruth>& truth,
                                   const capture::ObservationStore& store,
                                   const std::vector<capture::ObservationWindow>& windows) {
  const auto db = marauder::ApDatabase::from_truth(truth, true);
  std::size_t idle = 0;
  std::vector<ResultMap> reference;
  std::vector<std::size_t> groups;
  {
    const marauder::Tracker serial(db, {.algorithm = marauder::Algorithm::kMLoc});
    for (const capture::ObservationWindow& window : windows) {
      std::set<std::vector<net80211::MacAddress>> distinct;
      bool any_empty = false;
      for (const net80211::MacAddress& mac : store.devices()) {
        const capture::DeviceRecord& rec = *store.device(mac);
        std::vector<net80211::MacAddress> gamma;
        store.gamma_append(mac, window, gamma);
        EXPECT_EQ(gamma, brute_force_gamma(rec, window))
            << mac.to_string() << " in [" << window.begin << ", " << window.end << "]";
        idle += idle_in(rec, window) ? 1 : 0;
        if (gamma.empty()) {
          any_empty = true;
        } else {
          distinct.insert(gamma);
        }
      }
      reference.push_back(per_device_reference(serial, store, window));
      groups.push_back(distinct.size() + (any_empty ? 1 : 0));
    }
  }
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    const marauder::Tracker tracker(db, {.algorithm = marauder::Algorithm::kMLoc,
                                         .threads = threads});
    for (std::size_t w = 0; w < windows.size(); ++w) {
      SCOPED_TRACE("threads=" + std::to_string(threads) + " window=" + std::to_string(w));
      marauder::LocateAllProfile profile;
      expect_same_results(reference[w], tracker.locate_all(store, windows[w], &profile));
      EXPECT_EQ(profile.devices, store.device_count());
      EXPECT_EQ(profile.unique_gammas, groups[w]);
    }
  }
  return idle;
}

TEST(LocateAllOracle, MostlyIdleDevicesInEachWindow) {
  const CityStream c = city_stream();
  const capture::ObservationStore store = apply_all(c.events);
  std::vector<capture::ObservationWindow> windows = thirty_second_windows();
  const std::size_t idle = expect_windowed_oracle(c.truth, store, windows);
  // A device's span is at most 43 s, so it meets at most 3 of the 20 windows.
  EXPECT_GE(idle, store.device_count() * 17);
  // The whole capture, where no device is idle.
  EXPECT_EQ(expect_windowed_oracle(c.truth, store, {{}}), 0u);
}

TEST(LocateAllOracle, WindowsClipContactHistoriesAtBothEnds) {
  const CityStream c = city_stream(/*max_scans=*/5);
  const capture::ObservationStore store = apply_all(c.events);
  // Around the middle instant of contacts heard three or more times, clear
  // of both neighbours: the AP is in Gamma only through that instant.
  std::vector<capture::ObservationWindow> windows;
  for (const net80211::MacAddress& mac : store.devices()) {
    for (const auto& [ap, contact] : store.device(mac)->contacts) {
      if (contact.times.size() < 3 || windows.size() >= 12) continue;
      std::vector<double> times = contact.times;
      std::sort(times.begin(), times.end());
      const double half = std::min(times[1] - times[0], times[2] - times[1]) / 2.0;
      if (!(half > 0.0)) continue;
      windows.push_back({times[1] - half, times[1] + half});
      EXPECT_EQ(store.gamma(mac, windows.back()).count(ap), 1u);
    }
  }
  ASSERT_GE(windows.size(), 6u);
  expect_windowed_oracle(c.truth, store, windows);
}

TEST(LocateAllOracle, DevicesWithOnlyProbesOrPresenceInWindow) {
  const CityStream c = city_stream();
  const capture::ObservationStore store = apply_all(c.events);
  // Windows around devices' probes (a second before their first contact)
  // and presence (two seconds after their last): those devices are not
  // idle, but their Gamma is empty.
  std::vector<capture::ObservationWindow> windows;
  for (const net80211::MacAddress& mac : store.devices()) {
    if (windows.size() >= 12) break;
    const capture::DeviceRecord& rec = *store.device(mac);
    for (const double t : {rec.first_seen, rec.last_seen}) {
      windows.push_back({t - 0.05, t + 0.05});
      EXPECT_FALSE(idle_in(rec, windows.back()));
      EXPECT_TRUE(store.gamma(mac, windows.back()).empty());
    }
  }
  expect_windowed_oracle(c.truth, store, windows);
}

TEST(LocateAllOracle, HistoriesCompactedBySmallCap) {
  const CityStream c = city_stream(/*max_scans=*/12);
  const capture::ObservationStore full = apply_all(c.events);
  const capture::ObservationStore capped = apply_all(c.events, {.contact_history_cap = 4});
  // Narrow windows around instants the cap compacted away: the device's span
  // still meets them, but the AP has left its Gamma.
  std::vector<capture::ObservationWindow> windows = thirty_second_windows();
  std::size_t compacted = 0;
  for (const net80211::MacAddress& mac : capped.devices()) {
    for (const auto& [ap, contact] : capped.device(mac)->contacts) {
      if (contact.count == contact.times.size()) continue;
      if (++compacted > 12) continue;
      const double lost = full.device(mac)->contacts.at(ap).times.front();
      windows.push_back({lost - 0.004, lost + 0.004});
      EXPECT_EQ(full.gamma(mac, windows.back()).count(ap), 1u);
      EXPECT_EQ(capped.gamma(mac, windows.back()).count(ap), 0u);
    }
  }
  ASSERT_GT(compacted, 0u);
  expect_windowed_oracle(c.truth, capped, windows);
}

TEST(LocateAllOracle, OutOfOrderArrivals) {
  const CityStream c = city_stream();
  // Three sites, each hearing a random share of the events in time order,
  // interleaved 64 events at a time: the order a feed mux applies them in.
  util::Rng rng(31);
  std::vector<capture::FrameEvent> sites[3];
  for (const capture::FrameEvent& e : c.events) sites[rng.uniform_int(0, 2)].push_back(e);
  std::vector<capture::FrameEvent> arrivals;
  for (std::size_t at = 0; arrivals.size() < c.events.size(); at += 64) {
    for (const auto& site : sites) {
      for (std::size_t i = at; i < std::min(at + 64, site.size()); ++i) {
        arrivals.push_back(site[i]);
      }
    }
  }
  std::map<net80211::MacAddress, double> latest;
  std::size_t late = 0;
  for (const capture::FrameEvent& e : arrivals) {
    auto [it, inserted] = latest.try_emplace(e.device, e.time_s);
    if (!inserted && e.time_s < it->second) ++late;
    it->second = std::max(it->second, e.time_s);
  }
  ASSERT_GT(late, 0u);

  const capture::ObservationStore ordered = apply_all(c.events);
  const capture::ObservationStore mixed = apply_all(arrivals);
  std::vector<capture::ObservationWindow> windows = thirty_second_windows();
  windows.push_back({});
  expect_windowed_oracle(c.truth, mixed, windows);
  // Arrival order changes nothing a window's map shows.
  const marauder::Tracker tracker(marauder::ApDatabase::from_truth(c.truth, true),
                                  {.algorithm = marauder::Algorithm::kMLoc, .threads = 2});
  for (const capture::ObservationWindow& window : windows) {
    expect_same_results(tracker.locate_all(ordered, window), tracker.locate_all(mixed, window));
  }
}

TEST(LocateAllOracle, RecordsRestoredFromStoreCsv) {
  const CityStream c = city_stream();
  const capture::ObservationStore original = apply_all(c.events);
  const auto path = testing_support::unique_temp_path("mm_locate_all_oracle.csv");
  ASSERT_TRUE(capture::save_observations(original, path).ok());
  // Plus a hand-edited device whose saved span misses its contact instants.
  const auto edited = net80211::MacAddress::from_u64(0x0216f0ff0001ULL);
  {
    std::ofstream out(path, std::ios::app);
    out << "device," << edited.to_string() << ",50,60,0,,0,0,0,0,0\n"
        << "contact," << edited.to_string() << "," << c.truth[0].bssid.to_string()
        << ",10,70,2,-50,10;70\n";
  }
  auto loaded = capture::load_observations(path);
  std::filesystem::remove(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().stats.quarantined, 0u);
  const capture::ObservationStore& restored = loaded.value().store;
  ASSERT_EQ(restored.device_count(), original.device_count() + 1);

  const std::vector<capture::ObservationWindow> windows = thirty_second_windows();
  expect_windowed_oracle(c.truth, restored, windows);
  const marauder::Tracker tracker(marauder::ApDatabase::from_truth(c.truth, true),
                                  {.algorithm = marauder::Algorithm::kMLoc});
  for (const capture::ObservationWindow& window : windows) {
    ResultMap got = tracker.locate_all(restored, window);
    // The edited device is located exactly in the windows of its instants.
    EXPECT_EQ(got.erase(edited), window.contains(10.0) || window.contains(70.0) ? 1u : 0u);
    expect_same_results(tracker.locate_all(original, window), got);
  }
}

/// Ten devices over the first 40 APs of a campus; `shared` puts them in two
/// co-located groups of identical four-AP Gammas, otherwise each device
/// hears its own disjoint AP triple.
struct GroupingFixture {
  std::vector<sim::ApTruth> truth;
  capture::ObservationStore store;
};

GroupingFixture grouping_fixture(bool shared) {
  sim::CampusConfig campus;
  campus.seed = 55;
  campus.num_aps = 40;
  GroupingFixture f{sim::generate_campus_aps(campus), {}};
  for (std::size_t d = 0; d < 10; ++d) {
    if (shared) {
      const auto mac = net80211::MacAddress::from_u64(0x0016f0001000ULL + d);
      const std::size_t base = (d % 2) * 7;
      for (std::size_t k = 0; k < 4; ++k) {
        f.store.record_contact(f.truth[base + k].bssid, mac, 1.0, -55.0);
      }
    } else {
      const auto mac = net80211::MacAddress::from_u64(0x0016f0002000ULL + d);
      for (std::size_t k = 0; k < 3; ++k) {
        f.store.record_contact(f.truth[d * 3 + k].bssid, mac, 1.0, -55.0);
      }
    }
  }
  return f;
}

TEST(SlipstreamGrouping, CoLocatedDevicesShareOneLocalizationPerGamma) {
  // Two co-located device groups: every device in a group hears the same
  // APs, so the batch localizes two disc sets and fans each out to five
  // devices.
  const GroupingFixture f = grouping_fixture(/*shared=*/true);
  const marauder::Tracker tracker(marauder::ApDatabase::from_truth(f.truth, true),
                                  {.algorithm = marauder::Algorithm::kMLoc});
  marauder::LocateAllProfile profile;
  const ResultMap results = tracker.locate_all(f.store, {}, &profile);
  ASSERT_EQ(results.size(), 10u);
  EXPECT_EQ(profile.devices, 10u);
  EXPECT_EQ(profile.unique_gammas, 2u);
  expect_same_results(per_device_reference(tracker, f.store, {}), results);
}

TEST(SlipstreamGrouping, DisjointGammasEachGetTheirOwnLocalization) {
  // Every device hears its own disjoint AP triple: nothing to group, one
  // localization per device.
  const GroupingFixture f = grouping_fixture(/*shared=*/false);
  const marauder::Tracker tracker(marauder::ApDatabase::from_truth(f.truth, true),
                                  {.algorithm = marauder::Algorithm::kMLoc});
  marauder::LocateAllProfile profile;
  const ResultMap results = tracker.locate_all(f.store, {}, &profile);
  ASSERT_EQ(results.size(), 10u);
  EXPECT_EQ(profile.devices, 10u);
  EXPECT_EQ(profile.unique_gammas, 10u);
  expect_same_results(per_device_reference(tracker, f.store, {}), results);
}

}  // namespace
}  // namespace mm
