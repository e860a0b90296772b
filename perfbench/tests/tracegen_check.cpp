// Verifies the trace generator against the simulator it replaces: one small
// campus (50 devices x 1200 s, half of them rotating MACs) is captured by a
// sim::World sniffer and produced by generate_trace with the same APs,
// mobility, profiles and sniffer, and four traffic statistics must agree
// within the tolerances below. Exits 1 on any disagreement.
//
//   .bench_build/tracegen_check
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "capture/observation_store.h"
#include "capture/sniffer.h"
#include "sim/mobile.h"
#include "sim/world.h"
#include "tracegen.h"

namespace perfbench = mm::perfbench;

namespace {

using mm::capture::FrameEvent;
using mm::capture::FrameEventKind;
using mm::net80211::MacAddress;
using perfbench::FrameKind;

struct ClassCounts {
  double probe_requests = 0;
  double probe_responses = 0;
  double association = 0;  ///< association request/response + keep-alive

  [[nodiscard]] double total() const { return probe_requests + probe_responses + association; }
};

struct TrafficStats {
  ClassCounts classes;
  double mean_gamma_per_burst = 0.0;
  double pseudonyms_per_rotating_device = 0.0;
  double seq_continuity = 0.0;  ///< share of rotation seams the counter bridges
  std::size_t seams = 0;
};

/// Statistics shared by both captures, computed from decoded events plus the
/// pseudonym -> device map and the adopter flags.
TrafficStats event_stats(const std::vector<FrameEvent>& events,
                         const std::unordered_map<MacAddress, std::size_t>& owner,
                         const std::vector<bool>& adopters) {
  TrafficStats out;
  // |Gamma| per scan burst: a pseudonym's probe-response contacts grouped by
  // 5 s gaps, distinct APs per group.
  std::map<MacAddress, std::vector<std::pair<double, MacAddress>>> replies;
  struct SeqSpan {
    double first_t = 0.0;
    std::uint16_t first = 0;
    std::uint16_t last = 0;
    bool seen = false;
  };
  std::map<MacAddress, SeqSpan> seq;
  for (const FrameEvent& e : events) {
    if (e.kind == FrameEventKind::kContact && e.device_seq < 0) {
      replies[e.device].emplace_back(e.time_s, e.ap);
    }
    if (e.device_seq >= 0 && e.kind != FrameEventKind::kBeacon) {
      SeqSpan& s = seq[e.device];
      if (!s.seen) {
        s = {e.time_s, static_cast<std::uint16_t>(e.device_seq),
             static_cast<std::uint16_t>(e.device_seq), true};
      }
      s.last = static_cast<std::uint16_t>(e.device_seq);
    }
  }
  double gamma_sum = 0.0;
  std::size_t bursts = 0;
  for (auto& [mac, list] : replies) {
    std::set<MacAddress> aps;
    double last_t = -1e300;
    for (const auto& [t, ap] : list) {
      if (t - last_t > 5.0 && !aps.empty()) {
        gamma_sum += static_cast<double>(aps.size());
        ++bursts;
        aps.clear();
      }
      aps.insert(ap);
      last_t = t;
    }
    if (!aps.empty()) {
      gamma_sum += static_cast<double>(aps.size());
      ++bursts;
    }
  }
  out.mean_gamma_per_burst = bursts == 0 ? 0.0 : gamma_sum / static_cast<double>(bursts);

  // Pseudonyms observed per rotating device, and the counter across each
  // seam between consecutive observed pseudonyms of one device.
  std::map<std::size_t, std::vector<std::pair<double, MacAddress>>> by_device;
  for (const auto& [mac, s] : seq) {
    const auto own = owner.find(mac);
    if (own != owner.end() && adopters[own->second]) {
      by_device[own->second].emplace_back(s.first_t, mac);
    }
  }
  std::size_t names = 0;
  std::size_t bridged = 0;
  for (auto& [device, list] : by_device) {
    std::sort(list.begin(), list.end());
    names += list.size();
    for (std::size_t i = 1; i < list.size(); ++i) {
      const SeqSpan& old_span = seq[list[i - 1].second];
      const SeqSpan& new_span = seq[list[i].second];
      const int delta = (new_span.first - old_span.last) & 0x0FFF;
      ++out.seams;
      if (delta >= 1 && delta <= 64) ++bridged;
    }
  }
  out.pseudonyms_per_rotating_device =
      by_device.empty() ? 0.0 : static_cast<double>(names) / static_cast<double>(by_device.size());
  out.seq_continuity =
      out.seams == 0 ? 0.0 : static_cast<double>(bridged) / static_cast<double>(out.seams);
  return out;
}

TrafficStats simulate(const perfbench::TraceConfig& cfg, const perfbench::Trace& trace) {
  namespace sim = mm::sim;
  sim::World world({.seed = cfg.seed ^ 0xA12E4Au, .propagation = nullptr});
  sim::populate_world(world, trace.aps, cfg.beacons);
  std::vector<sim::MobileDevice*> mobiles;
  for (std::size_t d = 0; d < cfg.devices; ++d) {
    sim::MobileConfig mc;
    mc.mac = perfbench::device_mac(cfg, d);
    mc.mobility = perfbench::device_mobility(cfg, d);
    mc.profile.probes = true;
    mc.profile.scan_interval_s = perfbench::kScanIntervalS;
    mc.profile.directed_ssids = perfbench::device_ssids(d);
    mc.profile.keepalive_interval_s = perfbench::kKeepaliveIntervalS;
    mc.profile.home_ssid =
        trace.aps[perfbench::nearest_ap(trace.aps, mc.mobility->position(0.0))].ssid;
    if (trace.adopters[d]) sim::apply_defense_profile(cfg.defense, mc.profile);
    mobiles.push_back(world.add_mobile(std::make_unique<sim::MobileDevice>(mc)));
  }
  mm::capture::ObservationStore store;
  mm::capture::SnifferConfig sc;
  sc.position = cfg.sites.at(0);
  sc.antenna_height_m = perfbench::kSiteHeightM;
  mm::capture::Sniffer sniffer(sc, &store);
  std::vector<FrameEvent> events;
  sniffer.set_event_sink([&](const FrameEvent& e) { events.push_back(e); });
  sniffer.attach(world);
  world.run_until(cfg.duration_s);

  std::unordered_map<MacAddress, std::size_t> owner;
  for (std::size_t d = 0; d < mobiles.size(); ++d) {
    for (const MacAddress& mac : mobiles[d]->mac_history()) owner.emplace(mac, d);
  }
  TrafficStats out = event_stats(events, owner, trace.adopters);
  const auto& s = sniffer.stats();
  out.classes = {static_cast<double>(s.probe_requests), static_cast<double>(s.probe_responses),
                 static_cast<double>(s.associations + s.data_frames)};
  return out;
}

TrafficStats generated(const perfbench::Trace& trace) {
  std::unordered_map<MacAddress, std::size_t> owner;
  for (const auto& [mac, d] : trace.owner) owner.emplace(mac, d);
  TrafficStats out = event_stats(perfbench::site_events(trace).at(0), owner, trace.adopters);
  for (const perfbench::TraceFrame& f : trace.frames) {
    switch (f.kind) {
      case FrameKind::kProbeRequest: ++out.classes.probe_requests; break;
      case FrameKind::kProbeResponse: ++out.classes.probe_responses; break;
      case FrameKind::kBeacon: break;
      default: ++out.classes.association; break;
    }
  }
  return out;
}

int failures = 0;

void expect_close(const char* what, double sim_value, double gen_value, double tolerance,
                  bool relative) {
  const double diff = relative ? std::abs(gen_value - sim_value) / std::max(1e-12, sim_value)
                               : std::abs(gen_value - sim_value);
  const bool ok = diff <= tolerance;
  std::printf("%-34s sim %9.4f  gen %9.4f  |diff| %.4f (%s tolerance %.3f)  %s\n", what,
              sim_value, gen_value, diff, relative ? "relative" : "absolute", tolerance,
              ok ? "ok" : "FAIL");
  if (!ok) ++failures;
}

}  // namespace

int main() {
  constexpr std::uint64_t seed = 7001;
  const perfbench::TraceConfig cfg = perfbench::TraceConfig::campus(seed);
  const perfbench::Trace trace = perfbench::generate_trace(cfg);
  const TrafficStats sim = simulate(cfg, trace);
  const TrafficStats gen = generated(trace);

  std::printf("campus: %zu devices x %.0f s, %zu APs, seed %llu; frames sim %.0f gen %.0f\n",
              cfg.devices, cfg.duration_s, cfg.num_aps, static_cast<unsigned long long>(seed),
              sim.classes.total(), gen.classes.total());
  // Shares are compared in absolute percentage points; the per-burst and
  // per-device means relative to the simulator's value.
  expect_close("probe request share", sim.classes.probe_requests / sim.classes.total(),
               gen.classes.probe_requests / gen.classes.total(), 0.04, false);
  expect_close("probe response share", sim.classes.probe_responses / sim.classes.total(),
               gen.classes.probe_responses / gen.classes.total(), 0.04, false);
  expect_close("association + keep-alive share", sim.classes.association / sim.classes.total(),
               gen.classes.association / gen.classes.total(), 0.03, false);
  expect_close("mean |Gamma| per scan burst", sim.mean_gamma_per_burst,
               gen.mean_gamma_per_burst, 0.10, true);
  expect_close("pseudonyms per rotating device", sim.pseudonyms_per_rotating_device,
               gen.pseudonyms_per_rotating_device, 0.10, true);
  expect_close("seq continuity across seams", sim.seq_continuity, gen.seq_continuity, 0.10,
               false);
  std::printf("seams observed: sim %zu gen %zu\n", sim.seams, gen.seams);
  std::printf("%s\n", failures == 0 ? "tracegen_check: PASS" : "tracegen_check: FAIL");
  return failures == 0 ? 0 : 1;
}
