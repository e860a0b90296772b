#include "tracegen.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <numeric>
#include <optional>

#include "capture/observation_store.h"
#include "capture/sniffer.h"
#include "net80211/pcap.h"
#include "net80211/radiotap.h"
#include "rf/channels.h"
#include "rf/propagation.h"
#include "sim/mobile.h"
#include "util/rng.h"

namespace mm::perfbench {

namespace {

using mm::geo::Vec2;
using mm::net80211::MacAddress;
namespace rf = mm::rf;
namespace sim = mm::sim;
namespace util = mm::util;

// Timings and radios of sim::MobileDevice / sim::AccessPoint.
constexpr double kChannelDwellS = 0.02;
constexpr double kScanDebounceS = 0.5;
constexpr double kResponseDelayS = 0.002;
constexpr double kAssociationDelayS = 0.005;
constexpr double kBeaconIntervalS = 0.1024;
constexpr double kDeviceHeightM = 1.5;
constexpr double kDeviceTxDbm = 15.0;
constexpr double kApHeightM = 8.0;
constexpr double kApEirpDbm = 20.0 + 2.0;  // tx power + antenna gain
constexpr int kBgChannels = 11;
/// Share of devices running the config's defense profile.
constexpr double kAdoption = 0.5;

rf::Channel bg(int number) { return {rf::Band::kBg24GHz, number}; }

/// The sniffer sites: one capture::Sniffer each, consulted only for its
/// decode probability; the nearest site decides whether a frame is caught.
class CaptureModel {
 public:
  explicit CaptureModel(const TraceConfig& config) : config_(config) {
    for (const Vec2& site : config.sites) {
      mm::capture::SnifferConfig sc;
      sc.position = site;
      sc.antenna_height_m = kSiteHeightM;
      sniffers_.push_back(std::make_unique<mm::capture::Sniffer>(sc, &unused_store_));
    }
  }

  [[nodiscard]] std::size_t nearest_site(Vec2 p) const {
    std::size_t best = 0;
    double best_d = std::numeric_limits<double>::infinity();
    for (std::size_t s = 0; s < config_.sites.size(); ++s) {
      const double d = config_.sites[s].distance_to(p);
      if (d < best_d) {
        best_d = d;
        best = s;
      }
    }
    return best;
  }

  [[nodiscard]] double rssi_at(std::size_t site, Vec2 tx, double tx_height_m,
                               double eirp_dbm, int channel) const {
    return eirp_dbm - model_.path_loss_db(tx, tx_height_m, config_.sites[site], kSiteHeightM,
                                          rf::channel_center_mhz(bg(channel)));
  }

  /// Per-card decode probabilities at one receive level.
  void card_probabilities(std::size_t site, double rssi_dbm, int channel,
                          std::vector<double>& out) const {
    const mm::capture::Sniffer& sniffer = *sniffers_[site];
    out.resize(sniffer.card_count());
    for (std::size_t card = 0; card < out.size(); ++card) {
      out[card] = sniffer.decode_probability(rssi_dbm, bg(channel),
                                             sniffer.card_channel(card, 0.0));
    }
  }

  /// The sniffer's card loop: each card gets one Bernoulli draw until one
  /// decodes the frame.
  static bool decoded(const std::vector<double>& card_p, util::Rng& rng) {
    for (const double p : card_p) {
      if (p > 0.0 && rng.bernoulli(p)) return true;
    }
    return false;
  }

  /// Decides one transmission; the capturing site, or nullopt.
  std::optional<std::size_t> capture(Vec2 tx, double tx_height_m, double eirp_dbm,
                                     int channel, util::Rng& rng, float& rssi_out) {
    const std::size_t site = nearest_site(tx);
    const double rssi = rssi_at(site, tx, tx_height_m, eirp_dbm, channel);
    card_probabilities(site, rssi, channel, scratch_);
    if (!decoded(scratch_, rng)) return std::nullopt;
    rssi_out = static_cast<float>(rssi);
    return site;
  }

 private:
  const TraceConfig& config_;
  rf::FreeSpaceModel model_;
  mm::capture::ObservationStore unused_store_;
  std::vector<std::unique_ptr<mm::capture::Sniffer>> sniffers_;
  std::vector<double> scratch_;
};

/// A device-transmitted frame before sequence numbers are assigned.
struct DeviceTx {
  double time_s = 0.0;
  FrameKind kind = FrameKind::kProbeRequest;
  std::int8_t ssid = -1;
  std::uint8_t channel = 1;
  std::uint32_t ap = 0;
  double eirp_dbm = kDeviceTxDbm;
};

/// An AP's reply to one device frame.
struct ApTx {
  double time_s = 0.0;
  FrameKind kind = FrameKind::kProbeResponse;
  std::uint32_t ap = 0;
};

class Generator {
 public:
  Generator(const TraceConfig& config, Trace& trace)
      : config_(config), trace_(trace), capture_(config), ap_seq_(trace.aps.size(), 0) {
    by_channel_.resize(kBgChannels + 1);
    for (std::uint32_t a = 0; a < trace.aps.size(); ++a) {
      by_channel_[static_cast<std::size_t>(trace.aps[a].channel)].push_back(a);
    }
    beacon_phase_.resize(trace.aps.size(), 0.0);
    if (config.beacons) {
      for (std::size_t a = 0; a < trace.aps.size(); ++a) {
        util::Rng rng(util::hash_combine(config.seed, 0xB0000u + a));
        beacon_phase_[a] = rng.uniform(0.0, kBeaconIntervalS);
      }
    }
  }

  void device(std::uint32_t d) {
    const sim::MobilityModel& mob = *trace_.mobility[d];
    sim::ScanProfile profile;
    profile.scan_interval_s = kScanIntervalS;
    profile.directed_ssids = device_ssids(d);
    profile.keepalive_interval_s = kKeepaliveIntervalS;
    if (trace_.adopters[d]) sim::apply_defense_profile(config_.defense, profile);
    trace_.directed_ssids[d] = profile.directed_ssids;

    util::Rng rng(util::hash_combine(config_.seed, 0xE0000u + d));
    util::Rng capture_rng(util::hash_combine(config_.seed, 0xC0000u + d));
    util::Rng names_rng(util::hash_combine(config_.label_seed, 0xF0000u + d));
    const double horizon = config_.duration_s;

    std::vector<double> sweeps;
    double last = -1.0;
    for (double t = rng.uniform(0.0, profile.scan_interval_s); t < horizon;
         t += rng.exponential(1.0 / profile.scan_interval_s)) {
      if (last >= 0.0 && t - last < kScanDebounceS) continue;
      sweeps.push_back(t);
      last = t;
    }

    std::vector<double> rotations;
    std::vector<MacAddress>& names = trace_.pseudonyms[d];
    names.assign(1, device_mac(config_, d));
    if (profile.mac_rotation_interval_s > 0.0) {
      for (double t = rng.uniform(0.0, profile.mac_rotation_interval_s); t < horizon;
           t += profile.mac_rotation_interval_s) {
        rotations.push_back(t);
        names.push_back(MacAddress::random_local(names_rng));
      }
    }
    const auto pseudonym_at = [&](double t) -> const MacAddress& {
      const auto n = std::upper_bound(rotations.begin(), rotations.end(), t) -
                     rotations.begin();
      return names[static_cast<std::size_t>(n)];
    };
    const auto jittered = [&]() {
      const double j = profile.tx_power_jitter_db;
      return j > 0.0 ? kDeviceTxDbm + rng.uniform(-j, j) : kDeviceTxDbm;
    };

    const std::uint32_t home = static_cast<std::uint32_t>(nearest_ap(trace_.aps, mob.position(0.0)));
    double first_home_heard = config_.beacons ? beacon_phase_[home] : horizon;

    txs_.clear();
    replies_.clear();
    for (const double ts : sweeps) {
      for (int c = 1; c <= kBgChannels; ++c) {
        const double tc = ts + kChannelDwellS * (c - 1);
        if (tc >= horizon) break;
        const double eirp = jittered();
        txs_.push_back({tc, FrameKind::kProbeRequest, -1, static_cast<std::uint8_t>(c), 0, eirp});
        for (std::size_t k = 0; k < profile.directed_ssids.size(); ++k) {
          txs_.push_back({tc, FrameKind::kProbeRequest, static_cast<std::int8_t>(k),
                          static_cast<std::uint8_t>(c), 0, eirp});
        }
        // Every AP on this channel whose service disc holds the device
        // answers the wildcard probe (directed probes name networks no AP
        // here serves).
        const Vec2 p = mob.position(tc);
        for (const std::uint32_t a : by_channel_[static_cast<std::size_t>(c)]) {
          const sim::ApTruth& ap = trace_.aps[a];
          if (p.distance_to(ap.position) > ap.radius_m) continue;
          const double tr = tc + kResponseDelayS;
          if (tr >= horizon) continue;
          replies_.push_back({tr, FrameKind::kProbeResponse, a});
          if (a == home) first_home_heard = std::min(first_home_heard, tr);
        }
      }
    }

    // Association with the home network on the first frame heard from it,
    // then keep-alives for the rest of the capture.
    const sim::ApTruth& home_ap = trace_.aps[home];
    const double tq = first_home_heard + kAssociationDelayS;
    if (tq < horizon) {
      const auto ch = static_cast<std::uint8_t>(home_ap.channel);
      txs_.push_back({tq, FrameKind::kAssociationRequest, -1, ch, home, jittered()});
      const double ta = tq + kResponseDelayS;
      if (mob.position(tq).distance_to(home_ap.position) <= home_ap.radius_m && ta < horizon) {
        replies_.push_back({ta, FrameKind::kAssociationResponse, home});
        for (double tk = ta + profile.keepalive_interval_s; tk < horizon;
             tk += profile.keepalive_interval_s) {
          txs_.push_back({tk, FrameKind::kDataNull, -1, ch, home, jittered()});
        }
      }
    }

    // The 12-bit counter advances per device-transmitted frame in time order
    // and survives rotation.
    std::stable_sort(txs_.begin(), txs_.end(),
                     [](const DeviceTx& a, const DeviceTx& b) { return a.time_s < b.time_s; });
    auto seq = static_cast<std::uint16_t>(mm::net80211::MacHasher{}(names[0]) & 0x0FFF);
    for (const DeviceTx& tx : txs_) {
      const std::uint16_t s = seq;
      seq = static_cast<std::uint16_t>((seq + 1) & 0x0FFF);
      TraceFrame f;
      const auto site = capture_.capture(mob.position(tx.time_s), kDeviceHeightM, tx.eirp_dbm,
                                         tx.channel, capture_rng, f.rssi_dbm);
      if (!site) continue;
      f.time_s = tx.time_s;
      f.device = d;
      f.ap = tx.ap;
      f.mac = pseudonym_at(tx.time_s);
      f.seq = s;
      f.kind = tx.kind;
      f.ssid = tx.ssid;
      f.channel = tx.channel;
      f.site = static_cast<std::uint8_t>(*site);
      trace_.frames.push_back(f);
    }
    for (const ApTx& reply : replies_) {
      const sim::ApTruth& ap = trace_.aps[reply.ap];
      const std::uint16_t s = ap_seq_[reply.ap];
      ap_seq_[reply.ap] = static_cast<std::uint16_t>((s + 1) & 0x0FFF);
      TraceFrame f;
      const auto site = capture_.capture(ap.position, kApHeightM, kApEirpDbm, ap.channel,
                                         capture_rng, f.rssi_dbm);
      if (!site) continue;
      f.time_s = reply.time_s;
      f.device = d;
      f.ap = reply.ap;
      // Replies are addressed to the pseudonym that sent the request.
      f.mac = pseudonym_at(reply.time_s - kResponseDelayS);
      f.seq = s;
      f.kind = reply.kind;
      f.channel = static_cast<std::uint8_t>(ap.channel);
      f.site = static_cast<std::uint8_t>(*site);
      trace_.frames.push_back(f);
    }
  }

  void beacons() {
    std::vector<double> card_p;
    for (std::uint32_t a = 0; a < trace_.aps.size(); ++a) {
      const sim::ApTruth& ap = trace_.aps[a];
      const std::size_t site = capture_.nearest_site(ap.position);
      const double rssi =
          capture_.rssi_at(site, ap.position, kApHeightM, kApEirpDbm, ap.channel);
      capture_.card_probabilities(site, rssi, ap.channel, card_p);
      util::Rng rng(util::hash_combine(config_.seed, 0xBC000u + a));
      for (double t = beacon_phase_[a]; t < config_.duration_s; t += kBeaconIntervalS) {
        const std::uint16_t s = ap_seq_[a];
        ap_seq_[a] = static_cast<std::uint16_t>((s + 1) & 0x0FFF);
        if (!CaptureModel::decoded(card_p, rng)) continue;
        TraceFrame f;
        f.time_s = t;
        f.rssi_dbm = static_cast<float>(rssi);
        f.ap = a;
        f.seq = s;
        f.kind = FrameKind::kBeacon;
        f.channel = static_cast<std::uint8_t>(ap.channel);
        f.site = static_cast<std::uint8_t>(site);
        trace_.frames.push_back(f);
      }
    }
  }

 private:
  const TraceConfig& config_;
  Trace& trace_;
  CaptureModel capture_;
  std::vector<std::vector<std::uint32_t>> by_channel_;
  std::vector<double> beacon_phase_;
  std::vector<std::uint16_t> ap_seq_;
  std::vector<DeviceTx> txs_;
  std::vector<ApTx> replies_;
};

}  // namespace

TraceConfig TraceConfig::campus(std::uint64_t seed) {
  TraceConfig c;
  c.seed = seed;
  c.label_seed = seed;
  c.defense.name = "rotate+throttle+anon";
  c.defense.mac_rotation_interval_s = 75.0;
  c.defense.scan_interval_scale = 1.5;
  c.defense.tx_power_jitter_db = 3.0;
  c.defense.directed_probe_suppression = 1.0;
  return c;
}

namespace {

/// 24-bit mask the label seed XORs into the NIC-specific half of a MAC (a
/// bijection, so distinct devices and APs keep distinct addresses).
std::uint32_t label_mask(std::uint64_t labels, std::uint64_t salt) {
  return static_cast<std::uint32_t>(util::hash_combine(labels, salt) & 0xFFFFFFu);
}

MacAddress relabel(const MacAddress& mac, std::uint32_t mask) {
  std::array<std::uint8_t, 6> b = mac.bytes();
  b[3] ^= static_cast<std::uint8_t>(mask >> 16);
  b[4] ^= static_cast<std::uint8_t>(mask >> 8);
  b[5] ^= static_cast<std::uint8_t>(mask);
  return MacAddress(b);
}

}  // namespace

MacAddress device_mac(const TraceConfig& config, std::size_t d) {
  const MacAddress base({0x00, 0x16, 0xAE, static_cast<std::uint8_t>(d >> 16),
                         static_cast<std::uint8_t>(d >> 8), static_cast<std::uint8_t>(d)});
  return relabel(base, label_mask(config.label_seed, 0xDE71CEu));
}

std::shared_ptr<const sim::MobilityModel> device_mobility(const TraceConfig& config,
                                                          std::size_t d) {
  const double h = config.half_extent_m;
  return std::make_shared<sim::RandomWaypoint>(
      Vec2{-h, -h}, Vec2{h, h}, /*speed_min_mps=*/0.8, /*speed_max_mps=*/1.8,
      config.duration_s + 60.0, util::hash_combine(config.seed, 0xD0000u + d));
}

std::vector<std::string> device_ssids(std::size_t d) {
  // The shared campus network first (crowd bait for the resolver's
  // popularity cutoff), then the device's own remembered network.
  return {"campus-net", "home-" + std::to_string(d)};
}

std::size_t nearest_ap(const std::vector<sim::ApTruth>& aps, Vec2 p) {
  std::size_t best = 0;
  double best_d = std::numeric_limits<double>::infinity();
  for (std::size_t a = 0; a < aps.size(); ++a) {
    const double d = aps[a].position.distance_to(p);
    if (d < best_d) {
      best_d = d;
      best = a;
    }
  }
  return best;
}

Trace generate_trace(const TraceConfig& config) {
  Trace trace;
  trace.config = config;
  sim::CampusConfig campus;
  campus.seed = config.seed;
  campus.num_aps = config.num_aps;
  campus.half_extent_m = config.half_extent_m;
  trace.aps = sim::generate_campus_aps(campus);
  const std::uint32_t bssid_mask = label_mask(config.label_seed, 0xB551Du);
  for (sim::ApTruth& ap : trace.aps) ap.bssid = relabel(ap.bssid, bssid_mask);
  trace.adopters = sim::assign_defense_adoption(config.devices, kAdoption, config.seed);
  trace.mobility.reserve(config.devices);
  for (std::size_t d = 0; d < config.devices; ++d) {
    trace.mobility.push_back(device_mobility(config, d));
  }
  trace.directed_ssids.resize(config.devices);
  trace.pseudonyms.resize(config.devices);

  Generator gen(config, trace);
  for (std::uint32_t d = 0; d < config.devices; ++d) gen.device(d);
  if (config.beacons) gen.beacons();

  std::stable_sort(trace.frames.begin(), trace.frames.end(),
                   [](const TraceFrame& a, const TraceFrame& b) { return a.time_s < b.time_s; });
  for (std::uint32_t d = 0; d < config.devices; ++d) {
    for (const MacAddress& mac : trace.pseudonyms[d]) trace.owner.emplace(mac, d);
  }
  return trace;
}

mm::net80211::ManagementFrame build_frame(const Trace& trace, const TraceFrame& f) {
  namespace n = mm::net80211;
  const auto timestamp_us = static_cast<std::uint64_t>(f.time_s * 1e6);
  switch (f.kind) {
    case FrameKind::kProbeRequest:
      if (f.ssid < 0) return n::make_probe_request(f.mac, std::nullopt, f.seq);
      return n::make_probe_request(
          f.mac, trace.directed_ssids[f.device][static_cast<std::size_t>(f.ssid)], f.seq);
    case FrameKind::kProbeResponse: {
      const sim::ApTruth& ap = trace.aps[f.ap];
      return n::make_probe_response(ap.bssid, f.mac, ap.ssid, ap.channel, timestamp_us,
                                    f.seq);
    }
    case FrameKind::kAssociationRequest: {
      const sim::ApTruth& ap = trace.aps[f.ap];
      return n::make_association_request(f.mac, ap.bssid, ap.ssid, f.seq);
    }
    case FrameKind::kAssociationResponse:
      return n::make_association_response(trace.aps[f.ap].bssid, f.mac, /*status=*/0,
                                          /*association_id=*/1, f.seq);
    case FrameKind::kDataNull:
      return n::make_data_null(f.mac, trace.aps[f.ap].bssid, f.seq);
    case FrameKind::kBeacon: {
      const sim::ApTruth& ap = trace.aps[f.ap];
      return n::make_beacon(ap.bssid, ap.ssid, ap.channel, timestamp_us, f.seq);
    }
  }
  return {};
}

std::uint64_t write_pcap(const Trace& trace, const std::filesystem::path& path) {
  namespace n = mm::net80211;
  n::PcapWriter writer(path, n::kLinktypeRadiotap);
  const double antenna_gain = mm::capture::SnifferConfig{}.chain.antenna().gain_dbi;
  std::uint64_t bytes = 24;
  std::vector<std::uint8_t> packet;
  // Beacons are most of a city capture and differ per AP only in timestamp
  // and sequence: each AP's frame is built once and re-serialized per beacon.
  std::vector<std::optional<n::ManagementFrame>> beacons(trace.aps.size());
  for (const TraceFrame& f : trace.frames) {
    n::Radiotap rt;
    rt.channel_freq_mhz = static_cast<std::uint16_t>(rf::channel_center_mhz(bg(f.channel)));
    rt.antenna_signal_dbm =
        static_cast<std::int8_t>(std::clamp(f.rssi_dbm + antenna_gain, -127.0, 0.0));
    rt.antenna_noise_dbm = -100;
    packet = rt.serialize();
    std::vector<std::uint8_t> body;
    if (f.kind == FrameKind::kBeacon) {
      std::optional<n::ManagementFrame>& beacon = beacons[f.ap];
      if (!beacon) beacon = build_frame(trace, f);
      beacon->timestamp_us = static_cast<std::uint64_t>(f.time_s * 1e6);
      beacon->sequence = f.seq;
      body = beacon->serialize();
    } else {
      body = build_frame(trace, f).serialize();
    }
    packet.insert(packet.end(), body.begin(), body.end());
    writer.write(static_cast<std::uint64_t>(std::max(0.0, f.time_s) * 1e6), packet);
    bytes += 16 + packet.size();
  }
  return bytes;
}

std::vector<std::vector<mm::capture::FrameEvent>> site_events(const Trace& trace) {
  std::vector<std::vector<mm::capture::FrameEvent>> out(trace.config.sites.size());
  std::vector<std::size_t> per_site(out.size(), 0);
  for (const TraceFrame& f : trace.frames) ++per_site[f.site];
  for (std::size_t s = 0; s < out.size(); ++s) out[s].reserve(per_site[s]);
  // A beacon's event depends on its AP only, apart from the capture time.
  std::vector<std::optional<mm::capture::FrameEvent>> beacons(trace.aps.size());
  for (const TraceFrame& f : trace.frames) {
    if (f.kind == FrameKind::kBeacon) {
      std::optional<mm::capture::FrameEvent>& beacon = beacons[f.ap];
      if (!beacon) {
        beacon = mm::capture::classify_frame(build_frame(trace, f), f.time_s, f.rssi_dbm).event;
      }
      beacon->time_s = f.time_s;
      out[f.site].push_back(*beacon);
      continue;
    }
    const mm::capture::ClassifiedFrame c =
        mm::capture::classify_frame(build_frame(trace, f), f.time_s, f.rssi_dbm);
    if (c.has_event) out[f.site].push_back(c.event);
  }
  return out;
}

}  // namespace mm::perfbench
