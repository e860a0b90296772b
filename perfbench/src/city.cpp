#include "city.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <map>

namespace mm::perfbench {

TraceConfig city_config(std::uint64_t seed) {
  TraceConfig c = TraceConfig::campus(kCityLayoutSeed);
  c.label_seed = seed;
  c.devices = 1000;
  c.duration_s = 600.0;
  c.num_aps = 300;
  c.half_extent_m = 520.0;
  c.defense.mac_rotation_interval_s = 30.0;
  c.beacons = true;
  c.sites = {{-260.0, -150.0}, {260.0, -150.0}, {0.0, 300.0}};
  return c;
}

marauder::ResolverOptions city_resolver() {
  marauder::ResolverOptions r;
  r.signals = marauder::ResolverSignals::all();
  r.seq_max_gap_s = 40.0;
  r.seq_max_delta = 64;
  r.gamma_max_gap_s = 40.0;
  r.gamma_window_s = 60.0;
  r.gamma_min_jaccard = 0.4;
  r.gamma_min_common = 3;
  return r;
}

marauder::ApDatabase city_database(const Trace& trace) {
  return marauder::ApDatabase::from_truth(trace.aps, /*include_radii=*/true);
}

std::vector<std::size_t> attribute_identities(const Trace& trace,
                                              const marauder::IdentityMap& identities) {
  const std::size_t none = trace.config.devices;
  std::vector<std::size_t> out(identities.size(), none);
  for (const marauder::ResolvedIdentity& identity : identities.identities) {
    std::map<std::size_t, std::size_t> votes;
    for (const net80211::MacAddress& mac : identity.macs) {
      const auto own = trace.owner.find(mac);
      if (own != trace.owner.end()) ++votes[own->second];
    }
    std::size_t best = 0;
    for (const auto& [device, count] : votes) {
      if (count > best) {
        best = count;
        out[identity.id] = device;
      }
    }
  }
  return out;
}

namespace {

struct Span {
  double first = 0.0;
  double last = 0.0;
  bool seen = false;

  void widen(double a, double b) {
    if (!seen) {
      *this = {a, b, true};
    } else {
      first = std::min(first, a);
      last = std::max(last, b);
    }
  }
};

const capture::DeviceRecord* find_record(
    const std::vector<const capture::ObservationStore*>& stores,
    const net80211::MacAddress& mac) {
  for (const capture::ObservationStore* store : stores) {
    if (const capture::DeviceRecord* rec = store->device(mac)) return rec;
  }
  return nullptr;
}

}  // namespace

TrackingScore score_tracking(const Trace& trace, const marauder::IdentityMap& identities,
                             const std::vector<const capture::ObservationStore*>& stores) {
  const std::size_t n = trace.config.devices;
  std::vector<Span> observed(n);
  std::vector<Span> best(n);
  for (const marauder::ResolvedIdentity& identity : identities.identities) {
    std::map<std::size_t, Span> own_spans;
    for (const net80211::MacAddress& mac : identity.macs) {
      const auto own = trace.owner.find(mac);
      const capture::DeviceRecord* rec = find_record(stores, mac);
      if (own == trace.owner.end() || rec == nullptr) continue;
      observed[own->second].widen(rec->first_seen, rec->last_seen);
      own_spans[own->second].widen(rec->first_seen, rec->last_seen);
    }
    for (const auto& [device, span] : own_spans) {
      Span& b = best[device];
      if (!b.seen || span.last - span.first > b.last - b.first) b = span;
    }
  }
  TrackingScore score;
  for (std::size_t d = 0; d < n; ++d) {
    if (!observed[d].seen) continue;
    ++score.devices_observed;
    const double span = observed[d].last - observed[d].first;
    if (best[d].last - best[d].first + 1e-9 >= 0.7 * span) ++score.devices_tracked;
  }
  return score;
}

void Digest::add(double value) { add(std::bit_cast<std::uint64_t>(value)); }

void Digest::add_bytes(std::span<const std::uint8_t> bytes) {
  std::size_t i = 0;
  for (; i + 8 <= bytes.size(); i += 8) {
    std::uint64_t word = 0;
    std::memcpy(&word, bytes.data() + i, 8);
    add(word);
  }
  std::uint64_t tail = 0;
  if (i < bytes.size()) std::memcpy(&tail, bytes.data() + i, bytes.size() - i);
  add(tail ^ (static_cast<std::uint64_t>(bytes.size()) << 56));
}

std::uint64_t digest_identities(const marauder::IdentityMap& identities) {
  Digest d;
  for (const marauder::ResolvedIdentity& identity : identities.identities) {
    d.add(static_cast<std::uint64_t>(identity.id));
    for (const net80211::MacAddress& mac : identity.macs) d.add(mac.to_u64());
    d.add(identity.first_seen);
    d.add(identity.last_seen);
  }
  return d.value();
}

std::uint64_t digest_trace(const Trace& trace) {
  Digest d;
  for (const TraceFrame& f : trace.frames) {
    d.add(f.time_s);
    d.add(static_cast<double>(f.rssi_dbm));
    d.add((static_cast<std::uint64_t>(f.device) << 32) | f.ap);
    d.add(f.mac.to_u64() ^ (static_cast<std::uint64_t>(f.seq) << 48));
    d.add((static_cast<std::uint64_t>(f.kind) << 24) |
          (static_cast<std::uint64_t>(static_cast<std::uint8_t>(f.ssid)) << 16) |
          (static_cast<std::uint64_t>(f.channel) << 8) | f.site);
  }
  return d.value();
}

}  // namespace mm::perfbench
