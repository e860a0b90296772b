#include "marauder/identity.h"

#include <algorithm>
#include <cmath>
#include <compare>
#include <cstddef>
#include <map>
#include <numeric>
#include <span>
#include <unordered_map>
#include <utility>

namespace mm::marauder {

namespace {

/// Plain union-find over device indices. unite(a, b) grafts a's root under
/// b's root — the exact orientation the legacy linker used, which (together
/// with processing link pairs in ascending (i, j) order over MAC-sorted
/// devices) reproduces its forest, its root values, and therefore its
/// std::map-ordered group output bit for bit.
class DisjointSets {
 public:
  explicit DisjointSets(std::size_t n) : parent_(n) {
    std::iota(parent_.begin(), parent_.end(), 0);
  }
  std::size_t find(std::size_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }
  void unite(std::size_t a, std::size_t b) { parent_[find(a)] = find(b); }

 private:
  std::vector<std::size_t> parent_;
};

/// One piece of linking evidence between two devices (indices into the
/// MAC-sorted working array, a < b).
struct Edge {
  std::uint32_t a = 0;
  std::uint32_t b = 0;

  friend auto operator<=>(const Edge&, const Edge&) = default;
};

Edge make_edge(std::size_t i, std::size_t j) noexcept {
  return {static_cast<std::uint32_t>(std::min(i, j)),
          static_cast<std::uint32_t>(std::max(i, j))};
}

/// Forward distance of the 12-bit sequence counter from `last` to `first`
/// (how many frames the radio transmitted in between, mod 4096).
std::uint16_t seq_forward_delta(std::uint16_t last, std::uint16_t first) noexcept {
  return static_cast<std::uint16_t>((first - last) & 0x0FFF);
}

/// Death-window and birth-window AP sets of every device, as dense AP ids
/// in one flat arena: device i's birth window (the APs whose contact began
/// within `window_s` of its first sighting) is ids[at[2i], at[2i+1]), its
/// death window (contact lasting into the final `window_s`) is
/// ids[at[2i+1], at[2i+2]).
struct GammaWindows {
  std::vector<std::uint32_t> ids;
  std::vector<std::uint32_t> at;
  std::uint32_t aps = 0;  ///< distinct APs in any window (ids are < aps)

  GammaWindows(const std::vector<const DeviceSummary*>& devices, double window_s) {
    std::unordered_map<net80211::MacAddress, std::uint32_t, net80211::MacHasher> id_of;
    std::vector<std::uint32_t> tail;
    at.reserve(2 * devices.size() + 1);
    at.push_back(0);
    for (const DeviceSummary* dev : devices) {
      const sim::SimTime head_cut = dev->first_seen + window_s;
      const sim::SimTime tail_cut = dev->last_seen - window_s;
      tail.clear();
      for (const ContactSpan& c : dev->contacts) {
        const bool in_head = c.first_seen <= head_cut;
        const bool in_tail = c.last_seen >= tail_cut;
        if (!in_head && !in_tail) continue;
        const std::uint32_t id = id_of.try_emplace(c.ap, aps).first->second;
        if (id == aps) ++aps;
        if (in_head) ids.push_back(id);
        if (in_tail) tail.push_back(id);
      }
      at.push_back(static_cast<std::uint32_t>(ids.size()));
      ids.insert(ids.end(), tail.begin(), tail.end());
      at.push_back(static_cast<std::uint32_t>(ids.size()));
    }
  }

  [[nodiscard]] std::span<const std::uint32_t> head(std::size_t i) const noexcept {
    return {ids.data() + at[2 * i], ids.data() + at[2 * i + 1]};
  }
  [[nodiscard]] std::span<const std::uint32_t> tail(std::size_t i) const noexcept {
    return {ids.data() + at[2 * i + 1], ids.data() + at[2 * i + 2]};
  }
};

/// Signal (c): Gamma similarity + temporal adjacency. A device vanishes and
/// a fresh MAC appears within gamma_max_gap_s hearing a near-identical AP
/// set, compared over death/birth windows so long-lived devices that
/// wandered far apart still match on where they actually rotated.
///
/// In a dense population every death window overlaps several births that
/// hear roughly the same campus APs, and accepting them all chains
/// unrelated devices together. So each vanished pseudonym nominates its
/// highest-Jaccard successor, each newborn its highest-Jaccard predecessor,
/// and only mutual nominations become edges. Ties keep the first candidate
/// in scan order: vanished devices ascending by MAC, and for each, its
/// newborns ascending by birth rank.
///
/// Candidates come from an AP -> newborn index, not a pairwise rescan: a
/// vanished device walks the postings of its death-window APs, counting
/// APs in common per newborn born in its candidate range, then visits the
/// newborns sharing at least gamma_min_common in ascending birth rank.
void gamma_edges(const std::vector<const DeviceSummary*>& devices,
                 const ResolverOptions& options, std::vector<Edge>& edges) {
  const std::size_t n = devices.size();
  const std::size_t min_common = options.gamma_min_common;
  std::vector<std::uint32_t> by_first_seen(n);
  std::iota(by_first_seen.begin(), by_first_seen.end(), 0);
  std::sort(by_first_seen.begin(), by_first_seen.end(), [&](std::uint32_t a, std::uint32_t b) {
    if (devices[a]->first_seen != devices[b]->first_seen) {
      return devices[a]->first_seen < devices[b]->first_seen;
    }
    return a < b;
  });
  std::vector<sim::SimTime> keys(n);
  for (std::size_t k = 0; k < n; ++k) keys[k] = devices[by_first_seen[k]]->first_seen;

  const GammaWindows windows(devices, options.gamma_window_s);

  // CSR index: AP id -> birth ranks of the newborns whose birth window
  // heard it, ascending. A newborn hearing fewer than gamma_min_common APs
  // can never qualify and stays out.
  std::vector<std::uint32_t> posting_at(windows.aps + 1, 0);
  for (std::size_t k = 0; k < n; ++k) {
    const auto head = windows.head(by_first_seen[k]);
    if (head.size() < min_common) continue;
    for (const std::uint32_t ap : head) ++posting_at[ap + 1];
  }
  std::partial_sum(posting_at.begin(), posting_at.end(), posting_at.begin());
  std::vector<std::uint32_t> postings(posting_at.back());
  std::vector<std::uint32_t> cursor(posting_at.begin(), posting_at.end() - 1);
  for (std::size_t k = 0; k < n; ++k) {
    const auto head = windows.head(by_first_seen[k]);
    if (head.size() < min_common) continue;
    for (const std::uint32_t ap : head) postings[cursor[ap]++] = static_cast<std::uint32_t>(k);
  }

  constexpr std::size_t kUnmatched = static_cast<std::size_t>(-1);
  std::vector<std::size_t> best_successor(n, kUnmatched);
  std::vector<double> successor_jaccard(n, 0.0);
  std::vector<std::size_t> best_predecessor(n, kUnmatched);
  std::vector<double> predecessor_jaccard(n, 0.0);
  std::vector<std::uint32_t> common(n, 0);  // by birth rank, zeroed after each device
  for (std::size_t a = 0; a < n; ++a) {
    const DeviceSummary& da = *devices[a];
    // The candidate range starts at da.last_seen: a newborn born earlier
    // coexisted with the vanished pseudonym, and a rotation ends one MAC's
    // life before the next begins (the coexistence veto).
    const auto lo = static_cast<std::uint32_t>(
        std::lower_bound(keys.begin(), keys.end(), da.last_seen) - keys.begin());
    const auto hi = static_cast<std::uint32_t>(
        std::upper_bound(keys.begin(), keys.end(), da.last_seen + options.gamma_max_gap_s) -
        keys.begin());
    if (lo >= hi) continue;
    const auto tail = windows.tail(a);
    if (tail.size() < min_common) continue;
    for (const std::uint32_t ap : tail) {
      const auto end = postings.begin() + posting_at[ap + 1];
      for (auto it = std::lower_bound(postings.begin() + posting_at[ap], end, lo);
           it != end && *it < hi; ++it) {
        ++common[*it];
      }
    }
    for (std::uint32_t k = lo; k < hi; ++k) {
      const std::size_t shared = std::exchange(common[k], 0);
      if (shared < min_common) continue;
      const std::size_t b = by_first_seen[k];
      if (b == a) continue;  // a single-instant device is its own newborn
      const std::size_t unioned = tail.size() + windows.head(b).size() - shared;
      const double jaccard =
          unioned == 0 ? 0.0 : static_cast<double>(shared) / static_cast<double>(unioned);
      if (jaccard + 1e-12 < options.gamma_min_jaccard) continue;
      if (best_successor[a] == kUnmatched || jaccard > successor_jaccard[a]) {
        best_successor[a] = b;
        successor_jaccard[a] = jaccard;
      }
      if (best_predecessor[b] == kUnmatched || jaccard > predecessor_jaccard[b]) {
        best_predecessor[b] = a;
        predecessor_jaccard[b] = jaccard;
      }
    }
  }
  for (std::size_t a = 0; a < n; ++a) {
    const std::size_t b = best_successor[a];
    if (b != kUnmatched && best_predecessor[b] == a) {
      edges.push_back(make_edge(a, b));
    }
  }
}

}  // namespace

DeviceSummary summarize_device(const capture::DeviceRecord& record) {
  DeviceSummary s;
  s.mac = record.mac;
  s.first_seen = record.first_seen;
  s.last_seen = record.last_seen;
  s.directed_ssids = record.directed_ssids;
  s.seq_frames = record.seq_frames;
  s.first_seq = record.first_seq;
  s.last_seq = record.last_seq;
  s.first_seq_time = record.first_seq_time;
  s.last_seq_time = record.last_seq_time;
  s.contacts.reserve(record.contacts.size());
  for (const auto& [ap, contact] : record.contacts) {
    s.contacts.push_back(ContactSpan{ap, contact.first_seen, contact.last_seen});
  }
  return s;
}

const ResolvedIdentity* IdentityMap::identity_of(
    const net80211::MacAddress& mac) const {
  const auto it = by_mac.find(mac);
  if (it == by_mac.end()) return nullptr;
  return &identities[it->second];
}

IdentityResolver::IdentityResolver(ResolverOptions options)
    : options_(options) {}

void IdentityResolver::upsert(DeviceSummary summary) {
  const auto it = index_.find(summary.mac);
  if (it != index_.end()) {
    summaries_[it->second] = std::move(summary);
    return;
  }
  index_.emplace(summary.mac, summaries_.size());
  summaries_.push_back(std::move(summary));
}

void IdentityResolver::ingest_store(const capture::ObservationStore& store) {
  for (const capture::DeviceRecord* record : store.records()) {
    upsert(summarize_device(*record));
  }
}

IdentityMap IdentityResolver::resolve() const {
  stats_ = ResolverStats{};
  stats_.devices = summaries_.size();

  // Working order: ascending MAC, independent of upsert order, so ingesting
  // a store's records in any order — or shard by shard — resolves to the
  // identical map.
  std::vector<std::size_t> order(summaries_.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return summaries_[a].mac < summaries_[b].mac;
  });
  std::vector<const DeviceSummary*> devices;
  devices.reserve(order.size());
  for (const std::size_t idx : order) devices.push_back(&summaries_[idx]);
  const std::size_t n = devices.size();

  // SSID fingerprints + popularity filtering (always computed: the filtered
  // fingerprint is part of the identity output even when the SSID signal is
  // not generating edges).
  std::vector<std::set<std::string>> fingerprints(n);
  std::map<std::string, std::size_t> ssid_popularity;
  for (std::size_t i = 0; i < n; ++i) {
    for (const std::string& ssid : devices[i]->directed_ssids) {
      fingerprints[i].insert(ssid);
      ++ssid_popularity[ssid];
    }
  }
  // An SSID probed by a crowd identifies the crowd, not a user. The cutoff
  // is the larger of the absolute floor (legacy behaviour, right for small
  // captures) and a fixed fraction of the population (what actually scales:
  // at 10k devices a campus-wide "eduroam" trips the fraction long before
  // rare home SSIDs do).
  std::size_t popularity_cutoff = options_.max_ssid_popularity;
  if (options_.max_ssid_popularity_fraction > 0.0) {
    const auto scaled = static_cast<std::size_t>(
        std::ceil(options_.max_ssid_popularity_fraction * static_cast<double>(n)));
    popularity_cutoff = std::max(popularity_cutoff, scaled);
  }
  for (std::size_t i = 0; i < n; ++i) {
    auto& fp = fingerprints[i];
    for (auto it = fp.begin(); it != fp.end();) {
      if (ssid_popularity[*it] > popularity_cutoff) {
        it = fp.erase(it);
      } else {
        ++it;
      }
    }
  }

  std::vector<Edge> edges;

  // --- (a) SSID fingerprint overlap (the legacy linker's pairwise scan).
  if (options_.signals.ssid_fingerprint && n > 1) {
    for (std::size_t i = 0; i < n; ++i) {
      if (fingerprints[i].empty()) continue;
      for (std::size_t j = i + 1; j < n; ++j) {
        std::size_t overlap = 0;
        for (const std::string& ssid : fingerprints[j]) {
          overlap += fingerprints[i].count(ssid);
        }
        if (overlap >= options_.min_overlap) edges.push_back(make_edge(i, j));
      }
    }
    stats_.ssid_edges = edges.size();
  }

  // --- (b) sequence continuity across rotation: the vanished device's
  // 12-bit counter resumes (a short forward hop, mod 4096) on a fresh MAC
  // whose seq trace starts within seq_max_gap_s. Candidate pairs come from a
  // first-seq-time-sorted index, so the scan is near-linear.
  if (options_.signals.sequence_continuity && n > 1) {
    std::vector<std::size_t> by_first_seq_time;
    for (std::size_t i = 0; i < n; ++i) {
      if (devices[i]->has_seq()) by_first_seq_time.push_back(i);
    }
    std::sort(by_first_seq_time.begin(), by_first_seq_time.end(),
              [&](std::size_t a, std::size_t b) {
                if (devices[a]->first_seq_time != devices[b]->first_seq_time) {
                  return devices[a]->first_seq_time < devices[b]->first_seq_time;
                }
                return a < b;
              });
    std::vector<sim::SimTime> keys;
    keys.reserve(by_first_seq_time.size());
    for (const std::size_t i : by_first_seq_time) keys.push_back(devices[i]->first_seq_time);

    // A seam is claimed only when the match is *mutual best*: b is the
    // smallest forward counter hop among a's candidate successors AND a is
    // the smallest hop among b's candidate predecessors. A dying pseudonym
    // thus links to at most one newborn and vice versa — without this, a
    // crowd of devices rotating on similar schedules chains into one giant
    // false identity the moment two unrelated counters drift within
    // seq_max_delta of each other. Ties keep the first candidate in
    // deterministic scan order (a ascending by MAC, b ascending by
    // first_seq_time), so resolution stays order-independent.
    const std::size_t before = edges.size();
    constexpr std::size_t kUnmatched = static_cast<std::size_t>(-1);
    std::vector<std::size_t> best_successor(n, kUnmatched);
    std::vector<std::uint16_t> successor_delta(n, 0);
    std::vector<std::size_t> best_predecessor(n, kUnmatched);
    std::vector<std::uint16_t> predecessor_delta(n, 0);
    for (std::size_t a = 0; a < n; ++a) {
      const DeviceSummary& da = *devices[a];
      if (!da.has_seq()) continue;
      const auto lo = std::lower_bound(keys.begin(), keys.end(), da.last_seq_time);
      const auto hi = std::upper_bound(keys.begin(), keys.end(),
                                       da.last_seq_time + options_.seq_max_gap_s);
      for (auto it = lo; it != hi; ++it) {
        const std::size_t b = by_first_seq_time[static_cast<std::size_t>(it - keys.begin())];
        if (b == a) continue;
        const DeviceSummary& db = *devices[b];
        // The two pseudonyms must not coexist: a rotation ends one MAC's
        // life before the next begins.
        if (db.first_seen < da.last_seen) continue;
        const std::uint16_t delta = seq_forward_delta(da.last_seq, db.first_seq);
        if (delta == 0 || delta > options_.seq_max_delta) continue;
        if (best_successor[a] == kUnmatched || delta < successor_delta[a]) {
          best_successor[a] = b;
          successor_delta[a] = delta;
        }
        if (best_predecessor[b] == kUnmatched || delta < predecessor_delta[b]) {
          best_predecessor[b] = a;
          predecessor_delta[b] = delta;
        }
      }
    }
    for (std::size_t a = 0; a < n; ++a) {
      const std::size_t b = best_successor[a];
      if (b != kUnmatched && best_predecessor[b] == a) {
        edges.push_back(make_edge(a, b));
      }
    }
    stats_.seq_edges = edges.size() - before;
  }

  // --- (c) Gamma similarity + temporal adjacency (gamma_edges above).
  if (options_.signals.gamma_temporal && n > 1) {
    const std::size_t before = edges.size();
    gamma_edges(devices, options_, edges);
    stats_.gamma_edges = edges.size() - before;
  }

  // --- every pair with any edge links: union over the distinct pairs in
  // ascending (i, j) order (the legacy unite sequence).
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  DisjointSets sets(n);
  for (const Edge& edge : edges) sets.unite(edge.a, edge.b);
  stats_.linked_pairs = edges.size();

  // --- assembly, exactly as the legacy linker: members in first-seen order,
  // groups in ascending union-find root order.
  std::vector<std::size_t> member_order(n);
  std::iota(member_order.begin(), member_order.end(), 0);
  std::sort(member_order.begin(), member_order.end(), [&](std::size_t a, std::size_t b) {
    return devices[a]->first_seen < devices[b]->first_seen;
  });
  std::map<std::size_t, ResolvedIdentity> groups;
  for (const std::size_t i : member_order) {
    ResolvedIdentity& identity = groups[sets.find(i)];
    if (identity.macs.empty()) {
      identity.first_seen = devices[i]->first_seen;
      identity.last_seen = devices[i]->last_seen;
    } else {
      identity.first_seen = std::min(identity.first_seen, devices[i]->first_seen);
      identity.last_seen = std::max(identity.last_seen, devices[i]->last_seen);
    }
    identity.macs.push_back(devices[i]->mac);
    identity.fingerprint.insert(fingerprints[i].begin(), fingerprints[i].end());
  }

  IdentityMap map;
  map.identities.reserve(groups.size());
  for (auto& [root, identity] : groups) {
    identity.id = static_cast<std::uint32_t>(map.identities.size());
    for (const net80211::MacAddress& mac : identity.macs) {
      map.by_mac.emplace(mac, identity.id);
    }
    map.identities.push_back(std::move(identity));
  }
  stats_.identities = map.identities.size();
  return map;
}

IdentityMap resolve_identities(const capture::ObservationStore& store,
                               const ResolverOptions& options) {
  IdentityResolver resolver(options);
  resolver.ingest_store(store);
  return resolver.resolve();
}

}  // namespace mm::marauder
