// Chimera IdentityResolver: the two-level pseudonym -> identity model.
//
// Covers the refactor's acceptance contract: the null point (no signals =
// one singleton per MAC, the pre-Chimera behaviour), SSID-only linking with
// the default options, thread-count independence of resolution, the
// sequence/Gamma signals re-linking rotations the SSID fingerprint misses,
// and the adversarial cases — coincident fingerprints, rotation inside a
// silent gap, counter wraparound at 4096, ambiguous seams.
#include "marauder/identity.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <numeric>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "util/rng.h"

namespace mm::marauder {
namespace {

net80211::MacAddress mac(int i) {
  std::array<std::uint8_t, 6> bytes{0x02, 0x00, 0x00, 0x00,
                                    static_cast<std::uint8_t>(i >> 8),
                                    static_cast<std::uint8_t>(i & 0xFF)};
  return net80211::MacAddress(bytes);
}

void probe(capture::ObservationStore& store, int device, double t,
           std::initializer_list<const char*> ssids) {
  store.record_probe_request(mac(device), t, std::nullopt);
  for (const char* ssid : ssids) {
    store.record_probe_request(mac(device), t, std::string(ssid));
  }
}

/// One sequence-bearing frame: presence + counter sample at `t`.
void seq_frame(capture::ObservationStore& store, int device, double t,
               std::uint16_t seq) {
  store.record_probe_request(mac(device), t, std::nullopt);
  store.record_device_seq(mac(device), t, seq);
}

ResolverOptions seq_only() {
  ResolverOptions options;
  options.signals = {false, true, false};
  return options;
}

// --- null point -------------------------------------------------------

TEST(IdentityResolver, NoSignalsYieldsOneSingletonPerMac) {
  capture::ObservationStore store;
  probe(store, 0, 1.0, {"shared-net"});
  probe(store, 1, 2.0, {"shared-net"});
  seq_frame(store, 2, 3.0, 100);
  seq_frame(store, 3, 3.5, 101);

  ResolverOptions options;
  options.signals = ResolverSignals::none();
  const IdentityMap map = resolve_identities(store, options);
  EXPECT_EQ(map.size(), store.device_count());
  for (const ResolvedIdentity& identity : map.identities) {
    EXPECT_EQ(identity.macs.size(), 1u);
    EXPECT_FALSE(identity.pseudonymous());
  }
  for (const auto& m : store.devices()) {
    ASSERT_NE(map.identity_of(m), nullptr);
    EXPECT_EQ(map.identity_of(m)->macs[0], m);
  }
}

// --- SSID-only linking (the default signals) ----------------------------

TEST(Linker, EmptyStoreNoIdentities) {
  const capture::ObservationStore store;
  EXPECT_EQ(resolve_identities(store).size(), 0u);
}

TEST(Linker, SingletonWithoutFingerprint) {
  capture::ObservationStore store;
  probe(store, 0, 1.0, {});
  const IdentityMap identities = resolve_identities(store);
  ASSERT_EQ(identities.size(), 1u);
  EXPECT_EQ(identities.identities[0].macs.size(), 1u);
  EXPECT_FALSE(identities.identities[0].pseudonymous());
  EXPECT_TRUE(identities.identities[0].fingerprint.empty());
}

TEST(Linker, SharedSsidLinksTwoMacs) {
  capture::ObservationStore store;
  probe(store, 0, 1.0, {"home-wifi-2819"});
  probe(store, 1, 60.0, {"home-wifi-2819"});
  const IdentityMap identities = resolve_identities(store);
  ASSERT_EQ(identities.size(), 1u);
  EXPECT_TRUE(identities.identities[0].pseudonymous());
  ASSERT_EQ(identities.identities[0].macs.size(), 2u);
  // First-seen order: mac(0) before mac(1).
  EXPECT_EQ(identities.identities[0].macs[0], mac(0));
  EXPECT_EQ(identities.identities[0].macs[1], mac(1));
  EXPECT_EQ(identities.identities[0].fingerprint.count("home-wifi-2819"), 1u);
}

TEST(Linker, DistinctFingerprintsStaySeparate) {
  capture::ObservationStore store;
  probe(store, 0, 1.0, {"alices-net"});
  probe(store, 1, 2.0, {"bobs-net"});
  EXPECT_EQ(resolve_identities(store).size(), 2u);
}

TEST(Linker, TransitiveLinking) {
  capture::ObservationStore store;
  probe(store, 0, 1.0, {"net-a"});
  probe(store, 1, 2.0, {"net-a", "net-b"});
  probe(store, 2, 3.0, {"net-b"});
  const IdentityMap identities = resolve_identities(store);
  ASSERT_EQ(identities.size(), 1u);
  EXPECT_EQ(identities.identities[0].macs.size(), 3u);
  EXPECT_EQ(identities.identities[0].fingerprint.size(), 2u);

  // The same chain beside a loner with its own SSID, one with no SSID and
  // a crowd of six on one SSID (above the popularity cutoff of 3): every
  // identity, in order.
  probe(store, 3, 4.0, {"solo-net"});
  probe(store, 4, 5.0, {});
  for (int i = 10; i < 16; ++i) probe(store, i, 6.0, {"crowded-net"});
  const IdentityMap mixed = resolve_identities(store);
  ASSERT_EQ(mixed.size(), 9u);
  EXPECT_EQ(mixed.identities[0].macs, (std::vector<net80211::MacAddress>{mac(0), mac(1), mac(2)}));
  EXPECT_EQ(mixed.identities[0].fingerprint, (std::set<std::string>{"net-a", "net-b"}));
  EXPECT_EQ(mixed.identities[1].macs, (std::vector<net80211::MacAddress>{mac(3)}));
  EXPECT_EQ(mixed.identities[1].fingerprint, (std::set<std::string>{"solo-net"}));
  EXPECT_EQ(mixed.identities[2].macs, (std::vector<net80211::MacAddress>{mac(4)}));
  for (std::size_t i = 3; i < mixed.size(); ++i) {
    EXPECT_EQ(mixed.identities[i].macs,
              (std::vector<net80211::MacAddress>{mac(10 + static_cast<int>(i) - 3)}));
  }
  for (std::size_t i = 2; i < mixed.size(); ++i) {
    EXPECT_TRUE(mixed.identities[i].fingerprint.empty()) << "identity " << i;
  }
}

TEST(Linker, PopularSsidDoesNotLink) {
  capture::ObservationStore store;
  // Five unrelated devices probing for the same campus network.
  for (int i = 0; i < 5; ++i) probe(store, i, static_cast<double>(i), {"eduroam"});
  ResolverOptions options;
  options.max_ssid_popularity = 3;
  const IdentityMap identities = resolve_identities(store, options);
  EXPECT_EQ(identities.size(), 5u);  // nobody merged
}

TEST(Linker, MinOverlapTwoRequiresTwoSharedSsids) {
  capture::ObservationStore store;
  probe(store, 0, 1.0, {"net-a", "net-b"});
  probe(store, 1, 2.0, {"net-a"});              // only one shared
  probe(store, 2, 3.0, {"net-a", "net-b"});     // both shared
  ResolverOptions options;
  options.min_overlap = 2;
  const IdentityMap identities = resolve_identities(store, options);
  EXPECT_EQ(identities.size(), 2u);
  const auto linked =
      std::find_if(identities.identities.begin(), identities.identities.end(),
                   [](const ResolvedIdentity& id) { return id.macs.size() == 2; });
  ASSERT_NE(linked, identities.identities.end());
  EXPECT_EQ(linked->macs[0], mac(0));
  EXPECT_EQ(linked->macs[1], mac(2));
}

TEST(Linker, DevicesSeenOnlyViaContactsAreSingletons) {
  capture::ObservationStore store;
  store.record_contact(mac(10), mac(0), 1.0, -70.0);  // device 0 never probed
  const IdentityMap identities = resolve_identities(store);
  ASSERT_EQ(identities.size(), 1u);
  EXPECT_EQ(identities.identities[0].macs[0], mac(0));
}

TEST(Linker, EveryMacAppearsExactlyOnce) {
  capture::ObservationStore store;
  probe(store, 0, 1.0, {"x"});
  probe(store, 1, 2.0, {"x"});
  probe(store, 2, 3.0, {"y"});
  probe(store, 3, 4.0, {});
  const IdentityMap identities = resolve_identities(store);
  std::size_t total = 0;
  std::set<net80211::MacAddress> seen;
  for (const ResolvedIdentity& identity : identities.identities) {
    for (const auto& m : identity.macs) {
      ++total;
      seen.insert(m);
    }
  }
  EXPECT_EQ(total, 4u);
  EXPECT_EQ(seen.size(), 4u);
}

// --- thread-count independence ----------------------------------------

TEST(IdentityResolver, ResolutionIsBitIdenticalAcrossThreadCounts) {
  // A population large enough to split into several chunks: rotation chains
  // (shared rare SSIDs + continuing counters), a popular SSID, loners.
  capture::ObservationStore store;
  for (int d = 0; d < 40; ++d) {
    const double base = 10.0 * d;
    const std::string home = "home-" + std::to_string(d);
    probe(store, 3 * d, base, {home.c_str(), "campus-net"});
    seq_frame(store, 3 * d, base + 1.0, static_cast<std::uint16_t>((37 * d) & 0x0FFF));
    probe(store, 3 * d + 1, base + 5.0, {home.c_str()});
    seq_frame(store, 3 * d + 1, base + 5.5,
              static_cast<std::uint16_t>((37 * d + 3) & 0x0FFF));
    probe(store, 3 * d + 2, base + 9.0, {});
  }

  ResolverOptions options;
  options.signals = ResolverSignals::all();
  IdentityMap reference;
  bool have_reference = false;
  for (const std::size_t threads : {1u, 2u, 8u}) {
    options.threads = threads;
    const IdentityMap map = resolve_identities(store, options);
    if (!have_reference) {
      reference = map;
      have_reference = true;
      continue;
    }
    SCOPED_TRACE("threads " + std::to_string(threads));
    ASSERT_EQ(map.size(), reference.size());
    for (std::size_t i = 0; i < map.size(); ++i) {
      EXPECT_EQ(map.identities[i].id, reference.identities[i].id);
      EXPECT_EQ(map.identities[i].macs, reference.identities[i].macs);
      EXPECT_EQ(map.identities[i].fingerprint, reference.identities[i].fingerprint);
      EXPECT_EQ(map.identities[i].first_seen, reference.identities[i].first_seen);
      EXPECT_EQ(map.identities[i].last_seen, reference.identities[i].last_seen);
    }
    EXPECT_EQ(map.by_mac, reference.by_mac);
  }
}

// --- sequence continuity ----------------------------------------------

TEST(IdentityResolver, SequenceContinuityRelinksWhatSsidMisses) {
  // A rotation with fully anonymized probing: no directed SSIDs at all, so
  // the legacy signal has nothing — but the counter keeps counting.
  capture::ObservationStore store;
  seq_frame(store, 0, 10.0, 500);
  seq_frame(store, 0, 40.0, 520);
  seq_frame(store, 1, 55.0, 523);  // fresh MAC, 15 s later, counter +3

  ResolverOptions ssid_options;  // defaults: SSID only
  EXPECT_EQ(resolve_identities(store, ssid_options).size(), 2u);

  const IdentityMap map = resolve_identities(store, seq_only());
  ASSERT_EQ(map.size(), 1u);
  EXPECT_EQ(map.identities[0].macs,
            std::vector<net80211::MacAddress>({mac(0), mac(1)}));
}

TEST(IdentityResolver, RotationInsideSilentGapIsNotLinkable) {
  // Same seam, but the device went silent past seq_max_gap_s before
  // resurfacing: the signal must (correctly) fail to claim it.
  capture::ObservationStore store;
  seq_frame(store, 0, 10.0, 500);
  seq_frame(store, 0, 40.0, 520);
  ResolverOptions options = seq_only();
  options.seq_max_gap_s = 30.0;
  seq_frame(store, 1, 40.0 + options.seq_max_gap_s + 5.0, 523);
  EXPECT_EQ(resolve_identities(store, options).size(), 2u);
}

TEST(IdentityResolver, SequenceWraparoundAt4096Links) {
  // last_seq 4090 -> first_seq 5 is a forward hop of 11 mod 4096.
  capture::ObservationStore store;
  seq_frame(store, 0, 10.0, 4090);
  seq_frame(store, 1, 20.0, 5);
  const IdentityMap map = resolve_identities(store, seq_only());
  ASSERT_EQ(map.size(), 1u);
  EXPECT_EQ(map.identities[0].macs.size(), 2u);
}

TEST(IdentityResolver, CoexistingPseudonymsNeverSeamLink) {
  // Perfect counter continuation, but the "fresh" MAC was already alive
  // before the old one vanished — two radios, not a rotation.
  capture::ObservationStore store;
  seq_frame(store, 0, 10.0, 100);
  seq_frame(store, 0, 50.0, 140);
  store.record_presence(mac(1), 30.0);  // alive before mac(0) vanished
  seq_frame(store, 1, 55.0, 141);       // counter-adjacent, inside the window
  EXPECT_EQ(resolve_identities(store, seq_only()).size(), 2u);
}

TEST(IdentityResolver, SeamsAreMutualBestNotEveryCandidate) {
  // Two coexisting pseudonyms die, one is born: both deltas are admissible,
  // but only the closer counter (mac(1), delta 1) may claim the newborn.
  // Without mutual-best matching all three would chain into one identity.
  capture::ObservationStore store;
  seq_frame(store, 0, 5.0, 80);
  seq_frame(store, 0, 10.0, 90);   // delta to newborn: 12
  seq_frame(store, 1, 6.0, 95);    // coexists with mac(0): no seam between them
  seq_frame(store, 1, 12.0, 101);  // delta to newborn: 1
  seq_frame(store, 2, 20.0, 102);  // the newborn
  const IdentityMap map = resolve_identities(store, seq_only());
  ASSERT_EQ(map.size(), 2u);
  const ResolvedIdentity* winner = map.identity_of(mac(2));
  ASSERT_NE(winner, nullptr);
  EXPECT_EQ(winner->macs, std::vector<net80211::MacAddress>({mac(1), mac(2)}));
  EXPECT_EQ(map.identity_of(mac(0))->macs.size(), 1u);
}

// --- Gamma similarity + temporal adjacency ----------------------------

TEST(IdentityResolver, GammaAdjacencyRelinksAnonymousRotation) {
  // No SSIDs, no usable counters — but the fresh MAC appears seconds later
  // hearing the same three APs the vanished one heard at death.
  capture::ObservationStore store;
  for (int ap = 100; ap < 103; ++ap) {
    store.record_contact(mac(ap), mac(0), 95.0, -60.0);
    store.record_contact(mac(ap), mac(1), 110.0, -61.0);
  }
  store.record_presence(mac(0), 100.0);
  store.record_presence(mac(1), 105.0);

  ResolverOptions options;
  options.signals = {false, false, true};
  const IdentityMap map = resolve_identities(store, options);
  ASSERT_EQ(map.size(), 1u);
  EXPECT_EQ(map.identities[0].macs,
            std::vector<net80211::MacAddress>({mac(0), mac(1)}));
}

TEST(IdentityResolver, GammaRequiresEnoughCommonAps) {
  // One shared AP with a perfect Jaccard is coincidence, not evidence.
  capture::ObservationStore store;
  store.record_contact(mac(100), mac(0), 95.0, -60.0);
  store.record_contact(mac(100), mac(1), 110.0, -61.0);
  ResolverOptions options;
  options.signals = {false, false, true};
  options.gamma_min_common = 2;
  EXPECT_EQ(resolve_identities(store, options).size(), 2u);
}

// --- coincident fingerprints / popularity ------------------------------

TEST(IdentityResolver, CoincidentPopularFingerprintsStayUnmerged) {
  // Five strangers probing the same campus SSID at the same instant, with
  // every signal armed: nothing real links them.
  capture::ObservationStore store;
  for (int i = 0; i < 5; ++i) probe(store, i, 10.0, {"eduroam"});
  ResolverOptions options;
  options.signals = ResolverSignals::all();
  EXPECT_EQ(resolve_identities(store, options).size(), 5u);
}

TEST(IdentityResolver, FractionPopularityCutoffScalesToTenThousandDevices) {
  // The regression the fraction fix exists for: at 10k devices, a
  // campus-wide "eduroam" (popularity 10 000) must not link strangers even
  // though the legacy absolute cutoff alone would need hand-tuning; a rare
  // home SSID shared by one rotation pair must still link.
  capture::ObservationStore store;
  const int population = 10000;
  for (int i = 0; i < population; ++i) {
    probe(store, i, static_cast<double>(i) * 0.01, {"eduroam"});
  }
  probe(store, population, 200.0, {"eduroam", "home-rare-77"});
  probe(store, population + 1, 260.0, {"eduroam", "home-rare-77"});

  ResolverOptions options;  // fraction default 0.01 -> cutoff ~101 of 10 002
  const IdentityMap map = resolve_identities(store, options);
  EXPECT_EQ(map.size(), static_cast<std::size_t>(population) + 1u);
  const ResolvedIdentity* pair = map.identity_of(mac(population));
  ASSERT_NE(pair, nullptr);
  ASSERT_EQ(pair->macs.size(), 2u);
  EXPECT_EQ(pair->fingerprint.count("home-rare-77"), 1u);
  EXPECT_EQ(pair->fingerprint.count("eduroam"), 0u);
}

TEST(IdentityResolver, AbsoluteCutoffRemainsTheFloorOnSmallCaptures) {
  // ceil(0.01 * 6) = 1 would kill a two-device home SSID; the absolute
  // floor (3) must win on captures this small, exactly as the legacy
  // linker behaved.
  capture::ObservationStore store;
  probe(store, 0, 1.0, {"home-net"});
  probe(store, 1, 2.0, {"home-net"});
  for (int i = 2; i < 6; ++i) probe(store, i, 3.0, {});
  const IdentityMap map = resolve_identities(store, ResolverOptions{});
  EXPECT_EQ(map.size(), 5u);
  EXPECT_EQ(map.identity_of(mac(0)), map.identity_of(mac(1)));
}

// --- incremental ingestion ---------------------------------------------

TEST(IdentityResolver, ResolutionIsIndependentOfUpsertOrder) {
  capture::ObservationStore store;
  probe(store, 0, 1.0, {"net-a"});
  probe(store, 1, 2.0, {"net-a"});
  seq_frame(store, 2, 10.0, 700);
  seq_frame(store, 3, 20.0, 703);

  ResolverOptions options;
  options.signals = ResolverSignals::all();

  IdentityResolver forward(options);
  forward.ingest_store(store);

  IdentityResolver reversed(options);
  const auto macs = store.devices();
  for (auto it = macs.rbegin(); it != macs.rend(); ++it) {
    reversed.upsert(summarize_device(*store.device(*it)));
  }

  const IdentityMap a = forward.resolve();
  const IdentityMap b = reversed.resolve();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.identities[i].macs, b.identities[i].macs);
    EXPECT_EQ(a.identities[i].fingerprint, b.identities[i].fingerprint);
  }
  EXPECT_EQ(a.by_mac, b.by_mac);
}

TEST(IdentityResolver, UpsertReplacesExistingSummary) {
  IdentityResolver resolver(ResolverOptions{});
  DeviceSummary s;
  s.mac = mac(0);
  s.first_seen = 1.0;
  s.last_seen = 2.0;
  s.directed_ssids = {"old-net"};
  resolver.upsert(s);
  s.directed_ssids = {"new-net"};
  s.last_seen = 9.0;
  resolver.upsert(s);
  EXPECT_EQ(resolver.device_count(), 1u);
  const IdentityMap map = resolver.resolve();
  ASSERT_EQ(map.size(), 1u);
  EXPECT_EQ(map.identities[0].fingerprint.count("new-net"), 1u);
  EXPECT_EQ(map.identities[0].fingerprint.count("old-net"), 0u);
  EXPECT_EQ(map.identities[0].last_seen, 9.0);
}

// --- Gamma seams against a brute-force oracle ----------------------------
//
// The resolver finds Gamma-seam candidates through an AP -> newborn index.
// The reference below is the pairwise scan it replaced: every vanished
// pseudonym (ascending MAC) rebuilds the birth window of every newborn in
// its candidate range (ascending birth rank) and intersects the AP sets.
// The two must agree on every edge, so they must agree on the identities.

struct GammaOracle {
  std::vector<std::pair<std::size_t, std::size_t>> edges;  ///< MAC-order indices
  // Coverage: how often the cases the index must reproduce occurred.
  std::size_t successor_ties = 0;    ///< equal-Jaccard newborns for one predecessor
  std::size_t predecessor_ties = 0;  ///< equal-Jaccard predecessors for one newborn
  std::size_t born_at_last_seen = 0;
  std::size_t born_at_range_end = 0;
  std::size_t self_candidates = 0;   ///< single-instant devices meeting themselves
  std::size_t short_windows = 0;     ///< windows of exactly gamma_min_common - 1 APs
  std::size_t exact_windows = 0;     ///< windows of exactly gamma_min_common APs
  std::size_t vetoed = 0;            ///< coexisting pairs that would otherwise qualify
};

std::vector<net80211::MacAddress> window_aps(const DeviceSummary& dev, double window_s,
                                             bool birth) {
  std::vector<net80211::MacAddress> out;
  for (const ContactSpan& c : dev.contacts) {
    if (birth ? c.first_seen <= dev.first_seen + window_s
              : c.last_seen >= dev.last_seen - window_s) {
      out.push_back(c.ap);
    }
  }
  return out;
}

std::size_t sorted_common(const std::vector<net80211::MacAddress>& a,
                          const std::vector<net80211::MacAddress>& b) {
  std::vector<net80211::MacAddress> both;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(), std::back_inserter(both));
  return both.size();
}

GammaOracle pairwise_gamma(std::vector<DeviceSummary> devices, const ResolverOptions& o) {
  std::sort(devices.begin(), devices.end(),
            [](const DeviceSummary& a, const DeviceSummary& b) { return a.mac < b.mac; });
  const std::size_t n = devices.size();
  std::vector<std::size_t> by_first_seen(n);
  std::iota(by_first_seen.begin(), by_first_seen.end(), 0);
  std::sort(by_first_seen.begin(), by_first_seen.end(), [&](std::size_t a, std::size_t b) {
    if (devices[a].first_seen != devices[b].first_seen) {
      return devices[a].first_seen < devices[b].first_seen;
    }
    return a < b;
  });

  GammaOracle out;
  constexpr std::size_t kUnmatched = static_cast<std::size_t>(-1);
  std::vector<std::size_t> best_successor(n, kUnmatched);
  std::vector<double> successor_jaccard(n, 0.0);
  std::vector<std::size_t> best_predecessor(n, kUnmatched);
  std::vector<double> predecessor_jaccard(n, 0.0);
  const auto jaccard_of = [](std::size_t common, std::size_t x, std::size_t y) {
    const std::size_t unioned = x + y - common;
    return unioned == 0 ? 0.0 : static_cast<double>(common) / static_cast<double>(unioned);
  };
  for (std::size_t a = 0; a < n; ++a) {
    const DeviceSummary& da = devices[a];
    const auto tail = window_aps(da, o.gamma_window_s, /*birth=*/false);
    out.short_windows += tail.size() + 1 == o.gamma_min_common;
    out.exact_windows += tail.size() == o.gamma_min_common;
    if (tail.size() < o.gamma_min_common) continue;
    for (const std::size_t b : by_first_seen) {
      const DeviceSummary& db = devices[b];
      if (db.first_seen > da.last_seen + o.gamma_max_gap_s) break;
      const auto head = window_aps(db, o.gamma_window_s, /*birth=*/true);
      if (head.size() < o.gamma_min_common) continue;
      const std::size_t common = sorted_common(tail, head);
      if (common < o.gamma_min_common) continue;
      const double jaccard = jaccard_of(common, tail.size(), head.size());
      if (jaccard + 1e-12 < o.gamma_min_jaccard) continue;
      if (b == a) {
        out.self_candidates += db.first_seen == da.last_seen;
        continue;
      }
      if (db.first_seen < da.last_seen) {  // coexistence veto
        ++out.vetoed;
        continue;
      }
      out.born_at_last_seen += db.first_seen == da.last_seen;
      out.born_at_range_end += db.first_seen == da.last_seen + o.gamma_max_gap_s;
      if (best_successor[a] != kUnmatched && jaccard == successor_jaccard[a]) {
        ++out.successor_ties;
      }
      if (best_predecessor[b] != kUnmatched && jaccard == predecessor_jaccard[b]) {
        ++out.predecessor_ties;
      }
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
    if (b != kUnmatched && best_predecessor[b] == a) out.edges.emplace_back(a, b);
  }
  return out;
}

/// The partition an identity map induces, as sorted MAC lists in sorted order.
std::vector<std::vector<net80211::MacAddress>> partition_of(const IdentityMap& map) {
  std::vector<std::vector<net80211::MacAddress>> groups;
  for (const ResolvedIdentity& identity : map.identities) {
    groups.push_back(identity.macs);
    std::sort(groups.back().begin(), groups.back().end());
  }
  std::sort(groups.begin(), groups.end());
  return groups;
}

std::vector<std::vector<net80211::MacAddress>> partition_of(
    const std::vector<DeviceSummary>& devices,
    const std::vector<std::pair<std::size_t, std::size_t>>& edges) {
  std::vector<net80211::MacAddress> macs;
  for (const DeviceSummary& d : devices) macs.push_back(d.mac);
  std::sort(macs.begin(), macs.end());
  std::vector<std::size_t> root(macs.size());
  std::iota(root.begin(), root.end(), 0);
  const auto find = [&](std::size_t x) {
    while (root[x] != x) x = root[x];
    return x;
  };
  for (const auto& [a, b] : edges) root[find(a)] = find(b);
  std::vector<std::vector<net80211::MacAddress>> by_root(macs.size());
  for (std::size_t i = 0; i < macs.size(); ++i) by_root[find(i)].push_back(macs[i]);
  std::vector<std::vector<net80211::MacAddress>> groups;
  for (auto& group : by_root) {
    if (!group.empty()) groups.push_back(std::move(group));
  }
  std::sort(groups.begin(), groups.end());
  return groups;
}

/// A seeded population on integer seconds over a handful of APs, so equal
/// Jaccards, births exactly at a death or at the end of the gap, coexisting
/// look-alikes and single-instant devices are all common.
std::vector<DeviceSummary> random_population(util::Rng& rng, const ResolverOptions& o) {
  const int devices = static_cast<int>(rng.uniform_int(20, 90));
  const int aps = static_cast<int>(rng.uniform_int(3, 7));
  std::vector<DeviceSummary> out;
  for (int d = 0; d < devices; ++d) {
    DeviceSummary s;
    s.mac = mac(1000 + static_cast<int>((d * 7919) % 4093));  // MAC order != birth order
    if (d > 0 && rng.bernoulli(0.3)) {
      // Born exactly at an earlier device's death or at the end of its gap.
      const DeviceSummary& before =
          out[static_cast<std::size_t>(rng.uniform_int(0, d - 1))];
      s.first_seen = before.last_seen + (rng.bernoulli(0.5) ? 0.0 : o.gamma_max_gap_s);
    } else {
      s.first_seen = static_cast<double>(rng.uniform_int(0, 80));
    }
    s.last_seen = rng.bernoulli(0.15) ? s.first_seen
                                      : s.first_seen + static_cast<double>(rng.uniform_int(1, 25));
    for (int ap = 0; ap < aps; ++ap) {
      if (!rng.bernoulli(0.55)) continue;
      ContactSpan c;
      c.ap = mac(ap);  // below every device MAC: ascending AP order
      const auto lo = static_cast<std::int64_t>(s.first_seen);
      const auto hi = static_cast<std::int64_t>(s.last_seen);
      c.first_seen = static_cast<double>(rng.uniform_int(lo, hi));
      c.last_seen = static_cast<double>(
          rng.uniform_int(static_cast<std::int64_t>(c.first_seen), hi));
      s.contacts.push_back(c);
    }
    out.push_back(std::move(s));
  }
  return out;
}

TEST(IdentityResolver, GammaSeamsMatchPairwiseOracle) {
  struct Setting {
    double window_s;
    double max_gap_s;
    std::size_t min_common;
    double min_jaccard;
  };
  const Setting settings[] = {{3.0, 5.0, 2, 0.5}, {8.0, 15.0, 3, 0.4}, {8.0, 15.0, 1, 0.3}};
  GammaOracle coverage;
  std::size_t edges_total = 0;
  for (const Setting& setting : settings) {
    ResolverOptions options;
    options.signals = {false, false, true};
    options.gamma_window_s = setting.window_s;
    options.gamma_max_gap_s = setting.max_gap_s;
    options.gamma_min_common = setting.min_common;
    options.gamma_min_jaccard = setting.min_jaccard;
    util::Rng rng(0x6A33A + setting.min_common);
    for (int round = 0; round < 150; ++round) {
      SCOPED_TRACE(testing::Message() << "window " << setting.window_s << " gap "
                                      << setting.max_gap_s << " round " << round);
      const std::vector<DeviceSummary> devices = random_population(rng, options);
      const GammaOracle oracle = pairwise_gamma(devices, options);

      IdentityResolver resolver(options);
      for (const DeviceSummary& d : devices) resolver.upsert(d);
      const IdentityMap map = resolver.resolve();
      EXPECT_EQ(resolver.last_stats().gamma_edges, oracle.edges.size());
      ASSERT_EQ(partition_of(map), partition_of(devices, oracle.edges));

      edges_total += oracle.edges.size();
      coverage.successor_ties += oracle.successor_ties;
      coverage.predecessor_ties += oracle.predecessor_ties;
      coverage.born_at_last_seen += oracle.born_at_last_seen;
      coverage.born_at_range_end += oracle.born_at_range_end;
      coverage.self_candidates += oracle.self_candidates;
      coverage.short_windows += oracle.short_windows;
      coverage.exact_windows += oracle.exact_windows;
      coverage.vetoed += oracle.vetoed;
    }
  }
  // The populations must actually exercise what the index has to reproduce.
  EXPECT_GT(edges_total, 100u);
  EXPECT_GT(coverage.successor_ties, 0u);
  EXPECT_GT(coverage.predecessor_ties, 0u);
  EXPECT_GT(coverage.born_at_last_seen, 0u);
  EXPECT_GT(coverage.born_at_range_end, 0u);
  EXPECT_GT(coverage.self_candidates, 0u);
  EXPECT_GT(coverage.short_windows, 0u);
  EXPECT_GT(coverage.exact_windows, 0u);
  EXPECT_GT(coverage.vetoed, 0u);
}

}  // namespace
}  // namespace mm::marauder
