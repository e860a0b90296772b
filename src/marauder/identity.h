// Chimera: first-class identity resolution across the attack pipeline.
//
// The paper (Sections I and V) argues MAC pseudonyms do not stop the
// Marauder's Map because *implicit identifiers* re-link rotated addresses.
// This module makes that argument executable as a two-level identity model:
//
//   pseudonym  = an observed MAC address (what the ObservationStore keys on,
//                what Riptide shards on — one radio may burn through many);
//   identity   = the resolved device behind one or more pseudonyms.
//
// The IdentityResolver clusters pseudonyms into identities from three
// individually-toggleable evidence signals:
//
//   (a) SSID fingerprint — the directed-probe SSID overlap of Pang et al.
//       (strongest when devices leak remembered networks);
//   (b) sequence continuity — the 12-bit 802.11 sequence counter keeps
//       counting across a rotation, so a fresh MAC whose first frames pick
//       up (mod 4096) where a vanished MAC stopped shares its radio;
//   (c) Gamma similarity + temporal adjacency — a device that vanishes and a
//       fresh MAC that appears seconds later hearing a near-identical AP set
//       (the Sapiezynski et al. observation that mobility itself tracks
//       through randomization).
//
// Each signal contributes edges to an evidence graph, and every pair joined
// by an edge is merged by union-find. With every signal disabled the
// resolver degenerates to one singleton identity per MAC — the exact
// pre-Chimera behaviour — and with only (a) enabled (the default) it is
// plain SSID-fingerprint linking: fingerprints overlapping by min_overlap
// SSIDs link, transitively.
//
// Resolution is a pure function of the ingested per-device summaries, which
// are themselves pure functions of DeviceRecords, and it does not depend on
// ingestion order. That is what makes the live pipeline's resolution (every
// shard's store slice ingested into one resolver) equal to batch resolution
// over the union store.
#pragma once

#include <cstdint>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "capture/observation_store.h"
#include "net80211/mac_address.h"

namespace mm::marauder {

/// Per-AP contact span inside a device summary: enough to recompute the
/// birth/death Gamma windows for any window length without dragging the full
/// contact timeline along.
struct ContactSpan {
  net80211::MacAddress ap;
  sim::SimTime first_seen = 0.0;
  sim::SimTime last_seen = 0.0;
};

/// Everything the resolver needs to know about one pseudonym — a compact
/// projection of a DeviceRecord.
struct DeviceSummary {
  net80211::MacAddress mac;
  sim::SimTime first_seen = 0.0;
  sim::SimTime last_seen = 0.0;
  std::vector<std::string> directed_ssids;  ///< record insertion order
  std::uint64_t seq_frames = 0;
  std::uint16_t first_seq = 0;
  std::uint16_t last_seq = 0;
  sim::SimTime first_seq_time = 0.0;
  sim::SimTime last_seq_time = 0.0;
  std::vector<ContactSpan> contacts;  ///< ascending AP order

  [[nodiscard]] bool has_seq() const noexcept { return seq_frames > 0; }
};

/// Pure projection DeviceRecord -> DeviceSummary (the one summary policy).
[[nodiscard]] DeviceSummary summarize_device(const capture::DeviceRecord& record);

/// Which evidence signals the attacker is capable of. The default is SSID
/// fingerprints only.
struct ResolverSignals {
  bool ssid_fingerprint = true;
  bool sequence_continuity = false;
  bool gamma_temporal = false;

  [[nodiscard]] bool any() const noexcept {
    return ssid_fingerprint || sequence_continuity || gamma_temporal;
  }
  /// Fully-armed attacker (the arena's strongest column).
  [[nodiscard]] static ResolverSignals all() noexcept { return {true, true, true}; }
  /// No linking at all: every pseudonym is its own identity (the pre-Chimera
  /// MAC == device assumption, and the null point of the refactor).
  [[nodiscard]] static ResolverSignals none() noexcept { return {false, false, false}; }
};

struct ResolverOptions {
  ResolverSignals signals{};

  // --- (a) SSID fingerprint ---
  /// Minimum number of shared directed-probe SSIDs for two MACs to link.
  std::size_t min_overlap = 1;
  /// Absolute popularity floor: SSIDs probed by more than
  /// max(this, ceil(fraction * population)) distinct MACs identify a crowd,
  /// not a user, and are dropped from every fingerprint. The absolute value
  /// sets the cutoff on tiny captures; the fraction makes it scale to
  /// city-sized populations, where an absolute 3 would throw away genuinely
  /// identifying rare SSIDs.
  std::size_t max_ssid_popularity = 3;
  double max_ssid_popularity_fraction = 0.01;

  // --- (b) sequence continuity ---
  /// A fresh MAC must show its first sequence-bearing frame within this many
  /// seconds of the vanished MAC's last one. Rotations inside a long silent
  /// gap exceed it and are (correctly) not linkable by this signal.
  double seq_max_gap_s = 30.0;
  /// Maximum forward distance (mod 4096) between the vanished MAC's last
  /// sequence and the fresh MAC's first.
  std::uint16_t seq_max_delta = 64;

  // --- (c) Gamma similarity + temporal adjacency ---
  /// A fresh MAC must appear within this many seconds of the vanished one.
  double gamma_max_gap_s = 30.0;
  /// Width of the death-window (tail of the vanished MAC) and birth-window
  /// (head of the fresh MAC) whose AP sets are compared.
  double gamma_window_s = 15.0;
  /// Jaccard similarity the two window Gamma sets must reach.
  double gamma_min_jaccard = 0.5;
  /// ... and at least this many APs in common (a 1-element Jaccard of 1.0
  /// is coincidence, not evidence).
  std::size_t gamma_min_common = 2;
};

/// One resolved identity: the pseudonyms attributed to a single device.
struct ResolvedIdentity {
  std::uint32_t id = 0;                     ///< index into IdentityMap::identities
  std::vector<net80211::MacAddress> macs;   ///< first-seen order
  std::set<std::string> fingerprint;        ///< popularity-filtered SSID union
  sim::SimTime first_seen = 0.0;
  sim::SimTime last_seen = 0.0;

  [[nodiscard]] bool pseudonymous() const noexcept { return macs.size() > 1; }
};

/// The resolved two-level map: every ingested pseudonym appears in exactly
/// one identity.
struct IdentityMap {
  std::vector<ResolvedIdentity> identities;
  std::unordered_map<net80211::MacAddress, std::uint32_t, net80211::MacHasher> by_mac;

  [[nodiscard]] std::size_t size() const noexcept { return identities.size(); }
  /// Identity owning the pseudonym, or nullptr when the MAC was never seen.
  [[nodiscard]] const ResolvedIdentity* identity_of(
      const net80211::MacAddress& mac) const;
};

/// Counters from the most recent resolve() (evidence volume per signal).
struct ResolverStats {
  std::size_t devices = 0;
  std::size_t ssid_edges = 0;
  std::size_t seq_edges = 0;
  std::size_t gamma_edges = 0;
  std::size_t linked_pairs = 0;  ///< distinct device pairs joined by an edge
  std::size_t identities = 0;
};

/// Clusters pseudonyms into identities. upsert() replaces a pseudonym's
/// summary wherever it comes from (a batch store, a live shard slice), and
/// resolve() is a pure function of the current summary set, independent of
/// ingestion order.
class IdentityResolver {
 public:
  explicit IdentityResolver(ResolverOptions options = {});

  /// Inserts or replaces the summary for summary.mac.
  void upsert(DeviceSummary summary);
  /// Summarizes and upserts every device in the store (in the store's record
  /// order; resolve() sorts by MAC).
  void ingest_store(const capture::ObservationStore& store);

  [[nodiscard]] std::size_t device_count() const noexcept { return summaries_.size(); }
  [[nodiscard]] const ResolverOptions& options() const noexcept { return options_; }

  /// Resolves the current summaries into identities.
  [[nodiscard]] IdentityMap resolve() const;

  /// Evidence counters of the most recent resolve().
  [[nodiscard]] const ResolverStats& last_stats() const noexcept { return stats_; }

 private:
  ResolverOptions options_;
  std::vector<DeviceSummary> summaries_;  ///< upsert order (resolution sorts)
  std::unordered_map<net80211::MacAddress, std::size_t, net80211::MacHasher> index_;
  mutable ResolverStats stats_;
};

/// One-shot convenience: summarize the store and resolve.
[[nodiscard]] IdentityMap resolve_identities(const capture::ObservationStore& store,
                                             const ResolverOptions& options = {});

}  // namespace mm::marauder
