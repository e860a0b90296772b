// The city population shared by live_fabric and offline_city, and the
// scoring both apply to a resolved map (the arena's tracking rule).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "capture/observation_store.h"
#include "marauder/identity.h"
#include "marauder/tracker.h"
#include "tracegen.h"
#include "util/hash.h"

namespace mm::perfbench {

/// The city's layout seed. The workloads' --seed relabels devices and APs
/// (TraceConfig::label_seed) over this one layout, so every run does the
/// same amount of work.
inline constexpr std::uint64_t kCityLayoutSeed = 2009;

/// ~1k devices for 600 s over ~1 km^2 with 300 APs beaconing, three sniffer
/// sites; half the devices rotate their MAC every 30 s (10k+ pseudonyms).
[[nodiscard]] TraceConfig city_config(std::uint64_t seed);

/// The resolver the map operator runs: every signal armed, thresholds tuned
/// to the city's traffic cadence (keep-alives every 15 s, rotations every
/// 30 s).
[[nodiscard]] marauder::ResolverOptions city_resolver();

/// The M-Loc tracker over the ground-truth AP database (radii known).
[[nodiscard]] marauder::ApDatabase city_database(const Trace& trace);

struct TrackingScore {
  std::size_t devices_observed = 0;
  std::size_t devices_tracked = 0;
  [[nodiscard]] double pct() const {
    return devices_observed == 0 ? 0.0
                                 : 100.0 * static_cast<double>(devices_tracked) /
                                       static_cast<double>(devices_observed);
  }
};

/// The arena rule: a device is tracked when one identity covers at least 0.7
/// of the device's observed span using only the device's own pseudonyms.
/// `stores` together hold every pseudonym's record (one store, or the live
/// tracker's shard slices).
[[nodiscard]] TrackingScore score_tracking(
    const Trace& trace, const marauder::IdentityMap& identities,
    const std::vector<const capture::ObservationStore*>& stores);

/// Device each identity is attributed to: the owner of most of its
/// pseudonyms (ties to the lowest device index); trace.config.devices when
/// none of its pseudonyms belongs to a known device.
[[nodiscard]] std::vector<std::size_t> attribute_identities(
    const Trace& trace, const marauder::IdentityMap& identities);

/// Order-sensitive 64-bit digest of a word sequence.
class Digest {
 public:
  void add(std::uint64_t word) { state_ = util::mix64(state_ ^ word) + 0x9e3779b97f4a7c15ULL; }
  void add(double value);
  /// Raw bytes, eight at a time (the tail zero-padded).
  void add_bytes(std::span<const std::uint8_t> bytes);
  [[nodiscard]] std::uint64_t value() const { return state_; }

 private:
  std::uint64_t state_ = 0xcbf29ce484222325ULL;
};

/// Digest of an identity map (membership and order).
[[nodiscard]] std::uint64_t digest_identities(const marauder::IdentityMap& identities);

/// Digest of a capture (every field of every frame).
[[nodiscard]] std::uint64_t digest_trace(const Trace& trace);

}  // namespace mm::perfbench
