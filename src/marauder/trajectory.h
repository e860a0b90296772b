// Trajectory assembly: turn per-burst location estimates into a movement
// track for one identity — what the Marauder's Map display actually shows
// (Fig 7's moving tags). Works across MAC rotations when given a linked
// identity's full alias list, completing the identity resolver -> tracker ->
// display pipeline.
#pragma once

#include <span>
#include <vector>

#include "capture/observation_store.h"
#include "marauder/identity.h"
#include "marauder/tracker.h"

namespace mm::marauder {

struct TrackPoint {
  sim::SimTime time = 0.0;               ///< burst center
  geo::Vec2 position;                    ///< (possibly smoothed) estimate
  geo::Vec2 raw_position;                ///< unsmoothed estimate
  std::size_t num_aps = 0;               ///< |Gamma| behind the estimate
  net80211::MacAddress mac;              ///< alias active during the burst
  bool degraded = false;                 ///< fallback or outlier-rejected estimate
  std::size_t discs_rejected = 0;        ///< discs shed by outlier rejection
};

struct TrajectoryOptions {
  /// Contacts closer than this form one burst (one scan sweep).
  double burst_gap_s = 5.0;
  /// Evidence window padding around each burst.
  double window_pad_s = 1.0;
  /// Estimates implying a speed above this (m/s) from the previous accepted
  /// point are rejected as geometry glitches. <= 0 disables gating.
  double max_speed_mps = 12.0;
  /// Centered moving-average span (odd; 1 = no smoothing).
  std::size_t smoothing_span = 1;
};

/// Builds the track of one identity (one or more alias MACs) from the
/// observation store using a prepared tracker. Points come out in time
/// order; bursts that fail to localize (or fail the speed gate) are skipped.
[[nodiscard]] std::vector<TrackPoint> build_trajectory(
    const Tracker& tracker, const capture::ObservationStore& store,
    std::span<const net80211::MacAddress> identity, const TrajectoryOptions& options = {});

/// Total path length of a track (meters).
[[nodiscard]] double track_length_m(std::span<const TrackPoint> track);

/// One resolved identity's movement track: the display-level object of the
/// Marauder's Map once Chimera links pseudonyms. `identity` indexes into the
/// IdentityMap the track was built from; each TrackPoint still names the
/// alias MAC active during its burst, so rotation seams stay visible.
struct IdentityTrack {
  std::uint32_t identity = 0;
  std::vector<TrackPoint> points;
};

/// Builds one track per resolved identity (alias bursts interleaved in time
/// order). With a singleton-only map — no linking signals armed — this is
/// exactly one build_trajectory per observed MAC, which is the pre-Chimera
/// behaviour the null-point tests pin.
[[nodiscard]] std::vector<IdentityTrack> build_identity_trajectories(
    const Tracker& tracker, const capture::ObservationStore& store,
    const IdentityMap& identities, const TrajectoryOptions& options = {});

}  // namespace mm::marauder
