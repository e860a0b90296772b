// Trilateration baseline (Section I, category (ii)): estimate a device's
// position from per-AP *distance estimates* by nonlinear least squares.
//
// The paper argues trilateration is ineffective for a real-world adversary
// in urban areas because obstructions corrupt the signal-strength-to-
// distance inversion. This implementation exists to check that claim
// quantitatively (bench_claims): distances derived from RSSI under
// log-normal shadowing carry multiplicative error, and the least-squares
// fix degrades far faster than the binary in-range/disc-intersection
// evidence M-Loc uses.
#pragma once

#include <span>
#include <utility>

#include "marauder/localization.h"

namespace mm::marauder {

/// Least-squares multilateration over (AP position, estimated distance)
/// pairs via Gauss-Newton with a Levenberg damping fallback. Needs at least
/// three non-collinear anchors for a well-posed fix; with fewer the result
/// is flagged as fallback (centroid of anchors).
[[nodiscard]] LocalizationResult trilaterate(
    std::span<const std::pair<geo::Vec2, double>> anchors_with_distance);

/// Helper for the claims bench: inverts an RSSI measurement to a distance
/// using the log-distance model the adversary *assumes* (exponent n,
/// reference path loss at 1 m). Real propagation with shadowing makes this
/// estimate multiplicatively wrong — the crux of the paper's argument.
[[nodiscard]] double rssi_to_distance_m(double rssi_dbm, double tx_power_dbm,
                                        double ref_loss_1m_db, double exponent);

}  // namespace mm::marauder
