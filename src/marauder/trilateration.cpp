#include "marauder/trilateration.h"

#include <cmath>

namespace mm::marauder {

constexpr int kMaxIterations = 50;
constexpr double kConvergenceM = 1e-4;  ///< a shorter step ends the iteration

LocalizationResult trilaterate(
    std::span<const std::pair<geo::Vec2, double>> anchors_with_distance) {
  LocalizationResult result;
  result.method = "Trilateration";
  result.num_aps = anchors_with_distance.size();
  if (anchors_with_distance.empty()) return result;

  // Initial guess: centroid of the anchors.
  geo::Vec2 guess;
  for (const auto& [position, distance] : anchors_with_distance) guess += position;
  guess = guess / static_cast<double>(anchors_with_distance.size());

  if (anchors_with_distance.size() < 3) {
    result.ok = true;
    result.used_fallback = true;
    result.estimate = guess;
    return result;
  }

  // Gauss-Newton on residuals r_i = |x - p_i| - d_i with Levenberg damping.
  double lambda = 1e-3;
  auto cost_at = [&](geo::Vec2 x) {
    double cost = 0.0;
    for (const auto& [position, distance] : anchors_with_distance) {
      const double r = x.distance_to(position) - distance;
      cost += r * r;
    }
    return cost;
  };
  double cost = cost_at(guess);

  for (int iter = 0; iter < kMaxIterations; ++iter) {
    // Normal equations J^T J delta = -J^T r for the 2-D unknown.
    double jtj00 = 0.0;
    double jtj01 = 0.0;
    double jtj11 = 0.0;
    double jtr0 = 0.0;
    double jtr1 = 0.0;
    for (const auto& [position, distance] : anchors_with_distance) {
      const geo::Vec2 delta = guess - position;
      const double dist = std::max(delta.norm(), 1e-9);
      const double residual = dist - distance;
      const double jx = delta.x / dist;
      const double jy = delta.y / dist;
      jtj00 += jx * jx;
      jtj01 += jx * jy;
      jtj11 += jy * jy;
      jtr0 += jx * residual;
      jtr1 += jy * residual;
    }
    jtj00 += lambda;
    jtj11 += lambda;
    const double det = jtj00 * jtj11 - jtj01 * jtj01;
    if (std::abs(det) < 1e-12) break;  // degenerate geometry (collinear anchors)
    const geo::Vec2 step{-(jtj11 * jtr0 - jtj01 * jtr1) / det,
                         -(jtj00 * jtr1 - jtj01 * jtr0) / det};
    const geo::Vec2 candidate = guess + step;
    const double candidate_cost = cost_at(candidate);
    if (candidate_cost < cost) {
      guess = candidate;
      cost = candidate_cost;
      lambda = std::max(lambda * 0.5, 1e-9);
      if (step.norm() < kConvergenceM) break;
    } else {
      lambda *= 10.0;  // damp harder and retry
      if (lambda > 1e6) break;
    }
  }

  result.ok = true;
  result.estimate = guess;
  return result;
}

double rssi_to_distance_m(double rssi_dbm, double tx_power_dbm, double ref_loss_1m_db,
                          double exponent) {
  // PL = tx - rssi = ref + 10 n log10(d)  =>  d = 10^((PL - ref)/(10 n)).
  const double path_loss_db = tx_power_dbm - rssi_dbm;
  return std::pow(10.0, (path_loss_db - ref_loss_1m_db) / (10.0 * exponent));
}

}  // namespace mm::marauder
