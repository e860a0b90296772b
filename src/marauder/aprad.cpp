#include "marauder/aprad.h"

#include <algorithm>
#include <cstdint>
#include <utility>

#include "geo/spatial_index.h"
#include "lp/pair_lp.h"

namespace mm::marauder {

namespace {

using IndexPair = std::pair<std::size_t, std::size_t>;

/// LP objective penalty per metre of "<" violation. An unsatisfiable
/// co-observation row, made soft, costs ten times this.
constexpr std::int64_t kSoftPenalty = 50;

/// Margin that turns the strict "<" into "<= d - epsilon".
constexpr double kEpsilonM = 1.0;

/// Added to every LP radius (clamped to the cap): Theorem 3 shows an
/// overestimate costs area linearly while an underestimate destroys the
/// coverage guarantee exponentially in k, so residual noise in the
/// co-observation evidence is absorbed upward.
constexpr double kOverestimateBiasM = 10.0;

}  // namespace

ApRadConstraints aprad_prepare_constraints(
    const ApDatabase& db, const std::vector<std::set<net80211::MacAddress>>& gammas,
    const ApRadOptions& options) {
  ApRadConstraints out;
  // Database views, forced once: membership checks probe the rank index and
  // positions stream out of the SoA slab — no KnownAp re-gather per Gamma
  // member, no lazy-build mutex inside the scans below.
  const ApDatabase::RankMap& rank = db.rank_index();
  const ApDatabase::DiscSlabView slab = db.disc_slab();
  // Observed APs (known to the database) become LP variables. Variable
  // indices follow first-appearance order across the gamma list, and that
  // order feeds everything downstream.
  std::vector<net80211::MacAddress>& observed = out.observed;
  std::vector<std::uint32_t> observed_rank;
  std::map<net80211::MacAddress, std::size_t> index;
  for (const auto& gamma : gammas) {
    for (const auto& mac : gamma) {
      const auto rit = rank.find(mac);
      if (rit == rank.end()) continue;
      if (index.emplace(mac, observed.size()).second) {
        observed.push_back(mac);
        observed_rank.push_back(rit->second);
      }
    }
  }
  if (observed.empty()) return out;

  // Co-observation matrix: pairs that appear together in some Gamma.
  std::set<IndexPair> co_observed;
  std::vector<std::size_t> members;
  for (const auto& gamma : gammas) {
    members.clear();
    for (const auto& mac : gamma) {
      const auto it = index.find(mac);
      if (it != index.end()) members.push_back(it->second);
    }
    for (std::size_t a = 0; a < members.size(); ++a) {
      for (std::size_t b = a + 1; b < members.size(); ++b) {
        co_observed.emplace(std::minmax(members[a], members[b]));
      }
    }
  }

  // Positions from the slab (the same doubles db.find(...)->position holds).
  std::vector<geo::Vec2>& position = out.position;
  position.resize(observed.size());
  for (std::size_t i = 0; i < observed.size(); ++i) {
    position[i] = {slab.x[observed_rank[i]], slab.y[observed_rank[i]]};
  }

  // Soft "<" upper bounds against each AP's nearest non-co-observed
  // neighbours (the binding pressure is local; an unlimited O(n^2) set of
  // soft rows would swamp the solver on a dense campus). Candidates come
  // from an Atlas grid over the observed positions: only APs within the 2R
  // interest disc can qualify. The grid returns ascending indices and its
  // disc is inclusive, so the strict d < 2R predicate re-filters the
  // boundary; candidates sort by (d, j), and rows enter in ascending i with
  // the first row for a pair kept. Selected distances are kept alongside
  // the pairs so the LP never re-derives them.
  const double interest_radius = 2.0 * options.max_radius_m;
  const geo::SpatialIndex grid(position);
  std::vector<geo::SpatialIndex::Id> near;
  std::vector<std::pair<double, std::size_t>> candidates;
  for (std::size_t i = 0; i < observed.size(); ++i) {
    grid.query_disc(position, position[i], interest_radius, near);
    candidates.clear();
    for (const geo::SpatialIndex::Id id : near) {
      const auto j = static_cast<std::size_t>(id);
      if (j == i || co_observed.count(std::minmax(i, j)) != 0) continue;
      const double d = position[i].distance_to(position[j]);
      if (d < interest_radius) candidates.emplace_back(d, j);
    }
    std::sort(candidates.begin(), candidates.end());
    const std::size_t take = std::min(options.max_less_neighbors, candidates.size());
    for (std::size_t c = 0; c < take; ++c) {
      out.less_rows.emplace(std::minmax(i, candidates[c].second), candidates[c].first);
    }
  }

  // Flatten the co-observation matrix and precompute its distances once.
  out.co_pairs.assign(co_observed.begin(), co_observed.end());
  out.co_dist.reserve(out.co_pairs.size());
  for (const auto& [i, j] : out.co_pairs) {
    out.co_dist.push_back(position[i].distance_to(position[j]));
  }
  return out;
}

std::map<net80211::MacAddress, double> aprad_estimate_radii(
    const ApDatabase& db, const std::vector<std::set<net80211::MacAddress>>& gammas,
    const ApRadOptions& options) {
  const ApRadConstraints prepared = aprad_prepare_constraints(db, gammas, options);
  std::map<net80211::MacAddress, double> radii;
  if (prepared.observed.empty()) return radii;

  // One solve over every row: maximize sum(r) under soft "<" rows and the
  // co-observation rows. Under the disc model d <= r_i + r_j <= 2*cap always
  // holds; polluted evidence (a device that moved between two sightings) can
  // break that, and the solver keeps such a row soft instead of hard.
  lp::PairLp program{.variables = prepared.observed.size(),
                     .cap = options.max_radius_m,
                     .at_most_penalty = kSoftPenalty,
                     .at_least_penalty = kSoftPenalty * 10};
  for (const auto& [pair, d] : prepared.less_rows) {
    program.at_most.push_back({pair.first, pair.second, d - kEpsilonM});
  }
  for (std::size_t k = 0; k < prepared.co_pairs.size(); ++k) {
    program.at_least.push_back(
        {prepared.co_pairs[k].first, prepared.co_pairs[k].second, prepared.co_dist[k]});
  }
  const std::vector<double> r = lp::solve(program);

  for (std::size_t i = 0; i < prepared.observed.size(); ++i) {
    radii[prepared.observed[i]] = std::min(r[i] + kOverestimateBiasM, options.max_radius_m);
  }
  return radii;
}

}  // namespace mm::marauder
