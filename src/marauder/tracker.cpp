#include "marauder/tracker.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <limits>
#include <span>
#include <stdexcept>
#include <utility>

#include "util/rng.h"
#include "util/thread_pool.h"

namespace mm::marauder {

namespace {

double seconds_between(std::chrono::steady_clock::time_point a,
                       std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// AP-Rad and AP-Loc take their radii from prepare()'s LP.
bool lp_radii(Algorithm algorithm) {
  return algorithm == Algorithm::kApRad || algorithm == Algorithm::kApLoc;
}

}  // namespace

const char* to_string(Algorithm algorithm) noexcept {
  switch (algorithm) {
    case Algorithm::kMLoc:
      return "M-Loc";
    case Algorithm::kApRad:
      return "AP-Rad";
    case Algorithm::kApLoc:
      return "AP-Loc";
    case Algorithm::kCentroid:
      return "Centroid";
    case Algorithm::kNearestAp:
      return "NearestAP";
    case Algorithm::kWeightedCentroid:
      return "WeightedCentroid";
  }
  return "?";
}

Tracker::Tracker(ApDatabase db, TrackerOptions options)
    : db_(std::move(db)), options_(std::move(options)) {
  if (options_.algorithm == Algorithm::kApLoc) {
    throw std::invalid_argument("Tracker: AP-Loc requires from_training()");
  }
  if (options_.algorithm == Algorithm::kApRad) {
    // Location-only knowledge: radii must come from the LP, not the input.
    db_.strip_radii();
  }
}

Tracker Tracker::from_training(const std::vector<capture::TrainingTuple>& tuples,
                               TrackerOptions options) {
  if (options.algorithm != Algorithm::kApLoc) {
    throw std::invalid_argument("Tracker: from_training() builds AP-Loc trackers");
  }
  options.mloc.exact_region_centroid = true;
  // The trained database holds positions only, so there are no radii to strip.
  Tracker tracker(aploc_build_database(tuples, options.aploc), {});
  tracker.options_ = std::move(options);
  for (const capture::TrainingTuple& tuple : tuples) {
    if (tuple.heard_aps.size() >= 2) tracker.training_evidence_.push_back(tuple.heard_aps);
  }
  return tracker;
}

void Tracker::prepare(const capture::ObservationStore& store,
                      const capture::ObservationWindow& window) {
  if (!lp_radii(options_.algorithm)) {
    prepared_ = true;
    return;
  }
  std::vector<std::set<net80211::MacAddress>> gammas =
      store.session_gammas(options_.session_gap_s, window);
  gammas.insert(gammas.end(), training_evidence_.begin(), training_evidence_.end());
  const auto radii = aprad_estimate_radii(db_, gammas, options_.aprad);
  for (const auto& [mac, radius] : radii) {
    if (radius > 0.0) db_.set_radius(mac, radius);
  }
  prepared_ = true;
}

Tracker::DiscRule Tracker::disc_rule() const noexcept {
  const char* method = to_string(options_.algorithm);
  if (!lp_radii(options_.algorithm)) return {options_.default_radius_m, method, false};
  // Radii were materialized into db_ by prepare(); unknown ones fall back
  // to the cap (overestimates preferred, Theorem 3). Faultline convention:
  // degrade, don't throw. Without the LP radii the defensible disc set is
  // the Theorem-1 cap for every heard AP — a coarse but covering region —
  // and the result is flagged so the display can grey it out.
  return {options_.aprad.max_radius_m, method, !prepared_};
}

LocalizationResult Tracker::locate(const capture::ObservationStore& store,
                                   const net80211::MacAddress& device,
                                   const capture::ObservationWindow& window) const {
  std::vector<net80211::MacAddress> gamma;
  store.gamma_append(device, window, gamma);
  switch (options_.algorithm) {
    case Algorithm::kMLoc:
    case Algorithm::kApRad:
    case Algorithm::kApLoc: {
      const DiscRule rule = disc_rule();
      LocalizationResult result =
          mloc_locate(db_.discs_for(gamma, rule.default_radius_m), options_.mloc);
      result.method = rule.method;
      if (rule.fallback) result.used_fallback = true;
      return result;
    }
    case Algorithm::kCentroid: {
      return centroid_locate(db_.positions_for(gamma));
    }
    case Algorithm::kNearestAp:
    case Algorithm::kWeightedCentroid: {
      std::vector<std::pair<geo::Vec2, double>> with_rssi;
      const capture::DeviceRecord* rec = store.device(device);
      if (rec != nullptr) {
        for (const auto& [mac, contact] : rec->contacts) {
          if (!std::binary_search(gamma.begin(), gamma.end(), mac)) continue;
          const KnownAp* ap = db_.find(mac);
          if (ap != nullptr) with_rssi.emplace_back(ap->position, contact.last_rssi_dbm);
        }
      }
      return options_.algorithm == Algorithm::kNearestAp
                 ? nearest_ap_locate(with_rssi)
                 : weighted_centroid_locate(with_rssi);
    }
  }
  return {};
}

std::map<net80211::MacAddress, LocalizationResult> Tracker::locate_all(
    const capture::ObservationStore& store, const capture::ObservationWindow& window,
    LocateAllProfile* profile) const {
  if (options_.algorithm == Algorithm::kMLoc || lp_radii(options_.algorithm)) {
    return locate_all_grouped(store, window, profile);
  }

  const auto t0 = std::chrono::steady_clock::now();
  const std::vector<net80211::MacAddress> devices = store.devices();
  // Per-device localizations are independent: fan out over the sorted device
  // list, slot each result by index, then fold into the map in MAC order —
  // the exact sequence the serial loop produced. Chunks are coarse
  // (balanced_chunk): each dispatch must amortize over a batch of devices,
  // not the 4-device chunks that sank Afterburner's parallel win.
  std::vector<LocalizationResult> per_device(devices.size());
  util::parallel_map_into(
      util::ThreadPool::shared(), options_.threads, per_device,
      [&](std::size_t i) { return locate(store, devices[i], window); },
      util::ThreadPool::balanced_chunk(devices.size(), options_.threads));
  const auto t1 = std::chrono::steady_clock::now();
  std::map<net80211::MacAddress, LocalizationResult> results;
  std::size_t outliers = 0;
  for (std::size_t i = 0; i < devices.size(); ++i) {
    if (!per_device[i].ok) continue;
    if (per_device[i].discs_rejected > 0) ++outliers;
    results.emplace(devices[i], std::move(per_device[i]));
  }
  const auto t2 = std::chrono::steady_clock::now();
  if (profile != nullptr) {
    *profile = {};
    profile->locate_s = seconds_between(t0, t1);
    profile->merge_s = seconds_between(t1, t2);
    profile->devices = devices.size();
    profile->unique_gammas = devices.size();
    profile->outlier_devices = outliers;
  }
  return results;
}

std::map<net80211::MacAddress, LocalizationResult> Tracker::locate_all_grouped(
    const capture::ObservationStore& store, const capture::ObservationWindow& window,
    LocateAllProfile* profile) const {
  const auto t0 = std::chrono::steady_clock::now();
  // The store's records in its own order: every stage below is slotted by
  // device index and the result map is keyed by MAC, so no sort is needed.
  const std::vector<const capture::DeviceRecord*> records = store.records();
  const std::size_t n = records.size();

  // Force the database's lazy views once, up front: the workers below only
  // ever read them (no per-probe mutex).
  const ApDatabase::DiscSlabView slab = db_.disc_slab();
  const ApDatabase::RankMap& ranks = db_.rank_index();

  const DiscRule rule = disc_rule();

  util::ThreadPool& pool = util::ThreadPool::shared();

  // Plan: each device's slab ranks, ascending because Gamma is sorted and the
  // slab is BSSID-ordered: the ones discs_for(gamma, default_radius) would
  // look up, in the same order. An idle device costs gamma_append one
  // comparison and adds no ranks. A device without ranks has no disc, and
  // M-Loc locates nothing from no disc (locate() reports it not ok), so only
  // the devices with ranks are planned. Each chunk appends to its own
  // ranks run; the runs laid end to end in chunk order are one arena, and
  // the plan is the same at any parallelism.
  struct Planned {
    std::uint64_t mac = 0;  ///< MacAddress::to_u64(), which sorts as the MAC does
    std::uint32_t group = 0;
    std::size_t begin = 0;  ///< the device's ranks are arena[begin, end)
    std::size_t end = 0;
  };
  struct ChunkPlan {
    std::vector<std::uint32_t> ranks;
    std::vector<Planned> devices;  ///< offsets into `ranks`
  };
  const std::size_t chunk = util::ThreadPool::balanced_chunk(n, options_.threads);
  std::vector<ChunkPlan> chunk_plans((n + chunk - 1) / chunk);
  pool.run_chunks(
      n, chunk, options_.threads, [&](std::size_t c, std::size_t begin, std::size_t end) {
        std::vector<net80211::MacAddress> gamma;  // reused across the chunk
        ChunkPlan& plan = chunk_plans[c];
        for (std::size_t i = begin; i < end; ++i) {
          gamma.clear();
          capture::ObservationStore::gamma_append(*records[i], window, gamma);
          const std::size_t first = plan.ranks.size();
          for (const net80211::MacAddress& mac : gamma) {
            const auto it = ranks.find(mac);
            if (it != ranks.end()) plan.ranks.push_back(it->second);
          }
          if (plan.ranks.size() > first) {
            plan.devices.push_back({records[i]->mac.to_u64(), 0, first, plan.ranks.size()});
          }
        }
      });
  std::vector<std::uint32_t> arena;
  std::vector<Planned> planned;
  for (const ChunkPlan& plan : chunk_plans) {
    const std::size_t base = arena.size();
    arena.insert(arena.end(), plan.ranks.begin(), plan.ranks.end());
    for (Planned p : plan.devices) {
      p.begin += base;
      p.end += base;
      planned.push_back(p);
    }
  }
  const auto ranks_of = [&](const Planned& p) {
    return std::span<const std::uint32_t>(arena.data() + p.begin, p.end - p.begin);
  };

  // Group identical rank sequences, numbering groups in plan order. Within
  // one call the slab is fixed, so equal ranks mean equal discs and one
  // localization serves the whole group. Sequences are hashed into an
  // open-addressing table probed linearly; a hash match is confirmed rank by
  // rank, so a collision costs a comparison, never a merge of different disc
  // sets.
  std::vector<std::uint32_t> rep;  // group -> representative planned device
  {
    constexpr std::uint32_t kNoGroup = std::numeric_limits<std::uint32_t>::max();
    struct Slot {
      std::uint64_t hash = 0;
      std::uint32_t group = kNoGroup;
    };
    const std::size_t mask = std::bit_ceil(2 * planned.size() + 1) - 1;
    std::vector<Slot> table(mask + 1);
    for (std::size_t k = 0; k < planned.size(); ++k) {
      const std::span<const std::uint32_t> mine = ranks_of(planned[k]);
      std::uint64_t h = mine.size();
      for (const std::uint32_t r : mine) h = util::hash_combine(h, r);
      const auto other_group = [&](const Slot& slot) {
        return slot.hash != h || !std::ranges::equal(ranks_of(planned[rep[slot.group]]), mine);
      };
      std::size_t at = h & mask;
      while (table[at].group != kNoGroup && other_group(table[at])) at = (at + 1) & mask;
      if (table[at].group == kNoGroup) {
        table[at] = {h, static_cast<std::uint32_t>(rep.size())};
        rep.push_back(static_cast<std::uint32_t>(k));
      }
      planned[k].group = table[at].group;
    }
  }

  const auto t1 = std::chrono::steady_clock::now();

  // Localize each unique disc set once, slotted by group index. Per-chunk
  // scratch (disc vector + M-Loc workspace, region included) is reused
  // across the chunk's groups, so once the buffers have grown the loop
  // body's only allocation is the stored copy of each group's result.
  const std::size_t groups = rep.size();
  std::vector<LocalizationResult> group_results(groups);
  pool.run_chunks(
      groups, util::ThreadPool::balanced_chunk(groups, options_.threads, /*min_chunk=*/4),
      options_.threads, [&](std::size_t, std::size_t begin, std::size_t end) {
        std::vector<geo::Circle> discs;
        MLocScratch scratch;
        for (std::size_t g = begin; g < end; ++g) {
          discs.clear();
          for (const std::uint32_t r : ranks_of(planned[rep[g]])) {
            const double radius =
                std::isnan(slab.radius[r]) ? rule.default_radius_m : slab.radius[r];
            discs.push_back({{slab.x[r], slab.y[r]}, radius});
          }
          group_results[g] = mloc_locate(discs, options_.mloc, scratch);
        }
      });

  const auto t2 = std::chrono::steady_clock::now();

  // Fan the group results back out to their devices in MAC order, so each
  // result lands at the end of the map.
  std::sort(planned.begin(), planned.end(),
            [](const Planned& a, const Planned& b) { return a.mac < b.mac; });
  std::map<net80211::MacAddress, LocalizationResult> results;
  std::size_t outliers = 0;
  for (const Planned& p : planned) {
    if (!group_results[p.group].ok) continue;
    LocalizationResult r = group_results[p.group];
    r.method = rule.method;
    if (rule.fallback) r.used_fallback = true;
    if (r.discs_rejected > 0) ++outliers;
    results.emplace_hint(results.end(), net80211::MacAddress::from_u64(p.mac), std::move(r));
  }
  const auto t3 = std::chrono::steady_clock::now();

  if (profile != nullptr) {
    *profile = {};
    profile->plan_s = seconds_between(t0, t1);
    profile->locate_s = seconds_between(t1, t2);
    profile->merge_s = seconds_between(t2, t3);
    profile->devices = n;
    // The devices without ranks count as the one group of the empty disc set.
    profile->unique_gammas = groups + (planned.size() < n ? 1 : 0);
    profile->outlier_devices = outliers;
  }
  return results;
}

}  // namespace mm::marauder
