#include "marauder/tracker.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "util/rng.h"
#include "util/thread_pool.h"

namespace mm::marauder {

namespace {

double seconds_between(std::chrono::steady_clock::time_point a,
                       std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
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
  ApDatabase db = aploc_build_database(tuples, options.aploc);
  // AP-Loc proceeds exactly like AP-Rad on the trained database.
  TrackerOptions adjusted = options;
  adjusted.algorithm = Algorithm::kApRad;
  adjusted.aprad = options.aploc.aprad;
  Tracker tracker(std::move(db), std::move(adjusted));
  for (const capture::TrainingTuple& tuple : tuples) {
    if (tuple.heard_aps.size() >= 2) tracker.training_evidence_.push_back(tuple.heard_aps);
  }
  return tracker;
}

void Tracker::prepare(const capture::ObservationStore& store,
                      const capture::ObservationWindow& window) {
  if (options_.algorithm != Algorithm::kApRad) {
    prepared_ = true;
    return;
  }
  std::vector<std::set<net80211::MacAddress>> gammas =
      store.session_gammas(options_.session_gap_s, window);
  gammas.insert(gammas.end(), training_evidence_.begin(), training_evidence_.end());
  // One parallelism knob for the whole tracker: the constraint-generation
  // scans inherit locate_all's thread budget.
  ApRadOptions aprad = options_.aprad;
  aprad.threads = options_.threads;
  const auto radii = aprad_estimate_radii(db_, gammas, aprad);
  for (const auto& [mac, radius] : radii) {
    if (radius > 0.0) db_.set_radius(mac, radius);
  }
  prepared_ = true;
}

LocalizationResult Tracker::locate(const capture::ObservationStore& store,
                                   const net80211::MacAddress& device,
                                   const capture::ObservationWindow& window) const {
  std::vector<net80211::MacAddress> gamma;
  store.gamma_append(device, window, gamma);
  switch (options_.algorithm) {
    case Algorithm::kMLoc: {
      LocalizationResult result =
          mloc_locate(db_.discs_for(gamma, options_.default_radius_m), options_.mloc);
      result.method = "M-Loc";
      return result;
    }
    case Algorithm::kApRad: {
      // Radii were materialized into db_ by prepare(); unknown ones fall
      // back to the cap (overestimates preferred, Theorem 3).
      LocalizationResult result =
          mloc_locate(db_.discs_for(gamma, options_.aprad.max_radius_m), options_.aprad.mloc);
      result.method = "AP-Rad";
      // Faultline convention: degrade, don't throw. Without the LP radii
      // the defensible disc set is the Theorem-1 cap for every heard AP —
      // a coarse but covering region — and the result is flagged so the
      // display can grey it out.
      if (!prepared_) result.used_fallback = true;
      return result;
    }
    case Algorithm::kApLoc:
      throw std::logic_error("Tracker: AP-Loc trackers run as AP-Rad after training");
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
  if (options_.algorithm == Algorithm::kMLoc || options_.algorithm == Algorithm::kApRad) {
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
  const std::vector<net80211::MacAddress> devices = store.devices();
  const std::size_t n = devices.size();

  // Force the database's lazy views once, up front: the workers below only
  // ever read them (no per-probe mutex).
  const ApDatabase::DiscSlabView slab = db_.disc_slab();
  const ApDatabase::RankMap& ranks = db_.rank_index();

  const bool aprad = options_.algorithm == Algorithm::kApRad;
  const double default_radius =
      aprad ? options_.aprad.max_radius_m : options_.default_radius_m;
  const MLocOptions& mloc_opts = aprad ? options_.aprad.mloc : options_.mloc;
  const char* method = aprad ? "AP-Rad" : "M-Loc";

  util::ThreadPool& pool = util::ThreadPool::shared();

  // Plan: per-device slab ranks (ascending, because Gamma is sorted and the
  // slab is BSSID-ordered) and a hash of them. Both are slotted by device
  // index, so the plan is identical at any parallelism. The ranks are the
  // ones discs_for(gamma, default_radius) would look up, in the same order.
  std::vector<std::vector<std::uint32_t>> device_ranks(n);
  std::vector<std::uint64_t> keys(n);
  pool.run_chunks(
      n, util::ThreadPool::balanced_chunk(n, options_.threads), options_.threads,
      [&](std::size_t, std::size_t begin, std::size_t end) {
        std::vector<net80211::MacAddress> gamma;  // reused across the chunk
        for (std::size_t i = begin; i < end; ++i) {
          gamma.clear();
          store.gamma_append(devices[i], window, gamma);
          std::vector<std::uint32_t>& dr = device_ranks[i];
          dr.reserve(gamma.size());
          for (const net80211::MacAddress& mac : gamma) {
            const auto it = ranks.find(mac);
            if (it != ranks.end()) dr.push_back(it->second);
          }
          std::uint64_t h = dr.size();
          for (const std::uint32_t r : dr) h = util::hash_combine(h, r);
          keys[i] = h;
        }
      });

  // Group identical rank sequences, walking devices in index (= ascending
  // MAC) order so group numbering is deterministic. Within one call the slab
  // is fixed, so equal ranks mean equal discs and one localization serves
  // the whole group; a hash collision only lands in the candidate scan.
  constexpr std::uint32_t kNoGroup = std::numeric_limits<std::uint32_t>::max();
  std::vector<std::uint32_t> group_of(n, 0);
  std::vector<std::uint32_t> rep;  // group -> representative device
  {
    std::unordered_map<std::uint64_t, std::vector<std::uint32_t>> index;
    index.reserve(n * 2);
    for (std::size_t i = 0; i < n; ++i) {
      std::vector<std::uint32_t>& candidates = index[keys[i]];
      std::uint32_t g = kNoGroup;
      for (const std::uint32_t cand : candidates) {
        if (device_ranks[rep[cand]] == device_ranks[i]) {
          g = cand;
          break;
        }
      }
      if (g == kNoGroup) {
        g = static_cast<std::uint32_t>(rep.size());
        rep.push_back(static_cast<std::uint32_t>(i));
        candidates.push_back(g);
      }
      group_of[i] = g;
    }
  }

  const auto t1 = std::chrono::steady_clock::now();

  // Localize each unique disc set once, slotted by group index. Per-chunk
  // scratch (disc vector + M-Loc workspace) is reused across the chunk's
  // groups, so the loop body allocates nothing once the buffers have grown.
  const std::size_t groups = rep.size();
  std::vector<LocalizationResult> group_results(groups);
  pool.run_chunks(
      groups, util::ThreadPool::balanced_chunk(groups, options_.threads, /*min_chunk=*/4),
      options_.threads, [&](std::size_t, std::size_t begin, std::size_t end) {
        std::vector<geo::Circle> discs;
        MLocScratch scratch;
        for (std::size_t g = begin; g < end; ++g) {
          discs.clear();
          for (const std::uint32_t r : device_ranks[rep[g]]) {
            const double radius =
                std::isnan(slab.radius[r]) ? default_radius : slab.radius[r];
            discs.push_back({{slab.x[r], slab.y[r]}, radius});
          }
          group_results[g] = mloc_locate(discs, mloc_opts, scratch);
        }
      });

  const auto t2 = std::chrono::steady_clock::now();

  // Fan the group results back out to their devices and fold into the map in
  // ascending-MAC order — the exact sequence the serial per-device loop
  // produced. Unprepared AP-Rad results carry the Faultline fallback flag,
  // matching locate().
  const bool force_fallback = aprad && !prepared_;
  std::map<net80211::MacAddress, LocalizationResult> results;
  std::size_t outliers = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const LocalizationResult& group_result = group_results[group_of[i]];
    if (!group_result.ok) continue;
    LocalizationResult r = group_result;
    r.method = method;
    if (force_fallback) r.used_fallback = true;
    if (r.discs_rejected > 0) ++outliers;
    results.emplace(devices[i], std::move(r));
  }
  const auto t3 = std::chrono::steady_clock::now();

  if (profile != nullptr) {
    *profile = {};
    profile->plan_s = seconds_between(t0, t1);
    profile->locate_s = seconds_between(t1, t2);
    profile->merge_s = seconds_between(t2, t3);
    profile->devices = n;
    profile->unique_gammas = groups;
    profile->outlier_devices = outliers;
  }
  return results;
}

}  // namespace mm::marauder
