// offline_city: a recorded city capture becomes a finished map the way the
// operator builds one after the fact — pcap bytes replayed into a store,
// radii for the APs that have none estimated with AP-Rad, one locate_all
// per 30 s window on a single Tracker, identities resolved with every
// signal, then one trajectory per identity.
#include <algorithm>
#include <bit>
#include <cmath>
#include <sstream>

#include "capture/replay.h"
#include "city.h"
#include "marauder/aprad.h"
#include "marauder/identity.h"
#include "marauder/trajectory.h"
#include "trace.h"
#include "workloads.h"

namespace mm::perfbench {

namespace {

namespace fs = std::filesystem;

constexpr double kWindowS = 30.0;
constexpr std::size_t kThreads = 2;
constexpr double kNominalRepS = 3.5;
/// The central district whose radii the attacker lacks (positions from a
/// wardriving database, radii unknown: the paper's AP-Rad setting). Its 40
/// APs give AP-Rad's dense LP 39 variables; at 60 APs one prepare takes
/// 1.3 s and would be most of the repetition.
constexpr std::size_t kDistrictAps = 40;

struct CityCapture {
  Trace trace;  ///< ground truth; the frames themselves are dropped once written
  std::uint64_t frames = 0;
  std::uint64_t pcap_bytes = 0;
};

struct Rep {
  double total_s = 0.0;
  double replay_s = 0.0;
  double radii_s = 0.0;
  double locate_s = 0.0;
  double ingest_s = 0.0;
  double resolve_s = 0.0;
  double track_s = 0.0;
  capture::ReplayStats replay;
  std::size_t radii = 0;
  std::size_t bad_radii = 0;  ///< non-finite, non-positive or above max_radius_m
  /// AP-Rad's constraint census (first and traced repetitions only): its
  /// generation time, LP variables, "<" rows and co-observed pairs.
  double constraint_s = 0.0;
  marauder::ApRadConstraints constraints;
  marauder::LocateAllProfile profile;  ///< summed over windows
  std::size_t windows = 0;
  std::size_t located = 0;
  std::size_t failed_localizations = 0;
  marauder::GammaCacheStats memo;
  marauder::ResolverStats resolver;
  std::size_t identities = 0;
  std::size_t points = 0;
  std::size_t degraded_points = 0;
  util::SampleSet errors;
  TrackingScore tracking;
  std::uint64_t digest = 0;
  bool threads_identical = true;
};

void digest_results(Digest& d,
                    const std::map<net80211::MacAddress, marauder::LocalizationResult>& map) {
  for (const auto& [mac, r] : map) {
    d.add(mac.to_u64());
    d.add(static_cast<std::uint64_t>(r.ok) | (static_cast<std::uint64_t>(r.num_aps) << 8));
    d.add(r.estimate.x);
    d.add(r.estimate.y);
  }
}

marauder::TrackerOptions aprad_options() {
  marauder::TrackerOptions options;
  options.algorithm = marauder::Algorithm::kApRad;
  options.threads = 1;  // the LP is serial
  return options;
}

/// The kDistrictAps APs nearest the city centre, positions only.
marauder::ApDatabase district_database(const Trace& trace) {
  std::vector<sim::ApTruth> aps = trace.aps;
  std::stable_sort(aps.begin(), aps.end(), [](const sim::ApTruth& a, const sim::ApTruth& b) {
    return a.position.norm() < b.position.norm();
  });
  aps.resize(std::min(kDistrictAps, aps.size()));
  return marauder::ApDatabase::from_truth(aps, /*include_radii=*/false);
}

/// `first` adds, outside the timed path, the thread-count check and AP-Rad's
/// constraint census.
Rep one_rep(const CityCapture& input, const fs::path& pcap, const marauder::ApDatabase& db,
            const marauder::ApDatabase& district, bool first) {
  const Trace& trace = input.trace;
  Rep rep;
  Digest digest;
  const double t0 = now_s();

  capture::ObservationStore store;
  {
    const Scope span("replay", "replay_pcap");
    auto replayed = capture::replay_pcap(pcap, store);
    if (replayed.ok()) rep.replay = replayed.value();
  }
  const double t_replayed = now_s();

  marauder::Tracker radii(district, aprad_options());
  {
    const Scope span("aprad", "prepare");
    radii.prepare(store);
  }
  const double t1 = now_s();
  const double cap = radii.options().aprad.max_radius_m;
  for (const marauder::KnownAp* ap : radii.database().sorted_records()) {
    if (!ap->radius_m) continue;
    ++rep.radii;
    const double r = *ap->radius_m;
    digest.add(r);
    if (!std::isfinite(r) || r <= 0.0 || r > cap) ++rep.bad_radii;
  }

  marauder::Tracker tracker(db, {.algorithm = marauder::Algorithm::kMLoc, .threads = kThreads});
  for (double begin = 0.0; begin < trace.config.duration_s; begin += kWindowS) {
    const capture::ObservationWindow window{begin, begin + kWindowS};
    marauder::LocateAllProfile p;
    std::map<net80211::MacAddress, marauder::LocalizationResult> located;
    {
      const Scope span("tracker", "locate_all");
      located = tracker.locate_all(store, window, &p);
    }
    rep.profile.plan_s += p.plan_s;
    rep.profile.locate_s += p.locate_s;
    rep.profile.merge_s += p.merge_s;
    rep.profile.devices += p.devices;
    rep.profile.unique_gammas += p.unique_gammas;
    rep.profile.outlier_devices += p.outlier_devices;
    ++rep.windows;
    for (const auto& [mac, r] : located) {
      if (r.ok) ++rep.located;
      if (!r.ok && r.num_aps > 0) ++rep.failed_localizations;
    }
    digest_results(digest, located);
  }
  const double t2 = now_s();

  marauder::IdentityResolver resolver(city_resolver());
  {
    const Scope span("identity", "ingest_store");
    resolver.ingest_store(store);
  }
  const double t3 = now_s();
  marauder::IdentityMap identities;
  {
    const Scope span("identity", "resolve");
    identities = resolver.resolve();
  }
  const double t4 = now_s();
  std::vector<marauder::IdentityTrack> tracks;
  {
    const Scope span("trajectory", "build_identity_trajectories");
    tracks = marauder::build_identity_trajectories(tracker, store, identities);
  }
  const double t5 = now_s();

  rep.replay_s = t_replayed - t0;
  rep.radii_s = t1 - t_replayed;
  rep.locate_s = t2 - t1;
  rep.ingest_s = t3 - t2;
  rep.resolve_s = t4 - t3;
  rep.track_s = t5 - t4;
  rep.total_s = t5 - t0;
  rep.memo = tracker.gamma_cache_stats();
  rep.resolver = resolver.last_stats();
  rep.identities = identities.size();
  digest.add(digest_identities(identities));

  // Accuracy over pure track points (the point's pseudonym belongs to the
  // device its identity is attributed to), judged against the mobility truth.
  const std::vector<std::size_t> owner_of = attribute_identities(trace, identities);
  for (const marauder::IdentityTrack& track : tracks) {
    const std::size_t device = owner_of[track.identity];
    for (const marauder::TrackPoint& point : track.points) {
      ++rep.points;
      if (point.degraded) ++rep.degraded_points;
      digest.add(point.position.x);
      digest.add(point.position.y);
      const auto own = trace.owner.find(point.mac);
      if (own == trace.owner.end() || own->second != device) continue;
      rep.errors.add(point.position.distance_to(trace.mobility[device]->position(point.time)));
    }
  }
  rep.tracking = score_tracking(trace, identities, {&store});

  rep.digest = digest.value();

  if (first) {
    const double c0 = now_s();
    {
      const Scope span("aprad", "constraints");
      rep.constraints = marauder::aprad_prepare_constraints(
          district, store.session_gammas(aprad_options().session_gap_s), aprad_options().aprad);
    }
    rep.constraint_s = now_s() - c0;
    // One window, serial vs threaded: bit-identical maps.
    const capture::ObservationWindow window{0.5 * trace.config.duration_s,
                                            0.5 * trace.config.duration_s + kWindowS};
    const marauder::Tracker serial(db, {.algorithm = marauder::Algorithm::kMLoc, .threads = 1});
    Digest a;
    Digest b;
    digest_results(a, serial.locate_all(store, window));
    digest_results(b, tracker.locate_all(store, window));
    rep.threads_identical = a.value() == b.value();
  }
  return rep;
}

std::string counters_json(const Rep& r) {
  std::ostringstream out;
  out << "{\"LocateAllProfile\": {\"windows\": " << r.windows << ", \"plan_s\": "
      << json_number(r.profile.plan_s) << ", \"locate_s\": " << json_number(r.profile.locate_s)
      << ", \"merge_s\": " << json_number(r.profile.merge_s)
      << ", \"devices\": " << r.profile.devices
      << ", \"unique_gammas\": " << r.profile.unique_gammas
      << ", \"outlier_devices\": " << r.profile.outlier_devices << "}"
      << ", \"GammaCacheStats\": {\"hits\": " << r.memo.hits << ", \"misses\": " << r.memo.misses
      << "}, \"ReplayStats\": {\"records\": " << r.replay.records
      << ", \"malformed\": " << r.replay.malformed
      << ", \"probe_requests\": " << r.replay.probe_requests
      << ", \"probe_responses\": " << r.replay.probe_responses
      << ", \"beacons\": " << r.replay.beacons << ", \"other\": " << r.replay.other << "}"
      << ", \"ResolverStats\": {\"devices\": " << r.resolver.devices
      << ", \"ssid_edges\": " << r.resolver.ssid_edges
      << ", \"seq_edges\": " << r.resolver.seq_edges
      << ", \"gamma_edges\": " << r.resolver.gamma_edges
      << ", \"linked_pairs\": " << r.resolver.linked_pairs
      << ", \"identities\": " << r.resolver.identities << "}"
      << ", \"ApRadConstraints\": {\"observed\": " << r.constraints.observed.size()
      << ", \"less_rows\": " << r.constraints.less_rows.size()
      << ", \"co_pairs\": " << r.constraints.co_pairs.size()
      << ", \"constraint_s\": " << json_number(r.constraint_s) << "}}";
  return out.str();
}

}  // namespace

RunResult run_offline_city(const Options& options) {
  RunResult result;
  const fs::path pcap = options.scratch / "city.pcap";
  util::SampleSet setup_s;
  std::vector<std::uint64_t> setup_digests;
  const CityCapture input = timed_setups(kSetups, setup_s, [&] {
    CityCapture c;
    c.trace = generate_trace(city_config(options.seed));
    c.pcap_bytes = write_pcap(c.trace, pcap);
    c.frames = c.trace.frames.size();
    setup_digests.push_back(digest_trace(c.trace) ^ c.pcap_bytes);
    c.trace.frames = std::vector<TraceFrame>();  // frees the storage (`= {}` keeps it)
    return c;
  });
  result.check(std::equal(setup_digests.begin() + 1, setup_digests.end(), setup_digests.begin()),
               "set-ups produced different captures");
  const marauder::ApDatabase db = city_database(input.trace);
  const marauder::ApDatabase district = district_database(input.trace);

  result.check(reset_peak_rss(), "could not reset the peak RSS after the set-ups");
  const int reps = reps_for(options.seconds, kNominalRepS, 2);
  std::vector<Rep> runs;
  for (int i = 0; i < reps; ++i) {
    runs.push_back(one_rep(input, pcap, db, district, i == 0));
  }
  const double peak_mb = peak_rss_mb();

  const Rep& first = runs.front();
  const std::uint64_t frames = input.frames;
  for (const Rep& r : runs) {
    result.attempted += r.replay.records + r.radii + r.profile.devices;
    result.check(r.replay.records == frames && r.replay.malformed == 0,
                 "replay lost or quarantined records", r.replay.malformed + 1);
    result.check(r.radii > 0 && r.bad_radii == 0,
                 "AP-Rad radii missing, non-finite or above max_radius_m", r.bad_radii);
    result.check(r.failed_localizations == 0, "locate_all failed on a non-empty Gamma",
                 r.failed_localizations);
    result.check(r.digest == first.digest, "repetitions produced different maps");
  }
  result.check(first.threads_identical, "locate_all differs between 1 and 2 threads");
  result.check(!first.errors.empty(), "no track point to score against the truth");

  util::SampleSet total;
  for (const Rep& r : runs) total.add(r.total_s);
  log_reps(options.workload, total);
  result.e2e("setup_s", setup_s.median(), "s");
  result.e2e("total_s", total.median(), "s");
  result.e2e("median_error_m", first.errors.empty() ? 0.0 : first.errors.median(), "m");
  result.e2e("peak_rss_mb", peak_mb, "MB");

  result.work = {{"frames", static_cast<double>(frames)},
                 {"pcap_bytes", static_cast<double>(input.pcap_bytes)},
                 {"pseudonyms", static_cast<double>(first.resolver.devices)},
                 {"lp_vars", static_cast<double>(first.constraints.observed.size())},
                 {"less_rows", static_cast<double>(first.constraints.less_rows.size())},
                 {"co_pairs", static_cast<double>(first.constraints.co_pairs.size())},
                 {"radii", static_cast<double>(first.radii)},
                 {"windows", static_cast<double>(first.windows)},
                 {"unique_gammas", static_cast<double>(first.profile.unique_gammas)},
                 {"identities", static_cast<double>(first.identities)},
                 {"track_points", static_cast<double>(first.points)},
                 {"reps", static_cast<double>(reps)},
                 {"pct_tracked", first.tracking.pct()}};

  if (options.trace) {
    Tracer::clear();
    Tracer::set_enabled(true);
    const Rep traced = one_rep(input, pcap, db, district, /*first=*/true);
    Tracer::set_enabled(false);
    add_layer_times(result);
    result.layer("trace.overhead_s", traced.total_s - total.median(), "s");
    result.layer("frames_per_s", static_cast<double>(traced.replay.records) / traced.replay_s,
                 "frames/s");
    result.layer("radii_s", traced.radii_s, "s");
    result.layer("aprad.constraint_s", traced.constraint_s, "s");
    result.layer("aprad.lp_s", traced.radii_s - traced.constraint_s, "s");
    result.layer("aprad.lp_vars", static_cast<double>(traced.constraints.observed.size()),
                 "count");
    result.layer("aprad.less_rows", static_cast<double>(traced.constraints.less_rows.size()),
                 "count");
    result.layer("aprad.co_pairs", static_cast<double>(traced.constraints.co_pairs.size()),
                 "count");
    result.layer("locate_s", traced.locate_s, "s");
    result.layer("resolve_s", traced.ingest_s + traced.resolve_s, "s");
    result.layer("track_s", traced.track_s, "s");
    result.layer("pct_tracked", traced.tracking.pct(), "%");
    result.layer("replay.records", static_cast<double>(traced.replay.records), "count");
    result.layer("replay.malformed", static_cast<double>(traced.replay.malformed), "count");
    result.layer("replay.devices", static_cast<double>(traced.resolver.devices), "count");
    result.layer("tracker.plan_s", traced.profile.plan_s, "s");
    result.layer("tracker.locate_s", traced.profile.locate_s, "s");
    result.layer("tracker.merge_s", traced.profile.merge_s, "s");
    result.layer("tracker.unique_gamma_ratio",
                 static_cast<double>(traced.profile.unique_gammas) /
                     static_cast<double>(std::max<std::size_t>(traced.profile.devices, 1)),
                 "ratio");
    const double lookups = static_cast<double>(traced.memo.hits + traced.memo.misses);
    result.layer("tracker.memo_hit_ratio",
                 lookups == 0.0 ? 0.0 : static_cast<double>(traced.memo.hits) / lookups, "ratio");
    result.layer("tracker.outlier_devices", static_cast<double>(traced.profile.outlier_devices),
                 "count");
    result.layer("identity.ingest_s", traced.ingest_s, "s");
    result.layer("identity.resolve_s", traced.resolve_s, "s");
    result.layer("identity.ssid_edges", static_cast<double>(traced.resolver.ssid_edges), "count");
    result.layer("identity.seq_edges", static_cast<double>(traced.resolver.seq_edges), "count");
    result.layer("identity.gamma_edges", static_cast<double>(traced.resolver.gamma_edges),
                 "count");
    result.layer("identity.linked_pairs", static_cast<double>(traced.resolver.linked_pairs),
                 "count");
    result.layer("identity.identities", static_cast<double>(traced.identities), "count");
    result.layer("trajectory.points", static_cast<double>(traced.points), "count");
    result.layer("trajectory.degraded_points", static_cast<double>(traced.degraded_points),
                 "count");
    result.counters_json = counters_json(traced);
  }
  return result;
}

}  // namespace mm::perfbench
