// live_fabric: three remote sniffer sites stream Lattice wire frames (FEC
// k=8 over a lossy, duplicating, reordering link) into one 2-shard
// LiveTracker through SnifferFeedMux, with the WAL and checkpoints on. One
// pump thread feeds the sites' bytes round-robin at full speed (kBlock), a
// client asks locate() on a fixed open-loop schedule meanwhile, and the
// finished map is resolved into identities, each located.
#include <atomic>
#include <chrono>
#include <sstream>
#include <thread>

#include "city.h"
#include "durability/wal.h"
#include "fault/fault_plan.h"
#include "marauder/identity.h"
#include "net/fec.h"
#include "net/link_sim.h"
#include "net/wire_codec.h"
#include "pipeline/feed_mux.h"
#include "pipeline/live_tracker.h"
#include "trace.h"
#include "util/rng.h"
#include "workloads.h"

namespace mm::perfbench {

namespace {

namespace fs = std::filesystem;

constexpr std::size_t kBlockK = 8;
constexpr std::size_t kShards = 2;
constexpr std::size_t kChunkBytes = 64 * 1024;
/// Share of FEC blocks losing one of their k+1 frames (~1% of frames).
constexpr double kBlockLossRate = 0.09;
constexpr std::size_t kQueries = 1500;
constexpr double kQueryPeriodS = 400e-6;
/// Queries ask for pseudonyms first heard in this leading share of each
/// site's stream, once the pump is this many events further on.
constexpr double kQueryPrefix = 0.15;
constexpr std::size_t kQueryLeadEvents = 60000;
constexpr double kNominalRepS = 2.4;

struct Site {
  std::vector<std::uint8_t> bytes;
  std::size_t ready_bytes = 0;  ///< fed this far, every query target is applied
  std::uint64_t block_losses = 0;
};

struct LiveInput {
  Trace trace;  ///< ground truth; the frames themselves are dropped once encoded
  std::vector<Site> sites;
  std::uint64_t events = 0;
  std::vector<net80211::MacAddress> query_macs;
  std::uint64_t digest = 0;  ///< capture + wire bytes
};

/// One site's event stream through the FEC encoder, a block-aligned loss
/// (at most one frame of each k+1, so parity always recovers it) and a
/// seeded LinkSimulator that duplicates and reorders.
Site encode_site(const std::vector<capture::FrameEvent>& events, std::uint32_t stream_id,
                 std::uint64_t seed) {
  Site site;
  net::FecEncoder encoder(stream_id, kBlockK);
  fault::FaultPlan plan;
  plan.duplicate_rate = 0.005;
  plan.reorder_rate = 0.005;
  plan.reorder_depth_max = 3;
  plan.seed = util::hash_combine(seed, 0x11A7u + stream_id);
  net::LinkSimulator link(plan);
  util::Rng loss(util::hash_combine(seed, 0x1055u + stream_id));
  std::size_t in_block = 0;
  std::int64_t drop_at = -1;
  const auto send = [&](std::span<const std::uint8_t> frame) {
    if (in_block == 0) {
      drop_at = loss.bernoulli(kBlockLossRate) ? loss.uniform_int(0, kBlockK) : -1;
    }
    if (static_cast<std::int64_t>(in_block) == drop_at) {
      ++site.block_losses;
    } else {
      link.send(frame);
    }
    in_block = (in_block + 1) % (kBlockK + 1);
  };
  const auto drain = [&] {
    const std::vector<std::uint8_t> out = link.take();
    site.bytes.insert(site.bytes.end(), out.begin(), out.end());
  };
  const auto ready_at = static_cast<std::size_t>(kQueryPrefix * static_cast<double>(events.size())) +
                        kQueryLeadEvents;
  // Encoding each event into its own scratch buffer keeps the encoder
  // linear (append_wire_frame reserves exactly the bytes it appends).
  std::vector<std::uint8_t> scratch;
  // Sized up front (data + parity + duplicates, with room to spare): a
  // doubling vector's transient copy would make the peak RSS depend on
  // where the last doubling falls.
  site.bytes.reserve(events.size() * (net::kWireHeaderBytes + durability::kWalPayloadBytes) *
                         (kBlockK + 1) / kBlockK * 21 / 20 +
                     (1 << 20));
  for (std::size_t i = 0; i < events.size(); ++i) {
    scratch.clear();
    encoder.push(i + 1, events[i], scratch);
    net::for_each_wire_frame(scratch, send);
    if (i % 1024 == 1023) drain();
    if (i == ready_at) {
      drain();
      site.ready_bytes = site.bytes.size();
    }
  }
  scratch.clear();
  encoder.flush(scratch);
  net::for_each_wire_frame(scratch, send);
  link.flush();
  drain();
  if (site.ready_bytes == 0) site.ready_bytes = site.bytes.size();
  return site;
}

LiveInput make_input(std::uint64_t seed) {
  LiveInput in;
  in.trace = generate_trace(city_config(seed));
  const std::vector<std::vector<capture::FrameEvent>> per_site = site_events(in.trace);
  for (std::size_t s = 0; s < per_site.size(); ++s) {
    in.sites.push_back(encode_site(per_site[s], static_cast<std::uint32_t>(s + 1), seed));
    in.events += per_site[s].size();
    // Query targets: pseudonyms whose first Gamma contact falls in the
    // leading share of this site's stream (published long before the pump
    // passes ready_bytes).
    const auto prefix =
        static_cast<std::size_t>(kQueryPrefix * static_cast<double>(per_site[s].size()));
    for (std::size_t i = 0; i < prefix; ++i) {
      const capture::FrameEvent& e = per_site[s][i];
      if (e.kind == capture::FrameEventKind::kContact) in.query_macs.push_back(e.device);
    }
  }
  std::sort(in.query_macs.begin(), in.query_macs.end());
  in.query_macs.erase(std::unique(in.query_macs.begin(), in.query_macs.end()),
                      in.query_macs.end());
  Digest d;
  d.add(digest_trace(in.trace));
  for (const Site& site : in.sites) d.add_bytes(site.bytes);
  in.digest = d.value();
  in.trace.frames = std::vector<TraceFrame>();  // frees the storage (`= {}` keeps it)
  return in;
}

struct Rep {
  double total_s = 0.0;
  double ingest_s = 0.0;
  double drain_s = 0.0;
  double stop_s = 0.0;
  double resolve_s = 0.0;
  double locate_identities_s = 0.0;
  pipeline::FeedMuxStats mux;
  pipeline::PipelineStats pipeline;
  util::SampleSet latency_us;
  util::SampleSet lateness_us;
  std::size_t unanswered = 0;
  std::size_t identities = 0;
  std::size_t identities_unlocated = 0;
  std::uint64_t live_digest = 0;      ///< identities + their located positions
  std::uint64_t live_identities = 0;  ///< digest of resolve_identities()
  std::uint64_t batch_identities = 0; ///< IdentityResolver over the shard stores
  bool verified = false;              ///< batch_identities computed
  marauder::ResolverStats resolver;
  util::SampleSet errors;
  TrackingScore tracking;
};

/// The open-loop "where is X" client: query i is due at start + i * period
/// and its latency runs from that due time, so a late client shows up in
/// the number (and separately as lateness).
void run_client(pipeline::LiveTracker& tracker, const std::vector<net80211::MacAddress>& macs,
                const std::atomic<bool>& go, Rep& rep) {
  while (!go.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  if (macs.empty()) return;
  const double start = now_s();
  for (std::size_t i = 0; i < kQueries; ++i) {
    const double due = start + static_cast<double>(i) * kQueryPeriodS;
    // Sleep most of the gap, spin the last stretch (a sleeping thread wakes
    // tens of microseconds late).
    for (double t = now_s(); t < due; t = now_s()) {
      if (due - t > 150e-6) {
        std::this_thread::sleep_for(std::chrono::duration<double>(due - t - 120e-6));
      }
    }
    const double called = now_s();
    std::optional<pipeline::LivePosition> position;
    {
      const Scope span("locate", "locate");
      position = tracker.locate(macs[(i * 7919) % macs.size()]);
    }
    const double done = now_s();
    rep.latency_us.add((done - due) * 1e6);
    rep.lateness_us.add((called - due) * 1e6);
    if (!position) ++rep.unanswered;
  }
}

std::uint64_t shard_frames(const pipeline::LiveTracker& tracker) {
  std::uint64_t n = 0;
  for (std::size_t s = 0; s < tracker.shard_count(); ++s) n += tracker.shard_health(s).frames;
  return n;
}

/// `verify` adds the batch comparison: an IdentityResolver over the shard
/// stores, which must equal the live resolution (its counters also feed the
/// traced run).
Rep one_rep(const LiveInput& in, const marauder::ApDatabase& db, const fs::path& dir,
            bool verify) {
  Rep rep;
  pipeline::LiveTrackerConfig config;
  config.shards = kShards;
  config.drop_policy = pipeline::DropPolicy::kBlock;
  config.durability.dir = dir;
  // Production cadence (mmctl live): group commit every 256 records,
  // checkpoints every 30 s. The run's files sit on whatever disk holds the
  // checkout, where one fsync takes 0.5-20 ms; so nothing fsyncs while
  // frames flow (no per-commit fsync, and segments large enough never to
  // rotate mid-run — a rotation fsyncs the sealed segment and stalls its
  // shard). stop() still seals and checkpoints with fsync.
  config.durability.wal.fsync_on_commit = false;
  config.durability.wal.segment_bytes = std::size_t{1} << 30;
  config.durability.checkpoint_interval_s = 30.0;
  pipeline::LiveTracker tracker(db, config);
  (void)tracker.recover();
  tracker.start();
  pipeline::SnifferFeedMux mux(tracker);
  for (std::size_t s = 0; s < in.sites.size(); ++s) {
    mux.add_feed(static_cast<std::uint32_t>(s + 1));
  }

  std::atomic<bool> go{false};
  std::thread client(run_client, std::ref(tracker), std::cref(in.query_macs), std::cref(go),
                     std::ref(rep));

  const double t0 = now_s();
  std::vector<std::size_t> offset(in.sites.size(), 0);
  for (bool more = true; more;) {
    more = false;
    bool ready = true;
    for (std::size_t s = 0; s < in.sites.size(); ++s) {
      const std::vector<std::uint8_t>& bytes = in.sites[s].bytes;
      const std::size_t n = std::min(kChunkBytes, bytes.size() - offset[s]);
      if (n > 0) {
        const Scope span("feed_mux", "on_bytes");
        mux.on_bytes(s, {bytes.data() + offset[s], n});
        offset[s] += n;
      }
      more = more || offset[s] < bytes.size();
      ready = ready && offset[s] >= in.sites[s].ready_bytes;
    }
    if (ready) go.store(true, std::memory_order_release);
  }
  {
    const Scope span("feed_mux", "finish");
    mux.finish();
  }
  go.store(true, std::memory_order_release);
  const double t_pumped = now_s();
  rep.mux = mux.stats();
  {
    const Scope span("shard", "drain");
    while (shard_frames(tracker) < rep.mux.events_delivered) std::this_thread::yield();
  }
  const double t_applied = now_s();
  client.join();
  const double t_stop = now_s();
  {
    const Scope span("wal", "stop");
    tracker.stop();
  }
  const double t_stopped = now_s();
  marauder::IdentityMap identities;
  {
    const Scope span("identity", "resolve_identities");
    identities = tracker.resolve_identities(city_resolver());
  }
  const double t_resolved = now_s();
  std::vector<std::optional<pipeline::LivePosition>> located;
  located.reserve(identities.size());
  for (const marauder::ResolvedIdentity& identity : identities.identities) {
    const Scope span("locate", "locate_identity");
    located.push_back(tracker.locate_identity(identity));
  }
  const double t_located = now_s();

  rep.ingest_s = t_applied - t0;
  rep.drain_s = t_applied - t_pumped;
  rep.stop_s = t_stopped - t_stop;
  rep.resolve_s = t_resolved - t_stopped;
  rep.locate_identities_s = t_located - t_resolved;
  // Bytes to located identities, leaving out the engine's shutdown (its
  // fsyncs are the disk's time) and any wait for the query client.
  rep.total_s = rep.ingest_s + rep.resolve_s + rep.locate_identities_s;
  rep.pipeline = tracker.stats();
  rep.identities = identities.size();

  // Outputs, checked outside the timed path.
  std::vector<const capture::ObservationStore*> stores;
  for (std::size_t s = 0; s < tracker.shard_count(); ++s) {
    stores.push_back(&tracker.shard_store(s));
  }
  rep.live_identities = digest_identities(identities);
  if (verify) {
    marauder::IdentityResolver batch(city_resolver());
    for (const capture::ObservationStore* store : stores) batch.ingest_store(*store);
    rep.batch_identities = digest_identities(batch.resolve());
    rep.resolver = batch.last_stats();
    rep.verified = true;
  }
  Digest live_digest;
  live_digest.add(rep.live_identities);
  for (std::size_t i = 0; i < identities.size(); ++i) {
    bool locatable = false;
    for (const net80211::MacAddress& mac : identities.identities[i].macs) {
      for (const capture::ObservationStore* store : stores) {
        const capture::DeviceRecord* rec = store->device(mac);
        locatable = locatable || (rec != nullptr && !rec->contacts.empty());
      }
    }
    if (located[i]) {
      live_digest.add(located[i]->x_m);
      live_digest.add(located[i]->y_m);
    } else if (locatable) {
      ++rep.identities_unlocated;
    }
  }
  rep.live_digest = live_digest.value();
  rep.tracking = score_tracking(in.trace, identities, stores);
  // Accuracy of the live map: every published pseudonym position against
  // its device's true position at the capture time that produced it.
  for (const auto& [mac, position] : tracker.snapshot()) {
    const auto own = in.trace.owner.find(mac);
    if (own == in.trace.owner.end() || position.ok == 0) continue;
    const geo::Vec2 truth = in.trace.mobility[own->second]->position(position.updated_at_s);
    rep.errors.add(truth.distance_to({position.x_m, position.y_m}));
  }
  return rep;
}

std::string counters_json(const Rep& r) {
  std::ostringstream out;
  out << "{\"FeedMuxStats\": {\"events_delivered\": " << r.mux.events_delivered
      << ", \"events_dropped\": " << r.mux.events_dropped
      << ", \"last_stream_seq\": " << r.mux.last_stream_seq << ", \"feeds\": [";
  for (std::size_t i = 0; i < r.mux.feeds.size(); ++i) {
    const pipeline::FeedStats& f = r.mux.feeds[i];
    out << (i == 0 ? "" : ", ") << "{\"stream_id\": " << f.stream_id
        << ", \"bytes_fed\": " << f.wire.bytes_fed
        << ", \"frames_decoded\": " << f.wire.frames_decoded
        << ", \"resync_bytes\": " << f.wire.resync_bytes
        << ", \"crc_failures\": " << f.wire.crc_failures
        << ", \"data_frames\": " << f.fec.data_frames
        << ", \"parity_frames\": " << f.fec.parity_frames
        << ", \"duplicates\": " << f.fec.duplicates
        << ", \"out_of_order\": " << f.fec.out_of_order
        << ", \"recovered\": " << f.fec.recovered
        << ", \"unrecoverable_gaps\": " << f.fec.unrecoverable_gaps
        << ", \"events_delivered\": " << f.events_delivered << "}";
  }
  out << "]}, \"PipelineStats\": {\"elapsed_s\": " << json_number(r.pipeline.elapsed_s)
      << ", \"total_frames\": " << r.pipeline.total_frames
      << ", \"total_dropped\": " << r.pipeline.total_dropped
      << ", \"directory_size\": " << r.pipeline.directory_size
      << ", \"total_wal_records\": " << r.pipeline.total_wal_records
      << ", \"total_checkpoints\": " << r.pipeline.total_checkpoints
      << ", \"locate_count\": " << r.pipeline.locate_count
      << ", \"locate_p50_us\": " << json_number(r.pipeline.locate_p50_us)
      << ", \"locate_p99_us\": " << json_number(r.pipeline.locate_p99_us) << ", \"shards\": [";
  for (std::size_t i = 0; i < r.pipeline.shards.size(); ++i) {
    const pipeline::ShardStats& s = r.pipeline.shards[i];
    out << (i == 0 ? "" : ", ") << "{\"frames\": " << s.frames
        << ", \"contacts\": " << s.contacts << ", \"publishes\": " << s.publishes
        << ", \"incremental_updates\": " << s.incremental_updates
        << ", \"full_recomputes\": " << s.full_recomputes << ", \"devices\": " << s.devices
        << ", \"ring_high_water\": " << s.ring_high_water
        << ", \"ring_dropped\": " << s.ring_dropped << ", \"wal_records\": " << s.wal_records
        << ", \"wal_commits\": " << s.wal_commits << ", \"wal_fsyncs\": " << s.wal_fsyncs
        << ", \"wal_segments\": " << s.wal_segments << ", \"checkpoints\": " << s.checkpoints
        << ", \"dedup_skipped\": " << s.dedup_skipped << "}";
  }
  out << "]}, \"ResolverStats\": {\"devices\": " << r.resolver.devices
      << ", \"ssid_edges\": " << r.resolver.ssid_edges
      << ", \"seq_edges\": " << r.resolver.seq_edges
      << ", \"gamma_edges\": " << r.resolver.gamma_edges
      << ", \"linked_pairs\": " << r.resolver.linked_pairs
      << ", \"identities\": " << r.resolver.identities << "}}";
  return out.str();
}

}  // namespace

RunResult run_live_fabric(const Options& options) {
  RunResult result;
  util::SampleSet setup_s;
  std::vector<std::uint64_t> setup_digests;
  const LiveInput input = timed_setups(kSetups, setup_s, [&] {
    LiveInput in = make_input(options.seed);
    setup_digests.push_back(in.digest);
    return in;
  });
  result.check(std::equal(setup_digests.begin() + 1, setup_digests.end(), setup_digests.begin()),
               "set-ups produced different wire streams");
  const marauder::ApDatabase db = city_database(input.trace);

  result.check(reset_peak_rss(), "could not reset the peak RSS after the set-ups");
  const int reps = reps_for(options.seconds, kNominalRepS, 2);
  std::vector<Rep> runs;
  for (int i = 0; i < reps; ++i) {
    const fs::path dir = options.scratch / ("live-" + std::to_string(i));
    runs.push_back(one_rep(input, db, dir, /*verify=*/i == 0));
    // Deleted at once, so its dirty pages are dropped instead of being
    // written back while the next repetition runs.
    fs::remove_all(dir);
  }
  const double peak_mb = peak_rss_mb();

  const Rep& first = runs.front();
  for (const Rep& r : runs) {
    std::uint64_t gaps = 0;
    std::uint64_t crc = 0;
    for (const pipeline::FeedStats& f : r.mux.feeds) {
      gaps += f.fec.unrecoverable_gaps;
      crc += f.wire.crc_failures + f.stream_mismatches;
    }
    std::uint64_t dedup = 0;
    std::uint64_t ring_dropped = 0;
    for (const pipeline::ShardStats& s : r.pipeline.shards) {
      dedup += s.dedup_skipped;
      ring_dropped += s.ring_dropped;
    }
    result.attempted += input.events + r.latency_us.count() + r.identities;
    result.check(gaps == 0, "FEC left unrecoverable gaps", gaps);
    result.check(crc == 0, "wire frames failed CRC or stream checks", crc);
    result.check(r.mux.events_delivered == input.events && r.mux.events_dropped == 0,
                 "events lost between the sites and the tracker",
                 input.events - std::min(input.events, r.mux.events_delivered));
    result.check(dedup == 0, "stream_seq dedup skipped events", dedup);
    result.check(ring_dropped == 0, "ring dropped events", ring_dropped);
    result.check(r.pipeline.total_frames == input.events, "shards applied a different count");
    result.check(r.unanswered == 0, "locate() left queries unanswered", r.unanswered);
    result.check(r.identities_unlocated == 0, "locate_identity found no position",
                 r.identities_unlocated);
    result.check(!r.verified || r.live_identities == r.batch_identities,
                 "live resolve_identities differs from IdentityResolver over the shard stores");
    result.check(r.live_digest == first.live_digest, "repetitions produced different maps");
  }
  result.check(first.verified, "live resolution never compared against the batch");
  result.check(!first.latency_us.empty() && !first.errors.empty(),
               "no locate() query or published position to measure");

  util::SampleSet total;
  for (const Rep& r : runs) total.add(r.total_s);
  log_reps(options.workload, total);
  result.e2e("setup_s", setup_s.median(), "s");
  result.e2e("total_s", total.median(), "s");
  result.e2e("median_error_m", first.errors.empty() ? 0.0 : first.errors.median(), "m");
  result.e2e("peak_rss_mb", peak_mb, "MB");

  std::uint64_t wire_bytes = 0;
  std::uint64_t block_losses = 0;
  for (const Site& site : input.sites) {
    wire_bytes += site.bytes.size();
    block_losses += site.block_losses;
  }
  result.work = {{"events", static_cast<double>(input.events)},
                 {"wire_bytes", static_cast<double>(wire_bytes)},
                 {"link_losses", static_cast<double>(block_losses)},
                 {"pseudonyms", static_cast<double>(first.resolver.devices)},
                 {"identities", static_cast<double>(first.identities)},
                 {"queries", static_cast<double>(first.latency_us.count())},
                 {"query_targets", static_cast<double>(input.query_macs.size())},
                 {"reps", static_cast<double>(reps)},
                 {"pct_tracked", first.tracking.pct()}};

  if (options.trace) {
    Tracer::clear();
    Tracer::set_enabled(true);
    const Rep t = one_rep(input, db, options.scratch / "live-traced", /*verify=*/true);
    Tracer::set_enabled(false);
    add_layer_times(result);
    result.layer("trace.overhead_s", t.total_s - total.median(), "s");
    result.layer("frames_per_s", static_cast<double>(t.mux.events_delivered) / t.ingest_s,
                 "frames/s");
    result.layer("resolve_s", t.resolve_s, "s");
    result.layer("pct_tracked", t.tracking.pct(), "%");
    double wire = 0;
    double crc = 0;
    double recovered = 0;
    double gaps = 0;
    double dups = 0;
    for (const pipeline::FeedStats& f : t.mux.feeds) {
      wire += static_cast<double>(f.wire.frames_decoded);
      crc += static_cast<double>(f.wire.crc_failures);
      recovered += static_cast<double>(f.fec.recovered);
      gaps += static_cast<double>(f.fec.unrecoverable_gaps);
      dups += static_cast<double>(f.fec.duplicates);
    }
    result.layer("feed_mux.wire_frames", wire, "count");
    result.layer("feed_mux.crc_failures", crc, "count");
    result.layer("feed_mux.fec_recovered", recovered, "count");
    result.layer("feed_mux.fec_gaps", gaps, "count");
    result.layer("feed_mux.fec_duplicates", dups, "count");
    double publishes = 0;
    double incremental = 0;
    double full = 0;
    double high_water = 0;
    double wal[5] = {0, 0, 0, 0, 0};
    for (const pipeline::ShardStats& s : t.pipeline.shards) {
      publishes += static_cast<double>(s.publishes);
      incremental += static_cast<double>(s.incremental_updates);
      full += static_cast<double>(s.full_recomputes);
      high_water = std::max(high_water, static_cast<double>(s.ring_high_water));
      wal[0] += static_cast<double>(s.wal_records);
      wal[1] += static_cast<double>(s.wal_commits);
      wal[2] += static_cast<double>(s.wal_fsyncs);
      wal[3] += static_cast<double>(s.wal_segments);
      wal[4] += static_cast<double>(s.checkpoints);
    }
    result.layer("shard.frames", static_cast<double>(t.pipeline.total_frames), "count");
    result.layer("shard.publishes", publishes, "count");
    result.layer("shard.incremental", incremental, "count");
    result.layer("shard.full_recomputes", full, "count");
    result.layer("shard.incremental_ratio",
                 incremental + full == 0.0 ? 0.0 : incremental / (incremental + full), "ratio");
    result.layer("shard.ring_high_water", high_water, "count");
    result.layer("shard.drain_s", t.drain_s, "s");
    result.layer("wal.records", wal[0], "count");
    result.layer("wal.commits", wal[1], "count");
    result.layer("wal.fsyncs", wal[2], "count");
    result.layer("wal.segments", wal[3], "count");
    result.layer("wal.checkpoints", wal[4], "count");
    result.layer("wal.stop_s", t.stop_s, "s");
    if (!t.latency_us.empty()) {
      result.layer("locate.p50_us", t.latency_us.percentile(50.0), "us");
      result.layer("locate.p99_us", t.latency_us.percentile(99.0), "us");
      result.layer("locate.hit_ratio",
                   1.0 - static_cast<double>(t.unanswered) /
                             static_cast<double>(t.latency_us.count()),
                   "ratio");
      result.layer("locate.lateness_p50_us", t.lateness_us.percentile(50.0), "us");
      result.layer("locate.lateness_p99_us", t.lateness_us.percentile(99.0), "us");
    }
    result.layer("locate.count", static_cast<double>(t.latency_us.count()), "count");
    result.layer("identity.resolve_s", t.resolve_s, "s");
    result.layer("identity.ssid_edges", static_cast<double>(t.resolver.ssid_edges), "count");
    result.layer("identity.seq_edges", static_cast<double>(t.resolver.seq_edges), "count");
    result.layer("identity.gamma_edges", static_cast<double>(t.resolver.gamma_edges), "count");
    result.layer("identity.linked_pairs", static_cast<double>(t.resolver.linked_pairs),
                 "count");
    result.layer("identity.identities", static_cast<double>(t.identities), "count");
    result.counters_json = counters_json(t);
  }
  return result;
}

}  // namespace mm::perfbench
