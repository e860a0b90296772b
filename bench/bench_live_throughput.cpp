// Riptide ingest throughput: multi-producer push of pre-generated FrameEvents
// through the full live path (ring -> shard worker -> store -> M-Loc ->
// seqlock publish), swept across shard counts. The acceptance bar
// for the engine is >= 500k frames/sec sustained on 4 shards.
//
//   bench_live_throughput [--events N] [--producers P] [--devices D]
//                         [--aps-per-device K] [--ring-capacity N]
//                         [--out BENCH_pipeline.json]
//
// The JSON records the machine (hw_cores, build_type) beside the sweep.
//
// Events model steady campus traffic: each device keeps hearing the same
// small set of nearby APs, so most contacts are Gamma duplicates (the cheap
// path) and a minority grow the disc set and trigger an M-Loc publish — the
// same mix a replayed capture produces.
#include <chrono>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <thread>
#include <vector>

#include "marauder/ap_database.h"
#include "pipeline/live_tracker.h"
#include "sim/scenario.h"
#include "util/flags.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace {

using namespace mm;

std::vector<capture::FrameEvent> generate_events(std::size_t count,
                                                 std::size_t devices,
                                                 std::size_t aps_per_device,
                                                 const std::vector<sim::ApTruth>& truth,
                                                 std::uint64_t seed) {
  util::Rng rng(seed);
  // Fixed nearby-AP subset per device: revisits dominate, growth is rare.
  std::vector<std::vector<net80211::MacAddress>> nearby(devices);
  for (std::size_t d = 0; d < devices; ++d) {
    const std::size_t base = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(truth.size()) - 1));
    for (std::size_t k = 0; k < aps_per_device; ++k) {
      nearby[d].push_back(truth[(base + k) % truth.size()].bssid);
    }
  }
  std::vector<capture::FrameEvent> events(count);
  for (std::size_t i = 0; i < count; ++i) {
    const auto d = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(devices) - 1));
    capture::FrameEvent& ev = events[i];
    ev.kind = capture::FrameEventKind::kContact;
    ev.device = net80211::MacAddress::from_u64(0x0016f0000000ULL + d);
    ev.ap = nearby[d][static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(aps_per_device) - 1))];
    ev.time_s = static_cast<double>(i) * 1e-5;
    ev.rssi_dbm = rng.uniform(-90.0, -40.0);
  }
  return events;
}

struct RunResult {
  std::size_t shards = 0;
  bool wal = false;
  double elapsed_s = 0.0;
  double stop_s = 0.0;  ///< shutdown: WAL seal + final checkpoint (O(state), not throughput)
  double frames_per_sec = 0.0;
  std::uint64_t frames = 0;
  std::uint64_t publishes = 0;
  std::uint64_t ring_high_water = 0;
  std::uint64_t wal_records = 0;
};

RunResult run_once(const marauder::ApDatabase& db,
                   const std::vector<capture::FrameEvent>& events,
                   std::size_t shards, std::size_t producers,
                   std::size_t ring_capacity,
                   const std::filesystem::path& wal_dir = {}) {
  pipeline::LiveTrackerConfig config;
  config.shards = shards;
  config.ring_capacity = ring_capacity;
  config.drop_policy = pipeline::DropPolicy::kBlock;  // lossless: measure, don't shed
  if (!wal_dir.empty()) {
    // Phoenix overhead run: group-committed WAL, no per-commit fsync (the
    // deployment default for throughput benches; fsync cadence is a
    // durability dial, not an engine property).
    config.durability.dir = wal_dir;
    config.durability.wal.fsync_on_commit = false;
  }
  pipeline::LiveTracker tracker(db, config);
  tracker.start();

  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  for (std::size_t p = 0; p < producers; ++p) {
    threads.emplace_back([&, p] {
      const std::size_t lo = events.size() * p / producers;
      const std::size_t hi = events.size() * (p + 1) / producers;
      for (std::size_t i = lo; i < hi; ++i) tracker.push(events[i]);
    });
  }
  for (auto& t : threads) t.join();
  // Ingest is done when every pushed frame has been applied — poll the live
  // stats rather than stop(), so the timed window covers ring drain but not
  // shutdown work (WAL seal + final checkpoint are O(state), reported as
  // stop_s, not folded into frames/sec).
  while (tracker.stats().total_frames < events.size()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const auto t1 = std::chrono::steady_clock::now();
  const double elapsed = std::chrono::duration<double>(t1 - t0).count();
  tracker.stop();
  const double stop_elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t1).count();

  const pipeline::PipelineStats stats = tracker.stats();
  RunResult r;
  r.shards = shards;
  r.wal = !wal_dir.empty();
  r.elapsed_s = elapsed;
  r.stop_s = stop_elapsed;
  r.frames = stats.total_frames;
  r.frames_per_sec = elapsed > 0.0 ? static_cast<double>(r.frames) / elapsed : 0.0;
  for (const auto& s : stats.shards) {
    r.publishes += s.publishes;
    r.ring_high_water = std::max(r.ring_high_water, s.ring_high_water);
    r.wal_records += s.wal_records;
  }
  return r;
}

void write_json(const std::string& path, std::size_t events, std::size_t producers,
                const std::vector<RunResult>& results, double wal_slowdown) {
  std::ofstream out(path);
  out << "{\n  \"benchmark\": \"live_throughput\",\n"
      << "  \"hw_cores\": " << util::ThreadPool::default_parallelism() << ",\n"
      << "  \"build_type\": \"" << MM_BUILD_TYPE << "\",\n"
      << "  \"events\": " << events << ",\n"
      << "  \"producers\": " << producers << ",\n"
      << "  \"wal_slowdown\": " << wal_slowdown << ",\n"
      << "  \"runs\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const RunResult& r = results[i];
    out << "    {\"shards\": " << r.shards
        << ", \"wal\": " << (r.wal ? "true" : "false")
        << ", \"elapsed_s\": " << r.elapsed_s
        << ", \"stop_s\": " << r.stop_s
        << ", \"frames_per_sec\": " << r.frames_per_sec << ", \"frames\": " << r.frames
        << ", \"publishes\": " << r.publishes
        << ", \"ring_high_water\": " << r.ring_high_water
        << ", \"wal_records\": " << r.wal_records << "}"
        << (i + 1 < results.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  const util::Flags flags(argc, argv);
  const auto events_n = static_cast<std::size_t>(flags.get_int("events", 2'000'000));
  const auto producers = static_cast<std::size_t>(flags.get_int("producers", 4));
  const auto devices = static_cast<std::size_t>(flags.get_int("devices", 512));
  const auto aps_per_device = static_cast<std::size_t>(flags.get_int("aps-per-device", 8));
  const auto ring_capacity =
      static_cast<std::size_t>(flags.get_int("ring-capacity", 1 << 14));
  const std::string out_path = flags.get("out", "BENCH_pipeline.json");

  sim::CampusConfig campus;
  campus.seed = 2009;
  campus.num_aps = 170;
  const auto truth = sim::generate_campus_aps(campus);
  const auto db = marauder::ApDatabase::from_truth(truth, true);
  const auto events = generate_events(events_n, devices, aps_per_device, truth, 0xbead);

  std::vector<RunResult> results;
  for (const std::size_t shards : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    const RunResult r = run_once(db, events, shards, producers, ring_capacity);
    results.push_back(r);
    std::cout << "shards=" << r.shards << "  " << static_cast<std::uint64_t>(r.frames_per_sec)
              << " frames/s  (" << r.frames << " frames in " << r.elapsed_s << " s, "
              << r.publishes << " publishes, ring hwm " << r.ring_high_water << ")\n";
  }
  const RunResult no_wal = results.back();

  // Phoenix overhead: same 4-shard run with the per-shard WAL on.
  const std::filesystem::path wal_dir =
      std::filesystem::temp_directory_path() / "mm_bench_wal";
  std::filesystem::remove_all(wal_dir);
  const RunResult wal_run =
      run_once(db, events, no_wal.shards, producers, ring_capacity, wal_dir);
  results.push_back(wal_run);
  std::filesystem::remove_all(wal_dir);
  std::cout << "shards=" << wal_run.shards << "+wal  "
            << static_cast<std::uint64_t>(wal_run.frames_per_sec) << " frames/s  ("
            << wal_run.wal_records << " wal records, final checkpoint+seal "
            << wal_run.stop_s << " s)\n";

  const double wal_slowdown = wal_run.frames_per_sec > 0.0
                                  ? no_wal.frames_per_sec / wal_run.frames_per_sec
                                  : 0.0;
  write_json(out_path, events_n, producers, results, wal_slowdown);
  std::cout << "wrote " << out_path << "\n";

  const bool met = no_wal.frames_per_sec >= 500'000.0;
  std::cout << (met ? "PASS" : "WARN") << ": 4-shard throughput "
            << static_cast<std::uint64_t>(no_wal.frames_per_sec)
            << " frames/s (target 500000)\n";
  const bool wal_met = wal_slowdown > 0.0 && wal_slowdown <= 2.0;
  std::cout << (wal_met ? "PASS" : "WARN") << ": WAL slowdown " << wal_slowdown
            << "x (target <= 2x)\n";
  return 0;
}
