// Basilisk WPS commands (DESIGN.md §13).
//
//   mmctl wps-build:   freeze an AP database CSV (or a raw WiGLE export)
//   into the mmap-backed snapshot format — the attacker's city-scale
//   positioning backend, built once and queried forever.
//
//   mmctl wps-serve:   the positioning service — answer lookup / nearest /
//   range requests carried as Lattice wire frames over any dumb byte pipe
//   (a file, a mkfifo between two terminals) or — with --udp — over a real
//   datagram socket. Both transports run the Aegis tier (wps::RemoteServer):
//   request-id dedup, bounded queue with explicit load shedding, batches
//   executed concurrently with responses in request order; SIGHUP
//   hot-swaps the snapshot.
//
//   mmctl wps-query:   the client end — encode request frames onto a
//   stream, decode a response stream and print what the service said, or
//   (send) run the retrying Aegis RemoteClient against a live --udp server.
//
//   mmctl wps-surveil: replay the Rye & Levin opportunistic
//   mass-surveillance scenario against the snapshot backend and report how
//   many devices the query interface alone was able to track.
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "commands.h"
#include "fault/fault_plan.h"
#include "geo/geodetic.h"
#include "marauder/ap_database.h"
#include "net/link_sim.h"
#include "net/udp.h"
#include "net/wire_codec.h"
#include "net80211/mac_address.h"
#include "sim/scenario.h"
#include "util/stats.h"
#include "util/table.h"
#include "wps/query_codec.h"
#include "wps/remote.h"
#include "wps/reliability.h"
#include "wps/service.h"
#include "wps/snapshot_writer.h"
#include "wps/surveil.h"

namespace mm::tools {

namespace {

namespace fs = std::filesystem;

// Bounds of the numeric flags (mmctl help states them), checked before
// anything opens: a negative value would wrap to 2^64 in a size_t or u64,
// and a large one would truncate into a narrower field.
constexpr std::int64_t kMaxServeQueue = std::int64_t{1} << 16;   ///< --max-queue
constexpr std::int64_t kMaxDedupWindow = std::int64_t{1} << 16;  ///< --dedup-window
constexpr std::int64_t kMaxServeThreads = 256;                   ///< wps-serve --threads
constexpr std::int64_t kMaxNearestK = 65535;  ///< --k, the request's u16 field
constexpr std::int64_t kMaxSendCount = std::int64_t{1} << 16;  ///< send --count, --expect-ok
constexpr std::int64_t kMaxRetries = 100;                      ///< send --retries
constexpr std::int64_t kMaxTimeoutMs = 600000;                 ///< send --timeout-ms
/// wps-surveil --devices and --fixed-aps: each population's BSSID block.
constexpr std::int64_t kMaxSurveilPopulation = std::int64_t{1} << 24;
constexpr double kMaxSurveilHours = 8760.0;     ///< --duration/refresh/sweep-hours
constexpr double kMaxSurveilSpeedMps = 100.0;   ///< --speed

// wps-serve's latency record: the log of each per-response time in fixed
// equal-width bins, so the bins are log-spaced in microseconds. 2048 bins
// over 0.01 us .. 100 s each span a factor of 10^(10/2048) = 1.0113, so a
// percentile reads within 1.2% of the exact one, and the record stays 16 KiB
// however many responses the server sends. Times outside the span clamp to
// its edge bins.
constexpr double kLatencyFloorUs = 0.01;
constexpr double kLatencyCeilUs = 1e8;
constexpr std::size_t kLatencyBins = 2048;

std::atomic<bool> g_wps_interrupted{false};
std::atomic<bool> g_wps_reload{false};

extern "C" void wps_signal_handler(int) { g_wps_interrupted.store(true); }
extern "C" void wps_hup_handler(int) { g_wps_reload.store(true); }

const char* op_name(wps::QueryOp op) {
  switch (op) {
    case wps::QueryOp::kLookup: return "lookup";
    case wps::QueryOp::kNearest: return "nearest";
    case wps::QueryOp::kRange: return "range";
  }
  return "?";
}

std::string radius_cell(const std::optional<double>& radius_m) {
  return radius_m ? util::Table::fmt(*radius_m, 1) : "-";
}

void print_service_stats(const wps::ServiceStats& stats) {
  std::cout << "snapshot: " << stats.records_total << " records in "
            << stats.tiles_total << " tiles";
  if (stats.footer_recovered) std::cout << ", footer recovered by scan";
  if (stats.sections_rejected > 0) {
    std::cout << ", " << stats.sections_rejected << " sections rejected";
  }
  if (stats.tiles_quarantined > 0) {
    std::cout << ", " << stats.tiles_quarantined << " tiles ("
              << stats.records_quarantined << " records) quarantined";
  }
  if (stats.mac_index_damaged) std::cout << ", MAC index damaged (tile fallback)";
  std::cout << "\n";
}

}  // namespace

int cmd_wps_build(const util::Flags& flags) {
  const std::string apdb_path = flags.get("apdb", "");
  const std::string wigle_path = flags.get("wigle", "");
  const std::string out_path = flags.get("out", "");
  if (out_path.empty() || (apdb_path.empty() == wigle_path.empty())) {
    std::cerr << "mmctl wps-build: --out and exactly one of --apdb/--wigle are required\n";
    return 2;
  }
  wps::SnapshotBuildOptions options;
  options.tile_size_m =
      flags.get_double_in("tile-size", options.tile_size_m, kMinPositive, kMaxFinite);
  options.mac_index = !flags.has("no-mac-index");
  options.fsync = !flags.has("no-fsync");

  const geo::Geodetic origin = sim::uml_north_campus();
  const geo::EnuFrame frame(origin);
  marauder::CsvImportStats import_stats;
  auto db_result = apdb_path.empty()
                       ? marauder::ApDatabase::from_wigle_csv(wigle_path, frame, &import_stats)
                       : marauder::ApDatabase::from_csv(apdb_path, frame, &import_stats);
  if (!db_result.ok()) {
    std::cerr << "mmctl wps-build: " << db_result.error() << "\n";
    return 1;
  }
  const marauder::ApDatabase db = std::move(db_result).value();
  if (import_stats.quarantined > 0) {
    std::cerr << "import: quarantined " << import_stats.quarantined << "/"
              << import_stats.rows_total << " malformed rows\n";
  }

  auto written = wps::write_snapshot(db, origin, out_path, options);
  if (!written.ok()) {
    std::cerr << "mmctl wps-build: " << written.error() << "\n";
    return 1;
  }
  const wps::SnapshotBuildStats& stats = written.value();
  std::cout << import_stats.rows_loaded << " rows -> " << stats.records
            << " records in " << stats.tiles << " tiles ("
            << util::Table::fmt(options.tile_size_m, 0) << " m), "
            << stats.file_bytes << " bytes"
            << (options.mac_index ? " (with MAC index)" : "") << "\n";
  std::cout << "wrote " << out_path << "\n";
  return 0;
}

namespace {

/// SIGHUP hot-swap: re-open --snapshot beside the live mmap, check it whole,
/// swap or refuse it. Serving never stops either way. Called only from the
/// serving loop before it reads the next chunk, when the last
/// ServeCore::handle has drained its batch, so no query runs on `service`
/// during the swap (Service::reload's precondition).
void wps_maybe_reload(wps::Service& service, const std::string& snapshot_path) {
  if (!g_wps_reload.exchange(false)) return;
  auto swapped = service.reload(snapshot_path);
  if (swapped.ok()) {
    std::cout << "reload: snapshot hot-swapped, now epoch " << swapped.value()
              << "\n"
              << std::flush;
  } else {
    std::cout << "reload rejected (still serving epoch " << service.epoch()
              << "): " << swapped.error() << "\n"
              << std::flush;
  }
}

/// The serving core both transports run. Each upstream chunk — a read from
/// --in, or one datagram — goes through RemoteServer::on_bytes and then
/// drain(), so the dedup window, the bounded queue and the ordered parallel
/// batch apply alike, and responses leave in request order at any
/// --threads. A chunk's wall time is split evenly over the responses it
/// produced, so the latency percentiles stay per-response quantities.
class ServeCore {
 public:
  ServeCore(const wps::Service& service, const wps::RemoteServerOptions& options)
      : server_(service, options) {}

  /// The response frames (one wire frame each) answering one chunk.
  const std::vector<std::vector<std::uint8_t>>& handle(
      std::span<const std::uint8_t> bytes) {
    const auto t0 = std::chrono::steady_clock::now();
    const std::uint64_t before = server_.stats().responses_sent;
    frames_.clear();
    server_.on_bytes(bytes, frames_);
    server_.drain(frames_);
    const std::uint64_t responses = server_.stats().responses_sent - before;
    if (responses > 0) {
      const double us = std::chrono::duration<double, std::micro>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
      const double log_us = std::log(us / static_cast<double>(responses));
      for (std::uint64_t i = 0; i < responses; ++i) handle_log_us_.add(log_us);
    }
    return frames_;
  }

  [[nodiscard]] const wps::RemoteServer& server() const { return server_; }
  /// Per-response handling time at percentile p in [0, 100]; 0 when idle.
  [[nodiscard]] double handle_us(double p) const {
    return handle_log_us_.total() == 0 ? 0.0 : std::exp(handle_log_us_.percentile(p));
  }

 private:
  wps::RemoteServer server_;
  std::vector<std::vector<std::uint8_t>> frames_;
  util::Histogram handle_log_us_{std::log(kLatencyFloorUs), std::log(kLatencyCeilUs),
                                 kLatencyBins};
};

/// The Aegis UDP tier: one datagram in = one upstream chunk, one wire frame
/// out = one datagram back to the sender. `port` 0 = kernel-assigned.
int serve_udp(const util::Flags& flags, std::uint16_t port, wps::Service& service,
              const std::string& snapshot_path,
              const wps::RemoteServerOptions& options, ServeCore& core) {
  using clock = std::chrono::steady_clock;
  net::UdpListenerOptions listener;
  listener.rcvbuf_bytes =
      net::clamp_rcvbuf_bytes(flags.get_int("rcvbuf", net::kDefaultRcvbufBytes));
  const int idle_ms =
      net::clamp_idle_timeout_ms(flags.get_int("idle-timeout-ms", 5000));
  std::string error;
  std::uint16_t bound_port = 0;
  const int fd = net::open_udp_listener(port, listener, error, &bound_port);
  if (fd < 0) {
    std::cerr << "mmctl wps-serve: " << error << "\n";
    return 1;
  }
  std::cout << "listening on 127.0.0.1:" << bound_port << " (udp), queue "
            << options.max_queue << ", dedup window " << options.dedup_window
            << "\n"
            << std::flush;

  std::vector<std::uint8_t> datagram(65536);
  std::uint64_t datagrams = 0;
  auto last_traffic = clock::now();
  while (!g_wps_interrupted.load()) {
    wps_maybe_reload(service, snapshot_path);
    sockaddr_in src{};
    socklen_t srclen = sizeof(src);
    const ssize_t got = ::recvfrom(fd, datagram.data(), datagram.size(), 0,
                                   reinterpret_cast<sockaddr*>(&src), &srclen);
    if (got <= 0) {
      if (g_wps_interrupted.load()) break;
      const auto idle = std::chrono::duration_cast<std::chrono::milliseconds>(
                            clock::now() - last_traffic)
                            .count();
      if (idle >= idle_ms) break;
      continue;  // poll quantum elapsed (EAGAIN) or EINTR
    }
    last_traffic = clock::now();
    ++datagrams;
    // One datagram handled at a time, so every frame emitted this round —
    // fresh responses, dedup replays, shed refusals alike — answers the
    // sender that just spoke; replies go straight back to `src`.
    for (const auto& f : core.handle({datagram.data(), static_cast<std::size_t>(got)})) {
      (void)::sendto(fd, f.data(), f.size(), 0,
                     reinterpret_cast<const sockaddr*>(&src), srclen);
    }
  }
  ::close(fd);
  std::cout << datagrams << " datagrams received\n";
  return 0;
}

/// The byte-stream tier: --in is read in 4 KiB chunks, and each chunk's
/// response frames are appended to --out and flushed (a FIFO client is
/// waiting on them).
int serve_stream(const std::string& in_path, const std::string& out_path,
                 wps::Service& service, const std::string& snapshot_path,
                 ServeCore& core) {
  std::ifstream in(in_path, std::ios::binary);
  if (!in) {
    std::cerr << "mmctl wps-serve: cannot open --in " << in_path << "\n";
    return 1;
  }
  std::ofstream out(out_path, std::ios::binary);
  if (!out) {
    std::cerr << "mmctl wps-serve: cannot open --out " << out_path << "\n";
    return 1;
  }
  constexpr std::size_t kChunkBytes = 4096;
  std::vector<std::uint8_t> chunk(kChunkBytes);
  while (!g_wps_interrupted.load()) {
    wps_maybe_reload(service, snapshot_path);
    in.read(reinterpret_cast<char*>(chunk.data()),
            static_cast<std::streamsize>(kChunkBytes));
    const auto got = static_cast<std::size_t>(in.gcount());
    if (got == 0) break;
    for (const auto& f : core.handle({chunk.data(), got})) {
      out.write(reinterpret_cast<const char*>(f.data()),
                static_cast<std::streamsize>(f.size()));
    }
    out.flush();
  }
  if (!out) {
    std::cerr << "mmctl wps-serve: write failed for " << out_path << "\n";
    return 1;
  }
  if (core.server().buffered() > 0) {
    std::cout << core.server().buffered()
              << " bytes of torn tail left in the request stream\n";
  }
  return 0;
}

void write_serve_stats_json(const std::string& path, const ServeCore& core,
                            const wps::ServiceStats& service, bool prewarmed,
                            double prewarm_s) {
  const wps::RemoteServerStats& st = core.server().stats();
  const wps::DedupStats& dedup = core.server().dedup_stats();
  const net::WireDecoderStats& wire = core.server().decoder_stats();
  std::ofstream out(path);
  out << "{\n";
  out << "  \"requests\": " << st.requests_decoded << ",\n";
  out << "  \"lookup_requests\": " << st.lookup_requests << ",\n";
  out << "  \"nearest_requests\": " << st.nearest_requests << ",\n";
  out << "  \"range_requests\": " << st.range_requests << ",\n";
  out << "  \"bad_requests\": " << st.bad_requests << ",\n";
  out << "  \"records_returned\": " << st.records_returned << ",\n";
  out << "  \"responses_sent\": " << st.responses_sent << ",\n";
  out << "  \"prewarm\": {\"enabled\": " << (prewarmed ? "true" : "false")
      << ", \"prewarm_s\": " << prewarm_s << "},\n";
  out << "  \"latency\": {\"p50_us\": " << core.handle_us(50.0)
      << ", \"p99_us\": " << core.handle_us(99.0) << "},\n";
  out << "  \"aegis\": {\"executed\": " << st.executed << ", \"shed\": " << st.shed
      << ", \"replayed\": " << st.replayed
      << ", \"absorbed_inflight\": " << st.absorbed_inflight
      << ", \"dedup_hits\": " << dedup.hits << ", \"dedup_misses\": " << dedup.misses
      << ", \"dedup_evictions\": " << dedup.evictions << "},\n";
  out << "  \"wire\": {\"bytes_fed\": " << wire.bytes_fed
      << ", \"frames_decoded\": " << wire.frames_decoded
      << ", \"resync_bytes\": " << wire.resync_bytes
      << ", \"crc_failures\": " << wire.crc_failures << "},\n";
  out << "  \"snapshot\": {\"records\": " << service.records_total
      << ", \"tiles\": " << service.tiles_total
      << ", \"sections_rejected\": " << service.sections_rejected
      << ", \"tiles_quarantined\": " << service.tiles_quarantined
      << ", \"records_quarantined\": " << service.records_quarantined
      << ", \"index_bytes\": " << service.index_bytes
      << ", \"footer_recovered\": " << (service.footer_recovered ? "true" : "false")
      << ", \"mac_index_damaged\": " << (service.mac_index_damaged ? "true" : "false")
      << ", \"epoch\": " << service.epoch
      << ", \"reloads\": " << service.reloads
      << ", \"reloads_rejected\": " << service.reloads_rejected
      << "}\n}\n";
}

}  // namespace

int cmd_wps_serve(const util::Flags& flags) {
  const std::string snapshot_path = flags.get("snapshot", "");
  const bool udp_mode = flags.has("udp");
  const std::string in_path = flags.get("in", "");
  const std::string out_path = flags.get("out", "");
  if (snapshot_path.empty() ||
      (!udp_mode && (in_path.empty() || out_path.empty()))) {
    std::cerr << "mmctl wps-serve: --snapshot plus either --udp PORT or "
                 "--in/--out are required\n";
    return 2;
  }
  wps::RemoteServerOptions options;
  options.max_queue =
      static_cast<std::size_t>(flags.get_int_in("max-queue", 256, 1, kMaxServeQueue));
  options.dedup_window =
      static_cast<std::size_t>(flags.get_int_in("dedup-window", 4096, 0, kMaxDedupWindow));
  options.threads =
      static_cast<std::size_t>(flags.get_int_in("threads", 1, 0, kMaxServeThreads));
  const auto udp_port =
      static_cast<std::uint16_t>(udp_mode ? flags.get_int_in("udp", 0, 0, 65535) : 0);

  auto opened = wps::Service::open(snapshot_path);
  if (!opened.ok()) {
    std::cerr << "mmctl wps-serve: --snapshot: " << opened.error() << "\n";
    return 1;
  }
  wps::Service service = std::move(opened).value();
  print_service_stats(service.stats());

  const bool prewarmed = flags.has("prewarm");
  double prewarm_s = 0.0;
  if (prewarmed) {
    const auto t0 = std::chrono::steady_clock::now();
    const std::uint64_t usable = service.prewarm(options.threads);
    prewarm_s = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
                    .count();
    std::cout << "prewarm: " << usable << " tiles verified+indexed in "
              << util::Table::fmt(prewarm_s, 3) << " s\n";
  }

  ServeCore core(service, options);
  std::signal(SIGINT, wps_signal_handler);
  std::signal(SIGTERM, wps_signal_handler);
  std::signal(SIGHUP, wps_hup_handler);
  const int rc = udp_mode ? serve_udp(flags, udp_port, service, snapshot_path, options, core)
                          : serve_stream(in_path, out_path, service, snapshot_path, core);
  std::signal(SIGINT, SIG_DFL);
  std::signal(SIGTERM, SIG_DFL);
  std::signal(SIGHUP, SIG_DFL);
  if (rc != 0) return rc;

  const wps::RemoteServerStats& st = core.server().stats();
  util::Table table({"requests", "lookup", "nearest", "range", "bad", "executed",
                     "shed", "replayed", "absorbed", "records out", "responses",
                     "crc fail", "p99 us"});
  table.add_row({std::to_string(st.requests_decoded), std::to_string(st.lookup_requests),
                 std::to_string(st.nearest_requests), std::to_string(st.range_requests),
                 std::to_string(st.bad_requests), std::to_string(st.executed),
                 std::to_string(st.shed), std::to_string(st.replayed),
                 std::to_string(st.absorbed_inflight), std::to_string(st.records_returned),
                 std::to_string(st.responses_sent),
                 std::to_string(core.server().decoder_stats().crc_failures),
                 util::Table::fmt(core.handle_us(99.0), 1)});
  table.print(std::cout);

  const std::string json_path = flags.get("stats-json", "");
  if (!json_path.empty()) {
    write_serve_stats_json(json_path, core, service.stats(), prewarmed, prewarm_s);
    std::cout << "wrote " << json_path << "\n";
  }
  return g_wps_interrupted.load() ? 130 : 0;
}

namespace {

/// Shared --op/--bssid/--k/--x/--y/--radius surface of `wps-query encode`
/// and `wps-query send`. Returns 0, or 2 after printing a usage error.
int parse_query_request(const util::Flags& flags, const char* who,
                        wps::QueryRequest& request) {
  const std::string op_text = flags.get("op", "");
  if (op_text == "lookup") {
    request.op = wps::QueryOp::kLookup;
    const auto mac = net80211::MacAddress::parse(flags.get("bssid", ""));
    if (!mac) {
      std::cerr << who << ": lookup needs --bssid aa:bb:cc:dd:ee:ff\n";
      return 2;
    }
    request.bssid = mac->to_u64();
  } else if (op_text == "nearest") {
    request.op = wps::QueryOp::kNearest;
    request.k = static_cast<std::uint16_t>(flags.get_int_in("k", 8, 1, kMaxNearestK));
    request.center = {flags.get_double("x", 0.0), flags.get_double("y", 0.0)};
  } else if (op_text == "range") {
    request.op = wps::QueryOp::kRange;
    request.center = {flags.get_double("x", 0.0), flags.get_double("y", 0.0)};
    request.radius_m = flags.get_double("radius", 0.0);
  } else {
    std::cerr << who << ": --op must be lookup|nearest|range\n";
    return 2;
  }
  return 0;
}

int wps_query_encode(const util::Flags& flags) {
  const std::string out_path = flags.get("out", "");
  if (out_path.empty()) {
    std::cerr << "mmctl wps-query encode: --out is required\n";
    return 2;
  }
  const std::string op_text = flags.get("op", "");
  wps::QueryRequest request;
  if (const int rc = parse_query_request(flags, "mmctl wps-query encode", request);
      rc != 0) {
    return rc;
  }

  net::WireFrame frame;
  frame.stream_id =
      static_cast<std::uint32_t>(flags.get_int_in("stream-id", 1, 0, kMaxStreamId));
  frame.seq = static_cast<std::uint64_t>(
      flags.get_int_in("seq", 1, 0, std::numeric_limits<std::int64_t>::max()));
  frame.payload = wps::encode_request(request);
  std::vector<std::uint8_t> bytes;
  net::append_wire_frame(frame, bytes);

  // Append, so successive invocations build one request stream.
  std::ofstream out(out_path, std::ios::binary | std::ios::app);
  if (!out) {
    std::cerr << "mmctl wps-query encode: cannot open --out " << out_path << "\n";
    return 1;
  }
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  out.flush();
  if (!out) {
    std::cerr << "mmctl wps-query encode: write failed for " << out_path << "\n";
    return 1;
  }
  std::cout << "request " << frame.seq << " (" << op_text << ") -> " << out_path
            << "\n";
  return 0;
}

int wps_query_decode(const util::Flags& flags) {
  const std::string in_path = flags.get("in", "");
  if (in_path.empty()) {
    std::cerr << "mmctl wps-query decode: --in is required\n";
    return 2;
  }
  constexpr std::int64_t kNoLimit = std::numeric_limits<std::int64_t>::max();
  const auto max_rows = static_cast<std::size_t>(flags.get_int_in("max-rows", 20, 0, kNoLimit));
  const auto expect = static_cast<std::size_t>(flags.get_int_in("expect", 0, 0, kNoLimit));

  std::ifstream in(in_path, std::ios::binary);
  if (!in) {
    std::cerr << "mmctl wps-query decode: cannot open --in " << in_path << "\n";
    return 1;
  }

  net::WireDecoder decoder;
  wps::ResponseAssembler assembler;
  std::vector<std::uint64_t> completed;  // arrival order
  constexpr std::size_t kChunkBytes = 4096;
  std::vector<std::uint8_t> chunk(kChunkBytes);
  net::WireFrame frame;
  while (true) {
    in.read(reinterpret_cast<char*>(chunk.data()),
            static_cast<std::streamsize>(kChunkBytes));
    const auto got = static_cast<std::size_t>(in.gcount());
    if (got == 0) break;
    decoder.feed({chunk.data(), got});
    while (decoder.next(frame)) {
      if (const auto seq = assembler.feed(frame)) completed.push_back(*seq);
    }
  }

  for (const std::uint64_t seq : completed) {
    const auto response = assembler.take(seq);
    if (!response) continue;
    std::cout << "response seq " << seq << ": " << op_name(response->op) << ", "
              << (response->status == wps::QueryStatus::kOk ? "ok" : "bad request")
              << ", " << response->aps.size() << " record"
              << (response->aps.size() == 1 ? "" : "s") << "\n";
    if (response->aps.empty()) continue;
    util::Table table({"bssid", "x (m)", "y (m)", "radius (m)"});
    for (std::size_t i = 0; i < response->aps.size() && i < max_rows; ++i) {
      const wps::WpsAp& ap = response->aps[i];
      table.add_row({ap.bssid.to_string(), util::Table::fmt(ap.position.x, 1),
                     util::Table::fmt(ap.position.y, 1), radius_cell(ap.radius_m)});
    }
    table.print(std::cout);
    if (response->aps.size() > max_rows) {
      std::cout << "... " << response->aps.size() - max_rows << " more\n";
    }
  }

  const net::WireDecoderStats& wire = decoder.stats();
  std::cout << completed.size() << " responses (" << assembler.pending()
            << " incomplete), " << wire.frames_decoded << " frames, "
            << assembler.chunks_rejected() << " chunks rejected, "
            << wire.resync_bytes << " resync bytes\n";

  if (completed.size() < expect) {
    std::cerr << "mmctl wps-query decode: expected >= " << expect << " responses, got "
              << completed.size() << "\n";
    return 1;
  }
  return 0;
}

/// `wps-query send`: the Aegis RemoteClient over a live UDP socket. The same
/// event-driven state machine the chaos tests pump on a virtual clock runs
/// here on steady_clock milliseconds; --link-plan optionally damages the
/// outbound direction in-process before the datagrams ever leave.
int wps_query_send(const util::Flags& flags) {
  const std::string spec = flags.get("udp", "");
  if (spec.empty()) {
    std::cerr << "mmctl wps-query send: --udp host:port is required\n";
    return 2;
  }
  wps::QueryRequest request;
  if (const int rc = parse_query_request(flags, "mmctl wps-query send", request);
      rc != 0) {
    return rc;
  }

  wps::RemoteClientOptions options;
  options.stream_id =
      static_cast<std::uint32_t>(flags.get_int_in("stream-id", 1, 0, kMaxStreamId));
  options.retry.max_attempts = static_cast<int>(
      flags.get_int_in("retries", options.retry.max_attempts, 1, kMaxRetries));
  options.retry.timeout_ms = static_cast<std::uint64_t>(flags.get_int_in(
      "timeout-ms", static_cast<std::int64_t>(options.retry.timeout_ms), 1, kMaxTimeoutMs));
  options.retry.seed = flags.get_seed(options.retry.seed);
  const auto count = static_cast<std::size_t>(flags.get_int_in("count", 1, 1, kMaxSendCount));
  const auto expect_ok =
      static_cast<std::size_t>(flags.get_int_in("expect-ok", 0, 0, kMaxSendCount));

  std::optional<net::LinkSimulator> link;
  if (flags.has("link-plan")) {
    auto parsed = fault::FaultPlan::parse(flags.get("link-plan", ""));
    if (!parsed.ok()) {
      std::cerr << "mmctl wps-query send: --link-plan: " << parsed.error() << "\n";
      return 2;
    }
    link.emplace(parsed.value());
  }

  std::string error;
  const int fd = net::open_udp_sender(spec, error);
  if (fd < 0) {
    std::cerr << "mmctl wps-query send: " << error << "\n";
    return 1;
  }
  timeval tv{};
  tv.tv_usec = 20 * 1000;  // 20 ms poll quantum keeps the retry clock live
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));

  wps::RemoteClient client(options);
  const auto t_start = std::chrono::steady_clock::now();
  const auto now_ms = [&t_start] {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - t_start)
            .count());
  };

  for (std::size_t i = 0; i < count; ++i) client.issue(request, now_ms());

  std::signal(SIGINT, wps_signal_handler);
  std::vector<std::vector<std::uint8_t>> frames;
  std::vector<std::uint8_t> buf(65536);
  while (!client.idle() && !g_wps_interrupted.load()) {
    frames.clear();
    client.tick(now_ms(), frames);
    for (const auto& f : frames) {
      if (link) {
        // The simulator may drop, duplicate, or re-emit parked frames; its
        // whole output for this send goes out as one datagram — the server's
        // resynchronizing decoder owes the wire no framing alignment.
        link->send({f.data(), f.size()});
        const auto bytes = link->take();
        if (!bytes.empty()) (void)::send(fd, bytes.data(), bytes.size(), 0);
      } else {
        (void)::send(fd, f.data(), f.size(), 0);
      }
    }
    const ssize_t got = ::recv(fd, buf.data(), buf.size(), 0);
    if (got > 0) {
      client.on_bytes({buf.data(), static_cast<std::size_t>(got)}, now_ms());
    }
  }
  ::close(fd);
  std::signal(SIGINT, SIG_DFL);

  const auto outcomes = client.drain();
  std::size_t ok_answers = 0;
  for (const wps::Outcome& o : outcomes) {
    std::cout << "request " << o.request_id << ": ";
    switch (o.kind) {
      case wps::OutcomeKind::kAnswered:
        if (o.response.status == wps::QueryStatus::kOk) {
          ++ok_answers;
          std::cout << "answered, " << o.response.aps.size() << " record"
                    << (o.response.aps.size() == 1 ? "" : "s");
        } else {
          std::cout << "answered (bad request)";
        }
        break;
      case wps::OutcomeKind::kShed: std::cout << "shed by server"; break;
      case wps::OutcomeKind::kTimedOut: std::cout << "timed out"; break;
      case wps::OutcomeKind::kCircuitOpen: std::cout << "circuit open"; break;
    }
    std::cout << " after " << o.attempts << " attempt"
              << (o.attempts == 1 ? "" : "s") << " in "
              << (o.completed_ms - o.issued_ms) << " ms\n";
  }

  const wps::RemoteClientStats& st = client.stats();
  util::Table table({"issued", "answered", "shed", "timed out", "circuit",
                     "tx", "retx", "retry-after", "stale"});
  table.add_row({std::to_string(st.issued), std::to_string(st.answered),
                 std::to_string(st.shed), std::to_string(st.timed_out),
                 std::to_string(st.circuit_open),
                 std::to_string(st.transmissions),
                 std::to_string(st.retransmissions),
                 std::to_string(st.retry_after_seen),
                 std::to_string(st.stale_responses)});
  table.print(std::cout);

  if (ok_answers < expect_ok) {
    std::cerr << "mmctl wps-query send: expected >= " << expect_ok << " ok answers, got "
              << ok_answers << "\n";
    return 1;
  }
  return g_wps_interrupted.load() ? 130 : 0;
}

}  // namespace

int cmd_wps_query(const util::Flags& flags) {
  const auto& positional = flags.positional();
  const std::string mode = positional.empty() ? "" : positional.front();
  if (mode == "encode") return wps_query_encode(flags);
  if (mode == "decode") return wps_query_decode(flags);
  if (mode == "send") return wps_query_send(flags);
  std::cerr << "mmctl wps-query: first argument must be 'encode', 'decode', or 'send'\n";
  return 2;
}

int cmd_wps_surveil(const util::Flags& flags) {
  wps::SurveilOptions options;
  options.seed = flags.get_seed(options.seed);
  const auto population = [&](const char* key, std::size_t fallback) {
    return static_cast<std::size_t>(
        flags.get_int_in(key, static_cast<std::int64_t>(fallback), 0, kMaxSurveilPopulation));
  };
  const auto hours = [&](const char* key, double fallback_s) {
    return flags.get_double_in(key, fallback_s / 3600.0, 0.0, kMaxSurveilHours) * 3600.0;
  };
  options.fixed_ap_count = population("fixed-aps", options.fixed_ap_count);
  options.device_count = population("devices", options.device_count);
  options.duration_s = hours("duration-hours", options.duration_s);
  options.snapshot_refresh_s = hours("refresh-hours", options.snapshot_refresh_s);
  options.query_interval_s = hours("sweep-hours", options.query_interval_s);
  options.speed_mps = flags.get_double_in("speed", options.speed_mps, 0.0, kMaxSurveilSpeedMps);
  options.ap_density_per_km2 = flags.get_double("density", options.ap_density_per_km2);
  options.nearest_k = static_cast<std::size_t>(
      flags.get_int_in("k", static_cast<std::int64_t>(options.nearest_k), 0, kMaxNearestK));
  options.tile_size_m =
      flags.get_double_in("tile-size", options.tile_size_m, kMinPositive, kMaxFinite);
  const auto top = static_cast<std::size_t>(
      flags.get_int_in("top", 10, 0, std::numeric_limits<std::int64_t>::max()));

  fs::path workdir = flags.get("workdir", "");
  if (workdir.empty()) workdir = fs::temp_directory_path() / "mm_wps_surveil";
  std::error_code ec;
  fs::create_directories(workdir, ec);
  if (ec) {
    std::cerr << "mmctl wps-surveil: cannot create --workdir " << workdir << ": "
              << ec.message() << "\n";
    return 1;
  }

  auto result = wps::run_surveillance(workdir, options);
  if (!result.ok()) {
    std::cerr << "mmctl wps-surveil: " << result.error() << "\n";
    return 1;
  }
  const wps::SurveilReport report = std::move(result).value();

  std::cout << "replayed " << util::Table::fmt(options.duration_s / 3600.0, 1)
            << " h of movement: " << report.epochs << " snapshot epochs, "
            << report.queries_issued << " queries ("
            << report.lookup_hits << " lookup hits), last snapshot "
            << report.snapshot_bytes << " bytes\n";
  std::cout << report.devices_sighted << "/" << report.devices_total
            << " devices sighted, " << report.devices_tracked
            << " tracked across tiles ("
            << util::Table::fmt(report.mean_tiles_per_device, 2)
            << " tiles/device mean), " << report.infrastructure_seen
            << " fixed APs harvested\n\n";

  // The movement map the query interface alone reconstructed: most-tracked
  // devices first.
  std::vector<const wps::DeviceTrack*> ranked;
  ranked.reserve(report.tracks.size());
  for (const wps::DeviceTrack& track : report.tracks) ranked.push_back(&track);
  std::sort(ranked.begin(), ranked.end(),
            [](const wps::DeviceTrack* a, const wps::DeviceTrack* b) {
              if (a->distinct_tiles != b->distinct_tiles)
                return a->distinct_tiles > b->distinct_tiles;
              if (a->sightings != b->sightings) return a->sightings > b->sightings;
              return a->bssid < b->bssid;
            });
  util::Table table({"device", "sightings", "tiles", "path (m)"});
  for (std::size_t i = 0; i < ranked.size() && i < top; ++i) {
    table.add_row({net80211::MacAddress::from_u64(ranked[i]->bssid).to_string(),
                   std::to_string(ranked[i]->sightings),
                   std::to_string(ranked[i]->distinct_tiles),
                   util::Table::fmt(ranked[i]->path_length_m, 0)});
  }
  table.print(std::cout);

  const std::string json_path = flags.get("stats-json", "");
  if (!json_path.empty()) {
    std::ofstream out(json_path);
    out << "{\n";
    out << "  \"epochs\": " << report.epochs << ",\n";
    out << "  \"queries_issued\": " << report.queries_issued << ",\n";
    out << "  \"lookup_hits\": " << report.lookup_hits << ",\n";
    out << "  \"infrastructure_seen\": " << report.infrastructure_seen << ",\n";
    out << "  \"devices_total\": " << report.devices_total << ",\n";
    out << "  \"devices_sighted\": " << report.devices_sighted << ",\n";
    out << "  \"devices_tracked\": " << report.devices_tracked << ",\n";
    out << "  \"mean_tiles_per_device\": " << report.mean_tiles_per_device << ",\n";
    out << "  \"snapshot_bytes\": " << report.snapshot_bytes << "\n";
    out << "}\n";
    std::cout << "wrote " << json_path << "\n";
  }
  return 0;
}

}  // namespace mm::tools
