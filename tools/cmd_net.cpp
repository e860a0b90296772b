// Lattice sensor-fabric commands (DESIGN.md §12).
//
//   mmctl net-send: a remote capture rig — decode a monitor-mode pcap into
//   FrameEvents, frame them with the wire codec + XOR parity, optionally
//   drag the byte stream through the seeded link simulator, and write the
//   (possibly damaged) stream to a file or pipe.
//
//   mmctl net-recv: the central engine — pump one or more recorded streams
//   through the SnifferFeedMux into Riptide. The engine around the feed is
//   `mmctl live`'s (live_engine.h); the feed adds its per-feed fabric
//   health table and the `net` stats-JSON block.
//
// The two ends meet over any dumb byte transport; a mkfifo between two
// terminals is the README's demo rig, and --udp/--udp-listen runs the same
// codec over a real lossy datagram socket (one datagram per wire frame — the
// resynchronizing decoder owes the wire no alignment, so datagram loss and
// reordering land exactly where the link simulator's do).
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <fstream>
#include <iostream>
#include <sstream>
#include <vector>

#include "commands.h"
#include "capture/replay.h"
#include "fault/fault_plan.h"
#include "live_engine.h"
#include "net/fec.h"
#include "net/link_sim.h"
#include "net/udp.h"
#include "net/wire_codec.h"
#include "net80211/pcap.h"
#include "pipeline/feed_mux.h"
#include "util/csv.h"
#include "util/table.h"

namespace mm::tools {

namespace {

void send_through_link(net::LinkSimulator& link, std::span<const std::uint8_t> bytes) {
  net::for_each_wire_frame(
      bytes, [&](std::span<const std::uint8_t> frame) { link.send(frame); });
}

}  // namespace

int cmd_net_send(const util::Flags& flags) {
  const std::string pcap_path = flags.get("pcap", "");
  const std::string out_path = flags.get("out", "");
  const std::string udp_spec = flags.get("udp", "");
  if (pcap_path.empty() || (out_path.empty() == udp_spec.empty())) {
    std::cerr << "mmctl net-send: --pcap and exactly one of --out/--udp are required\n";
    return 2;
  }
  const auto stream_id =
      static_cast<std::uint32_t>(flags.get_int_in("stream-id", 1, 0, kMaxStreamId));
  const auto fec_k = flags.get_int_in("fec-k", 8, 0, net::kMaxFecBlockK);

  std::unique_ptr<net::LinkSimulator> link;
  if (flags.has("link-plan")) {
    auto parsed = fault::FaultPlan::parse(flags.get("link-plan", ""));
    if (!parsed.ok()) {
      std::cerr << "mmctl net-send: --link-plan: " << parsed.error() << "\n";
      return 2;
    }
    link = std::make_unique<net::LinkSimulator>(parsed.value());
  }

  net80211::PcapReader reader(pcap_path);
  if (const auto error = capture::radiotap_error(reader)) {
    std::cerr << "mmctl net-send: --pcap: " << *error << "\n";
    return 1;
  }

  int udp_fd = -1;
  std::ofstream out;
  if (!udp_spec.empty()) {
    std::string error;
    udp_fd = net::open_udp_sender(udp_spec, error);
    if (udp_fd < 0) {
      std::cerr << "mmctl net-send: --udp: " << error << "\n";
      return 1;
    }
  } else {
    out.open(out_path, std::ios::binary);
    if (!out) {
      std::cerr << "mmctl net-send: cannot open --out " << out_path << "\n";
      return 1;
    }
  }

  net::FecEncoder encoder(stream_id, static_cast<std::size_t>(fec_k));
  std::vector<std::uint8_t> scratch;
  std::uint64_t events = 0;
  std::uint64_t datagrams = 0;

  // File sink: append the surviving bytes. UDP sink: one datagram per frame
  // (post-link bytes may carry damaged length fields, so the link's output
  // ships as whole take() chunks — boundary loss is part of the damage).
  const auto deliver = [&](std::span<const std::uint8_t> bytes) {
    if (udp_fd >= 0) {
      if (link) {
        if (!bytes.empty()) {
          ::send(udp_fd, bytes.data(), bytes.size(), 0);
          ++datagrams;
        }
      } else {
        net::for_each_wire_frame(bytes, [&](std::span<const std::uint8_t> frame) {
          ::send(udp_fd, frame.data(), frame.size(), 0);
          ++datagrams;
        });
      }
    } else {
      out.write(reinterpret_cast<const char*>(bytes.data()),
                static_cast<std::streamsize>(bytes.size()));
    }
  };
  const auto ship = [&](std::span<const std::uint8_t> bytes) {
    if (link) {
      send_through_link(*link, bytes);
      const std::vector<std::uint8_t> survived = link->take();
      deliver(survived);
    } else {
      deliver(bytes);
    }
  };

  // The rig damages the wire (--link-plan), not the records.
  capture::RecordFaults no_faults{fault::FaultPlan{}};
  capture::ReplayStats replay;
  capture::replay_records(reader, no_faults, replay, [&](const capture::FrameEvent& event) {
    // Same discipline as feed_pcap: one sequence per event, in pcap order.
    scratch.clear();
    encoder.push(++events, event, scratch);
    ship(scratch);
  });
  scratch.clear();
  encoder.flush(scratch);
  ship(scratch);
  if (link) {
    link->flush();
    const std::vector<std::uint8_t> tail = link->take();
    deliver(tail);
  }
  if (udp_fd >= 0) {
    ::close(udp_fd);
  } else {
    out.flush();
    if (!out) {
      std::cerr << "mmctl net-send: write failed for " << out_path << "\n";
      return 1;
    }
  }

  const net::FecEncoderStats& enc = encoder.stats();
  const double overhead =
      enc.data_bytes > 0
          ? 100.0 * static_cast<double>(enc.parity_bytes) / static_cast<double>(enc.data_bytes)
          : 0.0;
  std::cout << replay.records << " records -> " << events << " events ("
            << replay.malformed << " malformed), stream " << stream_id << ": " << enc.data_frames
            << " data + " << enc.parity_frames << " parity frames, "
            << enc.data_bytes + enc.parity_bytes << " wire bytes ("
            << util::Table::fmt(overhead, 1) << "% parity overhead, k="
            << fec_k << ")\n";
  if (link) {
    const net::LinkStats& l = link->stats();
    std::cout << "link: " << l.frames_sent << " sent, " << l.frames_delivered
              << " delivered, " << l.dropped << " dropped, " << l.burst_dropped
              << " burst-dropped, " << l.corrupted << " corrupted, " << l.truncated
              << " truncated, " << l.duplicated << " duplicated, " << l.reordered
              << " reordered\n";
  }
  if (udp_fd >= 0) {
    std::cout << "sent " << datagrams << " datagrams to " << udp_spec << "\n";
  } else {
    std::cout << "wrote " << out_path << "\n";
  }
  return 0;
}

int cmd_net_recv(const util::Flags& flags) {
  const std::string in_list = flags.get("in", "");
  const bool udp_mode = flags.has("udp-listen");
  if (flags.get("apdb", "").empty() || (in_list.empty() == !udp_mode)) {
    std::cerr << "mmctl net-recv: --apdb and exactly one of --in/--udp-listen are required\n";
    return 2;
  }
  const std::vector<std::string> paths = util::split_list(in_list);

  std::vector<std::uint32_t> stream_ids;
  if (flags.has("stream-ids")) {
    for (const std::int64_t id : flags.get_int_list("stream-ids", 0, kMaxStreamId)) {
      stream_ids.push_back(static_cast<std::uint32_t>(id));
    }
    if (!udp_mode && stream_ids.size() != paths.size()) {
      std::cerr << "mmctl net-recv: --stream-ids must list one id per --in file\n";
      return 2;
    }
    if (udp_mode && stream_ids.size() != 1) {
      std::cerr << "mmctl net-recv: --udp-listen carries a single feed; give one --stream-ids\n";
      return 2;
    }
  } else if (udp_mode) {
    stream_ids.push_back(1);
  } else {
    // net-send defaults to stream 1; multiple rigs are expected to be
    // launched with --stream-id 1,2,3,... matching their --in order here.
    for (std::size_t i = 0; i < paths.size(); ++i) {
      stream_ids.push_back(static_cast<std::uint32_t>(i + 1));
    }
  }
  const auto port = udp_mode ? flags.get_int_in("udp-listen", 0, 1, 65535) : 0;
  net::FecDecoderOptions fec_options;
  fec_options.reorder_window = static_cast<std::size_t>(
      flags.get_int_in("fec-window", 256, 2, net::kMaxReorderWindow));

  LiveEngine engine("mmctl net-recv");
  if (const int rc = engine.open(flags); rc != 0) return rc;

  int udp_fd = -1;
  if (udp_mode) {
    net::UdpListenerOptions listener;
    listener.rcvbuf_bytes = net::clamp_rcvbuf_bytes(
        flags.get_int("rcvbuf", net::kDefaultRcvbufBytes));
    std::string error;
    udp_fd = net::open_udp_listener(static_cast<std::uint16_t>(port), listener,
                                    error);
    if (udp_fd < 0) {
      std::cerr << "mmctl net-recv: --udp-listen: " << error << "\n";
      return 1;
    }
    std::cout << "listening on udp://127.0.0.1:" << port << "\n";
  }

  std::vector<std::ifstream> inputs;
  inputs.reserve(paths.size());
  for (const std::string& path : paths) {
    inputs.emplace_back(path, std::ios::binary);
    if (!inputs.back()) {
      std::cerr << "mmctl net-recv: cannot open --in " << path << "\n";
      return 1;
    }
  }

  engine.start();
  pipeline::SnifferFeedMux mux(engine.tracker(), fec_options);
  for (const std::uint32_t id : stream_ids) mux.add_feed(id);
  const std::atomic<bool>& stop = LiveEngine::stop_flag();

  std::uint64_t datagrams = 0;
  if (udp_mode) {
    // Datagram pump: each recv is one sender frame (or whatever loss and
    // reordering left of it); the stream ends after --idle-timeout-ms of
    // silence — a datagram socket has no EOF.
    const double idle_secs =
        net::clamp_idle_timeout_ms(flags.get_int("idle-timeout-ms", 5000)) / 1000.0;
    std::vector<std::uint8_t> datagram(1 << 16);
    auto last_data = std::chrono::steady_clock::now();
    while (!stop.load()) {
      const ssize_t got = ::recv(udp_fd, datagram.data(), datagram.size(), 0);
      if (got > 0) {
        ++datagrams;
        mux.on_bytes(0, {datagram.data(), static_cast<std::size_t>(got)});
        last_data = std::chrono::steady_clock::now();
        continue;
      }
      if (got < 0 && errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) break;
      const std::chrono::duration<double> idle =
          std::chrono::steady_clock::now() - last_data;
      if (idle.count() >= idle_secs) break;
    }
    ::close(udp_fd);
  } else {
    // Round-robin pump: interleave chunks across feeds the way a poll loop
    // over N sockets would, so the mux's global sequencing is exercised under
    // genuine interleaving (and stays deterministic for a given file set).
    constexpr std::size_t kChunkBytes = 4096;
    std::vector<std::uint8_t> chunk(kChunkBytes);
    bool any_open = true;
    while (any_open && !stop.load()) {
      any_open = false;
      for (std::size_t i = 0; i < inputs.size() && !stop.load(); ++i) {
        if (!inputs[i]) continue;
        inputs[i].read(reinterpret_cast<char*>(chunk.data()),
                       static_cast<std::streamsize>(kChunkBytes));
        const auto got = static_cast<std::size_t>(inputs[i].gcount());
        if (got > 0) {
          mux.on_bytes(i, {chunk.data(), got});
          any_open = true;
        }
      }
    }
  }
  mux.finish();
  engine.stop();

  const pipeline::FeedMuxStats net_stats = mux.stats();
  util::Table feed_table({"feed", "stream", "bytes", "frames", "resync", "crc fail",
                          "events", "recovered", "dup", "gaps", "health"});
  for (std::size_t i = 0; i < net_stats.feeds.size(); ++i) {
    const pipeline::FeedStats& f = net_stats.feeds[i];
    feed_table.add_row(
        {std::to_string(i), std::to_string(f.stream_id),
         std::to_string(f.wire.bytes_fed), std::to_string(f.wire.frames_decoded),
         std::to_string(f.wire.resync_bytes), std::to_string(f.wire.crc_failures),
         std::to_string(f.events_delivered), std::to_string(f.fec.recovered),
         std::to_string(f.fec.duplicates), std::to_string(f.fec.unrecoverable_gaps),
         f.degraded() ? "DEGRADED" : "ok"});
  }
  feed_table.print(std::cout);
  if (udp_mode) std::cout << datagrams << " datagrams received\n";
  std::cout << "\n";

  FeedReport report;
  std::ostringstream summary;
  summary << net_stats.events_delivered << " events into Riptide ("
          << net_stats.events_dropped << " ring-dropped), ";
  report.summary = summary.str();
  report.dropped = net_stats.events_dropped;
  for (const pipeline::FeedStats& f : net_stats.feeds) report.quarantined += f.fec.bad_payloads;
  report.write_json = [&](std::ostream& out) {
    out << "  \"net\": {\n";
    out << "    \"events_delivered\": " << net_stats.events_delivered << ",\n";
    out << "    \"events_dropped\": " << net_stats.events_dropped << ",\n";
    out << "    \"last_stream_seq\": " << net_stats.last_stream_seq << ",\n";
    out << "    \"feeds\": [\n";
    for (std::size_t i = 0; i < net_stats.feeds.size(); ++i) {
      const pipeline::FeedStats& f = net_stats.feeds[i];
      out << "      {\"stream_id\": " << f.stream_id
          << ", \"bytes_fed\": " << f.wire.bytes_fed
          << ", \"frames_decoded\": " << f.wire.frames_decoded
          << ", \"resync_bytes\": " << f.wire.resync_bytes
          << ", \"crc_failures\": " << f.wire.crc_failures
          << ", \"bad_version\": " << f.wire.bad_version
          << ", \"bad_length\": " << f.wire.bad_length
          << ", \"data_frames\": " << f.fec.data_frames
          << ", \"parity_frames\": " << f.fec.parity_frames
          << ", \"duplicates\": " << f.fec.duplicates
          << ", \"out_of_order\": " << f.fec.out_of_order
          << ", \"recovered\": " << f.fec.recovered
          << ", \"unrecoverable_gaps\": " << f.fec.unrecoverable_gaps
          << ", \"recoveries_late\": " << f.fec.recoveries_late
          << ", \"bad_payloads\": " << f.fec.bad_payloads
          << ", \"stream_mismatches\": " << f.stream_mismatches
          << ", \"events_delivered\": " << f.events_delivered
          << ", \"events_dropped\": " << f.events_dropped
          << ", \"degraded\": " << (f.degraded() ? "true" : "false") << "}"
          << (i + 1 < net_stats.feeds.size() ? "," : "") << "\n";
    }
    out << "    ]\n  },\n";
  };
  return engine.report(flags, report);
}

}  // namespace mm::tools
