// mmctl subcommands. Each takes parsed flags and returns a process exit
// code; all I/O goes through stdout/stderr so the tool scripts cleanly.
#pragma once

#include <cstdint>
#include <limits>

#include "util/flags.h"

namespace mm::tools {

/// Largest --stream-id / --stream-ids value: the wire frame's u32 field.
inline constexpr std::int64_t kMaxStreamId = std::numeric_limits<std::uint32_t>::max();
/// get_double_in bounds of a flag that must be finite (kMaxFinite) and > 0
/// (kMinPositive); NaN and inf lie outside any range.
inline constexpr double kMinPositive = std::numeric_limits<double>::min();
inline constexpr double kMaxFinite = std::numeric_limits<double>::max();

/// `mmctl simulate --config scenario.ini --out prefix`
/// Runs a scenario described by an INI file and writes:
///   <prefix>.pcap              the sniffer's monitor-mode capture
///   <prefix>_apdb.csv          ground-truth AP database (with radii)
///   <prefix>_observations.csv  the live observation store
int cmd_simulate(const util::Flags& flags);

/// `mmctl locate --apdb apdb.csv (--observations obs.csv | --pcap cap.pcap)
///        [--algorithm mloc|aprad|centroid|nearest] [--map out.html]`
/// Localizes every observed device and prints a table; optionally renders
/// the Marauder's map.
int cmd_locate(const util::Flags& flags);

/// `mmctl wigle --in wigle_export.csv --out apdb.csv`
/// Converts a WiGLE app export into the tool's AP-database CSV.
int cmd_wigle(const util::Flags& flags);

/// `mmctl info --pcap capture.pcap`
/// Prints capture statistics: record/subtype counts, devices seen, APs
/// sighted, channel distribution.
int cmd_info(const util::Flags& flags);

/// `mmctl live --pcap cap.pcap --apdb apdb.csv [--speed X] [--fault-plan spec]
///        [--supervise]` plus the engine flags of live_engine.h
/// Streams the capture through Riptide (the sharded live-tracking engine)
/// and prints per-shard throughput stats plus the live position snapshot.
int cmd_live(const util::Flags& flags);

/// `mmctl net-send --pcap cap.pcap --out stream.bin [--stream-id N]
///        [--fec-k K] [--link-plan spec]`
/// Encodes a capture into the Lattice wire format (framing + CRC + XOR
/// parity), optionally dragging it through the seeded lossy-link simulator.
int cmd_net_send(const util::Flags& flags);

/// `mmctl net-recv (--in s1.bin[,s2.bin...] | --udp-listen port) --apdb apdb.csv
///        [--stream-ids 1,2] [--fec-window W]` plus the engine flags of
///        live_engine.h
/// Reassembles one or more Lattice streams through the SnifferFeedMux into
/// Riptide and prints live's report plus per-feed fabric health.
int cmd_net_recv(const util::Flags& flags);

/// `mmctl wps-build (--apdb apdb.csv | --wigle wigle.csv) --out snap.wps
///        [--tile-size m] [--no-mac-index] [--no-fsync]`
/// Freezes an AP database into the Basilisk mmap-backed snapshot format.
int cmd_wps_build(const util::Flags& flags);

/// `mmctl wps-serve --snapshot snap.wps (--in req.bin --out resp.bin |
///        --udp port) [--threads N] [--prewarm] [--max-queue N]
///        [--dedup-window N] [--rcvbuf B] [--idle-timeout-ms T]
///        [--stats-json out.json]`
/// Answers lookup/nearest/range requests carried as Lattice wire frames —
/// from a file/FIFO byte stream or over loopback UDP, both through the Aegis
/// fault-tolerant tier (request-id dedup, bounded queue with explicit load
/// shedding). SIGHUP hot-swaps the snapshot with validation and rollback.
int cmd_wps_serve(const util::Flags& flags);

/// `mmctl wps-query encode --op lookup|nearest|range ... --out requests.bin`
/// `mmctl wps-query decode --in responses.bin [--expect N]`
/// `mmctl wps-query send --udp host:port --op ... [--count N] [--retries N]
///        [--timeout-ms T] [--link-plan spec] [--expect-ok N]`
/// The client end of wps-serve: appends request frames onto a stream /
/// decodes and prints a response stream / runs the retrying Aegis
/// RemoteClient against a live --udp server.
int cmd_wps_query(const util::Flags& flags);

/// `mmctl arena [--smoke] [--seed S] [--devices N] [--aps N] [--duration s]
///        [--adoption 0,0.25,0.5,...] [--out BENCH_arena.json]`
/// Runs the Chimera attack-vs-defense arena: one simulated campus population
/// per defense adoption level, attacked by the resolver capability ladder
/// (none / ssid / ssid+seq / full); prints per-cell %-tracked, median error,
/// and longest linked track, optionally writing the machine-readable sweep.
int cmd_arena(const util::Flags& flags);

/// `mmctl wps-surveil [--seed S] [--devices N] [--fixed-aps N]
///        [--duration-hours H] [--refresh-hours H] [--sweep-hours H]
///        [--workdir dir] [--stats-json out.json]`
/// Replays the opportunistic mass-surveillance scenario against the snapshot
/// backend and reports devices tracked across tiles.
int cmd_wps_surveil(const util::Flags& flags);

}  // namespace mm::tools
