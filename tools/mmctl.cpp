// mmctl — the digital Marauder's map command-line tool.
//
//   mmctl simulate --config scenario.ini --out prefix
//   mmctl locate   --apdb apdb.csv --observations obs.csv [--algorithm mloc]
//   mmctl locate   --apdb apdb.csv --pcap capture.pcap --map map.html
//   mmctl wigle    --in wigle_export.csv --out apdb.csv
//   mmctl info     --pcap capture.pcap
#include <cstring>
#include <iostream>

#include "commands.h"

namespace {

void print_usage() {
  std::cout <<
      R"(mmctl — the digital Marauder's map toolkit

usage: mmctl <command> [flags]

A numeric flag is read whole and checked against the range stated below;
a bad value exits 2 and names the flag.

commands:
  simulate   run an INI-described scenario; writes pcap + AP db + observations
             --config <scenario.ini>   (required)
             --out <prefix>            (default: mm_sim)
             --fault-plan <spec>       inject capture faults, e.g.
                                       corrupt=0.01,drop=0.005,nic-dropout=0.02,seed=7
                                       keys: corrupt, corrupt-bits, truncate, drop,
                                       dup, nic-dropout, dropout-mean, skew, drift,
                                       torn, seed
             --checkpoint-interval <s> periodic atomic snapshots of the store
  locate     localize every observed device
             --apdb <apdb.csv>         (required)
             --observations <obs.csv>  or  --pcap <capture.pcap>
             --algorithm mloc|aprad|centroid|nearest   (default: mloc)
             --reject-outliers         shed inconsistent discs instead of
                                       collapsing to the centroid fallback
             --fault-plan <spec>       inject faults during pcap replay
             --map <out.html>          optional map render
  wigle      convert a WiGLE app export into an AP database CSV
             --in <wigle.csv> --out <apdb.csv>
  info       capture statistics from a pcap
             --pcap <capture.pcap>
  live       stream a capture through Riptide, the sharded live-tracking
             engine, and print throughput stats + the live position snapshot
             --pcap <capture.pcap> --apdb <apdb.csv>   (required)
             --shards <N>              worker shards, in [1, 64] (default: 4)
             --speed <X>               pace at X times capture speed (0 = flat out)
             --ring-capacity <N>       per-shard ingest ring slots, in
                                       [1, 1048576], rounded up to a power
                                       of two (default: 16384)
             --drop-policy drop|block  backpressure when a ring fills (default: drop)
             --fault-plan <spec>       inject faults into the stream (see simulate)
             --reject-outliers         shed inconsistent discs in live M-Loc
             --stats-json <out.json>   machine-readable engine stats
             --wal-dir <dir>           Phoenix durability: per-shard WAL +
                                       checkpoints under <dir>/shard-N/
             --checkpoint-secs <s>     checkpoint cadence, >= 0 (default: 30;
                                       0 = only the final checkpoint)
             --no-fsync                skip fsync on WAL group commit
             --recover                 replay checkpoint + WAL tail from
                                       --wal-dir before ingesting
             --supervise               run the shard watchdog (restarts
                                       wedged/crashed shards)
             SIGINT/SIGTERM drain the rings, flush a final checkpoint, and
             still print/write the stats before exiting.
  net-send   encode a capture into the Lattice sensor-fabric wire format
             (framed + CRC32C + XOR parity) for a remote feed
             --pcap <capture.pcap>     (required)
             --out <stream.bin>        write the stream to a file or FIFO
             --udp <host:port>         ... or send one datagram per frame
                                       over a real UDP socket
             --stream-id <N>           feed identity, in [0, 4294967295]
                                       (default: 1)
             --fec-k <K>               data frames per parity frame, in
                                       [0, 65535] (default: 8; 0 disables
                                       parity)
             --link-plan <spec>        damage the stream with the seeded link
                                       simulator, e.g. drop=0.05,corrupt=0.01,
                                       reorder=0.02,burst=0.001,seed=7
                                       extra keys: reorder, reorder-depth,
                                       burst, burst-frames
  net-recv   reassemble Lattice streams into Riptide and print throughput,
             per-feed fabric health, and the live position snapshot
             --apdb <apdb.csv>         (required)
             --in <s1.bin[,s2.bin...]> recorded streams to replay
             --udp-listen <port>       ... or receive datagrams on loopback
             --idle-timeout-ms <ms>    end-of-stream silence (default: 5000,
                                       clamped 100..600000)
             --rcvbuf <bytes>          SO_RCVBUF request (default: 4 MiB,
                                       clamped 64 KiB..64 MiB)
             --stream-ids <1,2,...>    per-file stream ids, each in
                                       [0, 4294967295] (default: 1..N)
             --fec-window <W>          reassembly window in sequences, in
                                       [2, 65536] (default: 256)
             plus live's engine flags --shards/--ring-capacity/
             --drop-policy/--reject-outliers/--wal-dir/--checkpoint-secs/
             --no-fsync/--recover/--stats-json (none of its pcap-feed
             flags); prints live's tables and JSON plus a per-feed table
             and a "net" JSON block
  wps-build  freeze an AP database into Basilisk, the tile-sharded
             mmap-backed WPS snapshot format
             --apdb <apdb.csv> | --wigle <wigle.csv>   (one required)
             --out <snap.wps>          (required)
             --tile-size <m>           tile edge, finite and > 0 (default: 512;
                                       perf only)
             --no-mac-index            skip the O(log n) BSSID index section
             --no-fsync                skip fsync before the atomic rename
  wps-serve  answer WPS lookup/nearest/range requests carried as Lattice
             wire frames over a file/FIFO or over UDP; both go through the
             Aegis fault-tolerant tier (dedup, load shedding, SIGHUP hot-swap)
             --snapshot <snap.wps>     (required)
             --in <req> --out <resp>   byte-stream mode (required sans --udp)
             --udp <port>              ... or serve datagrams on loopback,
                                       port in [0, 65535] (0 = kernel-assigned,
                                       printed)
             --max-queue <N>           shed beyond this backlog per read or
                                       datagram, in [1, 65536] (default: 256)
             --dedup-window <N>        replayable responses, in [0, 65536]
                                       (default: 4096); a repeated stream id +
                                       seq is answered from the cache, on
                                       either transport
             --rcvbuf <bytes> / --idle-timeout-ms <ms>   as in net-recv
             --prewarm                 verify+index every tile eagerly at
                                       open; prewarm_s lands in the JSON
             --threads <N>             concurrent query execution, in
                                       [0, 256] (default: 1; 0 = one per core;
                                       responses stay in request order)
             --stats-json <out.json>   machine-readable serve stats; its
                                       latency p50/p99 are within 1.2% of
                                       the exact per-response percentiles
             SIGHUP re-opens --snapshot beside the live mmap between
             batches, checks every tile's CRC and the MAC index's, and
             swaps epochs (a damaged candidate is refused; serving continues)
  wps-query  the client end of wps-serve
             encode --op lookup --bssid <mac> --out <req>
             encode --op nearest --x <m> --y <m> --k <N> --out <req>
             encode --op range --x <m> --y <m> --radius <m> --out <req>
                    [--stream-id N] [--seq N]   (appends one frame per call;
                    give each request its own --seq, the server dedups on it)
             decode --in <resp> [--max-rows N] [--expect N]
             send   --udp <host:port> --op ... [--count N] [--retries N]
                    [--timeout-ms T] [--seed S] [--link-plan <spec>]
                    [--expect-ok N]   retrying Aegis client over live UDP
             bounds: --k in [1, 65535], --stream-id in [0, 4294967295],
                    --seq/--max-rows/--expect >= 0, --count in [1, 65536],
                    --expect-ok in [0, 65536], --retries in [1, 100],
                    --timeout-ms in [1, 600000]
  wps-surveil  replay the opportunistic mass-surveillance scenario: a moving
             population tracked through nothing but WPS query access
             --seed <S> --devices <N> --fixed-aps <N>   (each in [0, 16777216])
             --duration-hours/--refresh-hours/--sweep-hours <H>   (in [0, 8760])
             --speed <m/s> (in [0, 100]) --density <APs/km2>
             --k <N> (in [0, 65535]) --tile-size <m> (finite, > 0)
             --workdir <dir>           snapshot scratch dir (default: tmp)
             --top <N>                 rows of the tracked-device table (>= 0)
             --stats-json <out.json>   machine-readable report
  arena      Chimera attack-vs-defense sweep: attacker capability (identity
             signals enabled) x defense adoption, on a simulated campus
             --seed <S> --devices <N> --aps <N> --duration <s>
                                       devices in [1, 4096], APs in
                                       [1, 65536], duration in [0, 86400]
             --adoption <0,0.25,...>   adoption levels to sweep, each in [0, 1]
             --smoke                   small preset for CI
             --out <BENCH_arena.json>  machine-readable sweep
)";
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2 || std::strcmp(argv[1], "--help") == 0 ||
      std::strcmp(argv[1], "help") == 0) {
    print_usage();
    return argc < 2 ? 2 : 0;
  }
  const std::string command = argv[1];
  const mm::util::Flags flags(argc - 1, argv + 1);
  try {
    if (command == "simulate") return mm::tools::cmd_simulate(flags);
    if (command == "locate") return mm::tools::cmd_locate(flags);
    if (command == "wigle") return mm::tools::cmd_wigle(flags);
    if (command == "info") return mm::tools::cmd_info(flags);
    if (command == "live") return mm::tools::cmd_live(flags);
    if (command == "net-send") return mm::tools::cmd_net_send(flags);
    if (command == "net-recv") return mm::tools::cmd_net_recv(flags);
    if (command == "wps-build") return mm::tools::cmd_wps_build(flags);
    if (command == "wps-serve") return mm::tools::cmd_wps_serve(flags);
    if (command == "wps-query") return mm::tools::cmd_wps_query(flags);
    if (command == "wps-surveil") return mm::tools::cmd_wps_surveil(flags);
    if (command == "arena") return mm::tools::cmd_arena(flags);
  } catch (const mm::util::FlagError& error) {
    std::cerr << "mmctl " << command << ": " << error.what() << "\n";
    return 2;
  } catch (const std::exception& error) {
    std::cerr << "mmctl " << command << ": " << error.what() << "\n";
    return 1;
  }
  std::cerr << "mmctl: unknown command '" << command << "'\n\n";
  print_usage();
  return 2;
}
