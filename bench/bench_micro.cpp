// Micro-benchmarks (google-benchmark) for the performance-critical kernels:
// disc-intersection geometry, the simplex solver on AP-Rad-shaped LPs,
// M-Loc localization, 802.11 frame codec, per-record capture decode,
// CRC-32, and pcap I/O.
#include <benchmark/benchmark.h>

#include <filesystem>
#include <vector>

#include "capture/replay.h"
#include "geo/disc_intersection.h"
#include "lp/simplex.h"
#include "marauder/mloc.h"
#include "net80211/crc32.h"
#include "net80211/frames.h"
#include "net80211/pcap.h"
#include "net80211/radiotap.h"
#include "util/rng.h"

namespace {

using namespace mm;

std::vector<geo::Circle> random_discs(int k, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<geo::Circle> discs;
  discs.reserve(static_cast<std::size_t>(k));
  for (int i = 0; i < k; ++i) {
    discs.push_back({geo::Vec2::from_polar(90.0 * std::sqrt(rng.uniform()), rng.angle()),
                     rng.uniform(80.0, 120.0)});
  }
  return discs;
}

void BM_DiscIntersection(benchmark::State& state) {
  const auto discs = random_discs(static_cast<int>(state.range(0)), 42);
  for (auto _ : state) {
    auto region = geo::DiscIntersection::compute(discs);
    benchmark::DoNotOptimize(region.area());
  }
}
BENCHMARK(BM_DiscIntersection)->Arg(2)->Arg(4)->Arg(8)->Arg(16)->Arg(32);

void BM_MLocVertexAverage(benchmark::State& state) {
  const auto discs = random_discs(static_cast<int>(state.range(0)), 7);
  for (auto _ : state) {
    auto result = marauder::mloc_locate(discs);
    benchmark::DoNotOptimize(result.estimate);
  }
}
BENCHMARK(BM_MLocVertexAverage)->Arg(4)->Arg(8)->Arg(16);

void BM_MLocExactCentroid(benchmark::State& state) {
  const auto discs = random_discs(static_cast<int>(state.range(0)), 7);
  const marauder::MLocOptions options{.exact_region_centroid = true};
  for (auto _ : state) {
    auto result = marauder::mloc_locate(discs, options);
    benchmark::DoNotOptimize(result.estimate);
  }
}
BENCHMARK(BM_MLocExactCentroid)->Arg(4)->Arg(8)->Arg(16);

void BM_SimplexApRadShape(benchmark::State& state) {
  // n APs on a jittered grid; chain-style constraints as AP-Rad generates.
  const auto n = static_cast<std::size_t>(state.range(0));
  util::Rng rng(11);
  std::vector<geo::Vec2> positions;
  for (std::size_t i = 0; i < n; ++i) {
    positions.push_back({rng.uniform(-400.0, 400.0), rng.uniform(-400.0, 400.0)});
  }
  for (auto _ : state) {
    lp::LinearProgram program(n);
    for (std::size_t i = 0; i < n; ++i) {
      program.set_objective(i, 1.0);
      program.add_upper_bound(i, 200.0);
    }
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = i + 1; j < n; ++j) {
        const double d = positions[i].distance_to(positions[j]);
        if (d < 150.0) {
          program.add_constraint(
              {{{i, 1.0}, {j, 1.0}}, lp::Relation::kGreaterEqual, d, false, 0.0});
        } else if (d < 400.0) {
          program.add_constraint(
              {{{i, 1.0}, {j, 1.0}}, lp::Relation::kLessEqual, d - 1.0, true, 50.0});
        }
      }
    }
    auto solution = program.solve();
    benchmark::DoNotOptimize(solution.objective);
  }
}
BENCHMARK(BM_SimplexApRadShape)->Arg(10)->Arg(25)->Arg(50)->Unit(benchmark::kMillisecond);

void BM_FrameSerialize(benchmark::State& state) {
  const auto ap = *net80211::MacAddress::parse("00:1a:2b:00:00:01");
  const auto beacon = net80211::make_beacon(ap, "CampusNet", 6, 12345, 7);
  for (auto _ : state) {
    auto bytes = beacon.serialize();
    benchmark::DoNotOptimize(bytes.data());
  }
}
BENCHMARK(BM_FrameSerialize);

void BM_FrameParse(benchmark::State& state) {
  const auto ap = *net80211::MacAddress::parse("00:1a:2b:00:00:01");
  const auto bytes = net80211::make_beacon(ap, "CampusNet", 6, 12345, 7).serialize();
  for (auto _ : state) {
    auto frame = net80211::ManagementFrame::parse(bytes);
    benchmark::DoNotOptimize(frame.ok());
  }
}
BENCHMARK(BM_FrameParse);

// What replay pays per pcap record: radiotap, the zero-copy FrameView::parse
// (FCS included) and classify_frame, on one probe response.
void BM_DecodeRecord(benchmark::State& state) {
  const auto ap = *net80211::MacAddress::parse("00:1a:2b:00:00:01");
  const auto client = *net80211::MacAddress::parse("00:16:6f:00:00:02");
  net80211::Radiotap rt;
  rt.antenna_signal_dbm = -61;
  std::vector<std::uint8_t> bytes = rt.serialize();
  const auto body =
      net80211::make_probe_response(ap, client, "CampusNet", 6, 12345, 7).serialize();
  bytes.insert(bytes.end(), body.begin(), body.end());
  const net80211::PcapRecordView record{12345, bytes};
  capture::ClassifiedFrame decoded;
  for (auto _ : state) {
    benchmark::DoNotOptimize(capture::decode_record(record, decoded));
    benchmark::DoNotOptimize(decoded);
  }
}
BENCHMARK(BM_DecodeRecord);

void BM_Crc32(benchmark::State& state) {
  std::vector<std::uint8_t> data(static_cast<std::size_t>(state.range(0)), 0xa5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(net80211::crc32(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_Crc32)->Arg(64)->Arg(1500);

void BM_PcapWrite(benchmark::State& state) {
  const auto path = std::filesystem::temp_directory_path() / "mm_bench.pcap";
  const std::vector<std::uint8_t> frame(128, 0x42);
  for (auto _ : state) {
    state.PauseTiming();
    net80211::PcapWriter writer(path);
    state.ResumeTiming();
    for (int i = 0; i < 1000; ++i) writer.write(static_cast<std::uint64_t>(i), frame);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
  std::filesystem::remove(path);
}
BENCHMARK(BM_PcapWrite)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
