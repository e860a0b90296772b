// Micro-benchmarks (google-benchmark) for the performance-critical kernels:
// disc-intersection geometry, AP-Rad's radius estimate on the bench campus,
// M-Loc localization, 802.11 frame codec, per-record capture decode,
// CRC-32, and pcap I/O.
#include <benchmark/benchmark.h>

#include <filesystem>
#include <vector>

#include "capture/replay.h"
#include "common.h"
#include "geo/disc_intersection.h"
#include "marauder/aprad.h"
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

// AP-Rad's whole radius estimate (constraint generation and the one LP
// solve) on the bench campus at 40, 130 and 170 APs. The campus walk and its
// session Gammas are built once per size, outside the timed loop.
void BM_ApRadEstimateRadii(benchmark::State& state) {
  bench::CampusRunConfig cfg;
  cfg.num_aps = static_cast<std::size_t>(state.range(0));
  const bench::CampusRun run = bench::run_campus(cfg);
  const marauder::ApDatabase db = marauder::ApDatabase::from_truth(run.truth, false);
  const auto gammas = run.store.session_gammas(marauder::TrackerOptions{}.session_gap_s);
  for (auto _ : state) {
    auto radii = marauder::aprad_estimate_radii(db, gammas);
    benchmark::DoNotOptimize(radii);
  }
}
BENCHMARK(BM_ApRadEstimateRadii)->Arg(40)->Arg(130)->Arg(170)->Unit(benchmark::kMillisecond);

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
