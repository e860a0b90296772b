#include "capture/replay.h"

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <bit>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <new>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "capture/persistence.h"
#include "capture/sniffer.h"
#include "net80211/crc32.h"
#include "net80211/frames.h"
#include "net80211/pcap.h"
#include "net80211/radiotap.h"
#include "sim/ap.h"
#include "sim/mobile.h"
#include "sim/mobility.h"
#include "unique_temp_path.h"
#include "util/bytes.h"
#include "util/rng.h"

// Allocation failure on demand, for the decode helper's exception path:
// while armed, every allocation made on a thread other than the arming one
// throws std::bad_alloc. Every unaligned new/delete form is replaced, so
// memory never crosses between this allocator and a sanitizer's own; they
// stay out of line, where the compiler cannot pair a new it inlined with
// the free() behind a delete.
namespace {
std::atomic<bool> g_fail_other_threads{false};
std::thread::id g_arming_thread;
}  // namespace

[[gnu::noinline]] void* operator new(std::size_t size) {
  if (g_fail_other_threads.load(std::memory_order_acquire) &&
      std::this_thread::get_id() != g_arming_thread) {
    throw std::bad_alloc();
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void* operator new[](std::size_t size) { return ::operator new(size); }
[[gnu::noinline]] void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return ::operator new(size);
  } catch (...) {
    return nullptr;
  }
}
[[gnu::noinline]] void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return ::operator new(size, tag);
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace mm::capture {
namespace {

const net80211::MacAddress kApMac = *net80211::MacAddress::parse("00:1a:2b:00:00:01");
const net80211::MacAddress kClientMac = *net80211::MacAddress::parse("00:16:6f:00:00:02");

std::filesystem::path record_session() {
  const auto path = testing_support::unique_temp_path("mm_replay.pcap");
  sim::World world({});
  sim::ApConfig ap;
  ap.bssid = kApMac;
  ap.ssid = "ReplayNet";
  ap.channel = {rf::Band::kBg24GHz, 6};
  ap.position = {40.0, 0.0};
  ap.service_radius_m = 100.0;
  ap.beacons_enabled = true;
  world.add_access_point(std::make_unique<sim::AccessPoint>(ap));

  sim::MobileConfig mc;
  mc.mac = kClientMac;
  mc.profile.probes = false;
  mc.mobility = std::make_shared<sim::StaticPosition>(geo::Vec2{0.0, 0.0});
  sim::MobileDevice* mobile = world.add_mobile(std::make_unique<sim::MobileDevice>(mc));

  ObservationStore live;
  SnifferConfig sc;
  sc.position = {0.0, 60.0};
  sc.pcap_path = path;
  Sniffer sniffer(sc, &live);
  sniffer.attach(world);
  mobile->trigger_scan();
  world.run_until(5.0);
  return path;
}

TEST(Replay, RebuildsObservationsFromPcap) {
  const auto path = record_session();
  ObservationStore offline;
  const auto replayed = replay_pcap(path, offline);
  ASSERT_TRUE(replayed.ok()) << replayed.error();
  const ReplayStats& stats = replayed.value();
  EXPECT_GT(stats.records, 0u);
  EXPECT_EQ(stats.malformed, 0u);
  EXPECT_EQ(stats.framing_quarantined, 0u);
  EXPECT_FALSE(stats.truncated_tail);
  EXPECT_GT(stats.probe_requests, 0u);
  EXPECT_EQ(stats.probe_responses, 1u);
  EXPECT_GT(stats.beacons, 0u);

  // The offline store carries the same Gamma evidence the live store did.
  EXPECT_EQ(offline.gamma(kClientMac), (std::set<net80211::MacAddress>{kApMac}));
  const DeviceRecord* rec = offline.device(kClientMac);
  ASSERT_NE(rec, nullptr);
  EXPECT_GT(rec->probe_requests, 0u);
  // Beacon sightings recovered too (channel survey works offline).
  const ApSighting* sighting = offline.sighting(kApMac);
  ASSERT_NE(sighting, nullptr);
  EXPECT_EQ(sighting->ssid, "ReplayNet");
  EXPECT_EQ(sighting->channel, 6);
  std::filesystem::remove(path);
}

TEST(Replay, RejectsWrongLinktype) {
  const auto path = testing_support::unique_temp_path("mm_replay_bad.pcap");
  { net80211::PcapWriter writer(path, net80211::kLinktype80211); }
  ObservationStore store;
  const auto replayed = replay_pcap(path, store);
  EXPECT_FALSE(replayed.ok());
  EXPECT_NE(replayed.error().find("linktype"), std::string::npos);
  std::filesystem::remove(path);
}

TEST(Replay, MissingFileIsFailure) {
  ObservationStore store;
  const auto replayed = replay_pcap("/nonexistent.pcap", store);
  EXPECT_FALSE(replayed.ok());
  EXPECT_FALSE(replayed.error().empty());
}

TEST(Replay, CountsMalformedRecords) {
  const auto path = testing_support::unique_temp_path("mm_replay_junk.pcap");
  {
    net80211::PcapWriter writer(path, net80211::kLinktypeRadiotap);
    writer.write(0, std::vector<std::uint8_t>{0x01, 0x02, 0x03});  // not radiotap
  }
  ObservationStore store;
  const auto replayed = replay_pcap(path, store);
  ASSERT_TRUE(replayed.ok());
  EXPECT_EQ(replayed.value().records, 1u);
  EXPECT_EQ(replayed.value().malformed, 1u);
  EXPECT_EQ(replayed.value().quarantined(), 1u);
  EXPECT_EQ(store.device_count(), 0u);
  std::filesystem::remove(path);
}

// A radiotap header whose advertised length exceeds the record must be
// quarantined as malformed without ever reading past the record's bytes
// (run under ASan in CI to prove the "never" part).
TEST(Replay, RadiotapLengthBeyondRecordQuarantined) {
  const auto path = testing_support::unique_temp_path("mm_replay_oob.pcap");
  {
    net80211::Radiotap rt;
    rt.antenna_signal_dbm = -60;
    auto packet = rt.serialize();
    // Lie in the it_len field: claim far more header than the record holds.
    packet[2] = 0xff;
    packet[3] = 0x00;
    net80211::PcapWriter writer(path, net80211::kLinktypeRadiotap);
    writer.write(0, packet);
  }
  ObservationStore store;
  const auto replayed = replay_pcap(path, store);
  ASSERT_TRUE(replayed.ok());
  EXPECT_EQ(replayed.value().records, 1u);
  EXPECT_EQ(replayed.value().malformed, 1u);
  EXPECT_EQ(store.device_count(), 0u);
  std::filesystem::remove(path);
}

TEST(Replay, TruncatedTailReported) {
  const auto path = record_session();
  std::filesystem::resize_file(path, std::filesystem::file_size(path) - 7);
  ObservationStore store;
  const auto replayed = replay_pcap(path, store);
  ASSERT_TRUE(replayed.ok());
  EXPECT_TRUE(replayed.value().truncated_tail);
  EXPECT_GT(replayed.value().records, 0u);  // intact prefix still ingested
  std::filesystem::remove(path);
}

// Replaying under a full-drop fault plan ingests nothing; a duplication
// plan ingests every record twice. Both leave the stats ledger consistent.
TEST(Replay, FaultPlanDropAndDuplicate) {
  const auto path = record_session();

  ObservationStore clean_store;
  const auto clean = replay_pcap(path, clean_store);
  ASSERT_TRUE(clean.ok());

  ReplayOptions drop_all;
  drop_all.fault_plan.drop_rate = 1.0;
  ObservationStore dropped_store;
  const auto dropped = replay_pcap(path, dropped_store, drop_all);
  ASSERT_TRUE(dropped.ok());
  EXPECT_EQ(dropped.value().faults.frames_dropped, clean.value().records);
  EXPECT_EQ(dropped_store.device_count(), 0u);

  ReplayOptions dup_all;
  dup_all.fault_plan.duplicate_rate = 1.0;
  ObservationStore duped_store;
  const auto duped = replay_pcap(path, duped_store, dup_all);
  ASSERT_TRUE(duped.ok());
  EXPECT_EQ(duped.value().faults.frames_duplicated, clean.value().records);
  EXPECT_EQ(duped.value().probe_requests, 2 * clean.value().probe_requests);
  std::filesystem::remove(path);
}

// ---------------------------------------------------------------------------
// The two-stage walk (a decode helper, the caller applying) against the
// serial loop it replaced.

/// The serial record loop, as replay_records ran it before its decode moved
/// onto a helper thread: the reference the two-stage walk must equal.
template <typename OnEvent>
bool serial_replay_records(net80211::PcapReader& reader, RecordFaults& faults,
                           ReplayStats& stats, OnEvent&& on_event,
                           const std::atomic<bool>* stop = nullptr) {
  bool interrupted = false;
  while (auto record = reader.next()) {
    if (stop != nullptr && stop->load(std::memory_order_acquire)) {
      interrupted = true;
      break;
    }
    ++stats.records;
    const int deliveries = faults.apply(*record);
    for (int i = 0; i < deliveries; ++i) {
      ClassifiedFrame decoded;
      if (!decode_record(*record, decoded)) {
        util::sat_inc(stats.malformed);  // quarantine counters never wrap
        continue;
      }
      count_frame_class(decoded.cls, stats);
      if (decoded.has_event) on_event(decoded.event);
    }
  }
  stats.framing_quarantined = reader.quarantined();
  stats.truncated_tail = reader.truncated();
  stats.faults = faults.stats();
  return interrupted;
}

constexpr std::size_t kBlock = kReplayBlockSlots;
/// 21 full blocks and a partial one, when no fault plan moves the slots.
constexpr std::size_t kSynthRecords = 21 * kBlock + 777;
/// Where the stop tests set `stop` (0-based records, each a beacon): the
/// last slot of block 3, and the middle of block 4.
constexpr std::size_t kEdgeStopRecord = 4 * kBlock - 1;
constexpr std::size_t kMidStopRecord = 4 * kBlock + 1000;

enum class Damage { kRadiotapLength, kFcs, kSubtype, kIeOverrun };

std::vector<std::uint8_t> with_radiotap(const std::vector<std::uint8_t>& frame, int rssi_dbm) {
  net80211::Radiotap rt;
  rt.antenna_signal_dbm = static_cast<std::int8_t>(rssi_dbm);
  std::vector<std::uint8_t> record = rt.serialize();
  record.insert(record.end(), frame.begin(), frame.end());
  return record;
}

void refresh_fcs(std::vector<std::uint8_t>& frame) {
  const std::size_t body = frame.size() - 4;
  util::store_u32(frame.data() + body, net80211::crc32(std::span(frame).first(body)));
}

/// A probe request every decode_record must quarantine, one way or another.
std::vector<std::uint8_t> malformed_record(Damage damage, const net80211::MacAddress& device) {
  std::vector<std::uint8_t> frame = net80211::make_probe_request(device, "Broken", 9).serialize();
  switch (damage) {
    case Damage::kRadiotapLength: {
      std::vector<std::uint8_t> record = with_radiotap(frame, -70);
      record[2] = 0xff;  // it_len far beyond the record
      record[3] = 0xff;
      return record;
    }
    case Damage::kFcs:
      frame[frame.size() - 5] ^= 0x01;  // last body byte; the FCS stays
      break;
    case Damage::kSubtype:
      frame[0] = 0x20;  // reassociation request: not a subtype the parser takes
      refresh_fcs(frame);
      break;
    case Damage::kIeOverrun: {
      const std::vector<std::uint8_t> overrun{0xdd, 0x40, 0x01};  // claims 64 bytes, holds 1
      frame.insert(frame.end() - 4, overrun.begin(), overrun.end());
      refresh_fcs(frame);
      break;
    }
  }
  return with_radiotap(frame, -70);
}

/// The damage of record `i`, if it is one of the malformed ones: record 0,
/// the last, every 211th, and the records at block - 1, block and block + 1
/// of blocks 1, 5, 9 and 13, where each of those three places takes each
/// damage once.
std::optional<Damage> damage_at(std::size_t i) {
  const std::array<std::size_t, 4> edge_blocks{1, 5, 9, 13};
  for (std::size_t e = 0; e < edge_blocks.size(); ++e) {
    const std::size_t edge = edge_blocks[e] * kBlock;
    if (i + 1 >= edge && i <= edge + 1) return static_cast<Damage>((e + i + 1 - edge) % 4);
  }
  if (i == 0 || i == kSynthRecords - 1 || i % 211 == 0) {
    return static_cast<Damage>((i / 211) % 4);
  }
  return std::nullopt;
}

struct SynthCapture {
  std::filesystem::path path;
  std::vector<std::uint64_t> record_offsets;  ///< file offset of each record header
  std::uint64_t malformed = 0;
};

/// kSynthRecords records mixing every subtype FrameView::parse accepts,
/// with the malformed records of damage_at; written once per process.
const SynthCapture& synth_capture() {
  static const SynthCapture capture = [] {
    SynthCapture out;
    out.path = testing_support::process_temp_dir() / "mm_replay_synth.pcap";
    net80211::PcapWriter writer(out.path, net80211::kLinktypeRadiotap);
    util::Rng rng(0x5eed);
    const auto device = [&] {
      return net80211::MacAddress::from_u64(0x02aa00000000u + rng.uniform_int(0, 256));
    };
    const auto ap = [&] {
      return net80211::MacAddress::from_u64(0x001a2b000000u + rng.uniform_int(0, 36));
    };
    const std::vector<std::string> ssids{"HomeNet", "CampusWiFi", "Cafe", "eduroam"};
    std::uint64_t offset = 24;  // the global header
    for (std::size_t i = 0; i < kSynthRecords; ++i) {
      const auto seq = static_cast<std::uint16_t>(i % 4096);
      const auto ssid = ssids[static_cast<std::size_t>(rng.uniform_int(0, 3))];
      const int channel = static_cast<int>(rng.uniform_int(1, 11));
      std::vector<std::uint8_t> record;
      if (const std::optional<Damage> damage = damage_at(i)) {
        record = malformed_record(*damage, device());
        ++out.malformed;
      } else {
        const bool beacon = i == kEdgeStopRecord || i == kMidStopRecord;
        net80211::ManagementFrame frame;
        switch (beacon ? 0 : rng.uniform_int(0, 9)) {
          case 0:
          case 1:
            frame = net80211::make_beacon(ap(), ssid, channel, i, seq);
            break;
          case 2:
            frame = net80211::make_probe_request(device(), ssid, seq);
            break;
          case 3:
            frame = net80211::make_probe_request(device(), std::nullopt, seq);
            break;
          case 4:
            frame = net80211::make_probe_response(ap(), device(), ssid, channel, i, seq);
            break;
          case 5:
            frame = net80211::make_association_request(device(), ap(), ssid, seq);
            break;
          case 6:
            frame = net80211::make_association_response(ap(), device(), 0, 1, seq);
            break;
          case 7:
            frame = net80211::make_association_response(ap(), device(), 17, 0, seq);
            break;
          case 8:
            frame = net80211::make_deauth(device(), ap(), 7, seq);
            break;
          default:
            frame = net80211::make_data_null(device(), ap(), seq);
            break;
        }
        record = with_radiotap(frame.serialize(), static_cast<int>(rng.uniform_int(-90, -30)));
      }
      out.record_offsets.push_back(offset);
      offset += 16 + record.size();
      writer.write(1'000'000 + 1000 * i + static_cast<std::uint64_t>(rng.uniform_int(0, 999)),
                   record);
    }
    return out;
  }();
  return capture;
}

struct Walk {
  bool interrupted = false;
  ReplayStats stats;
  std::vector<FrameEvent> events;
};

/// One walk over `path` by `replay` (replay_records or the serial oracle),
/// setting `stop` from on_event once the 1-based record `stop_record` has
/// delivered an event (0: never).
template <typename Replay>
Walk walk(Replay&& replay, const std::filesystem::path& path,
          const fault::FaultPlan& plan = {}, std::uint64_t stop_record = 0) {
  net80211::PcapReader reader(path);
  EXPECT_FALSE(radiotap_error(reader).has_value());
  RecordFaults faults(plan);
  std::atomic<bool> stop{false};
  Walk out;
  out.interrupted = replay(
      reader, faults, out.stats,
      [&](const FrameEvent& event) {
        out.events.push_back(event);
        if (out.stats.records == stop_record) stop.store(true, std::memory_order_release);
      },
      &stop);
  return out;
}

const auto kTwoStage = [](auto&&... args) {
  return replay_records(std::forward<decltype(args)>(args)...);
};
const auto kSerial = [](auto&&... args) {
  return serial_replay_records(std::forward<decltype(args)>(args)...);
};

void expect_same_event(const FrameEvent& got, const FrameEvent& want, std::size_t i) {
  SCOPED_TRACE("event " + std::to_string(i));
  EXPECT_EQ(got.kind, want.kind);
  EXPECT_EQ(got.stream_seq, want.stream_seq);
  EXPECT_EQ(got.device, want.device);
  EXPECT_EQ(got.ap, want.ap);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.time_s), std::bit_cast<std::uint64_t>(want.time_s));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.rssi_dbm),
            std::bit_cast<std::uint64_t>(want.rssi_dbm));
  EXPECT_EQ(got.channel, want.channel);
  EXPECT_EQ(got.device_seq, want.device_seq);
  EXPECT_EQ(got.has_ssid, want.has_ssid);
  EXPECT_EQ(got.ssid_len, want.ssid_len);
  EXPECT_EQ(std::memcmp(got.ssid, want.ssid, FrameEvent::kMaxSsid), 0);
}

/// The counters the caller keeps: exact even when `stop` ended the walk.
void expect_same_delivery_counts(const ReplayStats& got, const ReplayStats& want) {
  EXPECT_EQ(got.records, want.records);
  EXPECT_EQ(got.malformed, want.malformed);
  EXPECT_EQ(got.probe_requests, want.probe_requests);
  EXPECT_EQ(got.probe_responses, want.probe_responses);
  EXPECT_EQ(got.beacons, want.beacons);
  EXPECT_EQ(got.other, want.other);
}

void expect_same_stats(const ReplayStats& got, const ReplayStats& want) {
  expect_same_delivery_counts(got, want);
  EXPECT_EQ(got.framing_quarantined, want.framing_quarantined);
  EXPECT_EQ(got.truncated_tail, want.truncated_tail);
  EXPECT_EQ(got.faults.frames_seen, want.faults.frames_seen);
  EXPECT_EQ(got.faults.frames_corrupted, want.faults.frames_corrupted);
  EXPECT_EQ(got.faults.frames_truncated, want.faults.frames_truncated);
  EXPECT_EQ(got.faults.frames_dropped, want.faults.frames_dropped);
  EXPECT_EQ(got.faults.frames_duplicated, want.faults.frames_duplicated);
  EXPECT_EQ(got.faults.files_torn, want.faults.files_torn);
}

void expect_same_walk(const Walk& got, const Walk& want) {
  EXPECT_EQ(got.interrupted, want.interrupted);
  expect_same_stats(got.stats, want.stats);
  ASSERT_EQ(got.events.size(), want.events.size());
  for (std::size_t i = 0; i < got.events.size(); ++i) {
    expect_same_event(got.events[i], want.events[i], i);
  }
}

/// replay_pcap's store and stats against the serial oracle's, and the
/// two-stage replay_records' events and stats against it too.
void expect_matches_oracle(const std::filesystem::path& path, const fault::FaultPlan& plan = {}) {
  const Walk oracle = walk(kSerial, path, plan);
  expect_same_walk(walk(kTwoStage, path, plan), oracle);

  ObservationStore oracle_store;
  for (const FrameEvent& event : oracle.events) apply_event(event, oracle_store);
  ObservationStore store;
  const auto replayed = replay_pcap(path, store, ReplayOptions{plan});
  ASSERT_TRUE(replayed.ok()) << replayed.error();
  expect_same_stats(replayed.value(), oracle.stats);
  std::string want;
  std::string got;
  observations_csv(oracle_store, want);
  observations_csv(store, got);
  EXPECT_EQ(got, want);
}

TEST(Replay, TwoStageWalkMatchesSerialLoopOnSyntheticCapture) {
  const SynthCapture& capture = synth_capture();
  const Walk oracle = walk(kSerial, capture.path);
  // The fixture is what it claims: more than 20 blocks, every damage
  // quarantined, and every subtype counter reached.
  ASSERT_GE(oracle.stats.records, 20 * kBlock);
  EXPECT_EQ(oracle.stats.records, kSynthRecords);
  EXPECT_EQ(oracle.stats.malformed, capture.malformed);
  EXPECT_GT(oracle.stats.probe_requests, 0u);
  EXPECT_GT(oracle.stats.probe_responses, 0u);
  EXPECT_GT(oracle.stats.beacons, 0u);
  EXPECT_GT(oracle.stats.other, 0u);
  EXPECT_FALSE(oracle.interrupted);
  expect_matches_oracle(capture.path);
}

/// Records whose duplicate delivery straddles two blocks under `plan`: the
/// first delivery fills a block's last slot (a dropped record takes one slot).
std::size_t duplicates_across_block_edges(const std::filesystem::path& path,
                                          const fault::FaultPlan& plan) {
  net80211::PcapReader reader(path);
  RecordFaults faults(plan);
  std::size_t slot = 0;
  std::size_t straddling = 0;
  while (auto record = reader.next()) {
    const int deliveries = faults.apply(*record);
    if (deliveries == 2 && slot % kBlock == kBlock - 1) ++straddling;
    slot += static_cast<std::size_t>(std::max(deliveries, 1));
  }
  return straddling;
}

TEST(Replay, TwoStageWalkMatchesSerialLoopUnderFaultPlans) {
  const SynthCapture& capture = synth_capture();
  for (const std::uint64_t seed : {3u, 17u, 2024u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    fault::FaultPlan plan;
    plan.drop_rate = 0.05;
    plan.duplicate_rate = 0.35;
    plan.corrupt_rate = 0.05;
    plan.truncate_rate = 0.05;
    plan.seed = seed;
    EXPECT_GT(duplicates_across_block_edges(capture.path, plan), 0u);
    expect_matches_oracle(capture.path, plan);
  }
}

TEST(Replay, TwoStageWalkMatchesSerialLoopOnHeaderOnlyFile) {
  const auto path = testing_support::unique_temp_path("mm_replay_empty.pcap");
  { net80211::PcapWriter writer(path, net80211::kLinktypeRadiotap); }
  const Walk got = walk(kTwoStage, path);
  EXPECT_EQ(got.stats.records, 0u);
  EXPECT_TRUE(got.events.empty());
  expect_matches_oracle(path);
}

TEST(Replay, TwoStageWalkMatchesSerialLoopOnTruncatedTail) {
  const auto path = testing_support::unique_temp_path("mm_replay_cut.pcap");
  std::filesystem::copy_file(synth_capture().path, path,
                             std::filesystem::copy_options::overwrite_existing);
  std::filesystem::resize_file(path, std::filesystem::file_size(path) - 7);
  const Walk got = walk(kTwoStage, path);
  EXPECT_TRUE(got.stats.truncated_tail);
  EXPECT_EQ(got.stats.records, kSynthRecords - 1);
  expect_matches_oracle(path);
}

TEST(Replay, TwoStageWalkMatchesSerialLoopOnCorruptLengthMidFile) {
  const auto path = testing_support::unique_temp_path("mm_replay_len.pcap");
  std::filesystem::copy_file(synth_capture().path, path,
                             std::filesystem::copy_options::overwrite_existing);
  const std::size_t bad = 10 * kBlock + 1;
  {
    std::fstream file(path, std::ios::in | std::ios::out | std::ios::binary);
    file.seekp(static_cast<std::streamoff>(synth_capture().record_offsets[bad] + 8));
    const char huge[4] = {'\xff', '\xff', '\xff', '\x7f'};  // incl_len 2^31 - 1
    file.write(huge, sizeof huge);
  }
  const Walk got = walk(kTwoStage, path);
  EXPECT_EQ(got.stats.framing_quarantined, 1u);
  EXPECT_EQ(got.stats.records, bad);
  expect_matches_oracle(path);
}

// A stop set by on_event ends both walks at the same record. The caller
// checks it before each record it delivers, so the read-ahead beyond that
// record is neither delivered nor counted; only the reader's framing and
// the fault counters may run ahead, by at most the blocks in flight.
TEST(Replay, StopEndsTwoStageWalkAtSerialLoopsRecord) {
  const SynthCapture& capture = synth_capture();
  fault::FaultPlan duplicating;
  duplicating.duplicate_rate = 0.35;
  duplicating.seed = 5;
  for (const fault::FaultPlan& plan : {fault::FaultPlan{}, duplicating}) {
    for (const std::uint64_t stop_record : {kEdgeStopRecord + 1, kMidStopRecord + 1}) {
      SCOPED_TRACE("stop after record " + std::to_string(stop_record) +
                   (plan.active() ? ", duplicating" : ""));
      const Walk oracle = walk(kSerial, capture.path, plan, stop_record);
      const Walk got = walk(kTwoStage, capture.path, plan, stop_record);
      ASSERT_TRUE(oracle.interrupted);
      EXPECT_EQ(oracle.stats.records, stop_record);
      EXPECT_TRUE(got.interrupted);
      expect_same_delivery_counts(got.stats, oracle.stats);
      ASSERT_EQ(got.events.size(), oracle.events.size());
      for (std::size_t i = 0; i < got.events.size(); ++i) {
        expect_same_event(got.events[i], oracle.events[i], i);
      }
      const std::uint64_t ahead = got.stats.faults.frames_seen - oracle.stats.faults.frames_seen;
      EXPECT_GE(got.stats.faults.frames_seen, oracle.stats.faults.frames_seen);
      EXPECT_LE(ahead, kBlock * kReplayBlocksInFlight + 1);
    }
  }
  // Without a fault plan the edge stop really falls on a block edge: its
  // record fills the last slot of block 3.
  static_assert(kEdgeStopRecord % kBlock == kBlock - 1);
}

struct OnEventFailure {};

// An exception from on_event leaves replay_records with the helper joined:
// the walk neither hangs nor ends the process, 100 times over.
TEST(Replay, OnEventExceptionLeavesWithHelperJoined) {
  const SynthCapture& capture = synth_capture();
  for (std::size_t trial = 0; trial < 100; ++trial) {
    const std::size_t throw_at = 1 + trial * 6 * kBlock / 100 + trial % 3;
    net80211::PcapReader reader(capture.path);
    RecordFaults faults(fault::FaultPlan{});
    ReplayStats stats;
    std::size_t delivered = 0;
    EXPECT_THROW(replay_records(reader, faults, stats,
                                [&](const FrameEvent&) {
                                  if (++delivered == throw_at) throw OnEventFailure{};
                                }),
                 OnEventFailure)
        << "k = " << throw_at;
    EXPECT_EQ(delivered, throw_at);
  }
}

// An allocation failure on the decode helper is rethrown on the caller
// after the join.
TEST(Replay, HelperExceptionIsRethrownOnTheCaller) {
  fault::FaultPlan plan;  // active: the helper copies each record to damage it
  plan.duplicate_rate = 0.01;
  net80211::PcapReader reader(synth_capture().path);
  RecordFaults faults(plan);
  ReplayStats stats;
  std::size_t delivered = 0;
  g_arming_thread = std::this_thread::get_id();
  g_fail_other_threads.store(true, std::memory_order_release);
  EXPECT_THROW(replay_records(reader, faults, stats, [&](const FrameEvent&) { ++delivered; }),
               std::bad_alloc);
  g_fail_other_threads.store(false, std::memory_order_release);
  EXPECT_EQ(delivered, 0u);
}

}  // namespace
}  // namespace mm::capture
