#include "capture/persistence.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "fault/fault_injector.h"
#include "unique_temp_path.h"

namespace mm::capture {
namespace {

const net80211::MacAddress kDev = *net80211::MacAddress::parse("00:16:6f:00:00:0a");
const net80211::MacAddress kAp1 = *net80211::MacAddress::parse("00:1a:2b:00:00:01");
const net80211::MacAddress kAp2 = *net80211::MacAddress::parse("00:1a:2b:00:00:02");

std::filesystem::path temp_file(const char* name) {
  return testing_support::unique_temp_path(name);
}

ObservationStore make_populated_store() {
  ObservationStore store;
  store.record_probe_request(kDev, 1.5, std::string("HomeNet"));
  store.record_probe_request(kDev, 2.5, std::string("WorkNet"));
  store.record_contact(kAp1, kDev, 3.0, -72.5);
  store.record_contact(kAp1, kDev, 4.0, -70.25);
  store.record_contact(kAp2, kDev, 5.0, -80.0);
  store.record_beacon(kAp1, "NetOne", 6, 1.0, -55.0);
  store.record_beacon(kAp1, "NetOne", 6, 2.0, -54.5);
  return store;
}

TEST(Persistence, ExactRoundtrip) {
  const auto path = temp_file("mm_obs_roundtrip.csv");
  const ObservationStore original = make_populated_store();
  const auto saved = save_observations(original, path);
  ASSERT_TRUE(saved.ok()) << saved.error();
  EXPECT_EQ(saved.value().attempts, 1);
  auto loaded_result = load_observations(path);
  ASSERT_TRUE(loaded_result.ok()) << loaded_result.error();
  const ObservationStore& loaded = loaded_result.value().store;
  EXPECT_EQ(loaded_result.value().stats.quarantined, 0u);
  EXPECT_EQ(loaded_result.value().stats.rows_loaded,
            loaded_result.value().stats.rows_total);

  ASSERT_EQ(loaded.device_count(), original.device_count());
  const DeviceRecord* orig_rec = original.device(kDev);
  const DeviceRecord* load_rec = loaded.device(kDev);
  ASSERT_NE(load_rec, nullptr);
  EXPECT_EQ(load_rec->probe_requests, orig_rec->probe_requests);
  EXPECT_DOUBLE_EQ(load_rec->first_seen, orig_rec->first_seen);
  EXPECT_DOUBLE_EQ(load_rec->last_seen, orig_rec->last_seen);
  EXPECT_EQ(load_rec->directed_ssids, orig_rec->directed_ssids);
  ASSERT_EQ(load_rec->contacts.size(), 2u);
  const ApContact& c1 = load_rec->contacts.at(kAp1);
  EXPECT_EQ(c1.count, 2u);
  EXPECT_DOUBLE_EQ(c1.first_seen, 3.0);
  EXPECT_DOUBLE_EQ(c1.last_seen, 4.0);
  EXPECT_DOUBLE_EQ(c1.last_rssi_dbm, -70.25);
  EXPECT_EQ(c1.times, (std::vector<sim::SimTime>{3.0, 4.0}));

  // Gamma queries behave identically.
  EXPECT_EQ(loaded.gamma(kDev), original.gamma(kDev));
  EXPECT_EQ(loaded.gamma(kDev, {2.9, 3.1}), original.gamma(kDev, {2.9, 3.1}));
  EXPECT_EQ(loaded.session_gammas(5.0).size(), original.session_gammas(5.0).size());

  // Sightings too.
  ASSERT_EQ(loaded.ap_sightings().size(), 1u);
  ASSERT_NE(loaded.sighting(kAp1), nullptr);
  EXPECT_EQ(loaded.sighting(kAp1)->beacons, 2u);
  EXPECT_EQ(loaded.sighting(kAp1)->ssid, "NetOne");

  // Atomicity: no leftover temp file after a successful save.
  EXPECT_FALSE(std::filesystem::exists(path.string() + ".tmp"));
  std::filesystem::remove(path);
}

TEST(Persistence, EmptyStoreRoundtrip) {
  const auto path = temp_file("mm_obs_empty.csv");
  ASSERT_TRUE(save_observations(ObservationStore{}, path).ok());
  auto loaded = load_observations(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().store.device_count(), 0u);
  EXPECT_TRUE(loaded.value().store.ap_sightings().empty());
  std::filesystem::remove(path);
}

TEST(Persistence, SsidWithCommaSurvives) {
  const auto path = temp_file("mm_obs_comma.csv");
  ObservationStore store;
  store.record_beacon(kAp1, "Cafe, The \"Best\"", 11, 1.0, -60.0);
  ASSERT_TRUE(save_observations(store, path).ok());
  auto loaded = load_observations(path);
  ASSERT_TRUE(loaded.ok());
  ASSERT_NE(loaded.value().store.sighting(kAp1), nullptr);
  EXPECT_EQ(loaded.value().store.sighting(kAp1)->ssid, "Cafe, The \"Best\"");
  std::filesystem::remove(path);
}

// SSIDs are raw over-the-air bytes. A line break, the directed-list
// separator '|', '%' or a NUL is escaped, so no row is split or quarantined.
TEST(Persistence, RawSsidBytesRoundTrip) {
  const auto path = temp_file("mm_obs_raw_ssid.csv");
  const std::vector<std::string> directed = {"home\nnet", "a|b", "100%",
                                             std::string("\r\0x\x7f\xff", 5)};
  ObservationStore store;
  for (const std::string& ssid : directed) store.record_probe_request(kDev, 1.0, ssid);
  store.record_beacon(kAp1, "cafe\r\n\"free\"", 6, 2.0, -60.0);
  ASSERT_TRUE(save_observations(store, path).ok());
  auto loaded = load_observations(path);
  ASSERT_TRUE(loaded.ok()) << loaded.error();
  EXPECT_EQ(loaded.value().stats.quarantined, 0u);
  ASSERT_NE(loaded.value().store.device(kDev), nullptr);
  EXPECT_EQ(loaded.value().store.device(kDev)->directed_ssids, directed);
  ASSERT_NE(loaded.value().store.sighting(kAp1), nullptr);
  EXPECT_EQ(loaded.value().store.sighting(kAp1)->ssid, "cafe\r\n\"free\"");
  std::filesystem::remove(path);
}

// Files written before SSIDs were escaped keep a bare '%' as it is.
TEST(Persistence, BarePercentInAnOlderFileIsKept) {
  const auto path = temp_file("mm_obs_bare_percent.csv");
  {
    std::ofstream out(path);
    out << "device,00:16:6f:00:00:0a,1,2,1,100%|5%G\n";
    out << "sighting,00:1a:2b:00:00:01,50%,6,2,-55\n";
  }
  auto loaded = load_observations(path);
  ASSERT_TRUE(loaded.ok()) << loaded.error();
  EXPECT_EQ(loaded.value().stats.quarantined, 0u);
  ASSERT_NE(loaded.value().store.device(kDev), nullptr);
  EXPECT_EQ(loaded.value().store.device(kDev)->directed_ssids,
            (std::vector<std::string>{"100%", "5%G"}));
  ASSERT_NE(loaded.value().store.sighting(kAp1), nullptr);
  EXPECT_EQ(loaded.value().store.sighting(kAp1)->ssid, "50%");
  std::filesystem::remove(path);
}

TEST(Persistence, UnknownTagQuarantined) {
  const auto path = temp_file("mm_obs_badtag.csv");
  {
    std::ofstream out(path);
    out << "gibberish,1,2,3\n";
    out << "sighting,00:1a:2b:00:00:01,Net,6,2,-55\n";
  }
  auto loaded = load_observations(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().stats.quarantined, 1u);
  EXPECT_EQ(loaded.value().stats.rows_loaded, 1u);
  EXPECT_EQ(loaded.value().store.ap_sightings().size(), 1u);
  ASSERT_FALSE(loaded.value().stats.sample_errors.empty());
  EXPECT_NE(loaded.value().stats.sample_errors.front().find("unknown row tag"),
            std::string::npos);
  std::filesystem::remove(path);
}

TEST(Persistence, OrphanContactQuarantined) {
  const auto path = temp_file("mm_obs_orphan.csv");
  {
    std::ofstream out(path);
    out << "contact,00:16:6f:00:00:0a,00:1a:2b:00:00:01,1,2,1,-70,1\n";
  }
  auto loaded = load_observations(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().stats.quarantined, 1u);
  EXPECT_EQ(loaded.value().store.device_count(), 0u);
  std::filesystem::remove(path);
}

TEST(Persistence, MissingFileIsFailure) {
  const auto loaded = load_observations("/nonexistent/obs.csv");
  EXPECT_FALSE(loaded.ok());
  EXPECT_FALSE(loaded.error().empty());
}

TEST(Persistence, TornTailQuarantinesOnlyDamagedLine) {
  const auto path = temp_file("mm_obs_torn.csv");
  ASSERT_TRUE(save_observations(make_populated_store(), path).ok());
  // Chop the file mid-final-line, as an interrupted non-atomic write would:
  // the last row ("sighting,...,-54.5\n") is left ending in a bare "-".
  std::filesystem::resize_file(path, std::filesystem::file_size(path) - 5);
  auto loaded = load_observations(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().stats.quarantined, 1u);
  EXPECT_EQ(loaded.value().stats.rows_loaded, loaded.value().stats.rows_total - 1);
  // The intact prefix (device + contacts) survived.
  EXPECT_EQ(loaded.value().store.device_count(), 1u);
  std::filesystem::remove(path);
}

TEST(Persistence, GarbageRowsDoNotPoisonLoad) {
  const auto path = temp_file("mm_obs_garbage.csv");
  {
    std::ofstream out(path);
    out << "device,00:16:6f:00:00:0a,1.5,5,2,HomeNet\n";
    out << "device,zz:zz:zz:zz:zz:zz,1,2,3,\n";                          // bad MAC
    out << "contact,00:16:6f:00:00:0a,00:1a:2b:00:00:01,x,4,2,-70,3;4\n"; // bad number
    out << "contact,00:16:6f:00:00:0a,00:1a:2b:00:00:02,3,5,1,-80,3;oops\n";
    out << "sighting,00:1a:2b:00:00:01,Net\n";                            // short row
    out << "contact,00:16:6f:00:00:0a,00:1a:2b:00:00:03,3,5,1,-80,3\n";   // good
  }
  auto loaded = load_observations(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().stats.rows_total, 6u);
  EXPECT_EQ(loaded.value().stats.quarantined, 4u);
  EXPECT_EQ(loaded.value().stats.rows_loaded, 2u);
  const DeviceRecord* rec = loaded.value().store.device(kDev);
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(rec->contacts.size(), 1u);
  std::filesystem::remove(path);
}

TEST(Persistence, TornWriteLeavesPreviousSnapshotIntact) {
  const auto path = temp_file("mm_obs_crashsafe.csv");
  const ObservationStore first = make_populated_store();
  ASSERT_TRUE(save_observations(first, path).ok());

  // Second save "crashes" mid-write: the injector tears the temp file and
  // the save fails before rename.
  ObservationStore second = make_populated_store();
  second.record_contact(kAp2, kDev, 99.0, -60.0);
  fault::FaultPlan plan;
  plan.torn_write_rate = 1.0;
  fault::FaultInjector injector(plan);
  SaveOptions options;
  options.injector = &injector;
  const auto saved = save_observations(second, path, options);
  EXPECT_FALSE(saved.ok());
  EXPECT_NE(saved.error().find("torn write"), std::string::npos);
  EXPECT_EQ(injector.stats().files_torn, 1u);

  // The destination still holds the first snapshot, fully loadable.
  auto loaded = load_observations(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().stats.quarantined, 0u);
  EXPECT_EQ(loaded.value().store.device(kDev)->contacts.at(kAp2).count, 1u);
  std::filesystem::remove(path);
  std::filesystem::remove(path.string() + ".tmp");
}

TEST(Persistence, SaveToUnwritableDirectoryFailsAfterRetries) {
  SaveOptions options;
  options.max_attempts = 2;
  options.backoff_s = 0.0;
  const auto saved =
      save_observations(ObservationStore{}, "/nonexistent/dir/obs.csv", options);
  EXPECT_FALSE(saved.ok());
  EXPECT_NE(saved.error().find("2 attempts"), std::string::npos);
}

TEST(Checkpointer, WritesOnDemandAndCountsFailures) {
  const auto path = temp_file("mm_obs_checkpoint.csv");
  std::filesystem::remove(path);
  const ObservationStore store = make_populated_store();
  ObservationCheckpointer cp(&store, path);

  ASSERT_TRUE(cp.checkpoint_now().ok());
  EXPECT_EQ(cp.checkpoints_written(), 1u);
  EXPECT_TRUE(std::filesystem::exists(path));
  ASSERT_TRUE(cp.checkpoint_now().ok());
  EXPECT_EQ(cp.checkpoints_written(), 2u);
  EXPECT_EQ(cp.failures(), 0u);

  // A checkpoint loads back to the full store.
  auto loaded = load_observations(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().store.device_count(), store.device_count());
  std::filesystem::remove(path);

  SaveOptions bad;
  bad.max_attempts = 1;
  ObservationCheckpointer broken(&store, "/nonexistent/dir/cp.csv", bad);
  EXPECT_FALSE(broken.checkpoint_now().ok());
  EXPECT_EQ(broken.failures(), 1u);
  EXPECT_EQ(broken.checkpoints_written(), 0u);
}

}  // namespace
}  // namespace mm::capture
