#include "marauder/ap_database.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "sim/scenario.h"

namespace mm::marauder {
namespace {

net80211::MacAddress mac(int i) {
  std::array<std::uint8_t, 6> bytes{0x00, 0x1a, 0x2b, 0x00, 0x02,
                                    static_cast<std::uint8_t>(i)};
  return net80211::MacAddress(bytes);
}

TEST(ApDatabase, AddAndFind) {
  ApDatabase db;
  db.add({mac(1), "NetOne", {10.0, 20.0}, 100.0});
  EXPECT_EQ(db.size(), 1u);
  const KnownAp* ap = db.find(mac(1));
  ASSERT_NE(ap, nullptr);
  EXPECT_EQ(ap->ssid, "NetOne");
  EXPECT_EQ(ap->position, geo::Vec2(10.0, 20.0));
  ASSERT_TRUE(ap->radius_m.has_value());
  EXPECT_DOUBLE_EQ(*ap->radius_m, 100.0);
  EXPECT_EQ(db.find(mac(9)), nullptr);
}

TEST(ApDatabase, AddOverwritesSameBssid) {
  ApDatabase db;
  db.add({mac(1), "Old", {0.0, 0.0}, std::nullopt});
  db.add({mac(1), "New", {5.0, 5.0}, 50.0});
  EXPECT_EQ(db.size(), 1u);
  EXPECT_EQ(db.find(mac(1))->ssid, "New");
}

TEST(ApDatabase, SetRadiusAndStrip) {
  ApDatabase db;
  db.add({mac(1), "x", {0.0, 0.0}, std::nullopt});
  db.set_radius(mac(1), 80.0);
  EXPECT_DOUBLE_EQ(db.find(mac(1))->radius_m.value(), 80.0);
  db.strip_radii();
  EXPECT_FALSE(db.find(mac(1))->radius_m.has_value());
  EXPECT_THROW(db.set_radius(mac(9), 1.0), std::out_of_range);
}

TEST(ApDatabase, DiscsForUsesDefaultWhenRadiusUnknown) {
  ApDatabase db;
  db.add({mac(1), "a", {0.0, 0.0}, 70.0});
  db.add({mac(2), "b", {100.0, 0.0}, std::nullopt});
  const std::vector<net80211::MacAddress> gamma{mac(1), mac(2), mac(3)};
  const auto discs = db.discs_for(gamma, 125.0);
  ASSERT_EQ(discs.size(), 2u);  // mac(3) unknown -> skipped
  EXPECT_DOUBLE_EQ(discs[0].radius, 70.0);
  EXPECT_DOUBLE_EQ(discs[1].radius, 125.0);
}

TEST(ApDatabase, PositionsFor) {
  ApDatabase db;
  db.add({mac(1), "a", {1.0, 2.0}, std::nullopt});
  const std::vector<net80211::MacAddress> gamma{mac(1), mac(7)};
  const auto positions = db.positions_for(gamma);
  ASSERT_EQ(positions.size(), 1u);
  EXPECT_EQ(positions[0], geo::Vec2(1.0, 2.0));
}

TEST(ApDatabase, FromTruthRespectsRadiusFlag) {
  sim::CampusConfig cfg;
  cfg.num_aps = 5;
  const auto truth = sim::generate_campus_aps(cfg);
  const ApDatabase with = ApDatabase::from_truth(truth, /*include_radii=*/true);
  const ApDatabase without = ApDatabase::from_truth(truth, /*include_radii=*/false);
  EXPECT_EQ(with.size(), 5u);
  EXPECT_TRUE(with.find(truth[0].bssid)->radius_m.has_value());
  EXPECT_FALSE(without.find(truth[0].bssid)->radius_m.has_value());
}

TEST(ApDatabase, CsvRoundtripThroughGeodetic) {
  const geo::EnuFrame frame(sim::uml_north_campus());
  ApDatabase db;
  db.add({mac(1), "Cafe, The", {120.0, -340.0}, 95.0});
  db.add({mac(2), "plain", {-80.0, 15.0}, std::nullopt});

  const auto path = std::filesystem::temp_directory_path() / "mm_apdb.csv";
  db.to_csv(path, frame);
  CsvImportStats stats;
  const auto loaded_result = ApDatabase::from_csv(path, frame, &stats);
  ASSERT_TRUE(loaded_result.ok()) << loaded_result.error();
  const ApDatabase& loaded = loaded_result.value();
  EXPECT_EQ(stats.quarantined, 0u);
  ASSERT_EQ(loaded.size(), 2u);
  const KnownAp* ap1 = loaded.find(mac(1));
  ASSERT_NE(ap1, nullptr);
  EXPECT_EQ(ap1->ssid, "Cafe, The");
  EXPECT_NEAR(ap1->position.x, 120.0, 0.01);
  EXPECT_NEAR(ap1->position.y, -340.0, 0.01);
  ASSERT_TRUE(ap1->radius_m.has_value());
  EXPECT_NEAR(*ap1->radius_m, 95.0, 1e-6);
  EXPECT_FALSE(loaded.find(mac(2))->radius_m.has_value());
  std::filesystem::remove(path);
}

TEST(ApDatabase, WigleImportParsesAppFormat) {
  const geo::EnuFrame frame(sim::uml_north_campus());
  const auto path = std::filesystem::temp_directory_path() / "mm_wigle.csv";
  {
    std::ofstream out(path);
    out << "WigleWifi-1.4,appRelease=2.53,model=Pixel,release=13\n";
    out << "netid,ssid,authmode,firstseen,channel,rssi,currentlatitude,"
           "currentlongitude,altitudemeters,accuracymeters,type\n";
    out << "00:1a:2b:00:05:01,CampusNet,[WPA2],2008-10-24 10:00:00,6,-70,"
           "42.6560,-71.3250,30,5,WIFI\n";
    out << "00:1a:2b:00:05:02,HomeNet,[WEP],2008-10-24 10:01:00,11,-80,"
           "42.6550,-71.3240,30,5,WIFI\n";
    out << "aa:bb:cc:dd:ee:ff,MyPhone,,2008-10-24 10:02:00,0,-60,"
           "42.6555,-71.3248,30,5,BT\n";              // Bluetooth: skipped
    out << "not-a-mac,junk,,x,1,-70,42.0,-71.0,0,0,WIFI\n";  // bad BSSID
  }
  CsvImportStats stats;
  const auto imported = ApDatabase::from_wigle_csv(path, frame, &stats);
  ASSERT_TRUE(imported.ok()) << imported.error();
  const ApDatabase& db = imported.value();
  EXPECT_EQ(db.size(), 2u);
  EXPECT_EQ(stats.quarantined, 1u);  // the bad-BSSID row; BT is filtered
  const KnownAp* ap = db.find(*net80211::MacAddress::parse("00:1a:2b:00:05:01"));
  ASSERT_NE(ap, nullptr);
  EXPECT_EQ(ap->ssid, "CampusNet");
  EXPECT_FALSE(ap->radius_m.has_value());  // WiGLE has no distances
  // ~42.6560/-71.3250 is ~55m north, ~16m west of the anchor.
  EXPECT_NEAR(ap->position.y, 55.0, 5.0);
  EXPECT_LT(ap->position.x, 0.0);
  std::filesystem::remove(path);
}

TEST(ApDatabase, WigleImportToleratesShortRows) {
  const geo::EnuFrame frame(sim::uml_north_campus());
  const auto path = std::filesystem::temp_directory_path() / "mm_wigle_short.csv";
  {
    std::ofstream out(path);
    out << "netid,ssid\n00:11:22:33:44:55,x\n";  // too few columns
  }
  CsvImportStats stats;
  const auto imported = ApDatabase::from_wigle_csv(path, frame, &stats);
  ASSERT_TRUE(imported.ok());
  EXPECT_EQ(imported.value().size(), 0u);
  EXPECT_EQ(stats.quarantined, 1u);
  std::filesystem::remove(path);
}

TEST(ApDatabase, FromCsvQuarantinesMalformedRows) {
  const geo::EnuFrame frame(sim::uml_north_campus());
  const auto path = std::filesystem::temp_directory_path() / "mm_apdb_bad.csv";
  {
    std::ofstream out(path);
    out << "bssid,ssid,lat,lon,radius_m\n";
    out << "not-a-mac,x,42.0,-71.0,\n";                      // bad BSSID
    out << "00:1a:2b:00:02:01,ok,42.656,-71.325,90\n";       // good
    out << "00:1a:2b:00:02:02,badlat,north,-71.325,\n";      // bad latitude
    out << "00:1a:2b:00:02:03,badrad,42.656,-71.325,wide\n"; // bad radius
  }
  CsvImportStats stats;
  const auto imported = ApDatabase::from_csv(path, frame, &stats);
  ASSERT_TRUE(imported.ok()) << imported.error();
  EXPECT_EQ(imported.value().size(), 1u);
  EXPECT_EQ(stats.rows_total, 4u);
  EXPECT_EQ(stats.rows_loaded, 1u);
  EXPECT_EQ(stats.quarantined, 3u);
  EXPECT_NE(imported.value().find(*net80211::MacAddress::parse("00:1a:2b:00:02:01")),
            nullptr);
  std::filesystem::remove(path);
}

TEST(ApDatabase, FromCsvMissingFileIsFailure) {
  const geo::EnuFrame frame(sim::uml_north_campus());
  const auto imported = ApDatabase::from_csv("/nonexistent/apdb.csv", frame);
  EXPECT_FALSE(imported.ok());
  EXPECT_FALSE(imported.error().empty());
}

}  // namespace
}  // namespace mm::marauder
