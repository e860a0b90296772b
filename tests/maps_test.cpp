#include "maps/html_map.h"

#include <gtest/gtest.h>

#include <filesystem>

#include "sim/scenario.h"
#include "unique_temp_path.h"

namespace mm::maps {
namespace {

geo::EnuFrame frame() { return geo::EnuFrame(sim::uml_north_campus()); }

TEST(MarauderMap, HtmlContainsAllLayers) {
  MarauderMap map("Test Map", frame());
  map.add_ap({0.0, 0.0}, "ap-one", 100.0);
  map.add_true_position({10.0, 10.0}, "victim (real)");
  map.add_estimate({12.0, 8.0}, "victim (estimated)");
  map.add_path({{0.0, 0.0}, {10.0, 10.0}}, "walk");
  map.add_sniffer({-50.0, 0.0}, 1000.0);

  const std::string html = map.to_html();
  EXPECT_NE(html.find("<svg"), std::string::npos);
  EXPECT_NE(html.find("class='ap'"), std::string::npos);
  EXPECT_NE(html.find("class='truth'"), std::string::npos);
  EXPECT_NE(html.find("class='estimate'"), std::string::npos);
  EXPECT_NE(html.find("class='path'"), std::string::npos);
  EXPECT_NE(html.find("class='sniffer'"), std::string::npos);
  EXPECT_NE(html.find("class='coverage'"), std::string::npos);
  EXPECT_NE(html.find("Test Map"), std::string::npos);
  // Tooltips contain geodetic coordinates near the UML campus.
  EXPECT_NE(html.find("42.65"), std::string::npos);
}

TEST(MarauderMap, HtmlEscapesLabels) {
  MarauderMap map("<script>alert(1)</script>", frame());
  map.add_ap({0.0, 0.0}, "evil<>&\"net");
  const std::string html = map.to_html();
  EXPECT_EQ(html.find("<script>alert"), std::string::npos);
  EXPECT_NE(html.find("&lt;script&gt;"), std::string::npos);
  EXPECT_NE(html.find("evil&lt;&gt;&amp;&quot;net"), std::string::npos);
}

TEST(MarauderMap, EmptyMapStillRenders) {
  MarauderMap map("empty", frame());
  const std::string html = map.to_html();
  EXPECT_NE(html.find("<svg"), std::string::npos);
}

TEST(MarauderMap, WriteHtmlFile) {
  MarauderMap map("file test", frame());
  map.add_ap({5.0, 5.0}, "ap");
  const auto path = testing_support::unique_temp_path("mm_map.html");
  map.write_html(path);
  EXPECT_TRUE(std::filesystem::exists(path));
  EXPECT_GT(std::filesystem::file_size(path), 500u);
  std::filesystem::remove(path);
}

TEST(MarauderMap, GeoJsonStructure) {
  MarauderMap map("geo", frame());
  map.add_ap({0.0, 0.0}, "ap-one", 80.0);
  map.add_true_position({10.0, 0.0}, "real");
  map.add_estimate({12.0, 0.0}, "est");
  map.add_path({{0.0, 0.0}, {10.0, 0.0}}, "walk");
  const std::string json = map.to_geojson();
  EXPECT_NE(json.find("\"FeatureCollection\""), std::string::npos);
  EXPECT_NE(json.find("\"kind\":\"ap\""), std::string::npos);
  EXPECT_NE(json.find("\"kind\":\"true\""), std::string::npos);
  EXPECT_NE(json.find("\"kind\":\"estimate\""), std::string::npos);
  EXPECT_NE(json.find("\"LineString\""), std::string::npos);
  EXPECT_NE(json.find("\"radius_m\":80"), std::string::npos);
  // Longitude of the UML campus is ~-71.3.
  EXPECT_NE(json.find("-71.3"), std::string::npos);
}

TEST(MarauderMap, GeoJsonEscapesQuotes) {
  MarauderMap map("geo", frame());
  map.add_ap({0.0, 0.0}, "say \"hi\"");
  const std::string json = map.to_geojson();
  EXPECT_NE(json.find("say \\\"hi\\\""), std::string::npos);
}

}  // namespace
}  // namespace mm::maps
