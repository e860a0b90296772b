#include "util/csv.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <stdexcept>

#include "unique_temp_path.h"

namespace mm::util {
namespace {

TEST(Csv, EscapePlainFieldUnchanged) {
  EXPECT_EQ(csv_escape("hello"), "hello");
}

TEST(Csv, EscapeComma) { EXPECT_EQ(csv_escape("a,b"), "\"a,b\""); }

TEST(Csv, EscapeQuote) { EXPECT_EQ(csv_escape("say \"hi\""), "\"say \"\"hi\"\"\""); }

TEST(Csv, JoinRow) {
  EXPECT_EQ(csv_join({"a", "b,c", "d"}), "a,\"b,c\",d");
}

TEST(Csv, ParseSimpleLine) {
  const CsvRow row = csv_parse_line("a,b,c");
  ASSERT_EQ(row.size(), 3u);
  EXPECT_EQ(row[0], "a");
  EXPECT_EQ(row[2], "c");
}

TEST(Csv, ParseQuotedComma) {
  const CsvRow row = csv_parse_line("x,\"a,b\",y");
  ASSERT_EQ(row.size(), 3u);
  EXPECT_EQ(row[1], "a,b");
}

TEST(Csv, ParseDoubledQuotes) {
  const CsvRow row = csv_parse_line("\"he said \"\"hey\"\"\"");
  ASSERT_EQ(row.size(), 1u);
  EXPECT_EQ(row[0], "he said \"hey\"");
}

TEST(Csv, ParseEmptyFields) {
  const CsvRow row = csv_parse_line("a,,c,");
  ASSERT_EQ(row.size(), 4u);
  EXPECT_EQ(row[1], "");
  EXPECT_EQ(row[3], "");
}

TEST(Csv, ParseToleratesCarriageReturn) {
  const CsvRow row = csv_parse_line("a,b\r");
  ASSERT_EQ(row.size(), 2u);
  EXPECT_EQ(row[1], "b");
}

TEST(Csv, ParseUnterminatedQuoteThrows) {
  EXPECT_THROW((void)csv_parse_line("\"oops"), std::runtime_error);
}

TEST(Csv, RoundtripParseJoin) {
  const CsvRow original{"plain", "with,comma", "with \"quote\"", ""};
  const CsvRow reparsed = csv_parse_line(csv_join(original));
  EXPECT_EQ(reparsed, original);
}

TEST(Csv, FileRoundtrip) {
  const auto path = testing_support::unique_temp_path("mm_csv_test.csv");
  const std::vector<CsvRow> rows{
      {"bssid", "ssid", "lat", "lon"},
      {"00:11:22:33:44:55", "Cafe, The", "42.655", "-71.325"},
  };
  csv_write_file(path, rows);
  const auto read = csv_read_file(path);
  EXPECT_EQ(read, rows);
  std::filesystem::remove(path);
}

TEST(Csv, ReadMissingFileThrows) {
  EXPECT_THROW((void)csv_read_file("/nonexistent/dir/file.csv"), std::runtime_error);
}

TEST(Csv, ReadSkipsBlankLines) {
  const auto path = testing_support::unique_temp_path("mm_csv_blank.csv");
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs("a,b\n\nc,d\n", f);
    std::fclose(f);
  }
  const auto rows = csv_read_file(path);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[1][0], "c");
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace mm::util
