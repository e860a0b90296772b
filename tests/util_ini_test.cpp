#include "util/ini.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "unique_temp_path.h"

namespace mm::util {
namespace {

TEST(Ini, ParsesSectionsAndKeys) {
  const IniFile ini = IniFile::parse(
      "[scenario]\n"
      "aps = 120\n"
      "extent = 350.5\n"
      "[sniffer]\n"
      "chain = LNA\n");
  EXPECT_TRUE(ini.has_section("scenario"));
  EXPECT_TRUE(ini.has("scenario", "aps"));
  EXPECT_FALSE(ini.has("scenario", "chain"));
  EXPECT_EQ(ini.get_or("sniffer", "chain", ""), "LNA");
  EXPECT_EQ(ini.get_int("scenario", "aps", 0), 120);
  EXPECT_DOUBLE_EQ(ini.get_double("scenario", "extent", 0.0), 350.5);
}

TEST(Ini, CommentsAndBlankLinesIgnored) {
  const IniFile ini = IniFile::parse(
      "# top comment\n"
      "\n"
      "[s]\n"
      "; another comment\n"
      "key = value\n"
      "   \n");
  EXPECT_EQ(ini.get_or("s", "key", ""), "value");
}

TEST(Ini, WhitespaceTrimmed) {
  const IniFile ini = IniFile::parse("[ s ]\n  key  =  spaced value \n");
  EXPECT_TRUE(ini.has_section("s"));
  EXPECT_EQ(ini.get_or("s", "key", ""), "spaced value");
}

TEST(Ini, MissingKeysFallBack) {
  const IniFile ini = IniFile::parse("[s]\nk = 1\n");
  EXPECT_EQ(ini.get("s", "missing"), std::nullopt);
  EXPECT_EQ(ini.get("other", "k"), std::nullopt);
  EXPECT_EQ(ini.get_or("s", "missing", "dflt"), "dflt");
  EXPECT_EQ(ini.get_int("s", "missing", 42), 42);
  EXPECT_DOUBLE_EQ(ini.get_double("other", "k", 2.5), 2.5);
  EXPECT_TRUE(ini.get_bool("s", "missing", true));
}

TEST(Ini, Booleans) {
  const IniFile ini = IniFile::parse(
      "[b]\nt1 = true\nt2 = YES\nt3 = 1\nf1 = false\nf2 = off\nbad = maybe\n");
  EXPECT_TRUE(ini.get_bool("b", "t1", false));
  EXPECT_TRUE(ini.get_bool("b", "t2", false));
  EXPECT_TRUE(ini.get_bool("b", "t3", false));
  EXPECT_FALSE(ini.get_bool("b", "f1", true));
  EXPECT_FALSE(ini.get_bool("b", "f2", true));
  EXPECT_THROW((void)ini.get_bool("b", "bad", false), std::runtime_error);
}

TEST(Ini, MalformedInputThrows) {
  EXPECT_THROW((void)IniFile::parse("key = outside section\n"), std::runtime_error);
  EXPECT_THROW((void)IniFile::parse("[unterminated\n"), std::runtime_error);
  EXPECT_THROW((void)IniFile::parse("[s]\nno equals sign\n"), std::runtime_error);
}

TEST(Ini, BadNumbersThrow) {
  const IniFile ini = IniFile::parse("[s]\nn = 12abc\nd = 1.5x\n");
  EXPECT_THROW((void)ini.get_int("s", "n", 0), std::runtime_error);
  EXPECT_THROW((void)ini.get_double("s", "d", 0.0), std::runtime_error);
}

TEST(Ini, LastDuplicateKeyWins) {
  const IniFile ini = IniFile::parse("[s]\nk = first\nk = second\n");
  EXPECT_EQ(ini.get_or("s", "k", ""), "second");
}

TEST(Ini, LoadFromFile) {
  const auto path = testing_support::unique_temp_path("mm_ini_test.ini");
  {
    std::ofstream out(path);
    out << "[file]\nloaded = yes\n";
  }
  const IniFile ini = IniFile::load(path);
  EXPECT_TRUE(ini.get_bool("file", "loaded", false));
  std::filesystem::remove(path);
  EXPECT_THROW((void)IniFile::load(path), std::runtime_error);
}

TEST(Ini, EmptySectionRecorded) {
  const IniFile ini = IniFile::parse("[empty]\n");
  EXPECT_TRUE(ini.has_section("empty"));
  EXPECT_FALSE(ini.has("empty", "anything"));
}

}  // namespace
}  // namespace mm::util
