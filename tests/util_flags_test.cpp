#include "util/flags.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace mm::util {
namespace {

Flags make(std::initializer_list<const char*> args) {
  std::vector<const char*> argv{"prog"};
  argv.insert(argv.end(), args.begin(), args.end());
  return Flags(static_cast<int>(argv.size()), argv.data());
}

TEST(Flags, EqualsSyntax) {
  const Flags f = make({"--seed=99"});
  EXPECT_TRUE(f.has("seed"));
  EXPECT_EQ(f.get_int("seed", 0), 99);
}

TEST(Flags, SpaceSyntax) {
  const Flags f = make({"--out", "result.csv"});
  EXPECT_EQ(f.get("out", ""), "result.csv");
}

TEST(Flags, BareBooleanFlag) {
  const Flags f = make({"--verbose"});
  EXPECT_TRUE(f.has("verbose"));
  EXPECT_EQ(f.get("verbose", ""), "true");
}

TEST(Flags, BareFlagFollowedByFlag) {
  const Flags f = make({"--quiet", "--seed=3"});
  EXPECT_TRUE(f.has("quiet"));
  EXPECT_EQ(f.get_int("seed", 0), 3);
}

TEST(Flags, Positional) {
  const Flags f = make({"input.pcap", "--seed=1", "other"});
  ASSERT_EQ(f.positional().size(), 2u);
  EXPECT_EQ(f.positional()[0], "input.pcap");
  EXPECT_EQ(f.positional()[1], "other");
}

TEST(Flags, FallbackWhenMissing) {
  const Flags f = make({});
  EXPECT_FALSE(f.has("seed"));
  EXPECT_EQ(f.get_int("seed", 1234), 1234);
  EXPECT_DOUBLE_EQ(f.get_double("rate", 2.5), 2.5);
  EXPECT_EQ(f.get("name", "dflt"), "dflt");
}

TEST(Flags, GetDouble) {
  const Flags f = make({"--rate=0.25"});
  EXPECT_DOUBLE_EQ(f.get_double("rate", 0.0), 0.25);
}

TEST(Flags, BadIntegerThrows) {
  const Flags f = make({"--seed=abc"});
  EXPECT_THROW((void)f.get_int("seed", 0), std::invalid_argument);
  // The whole value is read: std::stoll took "65x" as 65, "2.5" as 2, "1e3"
  // as 1.
  for (const char* bad :
       {"--n=65x", "--n=2.5", "--n=1e3", "--n=", "--n= 5", "--n=0x10",
        "--n=9223372036854775808"}) {
    EXPECT_THROW((void)make({bad}).get_int("n", 0), FlagError) << bad;
  }
}

TEST(Flags, BadDoubleThrows) {
  const Flags f = make({"--rate=xyz"});
  EXPECT_THROW((void)f.get_double("rate", 0.0), std::invalid_argument);
  for (const char* bad : {"--x=1.5x", "--x="}) {
    EXPECT_THROW((void)make({bad}).get_double("x", 0.0), FlagError) << bad;
  }
}

TEST(Flags, ReadsSignsExponentsAndLimits) {
  EXPECT_EQ(make({"--n=-42"}).get_int("n", 0), -42);
  EXPECT_EQ(make({"--n=9223372036854775807"}).get_int("n", 0), INT64_MAX);
  EXPECT_DOUBLE_EQ(make({"--x=1e3"}).get_double("x", 0.0), 1000.0);
  EXPECT_DOUBLE_EQ(make({"--x=-2.5"}).get_double("x", 0.0), -2.5);
  // A double reads as a CSV or INI field does (util::parse_double_field).
  EXPECT_DOUBLE_EQ(make({"--x=+5"}).get_double("x", 0.0), 5.0);
  EXPECT_TRUE(std::isinf(make({"--x=inf"}).get_double("x", 0.0)));
}

TEST(Flags, ErrorNamesTheFlag) {
  const Flags f = make({"--shards=65x"});
  try {
    (void)f.get_int("shards", 4);
    FAIL() << "no FlagError";
  } catch (const FlagError& error) {
    EXPECT_NE(std::string(error.what()).find("--shards"), std::string::npos);
    EXPECT_NE(std::string(error.what()).find("65x"), std::string::npos);
  }
}

TEST(Flags, RangedGettersRefuseOutsideValues) {
  const Flags f = make({"--count=-1", "--k=70000", "--rate=nan", "--ok=7"});
  EXPECT_THROW((void)f.get_int_in("count", 1, 1, 65536), FlagError);
  EXPECT_THROW((void)f.get_int_in("k", 8, 1, 65535), FlagError);
  EXPECT_THROW((void)f.get_double_in("rate", 1.0, 0.0, 100.0), FlagError);
  EXPECT_EQ(f.get_int_in("ok", 0, 0, 7), 7);
  EXPECT_EQ(f.get_int_in("absent", 3, 1, 5), 3);
  EXPECT_DOUBLE_EQ(f.get_double_in("absent", 0.5, 0.0, 1.0), 0.5);
}

TEST(Flags, ListsAreReadWholeAndRanged) {
  const Flags f = make({"--levels=0,0.5,,1", "--ids=1,2x", "--over=0,1.5", "--big=1e3"});
  EXPECT_EQ(f.get_double_list("levels", 0.0, 1.0), (std::vector<double>{0.0, 0.5, 1.0}));
  EXPECT_THROW((void)f.get_int_list("ids", 0, 100), FlagError);
  EXPECT_THROW((void)f.get_double_list("over", 0.0, 1.0), FlagError);
  EXPECT_THROW((void)f.get_int_list("big", 0, 10000), FlagError);
  EXPECT_TRUE(f.get_int_list("absent", 0, 1).empty());
}

TEST(Flags, GetSeedHelper) {
  const Flags f = make({"--seed=77"});
  EXPECT_EQ(f.get_seed(1), 77u);
  const Flags none = make({});
  EXPECT_EQ(none.get_seed(5), 5u);
}

TEST(Flags, ProgramName) {
  const Flags f = make({});
  EXPECT_EQ(f.program(), "prog");
}

}  // namespace
}  // namespace mm::util
