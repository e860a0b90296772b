#include "fault/fault_injector.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "unique_temp_path.h"

namespace mm::fault {
namespace {

std::vector<std::uint8_t> test_frame(std::size_t n = 64) {
  std::vector<std::uint8_t> frame(n);
  for (std::size_t i = 0; i < n; ++i) frame[i] = static_cast<std::uint8_t>(i);
  return frame;
}

TEST(FaultPlan, DefaultIsInactive) {
  const FaultPlan plan;
  EXPECT_FALSE(plan.active());
}

TEST(FaultPlan, ParsesFullSpec) {
  const auto parsed = FaultPlan::parse(
      "corrupt=0.01,corrupt-bits=4,truncate=0.02,drop=0.03,dup=0.04,"
      "nic-dropout=0.1,dropout-mean=20,skew=0.5,drift=50,torn=0.25,seed=7");
  ASSERT_TRUE(parsed.ok()) << parsed.error();
  const FaultPlan& plan = parsed.value();
  EXPECT_DOUBLE_EQ(plan.corrupt_rate, 0.01);
  EXPECT_EQ(plan.corrupt_bits_max, 4);
  EXPECT_DOUBLE_EQ(plan.truncate_rate, 0.02);
  EXPECT_DOUBLE_EQ(plan.drop_rate, 0.03);
  EXPECT_DOUBLE_EQ(plan.duplicate_rate, 0.04);
  EXPECT_DOUBLE_EQ(plan.nic_dropout_rate, 0.1);
  EXPECT_DOUBLE_EQ(plan.nic_dropout_mean_s, 20.0);
  EXPECT_DOUBLE_EQ(plan.clock_skew_max_s, 0.5);
  EXPECT_DOUBLE_EQ(plan.clock_drift_max_ppm, 50.0);
  EXPECT_DOUBLE_EQ(plan.torn_write_rate, 0.25);
  EXPECT_EQ(plan.seed, 7u);
  EXPECT_TRUE(plan.active());
}

TEST(FaultPlan, SpecRoundtrip) {
  const auto parsed = FaultPlan::parse("corrupt=0.01,drop=0.02,seed=9");
  ASSERT_TRUE(parsed.ok());
  const auto reparsed = FaultPlan::parse(parsed.value().to_spec());
  ASSERT_TRUE(reparsed.ok()) << reparsed.error();
  EXPECT_DOUBLE_EQ(reparsed.value().corrupt_rate, 0.01);
  EXPECT_DOUBLE_EQ(reparsed.value().drop_rate, 0.02);
  EXPECT_EQ(reparsed.value().seed, 9u);
}

TEST(FaultPlan, RejectsTypos) {
  EXPECT_FALSE(FaultPlan::parse("corupt=0.1").ok());       // unknown key
  EXPECT_FALSE(FaultPlan::parse("corrupt").ok());          // missing '='
  EXPECT_FALSE(FaultPlan::parse("corrupt=lots").ok());     // bad number
  EXPECT_FALSE(FaultPlan::parse("corrupt=1.5").ok());      // rate > 1
  EXPECT_FALSE(FaultPlan::parse("drop=-0.1").ok());        // negative
  EXPECT_FALSE(FaultPlan::parse("corrupt-bits=0").ok());   // needs >= 1
  EXPECT_FALSE(FaultPlan::parse("nic-dropout=0.1,dropout-mean=0").ok());
  // Not finite: a NaN mean passed the "> 0" check and turned the dropout off.
  EXPECT_FALSE(FaultPlan::parse("nic-dropout=0.1,dropout-mean=nan").ok());
  EXPECT_FALSE(FaultPlan::parse("skew=inf").ok());
}

TEST(FaultInjector, InactivePlanPassesFramesUntouched) {
  FaultInjector injector(FaultPlan{});
  auto frame = test_frame();
  const auto original = frame;
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(injector.apply_frame(frame), FaultInjector::FrameAction::kPass);
  }
  EXPECT_EQ(frame, original);
  EXPECT_EQ(injector.stats().frames_seen, 100u);
  EXPECT_EQ(injector.stats().frames_corrupted, 0u);
}

TEST(FaultInjector, DeterministicAcrossRuns) {
  FaultPlan plan;
  plan.corrupt_rate = 0.3;
  plan.truncate_rate = 0.2;
  plan.drop_rate = 0.1;
  plan.duplicate_rate = 0.1;
  plan.seed = 42;

  auto run = [&plan] {
    FaultInjector injector(plan);
    std::vector<std::vector<std::uint8_t>> outcomes;
    std::vector<FaultInjector::FrameAction> actions;
    for (int i = 0; i < 200; ++i) {
      auto frame = test_frame();
      actions.push_back(injector.apply_frame(frame));
      outcomes.push_back(std::move(frame));
    }
    return std::make_pair(std::move(outcomes), std::move(actions));
  };
  const auto a = run();
  const auto b = run();
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
}

TEST(FaultInjector, RatesRoughlyHonored) {
  FaultPlan plan;
  plan.corrupt_rate = 0.25;
  plan.seed = 3;
  FaultInjector injector(plan);
  for (int i = 0; i < 4000; ++i) {
    auto frame = test_frame();
    (void)injector.apply_frame(frame);
  }
  const double observed =
      static_cast<double>(injector.stats().frames_corrupted) / 4000.0;
  EXPECT_NEAR(observed, 0.25, 0.03);
}

TEST(FaultInjector, CorruptionFlipsAtMostMaxBits) {
  FaultPlan plan;
  plan.corrupt_rate = 1.0;
  plan.corrupt_bits_max = 3;
  FaultInjector injector(plan);
  for (int i = 0; i < 100; ++i) {
    auto frame = test_frame();
    const auto original = frame;
    (void)injector.apply_frame(frame);
    ASSERT_EQ(frame.size(), original.size());
    int flipped = 0;
    for (std::size_t b = 0; b < frame.size(); ++b) {
      flipped += __builtin_popcount(frame[b] ^ original[b]);
    }
    EXPECT_GE(flipped, 1);
    EXPECT_LE(flipped, 3);
  }
}

TEST(FaultInjector, TruncationShortensFrame) {
  FaultPlan plan;
  plan.truncate_rate = 1.0;
  FaultInjector injector(plan);
  auto frame = test_frame(64);
  (void)injector.apply_frame(frame);
  EXPECT_LT(frame.size(), 64u);
}

TEST(FaultInjector, DropoutFractionMatchesRate) {
  FaultPlan plan;
  plan.nic_dropout_rate = 0.2;
  plan.nic_dropout_mean_s = 10.0;
  const FaultInjector injector(plan);
  for (std::size_t card = 0; card < 3; ++card) {
    int down = 0;
    const int samples = 20000;
    for (int i = 0; i < samples; ++i) {
      if (injector.card_down(card, 0.1 * i)) ++down;
    }
    EXPECT_NEAR(static_cast<double>(down) / samples, 0.2, 0.05) << "card " << card;
  }
}

TEST(FaultInjector, DropoutWindowsAreContiguous) {
  FaultPlan plan;
  plan.nic_dropout_rate = 0.2;
  plan.nic_dropout_mean_s = 10.0;
  const FaultInjector injector(plan);
  // Count down->up/up->down edges over 1000 s: with 10 s outages per 50 s
  // period there are ~20 outages => ~40 edges, far fewer than a per-sample
  // independent coin would produce.
  int edges = 0;
  bool prev = injector.card_down(0, 0.0);
  for (double t = 0.1; t < 1000.0; t += 0.1) {
    const bool now = injector.card_down(0, t);
    if (now != prev) ++edges;
    prev = now;
  }
  EXPECT_GT(edges, 10);
  EXPECT_LT(edges, 100);
}

TEST(FaultInjector, ClockSkewBoundedAndStablePerCard) {
  FaultPlan plan;
  plan.clock_skew_max_s = 0.5;
  const FaultInjector injector(plan);
  for (std::size_t card = 0; card < 5; ++card) {
    const double offset0 = injector.card_time(card, 100.0) - 100.0;
    const double offset1 = injector.card_time(card, 5000.0) - 5000.0;
    EXPECT_LE(std::abs(offset0), 0.5);
    // Constant skew, no drift configured; NEAR because (t + skew) - t
    // rounds differently at different magnitudes of t.
    EXPECT_NEAR(offset0, offset1, 1e-9);
  }
  // Different cards get different skews (all-equal would defeat the fault).
  EXPECT_NE(injector.card_time(0, 100.0), injector.card_time(1, 100.0));
}

TEST(FaultInjector, ClockDriftGrowsLinearly) {
  FaultPlan plan;
  plan.clock_drift_max_ppm = 100.0;
  const FaultInjector injector(plan);
  const double err1 = injector.card_time(0, 1000.0) - 1000.0;
  const double err2 = injector.card_time(0, 2000.0) - 2000.0;
  EXPECT_NE(err1, 0.0);
  EXPECT_NEAR(err2, 2.0 * err1, 1e-9);
  EXPECT_LE(std::abs(err1), 1000.0 * 100.0 * 1e-6);
}

TEST(FaultInjector, PerCardFaultsDoNotPerturbFrameStream) {
  FaultPlan base;
  base.corrupt_rate = 0.5;
  base.seed = 11;
  FaultPlan with_cards = base;
  with_cards.nic_dropout_rate = 0.3;
  with_cards.clock_skew_max_s = 1.0;
  with_cards.clock_drift_max_ppm = 50.0;

  FaultInjector a(base);
  FaultInjector b(with_cards);
  for (int i = 0; i < 100; ++i) {
    auto fa = test_frame();
    auto fb = test_frame();
    (void)a.apply_frame(fa);
    // Interleave card queries: they are stateless and must not shift b's
    // frame-damage stream away from a's.
    (void)b.card_down(i % 3, 0.5 * i);
    (void)b.card_time(i % 3, 0.5 * i);
    (void)b.apply_frame(fb);
    EXPECT_EQ(fa, fb) << "frame " << i;
  }
}

TEST(FaultInjector, TearFileKeepsPrefixOnly) {
  const auto path = testing_support::unique_temp_path("mm_tear.bin");
  {
    std::ofstream out(path, std::ios::binary);
    const std::vector<char> bytes(1000, 'x');
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  FaultPlan plan;
  plan.torn_write_rate = 1.0;
  FaultInjector injector(plan);
  EXPECT_TRUE(injector.should_tear_write());
  EXPECT_TRUE(injector.tear_file(path));
  EXPECT_LT(std::filesystem::file_size(path), 1000u);
  EXPECT_EQ(injector.stats().files_torn, 1u);
  EXPECT_FALSE(injector.tear_file(path.string() + ".missing"));
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace mm::fault
