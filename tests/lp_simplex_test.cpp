#include "simplex_oracle.h"

#include <gtest/gtest.h>

#include <cmath>

#include "util/rng.h"

namespace mm::lp::oracle {
namespace {

TEST(Simplex, TrivialSingleVariable) {
  LinearProgram lp(1);
  lp.set_objective(0, 1.0);
  lp.add_upper_bound(0, 5.0);
  const Solution s = lp.solve();
  ASSERT_TRUE(s.optimal()) << to_string(s.status);
  EXPECT_NEAR(s.values[0], 5.0, 1e-7);
  EXPECT_NEAR(s.objective, 5.0, 1e-7);
}

TEST(Simplex, ClassicTwoVariableMax) {
  // max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18  => x=2, y=6, z=36.
  LinearProgram lp(2);
  lp.set_objective(0, 3.0);
  lp.set_objective(1, 5.0);
  lp.add_constraint({{{0, 1.0}}, Relation::kLessEqual, 4.0});
  lp.add_constraint({{{1, 2.0}}, Relation::kLessEqual, 12.0});
  lp.add_constraint({{{0, 3.0}, {1, 2.0}}, Relation::kLessEqual, 18.0});
  const Solution s = lp.solve();
  ASSERT_TRUE(s.optimal());
  EXPECT_NEAR(s.values[0], 2.0, 1e-7);
  EXPECT_NEAR(s.values[1], 6.0, 1e-7);
  EXPECT_NEAR(s.objective, 36.0, 1e-7);
}

TEST(Simplex, GreaterEqualNeedsPhase1) {
  // max x s.t. x >= 2, x <= 7.
  LinearProgram lp(1);
  lp.set_objective(0, 1.0);
  lp.add_constraint({{{0, 1.0}}, Relation::kGreaterEqual, 2.0});
  lp.add_upper_bound(0, 7.0);
  const Solution s = lp.solve();
  ASSERT_TRUE(s.optimal());
  EXPECT_NEAR(s.values[0], 7.0, 1e-7);
}

TEST(Simplex, MinimizationViaNegativeObjective) {
  // minimize x + y s.t. x + y >= 3  == max -(x+y); expect x + y = 3.
  LinearProgram lp(2);
  lp.set_objective(0, -1.0);
  lp.set_objective(1, -1.0);
  lp.add_constraint({{{0, 1.0}, {1, 1.0}}, Relation::kGreaterEqual, 3.0});
  const Solution s = lp.solve();
  ASSERT_TRUE(s.optimal());
  EXPECT_NEAR(s.values[0] + s.values[1], 3.0, 1e-7);
  EXPECT_NEAR(s.objective, -3.0, 1e-7);
}

TEST(Simplex, EqualityConstraint) {
  // max x + 2y s.t. x + y = 4, y <= 3 => y=3, x=1, z=7.
  LinearProgram lp(2);
  lp.set_objective(0, 1.0);
  lp.set_objective(1, 2.0);
  lp.add_constraint({{{0, 1.0}, {1, 1.0}}, Relation::kEqual, 4.0});
  lp.add_upper_bound(1, 3.0);
  const Solution s = lp.solve();
  ASSERT_TRUE(s.optimal());
  EXPECT_NEAR(s.values[0], 1.0, 1e-7);
  EXPECT_NEAR(s.values[1], 3.0, 1e-7);
}

TEST(Simplex, DetectsInfeasible) {
  LinearProgram lp(1);
  lp.set_objective(0, 1.0);
  lp.add_constraint({{{0, 1.0}}, Relation::kGreaterEqual, 5.0});
  lp.add_constraint({{{0, 1.0}}, Relation::kLessEqual, 2.0});
  EXPECT_EQ(lp.solve().status, SolveStatus::kInfeasible);
}

TEST(Simplex, DetectsUnbounded) {
  LinearProgram lp(1);
  lp.set_objective(0, 1.0);
  lp.add_constraint({{{0, 1.0}}, Relation::kGreaterEqual, 1.0});
  EXPECT_EQ(lp.solve().status, SolveStatus::kUnbounded);
}

TEST(Simplex, NegativeRhsNormalization) {
  // max x s.t. -x <= -2 (i.e., x >= 2), x <= 6.
  LinearProgram lp(1);
  lp.set_objective(0, 1.0);
  lp.add_constraint({{{0, -1.0}}, Relation::kLessEqual, -2.0});
  lp.add_upper_bound(0, 6.0);
  const Solution s = lp.solve();
  ASSERT_TRUE(s.optimal());
  EXPECT_NEAR(s.values[0], 6.0, 1e-7);
}

TEST(Simplex, SoftConstraintSatisfiedWhenPossible) {
  // Soft x <= 5 does not bind when maximizing to the hard bound 4.
  LinearProgram lp(1);
  lp.set_objective(0, 1.0);
  lp.add_upper_bound(0, 4.0);
  lp.add_constraint({{{0, 1.0}}, Relation::kLessEqual, 5.0, true, 100.0});
  const Solution s = lp.solve();
  ASSERT_TRUE(s.optimal());
  EXPECT_NEAR(s.values[0], 4.0, 1e-7);
  EXPECT_NEAR(s.total_violation, 0.0, 1e-7);
}

TEST(Simplex, SoftConstraintViolatedUnderConflict) {
  // Hard x >= 6 conflicts with soft x <= 2: solver violates the soft row.
  LinearProgram lp(1);
  lp.set_objective(0, 0.0);
  lp.add_constraint({{{0, 1.0}}, Relation::kGreaterEqual, 6.0});
  lp.add_upper_bound(0, 10.0);
  const std::size_t soft_row =
      lp.add_constraint({{{0, 1.0}}, Relation::kLessEqual, 2.0, true, 50.0});
  const Solution s = lp.solve();
  ASSERT_TRUE(s.optimal());
  EXPECT_GE(s.values[0], 6.0 - 1e-7);
  EXPECT_NEAR(s.violations[soft_row], s.values[0] - 2.0, 1e-6);
  EXPECT_GT(s.total_violation, 3.9);
}

TEST(Simplex, SoftPenaltyTradesOffAgainstObjective) {
  // max 10x with soft x <= 1 at penalty 3 and hard x <= 4: paying the
  // penalty (net +7/unit) is worth it, so x = 4.
  LinearProgram lp(1);
  lp.set_objective(0, 10.0);
  lp.add_upper_bound(0, 4.0);
  lp.add_constraint({{{0, 1.0}}, Relation::kLessEqual, 1.0, true, 3.0});
  const Solution cheap = lp.solve();
  ASSERT_TRUE(cheap.optimal());
  EXPECT_NEAR(cheap.values[0], 4.0, 1e-7);

  // With penalty 30 the violation dominates: x stays at 1.
  LinearProgram lp2(1);
  lp2.set_objective(0, 10.0);
  lp2.add_upper_bound(0, 4.0);
  lp2.add_constraint({{{0, 1.0}}, Relation::kLessEqual, 1.0, true, 30.0});
  const Solution costly = lp2.solve();
  ASSERT_TRUE(costly.optimal());
  EXPECT_NEAR(costly.values[0], 1.0, 1e-7);
}

TEST(Simplex, ApRadShapedProblem) {
  // Three APs on a line at 0, 10, 25. AP0/AP1 co-observed (r0+r1 >= 10);
  // AP1/AP2 never co-observed (r1+r2 <= 15); AP0/AP2 never (r0+r2 <= 25).
  // Maximize r0+r1+r2 with caps of 20 each.
  LinearProgram lp(3);
  for (std::size_t i = 0; i < 3; ++i) {
    lp.set_objective(i, 1.0);
    lp.add_upper_bound(i, 20.0);
  }
  lp.add_constraint({{{0, 1.0}, {1, 1.0}}, Relation::kGreaterEqual, 10.0});
  lp.add_constraint({{{1, 1.0}, {2, 1.0}}, Relation::kLessEqual, 15.0});
  lp.add_constraint({{{0, 1.0}, {2, 1.0}}, Relation::kLessEqual, 25.0});
  const Solution s = lp.solve();
  ASSERT_TRUE(s.optimal());
  // Optimum: r0 = 20 (cap), then r2 <= 5, and r1 <= 15 - r2;
  // r1 + r2 = 15 at the boundary. Objective = 35.
  EXPECT_NEAR(s.objective, 35.0, 1e-6);
  EXPECT_GE(s.values[0] + s.values[1], 10.0 - 1e-6);
  EXPECT_LE(s.values[1] + s.values[2], 15.0 + 1e-6);
  EXPECT_LE(s.values[0] + s.values[2], 25.0 + 1e-6);
}

TEST(Simplex, BadVariableIndexThrows) {
  LinearProgram lp(2);
  EXPECT_THROW(lp.add_constraint({{{5, 1.0}}, Relation::kLessEqual, 1.0}),
               std::out_of_range);
  EXPECT_THROW(lp.add_upper_bound(2, 1.0), std::out_of_range);
  EXPECT_THROW(lp.set_objective(7, 1.0), std::out_of_range);
}

TEST(Simplex, StatusNames) {
  EXPECT_STREQ(to_string(SolveStatus::kOptimal), "optimal");
  EXPECT_STREQ(to_string(SolveStatus::kInfeasible), "infeasible");
  EXPECT_STREQ(to_string(SolveStatus::kUnbounded), "unbounded");
  EXPECT_STREQ(to_string(SolveStatus::kIterationLimit), "iteration-limit");
}

// Property sweep: random bounded 2-variable LPs; simplex must (a) report
// optimal, (b) return a feasible point, (c) not be beaten by any point of a
// fine grid over the box.
class RandomLpTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomLpTest, SimplexBeatsGridSearch) {
  util::Rng rng(GetParam());
  LinearProgram lp(2);
  const double c0 = rng.uniform(0.1, 3.0);
  const double c1 = rng.uniform(0.1, 3.0);
  lp.set_objective(0, c0);
  lp.set_objective(1, c1);
  const double box = 10.0;
  lp.add_upper_bound(0, box);
  lp.add_upper_bound(1, box);

  struct Row {
    double a0, a1, b;
  };
  std::vector<Row> row_list;
  for (int i = 0; i < 4; ++i) {
    // a0*x + a1*y <= b with positive coefficients keeps the LP bounded and
    // feasible (origin always satisfies it).
    Row row{rng.uniform(0.1, 2.0), rng.uniform(0.1, 2.0), rng.uniform(2.0, 15.0)};
    lp.add_constraint({{{0, row.a0}, {1, row.a1}}, Relation::kLessEqual, row.b});
    row_list.push_back(row);
  }

  const Solution s = lp.solve();
  ASSERT_TRUE(s.optimal());
  for (const Row& row : row_list) {
    EXPECT_LE(row.a0 * s.values[0] + row.a1 * s.values[1], row.b + 1e-6);
  }
  EXPECT_LE(s.values[0], box + 1e-6);
  EXPECT_LE(s.values[1], box + 1e-6);

  double best_grid = 0.0;
  const int kSteps = 200;
  for (int i = 0; i <= kSteps; ++i) {
    for (int j = 0; j <= kSteps; ++j) {
      const double x = box * i / kSteps;
      const double y = box * j / kSteps;
      bool feasible = true;
      for (const Row& row : row_list) {
        if (row.a0 * x + row.a1 * y > row.b + 1e-12) {
          feasible = false;
          break;
        }
      }
      if (feasible) best_grid = std::max(best_grid, c0 * x + c1 * y);
    }
  }
  EXPECT_GE(s.objective, best_grid - 1e-4);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomLpTest,
                         ::testing::Values(11, 22, 33, 44, 55, 66, 77, 88, 99, 110));

// Beale's classic cycling example: Dantzig pricing cycles forever without
// an anti-cycling rule; the Bland fallback must terminate at the optimum
// (z = 0.05 for the minimization, i.e., -0.05 maximized... stated directly:
// max 0.75x1 - 150x2 + 0.02x3 - 6x4 with the standard Beale rows; optimum
// objective = 0.05).
TEST(Simplex, BealeCyclingExampleTerminates) {
  LinearProgram lp(4);
  lp.set_objective(0, 0.75);
  lp.set_objective(1, -150.0);
  lp.set_objective(2, 0.02);
  lp.set_objective(3, -6.0);
  lp.add_constraint({{{0, 0.25}, {1, -60.0}, {2, -0.04}, {3, 9.0}}, Relation::kLessEqual, 0.0});
  lp.add_constraint({{{0, 0.5}, {1, -90.0}, {2, -0.02}, {3, 3.0}}, Relation::kLessEqual, 0.0});
  lp.add_constraint({{{2, 1.0}}, Relation::kLessEqual, 1.0});
  const Solution s = lp.solve();
  ASSERT_TRUE(s.optimal()) << to_string(s.status);
  EXPECT_NEAR(s.objective, 0.05, 1e-9);
  EXPECT_NEAR(s.values[2], 1.0, 1e-9);
}

// Moderate-size stress: AP-Rad-like chain of constraints stays solvable.
TEST(Simplex, MediumScaleChain) {
  constexpr std::size_t kN = 60;
  LinearProgram lp(kN);
  for (std::size_t i = 0; i < kN; ++i) {
    lp.set_objective(i, 1.0);
    lp.add_upper_bound(i, 100.0);
  }
  for (std::size_t i = 0; i + 1 < kN; ++i) {
    lp.add_constraint({{{i, 1.0}, {i + 1, 1.0}}, Relation::kGreaterEqual, 50.0});
    if (i + 2 < kN) {
      lp.add_constraint({{{i, 1.0}, {i + 2, 1.0}}, Relation::kLessEqual, 150.0, true, 10.0});
    }
  }
  const Solution s = lp.solve();
  ASSERT_TRUE(s.optimal());
  for (std::size_t i = 0; i + 1 < kN; ++i) {
    EXPECT_GE(s.values[i] + s.values[i + 1], 50.0 - 1e-6);
  }
}

}  // namespace
}  // namespace mm::lp::oracle
