#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/rng.h"
#include "common/strings.h"
#include "ilp/model.h"
#include "ilp/presolve.h"
#include "ilp/simplex.h"
#include "ilp/solver.h"

namespace muve::ilp {
namespace {

/// A random small pure-integer program: n variables in [0, 2], mixed-sign
/// objective and coefficients, <= constraints. Small enough to enumerate
/// all 3^n assignments.
Model RandomSmallMip(Rng* rng) {
  Model model;
  const int n = 4 + static_cast<int>(rng->UniformInt(3));
  for (int v = 0; v < n; ++v) {
    model.AddInteger(std::string("x").append(std::to_string(v)), 0.0, 2.0);
    model.AddObjectiveTerm(v, rng->UniformDouble(-5.0, 5.0));
  }
  if (rng->Bernoulli(0.5)) model.SetSense(Sense::kMaximize);
  const int m = 2 + static_cast<int>(rng->UniformInt(3));
  for (int c = 0; c < m; ++c) {
    LinearExpr expr;
    for (int v = 0; v < n; ++v) {
      if (rng->Bernoulli(0.7)) expr.Add(v, rng->UniformDouble(-2.0, 3.0));
    }
    model.AddConstraint(expr, Relation::kLessEqual,
                        rng->UniformDouble(-1.0, 8.0));
  }
  return model;
}

/// Brute-force optimum of a RandomSmallMip-shaped model. Returns false
/// when no assignment is feasible.
bool EnumerateOptimum(const Model& model, double* best) {
  const size_t n = model.num_variables();
  std::vector<double> x(n, 0.0);
  bool found = false;
  const bool maximize = model.sense() == Sense::kMaximize;
  while (true) {
    if (model.IsFeasible(x)) {
      const double value = model.EvaluateObjective(x);
      if (!found || (maximize ? value > *best : value < *best)) {
        *best = value;
      }
      found = true;
    }
    size_t carry = 0;
    while (carry < n && x[carry] == 2.0) x[carry++] = 0.0;
    if (carry == n) break;
    x[carry] += 1.0;
  }
  return found;
}

// ---------------------------------------------------------------------
// Simplex on hand-solved LPs.
// ---------------------------------------------------------------------

TEST(SimplexTest, SimpleMaximization) {
  // max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18; optimum 36 at
  // (2, 6) — the classic Dantzig example.
  Model model;
  const int x = model.AddVariable("x", 0.0, Model::kInfinity);
  const int y = model.AddVariable("y", 0.0, Model::kInfinity);
  model.SetSense(Sense::kMaximize);
  model.AddObjectiveTerm(x, 3.0);
  model.AddObjectiveTerm(y, 5.0);
  model.AddConstraint(LinearExpr().Add(x, 1.0), Relation::kLessEqual, 4.0);
  model.AddConstraint(LinearExpr().Add(y, 2.0), Relation::kLessEqual, 12.0);
  model.AddConstraint(LinearExpr().Add(x, 3.0).Add(y, 2.0),
                      Relation::kLessEqual, 18.0);
  const LpSolution solution = SimplexSolver().Solve(model);
  ASSERT_EQ(solution.status, LpStatus::kOptimal);
  EXPECT_NEAR(solution.objective, 36.0, 1e-6);
  EXPECT_NEAR(solution.x[x], 2.0, 1e-6);
  EXPECT_NEAR(solution.x[y], 6.0, 1e-6);
}

TEST(SimplexTest, Minimization) {
  // min x + y s.t. x + 2y >= 4, 3x + y >= 6; optimum at intersection
  // (8/5, 6/5), value 14/5.
  Model model;
  const int x = model.AddVariable("x", 0.0, Model::kInfinity);
  const int y = model.AddVariable("y", 0.0, Model::kInfinity);
  model.AddObjectiveTerm(x, 1.0);
  model.AddObjectiveTerm(y, 1.0);
  model.AddConstraint(LinearExpr().Add(x, 1.0).Add(y, 2.0),
                      Relation::kGreaterEqual, 4.0);
  model.AddConstraint(LinearExpr().Add(x, 3.0).Add(y, 1.0),
                      Relation::kGreaterEqual, 6.0);
  const LpSolution solution = SimplexSolver().Solve(model);
  ASSERT_EQ(solution.status, LpStatus::kOptimal);
  EXPECT_NEAR(solution.objective, 14.0 / 5.0, 1e-6);
}

TEST(SimplexTest, EqualityConstraints) {
  // min 2x + 3y s.t. x + y = 10, x - y = 2 -> x=6, y=4, value 24.
  Model model;
  const int x = model.AddVariable("x", 0.0, Model::kInfinity);
  const int y = model.AddVariable("y", 0.0, Model::kInfinity);
  model.AddObjectiveTerm(x, 2.0);
  model.AddObjectiveTerm(y, 3.0);
  model.AddConstraint(LinearExpr().Add(x, 1.0).Add(y, 1.0),
                      Relation::kEqual, 10.0);
  model.AddConstraint(LinearExpr().Add(x, 1.0).Add(y, -1.0),
                      Relation::kEqual, 2.0);
  const LpSolution solution = SimplexSolver().Solve(model);
  ASSERT_EQ(solution.status, LpStatus::kOptimal);
  EXPECT_NEAR(solution.x[x], 6.0, 1e-6);
  EXPECT_NEAR(solution.x[y], 4.0, 1e-6);
  EXPECT_NEAR(solution.objective, 24.0, 1e-6);
}

TEST(SimplexTest, DetectsInfeasibility) {
  // x <= 1 and x >= 2 cannot hold.
  Model model;
  const int x = model.AddVariable("x", 0.0, Model::kInfinity);
  model.AddObjectiveTerm(x, 1.0);
  model.AddConstraint(LinearExpr().Add(x, 1.0), Relation::kLessEqual, 1.0);
  model.AddConstraint(LinearExpr().Add(x, 1.0), Relation::kGreaterEqual,
                      2.0);
  EXPECT_EQ(SimplexSolver().Solve(model).status, LpStatus::kInfeasible);
}

TEST(SimplexTest, DetectsUnboundedness) {
  // max x with only x >= 0.
  Model model;
  const int x = model.AddVariable("x", 0.0, Model::kInfinity);
  model.SetSense(Sense::kMaximize);
  model.AddObjectiveTerm(x, 1.0);
  model.AddConstraint(LinearExpr().Add(x, 1.0), Relation::kGreaterEqual,
                      0.0);
  EXPECT_EQ(SimplexSolver().Solve(model).status, LpStatus::kUnbounded);
}

TEST(SimplexTest, RespectsVariableBounds) {
  // max x + y with x in [0, 3], y in [1, 2] -> 5.
  Model model;
  const int x = model.AddVariable("x", 0.0, 3.0);
  const int y = model.AddVariable("y", 1.0, 2.0);
  model.SetSense(Sense::kMaximize);
  model.AddObjectiveTerm(x, 1.0);
  model.AddObjectiveTerm(y, 1.0);
  const LpSolution solution = SimplexSolver().Solve(model);
  ASSERT_EQ(solution.status, LpStatus::kOptimal);
  EXPECT_NEAR(solution.objective, 5.0, 1e-6);
}

TEST(SimplexTest, FixedVariablesAreSubstituted) {
  // y fixed to 2; min x s.t. x + y >= 5 -> x = 3.
  Model model;
  const int x = model.AddVariable("x", 0.0, Model::kInfinity);
  const int y = model.AddVariable("y", 2.0, 2.0);
  model.AddObjectiveTerm(x, 1.0);
  model.AddConstraint(LinearExpr().Add(x, 1.0).Add(y, 1.0),
                      Relation::kGreaterEqual, 5.0);
  const LpSolution solution = SimplexSolver().Solve(model);
  ASSERT_EQ(solution.status, LpStatus::kOptimal);
  EXPECT_NEAR(solution.x[x], 3.0, 1e-6);
  EXPECT_NEAR(solution.x[y], 2.0, 1e-12);
}

TEST(SimplexTest, ObjectiveConstantIncluded) {
  Model model;
  const int x = model.AddVariable("x", 0.0, 1.0);
  model.AddObjectiveTerm(x, 1.0);
  model.AddObjectiveConstant(100.0);
  const LpSolution solution = SimplexSolver().Solve(model);
  ASSERT_EQ(solution.status, LpStatus::kOptimal);
  EXPECT_NEAR(solution.objective, 100.0, 1e-9);
}

TEST(SimplexTest, NegativeRhsHandled) {
  // min x s.t. -x <= -3 (i.e., x >= 3).
  Model model;
  const int x = model.AddVariable("x", 0.0, Model::kInfinity);
  model.AddObjectiveTerm(x, 1.0);
  model.AddConstraint(LinearExpr().Add(x, -1.0), Relation::kLessEqual,
                      -3.0);
  const LpSolution solution = SimplexSolver().Solve(model);
  ASSERT_EQ(solution.status, LpStatus::kOptimal);
  EXPECT_NEAR(solution.x[x], 3.0, 1e-6);
}

TEST(SimplexTest, RandomizedFeasibilityCheck) {
  // LP optima must satisfy all constraints.
  Rng rng(77);
  for (int trial = 0; trial < 25; ++trial) {
    Model model;
    const int n = 4 + static_cast<int>(rng.UniformInt(4));
    for (int v = 0; v < n; ++v) {
      model.AddVariable(std::string("x").append(std::to_string(v)), 0.0, 10.0);
      model.AddObjectiveTerm(v, rng.UniformDouble(-1.0, 1.0));
    }
    const int m = 3 + static_cast<int>(rng.UniformInt(4));
    for (int c = 0; c < m; ++c) {
      LinearExpr expr;
      for (int v = 0; v < n; ++v) {
        if (rng.Bernoulli(0.6)) expr.Add(v, rng.UniformDouble(0.0, 2.0));
      }
      model.AddConstraint(expr, Relation::kLessEqual,
                          rng.UniformDouble(1.0, 20.0));
    }
    const LpSolution solution = SimplexSolver().Solve(model);
    ASSERT_EQ(solution.status, LpStatus::kOptimal);
    Model relaxed = model;  // IsFeasible ignores integrality here anyway.
    EXPECT_TRUE(relaxed.IsFeasible(solution.x, 1e-5));
  }
}

// ---------------------------------------------------------------------
// Branch and bound.
// ---------------------------------------------------------------------

TEST(MipSolverTest, SolvesKnapsack) {
  // Knapsack: values {60,100,120}, weights {10,20,30}, capacity 50.
  // Optimum picks items 2+3: value 220.
  Model model;
  const double values[] = {60, 100, 120};
  const double weights[] = {10, 20, 30};
  LinearExpr capacity;
  for (int i = 0; i < 3; ++i) {
    const int x = model.AddBinary(StrCat({"item", std::to_string(i)}));
    model.AddObjectiveTerm(x, values[i]);
    capacity.Add(x, weights[i]);
  }
  model.SetSense(Sense::kMaximize);
  model.AddConstraint(capacity, Relation::kLessEqual, 50.0);
  const MipSolution solution = MipSolver().Solve(model);
  ASSERT_EQ(solution.status, MipStatus::kOptimal);
  EXPECT_NEAR(solution.objective, 220.0, 1e-6);
  EXPECT_NEAR(solution.x[0], 0.0, 1e-6);
  EXPECT_NEAR(solution.x[1], 1.0, 1e-6);
  EXPECT_NEAR(solution.x[2], 1.0, 1e-6);
}

TEST(MipSolverTest, IntegralityMatters) {
  // max x + y s.t. 2x + 2y <= 3, binaries: LP optimum 1.5, MIP optimum 1.
  Model model;
  const int x = model.AddBinary("x");
  const int y = model.AddBinary("y");
  model.SetSense(Sense::kMaximize);
  model.AddObjectiveTerm(x, 1.0);
  model.AddObjectiveTerm(y, 1.0);
  model.AddConstraint(LinearExpr().Add(x, 2.0).Add(y, 2.0),
                      Relation::kLessEqual, 3.0);
  const MipSolution solution = MipSolver().Solve(model);
  ASSERT_EQ(solution.status, MipStatus::kOptimal);
  EXPECT_NEAR(solution.objective, 1.0, 1e-6);
}

TEST(MipSolverTest, GeneralIntegerVariables) {
  // max 2x + 3y, x,y integer, x + y <= 4.5, x - y >= -1 ->
  // best integers: y - x <= 1, x + y <= 4 -> x=2,y=2? obj 10 vs x=1,y=2:8.
  Model model;
  const int x = model.AddInteger("x", 0.0, 10.0);
  const int y = model.AddInteger("y", 0.0, 10.0);
  model.SetSense(Sense::kMaximize);
  model.AddObjectiveTerm(x, 2.0);
  model.AddObjectiveTerm(y, 3.0);
  model.AddConstraint(LinearExpr().Add(x, 1.0).Add(y, 1.0),
                      Relation::kLessEqual, 4.5);
  model.AddConstraint(LinearExpr().Add(x, 1.0).Add(y, -1.0),
                      Relation::kGreaterEqual, -1.0);
  const MipSolution solution = MipSolver().Solve(model);
  ASSERT_EQ(solution.status, MipStatus::kOptimal);
  EXPECT_NEAR(solution.objective, 2.0 * solution.x[x] + 3.0 * solution.x[y],
              1e-6);
  // Exhaustive check of the small grid.
  double best = 0.0;
  for (int xi = 0; xi <= 4; ++xi) {
    for (int yi = 0; yi <= 4; ++yi) {
      if (xi + yi <= 4.5 && xi - yi >= -1) {
        best = std::max(best, 2.0 * xi + 3.0 * yi);
      }
    }
  }
  EXPECT_NEAR(solution.objective, best, 1e-6);
}

TEST(MipSolverTest, InfeasibleModel) {
  Model model;
  const int x = model.AddBinary("x");
  model.AddConstraint(LinearExpr().Add(x, 1.0), Relation::kGreaterEqual,
                      2.0);
  EXPECT_EQ(MipSolver().Solve(model).status, MipStatus::kInfeasible);
}

TEST(MipSolverTest, WarmStartAccepted) {
  Model model;
  const int x = model.AddBinary("x");
  model.SetSense(Sense::kMaximize);
  model.AddObjectiveTerm(x, 1.0);
  std::vector<double> warm = {1.0};
  const MipSolution solution =
      MipSolver().Solve(model, Deadline::Infinite(), &warm);
  ASSERT_EQ(solution.status, MipStatus::kOptimal);
  EXPECT_NEAR(solution.objective, 1.0, 1e-9);
}

TEST(MipSolverTest, TimeoutReturnsIncumbent) {
  // An expired deadline with a feasible warm start must return that
  // incumbent (Gurobi-style behaviour MUVE relies on).
  Model model;
  LinearExpr capacity;
  Rng rng(5);
  for (int i = 0; i < 30; ++i) {
    const int x = model.AddBinary(std::string("x").append(std::to_string(i)));
    model.AddObjectiveTerm(x, rng.UniformDouble(1.0, 10.0));
    capacity.Add(x, rng.UniformDouble(1.0, 10.0));
  }
  model.SetSense(Sense::kMaximize);
  model.AddConstraint(capacity, Relation::kLessEqual, 50.0);
  std::vector<double> warm(30, 0.0);
  const MipSolution solution =
      MipSolver().Solve(model, Deadline::AfterMillis(0.0), &warm);
  EXPECT_EQ(solution.status, MipStatus::kFeasibleTimeout);
  EXPECT_TRUE(solution.timed_out);
  EXPECT_TRUE(solution.has_solution());
}

TEST(MipSolverTest, RandomizedKnapsacksMatchDynamicProgramming) {
  Rng rng(31);
  for (int trial = 0; trial < 15; ++trial) {
    const int n = 8 + static_cast<int>(rng.UniformInt(5));
    std::vector<int> weights(n);
    std::vector<int> values(n);
    const int capacity = 30;
    for (int i = 0; i < n; ++i) {
      weights[i] = 1 + static_cast<int>(rng.UniformInt(12));
      values[i] = 1 + static_cast<int>(rng.UniformInt(20));
    }
    // Dynamic program.
    std::vector<int> dp(capacity + 1, 0);
    for (int i = 0; i < n; ++i) {
      for (int w = capacity; w >= weights[i]; --w) {
        dp[w] = std::max(dp[w], dp[w - weights[i]] + values[i]);
      }
    }
    // MIP.
    Model model;
    LinearExpr weight_expr;
    for (int i = 0; i < n; ++i) {
      const int x = model.AddBinary(std::string("x").append(std::to_string(i)));
      model.AddObjectiveTerm(x, values[i]);
      weight_expr.Add(x, weights[i]);
    }
    model.SetSense(Sense::kMaximize);
    model.AddConstraint(weight_expr, Relation::kLessEqual, capacity);
    const MipSolution solution = MipSolver().Solve(model);
    ASSERT_EQ(solution.status, MipStatus::kOptimal);
    EXPECT_NEAR(solution.objective, dp[capacity], 1e-6) << "trial " << trial;
  }
}

TEST(MipSolverTest, RandomizedMipsMatchExhaustiveEnumeration) {
  // General mixed-sign integer programs (not just knapsacks) against a
  // brute-force sweep of the full 3^n grid.
  Rng rng(91);
  for (int trial = 0; trial < 20; ++trial) {
    const Model model = RandomSmallMip(&rng);
    double best = 0.0;
    const bool feasible = EnumerateOptimum(model, &best);
    const MipSolution solution = MipSolver().Solve(model);
    if (!feasible) {
      EXPECT_EQ(solution.status, MipStatus::kInfeasible) << "trial " << trial;
      continue;
    }
    ASSERT_EQ(solution.status, MipStatus::kOptimal) << "trial " << trial;
    EXPECT_NEAR(solution.objective, best, 1e-6) << "trial " << trial;
    EXPECT_TRUE(model.IsFeasible(solution.x)) << "trial " << trial;
  }
}

TEST(MipSolverTest, ThreadCountDoesNotChangeResults) {
  // The wave-based parallel search contract: identical solution, node
  // count, and bound at any thread count (for runs without a timeout).
  Rng rng(131);
  Model model;
  LinearExpr capacity;
  LinearExpr pairs;
  for (int i = 0; i < 16; ++i) {
    const int x = model.AddBinary(std::string("x").append(std::to_string(i)));
    model.AddObjectiveTerm(x, rng.UniformDouble(1.0, 10.0));
    capacity.Add(x, rng.UniformDouble(1.0, 10.0));
    if (i % 2 == 0) pairs.Add(x, 1.0);
  }
  model.SetSense(Sense::kMaximize);
  model.AddConstraint(capacity, Relation::kLessEqual, 35.0);
  model.AddConstraint(pairs, Relation::kLessEqual, 5.0);

  MipSolver::Options serial;
  serial.num_threads = 1;
  const MipSolution base = MipSolver(serial).Solve(model);
  ASSERT_EQ(base.status, MipStatus::kOptimal);
  for (size_t threads : {2u, 8u}) {
    MipSolver::Options options;
    options.num_threads = threads;
    const MipSolution solution = MipSolver(options).Solve(model);
    ASSERT_EQ(solution.status, MipStatus::kOptimal) << threads;
    EXPECT_EQ(solution.objective, base.objective) << threads;
    EXPECT_EQ(solution.x, base.x) << threads;
    EXPECT_EQ(solution.nodes_explored, base.nodes_explored) << threads;
    EXPECT_EQ(solution.best_bound, base.best_bound) << threads;
  }
}

// ---------------------------------------------------------------------
// Presolve.
// ---------------------------------------------------------------------

TEST(PresolveTest, PreservesOptimaAndIsIdempotent) {
  Rng rng(101);
  int reductions = 0;
  for (int trial = 0; trial < 20; ++trial) {
    const Model model = RandomSmallMip(&rng);
    const PresolveResult first = Presolve(model);
    double best = 0.0;
    const bool feasible = EnumerateOptimum(model, &best);
    if (first.infeasible) {
      // Presolve may only prove infeasibility, never invent it.
      EXPECT_FALSE(feasible) << "trial " << trial;
      continue;
    }
    reductions += static_cast<int>(first.stats.rows_removed +
                                   first.stats.bounds_tightened +
                                   first.stats.variables_fixed);
    // Same variable count and the same optimum (full optimum set is
    // preserved, so in particular the optimal value).
    ASSERT_EQ(first.model.num_variables(), model.num_variables());
    MipSolver::Options no_presolve;
    no_presolve.presolve = false;
    const MipSolution reduced = MipSolver(no_presolve).Solve(first.model);
    if (!feasible) {
      EXPECT_EQ(reduced.status, MipStatus::kInfeasible) << "trial " << trial;
      continue;
    }
    ASSERT_EQ(reduced.status, MipStatus::kOptimal) << "trial " << trial;
    EXPECT_NEAR(reduced.objective, best, 1e-6) << "trial " << trial;
    EXPECT_TRUE(model.IsFeasible(reduced.x)) << "trial " << trial;
    // Idempotence: a second pass finds nothing left to do.
    const PresolveResult second = Presolve(first.model);
    EXPECT_FALSE(second.infeasible) << "trial " << trial;
    EXPECT_EQ(second.stats.rows_removed, 0u) << "trial " << trial;
    EXPECT_EQ(second.stats.bounds_tightened, 0u) << "trial " << trial;
    EXPECT_EQ(second.stats.variables_fixed, 0u) << "trial " << trial;
  }
  // The suite must actually exercise reductions, not vacuously pass.
  EXPECT_GT(reductions, 0);
}

// ---------------------------------------------------------------------
// Warm-started dual simplex.
// ---------------------------------------------------------------------

TEST(SimplexTest, ResolveMatchesColdSolveOnPerturbedBounds) {
  // Random bound jumps (as in branch-and-bound slot reuse, where one
  // LpState serves unrelated nodes): the warm dual re-solve must agree
  // with a cold solve on status and objective every time.
  Rng rng(57);
  for (int trial = 0; trial < 8; ++trial) {
    Model model;
    const int n = 5 + static_cast<int>(rng.UniformInt(4));
    for (int v = 0; v < n; ++v) {
      model.AddVariable(std::string("x").append(std::to_string(v)), 0.0, 10.0);
      model.AddObjectiveTerm(v, rng.UniformDouble(-3.0, 3.0));
    }
    if (rng.Bernoulli(0.5)) model.SetSense(Sense::kMaximize);
    const int m = 3 + static_cast<int>(rng.UniformInt(3));
    for (int c = 0; c < m; ++c) {
      LinearExpr expr;
      for (int v = 0; v < n; ++v) {
        if (rng.Bernoulli(0.6)) expr.Add(v, rng.UniformDouble(-1.0, 2.0));
      }
      model.AddConstraint(expr, Relation::kLessEqual,
                          rng.UniformDouble(2.0, 15.0));
    }

    const LpCore core(model);
    const SimplexOptions options;
    LpState warm(&core, options);
    LpState cold(&core, options);
    std::vector<double> lb(n, 0.0);
    std::vector<double> ub(n, 10.0);
    ASSERT_EQ(warm.SolveCold(lb, ub, nullptr), LpStatus::kOptimal);

    for (int step = 0; step < 12; ++step) {
      for (int v = 0; v < n; ++v) {
        if (!rng.Bernoulli(0.4)) continue;
        const double lo = std::floor(rng.UniformDouble(0.0, 8.0));
        const double len = std::floor(rng.UniformDouble(0.0, 5.0));
        lb[v] = lo;
        ub[v] = lo + len;  // len 0 fixes the variable.
      }
      const LpStatus warm_status = warm.Resolve(lb, ub, nullptr);
      const LpStatus cold_status = cold.SolveCold(lb, ub, nullptr);
      EXPECT_EQ(warm_status, cold_status)
          << "trial " << trial << " step " << step;
      if (warm_status == LpStatus::kOptimal &&
          cold_status == LpStatus::kOptimal) {
        EXPECT_NEAR(warm.objective(), cold.objective(), 1e-6)
            << "trial " << trial << " step " << step;
      }
    }
  }
}

// ---------------------------------------------------------------------
// Product linearization.
// ---------------------------------------------------------------------

TEST(ModelTest, ProductVariableEqualsProduct) {
  // y = x * z with x binary, z integer in [0, 5]. For each corner, fix x
  // and z and verify the only feasible y equals the product.
  for (double x_val : {0.0, 1.0}) {
    for (double z_val : {0.0, 2.0, 5.0}) {
      Model model;
      const int x = model.AddBinary("x");
      const int z = model.AddInteger("z", 0.0, 5.0);
      const int y = model.AddProductVariable("y", x, z, 5.0);
      model.AddConstraint(LinearExpr().Add(x, 1.0), Relation::kEqual,
                          x_val);
      model.AddConstraint(LinearExpr().Add(z, 1.0), Relation::kEqual,
                          z_val);
      // Objective pushes y up; upper linking constraints must cap it at
      // the product.
      model.SetSense(Sense::kMaximize);
      model.AddObjectiveTerm(y, 1.0);
      const MipSolution max_solution = MipSolver().Solve(model);
      ASSERT_EQ(max_solution.status, MipStatus::kOptimal);
      EXPECT_NEAR(max_solution.x[y], x_val * z_val, 1e-6);
      // And pushing y down must floor it at the product as well.
      Model model_min;
      const int x2 = model_min.AddBinary("x");
      const int z2 = model_min.AddInteger("z", 0.0, 5.0);
      const int y2 = model_min.AddProductVariable("y", x2, z2, 5.0);
      model_min.AddConstraint(LinearExpr().Add(x2, 1.0), Relation::kEqual,
                              x_val);
      model_min.AddConstraint(LinearExpr().Add(z2, 1.0), Relation::kEqual,
                              z_val);
      model_min.AddObjectiveTerm(y2, 1.0);  // Minimize.
      const MipSolution min_solution = MipSolver().Solve(model_min);
      ASSERT_EQ(min_solution.status, MipStatus::kOptimal);
      EXPECT_NEAR(min_solution.x[y2], x_val * z_val, 1e-6);
    }
  }
}

TEST(ModelTest, CountsAndAccessors) {
  Model model;
  const int x = model.AddBinary("x");
  const int y = model.AddVariable("y", 0.0, 2.0);
  model.AddConstraint(LinearExpr().Add(x, 1.0).Add(y, 1.0),
                      Relation::kLessEqual, 2.0);
  EXPECT_EQ(model.num_variables(), 2u);
  EXPECT_EQ(model.num_constraints(), 1u);
  EXPECT_EQ(model.num_integer_variables(), 1u);
  EXPECT_TRUE(model.is_integer(x));
  EXPECT_FALSE(model.is_integer(y));
  EXPECT_EQ(model.name(x), "x");
}

TEST(ModelTest, IsFeasibleChecksEverything) {
  Model model;
  const int x = model.AddBinary("x");
  model.AddConstraint(LinearExpr().Add(x, 1.0), Relation::kLessEqual, 0.5);
  EXPECT_TRUE(model.IsFeasible({0.0}));
  EXPECT_FALSE(model.IsFeasible({1.0}));   // Violates constraint.
  EXPECT_FALSE(model.IsFeasible({0.4}));   // Violates integrality.
  EXPECT_FALSE(model.IsFeasible({-0.5}));  // Violates bound.
  EXPECT_FALSE(model.IsFeasible({}));      // Wrong arity.
}

}  // namespace
}  // namespace muve::ilp
