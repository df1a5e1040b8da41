#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "common/rng.h"
#include "common/strings.h"
#include "core/greedy_planner.h"
#include "core/ilp_planner.h"
#include "core/query_template.h"
#include "testing/brute_force_planner.h"
#include "testing/sanitizer.h"
#include "testing/template_oracle.h"

namespace muve::core {
namespace {

db::AggregateQuery MakeQuery(
    db::AggregateFunction fn, const std::string& agg_column,
    const std::vector<std::pair<std::string, std::string>>& predicates) {
  db::AggregateQuery query;
  query.table = "t";
  query.function = fn;
  query.aggregate_column = agg_column;
  for (const auto& [column, value] : predicates) {
    query.predicates.push_back(
        db::Predicate::Equals(column, db::Value(value)));
  }
  return query;
}

/// A small candidate set: queries vary the value of one predicate (one
/// strong shared template) plus a couple of outliers.
CandidateSet SmallInstance(Rng* rng, size_t num_candidates) {
  static const char* kValues[] = {"v0", "v1", "v2", "v3", "v4", "v5",
                                  "v6", "v7"};
  static const char* kColumns[] = {"c0", "c1", "c2"};
  CandidateSet set;
  for (size_t i = 0; i < num_candidates; ++i) {
    const char* column = kColumns[rng->UniformInt(2)];
    const char* value = kValues[rng->UniformInt(8)];
    db::AggregateFunction fn = rng->Bernoulli(0.7)
                                   ? db::AggregateFunction::kCount
                                   : db::AggregateFunction::kAvg;
    std::string agg = fn == db::AggregateFunction::kCount ? "" : "m";
    set.Add(MakeQuery(fn, agg, {{column, value}}),
            rng->UniformDouble(0.05, 1.0));
  }
  testing::ReferenceDeduplicate(&set);
  set.Normalize();
  set.SortByProbability();
  return set;
}

PlannerConfig TightConfig() {
  PlannerConfig config;
  config.geometry.max_rows = 1;
  config.geometry.width_px = 400.0;  // 10 bar units.
  config.cost_model.bar_cost_ms = 500.0;
  config.cost_model.plot_cost_ms = 2000.0;
  config.cost_model.miss_cost_ms = 20000.0;
  config.timeout_ms = 30000.0;
  return config;
}

// ---------------------------------------------------------------------
// Greedy planner basics.
// ---------------------------------------------------------------------

TEST(GreedyPlannerTest, EmptyCandidates) {
  GreedyPlanner planner;
  auto result = planner.Plan(CandidateSet(), TightConfig());
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->multiplot.empty());
  EXPECT_NEAR(result->expected_cost, 20000.0, 1e-9);
}

TEST(GreedyPlannerTest, ProducesValidMultiplotsOnRandomInstances) {
  Rng rng(101);
  GreedyPlanner planner;
  const PlannerConfig config = TightConfig();
  for (int trial = 0; trial < 40; ++trial) {
    const CandidateSet set = SmallInstance(&rng, 3 + rng.UniformInt(10));
    auto result = planner.Plan(set, config);
    ASSERT_TRUE(result.ok());
    EXPECT_TRUE(result->multiplot.Validate(config.geometry).ok());
    EXPECT_LE(result->expected_cost,
              config.cost_model.EmptyCost() + 1e-9);
    // The reported cost must match the evaluator.
    EXPECT_NEAR(result->expected_cost,
                config.cost_model.ExpectedCost(result->multiplot, set),
                1e-9);
  }
}

TEST(GreedyPlannerTest, ShowsMostLikelyCandidateWhenSpaceAllows) {
  Rng rng(5);
  GreedyPlanner planner;
  PlannerConfig config = TightConfig();
  config.geometry.width_px = 1200.0;
  const CandidateSet set = SmallInstance(&rng, 8);
  auto result = planner.Plan(set, config);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->multiplot.FindCandidate(0).has_value())
      << "most likely candidate missing from multiplot";
}

TEST(GreedyPlannerTest, NoCandidateShownTwiceAfterPolish) {
  Rng rng(7);
  GreedyPlanner planner;
  PlannerConfig config = TightConfig();
  config.geometry.max_rows = 2;
  config.geometry.width_px = 900.0;
  for (int trial = 0; trial < 20; ++trial) {
    const CandidateSet set = SmallInstance(&rng, 10);
    auto result = planner.Plan(set, config);
    ASSERT_TRUE(result.ok());
    EXPECT_TRUE(result->multiplot.Validate(config.geometry).ok());
  }
}

TEST(GreedyPlannerTest, FastEvenForManyCandidates) {
  Rng rng(9);
  GreedyPlanner planner;
  PlannerConfig config = TightConfig();
  config.geometry.max_rows = 3;
  config.geometry.width_px = 1920.0;
  CandidateSet set = SmallInstance(&rng, 50);
  auto result = planner.Plan(set, config);
  ASSERT_TRUE(result.ok());
  EXPECT_LT(result->optimize_millis, 1000.0);
  EXPECT_FALSE(result->timed_out);
}

// ---------------------------------------------------------------------
// ILP planner: exactness against brute force.
// ---------------------------------------------------------------------

class IlpVsBruteForceTest : public ::testing::TestWithParam<int> {};

TEST_P(IlpVsBruteForceTest, IlpMatchesBruteForceOptimum) {
  Rng rng(1000 + GetParam());
  const CandidateSet set = SmallInstance(&rng, 3 + rng.UniformInt(3));
  PlannerConfig config = TightConfig();
  config.geometry.width_px = 360.0;  // 9 units: forces real trade-offs.

  BruteForcePlanner brute_force;
  auto exact = brute_force.Plan(set, config);
  ASSERT_TRUE(exact.ok());

  IlpPlanner ilp;
  auto ilp_result = ilp.Plan(set, config);
  ASSERT_TRUE(ilp_result.ok());
  EXPECT_FALSE(ilp_result->timed_out);
  EXPECT_TRUE(ilp_result->multiplot.Validate(config.geometry).ok());
  EXPECT_NEAR(ilp_result->expected_cost, exact->expected_cost, 1e-4)
      << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, IlpVsBruteForceTest,
                         ::testing::Range(0, 12));

class GreedyQualityTest : public ::testing::TestWithParam<int> {};

TEST_P(GreedyQualityTest, GreedyWithinApproximationBound) {
  Rng rng(2000 + GetParam());
  const CandidateSet set = SmallInstance(&rng, 3 + rng.UniformInt(3));
  PlannerConfig config = TightConfig();
  config.geometry.width_px = 360.0;

  BruteForcePlanner brute_force;
  auto exact = brute_force.Plan(set, config);
  ASSERT_TRUE(exact.ok());
  GreedyPlanner greedy;
  auto greedy_result = greedy.Plan(set, config);
  ASSERT_TRUE(greedy_result.ok());

  const double empty = config.cost_model.EmptyCost();
  const double optimal_savings = empty - exact->expected_cost;
  const double greedy_savings = empty - greedy_result->expected_cost;
  EXPECT_GE(greedy_savings, 0.0);
  if (optimal_savings > 1e-9) {
    // Theorem 4 bound for one row: O(1/(1+2r)) with r = 1 -> 1/3 of the
    // optimum (we check the bound honestly, without epsilon slack).
    EXPECT_GE(greedy_savings, optimal_savings / 3.0 - 1e-6)
        << "seed " << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GreedyQualityTest,
                         ::testing::Range(0, 12));

// ---------------------------------------------------------------------
// ILP timeout and incremental behaviour.
// ---------------------------------------------------------------------

TEST(IlpPlannerTest, TimeoutStillYieldsValidPlan) {
  Rng rng(55);
  const CandidateSet set = SmallInstance(&rng, 14);
  PlannerConfig config = TightConfig();
  config.geometry.max_rows = 2;
  config.timeout_ms = 5.0;  // Far too little for proof of optimality.
  IlpPlanner planner;
  auto result = planner.Plan(set, config);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->multiplot.Validate(config.geometry).ok());
  EXPECT_LE(result->expected_cost, config.cost_model.EmptyCost() + 1e-9);
}

TEST(IlpPlannerTest, IncrementalSnapshotsImprove) {
  if (muve::testing::kSanitizerBuild) {
    GTEST_SKIP() << "wall-clock solver budget is meaningless under the "
                    "~10x sanitizer slowdown";
  }
  Rng rng(56);
  const CandidateSet set = SmallInstance(&rng, 8);
  PlannerConfig config = TightConfig();
  config.timeout_ms = 10000.0;
  IlpPlanner planner;
  auto snapshots = planner.PlanIncremental(set, config, 4.0, 2.0);
  ASSERT_TRUE(snapshots.ok());
  ASSERT_FALSE(snapshots->empty());
  // Expected cost of emitted plans never regresses.
  for (size_t i = 1; i < snapshots->size(); ++i) {
    EXPECT_LE((*snapshots)[i].plan.expected_cost,
              (*snapshots)[i - 1].plan.expected_cost + 1e-9);
  }
  // The last snapshot is proven optimal (ample total budget).
  EXPECT_FALSE(snapshots->back().plan.timed_out);
}

TEST(IlpPlannerTest, EmptyCandidates) {
  IlpPlanner planner;
  auto result = planner.Plan(CandidateSet(), TightConfig());
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->multiplot.empty());
}

// ---------------------------------------------------------------------
// Processing-cost extension (paper §8.1).
// ---------------------------------------------------------------------

TEST(IlpPlannerTest, ZeroProcessingBudgetShowsNothing) {
  Rng rng(57);
  const CandidateSet set = SmallInstance(&rng, 5);
  PlannerConfig config = TightConfig();
  config.processing.mode = ProcessingCostMode::kConstraint;
  config.processing.cost_bound = 0.0;
  for (size_t i = 0; i < set.size(); ++i) {
    ProcessingGroup group;
    group.member_candidates = {i};
    group.cost = 10.0;  // Any selection would exceed the zero budget.
    config.processing.groups.push_back(group);
  }
  IlpPlanner planner;
  auto result = planner.Plan(set, config);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->multiplot.empty());
  EXPECT_NEAR(result->expected_cost, config.cost_model.EmptyCost(), 1e-6);
}

TEST(IlpPlannerTest, LooseningProcessingBoundReducesDisambiguationCost) {
  Rng rng(58);
  const CandidateSet set = SmallInstance(&rng, 6);
  PlannerConfig base = TightConfig();
  base.processing.mode = ProcessingCostMode::kConstraint;
  for (size_t i = 0; i < set.size(); ++i) {
    ProcessingGroup group;
    group.member_candidates = {i};
    group.cost = 10.0;
    base.processing.groups.push_back(group);
  }
  IlpPlanner planner;
  PlannerConfig tight = base;
  tight.processing.cost_bound = 10.0;  // At most one candidate.
  PlannerConfig loose = base;
  loose.processing.cost_bound = 60.0;  // All candidates.
  auto tight_result = planner.Plan(set, tight);
  auto loose_result = planner.Plan(set, loose);
  ASSERT_TRUE(tight_result.ok());
  ASSERT_TRUE(loose_result.ok());
  EXPECT_LE(loose_result->expected_cost,
            tight_result->expected_cost + 1e-6);
  EXPECT_LE(tight_result->processing_cost, 10.0 + 1e-9);
}

TEST(IlpPlannerTest, ProcessingCostInObjectiveTradesOff) {
  Rng rng(59);
  const CandidateSet set = SmallInstance(&rng, 6);
  PlannerConfig config = TightConfig();
  config.processing.mode = ProcessingCostMode::kObjective;
  config.processing.objective_weight = 1.0;
  for (size_t i = 0; i < set.size(); ++i) {
    ProcessingGroup group;
    group.member_candidates = {i};
    group.cost = 1.0;  // Cheap: should not change the plan much.
    config.processing.groups.push_back(group);
  }
  IlpPlanner planner;
  auto result = planner.Plan(set, config);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->multiplot.empty());
  EXPECT_GT(result->processing_cost, 0.0);
}

// ---------------------------------------------------------------------
// Formulation size (Theorems 6 and 7: polynomial growth).
// ---------------------------------------------------------------------

TEST(IlpFormulationTest, SizeGrowsLinearlyInRows) {
  Rng rng(60);
  const CandidateSet set = SmallInstance(&rng, 8);
  PlannerConfig one_row = TightConfig();
  PlannerConfig three_rows = TightConfig();
  three_rows.geometry.max_rows = 3;
  auto f1 = BuildFormulation(set, one_row);
  auto f3 = BuildFormulation(set, three_rows);
  ASSERT_TRUE(f1.ok());
  ASSERT_TRUE(f3.ok());
  EXPECT_GT(f3->model.num_variables(), f1->model.num_variables());
  // Row-indexed variables triple; per-query variables stay: growth is at
  // most a factor of 3.
  EXPECT_LE(f3->model.num_variables(), 3 * f1->model.num_variables());
  EXPECT_LE(f3->model.num_constraints(),
            3 * f1->model.num_constraints() + set.size() * 10);
}

TEST(IlpFormulationTest, SizePolynomialInQueries) {
  Rng rng(61);
  const CandidateSet small = SmallInstance(&rng, 4);
  const CandidateSet large = SmallInstance(&rng, 16);
  const PlannerConfig config = TightConfig();
  auto f_small = BuildFormulation(small, config);
  auto f_large = BuildFormulation(large, config);
  ASSERT_TRUE(f_small.ok());
  ASSERT_TRUE(f_large.ok());
  EXPECT_GT(f_large->model.num_variables(),
            f_small->model.num_variables());
  // Theorem 6 bound: O(n_p n_q n_r + n_q (n_q + n_p)). With n_q scaling
  // by 4 and n_p roughly by 4, quadratic-ish growth is allowed; cubic in
  // n_q alone is not.
  EXPECT_LE(f_large->model.num_variables(),
            64 * f_small->model.num_variables());
}

// ---------------------------------------------------------------------
// NP-hardness reduction (Theorem 5): multiplot selection solves
// knapsack exactly when c_B = c_P = 0 and D_M = 1.
// ---------------------------------------------------------------------

TEST(ReductionTest, MultiplotSelectionSolvesKnapsack) {
  Rng rng(62);
  // Items: one query per distinct predicate column => disjoint
  // templates, each plot holds exactly one result.
  const size_t num_items = 6;
  CandidateSet set;
  for (size_t i = 0; i < num_items; ++i) {
    // Column-name length varies the plot width (the item weight).
    std::string column(2 + rng.UniformInt(8), 'a' + static_cast<char>(i));
    set.Add(MakeQuery(db::AggregateFunction::kCount, "",
                      {{column, std::string("v").append(std::to_string(i))}}),
            rng.UniformDouble(0.1, 1.0));
  }
  set.Normalize();

  PlannerConfig config;
  config.geometry.max_rows = 1;
  config.geometry.width_px = 520.0;
  config.cost_model.bar_cost_ms = 0.0;
  config.cost_model.plot_cost_ms = 0.0;
  config.cost_model.miss_cost_ms = 1.0;
  config.timeout_ms = 60000.0;

  // Effective weight of item i: the cheapest template it instantiates.
  const TemplateGroups groups = GroupByTemplate(set);
  std::vector<int> weight(num_items, INT32_MAX);
  for (size_t g = 0; g < groups.size(); ++g) {
    const int width =
        config.geometry.PlotBaseUnits(groups.Template(g)) + 1;
    for (size_t idx : groups.members(g)) {
      weight[idx] = std::min(weight[idx], width);
    }
  }
  const int capacity = config.geometry.WidthUnits();

  // Exhaustive knapsack optimum over the 2^6 subsets.
  double best_mass = 0.0;
  for (uint32_t mask = 0; mask < (1u << num_items); ++mask) {
    int total_weight = 0;
    double mass = 0.0;
    for (size_t i = 0; i < num_items; ++i) {
      if (mask & (1u << i)) {
        total_weight += weight[i];
        mass += set[i].probability;
      }
    }
    if (total_weight <= capacity) best_mass = std::max(best_mass, mass);
  }

  IlpPlanner planner;
  auto result = planner.Plan(set, config);
  ASSERT_TRUE(result.ok());
  ASSERT_FALSE(result->timed_out);
  // Expected cost = 1 - displayed mass; optimal <=> mass maximal.
  EXPECT_NEAR(result->expected_cost, 1.0 - best_mass, 1e-6);
}

// ---------------------------------------------------------------------
// Theory: Theorem 2 (prefix colorings), Lemma 1 (monotone savings),
// Theorem 3 (submodularity).
// ---------------------------------------------------------------------

Plot MakeAbstractPlot(const std::string& key,
                      const std::vector<size_t>& members,
                      const std::vector<char>& highlighted) {
  Plot plot;
  plot.query_template.key = key;
  plot.query_template.title = key;
  for (size_t i = 0; i < members.size(); ++i) {
    PlotBar bar;
    bar.candidate_index = members[i];
    bar.label = StrCat({"m", std::to_string(members[i])});
    bar.highlighted = highlighted[i];
    plot.bars.push_back(bar);
  }
  return plot;
}

CandidateSet RandomProbabilities(Rng* rng, size_t n) {
  CandidateSet set;
  for (size_t i = 0; i < n; ++i) {
    set.Add(MakeQuery(db::AggregateFunction::kCount, "",
                      {{"c", std::string("v").append(std::to_string(i))}}),
            rng->UniformDouble(0.01, 1.0));
  }
  set.Normalize();
  return set;
}

TEST(TheoryTest, Theorem2PrefixColoringNeverWorse) {
  // Swapping highlighting from a lower-probability bar to a
  // higher-probability bar in the same plot cannot increase cost.
  Rng rng(70);
  UserCostModel model;
  for (int trial = 0; trial < 200; ++trial) {
    const size_t n = 3 + rng.UniformInt(5);
    CandidateSet set = RandomProbabilities(&rng, n);
    // Random highlighting.
    std::vector<size_t> members(n);
    std::vector<char> highlight(n, 0);
    for (size_t i = 0; i < n; ++i) members[i] = i;
    const size_t num_red = rng.UniformInt(n + 1);
    for (size_t i = 0; i < num_red; ++i) highlight[i] = true;
    rng.Shuffle(&highlight);

    Multiplot random_coloring;
    random_coloring.rows.push_back(
        {MakeAbstractPlot("p", members, highlight)});

    // Prefix coloring with the same count: highlight the num_red most
    // likely members (candidates are built in arbitrary order; sort).
    std::vector<size_t> order(n);
    for (size_t i = 0; i < n; ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      return set[a].probability > set[b].probability;
    });
    
    size_t red_count = 0;
    for (bool h : highlight) red_count += h ? 1 : 0;
    std::vector<char> prefix_by_member(n, 0);
    for (size_t i = 0; i < red_count; ++i) prefix_by_member[order[i]] = true;
    Multiplot prefix_coloring;
    prefix_coloring.rows.push_back(
        {MakeAbstractPlot("p", members, prefix_by_member)});

    EXPECT_LE(model.ExpectedCost(prefix_coloring, set),
              model.ExpectedCost(random_coloring, set) + 1e-9)
        << "trial " << trial;
  }
}

TEST(TheoryTest, Lemma1FirstPlotNeverHurts) {
  // The base case of Lemma 1 that follows rigorously from Assumption 1
  // (D_R, D_V < D_M): adding any plot to the EMPTY multiplot cannot
  // decrease cost savings, since the change is
  // delta_r_R (D_M - D_R) + delta_r_V (D_M - D_V) >= 0.
  Rng rng(71);
  UserCostModel model;
  model.miss_cost_ms = 100000.0;  // Assumption 1 for every configuration.
  for (int trial = 0; trial < 300; ++trial) {
    const size_t n = 3 + rng.UniformInt(6);
    CandidateSet set = RandomProbabilities(&rng, n);
    std::vector<size_t> members(n);
    for (size_t i = 0; i < n; ++i) members[i] = i;
    std::vector<char> highlight(n, 0);
    for (size_t i = 0; i < n; ++i) highlight[i] = rng.Bernoulli(0.4);
    Multiplot multiplot;
    multiplot.rows.push_back({MakeAbstractPlot("p", members, highlight)});
    EXPECT_GE(model.CostSavings(multiplot, set), -1e-9)
        << "trial " << trial;
  }
}

TEST(TheoryTest, Lemma1DoesNotHoldForNegligibleMassPlots) {
  // REPRODUCTION NOTE (documented in EXPERIMENTS.md): Lemma 1 as stated
  // in the paper ("cost savings are non-decreasing in the set of plots")
  // conflicts with the Delta-C expression in the paper's own Theorem 3
  // proof: a plot whose bars carry negligible probability still adds
  // reading cost for everyone (-r_R * Delta D_R - r_V * Delta D_V), so
  // savings can strictly decrease. The greedy solver is unaffected: it
  // only ever adds plots with positive marginal gain.
  UserCostModel model;
  model.miss_cost_ms = 100000.0;
  CandidateSet set;
  set.Add(MakeQuery(db::AggregateFunction::kCount, "", {{"c", "hi"}}),
          0.99);
  set.Add(MakeQuery(db::AggregateFunction::kCount, "", {{"c", "lo"}}),
          0.000001);
  Multiplot with_one;
  with_one.rows.push_back(
      {MakeAbstractPlot("a", {0}, std::vector<char>{1})});
  // The added plot highlights its negligible-mass bar: the extra red bar
  // and red plot raise D_R, which the dominant highlighted candidate
  // pays on every read.
  Multiplot with_two = with_one;
  with_two.rows[0].push_back(
      MakeAbstractPlot("b", {1}, std::vector<char>{1}));
  EXPECT_LT(model.CostSavings(with_two, set),
            model.CostSavings(with_one, set));
}

TEST(TheoryTest, Theorem3SubmodularSavings) {
  // For disjoint plots: savings(S1 + p) - savings(S1) >=
  // savings(S2 + p) - savings(S2) whenever S1 is a subset of S2.
  Rng rng(72);
  UserCostModel model;
  model.miss_cost_ms = 100000.0;  // Keep Assumption 1 satisfied.
  for (int trial = 0; trial < 200; ++trial) {
    const size_t n = 9;
    CandidateSet set = RandomProbabilities(&rng, n);
    std::vector<size_t> perm = rng.Permutation(n);
    // Three disjoint plots: a, b (context), p (the added plot).
    auto make = [&](size_t begin, size_t count, const std::string& key) {
      std::vector<size_t> members(perm.begin() + begin,
                                  perm.begin() + begin + count);
      std::vector<char> highlight(count, 0);
      for (size_t i = 0; i < count; ++i) {
        highlight[i] = rng.Bernoulli(0.4);
      }
      return MakeAbstractPlot(key, members, highlight);
    };
    const Plot plot_a = make(0, 3, "a");
    const Plot plot_b = make(3, 3, "b");
    const Plot plot_p = make(6, 3, "p");

    Multiplot s1;
    s1.rows.push_back({plot_a});
    Multiplot s1_plus;
    s1_plus.rows.push_back({plot_a, plot_p});
    Multiplot s2;
    s2.rows.push_back({plot_a, plot_b});
    Multiplot s2_plus;
    s2_plus.rows.push_back({plot_a, plot_b, plot_p});

    const double delta_small =
        model.CostSavings(s1_plus, set) - model.CostSavings(s1, set);
    const double delta_large =
        model.CostSavings(s2_plus, set) - model.CostSavings(s2, set);
    EXPECT_GE(delta_small, delta_large - 1e-9) << "trial " << trial;
  }
}

// ---------------------------------------------------------------------
// Brute-force planner sanity.
// ---------------------------------------------------------------------

TEST(BruteForcePlannerTest, RefusesHugeInstances) {
  Rng rng(73);
  CandidateSet set;
  for (int i = 0; i < 20; ++i) {
    set.Add(MakeQuery(db::AggregateFunction::kCount, "",
                      {{"c", std::string("v").append(std::to_string(i))}}),
            0.05);
  }
  BruteForcePlanner planner;
  EXPECT_FALSE(planner.Plan(set, TightConfig()).ok());
}

TEST(BruteForcePlannerTest, SingleCandidateShown) {
  CandidateSet set;
  set.Add(MakeQuery(db::AggregateFunction::kCount, "", {{"c", "v"}}), 1.0);
  BruteForcePlanner planner;
  auto result = planner.Plan(set, TightConfig());
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->multiplot.FindCandidate(0).has_value());
  // Optimal: show and highlight the single candidate; expected cost is
  // D_R = c_B/2 + c_P/2.
  EXPECT_NEAR(result->expected_cost, 500.0 / 2 + 2000.0 / 2, 1e-6);
}

}  // namespace
}  // namespace muve::core

namespace muve::core {
namespace {

// ---------------------------------------------------------------------
// Warm starts (MIP starts, used by the presentation pipeline).
// ---------------------------------------------------------------------

TEST(WarmStartTest, GreedySolutionEncodesFeasibly) {
  Rng rng(81);
  for (int trial = 0; trial < 10; ++trial) {
    const CandidateSet set = SmallInstance(&rng, 4 + rng.UniformInt(6));
    const PlannerConfig config = TightConfig();
    GreedyPlanner greedy;
    auto greedy_plan = greedy.Plan(set, config);
    ASSERT_TRUE(greedy_plan.ok());
    auto formulation = BuildFormulation(set, config);
    ASSERT_TRUE(formulation.ok());
    const std::vector<double> encoded =
        EncodeWarmStart(*formulation, greedy_plan->multiplot);
    ASSERT_FALSE(encoded.empty()) << "trial " << trial;
    EXPECT_TRUE(formulation->model.IsFeasible(encoded))
        << "trial " << trial;
    // The encoded objective equals the evaluator's cost of the plan.
    EXPECT_NEAR(formulation->model.EvaluateObjective(encoded),
                greedy_plan->expected_cost, 1e-6)
        << "trial " << trial;
  }
}

TEST(WarmStartTest, HintedIlpNeverWorseThanHint) {
  Rng rng(82);
  const CandidateSet set = SmallInstance(&rng, 10);
  PlannerConfig config = TightConfig();
  config.timeout_ms = 30.0;  // Will time out; the hint must survive.
  GreedyPlanner greedy;
  auto greedy_plan = greedy.Plan(set, config);
  ASSERT_TRUE(greedy_plan.ok());
  IlpPlanner ilp;
  auto hinted =
      ilp.PlanWithHint(set, config, &greedy_plan->multiplot);
  ASSERT_TRUE(hinted.ok());
  EXPECT_LE(hinted->expected_cost, greedy_plan->expected_cost + 1e-6);
  EXPECT_TRUE(hinted->multiplot.Validate(config.geometry).ok());
}

TEST(WarmStartTest, EmptyMultiplotEncodesToZero) {
  Rng rng(83);
  const CandidateSet set = SmallInstance(&rng, 4);
  auto formulation = BuildFormulation(set, TightConfig());
  ASSERT_TRUE(formulation.ok());
  Multiplot empty;
  empty.rows.resize(1);
  const std::vector<double> encoded =
      EncodeWarmStart(*formulation, empty);
  ASSERT_EQ(encoded.size(), formulation->model.num_variables());
  for (double v : encoded) EXPECT_EQ(v, 0.0);
  EXPECT_TRUE(formulation->model.IsFeasible(encoded));
}

TEST(WarmStartTest, UnknownTemplateRejected) {
  Rng rng(84);
  const CandidateSet set = SmallInstance(&rng, 4);
  auto formulation = BuildFormulation(set, TightConfig());
  ASSERT_TRUE(formulation.ok());
  Multiplot bogus;
  bogus.rows.resize(1);
  Plot plot;
  plot.query_template.key = "no-such-template";
  plot.bars.push_back({0, "x", false, 0.0, false});
  bogus.rows[0].push_back(plot);
  EXPECT_TRUE(EncodeWarmStart(*formulation, bogus).empty());
}

}  // namespace
}  // namespace muve::core

namespace muve::core {
namespace {

// ---------------------------------------------------------------------
// Greedy ablation options.
// ---------------------------------------------------------------------

class GreedyVariantTest
    : public ::testing::TestWithParam<GreedyPlanner::Options> {};

TEST_P(GreedyVariantTest, EveryVariantYieldsValidPlans) {
  Rng rng(90);
  const GreedyPlanner planner(GetParam());
  PlannerConfig config = TightConfig();
  config.geometry.max_rows = 2;
  config.geometry.width_px = 900.0;
  for (int trial = 0; trial < 15; ++trial) {
    const CandidateSet set = SmallInstance(&rng, 4 + rng.UniformInt(8));
    auto plan = planner.Plan(set, config);
    ASSERT_TRUE(plan.ok());
    // Polish is precisely the stage removing duplicate results, so the
    // strict no-duplicates validation only applies when it runs; the
    // dimension constraints must hold for every variant.
    if (GetParam().enable_polish) {
      EXPECT_TRUE(plan->multiplot.Validate(config.geometry).ok());
    } else {
      EXPECT_LE(plan->multiplot.rows.size(),
                static_cast<size_t>(config.geometry.max_rows));
      for (const auto& row : plan->multiplot.rows) {
        int width = 0;
        for (const Plot& plot : row) {
          width += config.geometry.PlotWidthUnits(plot.query_template,
                                                  plot.bars.size());
        }
        EXPECT_LE(width, config.geometry.WidthUnits());
      }
    }
    EXPECT_LE(plan->expected_cost, config.cost_model.EmptyCost() + 1e-9);
    EXPECT_NEAR(plan->expected_cost,
                config.cost_model.ExpectedCost(plan->multiplot, set),
                1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Variants, GreedyVariantTest,
    ::testing::Values(
        GreedyPlanner::Options{},
        GreedyPlanner::Options{
            .rule = GreedyPlanner::SelectionRule::kGainPerWidth},
        GreedyPlanner::Options{.rule = GreedyPlanner::SelectionRule::kGain},
        GreedyPlanner::Options{.enable_polish = false},
        GreedyPlanner::Options{.enable_singleton_comparison = false},
        GreedyPlanner::Options{.enable_coloring = false},
        GreedyPlanner::Options{
            .rule = GreedyPlanner::SelectionRule::kGainPerWidth,
            .enable_polish = false,
            .enable_singleton_comparison = false,
            .enable_coloring = false}));

TEST(GreedyVariantTest, FullAlgorithmNeverWorseThanBareMinimum) {
  Rng rng(91);
  const GreedyPlanner full;
  const GreedyPlanner bare(GreedyPlanner::Options{
      .rule = GreedyPlanner::SelectionRule::kGainPerWidth,
      .enable_polish = false,
      .enable_singleton_comparison = false,
      .enable_coloring = false});
  const PlannerConfig config = TightConfig();
  double full_total = 0.0;
  double bare_total = 0.0;
  for (int trial = 0; trial < 25; ++trial) {
    const CandidateSet set = SmallInstance(&rng, 5 + rng.UniformInt(8));
    full_total += full.Plan(set, config)->expected_cost;
    bare_total += bare.Plan(set, config)->expected_cost;
  }
  EXPECT_LE(full_total, bare_total + 1e-6);
}

}  // namespace
}  // namespace muve::core
