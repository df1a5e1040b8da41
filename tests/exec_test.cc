#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "common/rng.h"
#include "db/executor.h"
#include "exec/engine.h"
#include "exec/merger.h"
#include "exec/presentation.h"
#include "nlq/candidate_generator.h"
#include "nlq/schema_index.h"
#include "testing/random_workload.h"
#include "workload/datasets.h"
#include "workload/query_generator.h"

namespace muve::exec {
namespace {

db::AggregateQuery Query311(db::AggregateFunction fn,
                            const std::string& agg,
                            const std::string& column,
                            const std::string& value) {
  db::AggregateQuery query;
  query.table = "nyc311";
  query.function = fn;
  query.aggregate_column = agg;
  query.predicates = {db::Predicate::Equals(column, db::Value(value))};
  return query;
}

core::CandidateSet BoroughCandidates() {
  core::CandidateSet set;
  set.Add(Query311(db::AggregateFunction::kCount, "", "borough",
                   "brooklyn"),
          0.4);
  set.Add(Query311(db::AggregateFunction::kCount, "", "borough", "bronx"),
          0.3);
  set.Add(Query311(db::AggregateFunction::kCount, "", "borough", "queens"),
          0.2);
  set.Add(Query311(db::AggregateFunction::kAvg, "open_hours", "borough",
                   "brooklyn"),
          0.1);
  return set;
}

std::shared_ptr<db::Table> Table311(size_t rows = 20000) {
  Rng rng(4242);
  return workload::Make311Table(rows, &rng);
}

// ---------------------------------------------------------------------
// Merger.
// ---------------------------------------------------------------------

TEST(MergerTest, GroupsValueVariantsIntoOneUnit) {
  auto table = Table311(5000);
  db::CostEstimator estimator;
  const core::CandidateSet set = BoroughCandidates();
  std::vector<size_t> all = {0, 1, 2, 3};
  const std::vector<MergeUnit> units =
      PlanMergedExecution(set, all, *table, estimator, true);
  // All four candidates share predicates-minus-borough => one merged unit.
  ASSERT_EQ(units.size(), 1u);
  EXPECT_TRUE(units[0].merged);
  EXPECT_EQ(units[0].group_query.group_column, "borough");
  EXPECT_EQ(units[0].group_query.group_values.size(), 3u);
  EXPECT_EQ(units[0].group_query.aggregates.size(), 2u);
  EXPECT_EQ(units[0].Members().size(), 4u);
}

TEST(MergerTest, DisabledMergingYieldsSingles) {
  auto table = Table311(5000);
  db::CostEstimator estimator;
  const core::CandidateSet set = BoroughCandidates();
  const std::vector<MergeUnit> units =
      PlanMergedExecution(set, {0, 1, 2, 3}, *table, estimator, false);
  EXPECT_EQ(units.size(), 4u);
  for (const MergeUnit& unit : units) EXPECT_FALSE(unit.merged);
}

TEST(MergerTest, UnmergeableQueriesStaySingle) {
  auto table = Table311(5000);
  db::CostEstimator estimator;
  core::CandidateSet set;
  // No predicates: not mergeable.
  db::AggregateQuery query;
  query.table = "nyc311";
  query.function = db::AggregateFunction::kCount;
  set.Add(query, 1.0);
  const std::vector<MergeUnit> units =
      PlanMergedExecution(set, {0}, *table, estimator, true);
  ASSERT_EQ(units.size(), 1u);
  EXPECT_FALSE(units[0].merged);
}

TEST(MergerTest, MergedExecutionMatchesSeparate) {
  auto table = Table311(8000);
  Engine merged_engine(table, {.enable_merging = true});
  Engine separate_engine(table, {.enable_merging = false});
  const core::CandidateSet set = BoroughCandidates();
  std::vector<size_t> all = {0, 1, 2, 3};
  auto merged = merged_engine.Execute(set, all);
  auto separate = separate_engine.Execute(set, all);
  ASSERT_TRUE(merged.ok());
  ASSERT_TRUE(separate.ok());
  EXPECT_LT(merged->queries_issued, separate->queries_issued);
  for (size_t i = 0; i < set.size(); ++i) {
    EXPECT_DOUBLE_EQ(merged->values[i], separate->values[i])
        << "candidate " << i;
  }
}

TEST(MergerTest, RandomizedMergedEqualsSeparate) {
  Rng rng(31337);
  auto table = Table311(6000);
  Engine merged_engine(table, {.enable_merging = true});
  Engine separate_engine(table, {.enable_merging = false});
  auto index = std::make_shared<nlq::SchemaIndex>(table);
  nlq::CandidateGenerator generator(index);
  for (int trial = 0; trial < 5; ++trial) {
    auto base = workload::RandomQuery(*table, &rng);
    ASSERT_TRUE(base.ok());
    core::CandidateSet set = generator.Generate(*base);
    std::vector<size_t> all(set.size());
    for (size_t i = 0; i < all.size(); ++i) all[i] = i;
    auto merged = merged_engine.Execute(set, all);
    auto separate = separate_engine.Execute(set, all);
    ASSERT_TRUE(merged.ok());
    ASSERT_TRUE(separate.ok());
    for (size_t i = 0; i < set.size(); ++i) {
      if (std::isnan(merged->values[i])) {
        EXPECT_TRUE(std::isnan(separate->values[i]));
      } else {
        EXPECT_NEAR(merged->values[i], separate->values[i], 1e-9)
            << set[i].query.ToSql();
      }
    }
  }
}

TEST(MergerTest, MergingIsValuePreservingOnRandomCandidateSets) {
  // Property: for any candidate set, enable_merging is an execution
  // detail — values must be identical whether candidates run as merged
  // GROUP BY units or as separate scans. Uses the differential-harness
  // generator, whose sets mix mergeable families with unmergeable
  // stragglers and legally-zero-row predicates.
  for (int seed = 0; seed < 60; ++seed) {
    Rng rng(77000 + static_cast<uint64_t>(seed));
    testing::RandomTableOptions table_options;
    table_options.min_rows = 300;
    table_options.max_rows = 1500;
    auto table = testing::RandomTable(&rng, table_options);
    const core::CandidateSet set =
        testing::RandomCandidateSet(*table, &rng);
    if (set.empty()) continue;
    std::vector<size_t> all(set.size());
    for (size_t i = 0; i < all.size(); ++i) all[i] = i;

    Engine merged_engine(table, {.enable_merging = true});
    Engine separate_engine(table, {.enable_merging = false});
    auto merged = merged_engine.Execute(set, all);
    auto separate = separate_engine.Execute(set, all);
    ASSERT_TRUE(merged.ok()) << "seed " << seed;
    ASSERT_TRUE(separate.ok()) << "seed " << seed;
    EXPECT_LE(merged->queries_issued, separate->queries_issued);
    for (size_t i = 0; i < set.size(); ++i) {
      if (std::isnan(separate->values[i])) {
        EXPECT_TRUE(std::isnan(merged->values[i]))
            << "seed " << seed << " " << set[i].query.ToSql();
        continue;
      }
      const double scale = std::max(1.0, std::fabs(separate->values[i]));
      EXPECT_NEAR(merged->values[i], separate->values[i], 1e-9 * scale)
          << "seed " << seed << " " << set[i].query.ToSql();
    }
  }
}

TEST(MergerTest, EstimateUnitsCostLowerWhenMerged) {
  auto table = Table311(20000);
  db::CostEstimator estimator;
  const core::CandidateSet set = BoroughCandidates();
  std::vector<size_t> all = {0, 1, 2, 3};
  const double merged_cost = EstimateUnitsCost(
      PlanMergedExecution(set, all, *table, estimator, true), *table,
      estimator, set);
  const double separate_cost = EstimateUnitsCost(
      PlanMergedExecution(set, all, *table, estimator, false), *table,
      estimator, set);
  EXPECT_LT(merged_cost, separate_cost);
}

TEST(MergerTest, ProcessingGroupsCoverAllCandidates) {
  auto table = Table311(5000);
  db::CostEstimator estimator;
  const core::CandidateSet set = BoroughCandidates();
  const std::vector<core::ProcessingGroup> groups =
      BuildProcessingGroups(set, *table, estimator);
  std::vector<bool> covered(set.size(), false);
  for (const core::ProcessingGroup& group : groups) {
    EXPECT_GT(group.cost, 0.0);
    for (size_t idx : group.member_candidates) covered[idx] = true;
  }
  for (size_t i = 0; i < set.size(); ++i) {
    EXPECT_TRUE(covered[i]) << "candidate " << i << " uncovered";
  }
}

// ---------------------------------------------------------------------
// Engine.
// ---------------------------------------------------------------------

TEST(EngineTest, ExecuteFillsRequestedValuesOnly) {
  auto table = Table311(4000);
  Engine engine(table);
  const core::CandidateSet set = BoroughCandidates();
  auto execution = engine.Execute(set, {0, 2});
  ASSERT_TRUE(execution.ok());
  EXPECT_FALSE(std::isnan(execution->values[0]));
  EXPECT_TRUE(std::isnan(execution->values[1]));
  EXPECT_FALSE(std::isnan(execution->values[2]));
}

TEST(EngineTest, SampledExecutionApproximatesCounts) {
  auto table = Table311(50000);
  Engine engine(table);
  const core::CandidateSet set = BoroughCandidates();
  auto exact = engine.Execute(set, {0});
  auto sampled = engine.Execute(set, {0}, 0.1);
  ASSERT_TRUE(exact.ok());
  ASSERT_TRUE(sampled.ok());
  const double exact_count = exact->values[0];
  const double approx_count = sampled->values[0];
  EXPECT_GT(exact_count, 0.0);
  EXPECT_NEAR(approx_count / exact_count, 1.0, 0.15);
}

TEST(EngineTest, ModeledTimeIncludesPerQueryOverhead) {
  auto table = Table311(2000);
  Engine engine(table, {.enable_merging = false,
                        .per_query_overhead_ms = 50.0});
  const core::CandidateSet set = BoroughCandidates();
  auto execution = engine.Execute(set, {0, 1, 2, 3});
  ASSERT_TRUE(execution.ok());
  EXPECT_GE(execution->modeled_millis,
            execution->measured_millis + 4 * 50.0 - 1e-9);
}

TEST(EngineTest, EstimateMillisPositiveAndMonotone) {
  auto table = Table311(30000);
  Engine engine(table);
  const core::CandidateSet set = BoroughCandidates();
  const double one = engine.EstimateMillis(set, {0});
  const double all = engine.EstimateMillis(set, {0, 1, 2, 3});
  EXPECT_GT(one, 0.0);
  EXPECT_GE(all, one);
}

TEST(EngineTest, SampleTablesAreCached) {
  auto table = Table311(10000);
  Engine engine(table);
  auto a = engine.SampleRelation(0.05);
  auto b = engine.SampleRelation(0.05);
  EXPECT_EQ(a.get(), b.get());
  EXPECT_EQ(engine.SampleRelation(1.0).get(), table.get());
}

TEST(EngineTest, ExecuteMultiplotFillsBars) {
  auto table = Table311(3000);
  Engine engine(table);
  const core::CandidateSet set = BoroughCandidates();
  core::Multiplot multiplot;
  multiplot.rows.resize(1);
  core::Plot plot;
  plot.query_template.title = "COUNT(*) WHERE borough = ?";
  plot.bars.push_back({0, "brooklyn", true, std::nan(""), false});
  plot.bars.push_back({1, "bronx", false, std::nan(""), false});
  multiplot.rows[0].push_back(plot);
  auto execution = engine.ExecuteMultiplot(set, &multiplot);
  ASSERT_TRUE(execution.ok());
  for (const core::PlotBar& bar : multiplot.rows[0][0].bars) {
    EXPECT_FALSE(std::isnan(bar.value));
    EXPECT_FALSE(bar.approximate);
  }
}

// ---------------------------------------------------------------------
// Presentation methods (paper Fig. 5 / §9.4).
// ---------------------------------------------------------------------

class PresentationMethodTest
    : public ::testing::TestWithParam<PresentationMethod> {};

TEST_P(PresentationMethodTest, ProducesCoherentTimeline) {
  auto table = Table311(15000);
  Engine engine(table);
  const core::CandidateSet set = BoroughCandidates();
  PresentationOptions options;
  options.planner.geometry.width_px = 900.0;
  options.planner.timeout_ms = 2000.0;
  options.dynamic_threshold_ms = 500.0;
  auto outcome =
      RunPresentation(GetParam(), &engine, set, /*correct=*/1, options);
  ASSERT_TRUE(outcome.ok());
  ASSERT_FALSE(outcome->events.empty());
  // Events are chronologically ordered.
  for (size_t i = 1; i < outcome->events.size(); ++i) {
    EXPECT_GE(outcome->events[i].at_millis,
              outcome->events[i - 1].at_millis);
  }
  // F-Time <= T-Time whenever the correct result is shown.
  if (outcome->correct_shown) {
    EXPECT_LE(outcome->first_correct_ms, outcome->total_ms + 1e-9);
  }
  EXPECT_GT(outcome->total_ms, 0.0);
  // The final event must be exact (not approximate).
  EXPECT_FALSE(outcome->events.back().approximate);
}

INSTANTIATE_TEST_SUITE_P(
    AllMethods, PresentationMethodTest,
    ::testing::ValuesIn(AllPresentationMethods()),
    [](const ::testing::TestParamInfo<PresentationMethod>& info) {
      std::string name = PresentationMethodName(info.param);
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

TEST(PresentationTest, ApproximateMethodEmitsApproximateFirst) {
  auto table = Table311(30000);
  Engine engine(table);
  const core::CandidateSet set = BoroughCandidates();
  PresentationOptions options;
  auto outcome = RunPresentation(PresentationMethod::kApprox1, &engine,
                                 set, 0, options);
  ASSERT_TRUE(outcome.ok());
  ASSERT_GE(outcome->events.size(), 2u);
  EXPECT_TRUE(outcome->events.front().approximate);
  EXPECT_FALSE(outcome->events.back().approximate);
  EXPECT_GE(outcome->initial_relative_error, 0.0);
}

TEST(PresentationTest, IncrementalPlotEmitsOneEventPerPlot) {
  auto table = Table311(10000);
  Engine engine(table);
  core::CandidateSet set = BoroughCandidates();
  PresentationOptions options;
  options.planner.geometry.width_px = 1400.0;  // Room for several plots.
  auto outcome = RunPresentation(PresentationMethod::kIncrementalPlot,
                                 &engine, set, 0, options);
  ASSERT_TRUE(outcome.ok());
  const size_t final_plots =
      outcome->events.back().multiplot.NumPlots();
  EXPECT_EQ(outcome->events.size(), final_plots);
  // Plots accumulate monotonically.
  for (size_t i = 1; i < outcome->events.size(); ++i) {
    EXPECT_EQ(outcome->events[i].multiplot.NumPlots(),
              outcome->events[i - 1].multiplot.NumPlots() + 1);
  }
}

TEST(PresentationTest, MethodNames) {
  EXPECT_STREQ(PresentationMethodName(PresentationMethod::kGreedy),
               "Greedy");
  EXPECT_STREQ(PresentationMethodName(PresentationMethod::kApproxDynamic),
               "App-D");
  EXPECT_EQ(AllPresentationMethods().size(), 7u);
}

}  // namespace
}  // namespace muve::exec
