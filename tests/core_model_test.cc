#include <gtest/gtest.h>

#include <cmath>

#include "core/candidate.h"
#include "core/cost_model.h"
#include "core/multiplot.h"
#include "core/query_template.h"
#include "db/query.h"
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

// ---------------------------------------------------------------------
// CandidateSet.
// ---------------------------------------------------------------------

TEST(CandidateSetTest, NormalizeAndSort) {
  CandidateSet set;
  set.Add(MakeQuery(db::AggregateFunction::kCount, "", {{"a", "x"}}), 1.0);
  set.Add(MakeQuery(db::AggregateFunction::kCount, "", {{"a", "y"}}), 3.0);
  set.Normalize();
  EXPECT_NEAR(set.TotalProbability(), 1.0, 1e-12);
  set.SortByProbability();
  EXPECT_GT(set[0].probability, set[1].probability);
  EXPECT_NEAR(set[0].probability, 0.75, 1e-12);
}

TEST(CandidateSetTest, DeduplicateMergesMass) {
  CandidateSet set;
  const auto query =
      MakeQuery(db::AggregateFunction::kCount, "", {{"a", "x"}});
  set.Add(query, 0.4);
  set.Add(query, 0.2);
  set.Add(MakeQuery(db::AggregateFunction::kCount, "", {{"a", "y"}}), 0.4);
  testing::ReferenceDeduplicate(&set);
  EXPECT_EQ(set.size(), 2u);
  EXPECT_NEAR(set[0].probability, 0.6, 1e-12);
}

TEST(CandidateSetTest, NormalizeEmptyIsNoop) {
  CandidateSet set;
  set.Normalize();
  EXPECT_TRUE(set.empty());
}

// ---------------------------------------------------------------------
// Templates (function T(q), Algorithm 2).
// ---------------------------------------------------------------------

CandidateSet SetOf(const std::vector<db::AggregateQuery>& queries) {
  CandidateSet set;
  for (const db::AggregateQuery& query : queries) set.Add(query, 0.5);
  return set;
}

TEST(TemplateTest, DeriveCountStarTemplates) {
  // COUNT(*) with 2 predicates: 1 function slot + 2 value + 2 column
  // slots = 5 (no aggregate-column slot).
  const CandidateSet set =
      SetOf({MakeQuery(db::AggregateFunction::kCount, "",
                       {{"city", "boston"}, {"kind", "bus"}})});
  EXPECT_EQ(GroupByTemplate(set).size(), 5u);
}

TEST(TemplateTest, DeriveAggColumnTemplates) {
  // AVG(delay) with 1 predicate: function + agg column + value + column
  // slots = 4.
  const CandidateSet set = SetOf({MakeQuery(
      db::AggregateFunction::kAvg, "delay", {{"city", "boston"}})});
  const TemplateGroups groups = GroupByTemplate(set);
  EXPECT_EQ(groups.size(), 4u);

  bool has_value_slot = false;
  for (size_t g = 0; g < groups.size(); ++g) {
    if (groups.slot(g) == SlotKind::kPredicateValue) {
      has_value_slot = true;
      EXPECT_EQ(groups.label(g, 0), "boston");
      const QueryTemplate query_template = groups.Template(g);
      EXPECT_EQ(query_template.title, "AVG(delay) WHERE city = ?");
      EXPECT_EQ(query_template.title.size(), groups.title_size(g));
    }
  }
  EXPECT_TRUE(has_value_slot);
}

TEST(TemplateTest, QueriesDifferingInValueShareValueTemplate) {
  const CandidateSet set = SetOf(
      {MakeQuery(db::AggregateFunction::kCount, "", {{"city", "boston"}}),
       MakeQuery(db::AggregateFunction::kCount, "", {{"city", "austin"}})});
  const TemplateGroups groups = GroupByTemplate(set);
  size_t shared = 0;
  for (size_t g = 0; g < groups.size(); ++g) {
    if (groups.slot(g) != SlotKind::kPredicateValue) continue;
    ++shared;
    EXPECT_EQ(groups.members(g).size(), 2u);
    EXPECT_EQ(groups.key(g), "t|COUNT(*)|city = ?");
  }
  EXPECT_EQ(shared, 1u);
}

TEST(TemplateTest, TemplateKeyIsPredicateOrderInsensitive) {
  const auto a = MakeQuery(db::AggregateFunction::kCount, "",
                           {{"city", "boston"}, {"kind", "bus"}});
  auto b = a;
  std::swap(b.predicates[0], b.predicates[1]);
  // Both queries instantiate the same five templates.
  const TemplateGroups groups = GroupByTemplate(SetOf({a, b}));
  ASSERT_EQ(groups.size(), 5u);
  for (size_t g = 0; g < groups.size(); ++g) {
    EXPECT_EQ(groups.members(g).size(), 2u) << groups.key(g);
  }
}

TEST(TemplateTest, GroupByTemplateGroupsAndSorts) {
  CandidateSet set;
  set.Add(MakeQuery(db::AggregateFunction::kCount, "", {{"city", "boston"}}),
          0.6);
  set.Add(MakeQuery(db::AggregateFunction::kCount, "", {{"city", "austin"}}),
          0.3);
  set.Add(MakeQuery(db::AggregateFunction::kCount, "", {{"kind", "bus"}}),
          0.1);
  const TemplateGroups groups = GroupByTemplate(set);
  ASSERT_FALSE(groups.empty());
  // The largest-mass group holds the two city queries (value slot).
  EXPECT_EQ(groups.members(0).size(), 2u);
  // Members sorted by probability: boston (0.6) first.
  EXPECT_EQ(groups.members(0)[0], 0u);
  EXPECT_EQ(groups.label(0, 0), "boston");
}

TEST(TemplateTest, SameQueryNotDuplicatedInGroup) {
  CandidateSet set;
  const auto query =
      MakeQuery(db::AggregateFunction::kCount, "", {{"city", "boston"}});
  set.Add(query, 0.5);
  const TemplateGroups groups = GroupByTemplate(set);
  for (size_t g = 0; g < groups.size(); ++g) {
    EXPECT_EQ(groups.members(g).size(), 1u);
  }
}

// ---------------------------------------------------------------------
// Multiplot stats / validation.
// ---------------------------------------------------------------------

Multiplot TwoPlotMultiplot() {
  Multiplot multiplot;
  multiplot.rows.resize(1);
  Plot plot_a;
  plot_a.query_template.key = "a";
  plot_a.query_template.title = "A";
  plot_a.bars = {{0, "x", true, 1.0, false}, {1, "y", false, 2.0, false}};
  Plot plot_b;
  plot_b.query_template.key = "b";
  plot_b.query_template.title = "B";
  plot_b.bars = {{2, "z", false, 3.0, false}};
  multiplot.rows[0] = {plot_a, plot_b};
  return multiplot;
}

CandidateSet ThreeCandidates() {
  CandidateSet set;
  set.Add(MakeQuery(db::AggregateFunction::kCount, "", {{"a", "x"}}), 0.5);
  set.Add(MakeQuery(db::AggregateFunction::kCount, "", {{"a", "y"}}), 0.3);
  set.Add(MakeQuery(db::AggregateFunction::kCount, "", {{"a", "z"}}), 0.1);
  return set;
}

TEST(MultiplotTest, ComputeStats) {
  const Multiplot multiplot = TwoPlotMultiplot();
  const MultiplotStats stats = multiplot.ComputeStats(ThreeCandidates());
  EXPECT_EQ(stats.num_bars, 3u);
  EXPECT_EQ(stats.num_red_bars, 1u);
  EXPECT_EQ(stats.num_plots, 2u);
  EXPECT_EQ(stats.num_plots_with_red, 1u);
  EXPECT_NEAR(stats.prob_highlighted, 0.5, 1e-12);
  EXPECT_NEAR(stats.prob_visualized, 0.4, 1e-12);
  EXPECT_NEAR(stats.prob_missing, 0.1, 1e-12);
}

TEST(MultiplotTest, FindCandidate) {
  const Multiplot multiplot = TwoPlotMultiplot();
  auto location = multiplot.FindCandidate(2);
  ASSERT_TRUE(location.has_value());
  EXPECT_EQ(location->plot, 1u);
  EXPECT_FALSE(multiplot.FindCandidate(99).has_value());
}

TEST(MultiplotTest, ValidateAcceptsFitting) {
  const Multiplot multiplot = TwoPlotMultiplot();
  ScreenGeometry geometry;
  geometry.max_rows = 1;
  geometry.width_px = 2000.0;
  EXPECT_TRUE(multiplot.Validate(geometry).ok());
}

TEST(MultiplotTest, ValidateRejectsTooManyRows) {
  Multiplot multiplot = TwoPlotMultiplot();
  multiplot.rows.emplace_back();
  ScreenGeometry geometry;
  geometry.max_rows = 1;
  EXPECT_FALSE(multiplot.Validate(geometry).ok());
}

TEST(MultiplotTest, ValidateRejectsOverflowingRow) {
  const Multiplot multiplot = TwoPlotMultiplot();
  ScreenGeometry geometry;
  geometry.max_rows = 1;
  geometry.width_px = 80.0;  // Two units: cannot fit both plots.
  EXPECT_FALSE(multiplot.Validate(geometry).ok());
}

TEST(MultiplotTest, ValidateRejectsDuplicateCandidate) {
  Multiplot multiplot = TwoPlotMultiplot();
  multiplot.rows[0][1].bars.push_back({0, "dup", false, 1.0, false});
  ScreenGeometry geometry;
  geometry.max_rows = 1;
  geometry.width_px = 2000.0;
  EXPECT_FALSE(multiplot.Validate(geometry).ok());
}

TEST(MultiplotTest, ValidateRejectsEmptyPlot) {
  Multiplot multiplot = TwoPlotMultiplot();
  multiplot.rows[0][0].bars.clear();
  ScreenGeometry geometry;
  geometry.max_rows = 1;
  geometry.width_px = 2000.0;
  EXPECT_FALSE(multiplot.Validate(geometry).ok());
}

TEST(ScreenGeometryTest, WidthUnits) {
  ScreenGeometry geometry;
  geometry.width_px = 750.0;
  geometry.bar_width_px = 40.0;
  EXPECT_EQ(geometry.WidthUnits(), 18);
}

TEST(ScreenGeometryTest, PlotWidthGrowsWithBarsAndTitle) {
  ScreenGeometry geometry;
  QueryTemplate short_title;
  short_title.title = "A";
  QueryTemplate long_title;
  long_title.title = "A very long template title here";
  EXPECT_LT(geometry.PlotBaseUnits(short_title),
            geometry.PlotBaseUnits(long_title));
  EXPECT_EQ(geometry.PlotWidthUnits(short_title, 5),
            geometry.PlotBaseUnits(short_title) + 5);
}

// ---------------------------------------------------------------------
// Cost model (paper §4.2).
// ---------------------------------------------------------------------

TEST(CostModelTest, FormulaMatchesDefinition) {
  UserCostModel model;
  model.bar_cost_ms = 100.0;
  model.plot_cost_ms = 400.0;
  model.miss_cost_ms = 10000.0;
  MultiplotStats stats;
  stats.num_bars = 6;
  stats.num_red_bars = 2;
  stats.num_plots = 3;
  stats.num_plots_with_red = 1;
  stats.prob_highlighted = 0.5;
  stats.prob_visualized = 0.3;
  stats.prob_missing = 0.2;
  const double d_r = 2 * 100.0 / 2 + 1 * 400.0 / 2;            // 300.
  const double d_v = 2 * d_r + 4 * 100.0 / 2 + 2 * 400.0 / 2;  // 1200.
  EXPECT_NEAR(model.HighlightedCost(2, 1), d_r, 1e-12);
  EXPECT_NEAR(model.VisualizedCost(6, 2, 3, 1), d_v, 1e-12);
  EXPECT_NEAR(model.ExpectedCost(stats),
              0.5 * d_r + 0.3 * d_v + 0.2 * 10000.0, 1e-9);
}

TEST(CostModelTest, EmptyMultiplotCostsMiss) {
  UserCostModel model;
  Multiplot empty;
  empty.rows.resize(1);
  EXPECT_NEAR(model.ExpectedCost(empty, ThreeCandidates()),
              model.miss_cost_ms, 1e-9);
}

TEST(CostModelTest, HighlightingCorrectResultHelps) {
  UserCostModel model;
  Multiplot plain = TwoPlotMultiplot();
  plain.rows[0][0].bars[0].highlighted = false;
  Multiplot red = TwoPlotMultiplot();  // Candidate 0 (p=0.5) highlighted.
  const CandidateSet set = ThreeCandidates();
  EXPECT_LT(model.ExpectedCost(red, set), model.ExpectedCost(plain, set));
}

TEST(CostModelTest, ShowingLikelyResultBeatsMissing) {
  UserCostModel model;
  const CandidateSet set = ThreeCandidates();
  const Multiplot multiplot = TwoPlotMultiplot();
  EXPECT_LT(model.ExpectedCost(multiplot, set), model.EmptyCost());
  EXPECT_GT(model.CostSavings(multiplot, set), 0.0);
}

TEST(CostModelTest, VisualizedAlwaysCostsAtLeastHighlighted) {
  // D_V >= D_R for any statistics (used in the proof of Theorem 2).
  UserCostModel model;
  for (size_t bars = 1; bars <= 8; ++bars) {
    for (size_t red = 0; red <= bars; ++red) {
      for (size_t plots = 1; plots <= 3; ++plots) {
        for (size_t red_plots = 0; red_plots <= plots; ++red_plots) {
          EXPECT_GE(model.VisualizedCost(bars, red, plots, red_plots),
                    model.HighlightedCost(red, red_plots));
        }
      }
    }
  }
}

}  // namespace
}  // namespace muve::core
