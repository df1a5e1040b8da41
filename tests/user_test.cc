#include <gtest/gtest.h>

#include <cmath>

#include "bench/stats.h"
#include "bench/studies.h"
#include "common/rng.h"
#include "common/strings.h"
#include "exec/engine.h"
#include "nlq/candidate_generator.h"
#include "nlq/schema_index.h"
#include "user/user_simulator.h"
#include "workload/datasets.h"

namespace muve::user {
namespace {

core::Multiplot OnePlot(size_t bars, size_t red) {
  core::Multiplot multiplot;
  multiplot.rows.resize(1);
  core::Plot plot;
  plot.query_template.title = "plot";
  for (size_t i = 0; i < bars; ++i) {
    core::PlotBar bar;
    bar.candidate_index = i;
    bar.label = std::string("b").append(std::to_string(i));
    bar.highlighted = i < red;
    plot.bars.push_back(bar);
  }
  multiplot.rows[0].push_back(plot);
  return multiplot;
}

// ---------------------------------------------------------------------
// UserSimulator.
// ---------------------------------------------------------------------

TEST(UserSimulatorTest, FindsPresentTarget) {
  UserSimulator simulator;
  Rng rng(1);
  const auto outcome = simulator.FindTarget(OnePlot(5, 0), 3, &rng);
  EXPECT_TRUE(outcome.found);
  EXPECT_GT(outcome.millis, 0.0);
}

TEST(UserSimulatorTest, MissesAbsentTarget) {
  UserSimulator simulator;
  Rng rng(2);
  const auto outcome = simulator.FindTarget(OnePlot(5, 0), 99, &rng);
  EXPECT_FALSE(outcome.found);
  // Scanning everything costs at least 5 bar reads + 1 plot read.
  UserBehaviorModel model;
  EXPECT_GT(outcome.millis, model.base_latency_ms);
}

TEST(UserSimulatorTest, RedTargetFoundFasterOnAverage) {
  // Highlighting the target in a 12-bar plot must reduce mean search
  // time (the core premise of the coloring optimization).
  UserBehaviorModel model;
  model.noise_sigma = 0.2;
  UserSimulator simulator(model);
  Rng rng(3);
  double red_total = 0.0;
  double plain_total = 0.0;
  const int trials = 400;
  for (int i = 0; i < trials; ++i) {
    red_total += simulator.FindTarget(OnePlot(12, 1), 0, &rng).millis;
    plain_total += simulator.FindTarget(OnePlot(12, 0), 0, &rng).millis;
  }
  EXPECT_LT(red_total / trials, plain_total / trials);
}

TEST(UserSimulatorTest, MoreRedBarsSlowerForRedTarget) {
  UserBehaviorModel model;
  model.noise_sigma = 0.2;
  UserSimulator simulator(model);
  Rng rng(4);
  double few_red = 0.0;
  double many_red = 0.0;
  const int trials = 400;
  for (int i = 0; i < trials; ++i) {
    few_red += simulator.FindTarget(OnePlot(12, 2), 0, &rng).millis;
    many_red += simulator.FindTarget(OnePlot(12, 8), 0, &rng).millis;
  }
  EXPECT_LT(few_red / trials, many_red / trials);
}

TEST(UserSimulatorTest, MorePlotsSlower) {
  UserBehaviorModel model;
  model.noise_sigma = 0.2;
  UserSimulator simulator(model);
  Rng rng(5);
  // Same 12 bars in 1 plot vs 6 plots.
  core::Multiplot one_plot = OnePlot(12, 0);
  core::Multiplot six_plots;
  six_plots.rows.resize(1);
  for (size_t p = 0; p < 6; ++p) {
    core::Plot plot;
    plot.query_template.title = StrCat({"p", std::to_string(p)});
    for (size_t b = 0; b < 2; ++b) {
      core::PlotBar bar;
      bar.candidate_index = p * 2 + b;
      plot.bars.push_back(bar);
    }
    six_plots.rows[0].push_back(plot);
  }
  double one_total = 0.0;
  double six_total = 0.0;
  const int trials = 400;
  for (int i = 0; i < trials; ++i) {
    one_total += simulator.FindTarget(one_plot, 5, &rng).millis;
    six_total += simulator.FindTarget(six_plots, 5, &rng).millis;
  }
  EXPECT_LT(one_total / trials, six_total / trials);
}

TEST(UserSimulatorTest, MeanTimeMatchesCostModelPrediction) {
  // For a red target among b_R red bars in one plot, the §4.2 model
  // predicts base + c_P + (b_R + 1)/2 * c_B (the "+1" because the model
  // counts the target bar itself; the plot is always understood once).
  UserBehaviorModel behavior;
  behavior.noise_sigma = 0.3;
  UserSimulator simulator(behavior);
  Rng rng(6);
  const size_t red = 5;
  double total = 0.0;
  const int trials = 3000;
  for (int i = 0; i < trials; ++i) {
    const size_t target = rng.UniformInt(red);
    total += simulator.FindTarget(OnePlot(12, red), target, &rng).millis;
  }
  const double predicted = behavior.base_latency_ms +
                           behavior.plot_read_ms +
                           (red + 1) / 2.0 * behavior.bar_read_ms;
  EXPECT_NEAR(total / trials, predicted, predicted * 0.06);
}

// ---------------------------------------------------------------------
// Perception study (Fig. 3 / Table 1).
// ---------------------------------------------------------------------

TEST(PerceptionStudyTest, ReproducesSignificancePattern) {
  PerceptionStudyConfig config;
  config.workers_per_task = 40;  // More power than the paper for a
                                 // deterministic test outcome.
  config.seed = 2021;
  const PerceptionStudyResults results = RunPerceptionStudy(config);

  // Paper Table 1: positions not significant, red-bar count and plot
  // count significant at p < 0.05.
  EXPECT_GT(results.bar_position.pearson.p_value, 0.05);
  EXPECT_GT(results.plot_position.pearson.p_value, 0.05);
  EXPECT_LT(results.num_red_bars.pearson.p_value, 0.05);
  EXPECT_LT(results.num_plots.pearson.p_value, 0.05);
  EXPECT_GT(results.num_plots.pearson.r_squared,
            results.bar_position.pearson.r_squared);
}

TEST(PerceptionStudyTest, HitAccounting) {
  PerceptionStudyConfig config;
  config.workers_per_task = 20;
  const PerceptionStudyResults results = RunPerceptionStudy(config);
  // 26 task types x 20 workers = 520 HITs (mirrors the paper).
  EXPECT_EQ(results.hits_submitted, 520u);
  EXPECT_LT(results.hits_completed, results.hits_submitted);
  EXPECT_GT(results.hits_completed, 520u / 3);
}

TEST(PerceptionStudyTest, FittedModelRecoversBehaviourConstants) {
  PerceptionStudyConfig config;
  config.workers_per_task = 200;  // Tight fit.
  config.seed = 7;
  const PerceptionStudyResults results = RunPerceptionStudy(config);
  const core::UserCostModel model =
      FitCostModel(results, config.behavior);
  EXPECT_NEAR(model.bar_cost_ms, config.behavior.bar_read_ms,
              config.behavior.bar_read_ms * 0.30);
  EXPECT_NEAR(model.plot_cost_ms, config.behavior.plot_read_ms,
              config.behavior.plot_read_ms * 0.30);
  EXPECT_DOUBLE_EQ(model.miss_cost_ms, config.behavior.requery_ms);
}

// ---------------------------------------------------------------------
// Comparison study (Fig. 12).
// ---------------------------------------------------------------------

TEST(ComparisonStudyTest, MuveBeatsDropdownBaseline) {
  ComparisonStudyConfig config;
  config.num_users = 4;          // Scaled down for test runtime.
  config.queries_per_dataset = 4;
  config.rows_per_dataset = 4000;
  auto results = RunComparisonStudy(config);
  ASSERT_TRUE(results.ok());
  ASSERT_EQ(results->datasets.size(), 2u);  // ads + dob (311 is warmup).
  for (const auto& per_dataset : results->datasets) {
    EXPECT_GT(per_dataset.muve_ms.mean, 0.0);
    EXPECT_GT(per_dataset.baseline_ms.mean, 0.0);
    EXPECT_LT(per_dataset.muve_ms.mean, per_dataset.baseline_ms.mean)
        << per_dataset.dataset;
  }
}

// ---------------------------------------------------------------------
// Rating study (Fig. 13).
// ---------------------------------------------------------------------

TEST(RatingStudyTest, ProducesBoundedRatingsForAllMethods) {
  Rng rng(12);
  auto table = workload::Make311Table(8000, &rng);
  exec::Engine engine(table);
  auto index = std::make_shared<nlq::SchemaIndex>(table);
  nlq::CandidateGenerator generator(index);
  db::AggregateQuery base;
  base.table = "nyc311";
  base.function = db::AggregateFunction::kCount;
  base.predicates = {
      db::Predicate::Equals("borough", db::Value("brooklyn"))};
  core::CandidateSet set = generator.Generate(base);

  RatingStudyConfig config;
  config.num_users = 10;
  auto ratings = RunRatingStudy(&engine, set, 0, config);
  ASSERT_TRUE(ratings.ok());
  EXPECT_EQ(ratings->size(), exec::AllPresentationMethods().size());
  for (const MethodRating& rating : *ratings) {
    EXPECT_GE(rating.latency_rating.mean, 1.0);
    EXPECT_LE(rating.latency_rating.mean, 10.0);
    EXPECT_GE(rating.clarity_rating.mean, 1.0);
    EXPECT_LE(rating.clarity_rating.mean, 10.0);
  }
}

}  // namespace
}  // namespace muve::user
