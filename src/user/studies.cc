#include "user/studies.h"

#include "common/clock.h"

#include <algorithm>
#include <cmath>

#include "common/strings.h"
#include "core/greedy_planner.h"
#include "db/executor.h"
#include "nlq/candidate_generator.h"
#include "nlq/schema_index.h"
#include "nlq/translator.h"
#include "workload/datasets.h"
#include "workload/query_generator.h"

namespace muve::user {

namespace {

/// Builds an abstract multiplot: `bars_per_plot[i]` bars in plot i,
/// candidates numbered consecutively, the first `num_red` bars of plot 0
/// highlighted when red_in_first_plot is true. Values/labels are dummies —
/// the user simulator only looks at structure.
core::Multiplot AbstractMultiplot(const std::vector<size_t>& bars_per_plot,
                                  size_t num_red, size_t num_rows) {
  core::Multiplot multiplot;
  multiplot.rows.resize(std::max<size_t>(1, num_rows));
  size_t candidate = 0;
  size_t red_left = num_red;
  for (size_t p = 0; p < bars_per_plot.size(); ++p) {
    core::Plot plot;
    plot.query_template.key = StrCat({"task_plot_", std::to_string(p)});
    plot.query_template.title = StrCat({"plot ", std::to_string(p)});
    for (size_t b = 0; b < bars_per_plot[p]; ++b) {
      core::PlotBar bar;
      bar.candidate_index = candidate++;
      bar.label = std::string("v").append(std::to_string(bar.candidate_index));
      bar.value = 1.0;
      if (red_left > 0) {
        bar.highlighted = true;
        --red_left;
      }
      plot.bars.push_back(std::move(bar));
    }
    multiplot.rows[p % multiplot.rows.size()].push_back(std::move(plot));
  }
  return multiplot;
}

FeatureSeries MakeSeries(
    const std::string& feature,
    const std::vector<std::pair<double, std::vector<double>>>& samples) {
  FeatureSeries series;
  series.feature = feature;
  std::vector<double> xs;
  std::vector<double> ys;
  for (const auto& [x, times] : samples) {
    SeriesPoint point;
    point.x = x;
    point.time_ms = stats::ConfidenceInterval95(times);
    point.num_responses = times.size();
    series.points.push_back(point);
    for (double t : times) {
      xs.push_back(x);
      ys.push_back(t);
    }
  }
  if (auto pearson = stats::PearsonCorrelation(xs, ys); pearson.ok()) {
    series.pearson = *pearson;
  }
  return series;
}

double Clamp1To10(double rating) { return std::clamp(rating, 1.0, 10.0); }

}  // namespace

PerceptionStudyResults RunPerceptionStudy(
    const PerceptionStudyConfig& config) {
  Rng rng(config.seed);
  UserSimulator simulator(config.behavior);
  PerceptionStudyResults results;

  auto run_task = [&](const core::Multiplot& multiplot, size_t target,
                      std::vector<double>* times) {
    for (size_t w = 0; w < config.workers_per_task; ++w) {
      ++results.hits_submitted;
      if (!rng.Bernoulli(config.response_rate)) continue;  // No response.
      ++results.hits_completed;
      const UserSimulator::SearchOutcome outcome =
          simulator.FindTarget(multiplot, target, &rng);
      times->push_back(outcome.millis);
    }
  };

  // (a) Bar position within one 12-bar plot: 12 task types.
  {
    std::vector<std::pair<double, std::vector<double>>> samples;
    for (size_t position = 1; position <= 12; ++position) {
      const core::Multiplot multiplot = AbstractMultiplot({12}, 0, 1);
      std::vector<double> times;
      run_task(multiplot, position - 1, &times);
      samples.emplace_back(static_cast<double>(position),
                           std::move(times));
    }
    results.bar_position = MakeSeries("bar position", samples);
  }

  // (b) Plot position within a 6-plot (2 rows x 3) multiplot of 2-bar
  //     plots: 6 task types.
  {
    std::vector<std::pair<double, std::vector<double>>> samples;
    for (size_t position = 1; position <= 6; ++position) {
      const core::Multiplot multiplot =
          AbstractMultiplot({2, 2, 2, 2, 2, 2}, 0, 2);
      std::vector<double> times;
      run_task(multiplot, (position - 1) * 2, &times);
      samples.emplace_back(static_cast<double>(position),
                           std::move(times));
    }
    results.plot_position = MakeSeries("plot position", samples);
  }

  // (c) Number of red bars (target is red), 12 bars in one plot:
  //     4 task types.
  {
    std::vector<std::pair<double, std::vector<double>>> samples;
    for (size_t red : {size_t{1}, size_t{3}, size_t{5}, size_t{7}}) {
      const core::Multiplot multiplot = AbstractMultiplot({12}, red, 1);
      std::vector<double> times;
      // Target uniformly among the red bars.
      const size_t target = rng.UniformInt(red);
      run_task(multiplot, target, &times);
      samples.emplace_back(static_cast<double>(red), std::move(times));
    }
    results.num_red_bars = MakeSeries("nr red bars", samples);
  }

  // (d) Number of plots at fixed 12 total bars: 4 task types.
  {
    std::vector<std::pair<double, std::vector<double>>> samples;
    for (size_t plots : {size_t{1}, size_t{2}, size_t{3}, size_t{6}}) {
      std::vector<size_t> layout(plots, 12 / plots);
      const core::Multiplot multiplot = AbstractMultiplot(layout, 0, 1);
      std::vector<double> times;
      const size_t target = rng.UniformInt(12);
      run_task(multiplot, target, &times);
      samples.emplace_back(static_cast<double>(plots), std::move(times));
    }
    results.num_plots = MakeSeries("nr plots", samples);
  }
  return results;
}

core::UserCostModel FitCostModel(const PerceptionStudyResults& results,
                                 const UserBehaviorModel& behavior) {
  core::UserCostModel model;
  // Red-bar sweep: with k red bars and a red target, users read
  // (k+1)/2 red bars in expectation => slope over k is c_B / 2.
  {
    std::vector<double> xs;
    std::vector<double> ys;
    for (const SeriesPoint& point : results.num_red_bars.points) {
      xs.push_back(point.x);
      ys.push_back(point.time_ms.mean);
    }
    if (auto fit = stats::FitLine(xs, ys); fit.ok() && fit->slope > 0.0) {
      model.bar_cost_ms = 2.0 * fit->slope;
    }
  }
  // Plot-count sweep: (k+1)/2 plots understood in expectation => slope
  // over k is c_P / 2.
  {
    std::vector<double> xs;
    std::vector<double> ys;
    for (const SeriesPoint& point : results.num_plots.points) {
      xs.push_back(point.x);
      ys.push_back(point.time_ms.mean);
    }
    if (auto fit = stats::FitLine(xs, ys); fit.ok() && fit->slope > 0.0) {
      model.plot_cost_ms = 2.0 * fit->slope;
    }
  }
  model.miss_cost_ms = behavior.requery_ms;
  return model;
}

Result<ComparisonStudyResults> RunComparisonStudy(
    const ComparisonStudyConfig& config) {
  ComparisonStudyResults results;
  const std::vector<std::string> datasets = {"nyc311", "ads", "dob"};
  Rng rng(config.seed);
  UserSimulator simulator(config.behavior);
  const core::GreedyPlanner planner;

  for (const std::string& dataset : datasets) {
    MUVE_ASSIGN_OR_RETURN(
        std::shared_ptr<db::Table> table,
        workload::MakeDataset(dataset, config.rows_per_dataset,
                              config.seed ^ 0x5bd1e995));
    auto index = std::make_shared<nlq::SchemaIndex>(table);
    nlq::Translator translator(index);
    nlq::CandidateGenerator generator(index);
    exec::Engine engine(table);

    std::vector<std::string> lexicon = workload::BuildVocabulary(*table);
    for (const char* word :
         {"how", "many", "total", "average", "maximum", "minimum", "where",
          "is", "and", "records"}) {
      lexicon.emplace_back(word);
    }
    speech::SpeechSimulator speech(lexicon);

    std::vector<double> muve_times;
    std::vector<double> baseline_times;

    workload::QueryGeneratorOptions gen_options;
    gen_options.min_predicates = 1;
    gen_options.max_predicates = 1;
    gen_options.count_star_probability = 0.0;

    for (size_t u = 0; u < config.num_users; ++u) {
      for (size_t q = 0; q < config.queries_per_dataset; ++q) {
        MUVE_ASSIGN_OR_RETURN(db::AggregateQuery truth,
                              workload::RandomQuery(*table, &rng,
                                                    gen_options));
        const std::string utterance = nlq::VerbalizeQuery(truth);
        const std::string transcript =
            speech.Transcribe(utterance, &rng, config.noise);

        // --- MUVE arm ---
        double muve_total = 0.0;
        auto translation = translator.Translate(transcript);
        if (!translation.ok()) {
          // Recognition failure: re-ask, then succeed on clean input.
          muve_total += config.behavior.requery_ms;
          translation = translator.Translate(utterance);
        }
        if (translation.ok()) {
          core::CandidateSet candidates = generator.Generate(
              translation->query, translation->confidence);
          // Locate the ground-truth interpretation.
          size_t correct = SIZE_MAX;
          const std::string truth_key = truth.CanonicalKey();
          for (size_t i = 0; i < candidates.size(); ++i) {
            if (candidates[i].query.CanonicalKey() == truth_key) {
              correct = i;
              break;
            }
          }
          MUVE_ASSIGN_OR_RETURN(
              core::PlanResult plan,
              planner.Plan(candidates, config.planner));
          MUVE_ASSIGN_OR_RETURN(
              exec::Execution execution,
              engine.ExecuteMultiplot(candidates, &plan.multiplot));
          muve_total += plan.optimize_millis + execution.modeled_millis;
          const UserSimulator::SearchOutcome search = simulator.FindTarget(
              plan.multiplot, correct == SIZE_MAX ? SIZE_MAX : correct,
              &rng);
          muve_total += search.millis;
          if (!search.found) {
            // Scanned everything, result missing: re-query; the repeat is
            // assumed unambiguous (single plot, single bar).
            muve_total += config.behavior.requery_ms +
                          config.behavior.plot_read_ms +
                          config.behavior.bar_read_ms;
          }
        }
        muve_times.push_back(muve_total);

        // --- Baseline arm (DataTone-style dropdowns) ---
        // The user resolves the aggregation column, predicate column and
        // predicate value via three dropdown menus, then reads the single
        // result.
        double baseline_total = config.behavior.base_latency_ms;
        const double sigma = config.behavior.noise_sigma;
        for (int d = 0; d < 3; ++d) {
          baseline_total +=
              config.dropdown_interaction_ms *
              rng.LogNormal(-sigma * sigma / 2.0, sigma);
        }
        // Execute the now-unambiguous query.
        StopWatch watch;
        auto exec_result = db::Executor::Execute(*table, truth);
        (void)exec_result;
        baseline_total += watch.ElapsedMillis() + 2.0;
        baseline_total += config.behavior.plot_read_ms +
                          config.behavior.bar_read_ms;
        baseline_times.push_back(baseline_total);
      }
    }

    if (dataset == "nyc311") continue;  // Warmup, discarded (paper §9.5).
    ComparisonStudyResults::PerDataset per_dataset;
    per_dataset.dataset = dataset;
    per_dataset.muve_ms = stats::ConfidenceInterval95(muve_times);
    per_dataset.baseline_ms = stats::ConfidenceInterval95(baseline_times);
    results.datasets.push_back(std::move(per_dataset));
  }
  return results;
}

Result<std::vector<MethodRating>> RunRatingStudy(
    exec::Engine* engine, const core::CandidateSet& candidates,
    size_t correct_candidate, const RatingStudyConfig& config) {
  Rng rng(config.seed);
  std::vector<MethodRating> ratings;
  for (exec::PresentationMethod method : exec::AllPresentationMethods()) {
    MUVE_ASSIGN_OR_RETURN(
        exec::PresentationOutcome outcome,
        exec::RunPresentation(method, engine, candidates,
                              correct_candidate, config.presentation));
    const double latency_ms = std::isfinite(outcome.first_correct_ms)
                                  ? outcome.first_correct_ms
                                  : outcome.total_ms + 5000.0;
    const double updates =
        static_cast<double>(std::max<size_t>(1, outcome.events.size()));

    std::vector<double> latency_scores;
    std::vector<double> clarity_scores;
    for (size_t u = 0; u < config.num_users; ++u) {
      latency_scores.push_back(Clamp1To10(
          10.3 - 3.2 * std::log10(1.0 + latency_ms / 15.0) +
          rng.Normal(0.0, 0.55)));
      clarity_scores.push_back(Clamp1To10(
          9.0 - 0.6 * (updates - 1.0) -
          (outcome.initial_relative_error > 0.0 ? 0.3 : 0.0) +
          rng.Normal(0.0, 1.1)));
    }
    MethodRating rating;
    rating.method = exec::PresentationMethodName(method);
    rating.latency_rating = stats::ConfidenceInterval95(latency_scores);
    rating.clarity_rating = stats::ConfidenceInterval95(clarity_scores);
    ratings.push_back(std::move(rating));
  }
  return ratings;
}

}  // namespace muve::user
