#ifndef MUVE_BENCH_STUDIES_H_
#define MUVE_BENCH_STUDIES_H_

#include <string>
#include <vector>

#include "bench/stats.h"
#include "common/status.h"
#include "core/candidate.h"
#include "core/cost_model.h"
#include "core/planner.h"
#include "exec/presentation.h"
#include "speech/speech_simulator.h"
#include "user/user_simulator.h"

namespace muve::user {

// ---------------------------------------------------------------------
// Crowd perception study (paper §4.1, Fig. 3 + Table 1).
// ---------------------------------------------------------------------

/// One averaged measurement point of a feature sweep.
struct SeriesPoint {
  double x = 0.0;  ///< Feature value (position / count).
  stats::ConfidenceInterval time_ms;
  size_t num_responses = 0;
};

/// A full feature sweep plus its correlation analysis.
struct FeatureSeries {
  std::string feature;
  std::vector<SeriesPoint> points;
  stats::PearsonResult pearson;
};

/// Study configuration: 26 task types x workers_per_task HITs, mirroring
/// the paper's AMT setup (520 HITs; 262 returned within the window —
/// modeled by response_rate).
struct PerceptionStudyConfig {
  size_t workers_per_task = 20;
  double response_rate = 0.504;
  UserBehaviorModel behavior;
  uint64_t seed = 42;
};

/// Results: the four Fig. 3 panels and Table 1 correlations.
struct PerceptionStudyResults {
  FeatureSeries bar_position;   ///< Target bar position in a 12-bar plot.
  FeatureSeries plot_position;  ///< Target plot position (6 plots, 2 rows).
  FeatureSeries num_red_bars;   ///< Highlighted-bar count (target red).
  FeatureSeries num_plots;     ///< Plot count at fixed 12 bars total.
  size_t hits_submitted = 0;
  size_t hits_completed = 0;
};

/// Runs the simulated crowd study.
PerceptionStudyResults RunPerceptionStudy(
    const PerceptionStudyConfig& config);

/// Derives the §4.2 model constants c_B and c_P from the study results by
/// linear regression on the two statistically significant sweeps, and
/// D_M from the behaviour model's requery time.
core::UserCostModel FitCostModel(const PerceptionStudyResults& results,
                                 const UserBehaviorModel& behavior);

// ---------------------------------------------------------------------
// MUVE vs. baseline study (paper §9.5, Fig. 12).
// ---------------------------------------------------------------------

struct ComparisonStudyConfig {
  /// The paper's participants used desktop browsers (§9.5); default to a
  /// desktop resolution with two plot rows so the multiplot has room.
  ComparisonStudyConfig() {
    planner.geometry.width_px = 1536.0;
    planner.geometry.max_rows = 2;
    // Web-Speech-class recognition quality (a few percent WER), rather
    // than the harsher defaults used by the robustness experiments.
    noise.substitution_rate = 0.06;
    noise.deletion_rate = 0.005;
  }

  size_t num_users = 10;
  size_t queries_per_dataset = 10;
  size_t rows_per_dataset = 20000;
  UserBehaviorModel behavior;
  speech::SpeechNoiseOptions noise;
  core::PlannerConfig planner;
  /// Baseline (DataTone-style) per-dropdown interaction time.
  double dropdown_interaction_ms = 3000.0;
  uint64_t seed = 7;
};

struct ComparisonStudyResults {
  struct PerDataset {
    std::string dataset;
    stats::ConfidenceInterval muve_ms;
    stats::ConfidenceInterval baseline_ms;
  };
  /// Reported datasets (311 warmup queries are discarded, like the
  /// paper's first ten queries per participant).
  std::vector<PerDataset> datasets;
};

/// Runs the end-to-end comparison: simulated users issue voice queries
/// (with ASR noise) answered either by a MUVE multiplot or by a
/// DataTone-style dropdown disambiguation baseline.
Result<ComparisonStudyResults> RunComparisonStudy(
    const ComparisonStudyConfig& config);

// ---------------------------------------------------------------------
// Presentation-method rating study (paper §9.5, Fig. 13).
// ---------------------------------------------------------------------

struct RatingStudyConfig {
  size_t num_users = 10;
  UserBehaviorModel behavior;
  exec::PresentationOptions presentation;
  uint64_t seed = 11;
};

struct MethodRating {
  std::string method;
  stats::ConfidenceInterval latency_rating;  ///< 1..10.
  stats::ConfidenceInterval clarity_rating;  ///< 1..10.
};

/// Runs all presentation methods for one candidate set and collects
/// simulated 1-10 ratings: latency satisfaction decreases with time until
/// the correct result appears; clarity decreases with the number of
/// visualization updates (sequences of changing plots).
Result<std::vector<MethodRating>> RunRatingStudy(
    exec::Engine* engine, const core::CandidateSet& candidates,
    size_t correct_candidate, const RatingStudyConfig& config);

}  // namespace muve::user

#endif  // MUVE_BENCH_STUDIES_H_
