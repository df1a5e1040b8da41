/// Reproduces paper Figure 3 (average user perception time vs. multiplot
/// visualization features) and Table 1 (Pearson correlation analysis),
/// using the simulated AMT crowd study (26 task types x 20 workers = 520
/// HITs, partial response like the paper's 262/520), then derives the
/// §4.2 cost-model constants the optimizers use.

#include <cstdio>

#include "bench/bench_util.h"
#include "bench/studies.h"

namespace muve {
namespace {

void PrintSeries(const user::FeatureSeries& series) {
  std::printf("\n-- %s --\n", series.feature.c_str());
  bench::PrintRow({"x", "mean ms", "ci95 +/-", "n"});
  for (const user::SeriesPoint& point : series.points) {
    bench::PrintRow({bench::Fmt(point.x, 0),
                     bench::Fmt(point.time_ms.mean, 0),
                     bench::Fmt(point.time_ms.half_width, 0),
                     std::to_string(point.num_responses)});
  }
}

void PrintPearsonRow(const char* feature,
                     const stats::PearsonResult& pearson) {
  bench::PrintRow({feature, bench::Fmt(pearson.r_squared, 3),
                   bench::Fmt(pearson.p_value, 5)});
}

}  // namespace
}  // namespace muve

int main() {
  using namespace muve;

  bench::PrintHeader(
      "Figure 3 + Table 1",
      "Simulated crowd study: perception time vs. visualization features");

  user::PerceptionStudyConfig config;
  config.workers_per_task = 20;
  config.response_rate = 0.504;  // Paper: 262 of 520 HITs returned.
  config.seed = 2021;
  const user::PerceptionStudyResults results =
      user::RunPerceptionStudy(config);

  std::printf("HITs submitted: %zu, completed: %zu\n",
              results.hits_submitted, results.hits_completed);

  PrintSeries(results.bar_position);
  PrintSeries(results.plot_position);
  PrintSeries(results.num_red_bars);
  PrintSeries(results.num_plots);

  std::printf("\n-- Table 1: Pearson correlation analysis --\n");
  bench::PrintRow({"Feature", "R^2", "p"});
  PrintPearsonRow("Bar Pos.", results.bar_position.pearson);
  PrintPearsonRow("Plot Pos.", results.plot_position.pearson);
  PrintPearsonRow("Nr. Red Bars", results.num_red_bars.pearson);
  PrintPearsonRow("Nr. Plots", results.num_plots.pearson);

  const core::UserCostModel fitted =
      user::FitCostModel(results, config.behavior);
  std::printf("\n-- Fitted cost model (paper §4.2) --\n");
  std::printf("c_B (bar read cost)  = %.0f ms\n", fitted.bar_cost_ms);
  std::printf("c_P (plot read cost) = %.0f ms\n", fitted.plot_cost_ms);
  std::printf("D_M (miss cost)      = %.0f ms\n", fitted.miss_cost_ms);

  std::printf(
      "\nShape check vs. paper: positions p > 0.05 (H1, H2 rejected): "
      "%s; red bars & plot count p < 0.05 (H3, H4 confirmed): %s\n",
      (results.bar_position.pearson.p_value > 0.05 &&
       results.plot_position.pearson.p_value > 0.05)
          ? "PASS"
          : "FAIL",
      (results.num_red_bars.pearson.p_value < 0.05 &&
       results.num_plots.pearson.p_value < 0.05)
          ? "PASS"
          : "FAIL");
  return 0;
}
