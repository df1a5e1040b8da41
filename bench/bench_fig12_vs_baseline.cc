/// Reproduces paper Figure 12: average disambiguation time of simulated
/// users with MUVE versus a DataTone-style dropdown-disambiguation
/// baseline (10 users x 30 voice queries; the first 10 queries per user,
/// on 311 data, are discarded as warmup; results reported for the
/// advertisement and DOB datasets).

#include <cstdio>

#include "bench/bench_util.h"
#include "bench/studies.h"

int main() {
  using namespace muve;

  bench::PrintHeader(
      "Figure 12",
      "User study: MUVE vs dropdown baseline (10 users x 30 queries, "
      "311 warmup discarded)");

  user::ComparisonStudyConfig config;
  config.num_users = 10;
  config.queries_per_dataset = 10;
  config.rows_per_dataset = 10000;
  config.seed = 7;

  auto results = user::RunComparisonStudy(config);
  if (!results.ok()) {
    std::printf("study failed: %s\n",
                results.status().ToString().c_str());
    return 1;
  }

  bench::PrintRow({"dataset", "MUVE ms", "ci +/-", "baseline ms",
                   "ci +/-"});
  bool muve_wins = true;
  for (const auto& per_dataset : results->datasets) {
    bench::PrintRow({per_dataset.dataset,
                     bench::Fmt(per_dataset.muve_ms.mean, 0),
                     bench::Fmt(per_dataset.muve_ms.half_width, 0),
                     bench::Fmt(per_dataset.baseline_ms.mean, 0),
                     bench::Fmt(per_dataset.baseline_ms.half_width, 0)});
    muve_wins &= per_dataset.muve_ms.mean < per_dataset.baseline_ms.mean;
  }

  std::printf(
      "\nShape check vs. paper: visually identifying the desired result "
      "in the multiplot is faster than resolving ambiguities via "
      "dropdown menus: %s\n",
      muve_wins ? "PASS" : "FAIL");
  return 0;
}
