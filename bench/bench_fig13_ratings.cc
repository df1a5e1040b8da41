/// Reproduces paper Figure 13: average 1-10 user ratings for "latency"
/// and "clarity" per presentation method, for one small (311 requests)
/// and one large (flight delays) dataset.

#include <cstdio>

#include "bench/bench_util.h"
#include "bench/studies.h"
#include "exec/engine.h"
#include "workload/datasets.h"

namespace muve {
namespace {

void RunOne(const char* label,
            const std::shared_ptr<const db::Table>& table,
            uint64_t seed) {
  const std::vector<bench::Instance> instances = bench::MakeInstances(
      table, /*count=*/1, /*num_candidates=*/20, /*max_predicates=*/1,
      seed);
  exec::Engine engine(table);

  user::RatingStudyConfig config;
  config.num_users = 10;
  config.seed = seed;
  config.presentation.planner.timeout_ms = 150.0;
  config.presentation.dynamic_threshold_ms = 10.0;

  auto ratings = user::RunRatingStudy(
      &engine, instances[0].candidates, instances[0].correct, config);
  if (!ratings.ok()) {
    std::printf("rating study failed: %s\n",
                ratings.status().ToString().c_str());
    return;
  }

  std::printf("\n-- %s --\n", label);
  bench::PrintRow({"method", "latency", "ci +/-", "clarity", "ci +/-"});
  for (const user::MethodRating& rating : *ratings) {
    bench::PrintRow({rating.method,
                     bench::Fmt(rating.latency_rating.mean, 2),
                     bench::Fmt(rating.latency_rating.half_width, 2),
                     bench::Fmt(rating.clarity_rating.mean, 2),
                     bench::Fmt(rating.clarity_rating.half_width, 2)});
  }
}

}  // namespace
}  // namespace muve

int main() {
  using namespace muve;

  bench::PrintHeader(
      "Figure 13",
      "Average user ratings (1-10) for latency and clarity per "
      "presentation method, small vs large data");

  {
    Rng rng(81);
    RunOne("small data (311 requests, 50k rows)",
           workload::Make311Table(50000, &rng), 81);
  }
  {
    Rng rng(82);
    RunOne("large data (flight delays, 1.5M rows)",
           workload::MakeFlightsTable(1500000, &rng), 82);
  }

  std::printf(
      "\nShape check vs. paper: latency satisfaction of the default "
      "(Greedy/ILP one-shot) methods drops on large data while "
      "approximation keeps high latency ratings; clarity confidence "
      "intervals overlap across methods with ILP-Inc lowest (sequence "
      "of changing plots).\n");
  return 0;
}
