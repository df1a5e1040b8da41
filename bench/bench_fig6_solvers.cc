/// Reproduces paper Figure 6: greedy vs. integer-programming solver on
/// 311-request data — optimization time, timeout ratio, and solution
/// quality delta, sweeping candidate count, multiplot rows, and screen
/// resolution (phone to desktop). Scaled down from the paper's 100
/// queries per setting to keep wall-clock reasonable; the shape (ILP
/// better until timeouts dominate, greedy always fast) is preserved.

#include <cmath>
#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "common/clock.h"
#include "common/strings.h"
#include "core/greedy_planner.h"
#include "core/ilp_planner.h"
#include "workload/datasets.h"

namespace muve {
namespace {

constexpr size_t kQueriesPerSetting = 8;
// The paper uses Gurobi with a 1 s timeout; our in-tree branch-and-bound
// solver trails Gurobi (even with warm dual re-solves, presolve, and
// pseudo-cost branching), so instance sizes are scaled down accordingly
// (documented in DESIGN.md / EXPERIMENTS.md).
constexpr double kTimeoutMs = 1000.0;

struct SolverStats {
  double mean_time_ms = 0.0;
  double timeout_ratio = 0.0;
  double mean_cost = 0.0;
  double mean_nodes = 0.0;
  double mean_gap = 0.0;  ///< Relative optimality gap at termination.
};

struct SettingResult {
  SolverStats greedy;
  SolverStats ilp;
};

SettingResult RunSetting(const std::vector<bench::Instance>& instances,
                         size_t trim_candidates,
                         const core::PlannerConfig& config) {
  const core::GreedyPlanner greedy;
  const core::IlpPlanner ilp;
  SettingResult out;
  size_t n = 0;
  for (const bench::Instance& instance : instances) {
    core::CandidateSet set = instance.candidates;
    if (set.size() > trim_candidates) {
      std::vector<core::CandidateQuery> trimmed(
          set.candidates().begin(),
          set.candidates().begin() + static_cast<long>(trim_candidates));
      set = core::CandidateSet(std::move(trimmed));
      set.Normalize();
    }
    auto greedy_plan = greedy.Plan(set, config);
    auto ilp_plan = ilp.Plan(set, config);
    if (!greedy_plan.ok() || !ilp_plan.ok()) continue;
    ++n;
    out.greedy.mean_time_ms += greedy_plan->optimize_millis;
    out.greedy.mean_cost += greedy_plan->expected_cost;
    out.ilp.mean_time_ms += ilp_plan->optimize_millis;
    out.ilp.mean_cost += ilp_plan->expected_cost;
    out.ilp.timeout_ratio += ilp_plan->timed_out ? 1.0 : 0.0;
    out.ilp.mean_nodes += static_cast<double>(ilp_plan->nodes_explored);
    if (std::isfinite(ilp_plan->optimality_gap)) {
      out.ilp.mean_gap += ilp_plan->optimality_gap;
    }
  }
  if (n > 0) {
    const double d = static_cast<double>(n);
    out.greedy.mean_time_ms /= d;
    out.greedy.mean_cost /= d;
    out.ilp.mean_time_ms /= d;
    out.ilp.mean_cost /= d;
    out.ilp.timeout_ratio /= d;
    out.ilp.mean_nodes /= d;
    out.ilp.mean_gap /= d;
  }
  return out;
}

void PrintSetting(const std::string& label, const SettingResult& result) {
  bench::PrintRow(
      {label, bench::Fmt(result.greedy.mean_time_ms, 1),
       bench::Fmt(result.ilp.mean_time_ms, 1),
       bench::Pct(result.ilp.timeout_ratio),
       bench::Fmt(result.ilp.mean_nodes, 0),
       bench::Pct(result.ilp.mean_gap),
       bench::Fmt(result.greedy.mean_cost, 0),
       bench::Fmt(result.ilp.mean_cost, 0),
       bench::Fmt(result.greedy.mean_cost - result.ilp.mean_cost, 0)});
}

}  // namespace
}  // namespace muve

int main() {
  using namespace muve;

  bench::PrintHeader("Figure 6",
                     "Solver performance on 311 request data (greedy vs "
                     "ILP; 1 s timeout, solver-scaled defaults: 8 "
                     "candidates, 1 row, 750 px)");

  auto table = *workload::MakeDataset("nyc311", 5000, 11);
  // One instance pool with the maximum candidate budget; settings trim.
  const std::vector<bench::Instance> instances = bench::MakeInstances(
      table, kQueriesPerSetting, /*num_candidates=*/16,
      /*max_predicates=*/2, /*seed=*/1234);

  core::PlannerConfig defaults;
  defaults.geometry.width_px = 750.0;
  defaults.geometry.max_rows = 1;
  defaults.timeout_ms = kTimeoutMs;

  const char* header_cells[] = {"setting", "greedy ms", "ilp ms",
                                "ilp t/o", "ilp nodes", "ilp gap",
                                "greedy $", "ilp $",    "delta $"};
  const std::vector<std::string> header(header_cells, header_cells + 9);

  std::printf("\n-- Varying number of query candidates --\n");
  bench::PrintRow(header);
  for (size_t candidates : {4, 8, 12, 16}) {
    PrintSetting(StrCat({"cand=", std::to_string(candidates)}),
                 RunSetting(instances, candidates, defaults));
  }

  std::printf("\n-- Varying number of multiplot rows --\n");
  bench::PrintRow(header);
  for (int rows : {1, 2, 3}) {
    core::PlannerConfig config = defaults;
    config.geometry.max_rows = rows;
    PrintSetting(StrCat({"rows=", std::to_string(rows)}),
                 RunSetting(instances, 8, config));
  }

  std::printf("\n-- Varying screen resolution (pixels) --\n");
  bench::PrintRow(header);
  for (double pixels : {375.0, 750.0, 1280.0, 1920.0}) {
    core::PlannerConfig config = defaults;
    config.geometry.width_px = pixels;
    PrintSetting(StrCat({"px=", bench::Fmt(pixels, 0)}),
                 RunSetting(instances, 8, config));
  }

  std::printf(
      "\nShape check vs. paper: greedy stays in the low-millisecond "
      "range with zero timeouts; ILP cost <= greedy cost while timeouts "
      "are rare, and the ILP timeout ratio climbs with rows.\n");
  return 0;
}
