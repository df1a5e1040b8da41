#ifndef MUVE_TESTS_TESTING_BRUTE_FORCE_PLANNER_H_
#define MUVE_TESTS_TESTING_BRUTE_FORCE_PLANNER_H_

#include <string>

#include "core/planner.h"

namespace muve::core {

/// Exhaustive reference solver for tiny multiplot-selection instances.
///
/// Enumerates, for every template group, every subset of member queries,
/// every highlighting subset, and every row assignment, subject to the
/// screen constraints and the "no result twice" rule. Exponential — used
/// only in tests to certify that the ILP solver is exact and to measure
/// the greedy solver's gap. Refuses instances whose search space exceeds
/// an internal budget.
class BruteForcePlanner : public VisualizationPlanner {
 public:
  BruteForcePlanner() = default;

  Result<PlanResult> Plan(const CandidateSet& candidates,
                          const PlannerConfig& config) const override;

  std::string name() const override { return "brute-force"; }
};

}  // namespace muve::core

#endif  // MUVE_TESTS_TESTING_BRUTE_FORCE_PLANNER_H_
