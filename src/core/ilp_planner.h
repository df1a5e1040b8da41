#ifndef MUVE_CORE_ILP_PLANNER_H_
#define MUVE_CORE_ILP_PLANNER_H_

#include <functional>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "core/planner.h"
#include "core/query_template.h"
#include "ilp/model.h"
#include "ilp/solver.h"

namespace muve::core {

/// The multiplot-selection integer program (paper §5), with index maps
/// from decision variables back to plots/queries for solution extraction.
struct IlpFormulation {
  ilp::Model model;
  /// Views into the candidate set the formulation was built from.
  TemplateGroups groups;
  /// plot_var[g][k]: p variable of group g in row k.
  std::vector<std::vector<int>> plot_var;
  /// bar_var[g][k][m] / red_var[g][k][m]: q and h variables of member m of
  /// group g in row k.
  std::vector<std::vector<std::vector<int>>> bar_var;
  std::vector<std::vector<std::vector<int>>> red_var;
  /// red_plot_var[g][k]: s variable (plot has >= 1 red bar).
  std::vector<std::vector<int>> red_plot_var;
  /// Per-candidate indicators q_i / h_i / d_i.
  std::vector<int> shown_var;
  std::vector<int> highlighted_var;
  std::vector<int> plain_var;
  /// Aggregates B, B_R, P, P_R.
  int total_bars_var = -1;
  int total_red_bars_var = -1;
  int total_plots_var = -1;
  int total_red_plots_var = -1;
  /// Linearized products: y = x * z.
  struct ProductDef {
    int product = -1;
    int binary = -1;
    int bounded = -1;
  };
  std::vector<ProductDef> products;
  /// Per processing group: its selection variable (empty when unused).
  std::vector<int> processing_var;
  std::vector<double> processing_cost;
  /// Candidates covered by each processing group (parallel to
  /// processing_var).
  std::vector<std::vector<size_t>> processing_members;
};

/// Encodes `multiplot` as a full assignment of the formulation's decision
/// variables (structural, indicator, aggregate, product, and processing
/// variables), for use as a MIP warm start. Returns an empty vector when
/// the multiplot does not fit the formulation (e.g. unknown template).
std::vector<double> EncodeWarmStart(const IlpFormulation& formulation,
                                    const Multiplot& multiplot);

/// Builds the integer program for a multiplot-selection instance. Exposed
/// separately so tests and benchmarks can inspect the formulation size
/// (Theorems 6 and 7 bound the variable/constraint counts).
Result<IlpFormulation> BuildFormulation(const CandidateSet& candidates,
                                        const PlannerConfig& config);

/// Integer-programming multiplot-selection solver (paper §5). Builds the
/// ILP and solves it with the in-tree branch-and-bound solver (standing in
/// for Gurobi). Respects the planner timeout: on expiry the best incumbent
/// is extracted, mirroring Gurobi's time-limit behaviour.
class IlpPlanner : public VisualizationPlanner {
 public:
  IlpPlanner() = default;

  /// Runs the solver's parallel tree search on `pool` (typically the
  /// engine-wide worker pool) whenever `config.ilp.num_threads != 1`;
  /// with the default serial config the pool is left untouched. A null
  /// pool makes the solver create a temporary one per solve when
  /// `config.ilp.num_threads` asks for parallelism.
  explicit IlpPlanner(ThreadPool* pool) : pool_(pool) {}

  Result<PlanResult> Plan(const CandidateSet& candidates,
                          const PlannerConfig& config) const override;

  std::string name() const override { return "ilp"; }

  /// One snapshot of incremental optimization.
  struct IncrementalSnapshot {
    PlanResult plan;
    double at_millis = 0.0;  ///< Wall time when this snapshot was emitted.
    double sequence_timeout_ms = 0.0;  ///< Budget of the producing solve.
  };

  /// As Plan(), but seeds the branch-and-bound solver with `hint` as the
  /// initial incumbent (like passing a MIP start to Gurobi). The hint is
  /// ignored when it cannot be encoded as a feasible assignment. MUVE's
  /// presentation pipeline seeds the ILP with the greedy solution so a
  /// timeout degrades to greedy quality rather than to an empty screen.
  Result<PlanResult> PlanWithHint(const CandidateSet& candidates,
                                  const PlannerConfig& config,
                                  const Multiplot* hint) const;

  /// Incremental optimization (paper §5.4): optimization time is divided
  /// into sequences of exponentially growing duration k * b^i; after each
  /// sequence the best visualization so far is emitted via `callback` (and
  /// collected in the returned vector). Stops as soon as a sequence proves
  /// optimality or when `config.timeout_ms` total budget is exhausted.
  Result<std::vector<IncrementalSnapshot>> PlanIncremental(
      const CandidateSet& candidates, const PlannerConfig& config,
      double initial_timeout_ms, double growth_factor,
      const std::function<void(const IncrementalSnapshot&)>& callback =
          nullptr,
      const Multiplot* initial_hint = nullptr) const;

 private:
  ThreadPool* pool_ = nullptr;
};

}  // namespace muve::core

#endif  // MUVE_CORE_ILP_PLANNER_H_
