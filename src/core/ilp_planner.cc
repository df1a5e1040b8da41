#include "core/ilp_planner.h"

#include <algorithm>
#include <cmath>

#include "common/clock.h"
#include "common/strings.h"

namespace muve::core {

namespace {

/// Extracts the multiplot encoded by an assignment of the formulation's
/// decision variables.
Multiplot ExtractMultiplot(const IlpFormulation& formulation,
                           const std::vector<double>& x, size_t num_rows) {
  Multiplot multiplot;
  multiplot.rows.resize(num_rows);
  const auto is_one = [&](int var) { return x[var] > 0.5; };
  for (size_t g = 0; g < formulation.groups.size(); ++g) {
    const TemplateGroups& groups = formulation.groups;
    for (size_t k = 0; k < num_rows; ++k) {
      if (!is_one(formulation.plot_var[g][k])) continue;
      Plot plot;
      plot.query_template = groups.Template(g);
      for (size_t m = 0; m < groups.members(g).size(); ++m) {
        if (!is_one(formulation.bar_var[g][k][m])) continue;
        PlotBar bar;
        bar.candidate_index = groups.members(g)[m];
        bar.label = groups.label(g, m);
        bar.highlighted = is_one(formulation.red_var[g][k][m]);
        plot.bars.push_back(std::move(bar));
      }
      if (!plot.bars.empty()) {
        multiplot.rows[k].push_back(std::move(plot));
      }
    }
  }
  return multiplot;
}

}  // namespace

Result<IlpFormulation> BuildFormulation(const CandidateSet& candidates,
                                        const PlannerConfig& config) {
  const ScreenGeometry& geometry = config.geometry;
  const UserCostModel& cost = config.cost_model;
  const size_t num_rows = std::max(1, geometry.max_rows);
  const int screen_width = geometry.WidthUnits();
  const size_t num_queries = candidates.size();

  IlpFormulation f;
  f.groups = GroupByTemplate(candidates);
  ilp::Model& model = f.model;
  model.SetSense(ilp::Sense::kMinimize);

  const size_t num_groups = f.groups.size();

  // Per-group base widths; groups whose base leaves no room for a single
  // bar can never be displayed but keep their slot for index stability
  // (their p variables are fixed to 0 via an upper bound of 0).
  std::vector<int> base_width(num_groups, 0);
  int min_plot_width = INT32_MAX;
  for (size_t g = 0; g < num_groups; ++g) {
    base_width[g] = geometry.PlotBaseUnits(f.groups.title_size(g));
    if (base_width[g] + 1 <= screen_width) {
      min_plot_width = std::min(min_plot_width, base_width[g] + 1);
    }
  }
  const int max_plots_per_row =
      min_plot_width == INT32_MAX ? 0 : screen_width / min_plot_width;

  // Bounds for linearized products.
  const double upper_bars = static_cast<double>(
      std::min(num_queries, num_rows * static_cast<size_t>(std::max(
                                            0, screen_width))));
  const double upper_plots = static_cast<double>(std::min(
      num_groups * num_rows,
      num_rows * static_cast<size_t>(std::max(0, max_plots_per_row))));

  // --- Decision variables (paper §5.1) ---
  f.plot_var.assign(num_groups, std::vector<int>(num_rows, -1));
  f.bar_var.assign(num_groups, {});
  f.red_var.assign(num_groups, {});
  // s_{g,k}: plot g in row k contains at least one red bar.
  f.red_plot_var.assign(num_groups, std::vector<int>(num_rows, -1));
  std::vector<std::vector<int>>& red_plot_var = f.red_plot_var;
  for (size_t g = 0; g < num_groups; ++g) {
    const size_t members = f.groups.members(g).size();
    f.bar_var[g].assign(num_rows, std::vector<int>(members, -1));
    f.red_var[g].assign(num_rows, std::vector<int>(members, -1));
    for (size_t k = 0; k < num_rows; ++k) {
      const std::string suffix =
          StrCat({"_g", std::to_string(g), "_r", std::to_string(k)});
      f.plot_var[g][k] = model.AddBinary("p" + suffix);
      red_plot_var[g][k] = model.AddBinary("s" + suffix);
      for (size_t m = 0; m < members; ++m) {
        f.bar_var[g][k][m] =
            model.AddBinary(StrCat({"q", suffix, "_m", std::to_string(m)}));
        f.red_var[g][k][m] =
            model.AddBinary(StrCat({"h", suffix, "_m", std::to_string(m)}));
      }
    }
  }

  // Per-candidate indicators: shown anywhere (q_i), highlighted anywhere
  // (h_i), displayed-but-not-highlighted (d_i).
  f.shown_var.resize(num_queries);
  f.highlighted_var.resize(num_queries);
  f.plain_var.resize(num_queries);
  std::vector<int>& shown_var = f.shown_var;
  std::vector<int>& red_var = f.highlighted_var;
  std::vector<int>& plain_var = f.plain_var;
  for (size_t i = 0; i < num_queries; ++i) {
    shown_var[i] = model.AddBinary(StrCat({"qi_", std::to_string(i)}));
    red_var[i] = model.AddBinary(StrCat({"hi_", std::to_string(i)}));
    plain_var[i] = model.AddBinary(StrCat({"di_", std::to_string(i)}));
  }

  // Aggregates: total bars B, red bars B_R, plots P, plots-with-red P_R.
  const int total_bars = model.AddVariable("B", 0.0, upper_bars);
  const int total_red_bars = model.AddVariable("BR", 0.0, upper_bars);
  const int total_plots = model.AddVariable("P", 0.0, upper_plots);
  const int total_red_plots = model.AddVariable("PR", 0.0, upper_plots);
  f.total_bars_var = total_bars;
  f.total_red_bars_var = total_red_bars;
  f.total_plots_var = total_plots;
  f.total_red_plots_var = total_red_plots;

  // --- Constraints (paper §5.2) ---
  for (size_t g = 0; g < num_groups; ++g) {
    const size_t members = f.groups.members(g).size();
    // Plots that cannot fit even one bar are never displayed.
    const bool can_fit = base_width[g] + 1 <= screen_width;
    // A template appears at most once across rows.
    ilp::LinearExpr once;
    for (size_t k = 0; k < num_rows; ++k) {
      once.Add(f.plot_var[g][k], 1.0);
    }
    model.AddConstraint(once, ilp::Relation::kLessEqual, can_fit ? 1.0 : 0.0);

    for (size_t k = 0; k < num_rows; ++k) {
      ilp::LinearExpr any_bar;  // p <= sum of its bars (no empty plots).
      any_bar.Add(f.plot_var[g][k], 1.0);
      for (size_t m = 0; m < members; ++m) {
        // Bars only in displayed plots: q <= p.
        ilp::LinearExpr in_plot;
        in_plot.Add(f.bar_var[g][k][m], 1.0).Add(f.plot_var[g][k], -1.0);
        model.AddConstraint(in_plot, ilp::Relation::kLessEqual, 0.0);
        // Highlights only on shown bars: h <= q.
        ilp::LinearExpr on_bar;
        on_bar.Add(f.red_var[g][k][m], 1.0).Add(f.bar_var[g][k][m], -1.0);
        model.AddConstraint(on_bar, ilp::Relation::kLessEqual, 0.0);
        any_bar.Add(f.bar_var[g][k][m], -1.0);
        // s >= h (a red bar makes its plot red).
        ilp::LinearExpr red_lower;
        red_lower.Add(red_plot_var[g][k], 1.0)
            .Add(f.red_var[g][k][m], -1.0);
        model.AddConstraint(red_lower, ilp::Relation::kGreaterEqual, 0.0);
      }
      model.AddConstraint(any_bar, ilp::Relation::kLessEqual, 0.0);
      // s <= p and s <= sum of h.
      ilp::LinearExpr s_le_p;
      s_le_p.Add(red_plot_var[g][k], 1.0).Add(f.plot_var[g][k], -1.0);
      model.AddConstraint(s_le_p, ilp::Relation::kLessEqual, 0.0);
      ilp::LinearExpr s_le_h;
      s_le_h.Add(red_plot_var[g][k], 1.0);
      for (size_t m = 0; m < members; ++m) {
        s_le_h.Add(f.red_var[g][k][m], -1.0);
      }
      model.AddConstraint(s_le_h, ilp::Relation::kLessEqual, 0.0);
    }
  }

  // Row width constraints: sum of plot bases + bars per row <= screen.
  for (size_t k = 0; k < num_rows; ++k) {
    ilp::LinearExpr width;
    for (size_t g = 0; g < num_groups; ++g) {
      width.Add(f.plot_var[g][k], static_cast<double>(base_width[g]));
      for (size_t m = 0; m < f.groups.members(g).size(); ++m) {
        width.Add(f.bar_var[g][k][m], 1.0);
      }
    }
    model.AddConstraint(width, ilp::Relation::kLessEqual,
                        static_cast<double>(screen_width));
  }

  // Per-candidate indicator definitions. Every candidate may be shown at
  // most once: q_i = sum over all its bar variables, with q_i binary.
  for (size_t i = 0; i < num_queries; ++i) {
    ilp::LinearExpr shown_def;
    shown_def.Add(shown_var[i], 1.0);
    ilp::LinearExpr red_def;
    red_def.Add(red_var[i], 1.0);
    for (size_t g = 0; g < num_groups; ++g) {
      for (size_t m = 0; m < f.groups.members(g).size(); ++m) {
        if (f.groups.members(g)[m] != i) continue;
        for (size_t k = 0; k < num_rows; ++k) {
          shown_def.Add(f.bar_var[g][k][m], -1.0);
          red_def.Add(f.red_var[g][k][m], -1.0);
        }
      }
    }
    model.AddConstraint(shown_def, ilp::Relation::kEqual, 0.0);
    model.AddConstraint(red_def, ilp::Relation::kEqual, 0.0);
    // d_i = q_i - h_i.
    ilp::LinearExpr plain_def;
    plain_def.Add(plain_var[i], 1.0)
        .Add(shown_var[i], -1.0)
        .Add(red_var[i], 1.0);
    model.AddConstraint(plain_def, ilp::Relation::kEqual, 0.0);
  }

  // Aggregate definitions.
  {
    ilp::LinearExpr bars_def;
    bars_def.Add(total_bars, 1.0);
    ilp::LinearExpr red_bars_def;
    red_bars_def.Add(total_red_bars, 1.0);
    ilp::LinearExpr plots_def;
    plots_def.Add(total_plots, 1.0);
    ilp::LinearExpr red_plots_def;
    red_plots_def.Add(total_red_plots, 1.0);
    for (size_t g = 0; g < num_groups; ++g) {
      for (size_t k = 0; k < num_rows; ++k) {
        plots_def.Add(f.plot_var[g][k], -1.0);
        red_plots_def.Add(red_plot_var[g][k], -1.0);
        for (size_t m = 0; m < f.groups.members(g).size(); ++m) {
          bars_def.Add(f.bar_var[g][k][m], -1.0);
          red_bars_def.Add(f.red_var[g][k][m], -1.0);
        }
      }
    }
    model.AddConstraint(bars_def, ilp::Relation::kEqual, 0.0);
    model.AddConstraint(red_bars_def, ilp::Relation::kEqual, 0.0);
    model.AddConstraint(plots_def, ilp::Relation::kEqual, 0.0);
    model.AddConstraint(red_plots_def, ilp::Relation::kEqual, 0.0);
  }

  // --- Objective (paper §5.3, matching the §4.2 evaluator exactly) ---
  //
  //   E = D_M - sum_i r_i D_M q_i
  //       + sum_i r_i h_i (B_R c_B + P_R c_P) / 2
  //       + sum_i r_i d_i ((B_R + B) c_B + (P_R + P) c_P) / 2
  //
  // Products of a binary and a bounded aggregate are linearized.
  model.AddObjectiveConstant(cost.miss_cost_ms);
  for (size_t i = 0; i < num_queries; ++i) {
    const double prob = candidates[i].probability;
    const std::string tag = std::to_string(i);
    model.AddObjectiveTerm(shown_var[i], -prob * cost.miss_cost_ms);

    const int h_times_red_bars = model.AddProductVariable(
        "hBR_" + tag, red_var[i], total_red_bars, upper_bars);
    const int h_times_red_plots = model.AddProductVariable(
        "hPR_" + tag, red_var[i], total_red_plots, upper_plots);
    f.products.push_back({h_times_red_bars, red_var[i], total_red_bars});
    f.products.push_back({h_times_red_plots, red_var[i], total_red_plots});
    model.AddObjectiveTerm(h_times_red_bars, prob * cost.bar_cost_ms / 2.0);
    model.AddObjectiveTerm(h_times_red_plots,
                           prob * cost.plot_cost_ms / 2.0);

    const int d_times_red_bars = model.AddProductVariable(
        "dBR_" + tag, plain_var[i], total_red_bars, upper_bars);
    const int d_times_bars = model.AddProductVariable(
        "dB_" + tag, plain_var[i], total_bars, upper_bars);
    const int d_times_red_plots = model.AddProductVariable(
        "dPR_" + tag, plain_var[i], total_red_plots, upper_plots);
    const int d_times_plots = model.AddProductVariable(
        "dP_" + tag, plain_var[i], total_plots, upper_plots);
    f.products.push_back({d_times_red_bars, plain_var[i], total_red_bars});
    f.products.push_back({d_times_bars, plain_var[i], total_bars});
    f.products.push_back({d_times_red_plots, plain_var[i], total_red_plots});
    f.products.push_back({d_times_plots, plain_var[i], total_plots});
    model.AddObjectiveTerm(d_times_red_bars, prob * cost.bar_cost_ms / 2.0);
    model.AddObjectiveTerm(d_times_bars, prob * cost.bar_cost_ms / 2.0);
    model.AddObjectiveTerm(d_times_red_plots,
                           prob * cost.plot_cost_ms / 2.0);
    model.AddObjectiveTerm(d_times_plots, prob * cost.plot_cost_ms / 2.0);
  }

  // --- Processing-cost extension (paper §8.1) ---
  if (config.processing.mode != ProcessingCostMode::kIgnore) {
    const auto& groups = config.processing.groups;
    f.processing_var.resize(groups.size());
    f.processing_cost.resize(groups.size());
    f.processing_members.resize(groups.size());
    // Which processing groups cover each candidate.
    std::vector<std::vector<int>> covering(num_queries);
    for (size_t j = 0; j < groups.size(); ++j) {
      f.processing_var[j] = model.AddBinary(StrCat({"g_", std::to_string(j)}));
      f.processing_cost[j] = groups[j].cost;
      for (size_t i : groups[j].member_candidates) {
        if (i < num_queries) {
          covering[i].push_back(f.processing_var[j]);
          f.processing_members[j].push_back(i);
        }
      }
    }
    // q_i <= sum of covering group selections.
    for (size_t i = 0; i < num_queries; ++i) {
      if (covering[i].empty()) continue;  // Uncovered: unconstrained.
      ilp::LinearExpr coverage;
      coverage.Add(shown_var[i], 1.0);
      for (int var : covering[i]) coverage.Add(var, -1.0);
      model.AddConstraint(coverage, ilp::Relation::kLessEqual, 0.0);
    }
    if (config.processing.mode == ProcessingCostMode::kConstraint) {
      ilp::LinearExpr total;
      for (size_t j = 0; j < groups.size(); ++j) {
        total.Add(f.processing_var[j], groups[j].cost);
      }
      model.AddConstraint(total, ilp::Relation::kLessEqual,
                          config.processing.cost_bound);
    } else {
      for (size_t j = 0; j < groups.size(); ++j) {
        model.AddObjectiveTerm(
            f.processing_var[j],
            config.processing.objective_weight * groups[j].cost);
      }
    }
  }

  return f;
}

std::vector<double> EncodeWarmStart(const IlpFormulation& formulation,
                                    const Multiplot& multiplot) {
  const ilp::Model& model = formulation.model;
  std::vector<double> x(model.num_variables(), 0.0);
  const size_t num_groups = formulation.groups.size();

  // Map template key -> group index.
  auto find_group = [&](const std::string& key) -> int {
    for (size_t g = 0; g < num_groups; ++g) {
      if (formulation.groups.key(g) == key) {
        return static_cast<int>(g);
      }
    }
    return -1;
  };

  for (size_t r = 0; r < multiplot.rows.size(); ++r) {
    for (const Plot& plot : multiplot.rows[r]) {
      const int g = find_group(plot.query_template.key);
      if (g < 0 || r >= formulation.plot_var[g].size()) return {};
      x[formulation.plot_var[g][r]] = 1.0;
      bool any_red = false;
      for (const PlotBar& bar : plot.bars) {
        // Member index of this candidate within the group.
        const auto members = formulation.groups.members(g);
        int m = -1;
        for (size_t i = 0; i < members.size(); ++i) {
          if (members[i] == bar.candidate_index) {
            m = static_cast<int>(i);
            break;
          }
        }
        if (m < 0) return {};
        x[formulation.bar_var[g][r][m]] = 1.0;
        if (bar.candidate_index < formulation.shown_var.size()) {
          x[formulation.shown_var[bar.candidate_index]] = 1.0;
        }
        if (bar.highlighted) {
          x[formulation.red_var[g][r][m]] = 1.0;
          x[formulation.highlighted_var[bar.candidate_index]] = 1.0;
          any_red = true;
        }
      }
      if (any_red) x[formulation.red_plot_var[g][r]] = 1.0;
    }
  }

  // Derived per-candidate and aggregate values.
  double bars = 0.0;
  double red_bars = 0.0;
  double plots = 0.0;
  double red_plots = 0.0;
  for (size_t g = 0; g < num_groups; ++g) {
    for (size_t k = 0; k < formulation.plot_var[g].size(); ++k) {
      plots += x[formulation.plot_var[g][k]];
      red_plots += x[formulation.red_plot_var[g][k]];
      for (size_t m = 0; m < formulation.bar_var[g][k].size(); ++m) {
        bars += x[formulation.bar_var[g][k][m]];
        red_bars += x[formulation.red_var[g][k][m]];
      }
    }
  }
  x[formulation.total_bars_var] = bars;
  x[formulation.total_red_bars_var] = red_bars;
  x[formulation.total_plots_var] = plots;
  x[formulation.total_red_plots_var] = red_plots;
  for (size_t i = 0; i < formulation.shown_var.size(); ++i) {
    x[formulation.plain_var[i]] = x[formulation.shown_var[i]] -
                                  x[formulation.highlighted_var[i]];
    if (x[formulation.plain_var[i]] < 0.0) return {};  // Inconsistent.
  }
  for (const IlpFormulation::ProductDef& def : formulation.products) {
    x[def.product] = x[def.binary] * x[def.bounded];
  }
  // Processing coverage: enable every group containing a shown
  // candidate (feasible for the objective mode; the constraint mode may
  // reject this assignment, in which case the caller falls back).
  for (size_t j = 0; j < formulation.processing_var.size(); ++j) {
    for (size_t i : formulation.processing_members[j]) {
      if (i < formulation.shown_var.size() &&
          x[formulation.shown_var[i]] > 0.5) {
        x[formulation.processing_var[j]] = 1.0;
        break;
      }
    }
  }
  return x;
}

Result<PlanResult> IlpPlanner::Plan(const CandidateSet& candidates,
                                    const PlannerConfig& config) const {
  return PlanWithHint(candidates, config, nullptr);
}

Result<PlanResult> IlpPlanner::PlanWithHint(const CandidateSet& candidates,
                                            const PlannerConfig& config,
                                            const Multiplot* hint) const {
  StopWatch watch;
  const size_t num_rows = std::max(1, config.geometry.max_rows);

  PlanResult result;
  result.multiplot.rows.resize(num_rows);
  if (candidates.empty()) {
    result.expected_cost = config.cost_model.EmptyCost();
    result.optimize_millis = watch.ElapsedMillis();
    return result;
  }

  MUVE_ASSIGN_OR_RETURN(IlpFormulation formulation,
                        BuildFormulation(candidates, config));

  // The all-zero assignment (empty multiplot) is always feasible; a
  // caller-provided hint (typically the greedy solution) is preferred
  // when it encodes to a feasible assignment.
  std::vector<double> warm(formulation.model.num_variables(), 0.0);
  if (hint != nullptr) {
    std::vector<double> encoded = EncodeWarmStart(formulation, *hint);
    if (!encoded.empty() && formulation.model.IsFeasible(encoded)) {
      warm = std::move(encoded);
    }
  }

  ilp::MipSolver::Options solver_options;
  solver_options.presolve = config.ilp.presolve;
  solver_options.num_threads = config.ilp.num_threads;
  solver_options.pool = config.ilp.num_threads != 1 ? pool_ : nullptr;
  ilp::MipSolver solver(solver_options);
  // The planner's timeout_ms and the request-scoped config.deadline
  // resolve to one solve budget (tightest wins); Solve() folds in the
  // solver-level Options deadline through the same helper.
  const ilp::MipSolution solution =
      solver.Solve(formulation.model, ResolveSolveDeadline(config), &warm);

  result.optimize_millis = watch.ElapsedMillis();
  result.timed_out = solution.timed_out;
  result.nodes_explored = solution.nodes_explored;
  result.best_bound = solution.best_bound;
  result.optimality_gap = solution.gap();
  if (!solution.has_solution()) {
    // No incumbent (should not happen given the warm start): fall back to
    // the empty multiplot.
    result.expected_cost = config.cost_model.EmptyCost();
    return result;
  }
  result.multiplot =
      ExtractMultiplot(formulation, solution.x, num_rows);
  result.expected_cost =
      config.cost_model.ExpectedCost(result.multiplot, candidates);
  for (size_t j = 0; j < formulation.processing_var.size(); ++j) {
    if (solution.x[formulation.processing_var[j]] > 0.5) {
      result.processing_cost += formulation.processing_cost[j];
    }
  }
  return result;
}

Result<std::vector<IlpPlanner::IncrementalSnapshot>>
IlpPlanner::PlanIncremental(
    const CandidateSet& candidates, const PlannerConfig& config,
    double initial_timeout_ms, double growth_factor,
    const std::function<void(const IncrementalSnapshot&)>& callback,
    const Multiplot* initial_hint) const {
  std::vector<IncrementalSnapshot> snapshots;
  StopWatch watch;
  double sequence_ms = initial_timeout_ms;
  double best_cost = std::numeric_limits<double>::infinity();
  while (watch.ElapsedMillis() < config.timeout_ms &&
         !config.deadline.Expired()) {
    PlannerConfig sequence_config = config;
    sequence_config.timeout_ms =
        std::min(sequence_ms, config.timeout_ms - watch.ElapsedMillis());
    if (sequence_config.timeout_ms <= 0.0) break;
    // Later sequences start from the best visualization found so far.
    const Multiplot* hint =
        snapshots.empty() ? initial_hint : &snapshots.back().plan.multiplot;
    MUVE_ASSIGN_OR_RETURN(PlanResult plan,
                          PlanWithHint(candidates, sequence_config, hint));
    IncrementalSnapshot snapshot;
    snapshot.sequence_timeout_ms = sequence_config.timeout_ms;
    snapshot.at_millis = watch.ElapsedMillis();
    // Keep the best-so-far visualization: a shorter sequence may beat a
    // longer one only by luck, never show a regression to the user.
    if (plan.expected_cost <= best_cost || snapshots.empty()) {
      best_cost = plan.expected_cost;
      snapshot.plan = std::move(plan);
    } else {
      snapshot.plan = snapshots.back().plan;
      snapshot.plan.timed_out = plan.timed_out;
    }
    const bool proved_optimal = !snapshot.plan.timed_out;
    if (callback) callback(snapshot);
    snapshots.push_back(std::move(snapshot));
    if (proved_optimal) break;
    sequence_ms *= growth_factor;
  }
  return snapshots;
}

}  // namespace muve::core
