#include "core/greedy_planner.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <span>
#include <vector>

#include "common/clock.h"
#include "common/thread_pool.h"
#include "core/query_template.h"

namespace muve::core {

namespace {

/// One colored plot candidate: a probability-prefix of a template group
/// with a prefix of it highlighted (Algorithms 2 + 3).
struct ColoredCandidate {
  size_t group = 0;
  size_t num_shown = 0;  ///< Prefix length (>= 1).
  size_t num_red = 0;    ///< Highlighted prefix length (<= num_shown).
  int width = 0;         ///< Width units on screen.
};

/// A selected plot: candidate plus its assigned row.
struct SelectedPlot {
  ColoredCandidate plot;
  size_t row = 0;
};

/// Mutable planning state mirroring the cost-model statistics.
struct State {
  std::vector<char> shown;        // Per candidate.
  std::vector<char> highlighted;  // Per candidate.
  MultiplotStats stats;
};

double CostOf(const UserCostModel& model, const MultiplotStats& stats) {
  MultiplotStats s = stats;
  s.prob_missing =
      std::max(0.0, 1.0 - s.prob_highlighted - s.prob_visualized);
  return model.ExpectedCost(s);
}

/// Stats after hypothetically adding `plot` to `state` (polish-aware: a
/// re-shown candidate contributes its bar but no probability; a candidate
/// upgraded from visualized to highlighted moves its mass).
MultiplotStats StatsAfterAdd(const State& state,
                             const ColoredCandidate& plot,
                             std::span<const size_t> members,
                             const CandidateSet& candidates) {
  MultiplotStats stats = state.stats;
  stats.num_bars += plot.num_shown;
  stats.num_plots += 1;
  stats.num_red_bars += plot.num_red;
  if (plot.num_red > 0) stats.num_plots_with_red += 1;
  for (size_t pos = 0; pos < plot.num_shown; ++pos) {
    const size_t idx = members[pos];
    const double prob = candidates[idx].probability;
    const bool red = pos < plot.num_red;
    if (!state.shown[idx]) {
      if (red) {
        stats.prob_highlighted += prob;
      } else {
        stats.prob_visualized += prob;
      }
    } else if (red && !state.highlighted[idx]) {
      // The polish step keeps the highlighted occurrence.
      stats.prob_visualized -= prob;
      stats.prob_highlighted += prob;
    }
  }
  return stats;
}

/// Result of scoring one range of candidate plots: the best (highest
/// score) plot, lowest index on exact ties.
struct ScoredPick {
  double score = 0.0;
  int index = -1;
  double cost = 0.0;
};

/// Reduces `evaluate(begin, end)` over all of [0, n), in parallel when a
/// pool is given. Chunk boundaries are fixed (independent of pool size)
/// and partial picks merge in chunk order with a strict `>`, so the
/// overall argmax — including its lowest-index tie-break — is identical
/// to the serial left-to-right scan for every thread count.
ScoredPick PickBest(
    ThreadPool* pool, size_t n, size_t min_parallel, ScoredPick init,
    const std::function<ScoredPick(size_t, size_t)>& evaluate) {
  if (pool == nullptr || pool->num_threads() < 2 || n < min_parallel) {
    return evaluate(0, n);
  }
  // Around 4 chunks per worker bounds idle tails without making chunks
  // so small that scheduling dominates. Chunk boundaries do not affect
  // the outcome: per-candidate scores are chunking-independent, and the
  // lowest index attaining the global maximum wins under any grouping.
  const size_t grain =
      std::max<size_t>(16, n / (4 * pool->num_threads()) + 1);
  const size_t num_chunks = (n + grain - 1) / grain;
  std::vector<ScoredPick> partials(num_chunks);
  ParallelFor(pool, n, grain, [&](size_t chunk, size_t begin, size_t end) {
    partials[chunk] = evaluate(begin, end);
  });
  ScoredPick best = init;
  for (const ScoredPick& partial : partials) {
    if (partial.index >= 0 && partial.score > best.score) best = partial;
  }
  return best;
}

void ApplyAdd(State* state, const ColoredCandidate& plot,
              std::span<const size_t> members,
              const CandidateSet& candidates) {
  state->stats = StatsAfterAdd(*state, plot, members, candidates);
  for (size_t pos = 0; pos < plot.num_shown; ++pos) {
    const size_t idx = members[pos];
    state->shown[idx] = 1;
    if (pos < plot.num_red) state->highlighted[idx] = 1;
  }
}

/// Builds the final Multiplot from the selected plots, then polishes it:
/// removes redundant bars (the same candidate shown twice) and refills
/// the freed slots with the most likely compatible unshown candidates.
Multiplot BuildAndPolish(const std::vector<SelectedPlot>& selected,
                         const TemplateGroups& groups,
                         const CandidateSet& candidates, size_t num_rows,
                         bool polish) {
  Multiplot multiplot;
  multiplot.rows.resize(num_rows);
  // Track, parallel to the multiplot, each plot's group for refilling.
  std::vector<std::vector<size_t>> plot_groups(num_rows);

  for (const SelectedPlot& sel : selected) {
    const size_t g = sel.plot.group;
    Plot plot;
    plot.query_template = groups.Template(g);
    for (size_t pos = 0; pos < sel.plot.num_shown; ++pos) {
      PlotBar bar;
      bar.candidate_index = groups.members(g)[pos];
      bar.label = groups.label(g, pos);
      bar.highlighted = pos < sel.plot.num_red;
      plot.bars.push_back(std::move(bar));
    }
    multiplot.rows[sel.row].push_back(std::move(plot));
    plot_groups[sel.row].push_back(sel.plot.group);
  }

  if (!polish) return multiplot;

  // Pass 1: find duplicates; keep the highlighted occurrence when one
  // exists, otherwise the first (row-major) occurrence.
  struct Occurrence {
    size_t row, plot, bar;
    bool highlighted;
  };
  std::vector<std::vector<Occurrence>> occurrences(candidates.size());
  for (size_t r = 0; r < multiplot.rows.size(); ++r) {
    for (size_t p = 0; p < multiplot.rows[r].size(); ++p) {
      const Plot& plot = multiplot.rows[r][p];
      for (size_t b = 0; b < plot.bars.size(); ++b) {
        occurrences[plot.bars[b].candidate_index].push_back(
            {r, p, b, plot.bars[b].highlighted});
      }
    }
  }
  std::vector<std::vector<std::vector<char>>> removed(multiplot.rows.size());
  for (size_t r = 0; r < multiplot.rows.size(); ++r) {
    removed[r].resize(multiplot.rows[r].size());
    for (size_t p = 0; p < multiplot.rows[r].size(); ++p) {
      removed[r][p].assign(multiplot.rows[r][p].bars.size(), 0);
    }
  }
  std::vector<char> shown(candidates.size(), 0);
  for (size_t idx = 0; idx < occurrences.size(); ++idx) {
    const auto& occs = occurrences[idx];
    if (occs.empty()) continue;
    shown[idx] = 1;
    if (occs.size() == 1) continue;
    size_t keep = 0;
    for (size_t i = 0; i < occs.size(); ++i) {
      if (occs[i].highlighted) {
        keep = i;
        break;
      }
    }
    for (size_t i = 0; i < occs.size(); ++i) {
      if (i == keep) continue;
      removed[occs[i].row][occs[i].plot][occs[i].bar] = 1;
    }
  }

  // Pass 2: rebuild plots without removed bars, refilling freed slots
  // with the most likely unshown member of the plot's template group.
  for (size_t r = 0; r < multiplot.rows.size(); ++r) {
    for (size_t p = 0; p < multiplot.rows[r].size(); ++p) {
      Plot& plot = multiplot.rows[r][p];
      const size_t g = plot_groups[r][p];
      const std::span<const size_t> members = groups.members(g);
      std::vector<PlotBar> kept;
      size_t freed = 0;
      for (size_t b = 0; b < plot.bars.size(); ++b) {
        if (removed[r][p][b]) {
          ++freed;
        } else {
          kept.push_back(plot.bars[b]);
        }
      }
      // Refill: members are sorted by descending probability.
      for (size_t pos = 0; pos < members.size() && freed > 0; ++pos) {
        const size_t idx = members[pos];
        if (shown[idx]) continue;
        PlotBar bar;
        bar.candidate_index = idx;
        bar.label = groups.label(g, pos);
        bar.highlighted = false;
        kept.push_back(std::move(bar));
        shown[idx] = 1;
        --freed;
      }
      plot.bars = std::move(kept);
    }
  }

  // Drop plots that became empty, then empty rows are fine (kept).
  for (auto& row : multiplot.rows) {
    row.erase(std::remove_if(row.begin(), row.end(),
                             [](const Plot& plot) {
                               return plot.bars.empty();
                             }),
              row.end());
  }
  return multiplot;
}

}  // namespace

Result<PlanResult> GreedyPlanner::Plan(const CandidateSet& candidates,
                                       const PlannerConfig& config) const {
  StopWatch watch;
  PlanResult result;
  const ScreenGeometry& geometry = config.geometry;
  const UserCostModel& model = config.cost_model;
  const int screen_width = geometry.WidthUnits();
  const size_t num_rows = std::max(1, geometry.max_rows);

  result.multiplot.rows.resize(num_rows);
  if (candidates.empty()) {
    result.expected_cost = model.EmptyCost();
    result.optimize_millis = watch.ElapsedMillis();
    return result;
  }

  // Algorithm 2: plot candidates as probability prefixes per template.
  const TemplateGroups groups = GroupByTemplate(candidates);

  // Algorithm 3: expand with prefix highlighting choices.
  std::vector<ColoredCandidate> colored;
  for (size_t g = 0; g < groups.size(); ++g) {
    const int base = geometry.PlotBaseUnits(groups.title_size(g));
    const int max_bars = screen_width - base;
    if (max_bars < 1) continue;
    const size_t limit = std::min<size_t>(groups.members(g).size(),
                                          static_cast<size_t>(max_bars));
    // Enumerate larger and more-highlighted versions first: the greedy
    // selection keeps the FIRST candidate on score ties, and a tie
    // between a colored and an uncolored version must resolve toward
    // highlighting (highlighting the most likely results never hurts by
    // Theorem 2, and unlocks gains from later plots).
    for (size_t shown = limit; shown >= 1; --shown) {
      if (!options_.enable_coloring) {
        colored.push_back({g, shown, 0, base + static_cast<int>(shown)});
        continue;
      }
      for (size_t red = shown + 1; red-- > 0;) {
        colored.push_back(
            {g, shown, red, base + static_cast<int>(shown)});
      }
    }
  }

  // Algorithm 4: greedy submodular maximization under per-row width
  // knapsacks. Two standard selection rules are run — marginal gain per
  // width unit (the knapsack-aware rule of Yu et al.) and pure marginal
  // gain (stronger when the width constraint is slack) — and the better
  // outcome is kept.
  const double empty_cost = CostOf(model, MultiplotStats{});
  std::vector<SelectedPlot> selected;
  double current_cost = empty_cost;

  // Anytime behavior under a request deadline: the selection loop checks
  // the deadline before each greedy step and keeps the plots selected so
  // far on expiry (flagged via PlanResult::timed_out). The default
  // infinite deadline never expires, so the selection below is the exact
  // unbounded greedy algorithm. Within one step the deadline is not
  // polled, so a plan is never torn mid-decision and, on a frozen test
  // clock, truncation happens at the same step for every thread count.
  const Deadline& deadline = config.deadline;
  bool truncated = false;

  enum class Rule { kGainPerWidth, kGain };
  auto run_greedy = [&](Rule rule, std::vector<SelectedPlot>* out) {
    State state;
    state.shown.assign(candidates.size(), 0);
    state.highlighted.assign(candidates.size(), 0);
    std::vector<int> remaining(num_rows, screen_width);
    std::vector<char> group_used(groups.size(), 0);
    double cost = empty_cost;
    for (;;) {
      if (deadline.Expired()) {
        truncated = true;
        break;
      }
      // Scores one index range of candidate plots against the current
      // state (read-only during the scan).
      auto evaluate = [&](size_t begin, size_t end) {
        ScoredPick pick;
        for (size_t c = begin; c < end; ++c) {
          const ColoredCandidate& plot = colored[c];
          if (group_used[plot.group]) continue;
          // Feasible in some row?
          bool fits = false;
          for (size_t r = 0; r < num_rows; ++r) {
            if (plot.width <= remaining[r]) {
              fits = true;
              break;
            }
          }
          if (!fits) continue;
          const MultiplotStats stats =
              StatsAfterAdd(state, plot, groups.members(plot.group),
                            candidates);
          const double next_cost = CostOf(model, stats);
          const double gain = cost - next_cost;
          if (gain <= 1e-12) continue;
          const double score =
              rule == Rule::kGainPerWidth
                  ? gain / static_cast<double>(plot.width)
                  : gain;
          if (score > pick.score) {
            pick.score = score;
            pick.index = static_cast<int>(c);
            pick.cost = next_cost;
          }
        }
        return pick;
      };
      const ScoredPick best =
          PickBest(options_.pool, colored.size(),
                   options_.min_parallel_candidates, ScoredPick{},
                   evaluate);
      const int best_index = best.index;
      const double best_cost = best.cost;
      if (best_index < 0) break;

      const ColoredCandidate& plot = colored[best_index];
      // Best-fit row: smallest remaining width that still fits.
      size_t best_row = 0;
      int best_slack = INT32_MAX;
      for (size_t r = 0; r < num_rows; ++r) {
        const int slack = remaining[r] - plot.width;
        if (slack >= 0 && slack < best_slack) {
          best_slack = slack;
          best_row = r;
        }
      }
      remaining[best_row] -= plot.width;
      group_used[plot.group] = 1;
      ApplyAdd(&state, plot, groups.members(plot.group), candidates);
      out->push_back({plot, best_row});
      cost = best_cost;
    }
    return cost;
  };

  if (options_.rule == SelectionRule::kGainPerWidth) {
    current_cost = run_greedy(Rule::kGainPerWidth, &selected);
  } else if (options_.rule == SelectionRule::kGain) {
    current_cost = run_greedy(Rule::kGain, &selected);
  } else {
    std::vector<SelectedPlot> by_ratio;
    const double ratio_cost = run_greedy(Rule::kGainPerWidth, &by_ratio);
    if (deadline.Expired()) {
      // No budget for the second rule: keep the (possibly truncated)
      // first run's result.
      truncated = true;
      selected = std::move(by_ratio);
      current_cost = ratio_cost;
    } else {
      std::vector<SelectedPlot> by_gain;
      const double gain_cost = run_greedy(Rule::kGain, &by_gain);
      if (gain_cost <= ratio_cost) {
        selected = std::move(by_gain);
        current_cost = gain_cost;
      } else {
        selected = std::move(by_ratio);
        current_cost = ratio_cost;
      }
    }
  }

  // Guarantee-preserving comparison against the best single plot
  // (standard for greedy knapsack-constrained submodular maximization).
  // Skipped on expiry: it is an improvement step, so skipping keeps the
  // current (best-so-far) selection valid.
  const bool run_singleton =
      options_.enable_singleton_comparison && !deadline.Expired();
  if (options_.enable_singleton_comparison && !run_singleton) {
    truncated = true;
  }
  if (run_singleton) {
    State fresh;
    fresh.shown.assign(candidates.size(), 0);
    fresh.highlighted.assign(candidates.size(), 0);
    // Scored as negated cost (negation is exact, so comparisons and ties
    // behave identically to comparing costs directly).
    auto evaluate = [&](size_t begin, size_t end) {
      ScoredPick pick;
      pick.score = -empty_cost;
      for (size_t c = begin; c < end; ++c) {
        if (colored[c].width > screen_width) continue;
        const MultiplotStats stats =
            StatsAfterAdd(fresh, colored[c],
                          groups.members(colored[c].group), candidates);
        const double cost = CostOf(model, stats);
        if (-cost > pick.score) {
          pick.score = -cost;
          pick.index = static_cast<int>(c);
          pick.cost = cost;
        }
      }
      return pick;
    };
    ScoredPick init;
    init.score = -empty_cost;
    const ScoredPick best_single =
        PickBest(options_.pool, colored.size(),
                 options_.min_parallel_candidates, init, evaluate);
    if (best_single.index >= 0 && best_single.cost < current_cost) {
      selected.clear();
      selected.push_back({colored[best_single.index], 0});
    }
  }

  // Finalize: build the multiplot and polish redundant bars.
  result.multiplot = BuildAndPolish(selected, groups, candidates,
                                    num_rows, options_.enable_polish);
  result.expected_cost = model.ExpectedCost(result.multiplot, candidates);
  result.optimize_millis = watch.ElapsedMillis();
  result.timed_out = truncated;
  return result;
}

}  // namespace muve::core
