#include "testing/brute_force_planner.h"

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "common/clock.h"
#include "core/query_template.h"

namespace muve::core {

namespace {

constexpr size_t kMaxMembersPerGroup = 14;
constexpr uint64_t kMaxNodes = 50'000'000;

struct SearchState {
  const CandidateSet* candidates = nullptr;
  const TemplateGroups* groups = nullptr;
  const UserCostModel* cost_model = nullptr;
  std::vector<int> base_width;
  std::vector<int> remaining;  // Per row.
  std::vector<char> shown;     // Per candidate.
  MultiplotStats stats;

  // Choice per group: row (-1 = not shown), shown mask, red mask.
  struct Choice {
    int row = -1;
    uint32_t shown_mask = 0;
    uint32_t red_mask = 0;
  };
  std::vector<Choice> choices;

  double best_cost = 0.0;
  std::vector<Choice> best_choices;
  uint64_t nodes = 0;
  bool exhausted_budget = false;
};

double Evaluate(const SearchState& state) {
  MultiplotStats stats = state.stats;
  stats.prob_missing =
      std::max(0.0, 1.0 - stats.prob_highlighted - stats.prob_visualized);
  return state.cost_model->ExpectedCost(stats);
}

void Search(SearchState* state, size_t group_index) {
  if (state->exhausted_budget) return;
  if (++state->nodes > kMaxNodes) {
    state->exhausted_budget = true;
    return;
  }
  if (group_index == state->groups->size()) {
    const double cost = Evaluate(*state);
    if (cost < state->best_cost - 1e-12) {
      state->best_cost = cost;
      state->best_choices = state->choices;
    }
    return;
  }

  // Option 0: skip this group entirely.
  state->choices[group_index] = {};
  Search(state, group_index + 1);

  const std::span<const size_t> group = state->groups->members(group_index);
  const size_t members = group.size();
  const uint32_t full = (1u << members) - 1u;

  for (uint32_t shown_mask = 1; shown_mask <= full; ++shown_mask) {
    // Skip subsets containing an already-shown candidate.
    bool conflict = false;
    int bars = 0;
    for (size_t m = 0; m < members; ++m) {
      if (!(shown_mask & (1u << m))) continue;
      ++bars;
      if (state->shown[group[m]]) {
        conflict = true;
        break;
      }
    }
    if (conflict) continue;
    const int width = state->base_width[group_index] + bars;

    for (size_t row = 0; row < state->remaining.size(); ++row) {
      if (width > state->remaining[row]) continue;

      // Apply shared (highlight-independent) part.
      state->remaining[row] -= width;
      for (size_t m = 0; m < members; ++m) {
        if (shown_mask & (1u << m)) {
          state->shown[group[m]] = 1;
        }
      }
      state->stats.num_plots += 1;
      state->stats.num_bars += static_cast<size_t>(bars);

      // Enumerate every highlight submask of shown_mask.
      uint32_t red_mask = shown_mask;
      for (;;) {  // Iterates all submasks including 0.
        size_t red_bars = 0;
        double red_prob = 0.0;
        double plain_prob = 0.0;
        for (size_t m = 0; m < members; ++m) {
          if (!(shown_mask & (1u << m))) continue;
          const double prob =
              (*state->candidates)[group[m]].probability;
          if (red_mask & (1u << m)) {
            ++red_bars;
            red_prob += prob;
          } else {
            plain_prob += prob;
          }
        }
        state->stats.num_red_bars += red_bars;
        if (red_bars > 0) state->stats.num_plots_with_red += 1;
        state->stats.prob_highlighted += red_prob;
        state->stats.prob_visualized += plain_prob;
        state->choices[group_index] = {static_cast<int>(row), shown_mask,
                                       red_mask};

        Search(state, group_index + 1);

        state->stats.num_red_bars -= red_bars;
        if (red_bars > 0) state->stats.num_plots_with_red -= 1;
        state->stats.prob_highlighted -= red_prob;
        state->stats.prob_visualized -= plain_prob;

        if (red_mask == 0) break;
        red_mask = (red_mask - 1) & shown_mask;
      }

      // Undo shared part.
      state->stats.num_plots -= 1;
      state->stats.num_bars -= static_cast<size_t>(bars);
      for (size_t m = 0; m < members; ++m) {
        if (shown_mask & (1u << m)) {
          state->shown[group[m]] = 0;
        }
      }
      state->remaining[row] += width;

      if (state->exhausted_budget) return;
    }
  }
  state->choices[group_index] = {};
}

}  // namespace

Result<PlanResult> BruteForcePlanner::Plan(const CandidateSet& candidates,
                                           const PlannerConfig& config) const {
  StopWatch watch;
  const size_t num_rows = std::max(1, config.geometry.max_rows);
  const int screen_width = config.geometry.WidthUnits();

  PlanResult result;
  result.multiplot.rows.resize(num_rows);
  if (candidates.empty()) {
    result.expected_cost = config.cost_model.EmptyCost();
    result.optimize_millis = watch.ElapsedMillis();
    return result;
  }

  const TemplateGroups groups = GroupByTemplate(candidates);
  for (size_t g = 0; g < groups.size(); ++g) {
    if (groups.members(g).size() > kMaxMembersPerGroup) {
      return Status::InvalidArgument(
          "brute force: template group too large");
    }
  }

  SearchState state;
  state.candidates = &candidates;
  state.groups = &groups;
  state.cost_model = &config.cost_model;
  state.base_width.resize(groups.size());
  for (size_t g = 0; g < groups.size(); ++g) {
    state.base_width[g] =
        config.geometry.PlotBaseUnits(groups.title_size(g));
  }
  state.remaining.assign(num_rows, screen_width);
  state.shown.assign(candidates.size(), 0);
  state.choices.resize(groups.size());
  state.best_cost = config.cost_model.EmptyCost();

  Search(&state, 0);
  if (state.exhausted_budget) {
    return Status::OutOfRange("brute force: search budget exhausted");
  }

  // Rebuild the best multiplot from the recorded choices.
  for (size_t g = 0; g < groups.size(); ++g) {
    const SearchState::Choice& choice =
        g < state.best_choices.size() ? state.best_choices[g]
                                      : SearchState::Choice{};
    if (choice.row < 0 || choice.shown_mask == 0) continue;
    Plot plot;
    plot.query_template = groups.Template(g);
    for (size_t m = 0; m < groups.members(g).size(); ++m) {
      if (!(choice.shown_mask & (1u << m))) continue;
      PlotBar bar;
      bar.candidate_index = groups.members(g)[m];
      bar.label = groups.label(g, m);
      bar.highlighted = (choice.red_mask & (1u << m)) != 0;
      plot.bars.push_back(std::move(bar));
    }
    result.multiplot.rows[choice.row].push_back(std::move(plot));
  }
  result.expected_cost =
      config.cost_model.ExpectedCost(result.multiplot, candidates);
  result.optimize_millis = watch.ElapsedMillis();
  return result;
}

}  // namespace muve::core
