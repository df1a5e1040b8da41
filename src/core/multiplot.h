#ifndef MUVE_CORE_MULTIPLOT_H_
#define MUVE_CORE_MULTIPLOT_H_

#include <cmath>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/candidate.h"
#include "core/query_template.h"

namespace muve::core {

/// One bar of a plot: the result of one candidate query.
struct PlotBar {
  size_t candidate_index = 0;  ///< Index into the CandidateSet.
  std::string label;           ///< x-axis label (placeholder substitution).
  bool highlighted = false;    ///< Marked up in red (paper Fig. 2(e)).
  /// Result value, filled in by the execution engine; NaN until executed.
  double value = std::nan("");
  bool approximate = false;    ///< Value stems from a data sample.
};

/// A query group plot (paper §2, Definition 2): results of queries that
/// instantiate a common template, shown as a bar chart whose title is the
/// template.
struct Plot {
  QueryTemplate query_template;
  std::vector<PlotBar> bars;
};

/// Screen-geometry configuration mapping plots to width units. One unit is
/// the width of one bar; a plot additionally needs base width for its
/// title and axes (the m(p) of paper §3).
struct ScreenGeometry {
  int max_rows = 1;            ///< Desired number of plot rows.
  double width_px = 750.0;     ///< Horizontal resolution (default iPhone).
  double bar_width_px = 40.0;  ///< Pixels per bar.
  double char_width_px = 7.0;  ///< Pixels per title character.
  double plot_padding_px = 24.0;  ///< Fixed per-plot padding (axes etc.).

  /// Screen width in bar units.
  int WidthUnits() const {
    return static_cast<int>(width_px / bar_width_px);
  }

  /// Minimal width (units) of a plot whose title has `title_size`
  /// characters, without bars.
  int PlotBaseUnits(size_t title_size) const {
    const double px =
        plot_padding_px + char_width_px * static_cast<double>(title_size);
    return static_cast<int>(std::ceil(px / bar_width_px));
  }

  /// Minimal width (units) of a plot showing this template, without bars.
  int PlotBaseUnits(const QueryTemplate& query_template) const {
    return PlotBaseUnits(query_template.title.size());
  }

  /// Width (units) of a plot with `num_bars` bars.
  int PlotWidthUnits(const QueryTemplate& query_template,
                     size_t num_bars) const {
    return PlotBaseUnits(query_template) + static_cast<int>(num_bars);
  }
};

/// Aggregate statistics of a multiplot, the inputs of the user cost model
/// (paper §4.2): bar/plot counts and probability mass shown/highlighted.
struct MultiplotStats {
  size_t num_bars = 0;              ///< b.
  size_t num_red_bars = 0;          ///< b_R.
  size_t num_plots = 0;             ///< p.
  size_t num_plots_with_red = 0;    ///< p_R.
  double prob_highlighted = 0.0;    ///< r_R.
  double prob_visualized = 0.0;     ///< r_V (shown but not highlighted).
  double prob_missing = 0.0;        ///< r_M = 1 - r_R - r_V.
};

/// A multiplot: plots arranged in rows (paper §2, Definition 3).
struct Multiplot {
  std::vector<std::vector<Plot>> rows;

  bool empty() const {
    for (const auto& row : rows) {
      if (!row.empty()) return false;
    }
    return true;
  }

  size_t NumPlots() const {
    size_t n = 0;
    for (const auto& row : rows) n += row.size();
    return n;
  }

  size_t NumBars() const {
    size_t n = 0;
    for (const auto& row : rows) {
      for (const Plot& plot : row) n += plot.bars.size();
    }
    return n;
  }

  /// Visits every plot (row major).
  template <typename Fn>
  void ForEachPlot(Fn&& fn) const {
    for (const auto& row : rows) {
      for (const Plot& plot : row) fn(plot);
    }
  }

  /// Mutable variant of ForEachPlot.
  template <typename Fn>
  void ForEachPlotMutable(Fn&& fn) {
    for (auto& row : rows) {
      for (Plot& plot : row) fn(plot);
    }
  }

  /// Whether (and where) candidate `index` appears.
  struct BarLocation {
    size_t row = 0;
    size_t plot = 0;
    size_t bar = 0;
  };
  std::optional<BarLocation> FindCandidate(size_t index) const;

  /// Computes the cost-model statistics against the candidate set.
  MultiplotStats ComputeStats(const CandidateSet& candidates) const;

  /// Verifies dimension constraints: at most geometry.max_rows rows, each
  /// row's total width within the screen, no candidate shown twice, and
  /// highlighted bars only on shown bars (trivially true by construction).
  Status Validate(const ScreenGeometry& geometry) const;
};

}  // namespace muve::core

#endif  // MUVE_CORE_MULTIPLOT_H_
