#include "viz/render_ascii.h"

#include <algorithm>
#include <cmath>

#include "common/strings.h"

namespace muve::viz {

namespace {

constexpr const char* kAnsiRed = "\x1b[31m";
constexpr const char* kAnsiReset = "\x1b[0m";

std::string FormatValue(double value) {
  if (std::isnan(value)) return "?";
  if (std::fabs(value - std::round(value)) < 1e-9 &&
      std::fabs(value) < 1e15) {
    return std::to_string(static_cast<long long>(std::llround(value)));
  }
  return FormatDouble(value, 2);
}

}  // namespace

std::string RenderMultiplot(const core::Multiplot& multiplot,
                            const AsciiRenderOptions& options) {
  std::string out;
  size_t row_number = 0;
  for (const auto& row : multiplot.rows) {
    ++row_number;
    if (row.empty()) continue;
    std::string header = StrCat({"-- Row ", std::to_string(row_number), " "});
    while (header.size() < options.width_chars) header += '-';
    out += header + "\n";
    for (const core::Plot& plot : row) {
      out += plot.query_template.title + "\n";

      // Scale bars to the plot maximum.
      double max_value = 0.0;
      size_t label_width = 0;
      for (const core::PlotBar& bar : plot.bars) {
        if (!std::isnan(bar.value)) {
          max_value = std::max(max_value, std::fabs(bar.value));
        }
        label_width = std::max(label_width, bar.label.size());
      }
      label_width = std::min<size_t>(label_width, 20);

      for (const core::PlotBar& bar : plot.bars) {
        std::string label = bar.label.substr(0, label_width);
        label.resize(label_width, ' ');
        size_t bar_chars = 0;
        if (!std::isnan(bar.value) && max_value > 0.0) {
          bar_chars = static_cast<size_t>(std::lround(
              std::fabs(bar.value) / max_value *
              static_cast<double>(options.max_bar_chars)));
        }
        std::string bar_text(bar_chars, '#');
        std::string line = "  " + label + " |";
        if (bar.highlighted && options.use_color) {
          line += kAnsiRed + bar_text + kAnsiReset;
        } else {
          line += bar_text;
        }
        line += std::string(options.max_bar_chars - bar_chars + 2, ' ');
        line += FormatValue(bar.value);
        if (bar.approximate) line += " ~";
        if (bar.highlighted) line += options.use_color ? "" : " *";
        out += line + "\n";
      }
      out += "\n";
    }
  }
  if (out.empty()) out = "(empty multiplot)\n";
  return out;
}

}  // namespace muve::viz
