#include "viz/render_svg.h"

#include <algorithm>
#include <cmath>
#include <fstream>

#include "common/strings.h"

namespace muve::viz {

namespace {

std::string Escape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    switch (c) {
      case '&':
        out += "&amp;";
        break;
      case '<':
        out += "&lt;";
        break;
      case '>':
        out += "&gt;";
        break;
      default:
        out += c;
    }
  }
  return out;
}

std::string Num(double value) { return FormatDouble(value, 1); }

}  // namespace

std::string RenderSvg(const core::Multiplot& multiplot,
                      const SvgRenderOptions& options) {
  const core::ScreenGeometry& geometry = options.geometry;
  const size_t num_rows = std::max<size_t>(1, multiplot.rows.size());
  const double height =
      static_cast<double>(num_rows) * options.row_height_px;

  std::string svg;
  svg += StrCat({"<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"",
                 Num(geometry.width_px), "\" height=\"", Num(height),
                 "\" font-family=\"sans-serif\">\n"});
  svg += "<rect width=\"100%\" height=\"100%\" fill=\"white\"/>\n";

  const double title_band = options.title_font_px + 8.0;
  const double label_band = options.label_font_px + 26.0;

  for (size_t r = 0; r < multiplot.rows.size(); ++r) {
    double x = 0.0;
    const double row_top =
        static_cast<double>(r) * options.row_height_px;
    for (const core::Plot& plot : multiplot.rows[r]) {
      const double plot_width_px =
          static_cast<double>(geometry.PlotWidthUnits(
              plot.query_template, plot.bars.size())) *
          geometry.bar_width_px;
      const double chart_top = row_top + title_band;
      const double chart_height =
          options.row_height_px - title_band - label_band;

      svg += "<g>\n";
      svg += StrCat({"<rect x=\"", Num(x + 2), "\" y=\"", Num(row_top + 2),
                     "\" width=\"", Num(plot_width_px - 4), "\" height=\"",
                     Num(options.row_height_px - 4),
                     "\" fill=\"none\" stroke=\"#cccccc\"/>\n"});
      svg += StrCat({"<text x=\"", Num(x + 8), "\" y=\"",
                     Num(row_top + options.title_font_px + 4),
                     "\" font-size=\"", Num(options.title_font_px), "\">",
                     Escape(plot.query_template.title), "</text>\n"});

      double max_value = 0.0;
      for (const core::PlotBar& bar : plot.bars) {
        if (!std::isnan(bar.value)) {
          max_value = std::max(max_value, std::fabs(bar.value));
        }
      }
      const double bar_area_left = x + 8.0;
      const double bar_slot = geometry.bar_width_px;
      for (size_t b = 0; b < plot.bars.size(); ++b) {
        const core::PlotBar& bar = plot.bars[b];
        const double value = std::isnan(bar.value) ? 0.0 : bar.value;
        const double frac =
            max_value > 0.0 ? std::fabs(value) / max_value : 0.0;
        const double bar_height = chart_height * frac;
        const double bx =
            bar_area_left + static_cast<double>(b) * bar_slot;
        const double by = chart_top + (chart_height - bar_height);
        const std::string& fill =
            bar.highlighted
                ? options.highlight_color
                : (bar.approximate ? options.approx_color
                                   : options.bar_color);
        svg += StrCat({"<rect x=\"", Num(bx), "\" y=\"", Num(by),
                       "\" width=\"", Num(bar_slot * 0.8), "\" height=\"",
                       Num(bar_height), "\" fill=\"", fill, "\"/>\n"});
        const std::string label_y =
            Num(chart_top + chart_height + options.label_font_px + 4);
        svg += StrCat({"<text x=\"", Num(bx), "\" y=\"", label_y,
                       "\" font-size=\"", Num(options.label_font_px),
                       "\" transform=\"rotate(30 ", Num(bx), " ", label_y,
                       ")\">", Escape(bar.label), "</text>\n"});
      }
      svg += "</g>\n";
      x += plot_width_px;
    }
  }
  svg += "</svg>\n";
  return svg;
}

Status WriteSvgFile(const core::Multiplot& multiplot,
                    const std::string& path,
                    const SvgRenderOptions& options) {
  std::ofstream out(path);
  if (!out) {
    return Status::Internal("cannot open '" + path + "' for writing");
  }
  out << RenderSvg(multiplot, options);
  return Status::OK();
}

}  // namespace muve::viz
