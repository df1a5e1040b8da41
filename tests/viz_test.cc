#include <gtest/gtest.h>

#include <cmath>
#include <fstream>

#include "viz/render_ascii.h"
#include "common/strings.h"
#include "viz/render_svg.h"

namespace muve::viz {
namespace {

core::Multiplot SampleMultiplot() {
  core::Multiplot multiplot;
  multiplot.rows.resize(2);
  core::Plot plot_a;
  plot_a.query_template.title = "COUNT(*) WHERE borough = ?";
  plot_a.bars.push_back({0, "brooklyn", true, 120.0, false});
  plot_a.bars.push_back({1, "bronx", false, 60.0, false});
  core::Plot plot_b;
  plot_b.query_template.title = "AVG(open_hours) WHERE borough = 'bronx'";
  plot_b.bars.push_back({2, "AVG", false, 3.25, true});
  multiplot.rows[0].push_back(plot_a);
  multiplot.rows[1].push_back(plot_b);
  return multiplot;
}

TEST(AsciiRenderTest, ContainsTitlesLabelsAndValues) {
  AsciiRenderOptions options;
  options.use_color = false;
  const std::string text = RenderMultiplot(SampleMultiplot(), options);
  EXPECT_NE(text.find("COUNT(*) WHERE borough = ?"), std::string::npos);
  EXPECT_NE(text.find("brooklyn"), std::string::npos);
  EXPECT_NE(text.find("120"), std::string::npos);
  EXPECT_NE(text.find("3.25"), std::string::npos);
  EXPECT_NE(text.find("Row 1"), std::string::npos);
  EXPECT_NE(text.find("Row 2"), std::string::npos);
}

TEST(AsciiRenderTest, HighlightMarkerWithoutColor) {
  AsciiRenderOptions options;
  options.use_color = false;
  const std::string text = RenderMultiplot(SampleMultiplot(), options);
  EXPECT_NE(text.find(" *"), std::string::npos);
  EXPECT_EQ(text.find("\x1b[31m"), std::string::npos);
}

TEST(AsciiRenderTest, AnsiColorWhenEnabled) {
  AsciiRenderOptions options;
  options.use_color = true;
  const std::string text = RenderMultiplot(SampleMultiplot(), options);
  EXPECT_NE(text.find("\x1b[31m"), std::string::npos);
}

TEST(AsciiRenderTest, BarLengthProportionalToValue) {
  AsciiRenderOptions options;
  options.use_color = false;
  options.max_bar_chars = 30;
  const std::string text = RenderMultiplot(SampleMultiplot(), options);
  // brooklyn (120, the max) gets 30 '#', bronx (60) gets 15.
  EXPECT_NE(text.find(std::string(30, '#')), std::string::npos);
  EXPECT_NE(text.find(StrCat({"|", std::string(15, '#'), " "})),
            std::string::npos);
}

TEST(AsciiRenderTest, ApproximateMarker) {
  core::Multiplot multiplot = SampleMultiplot();
  EXPECT_NE(RenderMultiplot(multiplot, {.use_color = false})
                .find("3.25 ~"),
            std::string::npos);
}

TEST(AsciiRenderTest, EmptyMultiplot) {
  core::Multiplot empty;
  empty.rows.resize(1);
  EXPECT_EQ(RenderMultiplot(empty), "(empty multiplot)\n");
}

TEST(AsciiRenderTest, UnexecutedBarsShowQuestionMark) {
  core::Multiplot multiplot = SampleMultiplot();
  multiplot.rows[0][0].bars[0].value = std::nan("");
  const std::string text =
      RenderMultiplot(multiplot, {.use_color = false});
  EXPECT_NE(text.find("?"), std::string::npos);
}

TEST(SvgRenderTest, WellFormedDocument) {
  const std::string svg = RenderSvg(SampleMultiplot());
  EXPECT_EQ(svg.find("<svg"), 0u);
  EXPECT_NE(svg.find("</svg>"), std::string::npos);
  // One rect per bar plus frames and background.
  size_t rects = 0;
  for (size_t pos = svg.find("<rect"); pos != std::string::npos;
       pos = svg.find("<rect", pos + 1)) {
    ++rects;
  }
  EXPECT_GE(rects, 3u + 2u);
}

TEST(SvgRenderTest, HighlightedBarUsesHighlightColor) {
  SvgRenderOptions options;
  const std::string svg = RenderSvg(SampleMultiplot(), options);
  EXPECT_NE(svg.find(options.bar_color), std::string::npos);
  // Row 0 bar 0 is highlighted.
  EXPECT_NE(svg.find(options.highlight_color), std::string::npos);
}

TEST(SvgRenderTest, ApproximateBarUsesApproxColor) {
  core::Multiplot multiplot = SampleMultiplot();
  multiplot.rows[1][0].bars[0].approximate = true;
  multiplot.rows[1][0].bars[0].highlighted = false;
  SvgRenderOptions options;
  const std::string svg = RenderSvg(multiplot, options);
  EXPECT_NE(svg.find(options.approx_color), std::string::npos);
}

TEST(SvgRenderTest, EscapesTitleMarkup) {
  core::Multiplot multiplot = SampleMultiplot();
  multiplot.rows[0][0].query_template.title = "a < b & c > d";
  const std::string svg = RenderSvg(multiplot);
  EXPECT_NE(svg.find("a &lt; b &amp; c &gt; d"), std::string::npos);
  EXPECT_EQ(svg.find("a < b & c > d"), std::string::npos);
}

TEST(SvgRenderTest, WriteSvgFile) {
  const std::string path = ::testing::TempDir() + "/muve_test.svg";
  EXPECT_TRUE(WriteSvgFile(SampleMultiplot(), path).ok());
  std::ifstream in(path);
  EXPECT_TRUE(in.good());
  EXPECT_FALSE(WriteSvgFile(SampleMultiplot(),
                            "/nonexistent_dir_zzz/out.svg")
                   .ok());
}

}  // namespace
}  // namespace muve::viz
