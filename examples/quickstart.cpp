/// Quickstart: the full MUVE pipeline in ~40 lines.
///
/// Builds a synthetic NYC-311 table, asks a natural-language question,
/// and prints the resulting multiplot: results for the most likely query
/// interpretation AND its phonetically similar alternatives, with the
/// most likely results highlighted.
///
///   $ ./quickstart ["your question"]

#include <cstdio>
#include <string>

#include "common/rng.h"
#include "muve/muve_engine.h"
#include "viz/render_ascii.h"
#include "viz/render_svg.h"
#include "workload/datasets.h"

int main(int argc, char** argv) {
  using namespace muve;

  // 1. A table to query (any single db::Table works; see src/db/).
  Rng rng(42);
  std::shared_ptr<db::Table> table = workload::Make311Table(50000, &rng);

  // 2. The engine: schema-linked translator, phonetic candidate
  //    generation, visualization planner, merged execution.
  MuveEngine engine(table);

  // 3. Ask.
  const std::string question =
      argc > 1 ? argv[1] : "how many heating complaints in brooklyn";
  std::printf("Q: %s\n\n", question.c_str());

  auto answer = engine.Ask(Request::Text(question));
  if (!answer.ok()) {
    std::printf("MUVE could not answer: %s\n",
                answer.status().ToString().c_str());
    return 1;
  }

  std::printf("Most likely SQL: %s\n", answer->base_query.ToSql().c_str());
  std::printf("Candidate interpretations: %zu (top 5):\n",
              answer->candidates.size());
  for (size_t i = 0; i < answer->candidates.size() && i < 5; ++i) {
    std::printf("  %.3f  %s\n", answer->candidates[i].probability,
                answer->candidates[i].query.ToSql().c_str());
  }

  std::printf("\nMultiplot (expected disambiguation cost %.0f ms, "
              "planned in %.1f ms, executed as %zu queries):\n\n",
              answer->plan.expected_cost, answer->plan.optimize_millis,
              answer->execution.queries_issued);
  std::printf("%s", viz::RenderMultiplot(answer->plan.multiplot).c_str());

  // 4. Optional: browser-style SVG output, like the paper's Figure 2.
  if (viz::WriteSvgFile(answer->plan.multiplot, "quickstart.svg").ok()) {
    std::printf("Wrote quickstart.svg\n");
  }
  return 0;
}
