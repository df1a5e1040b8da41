/// Interactive NYC-311 explorer: type natural-language questions, get
/// multiplots. A terminal-flavoured version of the paper's browser demo.
///
///   $ ./nyc311_explorer            # interactive REPL
///   $ ./nyc311_explorer --demo     # scripted tour (no stdin needed)
///
/// REPL commands:
///   :sql        show the candidate SQL queries of the last answer
///   :svg FILE   export the last multiplot as SVG
///   :ilp        toggle ILP planning (default: greedy)
///   :quit       exit

#include <cstdio>
#include <iostream>
#include <string>

#include "common/rng.h"
#include "common/strings.h"
#include "muve/muve_engine.h"
#include "viz/render_ascii.h"
#include "viz/render_svg.h"
#include "workload/datasets.h"

namespace {

void PrintAnswer(const muve::MuveEngine::Answer& answer) {
  std::printf("\n%s",
              muve::viz::RenderMultiplot(answer.plan.multiplot).c_str());
  std::printf("(%zu interpretations considered, %zu db queries issued, "
              "%.1f ms end-to-end)\n\n",
              answer.candidates.size(), answer.execution.queries_issued,
              answer.pipeline_millis);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace muve;

  const bool demo = argc > 1 && std::string(argv[1]) == "--demo";

  std::printf("Loading synthetic NYC 311 data...\n");
  Rng rng(2021);
  auto table = workload::Make311Table(100000, &rng);
  MuveOptions options;
  options.planner.geometry.width_px = 1280.0;
  MuveEngine engine(table, options);

  std::printf("Schema: nyc311(");
  for (size_t c = 0; c < table->num_columns(); ++c) {
    std::printf("%s%s", c > 0 ? ", " : "", table->spec(c).name.c_str());
  }
  std::printf(")\n");
  std::printf("Ask things like: \"how many heating complaints in "
              "brooklyn\", \"average open hours for noise\".\n\n");

  std::optional<MuveEngine::Answer> last;
  auto handle = [&](const std::string& line) {
    const std::string text = Trim(line);
    if (text.empty()) return true;
    if (text == ":quit" || text == ":q") return false;
    if (text == ":sql") {
      if (!last) {
        std::printf("no answer yet\n");
        return true;
      }
      for (size_t i = 0; i < last->candidates.size(); ++i) {
        std::printf("%6.3f  %s\n", last->candidates[i].probability,
                    last->candidates[i].query.ToSql().c_str());
      }
      return true;
    }
    if (StartsWith(text, ":svg")) {
      if (!last) {
        std::printf("no answer yet\n");
        return true;
      }
      const std::string path =
          text.size() > 5 ? Trim(text.substr(4)) : "multiplot.svg";
      const Status st =
          viz::WriteSvgFile(last->plan.multiplot, path);
      std::printf("%s\n", st.ok() ? ("wrote " + path).c_str()
                                  : st.ToString().c_str());
      return true;
    }
    auto answer = engine.Ask(Request::Text(text));
    if (!answer.ok()) {
      std::printf("Sorry, I could not interpret that: %s\n",
                  answer.status().ToString().c_str());
      return true;
    }
    last = std::move(*answer);
    PrintAnswer(*last);
    return true;
  };

  if (demo) {
    const char* script[] = {
        "how many heating complaints in brooklyn",
        "average open hours for noise in queens",
        "maximum open hours where agency is nypd",
        ":sql",
        "how many water leak complaints",
    };
    for (const char* line : script) {
      std::printf("muve> %s\n", line);
      handle(line);
    }
    return 0;
  }

  std::string line;
  std::printf("muve> ");
  while (std::getline(std::cin, line)) {
    if (!handle(line)) break;
    std::printf("muve> ");
  }
  return 0;
}
