/// Voice-robustness demo (the paper's Example 1 scenario).
///
/// Repeatedly passes the same spoken question through a noisy simulated
/// recognizer and shows that, even when words get corrupted into
/// near-homophones ("queens" -> "quincy", "heating" -> "heeding"), the
/// multiplot still covers the intended interpretation — while a
/// traditional top-1 pipeline would show the wrong single answer.
///
///   $ ./voice_robustness [num_trials]

#include <cstdio>
#include <string>

#include "common/rng.h"
#include "muve/muve_engine.h"
#include "nlq/translator.h"
#include "viz/render_ascii.h"
#include "workload/datasets.h"

int main(int argc, char** argv) {
  using namespace muve;

  const int trials = argc > 1 ? std::atoi(argv[1]) : 8;

  Rng table_rng(7);
  auto table = workload::Make311Table(30000, &table_rng);
  MuveOptions options;
  options.planner.geometry.width_px = 1536.0;  // Desktop screen.
  options.planner.geometry.max_rows = 2;
  MuveEngine engine(table, options);

  // Ground truth: the user wants this query.
  db::AggregateQuery truth;
  truth.table = "nyc311";
  truth.function = db::AggregateFunction::kCount;
  truth.predicates = {
      db::Predicate::Equals("borough", db::Value("queens")),
      db::Predicate::Equals("complaint_type", db::Value("heating"))};
  const std::string utterance = nlq::VerbalizeQuery(truth);
  std::printf("Intended query: %s\nSpoken as     : \"%s\"\n\n",
              truth.ToSql().c_str(), utterance.c_str());

  speech::SpeechNoiseOptions noise;
  noise.substitution_rate = 0.12;  // A poor microphone day.

  Rng rng(99);
  int top1_correct = 0;
  int multiplot_correct = 0;
  int answered = 0;
  for (int t = 0; t < trials; ++t) {
    auto answer = engine.Ask(Request::Voice(utterance, &rng, noise));
    std::printf("--- trial %d: recognized \"%s\"\n", t + 1,
                answer.ok() ? answer->transcript.c_str() : "(failed)");
    if (!answer.ok()) continue;
    ++answered;

    const std::string truth_key = truth.CanonicalKey();
    const bool top1 = answer->base_query.CanonicalKey() == truth_key;
    bool covered = false;
    for (size_t c = 0; c < answer->candidates.size(); ++c) {
      if (answer->candidates[c].query.CanonicalKey() == truth_key &&
          answer->plan.multiplot.FindCandidate(c).has_value()) {
        covered = true;
        break;
      }
    }
    top1_correct += top1 ? 1 : 0;
    multiplot_correct += covered ? 1 : 0;
    std::printf("    top-1 interpretation %s | multiplot %s\n",
                top1 ? "CORRECT" : "wrong  ",
                covered ? "covers the intended result"
                        : "misses the intended result");
    if (t == 0) {
      std::printf("\n%s\n",
                  viz::RenderMultiplot(answer->plan.multiplot).c_str());
    }
  }

  std::printf(
      "\nSummary over %d answered trials: top-1 correct %d/%d, intended "
      "result on screen %d/%d.\nMUVE turns \"wrong answer\" into \"one "
      "extra glance\".\n",
      answered, top1_correct, answered, multiplot_correct, answered);
  return 0;
}
