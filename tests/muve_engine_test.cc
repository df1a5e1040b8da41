#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <functional>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/strings.h"
#include "muve/muve_engine.h"
#include "nlq/translator.h"
#include "testing/sanitizer.h"
#include "viz/render_ascii.h"
#include "workload/datasets.h"
#include "workload/query_generator.h"

namespace muve {
namespace {

std::shared_ptr<db::Table> Table311() {
  Rng rng(777);
  return workload::Make311Table(10000, &rng);
}

TEST(MuveEngineTest, TextRequestEndToEnd) {
  MuveEngine engine(Table311());
  auto answer = engine.Ask(Request::Text("how many complaints in brooklyn"));
  ASSERT_TRUE(answer.ok());
  EXPECT_EQ(answer->base_query.function, db::AggregateFunction::kCount);
  EXPECT_GE(answer->candidates.size(), 2u);
  EXPECT_FALSE(answer->plan.multiplot.empty());
  // Every bar in the multiplot carries an executed value.
  answer->plan.multiplot.ForEachPlot([](const core::Plot& plot) {
    for (const core::PlotBar& bar : plot.bars) {
      EXPECT_FALSE(std::isnan(bar.value));
    }
  });
  // The base interpretation must be on display.
  EXPECT_TRUE(answer->plan.multiplot.FindCandidate(0).has_value());
  EXPECT_GT(answer->pipeline_millis, 0.0);
}

TEST(MuveEngineTest, MultiplotValuesMatchDirectExecution) {
  auto table = Table311();
  MuveEngine engine(table);
  auto answer = engine.Ask(Request::Text("how many complaints in brooklyn"));
  ASSERT_TRUE(answer.ok());
  auto direct = db::Executor::Execute(*table, answer->base_query);
  ASSERT_TRUE(direct.ok());
  auto location = answer->plan.multiplot.FindCandidate(0);
  ASSERT_TRUE(location.has_value());
  const core::PlotBar& bar =
      answer->plan.multiplot.rows[location->row][location->plot]
          .bars[location->bar];
  EXPECT_DOUBLE_EQ(bar.value, direct->value);
}

TEST(MuveEngineTest, VoiceRequestWithNoiseStillAnswers) {
  MuveEngine engine(Table311());
  Rng rng(1);
  speech::SpeechNoiseOptions noise;
  noise.substitution_rate = 0.3;
  int answered = 0;
  for (int i = 0; i < 10; ++i) {
    auto answer = engine.Ask(Request::Voice("how many noise complaints in brooklyn",
                                  &rng, noise));
    if (answer.ok()) ++answered;
  }
  // Noise may occasionally destroy the utterance beyond recognition, but
  // most attempts must go through.
  EXPECT_GE(answered, 7);
}

TEST(MuveEngineTest, IlpModePlansValidMultiplots) {
  if (testing::kSanitizerBuild) {
    GTEST_SKIP() << "wall-clock solver budget is meaningless under the "
                    "~10x sanitizer slowdown";
  }
  MuveOptions options;
  options.use_ilp = true;
  options.planner.timeout_ms = 1500.0;
  options.generation.max_candidates = 12;  // Keep the ILP small.
  MuveEngine engine(Table311(), options);
  auto answer = engine.Ask(Request::Text("how many complaints in brooklyn"));
  ASSERT_TRUE(answer.ok());
  EXPECT_FALSE(answer->plan.multiplot.empty());
  EXPECT_TRUE(
      answer->plan.multiplot.Validate(options.planner.geometry).ok());
}

TEST(MuveEngineTest, AnswerRendersAsAscii) {
  MuveEngine engine(Table311());
  auto answer = engine.Ask(Request::Text("average open hours for noise in queens"));
  ASSERT_TRUE(answer.ok());
  const std::string text = viz::RenderMultiplot(
      answer->plan.multiplot, {.use_color = false});
  EXPECT_NE(text.find("Row 1"), std::string::npos);
}

TEST(MuveEngineTest, RejectsUnlinkableUtterance) {
  MuveEngine engine(Table311());
  EXPECT_FALSE(engine.Ask(Request::Text("zzz qqq xxx")).ok());
}

// ---------------------------------------------------------------------
// Voice-request error paths.
// ---------------------------------------------------------------------

TEST(MuveEngineTest, VoiceRequestUntranslatableTranscriptFailsGracefully) {
  MuveEngine engine(Table311());
  Rng rng(42);
  // Zero noise: the transcript is the utterance verbatim, and the
  // utterance links to nothing in the schema. The pipeline must surface
  // a translation error, not crash or fabricate a query.
  speech::SpeechNoiseOptions no_noise;
  no_noise.substitution_rate = 0.0;
  no_noise.deletion_rate = 0.0;
  auto answer = engine.Ask(Request::Voice("zzz qqq xxx", &rng, no_noise));
  EXPECT_FALSE(answer.ok());
  EXPECT_FALSE(answer.status().message().empty());
}

TEST(MuveEngineTest, VoiceRequestEmptyCandidateSetYieldsEmptyMultiplot) {
  // max_candidates = 0 leaves the generator with nothing to offer. The
  // planner and execution engine must both accept the empty set: the
  // answer succeeds with an empty multiplot rather than erroring out.
  MuveOptions options;
  options.generation.max_candidates = 0;
  MuveEngine engine(Table311(), options);
  Rng rng(43);
  speech::SpeechNoiseOptions no_noise;
  no_noise.substitution_rate = 0.0;
  no_noise.deletion_rate = 0.0;
  auto answer =
      engine.Ask(Request::Voice("how many complaints in brooklyn", &rng, no_noise));
  ASSERT_TRUE(answer.ok());
  EXPECT_TRUE(answer->candidates.empty());
  EXPECT_TRUE(answer->plan.multiplot.empty());
  EXPECT_TRUE(answer->execution.values.empty());
}

TEST(MuveEngineTest, VoiceRequestIlpTimeoutFallsBackToIncumbent) {
  // An absurdly small ILP budget forces the deadline before proven
  // optimality. The planner must return its warm-start incumbent (never
  // an error), flag timed_out, and the multiplot must still validate.
  MuveOptions options;
  options.use_ilp = true;
  options.planner.timeout_ms = 0.05;
  options.generation.max_candidates = 12;
  MuveEngine engine(Table311(), options);
  Rng rng(44);
  speech::SpeechNoiseOptions no_noise;
  no_noise.substitution_rate = 0.0;
  no_noise.deletion_rate = 0.0;
  auto answer =
      engine.Ask(Request::Voice("how many complaints in brooklyn", &rng, no_noise));
  ASSERT_TRUE(answer.ok());
  EXPECT_TRUE(answer->plan.timed_out);
  EXPECT_TRUE(
      answer->plan.multiplot.Validate(options.planner.geometry).ok());
}

TEST(MuveEngineTest, AmbiguousQueryCoversMultipleInterpretations) {
  // "heating" has the deliberate near-homophone "heeding": both
  // interpretations should make it into the multiplot.
  MuveEngine engine(Table311());
  auto answer = engine.Ask(Request::Text("how many heating complaints"));
  ASSERT_TRUE(answer.ok());
  bool heating_exists = false;
  bool heeding_exists = false;
  bool heating_shown = false;
  bool heeding_shown = false;
  for (size_t i = 0; i < answer->candidates.size(); ++i) {
    for (const db::Predicate& predicate :
         answer->candidates[i].query.predicates) {
      if (predicate.values.empty() || !predicate.values[0].is_string()) {
        continue;
      }
      const bool shown =
          answer->plan.multiplot.FindCandidate(i).has_value();
      if (predicate.values[0].AsString() == "heating") {
        heating_exists = true;
        heating_shown |= shown;
      }
      if (predicate.values[0].AsString() == "heeding") {
        heeding_exists = true;
        heeding_shown |= shown;
      }
    }
  }
  ASSERT_TRUE(heating_exists);
  ASSERT_TRUE(heeding_exists);
  EXPECT_TRUE(heating_shown);
  EXPECT_TRUE(heeding_shown);
}

// ---------------------------------------------------------------------
// Request serving API.
// ---------------------------------------------------------------------

TEST(MuveEngineTest, StageTimingsSumToPipelineMillis) {
  MuveEngine engine(Table311());
  auto answer = engine.Ask(Request::Text("how many complaints in brooklyn"));
  ASSERT_TRUE(answer.ok());
  EXPECT_EQ(answer->timings.asr_millis, 0.0);  // Text request: no ASR.
  EXPECT_GT(answer->timings.translate_millis, 0.0);
  EXPECT_GT(answer->timings.execute_millis, 0.0);
  EXPECT_DOUBLE_EQ(answer->pipeline_millis,
                   answer->timings.PipelineMillis());

  Rng rng(7);
  auto voiced = engine.Ask(Request::Voice("how many complaints in brooklyn", &rng));
  ASSERT_TRUE(voiced.ok());
  EXPECT_GE(voiced->timings.asr_millis, 0.0);
  // ASR stays out of the pipeline figure (it is upstream of MUVE).
  EXPECT_DOUBLE_EQ(voiced->pipeline_millis,
                   voiced->timings.PipelineMillis());
}

TEST(MuveEngineTest, UseIlpOverrideNeverTouchesPlanMemo) {
  MuveOptions options;
  options.planner.timeout_ms = 1500.0;
  options.generation.max_candidates = 12;
  MuveEngine engine(Table311(), options);  // Engine default: greedy.

  Request request = Request::Text("how many complaints in brooklyn");
  request.use_ilp = true;
  auto first = engine.Ask(request);
  ASSERT_TRUE(first.ok());
  auto second = engine.Ask(request);
  ASSERT_TRUE(second.ok());
  // Overriding requests neither probe nor fill the memo: its plans
  // would not replay correctly for the engine's default planner.
  EXPECT_EQ(engine.cache_stats().plans.lookups(), 0u);

  // The engine default still memoizes as before.
  auto classic = engine.Ask(Request::Text("how many complaints in brooklyn"));
  ASSERT_TRUE(classic.ok());
  auto replay = engine.Ask(Request::Text("how many complaints in brooklyn"));
  ASSERT_TRUE(replay.ok());
  EXPECT_EQ(engine.cache_stats().plans.hits, 1u);
}

TEST(MuveEngineTest, BypassCacheLeavesPlanMemoCold) {
  MuveEngine engine(Table311());
  Request request = Request::Text("how many complaints in brooklyn");
  request.bypass_cache = true;
  auto first = engine.Ask(request);
  auto second = engine.Ask(request);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(engine.cache_stats().plans.lookups(), 0u);
  // Both runs took the exact uncached path: identical answers.
  EXPECT_EQ(first->base_query.CanonicalKey(),
            second->base_query.CanonicalKey());
  ASSERT_EQ(first->execution.values.size(),
            second->execution.values.size());
  for (size_t i = 0; i < first->execution.values.size(); ++i) {
    const bool both_nan = std::isnan(first->execution.values[i]) &&
                          std::isnan(second->execution.values[i]);
    EXPECT_TRUE(both_nan ||
                first->execution.values[i] == second->execution.values[i]);
  }
}

// ---------------------------------------------------------------------
// Concurrency: Ask must be safe from many threads, against one shared
// engine (one serving session) and against per-thread engines over one
// shared table (distinct sessions). scripts/check.sh reruns this suite
// under ThreadSanitizer, which is where these tests earn their keep.
// ---------------------------------------------------------------------

/// Answer digest rich enough to catch cross-thread corruption: the base
/// translation plus the fully rendered multiplot (which bakes in plan
/// structure and every executed value).
std::string AnswerDigest(const MuveEngine::Answer& answer) {
  std::ostringstream out;
  out << answer.base_query.CanonicalKey() << "|"
      << answer.candidates.size() << "|"
      << viz::RenderMultiplot(answer.plan.multiplot, viz::AsciiRenderOptions());
  return out.str();
}

/// Utterances guaranteed translatable: verbalizations of random queries
/// against the table itself.
std::vector<std::string> StressUtterances(const db::Table& table,
                                          size_t count, uint64_t seed) {
  Rng rng(seed);
  std::vector<std::string> utterances;
  while (utterances.size() < count) {
    auto query = workload::RandomQuery(table, &rng);
    if (!query.ok()) continue;
    utterances.push_back(nlq::VerbalizeQuery(query.value()));
  }
  return utterances;
}

/// Runs `num_threads` callers against `make_engine(thread)` (shared or
/// per-thread engines) and checks every answer against the serial
/// reference digests. gtest assertions are not thread-safe, so workers
/// record mismatches and the main thread asserts.
void StressAsk(const std::vector<std::string>& utterances,
               const std::vector<std::string>& expected,
               size_t num_threads, size_t iters,
               const std::function<MuveEngine*(size_t)>& engine_for) {
  std::mutex failures_mutex;
  std::vector<std::string> failures;
  std::vector<std::thread> callers;
  callers.reserve(num_threads);
  for (size_t t = 0; t < num_threads; ++t) {
    callers.emplace_back([&, t] {
      MuveEngine* engine = engine_for(t);
      for (size_t i = 0; i < iters; ++i) {
        const size_t pick = (t + i) % utterances.size();
        auto answer = engine->Ask(Request::Text(utterances[pick]));
        std::string failure;
        if (!answer.ok()) {
          failure = StrCat({"thread ", std::to_string(t), ": ",
                            answer.status().ToString()});
        } else if (AnswerDigest(*answer) != expected[pick]) {
          failure = StrCat({"thread ", std::to_string(t),
                            ": digest mismatch on \"", utterances[pick], "\""});
        }
        if (!failure.empty()) {
          std::lock_guard<std::mutex> lock(failures_mutex);
          failures.push_back(std::move(failure));
        }
      }
    });
  }
  for (std::thread& caller : callers) caller.join();
  for (const std::string& failure : failures) ADD_FAILURE() << failure;
}

TEST(MuveEngineConcurrencyTest, SharedEngineConcurrentAskMatchesSerial) {
  auto table = Table311();
  MuveOptions options;
  options.execution.num_threads = 2;  // Nested pool under concurrent callers.
  const auto utterances = StressUtterances(*table, 5, 42);

  MuveEngine reference(table, options);
  std::vector<std::string> expected;
  for (const std::string& utterance : utterances) {
    auto answer = reference.Ask(Request::Text(utterance));
    ASSERT_TRUE(answer.ok()) << utterance;
    expected.push_back(AnswerDigest(*answer));
  }

  const size_t iters = testing::kSanitizerBuild ? 3 : 6;
  for (size_t num_threads : {size_t{2}, size_t{8}}) {
    // One engine = one serving session: all callers share its caches,
    // plan memo, and executor.
    MuveEngine shared(table, options);
    StressAsk(utterances, expected, num_threads, iters,
              [&shared](size_t) { return &shared; });
  }
}

TEST(MuveEngineConcurrencyTest, DistinctEnginesConcurrentAskMatchesSerial) {
  auto table = Table311();
  MuveOptions options;
  options.execution.num_threads = 1;  // Serving-style serial sessions.
  const auto utterances = StressUtterances(*table, 5, 43);

  MuveEngine reference(table, options);
  std::vector<std::string> expected;
  for (const std::string& utterance : utterances) {
    auto answer = reference.Ask(Request::Text(utterance));
    ASSERT_TRUE(answer.ok()) << utterance;
    expected.push_back(AnswerDigest(*answer));
  }

  const size_t iters = testing::kSanitizerBuild ? 3 : 6;
  for (size_t num_threads : {size_t{2}, size_t{8}}) {
    // One engine per caller, all over one shared (read-only) table —
    // the distinct-sessions shape the serving front end runs.
    std::vector<std::unique_ptr<MuveEngine>> engines;
    for (size_t t = 0; t < num_threads; ++t) {
      engines.push_back(std::make_unique<MuveEngine>(table, options));
    }
    StressAsk(utterances, expected, num_threads, iters,
              [&engines](size_t t) { return engines[t].get(); });
  }
}

TEST(MuveEngineConcurrencyTest, SharedEngineConcurrentVoiceAsk) {
  // Voice requests with per-thread RNGs against one shared engine: the
  // ASR stage must not race across callers. Noise makes answers
  // caller-dependent, so this checks safety, not byte-identity.
  auto table = Table311();
  MuveOptions options;
  options.execution.num_threads = 2;
  MuveEngine shared(table, options);
  speech::SpeechNoiseOptions noise;
  noise.substitution_rate = 0.2;

  std::atomic<int> answered{0};
  std::vector<std::thread> callers;
  const size_t num_threads = 4;
  const size_t iters = testing::kSanitizerBuild ? 3 : 6;
  for (size_t t = 0; t < num_threads; ++t) {
    callers.emplace_back([&, t] {
      Rng rng(1000 + t);
      for (size_t i = 0; i < iters; ++i) {
        auto answer = shared.Ask(Request::Voice(
            "how many noise complaints in brooklyn", &rng, noise));
        if (answer.ok()) answered.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (std::thread& caller : callers) caller.join();
  // Noise occasionally destroys the utterance; most asks must succeed.
  EXPECT_GE(answered.load(),
            static_cast<int>(num_threads * iters / 2));
}

}  // namespace
}  // namespace muve
