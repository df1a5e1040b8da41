#include "muve/muve_engine.h"

#include <utility>
#include <vector>

#include "common/clock.h"
#include "common/strings.h"
#include "core/greedy_planner.h"
#include "core/ilp_planner.h"
#include "core/query_template.h"
#include "workload/datasets.h"

namespace muve {
namespace {

/// Splits the request deadline across the front-half stages: each stage
/// receives `weight / remaining_weight` of the budget still left when it
/// starts (translate 10/100, generate 15/90, plan 35/75), so a stage that
/// finishes early rolls its savings forward and execution always gets the
/// full remaining deadline. Built on the request deadline's clock so an
/// injected FakeClock governs the stage budgets too.
Deadline StageBudget(const Deadline& deadline, double weight,
                     double remaining_weight) {
  if (!deadline.IsFinite()) return Deadline::Infinite();
  const double slice =
      deadline.RemainingMillis() * (weight / remaining_weight);
  return Deadline::Tightest(
      deadline, Deadline::AfterMillis(slice, deadline.clock()));
}

}  // namespace

std::string Degradation::Describe() const {
  std::string text;
  switch (rung) {
    case Rung::kExact:
      text = "exact";
      break;
    case Rung::kDegradedPlan:
      text = "degraded-plan";
      break;
    case Rung::kBaseOnly:
      text = "base-only";
      break;
  }
  std::vector<const char*> flags;
  if (candidates_capped) flags.push_back("candidates-capped");
  if (plan_truncated) flags.push_back("plan-truncated");
  if (ilp_fell_back) flags.push_back("ilp-fell-back");
  if (base_only_fallback) flags.push_back("base-only-fallback");
  if (units_dropped > 0) flags.push_back("units-dropped");
  if (shards_dropped > 0) flags.push_back("shards-dropped");
  if (!flags.empty()) {
    text += " [";
    for (size_t i = 0; i < flags.size(); ++i) {
      if (i > 0) text += ',';
      text += flags[i];
    }
    text += ']';
  }
  return text;
}

std::string MuveEngine::NormalizedTranscriptKey(std::string_view text) {
  return Join(nlq::TokenizeUtterance(text), " ");
}

core::Multiplot MuveEngine::BaseOnlyMultiplot(
    const core::CandidateSet& candidates) {
  core::Multiplot multiplot;
  // Reuse the template grouping (Algorithm 2) so the plot carries the
  // same template/title/label the full planner would have shown for the
  // base query. Groups are ordered by descending member mass, so the
  // first group containing candidate #0 is its most representative home.
  const core::TemplateGroups groups = core::GroupByTemplate(candidates);
  for (size_t g = 0; g < groups.size(); ++g) {
    for (size_t m = 0; m < groups.members(g).size(); ++m) {
      if (groups.members(g)[m] != 0) continue;
      core::Plot plot;
      plot.query_template = groups.Template(g);
      core::PlotBar bar;
      bar.candidate_index = 0;
      bar.label = groups.label(g, m);
      bar.highlighted = true;
      plot.bars.push_back(std::move(bar));
      multiplot.rows.resize(1);
      multiplot.rows[0].push_back(std::move(plot));
      return multiplot;
    }
  }
  return multiplot;
}

MuveEngine::MuveEngine(std::shared_ptr<const db::Relation> relation,
                       MuveOptions options)
    : options_(std::move(options)),
      exec_engine_(relation, options_.execution),
      schema_index_(std::make_shared<nlq::SchemaIndex>(
          relation, phonetics::PhoneticIndexOptions{
                        .pool = exec_engine_.thread_pool()})),
      translator_(schema_index_),
      generator_(schema_index_),
      plan_memo_(options_.cache_capacity) {
  // The speech simulator's lexicon: table vocabulary + query stop words.
  std::vector<std::string> lexicon = workload::BuildVocabulary(*relation);
  for (const char* word :
       {"how", "many", "total", "average", "maximum", "minimum", "count",
        "sum", "where", "is", "and", "records", "number", "of"}) {
    lexicon.emplace_back(word);
  }
  speech_ = std::make_unique<speech::SpeechSimulator>(lexicon);
}

PipelineCacheStats MuveEngine::cache_stats() const {
  PipelineCacheStats stats;
  stats.plans = plan_memo_.stats();
  return stats;
}

Result<MuveEngine::Answer> MuveEngine::Ask(const Request& request) {
  // Absorb any vocabulary the table gained since the last request (one
  // atomic compare when nothing was appended), then read the vocabulary
  // generation this request's front half is computed against. Memo
  // entries carry the generation they were computed at and replay only
  // while it is still current, so a front half computed before a
  // concurrent request absorbed new values is never replayed after it.
  schema_index_->SyncWithTable();
  const uint64_t generation = schema_index_->values_absorbed();

  const auto observe = [&request](Request::Stage stage) {
    if (request.stage_observer) request.stage_observer(stage);
  };
  Answer answer;
  Degradation& degradation = answer.degradation;
  const Deadline& deadline = request.deadline;

  if (request.voice) {
    observe(Request::Stage::kAsr);
    StopWatch asr_watch;
    answer.transcript =
        speech_->Transcribe(request.utterance, request.rng, request.noise);
    answer.timings.asr_millis = asr_watch.ElapsedMillis();
  } else {
    answer.transcript = request.transcript;
  }

  const bool use_ilp = request.use_ilp.value_or(options_.use_ilp);
  // A request overriding the engine's planner must neither replay nor
  // fill the compiled-plan memo: its plans would not match what the
  // engine default computes for the same transcript.
  const bool memo_eligible = plan_memo_.enabled() &&
                             !request.bypass_cache &&
                             use_ilp == options_.use_ilp;

  // Compiled-plan memo: a repeated (normalized) transcript skips
  // translation, candidate generation, and planning. Only successful,
  // undegraded pipelines are memoized, and the pipeline up to execution
  // is deterministic in the transcript and the vocabulary, so a hit at
  // the current generation replays exactly what a fresh unconstrained run
  // would compute. Execution always reruns so answers reflect the table's
  // current contents.
  bool replayed = false;
  std::string memo_key;
  if (memo_eligible) {
    memo_key = NormalizedTranscriptKey(answer.transcript);
    PlanMemoEntry memo;
    const auto current = [generation](const PlanMemoEntry& entry) {
      return entry.vocabulary_generation == generation;
    };
    if (plan_memo_.GetIf(memo_key, current, &memo)) {
      answer.base_query = std::move(memo.base_query);
      answer.base_confidence = memo.base_confidence;
      answer.candidates = std::move(memo.candidates);
      answer.plan = std::move(memo.plan);
      replayed = true;
    }
  }

  if (!replayed) {
    // Translation always runs to completion — every rung of the ladder
    // needs the base query — so its overrun flag only documents that the
    // later stages will see already-expired budgets.
    observe(Request::Stage::kTranslate);
    StopWatch translate_watch;
    bool translate_overrun = false;
    MUVE_ASSIGN_OR_RETURN(
        nlq::Translation translation,
        translator_.Translate(answer.transcript,
                              StageBudget(deadline, 10.0, 100.0),
                              &translate_overrun));
    answer.timings.translate_millis = translate_watch.ElapsedMillis();
    answer.base_query = translation.query;
    answer.base_confidence = translation.confidence;

    observe(Request::Stage::kGenerate);
    StopWatch generate_watch;
    nlq::CandidateGenerator::GenerationConstraints constraints;
    constraints.deadline = StageBudget(deadline, 15.0, 90.0);
    bool capped = false;
    answer.candidates =
        generator_.Generate(translation.query, translation.confidence,
                            options_.generation, constraints, &capped);
    degradation.candidates_capped = capped;
    answer.timings.generate_millis = generate_watch.ElapsedMillis();

    observe(Request::Stage::kPlan);
    StopWatch plan_watch;
    core::PlannerConfig planner_config = options_.planner;
    planner_config.deadline = StageBudget(deadline, 35.0, 75.0);
    if (use_ilp) {
      const core::IlpPlanner planner(exec_engine_.thread_pool());
      if (!planner_config.deadline.IsFinite()) {
        // Unbounded request: the exact pre-deadline ILP path (the solve
        // is still limited by PlannerConfig::timeout_ms alone).
        MUVE_ASSIGN_OR_RETURN(
            answer.plan, planner.Plan(answer.candidates, planner_config));
      } else {
        // Deadline-bounded: compute the anytime greedy plan first, then
        // spend what is left of the stage budget improving it with the
        // ILP. A solver timeout falls back to (at worst) greedy quality
        // instead of an empty screen.
        core::GreedyPlanner::Options greedy_options;
        greedy_options.pool = exec_engine_.thread_pool();
        const core::GreedyPlanner greedy(greedy_options);
        MUVE_ASSIGN_OR_RETURN(
            core::PlanResult incumbent,
            greedy.Plan(answer.candidates, planner_config));
        degradation.plan_truncated = incumbent.timed_out;
        if (planner_config.deadline.Expired()) {
          answer.plan = std::move(incumbent);
          answer.plan.timed_out = true;
          degradation.ilp_fell_back = true;
        } else {
          MUVE_ASSIGN_OR_RETURN(
              answer.plan,
              planner.PlanWithHint(answer.candidates, planner_config,
                                   &incumbent.multiplot));
          degradation.ilp_fell_back = answer.plan.timed_out;
        }
      }
    } else {
      core::GreedyPlanner::Options greedy_options;
      greedy_options.pool = exec_engine_.thread_pool();
      const core::GreedyPlanner planner(greedy_options);
      MUVE_ASSIGN_OR_RETURN(
          answer.plan, planner.Plan(answer.candidates, planner_config));
      degradation.plan_truncated = answer.plan.timed_out;
    }
    answer.timings.plan_millis = plan_watch.ElapsedMillis();

    // Bottom rung: planning ran out of time before selecting anything, so
    // synthesize a base-query-only plot — the user still sees the most
    // likely answer rather than an empty screen.
    if (deadline.IsFinite() && answer.plan.multiplot.empty() &&
        answer.candidates.size() > 0 &&
        (degradation.plan_truncated || degradation.ilp_fell_back)) {
      answer.plan.multiplot = BaseOnlyMultiplot(answer.candidates);
      if (!answer.plan.multiplot.empty()) {
        answer.plan.expected_cost = options_.planner.cost_model.ExpectedCost(
            answer.plan.multiplot, answer.candidates);
        degradation.base_only_fallback = true;
      }
    }
  }

  observe(Request::Stage::kExecute);
  StopWatch execute_watch;
  exec::ExecControls controls;
  controls.deadline = deadline;  // Full remaining budget, no stage split.
  MUVE_ASSIGN_OR_RETURN(
      answer.execution,
      exec_engine_.ExecuteMultiplot(answer.candidates,
                                    &answer.plan.multiplot, controls));
  answer.timings.execute_millis = execute_watch.ElapsedMillis();
  degradation.units_dropped = answer.execution.units_dropped;
  degradation.bars_dropped = answer.execution.bars_dropped;
  degradation.plots_dropped = answer.execution.plots_dropped;
  degradation.shards_dropped = answer.execution.shards_dropped;

  const bool front_degraded =
      degradation.candidates_capped || degradation.plan_truncated ||
      degradation.ilp_fell_back || degradation.base_only_fallback;
  if (degradation.base_only_fallback || answer.execution.deadline_hit) {
    degradation.rung = Degradation::Rung::kBaseOnly;
  } else if (front_degraded || degradation.shards_dropped > 0) {
    degradation.rung = Degradation::Rung::kDegradedPlan;
  } else {
    degradation.rung = Degradation::Rung::kExact;
  }

  // Degraded front halves are never memoized (a later unconstrained
  // request must not replay them); execution drops also skip the store
  // because ExecuteMultiplot pruned the plan's unexecuted bars in place.
  if (!replayed && memo_eligible && !front_degraded &&
      !answer.execution.deadline_hit &&
      answer.execution.shards_dropped == 0) {
    PlanMemoEntry memo;
    memo.vocabulary_generation = generation;
    memo.base_query = answer.base_query;
    memo.base_confidence = answer.base_confidence;
    memo.candidates = answer.candidates;
    memo.plan = answer.plan;
    plan_memo_.Put(memo_key, std::move(memo));
  }
  answer.pipeline_millis = answer.timings.PipelineMillis();
  return answer;
}

}  // namespace muve
