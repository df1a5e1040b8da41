#ifndef MUVE_MUVE_MUVE_ENGINE_H_
#define MUVE_MUVE_MUVE_ENGINE_H_

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "cache/lru_cache.h"
#include "cache/stats.h"
#include "common/clock.h"
#include "common/rng.h"
#include "common/status.h"
#include "core/candidate.h"
#include "core/planner.h"
#include "db/relation.h"
#include "exec/engine.h"
#include "nlq/candidate_generator.h"
#include "nlq/schema_index.h"
#include "nlq/translator.h"
#include "speech/speech_simulator.h"

namespace muve {

/// Top-level configuration of a MuveEngine.
///
/// Thread count flows through `execution.num_threads` (0 =
/// hardware_concurrency, 1 = exact serial pipeline): the execution
/// engine owns one fixed-size ThreadPool sized accordingly and shares it
/// with the greedy planner, so the whole pipeline draws from a single
/// set of worker threads.
struct MuveOptions {
  core::PlannerConfig planner;
  nlq::CandidateGeneratorOptions generation;
  exec::EngineOptions execution;
  /// Plan with the ILP solver instead of the greedy solver.
  bool use_ilp = false;
  /// Entries in the compiled-plan memo, the pipeline's one front-half
  /// cache. 0 disables it — every query takes the exact uncached path.
  size_t cache_capacity = 256;
};

/// Hit/miss/eviction counters of the pipeline's caches.
struct PipelineCacheStats {
  /// Unused; kept until the next benchmark change removes perfbench's
  /// reference.
  cache::StatsSnapshot results;
  /// Unused; kept until the next benchmark change removes perfbench's
  /// reference.
  cache::StatsSnapshot candidates;
  cache::StatsSnapshot plans;  ///< Compiled-plan memo.
};

/// One serving request: the input (recognized text, or a clean utterance
/// routed through the simulated recognizer) plus request-scoped controls.
/// Default-constructed controls — infinite deadline, no overrides — run
/// the exact unbounded pipeline.
struct Request {
  /// Pipeline stages, in execution order. kAsr runs only for voice
  /// requests; kTranslate/kGenerate/kPlan are skipped on a plan-memo hit.
  enum class Stage { kAsr, kTranslate, kGenerate, kPlan, kExecute };

  /// Recognized text (text mode; ignored when `voice`).
  std::string transcript;
  /// Voice mode: `utterance` passes through the simulated recognizer
  /// (driven by `rng` + `noise`) before translation.
  bool voice = false;
  std::string utterance;
  speech::SpeechNoiseOptions noise;
  Rng* rng = nullptr;  ///< Required in voice mode; non-owning.

  /// The tenant this request bills against. Ignored by MuveEngine itself
  /// (one engine serves one logical database); the serving layer keys
  /// admission quotas, weighted fair queueing, and per-tenant stats on
  /// it. Empty means the default tenant.
  std::string tenant_id;

  /// End-to-end answer deadline. Infinite (the default) runs the exact
  /// unbounded pipeline; a finite deadline is split across stages and the
  /// answer degrades down the ladder exact -> degraded plan -> base-only
  /// plot rather than running late (Answer::degradation reports the rung).
  Deadline deadline;
  /// Per-request planner override; unset inherits MuveOptions::use_ilp.
  /// An overriding request never reads or fills the compiled-plan memo
  /// (its plans would not replay for the engine default).
  std::optional<bool> use_ilp;
  /// Skip the compiled-plan memo for this request, reads and writes
  /// alike.
  bool bypass_cache = false;
  /// Test hook, invoked at entry of each stage that runs (before any of
  /// its work). Deadline tests advance a FakeClock here to force expiry
  /// inside an exact stage.
  std::function<void(Stage)> stage_observer;

  /// A text request with default controls.
  static Request Text(std::string_view text) {
    Request request;
    request.transcript = std::string(text);
    return request;
  }

  /// A voice request with default controls.
  static Request Voice(std::string_view utterance, Rng* rng,
                       const speech::SpeechNoiseOptions& noise = {}) {
    Request request;
    request.voice = true;
    request.utterance = std::string(utterance);
    request.rng = rng;
    request.noise = noise;
    return request;
  }
};

/// Wall-clock milliseconds spent in each pipeline stage of one request.
/// Stages that did not run (ASR for text requests, the front half on a
/// plan-memo hit) report 0.
struct StageTimings {
  double asr_millis = 0.0;
  double translate_millis = 0.0;
  double generate_millis = 0.0;
  double plan_millis = 0.0;
  double execute_millis = 0.0;

  /// Sum over the core pipeline (ASR excluded — it is upstream of the
  /// pipeline proper, mirroring a deployed recognizer).
  double PipelineMillis() const {
    return translate_millis + generate_millis + plan_millis +
           execute_millis;
  }
};

/// How (and how far) one answer degraded under its deadline.
struct Degradation {
  /// The degradation ladder, best rung first.
  enum class Rung {
    kExact = 0,         ///< Full pipeline, nothing cut.
    kDegradedPlan = 1,  ///< Reduced candidates and/or truncated planning.
    kBaseOnly = 2,      ///< Only the base query's result is guaranteed.
  };

  Rung rung = Rung::kExact;
  /// Candidate expansion stopped early (distribution is a capped subset).
  bool candidates_capped = false;
  /// Greedy planning returned its best-so-far plan on expiry.
  bool plan_truncated = false;
  /// ILP ran out of budget and the greedy incumbent (or less) was kept.
  bool ilp_fell_back = false;
  /// Planning produced no multiplot in time; a base-query-only plot was
  /// synthesized so the user still sees the most likely answer.
  bool base_only_fallback = false;
  /// Execution-stage drops (see exec::Execution).
  size_t units_dropped = 0;
  size_t bars_dropped = 0;
  size_t plots_dropped = 0;
  /// Remote shard stripes that missed the deadline during routed
  /// execution: the plotted values cover the surviving stripes only
  /// (see exec::Execution::shards_dropped). Always 0 in-process.
  size_t shards_dropped = 0;

  bool degraded() const { return rung != Rung::kExact; }

  /// e.g. "exact", "degraded-plan [plan-truncated]",
  /// "base-only [candidates-capped,units-dropped]".
  std::string Describe() const;
};

/// The complete MUVE pipeline (paper Fig. 1) over one table:
/// (noisy) text -> base SQL (text-to-SQL) -> probability distribution over
/// candidate queries (text-to-multi-SQL) -> multiplot selection
/// (visualization planner) -> merged query execution -> multiplot with
/// results.
///
/// Ask() serves one Request end to end under its deadline, and may be
/// called concurrently: one engine serves every session of a server, and
/// its plan memo is shared by all of them.
class MuveEngine {
 public:
  /// The full answer to one voice query.
  struct Answer {
    std::string transcript;         ///< Text after (simulated) ASR.
    db::AggregateQuery base_query;  ///< Most likely translation.
    double base_confidence = 0.0;
    core::CandidateSet candidates;  ///< Probability distribution.
    core::PlanResult plan;          ///< Multiplot with filled-in values.
    exec::Execution execution;
    StageTimings timings;           ///< Per-stage wall-clock breakdown.
    Degradation degradation;        ///< Deadline degradation report.
    /// Core pipeline time (= timings.PipelineMillis(); ASR excluded).
    double pipeline_millis = 0.0;
  };

  /// Over a single or sharded table: merge-unit scans go through
  /// exec::Engine's partition seam, and the whole front half
  /// (translation, candidate generation, planning) reads only the
  /// Relation catalog surface.
  explicit MuveEngine(std::shared_ptr<const db::Relation> relation,
                      MuveOptions options = {});

  /// Serves one request end to end. With an infinite deadline and default
  /// controls the answer is byte-identical at every thread count and with
  /// or without the plan memo; under a finite deadline the
  /// answer returns within the deadline plus at most one executor
  /// partition grain, degraded down the ladder
  /// exact -> degraded plan -> base-query-only plot as needed
  /// (Answer::degradation says which rung and why).
  Result<Answer> Ask(const Request& request);

  /// The backing relation (single or sharded), catalog surface only.
  const db::Relation& relation() const { return exec_engine_.relation(); }
  const nlq::SchemaIndex& schema_index() const { return *schema_index_; }
  const MuveOptions& options() const { return options_; }

  /// Counters of the plan memo (all zero when disabled via
  /// cache_capacity = 0).
  PipelineCacheStats cache_stats() const;

  /// The translator's token stream of a transcript (nlq::TokenizeUtterance)
  /// joined by single spaces: transcripts with equal keys translate (and
  /// therefore plan) identically. Public because the serving layer keys
  /// shared-work coalescing on it — two concurrent requests with equal
  /// keys compute identical answers over the same table and engine
  /// options, so one pipeline execution can serve both.
  static std::string NormalizedTranscriptKey(std::string_view text);

 private:
  /// One memoized pipeline front half: everything Ask computes before
  /// execution, keyed on the normalized transcript. Replaying a hit skips
  /// translation, candidate generation, and planning; execution always
  /// reruns so answers reflect current data.
  /// Degraded front halves are never memoized — a later unconstrained
  /// request must not replay a capped distribution or truncated plan.
  struct PlanMemoEntry {
    /// SchemaIndex::values_absorbed() read before this front half was
    /// computed. The entry replays only while no value has been absorbed
    /// since: a new value can change the translation and the candidates,
    /// while a plain append cannot.
    uint64_t vocabulary_generation = 0;
    db::AggregateQuery base_query;
    double base_confidence = 0.0;
    core::CandidateSet candidates;
    core::PlanResult plan;
  };

  /// Bottom rung of the ladder: a single plot showing only the base
  /// query's bar (candidate #0, highlighted), synthesized when planning
  /// ran out of time before selecting any multiplot.
  static core::Multiplot BaseOnlyMultiplot(
      const core::CandidateSet& candidates);

  MuveOptions options_;
  // The execution engine owns the shared ThreadPool, so it is constructed
  // first and the schema index (whose phonetic lookups score candidates on
  // that pool) after it. Mutable pointer: Ask() syncs the index with the
  // table's vocabulary; translator/generator hold const views.
  exec::Engine exec_engine_;
  std::shared_ptr<nlq::SchemaIndex> schema_index_;
  nlq::Translator translator_;
  nlq::CandidateGenerator generator_;
  std::unique_ptr<speech::SpeechSimulator> speech_;
  cache::LruCache<std::string, PlanMemoEntry> plan_memo_;
};

}  // namespace muve

#endif  // MUVE_MUVE_MUVE_ENGINE_H_
