#ifndef MUVE_EXEC_ENGINE_H_
#define MUVE_EXEC_ENGINE_H_

#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "common/clock.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "core/candidate.h"
#include "core/multiplot.h"
#include "db/cost_estimator.h"
#include "db/relation.h"
#include "db/snapshot.h"
#include "exec/merger.h"
#include "shard/scatter_gather.h"

namespace muve::exec {

/// Execution-engine configuration.
struct EngineOptions {
  /// Merge similar candidate queries before execution (paper §8.1).
  bool enable_merging = true;
  /// Fixed per-issued-query overhead (parsing, planning, dispatch) added
  /// to the modeled time — the data-size-independent overhead the paper
  /// observes in Fig. 11.
  double per_query_overhead_ms = 2.0;
  /// Worker threads for query execution: 0 picks
  /// hardware_concurrency, 1 runs every scan on the caller (no pool is
  /// created), >= 2 creates a fixed-size shared ThreadPool. Independent
  /// merge units run concurrently (units answer disjoint value slots); a
  /// batch that collapses to a single unit runs the slices of its scan on
  /// the pool instead. Values are byte-identical at every setting.
  size_t num_threads = 0;
  /// Unused; kept until the next benchmark change removes perfbench's
  /// reference.
  size_t cache_capacity = 256;
  /// Remote source of shard partials (dist::Coordinator). Applies only
  /// to full-fraction scans of the engine's primary relation — the
  /// router keeps its own copy of the data, so sampled/degraded scans
  /// and the calibration probe stay local. The gather arithmetic is
  /// unchanged (shard::ScatterGather folds the remote partials in shard
  /// order), so routed values are byte-identical to in-process sharded
  /// execution; dropped shards surface in Execution::shards_dropped.
  /// Must outlive the engine.
  shard::PartialBackend* remote_backend = nullptr;
};

/// Per-call execution controls (request-scoped), the deadline-aware
/// entry into the engine. Default-constructed controls reproduce the
/// original Execute/ExecuteMultiplot behavior exactly.
struct ExecControls {
  /// Budget for the batch. Cancellation is cooperative: the merge unit
  /// answering the base candidate (index 0) always executes to
  /// completion — the degradation ladder bottoms out at a base-query-only
  /// plot, so the base value must always materialize — while every other
  /// unit is checked before it starts and its scan cancelled at partition
  /// granularity; units cut either way are dropped (their candidates'
  /// values stay NaN) rather than blocking the answer.
  Deadline deadline;
  /// See Engine::Execute.
  double sample_fraction = 1.0;
};

/// Result of executing a batch of candidate queries.
struct Execution {
  /// values[i] answers candidate `i` of the set; NaN when not requested.
  std::vector<double> values;
  /// Wall-clock time spent in the storage engine.
  double measured_millis = 0.0;
  /// Measured time plus per-query overheads — the latency MUVE reports.
  double modeled_millis = 0.0;
  /// Queries actually issued (after merging).
  size_t queries_issued = 0;
  /// Optimizer cost units of the issued queries.
  double estimated_cost = 0.0;
  /// Merge units skipped or cancelled because the deadline expired
  /// (deadline-bounded calls only); their candidates' values stay NaN.
  size_t units_dropped = 0;
  /// Bars / plots ExecuteMultiplot pruned because their unit was dropped.
  size_t bars_dropped = 0;
  size_t plots_dropped = 0;
  /// True when the deadline cut this execution short.
  bool deadline_hit = false;
  /// Shard stripes excluded from the merge because their (remote) shard
  /// server could not deliver a partial in time — the answer's values
  /// cover the surviving stripes only. Always 0 for local execution.
  size_t shards_dropped = 0;
  /// Table version of the snapshot every scan of this execution ran
  /// against: one Execute call reads one consistent version even while
  /// a writer appends concurrently, and all values of one answer (every
  /// plot of a multiplot) reflect that single version.
  uint64_t snapshot_version = 0;
};

/// Executes candidate queries against a `db::Relation` with query
/// merging and sampled (approximate) execution. Samples are materialized
/// lazily and cached; sample construction is excluded from reported
/// latencies (a deployed system maintains samples ahead of time).
///
/// Every merge unit's scan goes through shard::ScatterGather over the
/// relation's partition snapshots: a `db::Table` is one partition and
/// takes `db::Executor`'s single-table path unchanged (the oracle the
/// shard differential suite compares against), while a sharded table's
/// shards are scanned and their partial aggregates gathered in shard
/// order.
class Engine {
 public:
  explicit Engine(std::shared_ptr<const db::Relation> relation,
                  EngineOptions options = {});

  /// The backing relation (planning/catalog surface).
  const db::Relation& relation() const { return *relation_; }

  const db::CostEstimator& estimator() const { return estimator_; }
  const EngineOptions& options() const { return options_; }

  /// Executes the candidates in `subset` (indices into `candidates`).
  /// `sample_fraction` < 1 runs against a cached row sample and scales
  /// scale-dependent aggregates (COUNT/SUM) back up.
  Result<Execution> Execute(const core::CandidateSet& candidates,
                            const std::vector<size_t>& subset,
                            double sample_fraction = 1.0);

  /// As above with request-scoped controls; the overload above runs
  /// with an infinite deadline.
  Result<Execution> Execute(const core::CandidateSet& candidates,
                            const std::vector<size_t>& subset,
                            const ExecControls& controls);

  /// Executes every candidate appearing in `multiplot` and fills in the
  /// bar values.
  Result<Execution> ExecuteMultiplot(const core::CandidateSet& candidates,
                                     core::Multiplot* multiplot,
                                     double sample_fraction = 1.0);

  /// As above with request-scoped controls. When the deadline dropped
  /// merge units, the affected bars (still NaN) are pruned from the
  /// multiplot — along with plots losing every bar — so the answer shows
  /// only executed results; counts land in the returned Execution.
  Result<Execution> ExecuteMultiplot(const core::CandidateSet& candidates,
                                     core::Multiplot* multiplot,
                                     const ExecControls& controls);

  /// Predicted execution time (ms) for the candidates in `subset`,
  /// derived from the cost model and a calibration probe.
  double EstimateMillis(const core::CandidateSet& candidates,
                        const std::vector<size_t>& subset) const;

  /// Calibrated throughput: optimizer cost units per millisecond.
  double cost_units_per_ms() const { return cost_units_per_ms_; }

  /// Row sample of the relation (cached by fraction; the relation
  /// itself at fraction >= 1).
  std::shared_ptr<const db::Relation> SampleRelation(double fraction);

  /// The engine's worker pool, or nullptr when running serially
  /// (num_threads resolved to 1). Shared with the planning layer so the
  /// whole pipeline draws from one fixed set of threads.
  ThreadPool* thread_pool() const { return pool_.get(); }

 private:
  /// The one unit loop of Execute: runs the merge units against
  /// `snapshot`, the unit answering the base candidate first and
  /// uncancellable, the rest bounded by the deadline. Fills the values
  /// into `out` and, under a finite deadline, records the drops.
  Status ExecuteUnitsBounded(const std::vector<MergeUnit>& units,
                             const db::ShardedSnapshot& snapshot,
                             const core::CandidateSet& candidates,
                             const ExecControls& controls, Execution* out);

  std::shared_ptr<const db::Relation> relation_;
  EngineOptions options_;
  db::CostEstimator estimator_;
  std::unique_ptr<ThreadPool> pool_;
  double cost_units_per_ms_ = 1.0;
  /// Lazily materialized row samples, keyed by fraction. Guarded by
  /// `samples_mutex_`: concurrent serving requests may share one engine.
  std::mutex samples_mutex_;
  std::map<double, std::shared_ptr<const db::Relation>> samples_;
};

}  // namespace muve::exec

#endif  // MUVE_EXEC_ENGINE_H_
