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
#include "db/table.h"
#include "exec/merger.h"
#include "shard/scatter_gather.h"
#include "shard/sharded_table.h"

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
  /// to full-fraction scans of a sharded engine's primary table — the
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

/// The scan target of one execution batch: a consistent snapshot of
/// either a single table or every shard of a sharded table. One target
/// is taken per Execute call, so all values of one answer reflect one
/// version.
struct ScanTarget {
  db::TableSnapshot single;
  shard::ShardedSnapshot sharded;

  bool is_sharded() const { return !sharded.shards.empty(); }
  uint64_t version() const {
    return is_sharded() ? sharded.version : single.version();
  }
};

/// Executes candidate queries against a table — single or sharded — with
/// query merging and sampled (approximate) execution. Samples are
/// materialized lazily and cached; sample construction is excluded from
/// reported latencies (a deployed system maintains samples ahead of
/// time).
///
/// With a sharded backing store, each merge unit's scan scatters over
/// the shards and gathers partial aggregates in shard order
/// (shard::ScatterGather). A one-shard sharded table takes the
/// single-table code path unchanged — the oracle the shard differential
/// suite compares against.
class Engine {
 public:
  explicit Engine(std::shared_ptr<const db::Table> table,
                  EngineOptions options = {});
  explicit Engine(std::shared_ptr<const shard::ShardedTable> table,
                  EngineOptions options = {});

  /// The backing relation (planning/catalog surface), either kind.
  const db::Relation& relation() const { return *relation_; }
  bool is_sharded() const { return sharded_ != nullptr; }

  /// The single backing table. Only valid on unsharded engines; sharded
  /// callers go through relation() or sharded_table().
  const db::Table& table() const { return *table_; }
  const std::shared_ptr<const shard::ShardedTable>& sharded_table() const {
    return sharded_;
  }

  const db::CostEstimator& estimator() const { return estimator_; }
  const EngineOptions& options() const { return options_; }

  /// Executes the candidates in `subset` (indices into `candidates`).
  /// `sample_fraction` < 1 runs against a cached row sample and scales
  /// scale-dependent aggregates (COUNT/SUM) back up.
  Result<Execution> Execute(const core::CandidateSet& candidates,
                            const std::vector<size_t>& subset,
                            double sample_fraction = 1.0);

  /// As above with request-scoped controls. An infinite deadline takes
  /// the exact code path of the overload above.
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

  /// Sampled version of the table (cached by fraction). Unsharded
  /// engines only; sharded engines sample per shard internally.
  std::shared_ptr<const db::Table> SampleTable(double fraction);

  /// The engine's worker pool, or nullptr when running serially
  /// (num_threads resolved to 1). Shared with the planning layer so the
  /// whole pipeline draws from one fixed set of threads.
  ThreadPool* thread_pool() const { return pool_.get(); }

 private:
  /// Shared construction tail: pool, calibration probe.
  void Init();

  /// Deadline-bounded unit execution (finite-deadline path of Execute):
  /// protects the base-candidate unit, drops the rest on expiry, and
  /// records the drops in `out`.
  Status ExecuteUnitsBounded(const std::vector<MergeUnit>& units,
                             const ScanTarget& target,
                             const core::CandidateSet& candidates,
                             bool sampled, const ExecControls& controls,
                             Execution* out);

  /// The sampled relation for `fraction` (the backing store itself at
  /// fraction >= 1), plus its consistent snapshot in `*target`.
  const db::Relation& SnapshotTarget(double fraction, ScanTarget* target);

  /// Sharded counterpart of SampleTable.
  std::shared_ptr<const shard::ShardedTable> SampleSharded(double fraction);

  /// Exactly one of table_/sharded_ is set; relation_ points at it.
  std::shared_ptr<const db::Table> table_;
  std::shared_ptr<const shard::ShardedTable> sharded_;
  const db::Relation* relation_ = nullptr;
  EngineOptions options_;
  db::CostEstimator estimator_;
  std::unique_ptr<ThreadPool> pool_;
  double cost_units_per_ms_ = 1.0;
  /// Lazily materialized row samples, keyed by fraction. Guarded by
  /// `samples_mutex_`: concurrent serving requests may share one engine.
  std::mutex samples_mutex_;
  std::map<double, std::shared_ptr<const db::Table>> samples_;
  std::map<double, std::shared_ptr<const shard::ShardedTable>>
      sharded_samples_;
};

}  // namespace muve::exec

#endif  // MUVE_EXEC_ENGINE_H_
