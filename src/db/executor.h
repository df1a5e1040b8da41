#ifndef MUVE_DB_EXECUTOR_H_
#define MUVE_DB_EXECUTOR_H_

#include <limits>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "db/query.h"
#include "db/snapshot.h"
#include "db/table.h"

namespace muve::db {

/// Controls how the executor runs a scan. Every scan cuts its segments
/// into the same fixed `parallel_grain` slices and folds the slice
/// partials in the same order whether or not a pool is attached, so
/// results are bitwise identical at every thread count and pool size.
struct ExecutorOptions {
  /// Worker pool for the slices of one scan. Used when it has >= 2
  /// threads and the snapshot holds more than `parallel_grain` rows;
  /// otherwise (and with nullptr) the slices run inline on the caller.
  ThreadPool* pool = nullptr;
  /// Rows per slice, measured from each segment's start. Fixed
  /// (independent of thread count), so the per-slice partials and their
  /// in-order fold — and hence the floating-point result — are the same
  /// for every pool size, including none.
  size_t parallel_grain = 16384;
  /// Cooperative cancellation, checked before every slice, inline or on
  /// the pool. On expiry the scan stops and the executor returns
  /// Status::Timeout; a slice already underway runs to completion, so a
  /// cancelled scan overshoots the deadline by at most one slice. The
  /// default infinite deadline never reads the clock.
  Deadline deadline;
};

/// Result of executing one aggregate.
struct AggregateResult {
  double value = 0.0;        ///< Aggregate value; 0 for empty MIN/MAX/AVG.
  size_t rows_matched = 0;   ///< Rows satisfying all predicates.
  bool empty_input = false;  ///< True when no row matched (AVG/MIN/MAX
                             ///< undefined; value is 0).
};

/// One aggregate of a grouped (merged) query.
struct AggregateSpec {
  AggregateFunction function = AggregateFunction::kCount;
  std::string column;  ///< Empty for COUNT(*).
};

/// A merged query (paper §8.1): shared predicates, plus one column whose
/// equality predicates across the merged queries were rewritten into an IN
/// list that doubles as GROUP BY key. Each (group value, aggregate) cell of
/// the result answers one original candidate query.
struct GroupByQuery {
  std::string table;
  std::vector<Predicate> shared_predicates;
  std::string group_column;
  std::vector<std::string> group_values;  ///< IN list; also the groups.
  std::vector<AggregateSpec> aggregates;

  /// SQL text, e.g.
  /// SELECT city, COUNT(*), SUM(delay) FROM f WHERE ... AND city IN (...)
  /// GROUP BY city.
  std::string ToSql() const;
};

/// Result of a grouped execution: cell (g, a) is the a-th aggregate over
/// rows whose group column equals group_values[g].
struct GroupByResult {
  std::vector<std::vector<AggregateResult>> cells;
  size_t rows_scanned = 0;
};

/// Partial aggregate state of one query over one storage segment (an
/// immutable run or a slice of one). COUNT/SUM/MIN/MAX merge directly;
/// AVG is carried as the sum+count pair until Finish. The zero value is
/// the merge identity (count 0, +/-inf extrema), so an all-empty segment
/// can never leak a 0 into AVG/MIN/MAX.
struct AggregatePartial {
  size_t count = 0;
  double sum = 0.0;
  double min = std::numeric_limits<double>::infinity();
  double max = -std::numeric_limits<double>::infinity();
};

/// Partial state of a grouped query over one segment: cell (g, a) is the
/// a-th aggregate's partial for group g.
struct GroupedPartial {
  std::vector<std::vector<AggregatePartial>> cells;
};

/// Scan-based query executor over versioned in-memory tables.
///
/// Scans run against a TableSnapshot — one consistent table version, a
/// list of immutable runs — segment by segment, one segment per run in
/// logical order. Each segment accumulates a private partial state
/// (COUNT/SUM/MIN/MAX merge directly, AVG as a sum+count pair, GROUP BY
/// as a per-segment accumulator grid) and the partials are merged in
/// segment order. Segments are cut into fixed-size slices, scanned
/// inline or on `options.pool`, and merged slices-then-segments in order
/// either way. Every run is scanned as column batches (src/db/vec/
/// kernels); tests/testing/reference_executor.h is the value-at-a-time
/// oracle. Empty-input detection happens after the merge: a segment that
/// matched nothing contributes a zero-count state, never a 0 identity
/// value.
///
/// The Table& overloads snapshot the table themselves; callers scanning
/// the same version more than once (or needing the version id) take the
/// snapshot explicitly.
class Executor {
 public:
  /// Executes a single aggregation query with equality/IN predicates.
  static Result<AggregateResult> Execute(const TableSnapshot& snapshot,
                                         const AggregateQuery& query,
                                         const ExecutorOptions& options = {});
  static Result<AggregateResult> Execute(const Table& table,
                                         const AggregateQuery& query,
                                         const ExecutorOptions& options = {});

  /// Executes a merged query in one scan.
  static Result<GroupByResult> ExecuteGrouped(
      const TableSnapshot& snapshot, const GroupByQuery& query,
      const ExecutorOptions& options = {});
  static Result<GroupByResult> ExecuteGrouped(
      const Table& table, const GroupByQuery& query,
      const ExecutorOptions& options = {});

  // --- Partial-aggregate surface (scatter-gather) ---------------------
  //
  // A sharded table scans each shard's snapshot independently and merges
  // the per-shard partials in shard order, exactly as Execute merges its
  // per-segment partials in segment order. ExecutePartial is Execute up
  // to (but excluding) the finish step; Execute == FinishAggregate of
  // ExecutePartial, so the single-table path and a 1-shard scatter are
  // the same code.

  /// The merged partial state over the whole snapshot (parallel slicing
  /// and deadline behavior identical to Execute).
  static Result<AggregatePartial> ExecutePartial(
      const TableSnapshot& snapshot, const AggregateQuery& query,
      const ExecutorOptions& options = {});

  /// The merged grouped partial over the whole snapshot. Grid dimensions
  /// are (query.group_values.size() x query.aggregates.size()) regardless
  /// of the snapshot's contents, so partials from different shards always
  /// merge cell-wise.
  static Result<GroupedPartial> ExecuteGroupedPartial(
      const TableSnapshot& snapshot, const GroupByQuery& query,
      const ExecutorOptions& options = {});

  /// Folds `src` into `dst` (call in shard order; the zero-value
  /// AggregatePartial is the merge identity).
  static void MergePartial(const AggregatePartial& src, AggregatePartial* dst);

  /// Cell-wise grid fold; `src` and `dst` must have equal dimensions.
  static void MergePartial(const GroupedPartial& src, GroupedPartial* dst);

  /// The all-zero merge identity grid for a grouped query's dimensions.
  static GroupedPartial MakeGroupedIdentity(const GroupByQuery& query);

  /// Resolves a merged partial into the final result (COUNT/SUM read the
  /// accumulators, AVG divides, MIN/MAX guard emptiness).
  static AggregateResult FinishAggregate(AggregateFunction fn,
                                         const AggregatePartial& partial);

  /// Resolves a merged grid into a GroupByResult for `query`'s aggregate
  /// list; `rows_scanned` is the caller's total (summed over shards).
  static GroupByResult FinishGrouped(const GroupByQuery& query,
                                     const GroupedPartial& total,
                                     size_t rows_scanned);

  /// Scales an aggregate computed on a `fraction` sample back to the full
  /// data (COUNT/SUM scale by 1/fraction; AVG/MIN/MAX are estimates as-is).
  static double ScaleSampledValue(AggregateFunction fn, double value,
                                  double fraction);
};

}  // namespace muve::db

#endif  // MUVE_DB_EXECUTOR_H_
