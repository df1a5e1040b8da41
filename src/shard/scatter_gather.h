#ifndef MUVE_SHARD_SCATTER_GATHER_H_
#define MUVE_SHARD_SCATTER_GATHER_H_

#include <cstdint>
#include <vector>

#include "common/clock.h"
#include "common/status.h"
#include "db/executor.h"
#include "db/snapshot.h"

namespace muve::shard {

/// Source of per-shard partial aggregates that live somewhere other than
/// the caller's address space — the seam where distribution plugs into
/// scatter-gather. `dist::Coordinator` implements it over sockets; the
/// gather arithmetic stays in ScatterGather either way, so a routed
/// answer merges the exact same partials in the exact same shard order
/// as the in-process path.
///
/// Failure taxonomy: a shard that cannot deliver its partial before the
/// deadline (stalled peer, connection refused after retries) comes back
/// as a successful outcome with `dropped = true` and the identity
/// partial — the gather proceeds without that stripe and reports the
/// drop, it never hangs. A hard application error (bad query, protocol
/// violation) comes back as an error Status and fails the whole gather,
/// first shard in shard order winning, exactly like a local shard scan
/// error.
class PartialBackend {
 public:
  struct AggregateOutcome {
    db::AggregatePartial partial;
    /// The shard's snapshot version at scan time.
    uint64_t snapshot_version = 0;
    uint64_t rows_scanned = 0;
    /// True when the shard missed the deadline; `partial` is the merge
    /// identity and `rows_scanned` is 0.
    bool dropped = false;
  };
  struct GroupedOutcome {
    db::GroupedPartial partial;
    uint64_t snapshot_version = 0;
    uint64_t rows_scanned = 0;
    bool dropped = false;
  };

  virtual ~PartialBackend() = default;

  virtual size_t num_shards() const = 0;

  /// One outcome per shard, in shard order (size() == num_shards()).
  /// Implementations scatter concurrently but the returned vector is
  /// positionally ordered, so the caller's fold order is deterministic.
  virtual std::vector<Result<AggregateOutcome>> ExecutePartialAll(
      const db::AggregateQuery& query, const Deadline& deadline) = 0;
  virtual std::vector<Result<GroupedOutcome>> ExecuteGroupedPartialAll(
      const db::GroupByQuery& query, const Deadline& deadline) = 0;
};

/// Per-gather observability (filled when ScatterOptions::stats is set).
struct ScatterStats {
  size_t shards_total = 0;
  /// Shards whose partial missed the deadline and was excluded from the
  /// merge — the answer covers the surviving stripes only.
  size_t shards_dropped = 0;
};

/// Controls one scatter-gather execution.
struct ScatterOptions {
  /// Per-shard executor configuration (deadline, pool). With one
  /// partition `executor.pool` runs the scan's row slices; with two or
  /// more it runs the shard scans as parallel tasks, each scanning
  /// without a pool (one level of parallelism at a time — shard tasks
  /// never nest row partitioning).
  db::ExecutorOptions executor;
  /// When set, shard partials come from this backend (remote shard
  /// servers) instead of scanning `snapshot` locally; the snapshot then
  /// only supplies the expected shard count. `executor.deadline` bounds
  /// the remote gather. Must expose exactly as many shards as the
  /// snapshot.
  PartialBackend* backend = nullptr;
  /// Optional out-param for drop accounting.
  ScatterStats* stats = nullptr;
};

/// Scatter-gather execution over the partition snapshots of a
/// `db::Relation` — every scan `exec::Engine` issues goes through here.
///
/// Merge contract: every shard scan produces the same partial-aggregate
/// state a single-table scan produces per storage segment
/// (`db::AggregatePartial` / `db::GroupedPartial`), and the per-shard
/// partials are folded **in shard order** with the same merge arithmetic
/// the executor applies to its per-segment partials. COUNT/MIN/MAX are
/// order-invariant and exact; double SUM/AVG accumulate in a fixed
/// deterministic order, so a given shard layout always reproduces its own
/// results bit-for-bit. Across *different* shard counts the grouping of
/// the same additions changes; for sums that are exactly representable
/// (integer data, dyadic-grid doubles within range) the result is
/// bit-identical to the unsharded scan — the shard differential suite
/// asserts exactly that — while arbitrary doubles may differ in the last
/// bit, as in any distributed aggregation.
///
/// A single-shard snapshot — every `db::Table` is one — takes
/// `db::Executor`'s single-table path unchanged, which is the oracle the
/// differential suites compare against. Errors surface
/// deterministically: the first failing shard in shard order wins.
///
/// With `options.backend` set the partials arrive over the wire instead
/// of from local scans, but the fold is the same code in the same order,
/// so a routed gather is byte-identical to the in-process one whenever
/// every shard reports (dropped shards shrink the merge to the surviving
/// stripes and are counted in `options.stats`).
class ScatterGather {
 public:
  static Result<db::AggregateResult> Execute(
      const db::ShardedSnapshot& snapshot, const db::AggregateQuery& query,
      const ScatterOptions& options = {});

  static Result<db::GroupByResult> ExecuteGrouped(
      const db::ShardedSnapshot& snapshot, const db::GroupByQuery& query,
      const ScatterOptions& options = {});
};

}  // namespace muve::shard

#endif  // MUVE_SHARD_SCATTER_GATHER_H_
