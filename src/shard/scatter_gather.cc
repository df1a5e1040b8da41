#include "shard/scatter_gather.h"

#include <string>
#include <utility>
#include <vector>

#include "common/strings.h"
#include "common/thread_pool.h"

namespace muve::shard {

namespace {

/// Shard-count agreement between the caller's snapshot and the remote
/// backend; a mismatch would silently merge the wrong stripes.
Status CheckBackendShards(const db::ShardedSnapshot& snapshot,
                          const PartialBackend& backend) {
  if (backend.num_shards() != snapshot.shards.size()) {
    return Status::InvalidArgument(
        StrCat({"backend serves ", std::to_string(backend.num_shards()),
                " shards but the snapshot has ",
                std::to_string(snapshot.shards.size())}));
  }
  return Status::OK();
}

/// The aggregate shape of the gather driver.
struct AggregateShape {
  using Query = db::AggregateQuery;
  using Output = db::AggregateResult;
  using Partial = db::AggregatePartial;
  using Outcome = PartialBackend::AggregateOutcome;

  static Result<Output> Execute(const db::TableSnapshot& snapshot,
                                const Query& query,
                                const db::ExecutorOptions& options) {
    return db::Executor::Execute(snapshot, query, options);
  }
  static Result<Partial> ExecutePartial(const db::TableSnapshot& snapshot,
                                        const Query& query,
                                        const db::ExecutorOptions& options) {
    return db::Executor::ExecutePartial(snapshot, query, options);
  }
  static std::vector<Result<Outcome>> ExecuteRemote(
      PartialBackend* backend, const Query& query, const Deadline& deadline) {
    return backend->ExecutePartialAll(query, deadline);
  }
  static Partial Identity(const Query&) { return Partial{}; }
  static Status CheckRemote(size_t, const Partial&, const Partial&) {
    return Status::OK();
  }
  static Result<Output> Finish(const Query& query, const Partial& total,
                               size_t) {
    return db::Executor::FinishAggregate(query.function, total);
  }
};

/// The GROUP BY shape of the gather driver.
struct GroupedShape {
  using Query = db::GroupByQuery;
  using Output = db::GroupByResult;
  using Partial = db::GroupedPartial;
  using Outcome = PartialBackend::GroupedOutcome;

  static Result<Output> Execute(const db::TableSnapshot& snapshot,
                                const Query& query,
                                const db::ExecutorOptions& options) {
    return db::Executor::ExecuteGrouped(snapshot, query, options);
  }
  static Result<Partial> ExecutePartial(const db::TableSnapshot& snapshot,
                                        const Query& query,
                                        const db::ExecutorOptions& options) {
    return db::Executor::ExecuteGroupedPartial(snapshot, query, options);
  }
  static std::vector<Result<Outcome>> ExecuteRemote(
      PartialBackend* backend, const Query& query, const Deadline& deadline) {
    return backend->ExecuteGroupedPartialAll(query, deadline);
  }
  static Partial Identity(const Query& query) {
    return db::Executor::MakeGroupedIdentity(query);
  }
  /// A remote partial must match the query's group x aggregate grid.
  static Status CheckRemote(size_t s, const Partial& partial,
                            const Partial& total) {
    if (partial.cells.size() != total.cells.size() ||
        (!partial.cells.empty() && !total.cells.empty() &&
         partial.cells[0].size() != total.cells[0].size())) {
      return Status::Internal(StrCat({"shard ", std::to_string(s),
                                      " returned a grouped partial with the "
                                      "wrong grid dimensions"}));
    }
    return Status::OK();
  }
  static Result<Output> Finish(const Query& query, const Partial& total,
                               size_t rows_scanned) {
    return db::Executor::FinishGrouped(query, total, rows_scanned);
  }
};

/// The one gather driver: remote partials from `options.backend`, the
/// single-table path for one shard, or local per-shard partial scans —
/// folded in shard order either way. `rows_scanned` sums the rows the
/// shards report (remote) or the snapshot row counts (local).
template <typename Shape>
Result<typename Shape::Output> Gather(const db::ShardedSnapshot& snapshot,
                                      const typename Shape::Query& query,
                                      const ScatterOptions& options) {
  using Partial = typename Shape::Partial;
  if (snapshot.shards.empty()) {
    return Status::InvalidArgument("scatter needs at least one shard");
  }
  const size_t num_shards = snapshot.shards.size();
  Partial total = Shape::Identity(query);
  size_t rows_scanned = 0;
  if (options.backend != nullptr) {
    MUVE_RETURN_NOT_OK(CheckBackendShards(snapshot, *options.backend));
    std::vector<Result<typename Shape::Outcome>> outcomes =
        Shape::ExecuteRemote(options.backend, query,
                             options.executor.deadline);
    if (outcomes.size() != num_shards) {
      return Status::Internal(StrCat({"backend returned ",
                                      std::to_string(outcomes.size()),
                                      " outcomes for ",
                                      std::to_string(num_shards), " shards"}));
    }
    if (options.stats != nullptr) {
      options.stats->shards_total = outcomes.size();
    }
    for (size_t s = 0; s < num_shards; ++s) {
      MUVE_RETURN_NOT_OK(outcomes[s].status());
      if (outcomes[s]->dropped) {
        if (options.stats != nullptr) ++options.stats->shards_dropped;
        continue;
      }
      MUVE_RETURN_NOT_OK(Shape::CheckRemote(s, outcomes[s]->partial, total));
      db::Executor::MergePartial(outcomes[s]->partial, &total);
      rows_scanned += static_cast<size_t>(outcomes[s]->rows_scanned);
    }
    return Shape::Finish(query, total, rows_scanned);
  }
  if (num_shards == 1) {
    // The single-table oracle path, byte for byte.
    return Shape::Execute(snapshot.shards[0], query, options.executor);
  }

  // The shard task is the unit of parallelism, so row partitioning
  // inside it is disabled.
  db::ExecutorOptions shard_options = options.executor;
  shard_options.pool = nullptr;
  std::vector<Result<Partial>> partials(num_shards, Partial{});
  ParallelFor(options.executor.pool, num_shards, 1,
              [&](size_t, size_t begin, size_t end) {
                for (size_t s = begin; s < end; ++s) {
                  partials[s] = Shape::ExecutePartial(snapshot.shards[s],
                                                      query, shard_options);
                }
              });
  for (size_t s = 0; s < num_shards; ++s) {
    MUVE_RETURN_NOT_OK(partials[s].status());
    db::Executor::MergePartial(*partials[s], &total);
    rows_scanned += snapshot.shards[s].num_rows();
  }
  return Shape::Finish(query, total, rows_scanned);
}

}  // namespace

Result<db::AggregateResult> ScatterGather::Execute(
    const db::ShardedSnapshot& snapshot, const db::AggregateQuery& query,
    const ScatterOptions& options) {
  return Gather<AggregateShape>(snapshot, query, options);
}

Result<db::GroupByResult> ScatterGather::ExecuteGrouped(
    const db::ShardedSnapshot& snapshot, const db::GroupByQuery& query,
    const ScatterOptions& options) {
  return Gather<GroupedShape>(snapshot, query, options);
}

}  // namespace muve::shard
