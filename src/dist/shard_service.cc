#include "dist/shard_service.h"

#include <utility>

namespace muve::dist {

ShardService::ShardService(std::shared_ptr<const db::Table> shard)
    : shard_(std::move(shard)) {}

Result<net::PartialResult> ShardService::HandlePartial(
    const net::PartialQuery& query) {
  const db::TableSnapshot snapshot = shard_->Snapshot();
  db::ExecutorOptions exec_options;
  exec_options.deadline = query.deadline;

  net::PartialResult result;
  result.kind = query.kind;
  result.snapshot_version = snapshot.version();
  result.rows_scanned = snapshot.num_rows();
  if (query.kind == net::PartialQuery::Kind::kAggregate) {
    Result<db::AggregatePartial> partial =
        db::Executor::ExecutePartial(snapshot, query.aggregate, exec_options);
    if (!partial.ok()) {
      queries_failed_.fetch_add(1, std::memory_order_relaxed);
      return partial.status();
    }
    result.aggregate = *partial;
  } else {
    Result<db::GroupedPartial> partial = db::Executor::ExecuteGroupedPartial(
        snapshot, query.grouped, exec_options);
    if (!partial.ok()) {
      queries_failed_.fetch_add(1, std::memory_order_relaxed);
      return partial.status();
    }
    result.grouped = std::move(*partial);
  }
  queries_served_.fetch_add(1, std::memory_order_relaxed);
  return result;
}

}  // namespace muve::dist
