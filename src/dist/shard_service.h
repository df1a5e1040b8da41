#ifndef MUVE_DIST_SHARD_SERVICE_H_
#define MUVE_DIST_SHARD_SERVICE_H_

#include <atomic>
#include <cstdint>
#include <memory>

#include "db/executor.h"
#include "db/table.h"
#include "net/listener.h"

namespace muve::dist {

/// The shard server's side of the partial-aggregate protocol: executes
/// one kPartialQuery against a fresh snapshot of the local stripe with
/// db::Executor::ExecutePartial / ExecuteGroupedPartial — the exact scan
/// the in-process scatter would run on this shard — and answers the raw
/// merge state plus the snapshot version it scanned.
///
/// The query's deadline travels as remaining milliseconds and is
/// enforced by the executor's cooperative cancellation: an expired scan
/// returns Status::Timeout, which the listener answers as an Error
/// frame, and the coordinator degrades that stripe (it never blocks the
/// gather).
class ShardService : public net::PartialHandler {
 public:
  /// `shard` is this process's stripe (ShardedTable::shard(i)).
  explicit ShardService(std::shared_ptr<const db::Table> shard);

  Result<net::PartialResult> HandlePartial(
      const net::PartialQuery& query) override;

  /// Queries executed / failed (includes timeouts), for operator stats.
  uint64_t queries_served() const {
    return queries_served_.load(std::memory_order_relaxed);
  }
  uint64_t queries_failed() const {
    return queries_failed_.load(std::memory_order_relaxed);
  }

 private:
  const std::shared_ptr<const db::Table> shard_;
  std::atomic<uint64_t> queries_served_{0};
  std::atomic<uint64_t> queries_failed_{0};
};

}  // namespace muve::dist

#endif  // MUVE_DIST_SHARD_SERVICE_H_
