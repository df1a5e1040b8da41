#ifndef MUVE_SHARD_SHARDED_TABLE_H_
#define MUVE_SHARD_SHARDED_TABLE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "db/relation.h"
#include "db/snapshot.h"
#include "db/table.h"

namespace muve::shard {

/// How rows are routed to shards.
enum class Partitioning {
  /// Route on a hash of the partition key column's value (rows with equal
  /// key values land on the same shard). With no key column configured,
  /// the append sequence number is hashed instead, spreading rows
  /// near-uniformly.
  kHash,
  /// Stripe contiguous append-order ranges over the shards round-robin:
  /// rows [0, stripe), [stripe, 2*stripe), ... go to shards 0, 1, ...
  /// Preserves locality of time-ordered appends while every shard keeps
  /// receiving data regardless of the total row count.
  kRange,
};

/// Configuration of a sharded table.
struct ShardedTableOptions {
  size_t num_shards = 1;
  Partitioning partitioning = Partitioning::kHash;
  /// kHash: the partition key column (case insensitive). Empty hashes the
  /// append sequence number instead. Must exist in the schema when set.
  std::string hash_column;
  /// kRange: rows per stripe.
  size_t range_stripe_rows = 4096;
  /// LSM knobs of every shard's backing table.
  db::TableOptions shard_options;
};

/// A relation partitioned into independent LSM tables (one `db::Table`
/// per shard), presenting the `db::Relation` surface of a single table
/// so planners, the schema index, workload generators and
/// `exec::Engine` run unchanged against it.
///
/// Appends route through the partitioning scheme; scans scatter over the
/// per-shard snapshots (`SnapshotPartitions()`) and gather partial
/// aggregates in shard order (see shard/scatter_gather.h). Global
/// statistics (string vocabularies in first-appearance order) are
/// maintained at route time, because per-shard vocabularies do not sum —
/// the same value may appear on several shards.
///
/// Concurrency contract: like `db::Table`, a single writer at a time may
/// call AppendRow while any number of readers take snapshots.
class ShardedTable : public db::Relation,
                     public std::enable_shared_from_this<ShardedTable> {
 public:
  static Result<std::shared_ptr<ShardedTable>> Create(
      std::string name, const std::vector<db::ColumnSpec>& schema,
      ShardedTableOptions options = {});

  /// Builds a sharded copy of an existing table: every row of one
  /// snapshot of `source`, appended in order and routed by `options`,
  /// with all shards flushed at the end.
  static Result<std::shared_ptr<ShardedTable>> FromTable(
      const db::Table& source, ShardedTableOptions options = {});

  // --- db::Relation ---------------------------------------------------

  const std::string& name() const override { return name_; }
  uint64_t version() const override {
    return version_.load(std::memory_order_acquire);
  }
  const std::vector<db::ColumnSpec>& schema() const override {
    return schema_;
  }
  size_t num_rows() const override {
    return num_rows_.load(std::memory_order_acquire);
  }
  size_t DistinctCount(size_t index) const override;
  std::vector<std::string> StringValues(size_t index) const override;
  using db::Relation::StringValues;
  /// Per-shard snapshots in shard order (see db::ShardedSnapshot for the
  /// consistency contract).
  db::ShardedSnapshot SnapshotPartitions() const override;
  /// A sharded sample: every shard sampled independently with
  /// `db::Table::Sample(fraction)`, wrapped with recomputed global
  /// statistics. Approximate-query scaling works as for the single
  /// table; the sampled row set differs from an unsharded sample of the
  /// same data (per-shard systematic strides), which is within the
  /// approximation contract.
  std::shared_ptr<const db::Relation> SampleRows(
      double fraction) const override;

  // --- Writes ---------------------------------------------------------

  /// Appends one row to the shard the partitioning scheme routes it to.
  /// Single writer; bumps `version()` on success.
  Status AppendRow(const std::vector<db::Value>& values);

  /// The shard index the next appended row with these values would land
  /// on (exposed for routing tests).
  size_t RouteRow(const std::vector<db::Value>& values) const;

  // --- Reads ----------------------------------------------------------

  size_t num_shards() const { return shards_.size(); }
  std::shared_ptr<const db::Table> shard(size_t index) const {
    return shards_[index];
  }

  /// Value at (row, col) of the shard-order concatenation of the current
  /// contents: shard 0's rows first, then shard 1's, ... Convenience for
  /// tests; the concatenation order is not the append order.
  db::Value ValueAt(size_t row, size_t col) const;

  // --- LSM storage controls (fan-out over all shards) -----------------

  const ShardedTableOptions& options() const { return options_; }
  void Flush();
  void Compact();
  void EnableBackgroundCompaction(ThreadPool* pool);

 private:
  ShardedTable(std::string name, std::vector<db::ColumnSpec> schema,
               ShardedTableOptions options,
               std::vector<std::shared_ptr<db::Table>> shards);

  /// Recomputes global statistics from the shards' current contents
  /// (used after wrapping pre-built shard tables, e.g. SampleRows()).
  void RebuildStats();

  /// Routes by (append sequence, row values) — kHash with a key column
  /// ignores `seq`, the other schemes ignore `values`.
  size_t RouteAt(uint64_t seq, const std::vector<db::Value>& values) const;

  std::string name_;
  std::vector<db::ColumnSpec> schema_;
  ShardedTableOptions options_;
  /// Index of options_.hash_column in the schema; SIZE_MAX when unset.
  size_t hash_column_index_ = SIZE_MAX;
  std::vector<std::shared_ptr<db::Table>> shards_;
  std::atomic<size_t> num_rows_{0};
  std::atomic<uint64_t> version_{0};

  /// Global per-column statistics, fed in the global append sequence
  /// (so string vocabularies are in global first-appearance order).
  /// Guarded by stats_mutex_.
  mutable std::mutex stats_mutex_;
  std::vector<db::ColumnStats> stats_;
};

}  // namespace muve::shard

#endif  // MUVE_SHARD_SHARDED_TABLE_H_
