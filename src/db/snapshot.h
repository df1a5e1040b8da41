#ifndef MUVE_DB_SNAPSHOT_H_
#define MUVE_DB_SNAPSHOT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "db/lsm/run.h"
#include "db/schema.h"
#include "db/table.h"
#include "db/value.h"

namespace muve::db {

/// An immutable, consistent view of one table version: a list of
/// immutable runs in logical row order — the table's sealed runs at
/// `Table::Snapshot()` time, then, when rows were open, one run frozen
/// from a copy of the open columns. Everything a scan touches is pinned
/// by shared ownership — the runs (compaction may retire them from the
/// live table, the pinned objects stay valid) and the table itself (a
/// snapshot outliving its table keeps reads well-defined).
///
/// Copyable and cheap to copy (shared pointers). A default-constructed
/// snapshot is empty (no table, zero rows).
class TableSnapshot {
 public:
  TableSnapshot() = default;

  bool valid() const { return table_ != nullptr; }

  /// The snapshotted table (schema/name/id access). Valid only when
  /// `valid()`.
  const Table& table() const { return *table_; }

  /// The table version this snapshot froze.
  uint64_t version() const { return version_; }

  /// Rows visible to this snapshot.
  size_t num_rows() const { return num_rows_; }

  size_t num_columns() const {
    return table_ == nullptr ? 0 : table_->num_columns();
  }

  /// The pinned runs, in logical row order.
  const std::vector<std::shared_ptr<const lsm::Run>>& runs() const {
    return runs_;
  }

  /// Value at (row, col), row in [0, num_rows()).
  Value ValueAt(size_t row, size_t col) const;

  /// A layout-preserving deep copy: a new independent table whose run
  /// boundaries, run contents (including per-run dictionary order), and
  /// open rows replicate this snapshot exactly, so scans over the clone
  /// are bit-for-bit identical to scans over the snapshot. The
  /// differential suites use this as the frozen oracle for reads racing
  /// writes; it also serves as a fork/backup primitive.
  Result<std::shared_ptr<Table>> Clone(const std::string& name) const;

 private:
  friend class Table;

  std::shared_ptr<const Table> table_;
  uint64_t version_ = 0;
  size_t num_rows_ = 0;
  std::vector<std::shared_ptr<const lsm::Run>> runs_;
  /// The last run was frozen from the table's open rows (Clone leaves
  /// those rows open rather than sealed).
  bool open_tail_ = false;
};

/// A consistent-per-partition view of a relation
/// (`Relation::SnapshotPartitions()`): one `TableSnapshot` per partition,
/// taken in partition order. Each snapshot is a fully consistent version
/// of its partition. For a sharded relation the combination is
/// prefix-consistent under live ingest (the single writer appends shard
/// by shard, so a cross-shard cut may straddle one in-flight append);
/// with no concurrent writer, or with one partition, it is exact.
struct ShardedSnapshot {
  std::vector<TableSnapshot> shards;
  /// Relation::version() at capture time.
  uint64_t version = 0;

  size_t num_rows() const {
    size_t rows = 0;
    for (const TableSnapshot& shard : shards) rows += shard.num_rows();
    return rows;
  }
};

}  // namespace muve::db

#endif  // MUVE_DB_SNAPSHOT_H_
