#ifndef MUVE_DB_RELATION_H_
#define MUVE_DB_RELATION_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/status.h"
#include "db/schema.h"
#include "db/value.h"

namespace muve::db {

struct ShardedSnapshot;

/// Incremental statistics of one column: the vocabulary of a string
/// column, its distinct values in first-appearance order. Numeric columns
/// keep none — no planner or NLQ reader uses them — so theirs stays
/// empty.
class ColumnStats {
 public:
  /// Adds `value` to the vocabulary unless it is already there.
  void Add(const std::string& value);
  /// Adds each of `values` in order.
  void AddAll(const std::vector<std::string>& values);

  size_t DistinctCount() const { return string_values_.size(); }
  const std::vector<std::string>& string_values() const {
    return string_values_;
  }

 private:
  std::vector<std::string> string_values_;
  std::unordered_set<std::string> string_seen_;
};

/// A queryable relation split into partitions: schema, version, row
/// count, the incremental statistics the NLQ layer consumes (string
/// vocabularies and their sizes), and the partition seam scans
/// go through. `db::Table` is a one-partition relation;
/// `shard::ShardedTable` presents the same surface over a set of
/// hash/range partitions, one `db::Table` per shard.
///
/// Everything that plans, describes or executes queries — the cost
/// estimator, the merger, the schema index, the workload generators,
/// `exec::Engine` — depends on this interface only, so it runs unchanged
/// against either backing store. The scans themselves stay concrete:
/// `SnapshotPartitions()` hands out one `TableSnapshot` per partition,
/// and `shard::ScatterGather` runs `db::Executor` over them (a single
/// partition takes the executor's single-table path unchanged).
class Relation {
 public:
  virtual ~Relation() = default;

  /// Relation name as referenced by queries.
  virtual const std::string& name() const = 0;

  /// Content version: bumped once per appended row.
  virtual uint64_t version() const = 0;

  // --- Schema ---------------------------------------------------------

  virtual const std::vector<ColumnSpec>& schema() const = 0;
  size_t num_columns() const { return schema().size(); }
  const ColumnSpec& spec(size_t index) const { return schema()[index]; }

  /// Index of a column by name (case insensitive).
  Result<size_t> ColumnIndex(const std::string& name) const;

  /// Names of columns with the given type.
  std::vector<std::string> ColumnNamesOfType(ValueType type) const;

  // --- Statistics -----------------------------------------------------

  /// Total rows appended so far (a moving target under live ingest).
  virtual size_t num_rows() const = 0;

  /// Number of distinct values of string column `index` (its vocabulary
  /// size); 0 for numeric columns, which keep no statistics.
  virtual size_t DistinctCount(size_t index) const = 0;

  /// Distinct values of a string column in first-appearance order (the
  /// vocabulary the phonetic index and workload generators consume).
  /// Empty for numeric columns.
  virtual std::vector<std::string> StringValues(size_t index) const = 0;

  /// As above by (case-insensitive) column name; empty when the column
  /// does not exist.
  std::vector<std::string> StringValues(const std::string& name) const;

  // --- Partitions -----------------------------------------------------

  /// One consistent `TableSnapshot` per partition, in partition order,
  /// plus the relation version they were taken at (see ShardedSnapshot
  /// for the consistency contract).
  virtual ShardedSnapshot SnapshotPartitions() const = 0;

  /// A deterministic row sample of about `fraction` of the rows, itself
  /// a relation with the same partitioning: each partition is sampled
  /// with `Table::Sample(fraction)`.
  virtual std::shared_ptr<const Relation> SampleRows(
      double fraction) const = 0;
};

}  // namespace muve::db

#endif  // MUVE_DB_RELATION_H_
