#ifndef MUVE_DB_RELATION_H_
#define MUVE_DB_RELATION_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "db/schema.h"
#include "db/value.h"

namespace muve::db {

/// The catalog surface of a queryable relation: schema, version, row
/// count, and the incremental statistics the planner and NLQ layers
/// consume (distinct counts, string vocabularies). `db::Table` is the
/// canonical single-partition implementation; `shard::ShardedTable`
/// presents the same surface over a set of hash/range partitions.
///
/// Everything that plans or describes queries — the cost estimator, the
/// merger, the schema index, the workload generators — depends on this
/// interface only, so it runs unchanged against either backing store.
/// Scans stay concrete: the executor works on `TableSnapshot`s (or a
/// shard's worth of them), never through this interface.
class Relation {
 public:
  virtual ~Relation() = default;

  /// Relation name as referenced by queries.
  virtual const std::string& name() const = 0;

  /// Content version: bumped by every successful row append.
  virtual uint64_t version() const = 0;

  // --- Schema ---------------------------------------------------------

  virtual const std::vector<ColumnSpec>& schema() const = 0;
  virtual size_t num_columns() const = 0;
  virtual const ColumnSpec& spec(size_t index) const = 0;

  /// Index of a column by name (case insensitive).
  virtual Result<size_t> ColumnIndex(const std::string& name) const = 0;

  /// All column names, in schema order.
  virtual std::vector<std::string> ColumnNames() const = 0;

  /// Names of columns with the given type.
  virtual std::vector<std::string> ColumnNamesOfType(ValueType type) const = 0;

  // --- Statistics -----------------------------------------------------

  /// Total rows appended so far (a moving target under live ingest).
  virtual size_t num_rows() const = 0;

  /// Number of distinct values appended to column `index`.
  virtual size_t DistinctCount(size_t index) const = 0;

  /// Distinct values of a string column in first-appearance order (the
  /// vocabulary the phonetic index and workload generators consume).
  /// Empty for numeric columns.
  virtual std::vector<std::string> StringValues(size_t index) const = 0;

  /// As above by (case-insensitive) column name; empty when the column
  /// does not exist.
  virtual std::vector<std::string> StringValues(
      const std::string& name) const = 0;
};

}  // namespace muve::db

#endif  // MUVE_DB_RELATION_H_
