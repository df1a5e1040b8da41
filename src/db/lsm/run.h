#ifndef MUVE_DB_LSM_RUN_H_
#define MUVE_DB_LSM_RUN_H_

#include <functional>
#include <memory>
#include <vector>

#include "db/column.h"
#include "db/schema.h"
#include "db/value.h"

namespace muve::db::lsm {

/// An immutable, columnar storage segment of a versioned table: the unit
/// of flushing, compaction and snapshot pinning. Rows keep their append
/// order (a run is "sorted" by implicit row id), so concatenating runs in
/// run order reproduces the exact logical row sequence of the table —
/// scans and their floating-point accumulation order are independent of
/// how rows are packed into runs.
///
/// String columns are dictionary-encoded per run (codes are meaningless
/// across runs); predicates are re-bound to each run's dictionary at
/// scan time.
class Run {
 public:
  /// Builds a run over `schema` from `rows` values produced by
  /// `cell(row, col)` for row in [0, rows). Values must already match
  /// the schema (the table validates on append).
  static std::shared_ptr<const Run> Build(
      const std::vector<ColumnSpec>& schema, size_t rows,
      const std::function<Value(size_t, size_t)>& cell);

  size_t num_rows() const { return rows_; }
  size_t num_columns() const { return columns_.size(); }
  const Column& column(size_t index) const { return *columns_[index]; }

 private:
  Run(std::vector<std::unique_ptr<Column>> columns, size_t rows)
      : columns_(std::move(columns)), rows_(rows) {}

  std::vector<std::unique_ptr<Column>> columns_;
  size_t rows_ = 0;
};

}  // namespace muve::db::lsm

#endif  // MUVE_DB_LSM_RUN_H_
