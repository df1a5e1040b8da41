#ifndef MUVE_DB_LSM_RUN_H_
#define MUVE_DB_LSM_RUN_H_

#include <memory>
#include <vector>

#include "db/column.h"
#include "db/schema.h"

namespace muve::db::lsm {

/// An immutable, columnar storage segment of a versioned table: the unit
/// of flushing, bulk loading, compaction and snapshot pinning. Rows keep
/// their append order (a run is "sorted" by implicit row id), so
/// concatenating runs in run order reproduces the exact logical row
/// sequence of the table. The floating-point accumulation order of a
/// scan is not independent of the packing, though: the executor cuts its
/// slices from each run's start and folds slice partials into run
/// partials, then run partials into the total, so run boundaries set the
/// fold order of doubles.
///
/// A run is built one way: values are appended in row order into a fresh
/// column set (`EmptyColumns`), which is then frozen (`Freeze`). String
/// columns are therefore dictionary-encoded per run, in first-appearance
/// order of the run's own rows (codes are meaningless across runs);
/// predicates are re-bound to each run's dictionary at scan time.
class Run {
 public:
  /// One empty column per schema entry.
  static std::vector<Column> EmptyColumns(
      const std::vector<ColumnSpec>& schema);

  /// Freezes a column set of equal-length columns into a run.
  static std::shared_ptr<const Run> Freeze(std::vector<Column> columns);

  size_t num_rows() const { return columns_.front().size(); }
  size_t num_columns() const { return columns_.size(); }
  const Column& column(size_t index) const { return columns_[index]; }
  const std::vector<Column>& columns() const { return columns_; }

 private:
  explicit Run(std::vector<Column> columns) : columns_(std::move(columns)) {}

  std::vector<Column> columns_;
};

}  // namespace muve::db::lsm

#endif  // MUVE_DB_LSM_RUN_H_
