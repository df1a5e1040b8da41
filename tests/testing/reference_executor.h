#ifndef MUVE_TESTS_TESTING_REFERENCE_EXECUTOR_H_
#define MUVE_TESTS_TESTING_REFERENCE_EXECUTOR_H_

/// Value-at-a-time reference for db::Executor, the oracle of the
/// differential suites and of the vectorization smoke bench.
///
/// It reads a TableSnapshot only through its public surface (`runs()`
/// and each run's Columns) and tests one row and one value at a time,
/// with no batches, selection vectors or dictionary lookup tables. It
/// keeps the executor's accumulation structure: runs in order, each cut
/// into `grain`-row slices from its start; each slice folded from the
/// merge identity; slice partials folded into their run in order, runs
/// into the total in order.
/// Its results are therefore bitwise equal to db::Executor's at the same
/// `parallel_grain`, at any thread count.
///
/// Queries must be valid (db::Executor accepts them); the reference does
/// not re-check schemas or report errors.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "db/column.h"
#include "db/executor.h"
#include "db/query.h"
#include "db/snapshot.h"
#include "db/table.h"
#include "db/value.h"

namespace muve::testing {

namespace reference_internal {

/// One cell of the snapshot: a row of one run's Column.
struct Cell {
  const db::Column* column = nullptr;
  size_t row = 0;

  const std::string& AsString() const {
    return column->dictionary()[column->codes()[row]];
  }
  int64_t AsInt64() const { return column->int_data()[row]; }
  double AsDouble() const { return column->NumericAt(row); }
};

/// A predicate with its column resolved against the schema.
struct ResolvedPredicate {
  size_t col = 0;
  db::ValueType type = db::ValueType::kString;
  const std::vector<db::Value>* accepted = nullptr;
};

inline std::vector<ResolvedPredicate> Resolve(
    const db::Table& table, const std::vector<db::Predicate>& predicates) {
  std::vector<ResolvedPredicate> resolved;
  for (const db::Predicate& predicate : predicates) {
    const size_t col = *table.ColumnIndex(predicate.column);
    resolved.push_back({col, table.spec(col).type, &predicate.values});
  }
  return resolved;
}

inline bool Matches(const ResolvedPredicate& predicate, const Cell& cell) {
  for (const db::Value& accepted : *predicate.accepted) {
    switch (predicate.type) {
      case db::ValueType::kString:
        if (cell.AsString() == accepted.AsString()) return true;
        break;
      case db::ValueType::kInt64:
        if (cell.AsInt64() == accepted.AsInt64()) return true;
        break;
      case db::ValueType::kDouble:
        if (cell.AsDouble() == accepted.AsDouble()) return true;
        break;
    }
  }
  return false;
}

template <typename Reader>
bool MatchesAll(const std::vector<ResolvedPredicate>& predicates,
                const Reader& read, size_t row) {
  for (const ResolvedPredicate& predicate : predicates) {
    if (!Matches(predicate, read(row, predicate.col))) return false;
  }
  return true;
}

/// The column an aggregate reads, or SIZE_MAX when it only counts
/// (COUNT(*) and COUNT(col) alike).
inline size_t AggregateColumn(const db::Table& table,
                              db::AggregateFunction fn,
                              const std::string& column) {
  if (fn == db::AggregateFunction::kCount) return SIZE_MAX;
  return *table.ColumnIndex(column);
}

/// One matched row folded into a partial: a counting aggregate only
/// counts, a column aggregate updates sum, min and max together.
template <typename Reader>
void Accept(size_t col, const Reader& read, size_t row,
            db::AggregatePartial* p) {
  ++p->count;
  if (col == SIZE_MAX) return;
  const double v = read(row, col).AsDouble();
  p->sum += v;
  p->min = std::min(p->min, v);
  p->max = std::max(p->max, v);
}

/// Drives `scan_row(read, row, partial)` over every row of `snapshot`
/// with the executor's run/slice/fold structure; `read(row, col)`
/// returns a run-local Cell.
template <typename Partial, typename ScanRow>
Partial Fold(const db::TableSnapshot& snapshot, size_t grain,
             const Partial& identity, const ScanRow& scan_row) {
  grain = std::max<size_t>(1, grain);
  Partial total = identity;
  for (const auto& run : snapshot.runs()) {
    const size_t rows = run->num_rows();
    if (rows == 0) continue;  // The executor skips empty runs.
    const auto read = [&run](size_t row, size_t col) {
      return Cell{&run->column(col), row};
    };
    Partial segment = identity;
    for (size_t begin = 0; begin < rows; begin += grain) {
      Partial slice = identity;
      for (size_t row = begin; row < std::min(rows, begin + grain); ++row) {
        scan_row(read, row, &slice);
      }
      db::Executor::MergePartial(slice, &segment);
    }
    db::Executor::MergePartial(segment, &total);
  }
  return total;
}

}  // namespace reference_internal

/// The reference for db::Executor::Execute at `grain` =
/// ExecutorOptions::parallel_grain.
inline db::AggregateResult ReferenceExecute(
    const db::TableSnapshot& snapshot, const db::AggregateQuery& query,
    size_t grain = db::ExecutorOptions().parallel_grain) {
  namespace ri = reference_internal;
  const db::Table& table = snapshot.table();
  const std::vector<ri::ResolvedPredicate> predicates =
      ri::Resolve(table, query.predicates);
  const size_t col =
      ri::AggregateColumn(table, query.function, query.aggregate_column);
  const db::AggregatePartial total = ri::Fold(
      snapshot, grain, db::AggregatePartial{},
      [&](const auto& read, size_t row, db::AggregatePartial* p) {
        if (ri::MatchesAll(predicates, read, row)) {
          ri::Accept(col, read, row, p);
        }
      });
  return db::Executor::FinishAggregate(query.function, total);
}

inline db::AggregateResult ReferenceExecute(
    const db::Table& table, const db::AggregateQuery& query,
    size_t grain = db::ExecutorOptions().parallel_grain) {
  return ReferenceExecute(table.Snapshot(), query, grain);
}

/// The reference for db::Executor::ExecuteGrouped at `grain`. A row
/// belongs to the first group whose value equals its group column.
inline db::GroupByResult ReferenceExecuteGrouped(
    const db::TableSnapshot& snapshot, const db::GroupByQuery& query,
    size_t grain = db::ExecutorOptions().parallel_grain) {
  namespace ri = reference_internal;
  const db::Table& table = snapshot.table();
  const size_t group_col = *table.ColumnIndex(query.group_column);
  std::unordered_map<std::string, size_t> group_of_value;
  for (size_t g = 0; g < query.group_values.size(); ++g) {
    group_of_value.emplace(query.group_values[g], g);
  }
  const std::vector<ri::ResolvedPredicate> predicates =
      ri::Resolve(table, query.shared_predicates);
  std::vector<size_t> cols;
  for (const db::AggregateSpec& spec : query.aggregates) {
    cols.push_back(ri::AggregateColumn(table, spec.function, spec.column));
  }
  const db::GroupedPartial total = ri::Fold(
      snapshot, grain, db::Executor::MakeGroupedIdentity(query),
      [&](const auto& read, size_t row, db::GroupedPartial* grid) {
        const auto it = group_of_value.find(read(row, group_col).AsString());
        if (it == group_of_value.end()) return;
        if (!ri::MatchesAll(predicates, read, row)) return;
        for (size_t a = 0; a < cols.size(); ++a) {
          ri::Accept(cols[a], read, row, &grid->cells[it->second][a]);
        }
      });
  return db::Executor::FinishGrouped(query, total, snapshot.num_rows());
}

inline db::GroupByResult ReferenceExecuteGrouped(
    const db::Table& table, const db::GroupByQuery& query,
    size_t grain = db::ExecutorOptions().parallel_grain) {
  return ReferenceExecuteGrouped(table.Snapshot(), query, grain);
}

}  // namespace muve::testing

#endif  // MUVE_TESTS_TESTING_REFERENCE_EXECUTOR_H_
