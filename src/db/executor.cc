#include "db/executor.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <utility>

#include "common/strings.h"
#include "db/lsm/run.h"
#include "db/snapshot.h"
#include "db/vec/aggregate_kernels.h"
#include "db/vec/batch.h"
#include "db/vec/filter_kernels.h"
#include "db/vec/group_kernels.h"

namespace muve::db {

namespace {

// ---------------------------------------------------------------------------
// Logical compilation: predicates and aggregates resolved against the
// schema once per query. Runs dictionary-encode strings independently, so
// string constants stay as strings here and are re-bound to each run's
// dictionary at scan time (BindFilters below).
// ---------------------------------------------------------------------------

struct LogicalPredicate {
  size_t column = 0;
  ValueType type = ValueType::kInt64;
  std::vector<std::string> accepted_strings;
  std::vector<int64_t> accepted_ints;
  std::vector<double> accepted_doubles;
};

Result<LogicalPredicate> Compile(const Table& table,
                                 const Predicate& predicate) {
  LogicalPredicate compiled;
  auto index = table.ColumnIndex(predicate.column);
  if (!index.ok()) {
    return Status::NotFound("predicate column '" + predicate.column +
                            "' not in table '" + table.name() + "'");
  }
  compiled.column = *index;
  compiled.type = table.spec(*index).type;
  if (predicate.values.empty()) {
    return Status::InvalidArgument("predicate without values");
  }
  for (const Value& value : predicate.values) {
    switch (compiled.type) {
      case ValueType::kString:
        if (!value.is_string()) {
          return Status::InvalidArgument(
              "type mismatch in predicate on '" + predicate.column + "'");
        }
        compiled.accepted_strings.push_back(value.AsString());
        break;
      case ValueType::kInt64:
        if (!value.is_int64()) {
          return Status::InvalidArgument(
              "type mismatch in predicate on '" + predicate.column + "'");
        }
        compiled.accepted_ints.push_back(value.AsInt64());
        break;
      case ValueType::kDouble:
        if (!value.is_int64() && !value.is_double()) {
          return Status::InvalidArgument(
              "type mismatch in predicate on '" + predicate.column + "'");
        }
        compiled.accepted_doubles.push_back(value.AsDouble());
        break;
    }
  }
  return compiled;
}

/// One aggregate resolved against the schema. `column` is SIZE_MAX for
/// COUNT (COUNT(col) counts matched rows like COUNT(*), matching SQL on
/// tables without NULLs).
struct CompiledAggregate {
  AggregateFunction fn = AggregateFunction::kCount;
  size_t column = SIZE_MAX;
};

Result<CompiledAggregate> CompileAggregate(const Table& table,
                                           AggregateFunction fn,
                                           const std::string& column_name) {
  CompiledAggregate agg;
  agg.fn = fn;
  if (fn == AggregateFunction::kCount && column_name.empty()) {
    return agg;
  }
  if (column_name.empty()) {
    return Status::InvalidArgument("aggregate needs a column");
  }
  auto index = table.ColumnIndex(column_name);
  if (!index.ok()) {
    return Status::NotFound("aggregate column '" + column_name +
                            "' not in table '" + table.name() + "'");
  }
  if (table.spec(*index).type == ValueType::kString &&
      fn != AggregateFunction::kCount) {
    return Status::InvalidArgument("cannot aggregate string column '" +
                                   column_name + "' with " +
                                   AggregateFunctionName(fn));
  }
  if (fn != AggregateFunction::kCount) agg.column = *index;
  return agg;
}

// ---------------------------------------------------------------------------
// Partial-state arithmetic. A matched row updates sum, min and max
// together regardless of the aggregate function, so one partial layout
// serves every function.
// ---------------------------------------------------------------------------

/// Folds another segment's partial into this one, in segment order. An
/// all-empty segment contributes count 0 and +/-inf extrema, so it
/// cannot leak a 0 identity into AVG/MIN/MAX; FinishPartial decides
/// emptiness from the merged count alone.
inline void MergeInto(const AggregatePartial& src, AggregatePartial* dst) {
  dst->count += src.count;
  dst->sum += src.sum;
  dst->min = std::min(dst->min, src.min);
  dst->max = std::max(dst->max, src.max);
}

AggregateResult FinishPartial(AggregateFunction fn,
                              const AggregatePartial& p) {
  AggregateResult out;
  out.rows_matched = p.count;
  out.empty_input = p.count == 0;
  switch (fn) {
    case AggregateFunction::kCount:
      out.value = static_cast<double>(p.count);
      out.empty_input = false;  // COUNT of empty input is a valid 0.
      break;
    case AggregateFunction::kSum:
      out.value = p.sum;
      break;
    case AggregateFunction::kAvg:
      out.value =
          p.count > 0 ? p.sum / static_cast<double>(p.count) : 0.0;
      break;
    case AggregateFunction::kMin:
      out.value = p.count > 0 ? p.min : 0.0;
      break;
    case AggregateFunction::kMax:
      out.value = p.count > 0 ? p.max : 0.0;
      break;
  }
  return out;
}

GroupedPartial MakeGrid(size_t groups, size_t aggregates) {
  GroupedPartial grid;
  grid.cells.assign(groups, std::vector<AggregatePartial>(aggregates));
  return grid;
}

/// Cell-wise MergeInto over two grids of equal dimensions.
void MergeInto(const GroupedPartial& src, GroupedPartial* dst) {
  for (size_t g = 0; g < dst->cells.size(); ++g) {
    for (size_t a = 0; a < dst->cells[g].size(); ++a) {
      MergeInto(src.cells[g][a], &dst->cells[g][a]);
    }
  }
}

Result<std::vector<LogicalPredicate>> CompilePredicates(
    const Table& table, const std::vector<Predicate>& predicates) {
  std::vector<LogicalPredicate> compiled;
  compiled.reserve(predicates.size());
  for (const Predicate& predicate : predicates) {
    MUVE_ASSIGN_OR_RETURN(LogicalPredicate c, Compile(table, predicate));
    compiled.push_back(std::move(c));
  }
  return compiled;
}

// ---------------------------------------------------------------------------
// Storage segments: the scan units of one snapshot, its non-empty runs in
// logical order. Row indices inside a segment are segment-local; `begin`
// maps them back to global row numbers for deadline diagnostics.
// ---------------------------------------------------------------------------

struct Segment {
  const lsm::Run* run = nullptr;
  size_t begin = 0;
  size_t rows = 0;
};

std::vector<Segment> MakeSegments(const TableSnapshot& snapshot) {
  std::vector<Segment> segments;
  size_t offset = 0;
  for (const auto& run : snapshot.runs()) {
    if (run->num_rows() == 0) continue;
    segments.push_back({run.get(), offset, run->num_rows()});
    offset += run->num_rows();
  }
  return segments;
}

// ---------------------------------------------------------------------------
// Per-run binding: each predicate lowered once per run to a kernel
// dispatch over that run's columns. String constants become this run's
// dictionary codes.
// ---------------------------------------------------------------------------

/// One predicate bound to a run: a kind tag, the run column's raw data
/// pointer, and the constant(s) in kernel-ready form (single key,
/// dictionary accept mask, or a pointer into the logical predicate's
/// value list). `int_keys`/`double_keys` alias the logical predicate
/// vectors, so the compiled predicates must outlive the filters;
/// everything else is self-contained.
struct VecFilter {
  enum class Kind {
    kNever,      // String constant(s) absent from this run's dictionary.
    kCodeEq,     // Dictionary code == single accepted code.
    kCodeMask,   // Dictionary code accepted by a mask (IN list).
    kIntEq,
    kIntIn,
    kDoubleEq,
    kDoubleIn,
  };

  Kind kind = Kind::kNever;
  const uint32_t* codes = nullptr;
  const int64_t* ints = nullptr;
  const double* doubles = nullptr;
  uint32_t code = 0;
  int64_t int_key = 0;
  double double_key = 0.0;
  std::vector<uint8_t> mask;
  const int64_t* int_keys = nullptr;
  const double* double_keys = nullptr;
  size_t num_keys = 0;
};

std::vector<VecFilter> BindFilters(const std::vector<LogicalPredicate>& logical,
                                   const lsm::Run& run) {
  std::vector<VecFilter> filters;
  filters.reserve(logical.size());
  for (const LogicalPredicate& p : logical) {
    const Column& column = run.column(p.column);
    VecFilter f;
    switch (p.type) {
      case ValueType::kString: {
        f.codes = column.codes_raw();
        std::vector<uint32_t> accepted;
        for (const std::string& text : p.accepted_strings) {
          const uint32_t code = column.CodeFor(text);
          if (code != kInvalidCode) accepted.push_back(code);
        }
        if (accepted.empty()) {
          f.kind = VecFilter::Kind::kNever;
        } else if (accepted.size() == 1) {
          f.kind = VecFilter::Kind::kCodeEq;
          f.code = accepted[0];
        } else {
          f.kind = VecFilter::Kind::kCodeMask;
          f.mask = column.AcceptMask(accepted);
        }
        break;
      }
      case ValueType::kInt64:
        f.ints = column.int_raw();
        if (p.accepted_ints.size() == 1) {
          f.kind = VecFilter::Kind::kIntEq;
          f.int_key = p.accepted_ints[0];
        } else {
          f.kind = VecFilter::Kind::kIntIn;
          f.int_keys = p.accepted_ints.data();
          f.num_keys = p.accepted_ints.size();
        }
        break;
      case ValueType::kDouble:
        f.doubles = column.double_raw();
        if (p.accepted_doubles.size() == 1) {
          f.kind = VecFilter::Kind::kDoubleEq;
          f.double_key = p.accepted_doubles[0];
        } else {
          f.kind = VecFilter::Kind::kDoubleIn;
          f.double_keys = p.accepted_doubles.data();
          f.num_keys = p.accepted_doubles.size();
        }
        break;
    }
    filters.push_back(std::move(f));
  }
  return filters;
}

/// Applies every filter to the batch [base, base + count), alternating the
/// scratch selection buffers. Returns the surviving row count; `*sel` is
/// the surviving selection, or nullptr when all `count` rows survived (the
/// identity selection — callers use the dense aggregate fast path).
size_t RunFilters(const std::vector<VecFilter>& filters, size_t base,
                  size_t count, vec::BatchScratch* scratch,
                  const uint32_t** sel) {
  *sel = nullptr;
  if (filters.empty()) return count;
  uint32_t* cur = scratch->a;
  uint32_t* next = scratch->b;
  size_t n = count;
  bool have_sel = false;
  for (const VecFilter& f : filters) {
    switch (f.kind) {
      case VecFilter::Kind::kNever:
        return 0;
      case VecFilter::Kind::kCodeEq:
        n = have_sel
                ? vec::RefineEqU32(f.codes + base, cur, n, f.code, next)
                : vec::FilterEqU32(f.codes + base, count, f.code, cur);
        break;
      case VecFilter::Kind::kCodeMask:
        n = have_sel ? vec::RefineMaskU32(f.codes + base, cur, n,
                                          f.mask.data(), next)
                     : vec::FilterMaskU32(f.codes + base, count,
                                          f.mask.data(), cur);
        break;
      case VecFilter::Kind::kIntEq:
        n = have_sel
                ? vec::RefineEqI64(f.ints + base, cur, n, f.int_key, next)
                : vec::FilterEqI64(f.ints + base, count, f.int_key, cur);
        break;
      case VecFilter::Kind::kIntIn:
        n = have_sel ? vec::RefineInI64(f.ints + base, cur, n, f.int_keys,
                                        f.num_keys, next)
                     : vec::FilterInI64(f.ints + base, count, f.int_keys,
                                        f.num_keys, cur);
        break;
      case VecFilter::Kind::kDoubleEq:
        n = have_sel ? vec::RefineEqF64(f.doubles + base, cur, n,
                                        f.double_key, next)
                     : vec::FilterEqF64(f.doubles + base, count,
                                        f.double_key, cur);
        break;
      case VecFilter::Kind::kDoubleIn:
        n = have_sel ? vec::RefineInF64(f.doubles + base, cur, n,
                                        f.double_keys, f.num_keys, next)
                     : vec::FilterInF64(f.doubles + base, count,
                                        f.double_keys, f.num_keys, cur);
        break;
    }
    if (have_sel) std::swap(cur, next);
    have_sel = true;
    if (n == 0) return 0;
  }
  // A selection that kept every row is the identity — report it as the
  // all-selected fast path so aggregates skip the gather indirection.
  if (n == count) return count;
  *sel = cur;
  return n;
}

/// Folds one batch's selection into a partial. `sel == nullptr` means
/// all `n` rows of the batch matched (dense fast path). Count always
/// advances; SUM/MIN/MAX state only for column-bearing aggregates, one
/// row at a time in ascending row order.
void AccumulateBatch(const Column* column, size_t base, const uint32_t* sel,
                     size_t n, AggregatePartial* p) {
  p->count += n;
  if (column == nullptr || n == 0) return;
  if (column->type() == ValueType::kInt64) {
    const int64_t* data = column->int_raw() + base;
    if (sel == nullptr) {
      p->sum = vec::SumDenseI64(data, n, p->sum);
      p->min = vec::MinDenseI64(data, n, p->min);
      p->max = vec::MaxDenseI64(data, n, p->max);
    } else {
      p->sum = vec::SumGatherI64(data, sel, n, p->sum);
      p->min = vec::MinGatherI64(data, sel, n, p->min);
      p->max = vec::MaxGatherI64(data, sel, n, p->max);
    }
  } else {
    const double* data = column->double_raw() + base;
    if (sel == nullptr) {
      p->sum = vec::SumDenseF64(data, n, p->sum);
      p->min = vec::MinDenseF64(data, n, p->min);
      p->max = vec::MaxDenseF64(data, n, p->max);
    } else {
      p->sum = vec::SumGatherF64(data, sel, n, p->sum);
      p->min = vec::MinGatherF64(data, sel, n, p->min);
      p->max = vec::MaxGatherF64(data, sel, n, p->max);
    }
  }
}

/// Folds one group-mapped batch into the grid for aggregate slot `a`:
/// sel/groups are parallel arrays from MapGroups (ascending row offsets
/// plus each row's group index). Per-row work matches AccumulateBatch
/// exactly.
void AccumulateGroupedBatch(const Column* column, size_t base,
                            const uint32_t* sel, const uint32_t* groups,
                            size_t n, size_t a, GroupedPartial* grid) {
  if (column == nullptr) {
    for (size_t i = 0; i < n; ++i) ++grid->cells[groups[i]][a].count;
    return;
  }
  if (column->type() == ValueType::kInt64) {
    const int64_t* data = column->int_raw() + base;
    for (size_t i = 0; i < n; ++i) {
      AggregatePartial& p = grid->cells[groups[i]][a];
      const double v = static_cast<double>(data[sel[i]]);
      ++p.count;
      p.sum += v;
      p.min = v < p.min ? v : p.min;
      p.max = p.max < v ? v : p.max;
    }
  } else {
    const double* data = column->double_raw() + base;
    for (size_t i = 0; i < n; ++i) {
      AggregatePartial& p = grid->cells[groups[i]][a];
      const double v = data[sel[i]];
      ++p.count;
      p.sum += v;
      p.min = v < p.min ? v : p.min;
      p.max = p.max < v ? v : p.max;
    }
  }
}

// ---------------------------------------------------------------------------
// Per-shape scanners: what ScanSnapshot needs to know about one query
// shape — the merge identity of its partial, the per-run binding, and
// the scan of one run range. Runs are scanned as vec::kBatchSize-row
// column batches tiled from the range start (filters fill selection
// vectors, aggregates fold the selected offsets), in ascending row
// order, the order tests/testing/reference_executor.h reproduces one
// value at a time. A scanner is compiled once per query and read-only
// afterwards, so pool workers share it.
// ---------------------------------------------------------------------------

/// SELECT fn(column) ... WHERE predicates.
struct AggregateScanner {
  using Partial = AggregatePartial;
  struct Bound {
    std::vector<VecFilter> filters;
    const Column* agg_column = nullptr;  ///< null for COUNT.
  };

  std::vector<LogicalPredicate> predicates;
  CompiledAggregate agg;

  Partial Identity() const { return {}; }

  Bound Bind(const lsm::Run& run) const {
    Bound bound;
    bound.filters = BindFilters(predicates, run);
    if (agg.column != SIZE_MAX) bound.agg_column = &run.column(agg.column);
    return bound;
  }

  void ScanRun(const Bound& bound, size_t begin, size_t end,
               vec::BatchScratch* scratch, Partial* p) const {
    for (size_t base = begin; base < end; base += vec::kBatchSize) {
      const size_t count = std::min(vec::kBatchSize, end - base);
      const uint32_t* sel = nullptr;
      const size_t n = RunFilters(bound.filters, base, count, scratch, &sel);
      if (n == 0) continue;
      AccumulateBatch(bound.agg_column, base, sel, n, p);
    }
  }
};

/// A merged query (paper §8.1): shared predicates plus an IN-list group
/// column, one partial per (group value, aggregate) cell. Duplicate
/// group values resolve first-wins.
struct GroupedScanner {
  using Partial = GroupedPartial;
  struct Bound {
    std::vector<VecFilter> filters;
    const uint32_t* group_codes = nullptr;
    std::vector<uint32_t> group_lookup;  ///< Run code -> group index.
    std::vector<const Column*> agg_columns;  ///< null for COUNT.
  };

  std::vector<LogicalPredicate> predicates;
  std::vector<CompiledAggregate> aggs;
  size_t group_column = 0;
  const std::vector<std::string>* group_values = nullptr;

  Partial Identity() const {
    return MakeGrid(group_values->size(), aggs.size());
  }

  Bound Bind(const lsm::Run& run) const {
    Bound bound;
    bound.filters = BindFilters(predicates, run);
    const Column& group = run.column(group_column);
    bound.group_codes = group.codes_raw();
    bound.group_lookup = vec::BuildGroupLookup(group, *group_values);
    bound.agg_columns.reserve(aggs.size());
    for (const CompiledAggregate& agg : aggs) {
      bound.agg_columns.push_back(
          agg.column == SIZE_MAX ? nullptr : &run.column(agg.column));
    }
    return bound;
  }

  /// Filters each batch on the shared predicates, maps the survivors to
  /// groups through the dense dictionary lookup, then folds each
  /// aggregate column over the compacted selection.
  void ScanRun(const Bound& bound, size_t begin, size_t end,
               vec::BatchScratch* scratch, Partial* grid) const {
    if (grid->cells.empty()) return;  // No groups: nothing can accumulate.
    for (size_t base = begin; base < end; base += vec::kBatchSize) {
      const size_t count = std::min(vec::kBatchSize, end - base);
      const uint32_t* sel = nullptr;
      const size_t n = RunFilters(bound.filters, base, count, scratch, &sel);
      if (n == 0) continue;
      const uint32_t* codes = bound.group_codes + base;
      const uint32_t* lookup = bound.group_lookup.data();
      const size_t m =
          sel == nullptr
              ? vec::MapGroupsDense(codes, n, lookup, scratch->c,
                                    scratch->groups)
              : vec::MapGroups(codes, sel, n, lookup, scratch->c,
                               scratch->groups);
      for (size_t a = 0; a < bound.agg_columns.size(); ++a) {
        AccumulateGroupedBatch(bound.agg_columns[a], base, scratch->c,
                               scratch->groups, m, a, grid);
      }
    }
  }
};

// ---------------------------------------------------------------------------
// ScanSnapshot: the one scan loop both query shapes share.
// ---------------------------------------------------------------------------

struct Slice {
  size_t segment = 0;  ///< Index into the segment list.
  size_t begin = 0;    ///< Segment-local row range.
  size_t end = 0;
};

/// Scans `snapshot` through `scanner` (one compiled query):
///   1. cut the snapshot into segments and bind every run once;
///   2. cut every segment into fixed `parallel_grain` slices, measured
///      from the segment start;
///   3. scan every slice into a partial that starts at the identity,
///      checking the deadline before each slice — on the pool when it
///      has >= 2 threads and the snapshot more than one grain of rows,
///      otherwise inline on the caller;
///   4. fold the slice partials into their segment's in slice order, then
///      the segment partials into the total in segment order.
/// Steps 2 and 4 do not depend on how step 3 runs, so the result is
/// bitwise the same at every thread count and pool size. `shape` names
/// the query shape in Timeout messages.
template <typename Scanner>
Result<typename Scanner::Partial> ScanSnapshot(const TableSnapshot& snapshot,
                                               const Scanner& scanner,
                                               const ExecutorOptions& options,
                                               const std::string& shape) {
  using Partial = typename Scanner::Partial;
  const size_t n = snapshot.num_rows();
  const size_t grain = std::max<size_t>(1, options.parallel_grain);
  const std::vector<Segment> segments = MakeSegments(snapshot);
  Partial identity = scanner.Identity();

  std::vector<Partial> seg_partials(segments.size(), identity);
  std::vector<typename Scanner::Bound> bound(segments.size());
  std::vector<Slice> slices;
  for (size_t s = 0; s < segments.size(); ++s) {
    const Segment& seg = segments[s];
    bound[s] = scanner.Bind(*seg.run);
    for (size_t begin = 0; begin < seg.rows; begin += grain) {
      slices.push_back({s, begin, std::min(seg.rows, begin + grain)});
    }
  }

  // A pooled scan gives every slice its own partial and folds them after
  // the scan; an inline scan reuses one, folding it into its segment as
  // soon as the slice ends (one chunk, one BatchScratch per call).
  ThreadPool* pool = options.pool != nullptr &&
                             options.pool->num_threads() >= 2 && n > grain
                         ? options.pool
                         : nullptr;
  std::vector<Partial> slice_partials(pool != nullptr ? slices.size() : 1,
                                      identity);
  const auto fold = [&](size_t i, const Partial& partial) {
    MergeInto(partial, &seg_partials[slices[i].segment]);
  };
  const bool finite = options.deadline.IsFinite();
  // The first slice the deadline cut; a pooled worker stops its own
  // chunk, the others skip theirs as they reach the check.
  std::atomic<size_t> cut{slices.size()};
  ParallelFor(
      pool, slices.size(), pool != nullptr ? 1 : slices.size(),
      [&](size_t /*chunk*/, size_t first, size_t last) {
        auto scratch = std::make_unique<vec::BatchScratch>();
        for (size_t i = first; i < last; ++i) {
          if (finite && options.deadline.Expired()) {
            cut.store(i, std::memory_order_relaxed);
            return;
          }
          const Slice& slice = slices[i];
          Partial& partial = slice_partials[pool != nullptr ? i : 0];
          if (pool == nullptr) partial = identity;
          scanner.ScanRun(bound[slice.segment], slice.begin, slice.end,
                          scratch.get(), &partial);
          if (pool == nullptr) fold(i, partial);
        }
      });
  const size_t stopped = cut.load(std::memory_order_relaxed);
  if (stopped < slices.size()) {
    if (pool != nullptr) {
      return Status::Timeout("parallel " + shape + " scan cancelled (" +
                             std::to_string(n) + " rows)");
    }
    const Slice& slice = slices[stopped];
    return Status::Timeout(
        shape + " scan cancelled at row " +
        std::to_string(segments[slice.segment].begin + slice.begin) + "/" +
        std::to_string(n));
  }
  if (pool != nullptr) {
    for (size_t i = 0; i < slices.size(); ++i) fold(i, slice_partials[i]);
  }

  Partial total = std::move(identity);  // Not needed past the scan.
  for (const Partial& partial : seg_partials) MergeInto(partial, &total);
  return total;
}

}  // namespace

std::string GroupByQuery::ToSql() const {
  std::string sql = "SELECT " + group_column;
  for (const AggregateSpec& agg : aggregates) {
    sql += StrCat({", ", AggregateFunctionName(agg.function), "(",
                   agg.column.empty() ? "*" : agg.column, ")"});
  }
  sql += " FROM " + table;
  std::vector<Predicate> all = shared_predicates;
  std::vector<Value> in_values;
  in_values.reserve(group_values.size());
  for (const std::string& v : group_values) in_values.emplace_back(v);
  all.push_back(Predicate::In(group_column, std::move(in_values)));
  sql += " WHERE ";
  for (size_t i = 0; i < all.size(); ++i) {
    if (i > 0) sql += " AND ";
    sql += all[i].ToSql();
  }
  sql += " GROUP BY " + group_column;
  return sql;
}

Result<AggregatePartial> Executor::ExecutePartial(
    const TableSnapshot& snapshot, const AggregateQuery& query,
    const ExecutorOptions& options) {
  if (!snapshot.valid()) {
    return Status::InvalidArgument("executor needs a valid snapshot");
  }
  const Table& table = snapshot.table();
  AggregateScanner scanner;
  MUVE_ASSIGN_OR_RETURN(scanner.predicates,
                        CompilePredicates(table, query.predicates));
  MUVE_ASSIGN_OR_RETURN(
      scanner.agg,
      CompileAggregate(table, query.function, query.aggregate_column));
  return ScanSnapshot(snapshot, scanner, options, "aggregate");
}

Result<AggregateResult> Executor::Execute(const TableSnapshot& snapshot,
                                          const AggregateQuery& query,
                                          const ExecutorOptions& options) {
  MUVE_ASSIGN_OR_RETURN(AggregatePartial total,
                        ExecutePartial(snapshot, query, options));
  return FinishPartial(query.function, total);
}

Result<AggregateResult> Executor::Execute(const Table& table,
                                          const AggregateQuery& query,
                                          const ExecutorOptions& options) {
  return Execute(table.Snapshot(), query, options);
}

Result<GroupedPartial> Executor::ExecuteGroupedPartial(
    const TableSnapshot& snapshot, const GroupByQuery& query,
    const ExecutorOptions& options) {
  if (!snapshot.valid()) {
    return Status::InvalidArgument("executor needs a valid snapshot");
  }
  const Table& table = snapshot.table();

  auto group_index = table.ColumnIndex(query.group_column);
  if (!group_index.ok()) {
    return Status::NotFound("group column '" + query.group_column +
                            "' not in table '" + table.name() + "'");
  }
  if (table.spec(*group_index).type != ValueType::kString) {
    return Status::InvalidArgument("GROUP BY requires a string column");
  }

  GroupedScanner scanner;
  MUVE_ASSIGN_OR_RETURN(scanner.predicates,
                        CompilePredicates(table, query.shared_predicates));
  scanner.aggs.reserve(query.aggregates.size());
  for (const AggregateSpec& spec : query.aggregates) {
    MUVE_ASSIGN_OR_RETURN(
        CompiledAggregate agg,
        CompileAggregate(table, spec.function, spec.column));
    scanner.aggs.push_back(agg);
  }
  scanner.group_column = *group_index;
  scanner.group_values = &query.group_values;
  return ScanSnapshot(snapshot, scanner, options, "grouped");
}

Result<GroupByResult> Executor::ExecuteGrouped(
    const TableSnapshot& snapshot, const GroupByQuery& query,
    const ExecutorOptions& options) {
  MUVE_ASSIGN_OR_RETURN(GroupedPartial total,
                        ExecuteGroupedPartial(snapshot, query, options));
  return FinishGrouped(query, total, snapshot.num_rows());
}

Result<GroupByResult> Executor::ExecuteGrouped(
    const Table& table, const GroupByQuery& query,
    const ExecutorOptions& options) {
  return ExecuteGrouped(table.Snapshot(), query, options);
}

void Executor::MergePartial(const AggregatePartial& src,
                            AggregatePartial* dst) {
  MergeInto(src, dst);
}

void Executor::MergePartial(const GroupedPartial& src, GroupedPartial* dst) {
  MergeInto(src, dst);
}

GroupedPartial Executor::MakeGroupedIdentity(const GroupByQuery& query) {
  return MakeGrid(query.group_values.size(), query.aggregates.size());
}

AggregateResult Executor::FinishAggregate(AggregateFunction fn,
                                          const AggregatePartial& partial) {
  return FinishPartial(fn, partial);
}

GroupByResult Executor::FinishGrouped(const GroupByQuery& query,
                                      const GroupedPartial& total,
                                      size_t rows_scanned) {
  GroupByResult out;
  out.rows_scanned = rows_scanned;
  const size_t num_groups = query.group_values.size();
  const size_t num_aggs = query.aggregates.size();
  out.cells.resize(num_groups);
  for (size_t g = 0; g < num_groups; ++g) {
    out.cells[g].reserve(num_aggs);
    for (size_t a = 0; a < num_aggs; ++a) {
      out.cells[g].push_back(
          FinishPartial(query.aggregates[a].function, total.cells[g][a]));
    }
  }
  return out;
}

double Executor::ScaleSampledValue(AggregateFunction fn, double value,
                                   double fraction) {
  if (fraction <= 0.0 || fraction >= 1.0) return value;
  switch (fn) {
    case AggregateFunction::kCount:
    case AggregateFunction::kSum:
      return value / fraction;
    case AggregateFunction::kAvg:
    case AggregateFunction::kMin:
    case AggregateFunction::kMax:
      return value;
  }
  return value;
}

}  // namespace muve::db
