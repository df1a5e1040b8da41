#ifndef MUVE_TESTS_TESTING_RANDOM_WORKLOAD_H_
#define MUVE_TESTS_TESTING_RANDOM_WORKLOAD_H_

/// Seeded random workload generation for the differential test harness
/// (tests/differential_test.cc): random tables, aggregate queries,
/// grouped queries, and candidate sets, all derived deterministically
/// from an Rng so every failure reproduces from its seed.

#include <algorithm>
#include <cassert>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/strings.h"
#include "core/candidate.h"
#include "db/executor.h"
#include "db/query.h"
#include "db/table.h"
#include "db/value.h"
#include "testing/template_oracle.h"

namespace muve::testing {

/// Shape controls for RandomTable.
struct RandomTableOptions {
  size_t min_rows = 500;
  size_t max_rows = 4000;
  size_t min_string_columns = 2;
  size_t max_string_columns = 4;
  size_t min_numeric_columns = 1;
  size_t max_numeric_columns = 3;
  /// Distinct values per string column (small, so predicates both hit
  /// and miss and GROUP BY groups stay populated).
  size_t min_vocab = 3;
  size_t max_vocab = 8;
  /// Flush threshold of the generated table. Small enough that every
  /// default-shaped random table (>= 500 rows) spans several sealed runs
  /// plus open rows, so scans cross run boundaries (where per-run
  /// dictionaries and batch tiling restart).
  size_t flush_threshold = 256;
  /// Draw double values on a dyadic grid (multiples of 2^-10 within
  /// +/-500) instead of the continuous range. Every partial sum of such
  /// values is exactly representable, so SUM/AVG become associativity-
  /// independent: any regrouping of the additions — different shard
  /// counts, partition grains, merge orders — must produce bit-identical
  /// results, letting differential suites assert byte equality where
  /// arbitrary doubles would only allow a tolerance.
  bool dyadic_doubles = false;
};

/// Short pronounceable-ish vocabulary entries: "v<k>_<column>".
inline std::vector<std::string> MakeVocabulary(size_t column_index,
                                               size_t size) {
  std::vector<std::string> vocab;
  vocab.reserve(size);
  for (size_t k = 0; k < size; ++k) {
    vocab.push_back(std::string("v")
                        .append(std::to_string(k))
                        .append("c")
                        .append(std::to_string(column_index)));
  }
  return vocab;
}

/// Builds a random table: a few dictionary-encoded string columns with
/// small vocabularies and a few numeric columns (mixed int64/double,
/// values spanning sign changes so SUM/AVG exercise cancellation).
inline std::shared_ptr<db::Table> RandomTable(
    Rng* rng, const RandomTableOptions& options = {}) {
  const size_t num_string =
      static_cast<size_t>(rng->UniformInRange(
          static_cast<int64_t>(options.min_string_columns),
          static_cast<int64_t>(options.max_string_columns)));
  const size_t num_numeric =
      static_cast<size_t>(rng->UniformInRange(
          static_cast<int64_t>(options.min_numeric_columns),
          static_cast<int64_t>(options.max_numeric_columns)));
  std::vector<db::ColumnSpec> schema;
  std::vector<std::vector<std::string>> vocabularies;
  for (size_t c = 0; c < num_string; ++c) {
    schema.push_back(
        {std::string("s").append(std::to_string(c)), db::ValueType::kString});
    vocabularies.push_back(MakeVocabulary(
        c, static_cast<size_t>(rng->UniformInRange(
               static_cast<int64_t>(options.min_vocab),
               static_cast<int64_t>(options.max_vocab)))));
  }
  std::vector<bool> numeric_is_int;
  for (size_t c = 0; c < num_numeric; ++c) {
    const bool is_int = rng->Bernoulli(0.5);
    numeric_is_int.push_back(is_int);
    schema.push_back({std::string("n").append(std::to_string(c)),
                      is_int ? db::ValueType::kInt64
                             : db::ValueType::kDouble});
  }
  db::TableOptions table_options;
  table_options.flush_threshold = options.flush_threshold;
  auto table = db::Table::Create("rand", schema, table_options);
  assert(table.ok());
  const size_t rows = static_cast<size_t>(
      rng->UniformInRange(static_cast<int64_t>(options.min_rows),
                          static_cast<int64_t>(options.max_rows)));
  for (size_t r = 0; r < rows; ++r) {
    std::vector<db::Value> row;
    row.reserve(schema.size());
    for (size_t c = 0; c < num_string; ++c) {
      row.emplace_back(rng->Choice(vocabularies[c]));
    }
    for (size_t c = 0; c < num_numeric; ++c) {
      if (numeric_is_int[c]) {
        row.emplace_back(rng->UniformInRange(-1000, 1000));
      } else if (options.dyadic_doubles) {
        row.emplace_back(
            static_cast<double>(rng->UniformInRange(-512000, 512000)) /
            1024.0);
      } else {
        row.emplace_back(rng->UniformDouble(-500.0, 500.0));
      }
    }
    const Status status = (*table)->AppendRow(row);
    assert(status.ok());
    (void)status;
  }
  return std::move(table).value();
}

/// Random equality predicate on a string column. With probability
/// `miss_probability` the constant is absent from the column's active
/// domain, producing a legally-zero-row scan (the empty-input cases the
/// parallel merge must preserve).
inline db::Predicate RandomPredicate(const db::Table& table, Rng* rng,
                                     double miss_probability = 0.15) {
  const std::vector<std::string> columns =
      table.ColumnNamesOfType(db::ValueType::kString);
  const std::string& column = rng->Choice(columns);
  if (rng->Bernoulli(miss_probability)) {
    return db::Predicate::Equals(column, db::Value("absent_value"));
  }
  const std::vector<std::string> domain = table.StringValues(column);
  return db::Predicate::Equals(column, db::Value(rng->Choice(domain)));
}

/// Random equality/IN predicate over any column type — the workload the
/// vectorized filter kernels cover: dictionary-code compares and accept
/// masks for string columns, single-key compares and IN loops for int64
/// and double columns. Each value independently misses the column's
/// active domain with probability `miss_probability` (on an empty table
/// every value misses), so scans legally match zero rows.
inline db::Predicate RandomVecPredicate(const db::Table& table, Rng* rng,
                                        double miss_probability = 0.15) {
  const size_t column_index = static_cast<size_t>(rng->UniformInRange(
      0, static_cast<int64_t>(table.num_columns()) - 1));
  const db::ColumnSpec& spec = table.spec(column_index);
  const size_t num_rows = table.num_rows();
  const std::vector<std::string> domain =
      spec.type == db::ValueType::kString ? table.StringValues(column_index)
                                          : std::vector<std::string>();
  const size_t list_size =
      rng->Bernoulli(0.5) ? 1
                          : static_cast<size_t>(rng->UniformInRange(2, 6));
  const auto random_row = [&] {
    return static_cast<size_t>(rng->UniformInRange(
        0, static_cast<int64_t>(num_rows) - 1));
  };
  std::vector<db::Value> values;
  values.reserve(list_size);
  for (size_t k = 0; k < list_size; ++k) {
    const bool miss = num_rows == 0 || rng->Bernoulli(miss_probability);
    switch (spec.type) {
      case db::ValueType::kString:
        values.emplace_back(miss || domain.empty()
                                ? StrCat({"absent_value_", std::to_string(k)})
                                : rng->Choice(domain));
        break;
      case db::ValueType::kInt64:
        values.emplace_back(
            miss ? static_cast<int64_t>(1000000 + k)
                 : table.ValueAt(random_row(), column_index).AsInt64());
        break;
      case db::ValueType::kDouble:
        values.emplace_back(
            miss ? 1.0e6 + static_cast<double>(k)
                 : table.ValueAt(random_row(), column_index).AsDouble());
        break;
    }
  }
  return values.size() == 1
             ? db::Predicate::Equals(spec.name, values[0])
             : db::Predicate::In(spec.name, std::move(values));
}

/// Random single-aggregate query whose predicates span every vectorized
/// filter kernel: equality and IN over string, int64 and double columns,
/// possibly several on the same column (chained refine kernels over the
/// same data).
inline db::AggregateQuery RandomVecAggregateQuery(const db::Table& table,
                                                  Rng* rng) {
  db::AggregateQuery query;
  query.table = table.name();
  std::vector<std::string> numeric =
      table.ColumnNamesOfType(db::ValueType::kInt64);
  const std::vector<std::string> numeric_double =
      table.ColumnNamesOfType(db::ValueType::kDouble);
  numeric.insert(numeric.end(), numeric_double.begin(),
                 numeric_double.end());
  if (numeric.empty() || rng->Bernoulli(0.25)) {
    query.function = db::AggregateFunction::kCount;
  } else {
    query.function = rng->Choice(db::AllAggregateFunctions());
    if (query.function != db::AggregateFunction::kCount) {
      query.aggregate_column = rng->Choice(numeric);
    }
  }
  const size_t num_predicates =
      static_cast<size_t>(rng->UniformInRange(0, 3));
  for (size_t p = 0; p < num_predicates; ++p) {
    query.predicates.push_back(RandomVecPredicate(table, rng));
  }
  return query;
}

/// Random merged (GROUP BY) query whose shared predicates span the
/// vectorized kernels (any column type, equality and IN), instead of
/// RandomGroupByQuery's string-equality-only shared predicate. Safe on
/// empty tables (where RandomGroupByQuery's predicate choice is not):
/// the group list degenerates to the always-absent group value.
inline db::GroupByQuery RandomVecGroupByQuery(const db::Table& table,
                                              Rng* rng) {
  db::GroupByQuery query;
  query.table = table.name();
  const std::vector<std::string> string_columns =
      table.ColumnNamesOfType(db::ValueType::kString);
  query.group_column = rng->Choice(string_columns);
  for (const std::string& value : table.StringValues(query.group_column)) {
    if (rng->Bernoulli(0.8)) query.group_values.push_back(value);
  }
  // An absent group value: its cells must come back empty, not zeroed.
  query.group_values.push_back("absent_group");
  const size_t num_predicates =
      static_cast<size_t>(rng->UniformInRange(0, 2));
  for (size_t p = 0; p < num_predicates; ++p) {
    db::Predicate predicate = RandomVecPredicate(table, rng);
    if (predicate.column != query.group_column) {
      query.shared_predicates.push_back(std::move(predicate));
    }
  }
  std::vector<std::string> numeric =
      table.ColumnNamesOfType(db::ValueType::kInt64);
  const std::vector<std::string> numeric_double =
      table.ColumnNamesOfType(db::ValueType::kDouble);
  numeric.insert(numeric.end(), numeric_double.begin(),
                 numeric_double.end());
  const size_t num_aggregates =
      static_cast<size_t>(rng->UniformInRange(1, 3));
  for (size_t a = 0; a < num_aggregates; ++a) {
    db::AggregateSpec spec;
    if (numeric.empty() || rng->Bernoulli(0.3)) {
      spec.function = db::AggregateFunction::kCount;
    } else {
      spec.function = rng->Choice(db::AllAggregateFunctions());
      if (spec.function != db::AggregateFunction::kCount) {
        spec.column = rng->Choice(numeric);
      }
    }
    query.aggregates.push_back(std::move(spec));
  }
  return query;
}

/// Random single-aggregate query: uniformly chosen aggregate function
/// (COUNT(*) or SUM/AVG/MIN/MAX over a numeric column) plus 0-3
/// predicates on distinct string columns.
inline db::AggregateQuery RandomAggregateQuery(const db::Table& table,
                                               Rng* rng) {
  db::AggregateQuery query;
  query.table = table.name();
  const std::vector<std::string> numeric_int =
      table.ColumnNamesOfType(db::ValueType::kInt64);
  const std::vector<std::string> numeric_double =
      table.ColumnNamesOfType(db::ValueType::kDouble);
  std::vector<std::string> numeric = numeric_int;
  numeric.insert(numeric.end(), numeric_double.begin(),
                 numeric_double.end());
  if (numeric.empty() || rng->Bernoulli(0.25)) {
    query.function = db::AggregateFunction::kCount;
  } else {
    query.function = rng->Choice(db::AllAggregateFunctions());
    if (query.function != db::AggregateFunction::kCount) {
      query.aggregate_column = rng->Choice(numeric);
    }
  }
  const size_t num_predicates =
      static_cast<size_t>(rng->UniformInRange(0, 3));
  std::vector<std::string> used;
  for (size_t p = 0; p < num_predicates; ++p) {
    db::Predicate predicate = RandomPredicate(table, rng);
    bool duplicate = false;
    for (const std::string& name : used) {
      if (name == predicate.column) duplicate = true;
    }
    if (duplicate) continue;
    used.push_back(predicate.column);
    query.predicates.push_back(std::move(predicate));
  }
  return query;
}

/// Random merged (GROUP BY) query: an IN list over most of one string
/// column's domain (plus an always-absent group value) and 1-3
/// aggregates, with optional shared predicates.
inline db::GroupByQuery RandomGroupByQuery(const db::Table& table,
                                           Rng* rng) {
  db::GroupByQuery query;
  query.table = table.name();
  const std::vector<std::string> string_columns =
      table.ColumnNamesOfType(db::ValueType::kString);
  query.group_column = rng->Choice(string_columns);
  for (const std::string& value : table.StringValues(query.group_column)) {
    if (rng->Bernoulli(0.8)) query.group_values.push_back(value);
  }
  // An absent group value: its cells must come back empty, not zeroed.
  query.group_values.push_back("absent_group");
  if (rng->Bernoulli(0.5)) {
    db::Predicate shared = RandomPredicate(table, rng);
    if (shared.column != query.group_column) {
      query.shared_predicates.push_back(std::move(shared));
    }
  }
  const std::vector<std::string> numeric_int =
      table.ColumnNamesOfType(db::ValueType::kInt64);
  const std::vector<std::string> numeric_double =
      table.ColumnNamesOfType(db::ValueType::kDouble);
  std::vector<std::string> numeric = numeric_int;
  numeric.insert(numeric.end(), numeric_double.begin(),
                 numeric_double.end());
  const size_t num_aggregates =
      static_cast<size_t>(rng->UniformInRange(1, 3));
  for (size_t a = 0; a < num_aggregates; ++a) {
    db::AggregateSpec spec;
    if (numeric.empty() || rng->Bernoulli(0.3)) {
      spec.function = db::AggregateFunction::kCount;
    } else {
      spec.function = rng->Choice(db::AllAggregateFunctions());
      if (spec.function != db::AggregateFunction::kCount) {
        spec.column = rng->Choice(numeric);
      }
    }
    query.aggregates.push_back(std::move(spec));
  }
  return query;
}

/// Random candidate set with merge structure: a few "families" whose
/// members differ only in one predicate's constant (so the merger can
/// rewrite them into grouped queries), plus loose unmergeable singles
/// (no predicates, or a family of one).
inline core::CandidateSet RandomCandidateSet(const db::Table& table,
                                             Rng* rng,
                                             size_t max_candidates = 16) {
  core::CandidateSet set;
  const size_t families = static_cast<size_t>(rng->UniformInRange(1, 3));
  for (size_t f = 0; f < families && set.size() < max_candidates; ++f) {
    db::AggregateQuery base = RandomAggregateQuery(table, rng);
    if (base.predicates.empty()) {
      base.predicates.push_back(RandomPredicate(table, rng, 0.0));
    }
    // Vary the first predicate's constant over the column's domain.
    const std::vector<std::string> domain =
        table.StringValues(base.predicates.front().column);
    const size_t members = static_cast<size_t>(
        rng->UniformInRange(1, static_cast<int64_t>(
                                   std::min<size_t>(domain.size(), 5))));
    for (size_t m = 0; m < members && set.size() < max_candidates; ++m) {
      db::AggregateQuery member = base;
      member.predicates.front().values = {
          db::Value(domain[(m * 2 + f) % domain.size()])};
      set.Add(std::move(member), rng->UniformDouble(0.05, 1.0));
    }
  }
  // Unmergeable stragglers: predicate-free queries.
  while (rng->Bernoulli(0.3) && set.size() < max_candidates) {
    db::AggregateQuery query = RandomAggregateQuery(table, rng);
    query.predicates.clear();
    set.Add(std::move(query), rng->UniformDouble(0.05, 0.5));
  }
  ReferenceDeduplicate(&set);
  set.Normalize();
  set.SortByProbability();
  return set;
}

/// Tiny candidate set sized for the brute-force reference planner: one
/// family of at most `max_members` value variants of a single template.
inline core::CandidateSet TinyCandidateSet(const db::Table& table,
                                           Rng* rng,
                                           size_t max_members = 4) {
  core::CandidateSet set;
  db::AggregateQuery base = RandomAggregateQuery(table, rng);
  base.predicates.clear();
  base.predicates.push_back(RandomPredicate(table, rng, 0.0));
  const std::vector<std::string> domain =
      table.StringValues(base.predicates.front().column);
  const size_t members = static_cast<size_t>(rng->UniformInRange(
      2, static_cast<int64_t>(std::min(domain.size(), max_members))));
  for (size_t m = 0; m < members; ++m) {
    db::AggregateQuery member = base;
    member.predicates.front().values = {db::Value(domain[m])};
    set.Add(std::move(member), rng->UniformDouble(0.05, 1.0));
  }
  ReferenceDeduplicate(&set);
  set.Normalize();
  set.SortByProbability();
  return set;
}

}  // namespace muve::testing

#endif  // MUVE_TESTS_TESTING_RANDOM_WORKLOAD_H_
