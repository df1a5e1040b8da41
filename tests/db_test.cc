#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <map>
#include <memory>
#include <thread>

#include "common/rng.h"
#include "common/strings.h"
#include "common/thread_pool.h"
#include "db/cost_estimator.h"
#include "db/executor.h"
#include "db/lsm/compaction.h"
#include "db/snapshot.h"
#include "testing/random_workload.h"
#include "testing/reference_executor.h"
#include "testing/sql_parser.h"
#include "db/vec/aggregate_kernels.h"
#include "db/vec/batch.h"
#include "db/vec/filter_kernels.h"
#include "db/vec/group_kernels.h"
#include "db/query.h"
#include "db/table.h"
#include "workload/datasets.h"
#include "workload/query_generator.h"

namespace muve::db {
namespace {

std::shared_ptr<Table> MakeCityTable() {
  auto table = *Table::Create("trips", {{"city", ValueType::kString},
                                        {"kind", ValueType::kString},
                                        {"delay", ValueType::kDouble},
                                        {"distance", ValueType::kInt64}});
  struct Row {
    const char* city;
    const char* kind;
    double delay;
    int64_t distance;
  };
  const Row rows[] = {
      {"boston", "bus", 5.0, 10},   {"boston", "rail", 7.0, 20},
      {"austin", "bus", 1.0, 30},   {"austin", "bus", 3.0, 40},
      {"boston", "bus", -2.0, 50},  {"newark", "rail", 9.0, 60},
      {"newark", "bus", 11.0, 70},  {"boston", "rail", 0.0, 80},
  };
  for (const Row& row : rows) {
    EXPECT_TRUE(table
                    ->AppendRow({Value(row.city), Value(row.kind),
                                 Value(row.delay), Value(row.distance)})
                    .ok());
  }
  return table;
}

// ---------------------------------------------------------------------
// Table / Column.
// ---------------------------------------------------------------------

TEST(TableTest, CreateRejectsDuplicatesAndEmpty) {
  EXPECT_FALSE(Table::Create("t", {}).ok());
  EXPECT_FALSE(Table::Create("t", {{"a", ValueType::kInt64},
                                   {"A", ValueType::kString}})
                   .ok());
}

TEST(TableTest, AppendAndRead) {
  auto table = MakeCityTable();
  EXPECT_EQ(table->num_rows(), 8u);
  EXPECT_EQ(table->num_columns(), 4u);
  EXPECT_EQ(table->ValueAt(0, 0).AsString(), "boston");
  EXPECT_EQ(table->ValueAt(7, 3).AsInt64(), 80);
}

TEST(TableTest, AppendRejectsTypeAndArityMismatch) {
  auto table = MakeCityTable();
  EXPECT_FALSE(table->AppendRow({Value("x"), Value("y")}).ok());
  EXPECT_FALSE(table
                   ->AppendRow({Value(int64_t{1}), Value("bus"),
                                Value(1.0), Value(int64_t{2})})
                   .ok());
}

TEST(TableTest, ColumnIndexIsCaseInsensitive) {
  auto table = MakeCityTable();
  EXPECT_TRUE(table->ColumnIndex("CITY").ok());
  EXPECT_TRUE(table->ColumnIndex("Delay").ok());
  EXPECT_FALSE(table->ColumnIndex("nope").ok());
}

TEST(TableTest, ColumnNamesOfType) {
  auto table = MakeCityTable();
  EXPECT_EQ(table->ColumnNamesOfType(ValueType::kString),
            (std::vector<std::string>{"city", "kind"}));
  EXPECT_EQ(table->ColumnNamesOfType(ValueType::kDouble),
            (std::vector<std::string>{"delay"}));
}

TEST(ColumnTest, DictionaryEncoding) {
  auto table = MakeCityTable();
  EXPECT_EQ(table->StringValues("city").size(), 3u);
  EXPECT_EQ(table->DistinctCount(*table->ColumnIndex("city")), 3u);
  Column city("city", ValueType::kString);
  for (const char* v : {"boston", "austin", "boston"}) {
    ASSERT_TRUE(city.Append(Value(v)).ok());
  }
  EXPECT_NE(city.CodeFor("boston"), kInvalidCode);
  EXPECT_EQ(city.CodeFor("chicago"), kInvalidCode);
}

TEST(TableTest, SampleFraction) {
  Rng rng(3);
  auto big = workload::Make311Table(10000, &rng);
  auto sample = big->Sample(0.1);
  EXPECT_NEAR(static_cast<double>(sample->num_rows()), 1000.0, 10.0);
  EXPECT_EQ(sample->num_columns(), big->num_columns());
  auto empty = big->Sample(0.0);
  EXPECT_EQ(empty->num_rows(), 0u);
  auto full = big->Sample(1.0);
  EXPECT_EQ(full->num_rows(), big->num_rows());
}

// ---------------------------------------------------------------------
// Query model.
// ---------------------------------------------------------------------

TEST(QueryTest, ToSql) {
  AggregateQuery query;
  query.table = "trips";
  query.function = AggregateFunction::kAvg;
  query.aggregate_column = "delay";
  query.predicates.push_back(Predicate::Equals("city", Value("boston")));
  query.predicates.push_back(
      Predicate::In("kind", {Value("bus"), Value("rail")}));
  EXPECT_EQ(query.ToSql(),
            "SELECT AVG(delay) FROM trips WHERE city = 'boston' AND kind "
            "IN ('bus', 'rail')");
}

TEST(QueryTest, CanonicalKeyIsPredicateOrderInsensitive) {
  AggregateQuery a;
  a.table = "t";
  a.function = AggregateFunction::kCount;
  a.predicates = {Predicate::Equals("x", Value("1")),
                  Predicate::Equals("y", Value("2"))};
  AggregateQuery b = a;
  std::swap(b.predicates[0], b.predicates[1]);
  EXPECT_EQ(a.CanonicalKey(), b.CanonicalKey());
  EXPECT_TRUE(a == b);
}

TEST(QueryTest, CanonicalKeyDistinguishesAggregates) {
  AggregateQuery a;
  a.table = "t";
  a.function = AggregateFunction::kMin;
  a.aggregate_column = "v";
  AggregateQuery b = a;
  b.function = AggregateFunction::kMax;
  EXPECT_NE(a.CanonicalKey(), b.CanonicalKey());
}

// ---------------------------------------------------------------------
// Executor.
// ---------------------------------------------------------------------

TEST(ExecutorTest, CountWithPredicate) {
  auto table = MakeCityTable();
  AggregateQuery query;
  query.table = "trips";
  query.function = AggregateFunction::kCount;
  query.predicates = {Predicate::Equals("city", Value("boston"))};
  auto result = Executor::Execute(*table, query);
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(result->value, 4.0);
  EXPECT_EQ(result->rows_matched, 4u);
}

TEST(ExecutorTest, AllAggregates) {
  auto table = MakeCityTable();
  AggregateQuery query;
  query.table = "trips";
  query.aggregate_column = "delay";
  query.predicates = {Predicate::Equals("city", Value("boston"))};
  // boston delays: 5, 7, -2, 0.
  query.function = AggregateFunction::kSum;
  EXPECT_DOUBLE_EQ(Executor::Execute(*table, query)->value, 10.0);
  query.function = AggregateFunction::kAvg;
  EXPECT_DOUBLE_EQ(Executor::Execute(*table, query)->value, 2.5);
  query.function = AggregateFunction::kMin;
  EXPECT_DOUBLE_EQ(Executor::Execute(*table, query)->value, -2.0);
  query.function = AggregateFunction::kMax;
  EXPECT_DOUBLE_EQ(Executor::Execute(*table, query)->value, 7.0);
}

TEST(ExecutorTest, ConjunctionOfPredicates) {
  auto table = MakeCityTable();
  AggregateQuery query;
  query.table = "trips";
  query.function = AggregateFunction::kCount;
  query.predicates = {Predicate::Equals("city", Value("boston")),
                      Predicate::Equals("kind", Value("bus"))};
  EXPECT_DOUBLE_EQ(Executor::Execute(*table, query)->value, 2.0);
}

TEST(ExecutorTest, InPredicate) {
  auto table = MakeCityTable();
  AggregateQuery query;
  query.table = "trips";
  query.function = AggregateFunction::kCount;
  query.predicates = {
      Predicate::In("city", {Value("boston"), Value("newark")})};
  EXPECT_DOUBLE_EQ(Executor::Execute(*table, query)->value, 6.0);
}

TEST(ExecutorTest, PredicateOnMissingValueMatchesNothing) {
  auto table = MakeCityTable();
  AggregateQuery query;
  query.table = "trips";
  query.function = AggregateFunction::kCount;
  query.predicates = {Predicate::Equals("city", Value("chicago"))};
  auto result = Executor::Execute(*table, query);
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(result->value, 0.0);
}

TEST(ExecutorTest, EmptyInputAggregates) {
  auto table = MakeCityTable();
  AggregateQuery query;
  query.table = "trips";
  query.function = AggregateFunction::kAvg;
  query.aggregate_column = "delay";
  query.predicates = {Predicate::Equals("city", Value("chicago"))};
  auto result = Executor::Execute(*table, query);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->empty_input);
}

TEST(ExecutorTest, EmptyInputSurvivesParallelMerge) {
  // Regression: a zero-match AVG/MIN/MAX must report empty_input = true
  // when the scan is partitioned and partial accumulators are merged. A
  // buggy merge would fold a partition's identity extrema (+/-inf) or a
  // 0 sum into a "real" value and lose the emptiness bit.
  auto table = *Table::Create("wide", {{"city", ValueType::kString},
                                       {"delay", ValueType::kDouble}});
  for (int r = 0; r < 5000; ++r) {
    ASSERT_TRUE(
        table->AppendRow({Value("boston"), Value(1.0 + r)}).ok());
  }
  ThreadPool pool(4);
  ExecutorOptions options;
  options.pool = &pool;
  options.parallel_grain = 257;  // Many partitions, all empty.

  for (const AggregateFunction fn :
       {AggregateFunction::kAvg, AggregateFunction::kMin,
        AggregateFunction::kMax}) {
    AggregateQuery query;
    query.table = "wide";
    query.function = fn;
    query.aggregate_column = "delay";
    query.predicates = {Predicate::Equals("city", Value("chicago"))};
    auto result = Executor::Execute(*table, query, options);
    ASSERT_TRUE(result.ok()) << AggregateFunctionName(fn);
    EXPECT_TRUE(result->empty_input) << AggregateFunctionName(fn);
    EXPECT_DOUBLE_EQ(result->value, 0.0) << AggregateFunctionName(fn);
    EXPECT_EQ(result->rows_matched, 0u) << AggregateFunctionName(fn);
  }

  // COUNT of nothing is a real 0, not an empty input.
  AggregateQuery count;
  count.table = "wide";
  count.function = AggregateFunction::kCount;
  count.predicates = {Predicate::Equals("city", Value("chicago"))};
  auto counted = Executor::Execute(*table, count, options);
  ASSERT_TRUE(counted.ok());
  EXPECT_FALSE(counted->empty_input);
  EXPECT_DOUBLE_EQ(counted->value, 0.0);
}

TEST(ExecutorTest, GroupedEmptyCellsSurviveParallelMerge) {
  // Same regression at the grouped-scan merge: an IN-list group value
  // absent from the data must yield empty_input cells after the
  // per-partition accumulator grids are merged.
  auto table = *Table::Create("wide", {{"city", ValueType::kString},
                                       {"delay", ValueType::kDouble}});
  for (int r = 0; r < 5000; ++r) {
    ASSERT_TRUE(
        table->AppendRow({Value("boston"), Value(1.0 + r)}).ok());
  }
  ThreadPool pool(4);
  ExecutorOptions options;
  options.pool = &pool;
  options.parallel_grain = 257;

  GroupByQuery grouped;
  grouped.table = "wide";
  grouped.group_column = "city";
  grouped.group_values = {"boston", "chicago"};
  grouped.aggregates = {{AggregateFunction::kAvg, "delay"},
                        {AggregateFunction::kMin, "delay"},
                        {AggregateFunction::kCount, ""}};
  auto result = Executor::ExecuteGrouped(*table, grouped, options);
  ASSERT_TRUE(result.ok());

  // boston is populated: AVG of 1..5000 and MIN 1.
  EXPECT_FALSE(result->cells[0][0].empty_input);
  EXPECT_DOUBLE_EQ(result->cells[0][0].value, 2500.5);
  EXPECT_DOUBLE_EQ(result->cells[0][1].value, 1.0);
  EXPECT_DOUBLE_EQ(result->cells[0][2].value, 5000.0);

  // chicago matched nothing anywhere: AVG/MIN empty, COUNT real 0.
  EXPECT_TRUE(result->cells[1][0].empty_input);
  EXPECT_DOUBLE_EQ(result->cells[1][0].value, 0.0);
  EXPECT_TRUE(result->cells[1][1].empty_input);
  EXPECT_FALSE(result->cells[1][2].empty_input);
  EXPECT_DOUBLE_EQ(result->cells[1][2].value, 0.0);
}

TEST(ExecutorTest, ErrorsOnBadColumns) {
  auto table = MakeCityTable();
  AggregateQuery query;
  query.table = "trips";
  query.function = AggregateFunction::kSum;
  query.aggregate_column = "city";  // String column.
  EXPECT_FALSE(Executor::Execute(*table, query).ok());
  query.aggregate_column = "nope";
  EXPECT_FALSE(Executor::Execute(*table, query).ok());
  query.aggregate_column = "delay";
  query.predicates = {Predicate::Equals("nope", Value("x"))};
  EXPECT_FALSE(Executor::Execute(*table, query).ok());
  query.predicates = {Predicate::Equals("city", Value(int64_t{3}))};
  EXPECT_FALSE(Executor::Execute(*table, query).ok());
}

TEST(ExecutorTest, IntAggregation) {
  auto table = MakeCityTable();
  AggregateQuery query;
  query.table = "trips";
  query.function = AggregateFunction::kSum;
  query.aggregate_column = "distance";
  EXPECT_DOUBLE_EQ(Executor::Execute(*table, query)->value, 360.0);
}

// ---------------------------------------------------------------------
// Grouped execution: must equal separate execution.
// ---------------------------------------------------------------------

TEST(ExecutorTest, GroupedMatchesSeparate) {
  auto table = MakeCityTable();
  GroupByQuery grouped;
  grouped.table = "trips";
  grouped.group_column = "city";
  grouped.group_values = {"boston", "austin", "newark", "chicago"};
  grouped.shared_predicates = {Predicate::Equals("kind", Value("bus"))};
  grouped.aggregates = {{AggregateFunction::kCount, ""},
                        {AggregateFunction::kSum, "delay"},
                        {AggregateFunction::kAvg, "delay"}};
  auto grouped_result = Executor::ExecuteGrouped(*table, grouped);
  ASSERT_TRUE(grouped_result.ok());

  for (size_t g = 0; g < grouped.group_values.size(); ++g) {
    for (size_t a = 0; a < grouped.aggregates.size(); ++a) {
      AggregateQuery single;
      single.table = "trips";
      single.function = grouped.aggregates[a].function;
      single.aggregate_column = grouped.aggregates[a].column;
      single.predicates = {
          Predicate::Equals("kind", Value("bus")),
          Predicate::Equals("city", Value(grouped.group_values[g]))};
      auto single_result = Executor::Execute(*table, single);
      ASSERT_TRUE(single_result.ok());
      EXPECT_DOUBLE_EQ(grouped_result->cells[g][a].value,
                       single_result->value)
          << "group " << grouped.group_values[g] << " agg " << a;
    }
  }
}

TEST(ExecutorTest, GroupedRandomizedEquivalence) {
  Rng rng(99);
  auto table = workload::Make311Table(5000, &rng);
  GroupByQuery grouped;
  grouped.table = table->name();
  grouped.group_column = "borough";
  grouped.group_values = table->StringValues("borough");
  grouped.shared_predicates = {
      Predicate::Equals("status", Value("open"))};
  grouped.aggregates = {{AggregateFunction::kCount, ""},
                        {AggregateFunction::kMax, "open_hours"}};
  auto grouped_result = Executor::ExecuteGrouped(*table, grouped);
  ASSERT_TRUE(grouped_result.ok());
  for (size_t g = 0; g < grouped.group_values.size(); ++g) {
    AggregateQuery single;
    single.table = table->name();
    single.function = AggregateFunction::kCount;
    single.predicates = {
        Predicate::Equals("status", Value("open")),
        Predicate::Equals("borough", Value(grouped.group_values[g]))};
    EXPECT_DOUBLE_EQ(grouped_result->cells[g][0].value,
                     Executor::Execute(*table, single)->value);
  }
}

TEST(ExecutorTest, GroupedRequiresStringGroupColumn) {
  auto table = MakeCityTable();
  GroupByQuery grouped;
  grouped.table = "trips";
  grouped.group_column = "delay";
  grouped.group_values = {"x"};
  grouped.aggregates = {{AggregateFunction::kCount, ""}};
  EXPECT_FALSE(Executor::ExecuteGrouped(*table, grouped).ok());
}

TEST(ExecutorTest, GroupBySqlText) {
  GroupByQuery grouped;
  grouped.table = "trips";
  grouped.group_column = "city";
  grouped.group_values = {"boston", "austin"};
  grouped.shared_predicates = {Predicate::Equals("kind", Value("bus"))};
  grouped.aggregates = {{AggregateFunction::kCount, ""},
                        {AggregateFunction::kSum, "delay"}};
  EXPECT_EQ(grouped.ToSql(),
            "SELECT city, COUNT(*), SUM(delay) FROM trips WHERE kind = "
            "'bus' AND city IN ('boston', 'austin') GROUP BY city");
}

TEST(ExecutorTest, SampledValueScaling) {
  EXPECT_DOUBLE_EQ(
      Executor::ScaleSampledValue(AggregateFunction::kCount, 10.0, 0.1),
      100.0);
  EXPECT_DOUBLE_EQ(
      Executor::ScaleSampledValue(AggregateFunction::kSum, 10.0, 0.5),
      20.0);
  EXPECT_DOUBLE_EQ(
      Executor::ScaleSampledValue(AggregateFunction::kAvg, 10.0, 0.1),
      10.0);
  EXPECT_DOUBLE_EQ(
      Executor::ScaleSampledValue(AggregateFunction::kMax, 10.0, 0.1),
      10.0);
}

// ---------------------------------------------------------------------
// SQL parser.
// ---------------------------------------------------------------------

TEST(SqlParserTest, ParsesSimpleCount) {
  auto query = ParseSql("SELECT COUNT(*) FROM trips");
  ASSERT_TRUE(query.ok());
  EXPECT_EQ(query->function, AggregateFunction::kCount);
  EXPECT_TRUE(query->aggregate_column.empty());
  EXPECT_EQ(query->table, "trips");
  EXPECT_TRUE(query->predicates.empty());
}

TEST(SqlParserTest, ParsesFullQuery) {
  auto query = ParseSql(
      "select avg(delay) from trips where city = 'boston' and kind = "
      "'bus'");
  ASSERT_TRUE(query.ok());
  EXPECT_EQ(query->function, AggregateFunction::kAvg);
  EXPECT_EQ(query->aggregate_column, "delay");
  ASSERT_EQ(query->predicates.size(), 2u);
  EXPECT_EQ(query->predicates[0].column, "city");
  EXPECT_EQ(query->predicates[0].values[0].AsString(), "boston");
}

TEST(SqlParserTest, ParsesInList) {
  auto query = ParseSql(
      "SELECT SUM(delay) FROM trips WHERE city IN ('a', 'b', 'c')");
  ASSERT_TRUE(query.ok());
  ASSERT_EQ(query->predicates.size(), 1u);
  EXPECT_EQ(query->predicates[0].op, PredicateOp::kIn);
  EXPECT_EQ(query->predicates[0].values.size(), 3u);
}

TEST(SqlParserTest, ParsesNumericLiterals) {
  auto query =
      ParseSql("SELECT COUNT(*) FROM t WHERE x = 5 AND y = 2.5");
  ASSERT_TRUE(query.ok());
  EXPECT_TRUE(query->predicates[0].values[0].is_int64());
  EXPECT_TRUE(query->predicates[1].values[0].is_double());
}

TEST(SqlParserTest, QuoteEscaping) {
  auto query = ParseSql("SELECT COUNT(*) FROM t WHERE x = 'o''brien'");
  ASSERT_TRUE(query.ok());
  EXPECT_EQ(query->predicates[0].values[0].AsString(), "o'brien");
}

TEST(SqlParserTest, RoundTripsThroughToSql) {
  const char* queries[] = {
      "SELECT COUNT(*) FROM trips",
      "SELECT AVG(delay) FROM trips WHERE city = 'boston'",
      "SELECT MAX(delay) FROM trips WHERE city IN ('a', 'b') AND kind = "
      "'bus'",
  };
  for (const char* sql : queries) {
    auto query = ParseSql(sql);
    ASSERT_TRUE(query.ok()) << sql;
    auto reparsed = ParseSql(query->ToSql());
    ASSERT_TRUE(reparsed.ok()) << query->ToSql();
    EXPECT_EQ(query->CanonicalKey(), reparsed->CanonicalKey());
  }
}

TEST(SqlParserTest, RejectsMalformedInput) {
  EXPECT_FALSE(ParseSql("").ok());
  EXPECT_FALSE(ParseSql("SELECT FROM t").ok());
  EXPECT_FALSE(ParseSql("SELECT BOGUS(x) FROM t").ok());
  EXPECT_FALSE(ParseSql("SELECT SUM(*) FROM t").ok());
  EXPECT_FALSE(ParseSql("SELECT COUNT(*) FROM t WHERE").ok());
  EXPECT_FALSE(ParseSql("SELECT COUNT(*) FROM t WHERE a = 'x' extra").ok());
  EXPECT_FALSE(
      ParseSql("SELECT COUNT(*) FROM t WHERE a = 'unterminated").ok());
  EXPECT_FALSE(ParseSql("SELECT COUNT(*) FROM t WHERE a > 3").ok());
}

// ---------------------------------------------------------------------
// Cost estimator.
// ---------------------------------------------------------------------

TEST(CostEstimatorTest, CostGrowsWithDataSize) {
  Rng rng(1);
  auto small = workload::Make311Table(1000, &rng);
  auto large = workload::Make311Table(20000, &rng);
  CostEstimator estimator;
  AggregateQuery query;
  query.function = AggregateFunction::kCount;
  query.table = "nyc311";
  query.predicates = {Predicate::Equals("borough", Value("brooklyn"))};
  EXPECT_LT(estimator.Estimate(*small, query)->total_cost,
            estimator.Estimate(*large, query)->total_cost);
}

TEST(CostEstimatorTest, MergedCheaperThanManySeparate) {
  Rng rng(1);
  auto table = workload::Make311Table(20000, &rng);
  CostEstimator estimator;
  GroupByQuery grouped;
  grouped.table = "nyc311";
  grouped.group_column = "borough";
  grouped.group_values = table->StringValues("borough");
  grouped.aggregates = {{AggregateFunction::kCount, ""}};
  const double merged_cost =
      estimator.EstimateGrouped(*table, grouped)->total_cost;
  AggregateQuery single;
  single.table = "nyc311";
  single.function = AggregateFunction::kCount;
  double separate_cost = 0.0;
  for (const std::string& value : grouped.group_values) {
    single.predicates = {Predicate::Equals("borough", Value(value))};
    separate_cost += estimator.Estimate(*table, single)->total_cost;
  }
  EXPECT_LT(merged_cost, separate_cost / 2.0);
}

TEST(CostEstimatorTest, ErrorsOnUnknownColumn) {
  auto table = MakeCityTable();
  CostEstimator estimator;
  AggregateQuery query;
  query.table = "trips";
  query.predicates = {Predicate::Equals("nope", Value("x"))};
  EXPECT_FALSE(estimator.Estimate(*table, query).ok());
  // A merge over a missing group column is an error too, so the merge
  // gate never prices it.
  GroupByQuery grouped;
  grouped.table = "trips";
  grouped.group_column = "nope";
  grouped.group_values = {"x"};
  EXPECT_FALSE(estimator.EstimateGrouped(*table, grouped).ok());
  grouped.group_column = "city";
  EXPECT_TRUE(estimator.EstimateGrouped(*table, grouped).ok());
}

// ---------------------------------------------------------------------
// Workload generators.
// ---------------------------------------------------------------------

TEST(WorkloadTest, AllDatasetsBuild) {
  for (const std::string& name : workload::DatasetNames()) {
    auto table = workload::MakeDataset(name, 500, 42);
    ASSERT_TRUE(table.ok()) << name;
    EXPECT_EQ((*table)->num_rows(), 500u);
    EXPECT_FALSE((*table)->ColumnNamesOfType(ValueType::kString).empty());
  }
  EXPECT_FALSE(workload::MakeDataset("bogus", 10, 1).ok());
}

TEST(WorkloadTest, DatasetsAreSeedDeterministic) {
  auto a = *workload::MakeDataset("flights", 200, 7);
  auto b = *workload::MakeDataset("flights", 200, 7);
  for (size_t c = 0; c < a->num_columns(); ++c) {
    for (size_t r = 0; r < a->num_rows(); r += 17) {
      EXPECT_TRUE(a->ValueAt(r, c) == b->ValueAt(r, c));
    }
  }
}

/// FNV-1a 64-bit over `len` bytes, continuing from `hash`.
uint64_t Fnv1a(const void* data, size_t len, uint64_t hash) {
  const unsigned char* bytes = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < len; ++i) {
    hash ^= bytes[i];
    hash *= 1099511628211ull;
  }
  return hash;
}

/// Fingerprint of every cell in row order: each cell folds its type tag,
/// then its value's bytes (a string also folds its length first).
uint64_t CellFingerprint(const TableSnapshot& snapshot) {
  uint64_t hash = 1469598103934665603ull;
  for (size_t r = 0; r < snapshot.num_rows(); ++r) {
    for (size_t c = 0; c < snapshot.num_columns(); ++c) {
      const Value value = snapshot.ValueAt(r, c);
      const auto tag = static_cast<uint8_t>(value.type());
      hash = Fnv1a(&tag, 1, hash);
      if (value.is_int64()) {
        const int64_t v = value.AsInt64();
        hash = Fnv1a(&v, sizeof(v), hash);
      } else if (value.is_double()) {
        const double v = value.AsDouble();
        hash = Fnv1a(&v, sizeof(v), hash);
      } else {
        const std::string& s = value.AsString();
        const uint64_t size = s.size();
        hash = Fnv1a(&size, sizeof(size), hash);
        hash = Fnv1a(s.data(), s.size(), hash);
      }
    }
  }
  return hash;
}

// Pins every generated cell at seed 7, below and above the 4096-row
// flush threshold, so a change to how the generators load their tables
// cannot change what they generate.
TEST(WorkloadTest, DatasetCellFingerprintsArePinned) {
  struct Pin {
    const char* dataset;
    size_t rows;
    uint64_t fingerprint;
  };
  const Pin pins[] = {
      {"ads", 1500, 0xe97d8ea50542f12cull},
      {"ads", 10000, 0x56e542d50e420b8dull},
      {"dob", 1500, 0xc3c5cbe25849f63full},
      {"dob", 10000, 0x1d00f167281c21c8ull},
      {"nyc311", 1500, 0x8720dd16f9f71ce0ull},
      {"nyc311", 10000, 0x2549fc8a074a1b17ull},
      {"flights", 1500, 0xf66948cf32863a07ull},
      {"flights", 10000, 0x3d8d0bfefb555145ull},
  };
  for (const Pin& pin : pins) {
    SCOPED_TRACE(StrCat({pin.dataset, " ", std::to_string(pin.rows)}));
    auto table = *workload::MakeDataset(pin.dataset, pin.rows, 7);
    EXPECT_EQ(table->num_rows(), pin.rows);
    EXPECT_EQ(table->version(), table->num_rows());
    const TableSnapshot snapshot = table->Snapshot();
    EXPECT_EQ(CellFingerprint(snapshot), pin.fingerprint);
    // The vocabulary of each string column is its cells' distinct values
    // in first-appearance order.
    for (size_t c = 0; c < table->num_columns(); ++c) {
      if (table->spec(c).type != ValueType::kString) continue;
      std::vector<std::string> expected;
      for (size_t r = 0; r < snapshot.num_rows(); ++r) {
        std::string value = snapshot.ValueAt(r, c).AsString();
        if (std::find(expected.begin(), expected.end(), value) ==
            expected.end()) {
          expected.push_back(std::move(value));
        }
      }
      EXPECT_EQ(table->StringValues(c), expected) << table->spec(c).name;
    }
  }
}

TEST(WorkloadTest, VocabularyContainsSchemaAndValues) {
  auto table = *workload::MakeDataset("nyc311", 1000, 3);
  const std::vector<std::string> vocabulary =
      workload::BuildVocabulary(*table);
  auto contains = [&](const std::string& word) {
    return std::find(vocabulary.begin(), vocabulary.end(), word) !=
           vocabulary.end();
  };
  EXPECT_TRUE(contains("borough"));
  EXPECT_TRUE(contains("open_hours"));
  EXPECT_TRUE(contains("brooklyn"));
}

TEST(WorkloadTest, RandomQueryIsExecutable) {
  Rng rng(21);
  auto table = *workload::MakeDataset("dob", 2000, 5);
  for (int i = 0; i < 50; ++i) {
    auto query = workload::RandomQuery(*table, &rng);
    ASSERT_TRUE(query.ok());
    EXPECT_GE(query->predicates.size(), 1u);
    EXPECT_LE(query->predicates.size(), 5u);
    EXPECT_TRUE(Executor::Execute(*table, *query).ok()) << query->ToSql();
  }
}

TEST(WorkloadTest, RandomQueryRespectsPredicateBounds) {
  Rng rng(22);
  auto table = *workload::MakeDataset("flights", 500, 5);
  workload::QueryGeneratorOptions options;
  options.min_predicates = 2;
  options.max_predicates = 3;
  for (int i = 0; i < 30; ++i) {
    auto query = workload::RandomQuery(*table, &rng, options);
    ASSERT_TRUE(query.ok());
    EXPECT_GE(query->predicates.size(), 2u);
    EXPECT_LE(query->predicates.size(), 3u);
  }
}

// ---------------------------------------------------------------------
// Vectorized kernels (src/db/vec/): direct property tests of the
// predicate, aggregate, and grouping kernels against straight-line
// reference loops, plus executor-level checks of the paths the random
// workloads rarely pin (IN lists longer than a batch, signed zero).
// ---------------------------------------------------------------------

/// Reference selection: offsets of rows satisfying `pred`, in order.
template <typename T, typename Pred>
std::vector<uint32_t> ReferenceSelect(const std::vector<T>& data,
                                      Pred pred) {
  std::vector<uint32_t> sel;
  for (size_t i = 0; i < data.size(); ++i) {
    if (pred(data[i])) sel.push_back(static_cast<uint32_t>(i));
  }
  return sel;
}

TEST(VecKernelTest, FilterKernelsMatchReferenceLoop) {
  Rng rng(31);
  for (int round = 0; round < 50; ++round) {
    const size_t n = static_cast<size_t>(rng.UniformInRange(0, 300));
    std::vector<int64_t> ints;
    std::vector<double> doubles;
    std::vector<uint32_t> codes;
    for (size_t i = 0; i < n; ++i) {
      ints.push_back(rng.UniformInRange(-5, 5));
      doubles.push_back(
          static_cast<double>(rng.UniformInRange(-5, 5)) * 0.5);
      codes.push_back(static_cast<uint32_t>(rng.UniformInRange(0, 7)));
    }
    std::vector<uint32_t> sel(std::max<size_t>(n, 1));

    const int64_t int_key = rng.UniformInRange(-6, 6);
    EXPECT_EQ(ReferenceSelect(ints, [&](int64_t v) { return v == int_key; }),
              std::vector<uint32_t>(
                  sel.begin(),
                  sel.begin() + vec::FilterEqI64(ints.data(), n, int_key,
                                                 sel.data())));

    const double double_key =
        static_cast<double>(rng.UniformInRange(-6, 6)) * 0.5;
    EXPECT_EQ(
        ReferenceSelect(doubles, [&](double v) { return v == double_key; }),
        std::vector<uint32_t>(
            sel.begin(), sel.begin() + vec::FilterEqF64(doubles.data(), n,
                                                        double_key,
                                                        sel.data())));

    const uint32_t code_key =
        static_cast<uint32_t>(rng.UniformInRange(0, 8));
    EXPECT_EQ(
        ReferenceSelect(codes, [&](uint32_t v) { return v == code_key; }),
        std::vector<uint32_t>(
            sel.begin(), sel.begin() + vec::FilterEqU32(codes.data(), n,
                                                        code_key,
                                                        sel.data())));

    const std::vector<int64_t> in_keys = {int_key, int_key + 2, -100};
    EXPECT_EQ(ReferenceSelect(ints,
                              [&](int64_t v) {
                                return v == in_keys[0] || v == in_keys[1] ||
                                       v == in_keys[2];
                              }),
              std::vector<uint32_t>(
                  sel.begin(),
                  sel.begin() + vec::FilterInI64(ints.data(), n,
                                                 in_keys.data(),
                                                 in_keys.size(),
                                                 sel.data())));

    uint8_t mask[9] = {0};
    mask[code_key] = 1;
    mask[(code_key + 3) % 9] = 1;
    EXPECT_EQ(
        ReferenceSelect(codes, [&](uint32_t v) { return mask[v] != 0; }),
        std::vector<uint32_t>(
            sel.begin(), sel.begin() + vec::FilterMaskU32(codes.data(), n,
                                                          mask,
                                                          sel.data())));
  }
}

TEST(VecKernelTest, RefineKernelsCompactExistingSelections) {
  Rng rng(32);
  for (int round = 0; round < 50; ++round) {
    const size_t n = static_cast<size_t>(rng.UniformInRange(1, 300));
    std::vector<double> data;
    std::vector<uint32_t> sel_in;
    for (size_t i = 0; i < n; ++i) {
      data.push_back(static_cast<double>(rng.UniformInRange(-4, 4)));
      if (rng.Bernoulli(0.4)) sel_in.push_back(static_cast<uint32_t>(i));
    }
    const double key = static_cast<double>(rng.UniformInRange(-4, 4));
    std::vector<uint32_t> sel_out(n);
    const size_t count = vec::RefineEqF64(data.data(), sel_in.data(),
                                          sel_in.size(), key,
                                          sel_out.data());
    std::vector<uint32_t> reference;
    for (const uint32_t offset : sel_in) {
      if (data[offset] == key) reference.push_back(offset);
    }
    EXPECT_EQ(reference, std::vector<uint32_t>(sel_out.begin(),
                                               sel_out.begin() + count));
  }
  // An empty input selection stays empty and never touches the output.
  const double data[] = {1.0, 2.0};
  uint32_t out[2] = {77, 77};
  EXPECT_EQ(0u, vec::RefineEqF64(data, nullptr, 0, 1.0, out));
  EXPECT_EQ(77u, out[0]);
}

TEST(VecKernelTest, DoubleEqualityMatchesSignedZeroNeverNaN) {
  // IEEE ==: -0.0 equals 0.0 in either direction; NaN equals nothing —
  // exactly the scalar executor's `v == accepted`. Exponent-extreme
  // literals compare exactly, not through any rounding.
  const std::vector<double> data = {0.0,    -0.0,   1e300, -1e300,
                                    5e-324, 2.5,    std::nan(""),
                                    1e300,  2.5e-308};
  uint32_t sel[16];
  EXPECT_EQ(std::vector<uint32_t>({0, 1}),
            std::vector<uint32_t>(
                sel, sel + vec::FilterEqF64(data.data(), data.size(), 0.0,
                                            sel)));
  EXPECT_EQ(std::vector<uint32_t>({0, 1}),
            std::vector<uint32_t>(
                sel, sel + vec::FilterEqF64(data.data(), data.size(), -0.0,
                                            sel)));
  EXPECT_EQ(std::vector<uint32_t>({2, 7}),
            std::vector<uint32_t>(
                sel, sel + vec::FilterEqF64(data.data(), data.size(),
                                            1e300, sel)));
  // A NaN key matches nothing, and the NaN element matches no key.
  EXPECT_EQ(0u, vec::FilterEqF64(data.data(), data.size(), std::nan(""),
                                 sel));
  const double keys[] = {std::nan(""), 5e-324};
  EXPECT_EQ(std::vector<uint32_t>({4}),
            std::vector<uint32_t>(
                sel, sel + vec::FilterInF64(data.data(), data.size(), keys,
                                            2, sel)));
}

TEST(VecKernelTest, AggregateKernelsMatchScalarFoldAllFiveFunctions) {
  // The dense (all-selected) and gather (identity selection) shapes must
  // both reproduce the scalar executor's sequential fold bitwise, for
  // the state behind all five aggregate functions (COUNT needs no
  // kernel; SUM/AVG share the sum state; MIN/MAX their extrema).
  Rng rng(33);
  for (int round = 0; round < 30; ++round) {
    const size_t n = static_cast<size_t>(rng.UniformInRange(0, 200));
    std::vector<double> doubles;
    std::vector<int64_t> ints;
    std::vector<uint32_t> identity;
    for (size_t i = 0; i < n; ++i) {
      doubles.push_back(rng.UniformDouble(-1e3, 1e3));
      ints.push_back(rng.UniformInRange(-1000, 1000));
      identity.push_back(static_cast<uint32_t>(i));
    }
    double sum = 0.0;
    double min = std::numeric_limits<double>::infinity();
    double max = -std::numeric_limits<double>::infinity();
    for (const double v : doubles) {
      sum += v;
      min = std::min(min, v);
      max = std::max(max, v);
    }
    EXPECT_EQ(sum, vec::SumDenseF64(doubles.data(), n, 0.0));
    EXPECT_EQ(sum, vec::SumGatherF64(doubles.data(), identity.data(), n,
                                     0.0));
    EXPECT_EQ(min, vec::MinDenseF64(
                       doubles.data(), n,
                       std::numeric_limits<double>::infinity()));
    EXPECT_EQ(min, vec::MinGatherF64(
                       doubles.data(), identity.data(), n,
                       std::numeric_limits<double>::infinity()));
    EXPECT_EQ(max, vec::MaxDenseF64(
                       doubles.data(), n,
                       -std::numeric_limits<double>::infinity()));
    EXPECT_EQ(max, vec::MaxGatherF64(
                       doubles.data(), identity.data(), n,
                       -std::numeric_limits<double>::infinity()));

    double int_sum = 0.0;
    for (const int64_t v : ints) int_sum += static_cast<double>(v);
    EXPECT_EQ(int_sum, vec::SumDenseI64(ints.data(), n, 0.0));
    EXPECT_EQ(int_sum, vec::SumGatherI64(ints.data(), identity.data(), n,
                                         0.0));
  }
}

TEST(VecKernelTest, GroupLookupFirstOccurrenceWinsAndMapsCompact) {
  Column column("g", ValueType::kString);
  for (const char* v : {"a", "b", "c", "b", "a"}) {
    ASSERT_TRUE(column.Append(Value(v)).ok());
  }
  // Duplicate group value: the first occurrence claims the code, the
  // scalar path's emplace semantics.
  const std::vector<uint32_t> lookup =
      vec::BuildGroupLookup(column, {"b", "absent", "b", "a"});
  ASSERT_EQ(3u, lookup.size());
  EXPECT_EQ(3u, lookup[column.CodeFor("a")]);
  EXPECT_EQ(0u, lookup[column.CodeFor("b")]);
  EXPECT_EQ(vec::kNoGroup, lookup[column.CodeFor("c")]);

  uint32_t sel_out[8];
  uint32_t groups[8];
  // Dense: rows are a b c b a -> groups 3 0 _ 0 3.
  EXPECT_EQ(4u, vec::MapGroupsDense(column.codes_raw(), column.size(),
                                    lookup.data(), sel_out, groups));
  EXPECT_EQ(std::vector<uint32_t>({0, 1, 3, 4}),
            std::vector<uint32_t>(sel_out, sel_out + 4));
  EXPECT_EQ(std::vector<uint32_t>({3, 0, 0, 3}),
            std::vector<uint32_t>(groups, groups + 4));
  // Sparse over a prior selection {1, 2, 4}.
  const uint32_t sel_in[] = {1, 2, 4};
  EXPECT_EQ(2u, vec::MapGroups(column.codes_raw(), sel_in, 3,
                               lookup.data(), sel_out, groups));
  EXPECT_EQ(1u, sel_out[0]);
  EXPECT_EQ(4u, sel_out[1]);
  EXPECT_EQ(0u, groups[0]);
  EXPECT_EQ(3u, groups[1]);
  // Empty selection maps to nothing.
  EXPECT_EQ(0u, vec::MapGroups(column.codes_raw(), nullptr, 0,
                               lookup.data(), sel_out, groups));
}

TEST(VecKernelTest, AcceptMaskIgnoresInvalidAndOutOfRangeCodes) {
  Column column("s", ValueType::kString);
  for (const char* v : {"x", "y", "z"}) {
    ASSERT_TRUE(column.Append(Value(v)).ok());
  }
  const std::vector<uint8_t> mask =
      column.AcceptMask({0, 2, 99, kInvalidCode});
  EXPECT_EQ(std::vector<uint8_t>({1, 0, 1}), mask);
}

TEST(ExecutorTest, VectorizedInListLargerThanOneBatch) {
  // An IN list longer than vec::kBatchSize (2048): the int kernel loops
  // the whole key list per row and the string path goes through a
  // dictionary accept mask; both must agree with the reference executor.
  auto table = *Table::Create("t", {{"s", ValueType::kString},
                                    {"v", ValueType::kInt64}});
  constexpr int64_t kRows = 5000;
  for (int64_t r = 0; r < kRows; ++r) {
    Value key(std::string("s").append(std::to_string(r % 3000)));
    ASSERT_TRUE(table->AppendRow({std::move(key), Value(r % 3000)}).ok());
  }
  std::vector<Value> int_list;
  std::vector<Value> string_list;
  for (int64_t k = 0; k < 2500; ++k) {
    int_list.emplace_back(k);
    string_list.emplace_back(std::string("s").append(std::to_string(k)));
  }
  for (const Predicate& predicate :
       {Predicate::In("v", int_list), Predicate::In("s", string_list)}) {
    AggregateQuery query;
    query.table = "t";
    query.function = AggregateFunction::kSum;
    query.aggregate_column = "v";
    query.predicates = {predicate};
    const auto vec_result = Executor::Execute(*table, query);
    const AggregateResult reference =
        testing::ReferenceExecute(*table, query);
    ASSERT_TRUE(vec_result.ok());
    // Rows 0..2499 and 3000..4999 (values 0..1999) match: 4500 rows.
    EXPECT_EQ(4500u, vec_result->rows_matched);
    EXPECT_EQ(reference.rows_matched, vec_result->rows_matched);
    EXPECT_EQ(reference.value, vec_result->value);
  }
}

TEST(ExecutorTest, VectorizedSignedZeroPredicateMatchesBothZeros) {
  auto table = *Table::Create("t", {{"d", ValueType::kDouble}});
  ASSERT_TRUE(table->AppendRow({Value(0.0)}).ok());
  ASSERT_TRUE(table->AppendRow({Value(-0.0)}).ok());
  ASSERT_TRUE(table->AppendRow({Value(1.0)}).ok());
  AggregateQuery query;
  query.table = "t";
  query.function = AggregateFunction::kCount;
  query.predicates = {Predicate::Equals("d", Value(-0.0))};
  const auto vec_result = Executor::Execute(*table, query);
  const AggregateResult reference = testing::ReferenceExecute(*table, query);
  ASSERT_TRUE(vec_result.ok());
  EXPECT_EQ(2u, vec_result->rows_matched);
  EXPECT_EQ(reference.rows_matched, vec_result->rows_matched);
}

// ---------------------------------------------------------------------
// LSM storage: flushes, compaction, snapshots.
// ---------------------------------------------------------------------

std::shared_ptr<Table> MakeLsmTable(size_t rows, TableOptions options) {
  auto table = *Table::Create("lsmt", {{"city", ValueType::kString},
                                       {"delay", ValueType::kInt64},
                                       {"dist", ValueType::kDouble}},
                              options);
  static const char* kCities[] = {"boston", "austin", "newark", "quincy"};
  for (size_t r = 0; r < rows; ++r) {
    EXPECT_TRUE(table
                    ->AppendRow({Value(kCities[r % 4]),
                                 Value(static_cast<int64_t>(r) - 20),
                                 Value(static_cast<double>(r) * 0.5 - 10.0)})
                    .ok());
  }
  return table;
}

TEST(LsmTableTest, FlushAtThresholdSealsRuns) {
  TableOptions options;
  options.flush_threshold = 4;
  auto table = MakeLsmTable(10, options);
  EXPECT_EQ(table->num_runs(), 2u);
  EXPECT_EQ(table->memtable_rows(), 2u);
  EXPECT_EQ(table->num_rows(), 10u);
  EXPECT_EQ(table->version(), 10u);

  // Explicit flush seals the open rows; flushing none is a noop.
  table->Flush();
  EXPECT_EQ(table->num_runs(), 3u);
  EXPECT_EQ(table->memtable_rows(), 0u);
  table->Flush();
  EXPECT_EQ(table->num_runs(), 3u);
  // Reorganization does not change contents, so no version bump.
  EXPECT_EQ(table->version(), 10u);
}

TEST(LsmTableTest, ReadsSpanRunAndMemtableBoundaries) {
  TableOptions options;
  options.flush_threshold = 4;
  auto table = MakeLsmTable(11, options);
  auto plain = MakeLsmTable(11, TableOptions{});  // All rows open.
  ASSERT_EQ(table->num_rows(), plain->num_rows());
  for (size_t r = 0; r < table->num_rows(); ++r) {
    for (size_t c = 0; c < table->num_columns(); ++c) {
      EXPECT_TRUE(table->ValueAt(r, c) == plain->ValueAt(r, c))
          << "row " << r << " col " << c;
    }
  }
}

TEST(LsmCompactionTest, PlanMergesSmallestAdjacentPair) {
  lsm::CompactionPolicy policy;
  policy.target_runs = 2;
  // Sizes 8, 1, 1, 8: the plan must merge the small middle pair first,
  // then fold the result into a neighbor to reach the target.
  const auto windows = lsm::PlanCompaction({8, 1, 1, 8}, policy);
  ASSERT_FALSE(windows.empty());
  size_t merged_away = 0;
  for (const auto& window : windows) {
    ASSERT_LT(window.begin, window.end);
    ASSERT_GE(window.end - window.begin, 2u);
    merged_away += (window.end - window.begin) - 1;
  }
  EXPECT_EQ(4u - merged_away, policy.target_runs);
}

TEST(LsmCompactionTest, PlanRespectsMergedRowCap) {
  lsm::CompactionPolicy policy;
  policy.target_runs = 1;
  policy.max_merged_rows = 10;
  const auto windows = lsm::PlanCompaction({8, 8, 8}, policy);
  // No pair fits under the cap: nothing to merge.
  EXPECT_TRUE(windows.empty());
}

TEST(LsmCompactionTest, CompactFoldsRunsAndKeepsContents) {
  TableOptions options;
  options.flush_threshold = 4;
  options.target_runs = 2;
  auto table = MakeLsmTable(20, options);  // 5 runs.
  ASSERT_EQ(table->num_runs(), 5u);

  table->Compact();
  EXPECT_EQ(table->num_runs(), 2u);

  // Contents are untouched by compaction.
  EXPECT_EQ(table->num_rows(), 20u);
  EXPECT_EQ(table->ValueAt(0, 0).AsString(), "boston");
  EXPECT_EQ(table->ValueAt(19, 1).AsInt64(), -1);
}

TEST(LsmCompactionTest, SnapshotPinsRunsAcrossCompaction) {
  TableOptions options;
  options.flush_threshold = 4;
  options.target_runs = 2;
  auto table = MakeLsmTable(20, options);
  const TableSnapshot snapshot = table->Snapshot();
  ASSERT_EQ(snapshot.runs().size(), 5u);

  table->Compact();
  for (size_t r = 0; r < 24; ++r) {
    ASSERT_TRUE(table
                    ->AppendRow({Value("later"), Value(int64_t{999}),
                                 Value(0.0)})
                    .ok());
  }

  // The snapshot still reads the pre-compaction version byte-for-byte.
  EXPECT_EQ(snapshot.num_rows(), 20u);
  EXPECT_EQ(snapshot.runs().size(), 5u);
  EXPECT_EQ(snapshot.ValueAt(0, 0).AsString(), "boston");
  EXPECT_EQ(snapshot.ValueAt(19, 1).AsInt64(), -1);
  EXPECT_EQ(table->num_rows(), 44u);
}

TEST(LsmTableTest, BackgroundCompactionKicksInPastMaxRuns) {
  ThreadPool pool(2);
  TableOptions options;
  options.flush_threshold = 4;
  options.max_runs = 3;
  options.target_runs = 2;
  auto table = MakeLsmTable(0, options);
  table->EnableBackgroundCompaction(&pool);
  for (size_t r = 0; r < 64; ++r) {
    ASSERT_TRUE(table
                    ->AppendRow({Value("c"), Value(static_cast<int64_t>(r)),
                                 Value(1.0)})
                    .ok());
  }
  // Quiesce: synchronous Compact serializes with any in-flight round.
  table->Compact();
  EXPECT_LE(table->num_runs(), 3u);
  EXPECT_EQ(table->num_rows(), 64u);
  int64_t sum = 0;
  for (size_t r = 0; r < 64; ++r) sum += table->ValueAt(r, 1).AsInt64();
  EXPECT_EQ(sum, 63 * 64 / 2);
}

TEST(SnapshotTest, CloneReproducesLayoutAndContents) {
  TableOptions options;
  options.flush_threshold = 4;
  auto table = MakeLsmTable(10, options);
  const TableSnapshot snapshot = table->Snapshot();
  auto clone = snapshot.Clone("lsmt_clone");
  ASSERT_TRUE(clone.ok());
  EXPECT_EQ((*clone)->num_rows(), 10u);
  EXPECT_EQ((*clone)->num_runs(), 2u);
  EXPECT_EQ((*clone)->memtable_rows(), 2u);
  const TableSnapshot clone_snapshot = (*clone)->Snapshot();
  for (size_t i = 0; i < snapshot.runs().size(); ++i) {
    EXPECT_EQ(snapshot.runs()[i]->num_rows(),
              clone_snapshot.runs()[i]->num_rows());
  }
  for (size_t r = 0; r < 10; ++r) {
    for (size_t c = 0; c < 3; ++c) {
      EXPECT_TRUE(snapshot.ValueAt(r, c) == clone_snapshot.ValueAt(r, c));
    }
  }
  // The clone is independent: appends to it leave the source alone.
  ASSERT_TRUE(
      (*clone)->AppendRow({Value("x"), Value(int64_t{1}), Value(2.0)}).ok());
  EXPECT_EQ((*clone)->num_rows(), 11u);
  EXPECT_EQ(table->num_rows(), 10u);
}

TEST(SnapshotTest, EmptySnapshotCloneFails) {
  TableSnapshot empty;
  EXPECT_FALSE(empty.valid());
  EXPECT_FALSE(empty.Clone("nope").ok());
}

/// One run-sized column set for MakeLsmTable's schema: rows [first,
/// first + rows) of the values MakeLsmTable appends.
std::vector<Column> LsmColumns(size_t first, size_t rows) {
  std::vector<Column> columns = lsm::Run::EmptyColumns(
      {{"city", ValueType::kString},
       {"delay", ValueType::kInt64},
       {"dist", ValueType::kDouble}});
  static const char* kCities[] = {"boston", "austin", "newark", "quincy"};
  for (size_t r = first; r < first + rows; ++r) {
    columns[0].AppendString(kCities[r % 4]);
    columns[1].AppendInt64(static_cast<int64_t>(r) - 20);
    columns[2].AppendDouble(static_cast<double>(r) * 0.5 - 10.0);
  }
  return columns;
}

TEST(BulkLoadTest, AppendRunRejectsMismatchedColumnsAndLeavesTableAlone) {
  TableOptions options;
  options.flush_threshold = 4;
  auto table = MakeLsmTable(6, options);  // One run, two open rows.
  const auto expect_untouched = [&](const std::string& what) {
    EXPECT_EQ(table->num_rows(), 6u) << what;
    EXPECT_EQ(table->version(), 6u) << what;
    EXPECT_EQ(table->num_runs(), 1u) << what;
    EXPECT_EQ(table->memtable_rows(), 2u) << what;
    EXPECT_EQ(table->StringValues(0),
              (std::vector<std::string>{"boston", "austin", "newark",
                                        "quincy"}))
        << what;
  };

  std::vector<Column> too_few = LsmColumns(6, 3);
  too_few.pop_back();
  EXPECT_EQ(table->AppendRun(std::move(too_few)).code(),
            StatusCode::kInvalidArgument);
  expect_untouched("count");

  std::vector<Column> renamed = LsmColumns(6, 3);
  renamed[1] = Column("delay_minutes", ValueType::kInt64);
  for (int i = 0; i < 3; ++i) renamed[1].AppendInt64(i);
  EXPECT_EQ(table->AppendRun(std::move(renamed)).code(),
            StatusCode::kInvalidArgument);
  expect_untouched("name");

  std::vector<Column> retyped = LsmColumns(6, 3);
  retyped[2] = Column("dist", ValueType::kInt64);
  for (int i = 0; i < 3; ++i) retyped[2].AppendInt64(i);
  EXPECT_EQ(table->AppendRun(std::move(retyped)).code(),
            StatusCode::kInvalidArgument);
  expect_untouched("type");

  std::vector<Column> ragged = LsmColumns(6, 3);
  ragged[0].AppendString("salem");  // A fourth city, three numbers.
  EXPECT_EQ(table->AppendRun(std::move(ragged)).code(),
            StatusCode::kInvalidArgument);
  expect_untouched("length");

  // A zero-row set is accepted and changes nothing.
  EXPECT_TRUE(table->AppendRun(LsmColumns(6, 0)).ok());
  expect_untouched("empty");
}

TEST(BulkLoadTest, AppendRunAfterOpenRowsKeepsAppendOrder) {
  TableOptions options;
  options.flush_threshold = 8;
  // Row by row: 21 rows, sealed at 8 and 16, five left open.
  auto rowwise = MakeLsmTable(21, options);
  // Mixed: 3 open rows, a 13-row run, then 5 more rows one at a time.
  auto mixed = MakeLsmTable(3, options);
  ASSERT_TRUE(mixed->AppendRun(LsmColumns(3, 13)).ok());
  EXPECT_EQ(mixed->num_runs(), 2u);  // The open rows sealed first.
  EXPECT_EQ(mixed->memtable_rows(), 0u);
  EXPECT_EQ(mixed->num_rows(), 16u);
  EXPECT_EQ(mixed->version(), 16u);
  const std::vector<Column> tail = LsmColumns(16, 5);
  for (size_t r = 0; r < 5; ++r) {
    ASSERT_TRUE(mixed
                    ->AppendRow({tail[0].Get(r), tail[1].Get(r),
                                 tail[2].Get(r)})
                    .ok());
  }
  ASSERT_EQ(mixed->num_rows(), rowwise->num_rows());
  EXPECT_EQ(mixed->version(), mixed->num_rows());
  for (size_t r = 0; r < rowwise->num_rows(); ++r) {
    for (size_t c = 0; c < 3; ++c) {
      EXPECT_TRUE(mixed->ValueAt(r, c) == rowwise->ValueAt(r, c))
          << "row " << r << " col " << c;
    }
  }
  EXPECT_EQ(mixed->StringValues(0), rowwise->StringValues(0));
  EXPECT_EQ(mixed->DistinctCount(0), 4u);
  // Numeric columns keep no statistics.
  EXPECT_EQ(mixed->DistinctCount(1), 0u);
  EXPECT_EQ(mixed->DistinctCount(2), 0u);

  // Clone reproduces the bulk-loaded layout run for run.
  const TableSnapshot snapshot = mixed->Snapshot();
  auto clone = snapshot.Clone("mixed_clone");
  ASSERT_TRUE(clone.ok());
  const TableSnapshot cloned = (*clone)->Snapshot();
  ASSERT_EQ(cloned.runs().size(), snapshot.runs().size());
  for (size_t i = 0; i < snapshot.runs().size(); ++i) {
    EXPECT_EQ(cloned.runs()[i]->num_rows(), snapshot.runs()[i]->num_rows());
    EXPECT_EQ(cloned.runs()[i]->column(0).dictionary(),
              snapshot.runs()[i]->column(0).dictionary());
  }
  EXPECT_EQ((*clone)->memtable_rows(), 5u);
  EXPECT_EQ((*clone)->version(), mixed->version());
  EXPECT_EQ((*clone)->StringValues(0), mixed->StringValues(0));
}

TEST(BulkLoadTest, SampleTakesEveryKthRowAcrossRuns) {
  TableOptions options;
  options.flush_threshold = 4;
  auto table = MakeLsmTable(30, options);  // 7 runs and two open rows.
  const double fraction = 0.3;
  auto sample = table->Sample(fraction);
  EXPECT_EQ(sample->num_runs(), 1u);
  EXPECT_EQ(sample->memtable_rows(), 0u);
  EXPECT_EQ(sample->version(), sample->num_rows());
  size_t i = 0;
  for (double position = 0.0; position < 30.0; position += 1.0 / fraction) {
    const size_t r = static_cast<size_t>(position);
    ASSERT_LT(i, sample->num_rows());
    for (size_t c = 0; c < 3; ++c) {
      EXPECT_TRUE(sample->ValueAt(i, c) == table->ValueAt(r, c))
          << "sample row " << i << " col " << c;
    }
    ++i;
  }
  EXPECT_EQ(sample->num_rows(), i);
}

// Readers snapshot, scan and read vocabularies while the writer
// bulk-loads runs (interleaved with row appends); every snapshot is one
// consistent prefix. Run under TSan this also checks the bulk path for
// data races.
TEST(BulkLoadTest, ReadersScanWhileWriterBulkLoads) {
  TableOptions options;
  options.flush_threshold = 16;
  auto table = MakeLsmTable(0, options);
  constexpr size_t kRuns = 200;
  constexpr size_t kRunRows = 50;
  std::atomic<bool> done{false};
  std::atomic<size_t> reads{0};
  std::thread writer([&] {
    while (reads.load() == 0) std::this_thread::yield();
    size_t next = 0;
    for (size_t i = 0; i < kRuns; ++i) {
      EXPECT_TRUE(table->AppendRun(LsmColumns(next, kRunRows)).ok());
      next += kRunRows;
      const std::vector<Column> row = LsmColumns(next, 1);
      EXPECT_TRUE(
          table->AppendRow({row[0].Get(0), row[1].Get(0), row[2].Get(0)})
              .ok());
      ++next;
    }
    done.store(true);
  });
  AggregateQuery sum;
  sum.table = "lsmt";
  sum.function = AggregateFunction::kSum;
  sum.aggregate_column = "delay";
  const auto read = [&] {
    const TableSnapshot snapshot = table->Snapshot();
    const size_t n = snapshot.num_rows();
    EXPECT_EQ(snapshot.version(), n);
    auto result = Executor::Execute(snapshot, sum);
    ASSERT_TRUE(result.ok());
    // delay of row r is r - 20, so a prefix of n rows sums to this.
    const int64_t want =
        static_cast<int64_t>(n * (n - 1) / 2) - 20 * static_cast<int64_t>(n);
    EXPECT_EQ(result->value, static_cast<double>(want)) << n;
    EXPECT_EQ(result->rows_matched, n);
    EXPECT_LE(table->StringValues(0).size(), 4u);
    reads.fetch_add(1);
  };
  std::thread reader([&] {
    while (!done.load()) read();
  });
  while (!done.load()) read();
  writer.join();
  reader.join();
  read();
  EXPECT_EQ(table->num_rows(), kRuns * (kRunRows + 1));
}

// ---------------------------------------------------------------------
// Snapshot-oracle differential suite: writes race reads.
//
// A writer thread appends (with flushes and background compaction
// racing along) while the main thread repeatedly snapshots the table,
// deep-copies the snapshot into a frozen oracle (TableSnapshot::Clone
// preserves run boundaries and per-run dictionaries, so scans over the
// clone are bit-for-bit comparable), and requires every read through
// the snapshot — raw ValueAt and aggregate/grouped scans at 1/2/8
// threads — to be byte-identical to the
// same read over the oracle, scanned either by db::Executor or by the
// value-at-a-time reference executor (testing/reference_executor.h).
//
// 210 configurations by default: 5 seeds x 7 run-boundary row
// counts x 3 thread counts x the two oracle scanners. MUVE_ORACLE_SEEDS
// scales the seed dimension (the `slow` CTest variant raises it).
// ---------------------------------------------------------------------

int OracleSeedCount() {
  const char* value = std::getenv("MUVE_ORACLE_SEEDS");
  if (value != nullptr) {
    const int parsed = std::atoi(value);
    if (parsed > 0) return parsed;
  }
  return 5;
}

class SnapshotOracleTest : public ::testing::Test {
 protected:
  ThreadPool* PoolFor(size_t threads) {
    if (threads < 2) return nullptr;
    std::unique_ptr<ThreadPool>& slot = pools_[threads];
    if (slot == nullptr) slot = std::make_unique<ThreadPool>(threads);
    return slot.get();
  }

  std::map<size_t, std::unique_ptr<ThreadPool>> pools_;
};

void ExpectResultsBitwiseEqual(const AggregateResult& snap,
                               const AggregateResult& oracle,
                               const std::string& context) {
  EXPECT_EQ(snap.value, oracle.value) << context;
  EXPECT_EQ(snap.rows_matched, oracle.rows_matched) << context;
  EXPECT_EQ(snap.empty_input, oracle.empty_input) << context;
}

TEST_F(SnapshotOracleTest, WritesRaceReadsDifferentialOracle) {
  constexpr size_t kFlush = 64;
  constexpr size_t kRowCounts[] = {kFlush - 1,     kFlush,
                                   kFlush + 1,     2 * kFlush - 1,
                                   2 * kFlush,     2 * kFlush + 1,
                                   5 * kFlush / 2};
  constexpr size_t kThreadCounts[] = {1, 2, 8};
  static const char* kCities[] = {"boston", "austin", "newark", "quincy"};
  ThreadPool compaction_pool(2);
  const int seeds = OracleSeedCount();

  for (int seed = 0; seed < seeds; ++seed) {
    for (const size_t initial_rows : kRowCounts) {
      for (const size_t threads : kThreadCounts) {
        for (const bool reference : {false, true}) {
          Rng rng(0x0eac1eull + static_cast<uint64_t>(seed) * 131071 +
                  initial_rows * 257 + threads * 17 + (reference ? 1 : 0));
          TableOptions topt;
          topt.flush_threshold = kFlush;
          topt.max_runs = 3;  // Frequent background compaction churn.
          topt.target_runs = 2;
          auto table = *Table::Create(
              "oracle_src", {{"city", ValueType::kString},
                             {"delay", ValueType::kInt64},
                             {"dist", ValueType::kDouble}},
              topt);
          const auto append_row = [&table](size_t r) {
            return table->AppendRow(
                {Value(kCities[r % 4]),
                 Value(static_cast<int64_t>(r % 97) - 48),
                 Value(static_cast<double>(r % 31) * 0.5 - 7.0)});
          };
          for (size_t r = 0; r < initial_rows; ++r) {
            ASSERT_TRUE(append_row(r).ok());
          }
          table->EnableBackgroundCompaction(&compaction_pool);

          // The racing writer: appends (crossing flush thresholds and
          // triggering compactions) until the readers are done.
          std::atomic<bool> stop{false};
          std::atomic<bool> writer_ok{true};
          std::thread writer([&] {
            size_t r = initial_rows;
            // Hard cap bounds memory if the reader side stalls.
            while (!stop.load(std::memory_order_relaxed) &&
                   r < initial_rows + 8192) {
              if (!append_row(r++).ok()) {
                writer_ok.store(false, std::memory_order_relaxed);
                return;
              }
            }
          });

          db::ExecutorOptions options;
          options.pool = PoolFor(threads);
          options.parallel_grain = 37;  // Odd grain: awkward slice cuts.

          for (int round = 0; round < 2; ++round) {
            const TableSnapshot snapshot = table->Snapshot();
            auto oracle = snapshot.Clone("oracle_frozen");
            ASSERT_TRUE(oracle.ok());
            const TableSnapshot frozen = (*oracle)->Snapshot();
            const std::string context =
                StrCat({"seed ", std::to_string(seed), " rows ",
                        std::to_string(initial_rows), " threads ",
                        std::to_string(threads),
                        reference ? " reference" : " executor", " round ",
                        std::to_string(round)});

            // Raw reads: layout and bytes must match the frozen copy.
            ASSERT_EQ(snapshot.num_rows(), frozen.num_rows()) << context;
            ASSERT_EQ(snapshot.runs().size(), frozen.runs().size())
                << context;
            const size_t probe_rows[] = {0, kFlush - 1, kFlush,
                                         snapshot.num_rows() / 2,
                                         snapshot.num_rows() - 1};
            for (const size_t r : probe_rows) {
              if (r >= snapshot.num_rows()) continue;
              for (size_t c = 0; c < 3; ++c) {
                EXPECT_TRUE(snapshot.ValueAt(r, c) == frozen.ValueAt(r, c))
                    << context << " row " << r << " col " << c;
              }
            }

            // Scans: byte-identical to the oracle under the same options.
            for (int q = 0; q < 2; ++q) {
              const AggregateQuery query =
                  testing::RandomVecAggregateQuery(**oracle, &rng);
              const Result<AggregateResult> want =
                  reference ? testing::ReferenceExecute(frozen, query,
                                                        options.parallel_grain)
                            : Executor::Execute(frozen, query, options);
              ASSERT_TRUE(want.ok()) << context;
              const auto got = Executor::Execute(snapshot, query, options);
              ASSERT_TRUE(got.ok()) << context;
              ExpectResultsBitwiseEqual(*got, *want, context);
            }
            const GroupByQuery grouped =
                testing::RandomVecGroupByQuery(**oracle, &rng);
            const Result<GroupByResult> want =
                reference ? testing::ReferenceExecuteGrouped(
                                frozen, grouped, options.parallel_grain)
                          : Executor::ExecuteGrouped(frozen, grouped, options);
            ASSERT_TRUE(want.ok()) << context;
            const auto got =
                Executor::ExecuteGrouped(snapshot, grouped, options);
            ASSERT_TRUE(got.ok()) << context;
            ASSERT_EQ(got->cells.size(), want->cells.size()) << context;
            for (size_t g = 0; g < want->cells.size(); ++g) {
              ASSERT_EQ(got->cells[g].size(), want->cells[g].size());
              for (size_t a = 0; a < want->cells[g].size(); ++a) {
                ExpectResultsBitwiseEqual(
                    got->cells[g][a], want->cells[g][a],
                    StrCat({context, " cell ", std::to_string(g), "/",
                            std::to_string(a)}));
              }
            }
          }

          stop.store(true, std::memory_order_relaxed);
          writer.join();
          EXPECT_TRUE(writer_ok.load(std::memory_order_relaxed))
              << "writer append failed";
        }
      }
    }
  }
}

/// A snapshot taken before the table (and its pool wiring) goes away
/// keeps serving byte-stable reads: the last reference pins runs (the
/// frozen open rows among them) and the table object itself.
TEST_F(SnapshotOracleTest, SnapshotOutlivesTableAndCompactionPool) {
  TableSnapshot survivor;
  std::shared_ptr<Table> clone_check;
  {
    ThreadPool pool(2);
    TableOptions topt;
    topt.flush_threshold = 8;
    topt.max_runs = 2;
    topt.target_runs = 1;
    auto table = *Table::Create("ephemeral",
                                {{"city", ValueType::kString},
                                 {"delay", ValueType::kInt64}},
                                topt);
    table->EnableBackgroundCompaction(&pool);
    for (size_t r = 0; r < 45; ++r) {
      ASSERT_TRUE(table
                      ->AppendRow({Value(r % 2 == 0 ? "even" : "odd"),
                                   Value(static_cast<int64_t>(r))})
                      .ok());
    }
    survivor = table->Snapshot();
    clone_check = *survivor.Clone("still_here");
    // `table` and `pool` die here; `survivor` holds the last pin.
  }
  ASSERT_TRUE(survivor.valid());
  ASSERT_EQ(survivor.num_rows(), 45u);
  for (size_t r = 0; r < 45; ++r) {
    EXPECT_TRUE(survivor.ValueAt(r, 0) == clone_check->ValueAt(r, 0));
    EXPECT_EQ(survivor.ValueAt(r, 1).AsInt64(), static_cast<int64_t>(r));
  }
  AggregateQuery query;
  query.table = "ephemeral";
  query.function = AggregateFunction::kCount;
  query.predicates.push_back(
      Predicate::Equals("city", Value("even")));
  const auto count = Executor::Execute(survivor, query);
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(count->value, 23.0);
}

}  // namespace
}  // namespace muve::db
