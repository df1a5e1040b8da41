/// Tests for the sharded table (src/shard/): routing and merge edge
/// cases (empty shards, single-shard skew, groups split across shards),
/// plus the sharded-vs-unsharded differential suite — seeded random
/// workloads asserting that scatter-gather over 1/2/4 hash or range
/// shards reproduces the single-table oracle (the value-at-a-time
/// reference executor) **byte-for-byte** across shard thread counts,
/// and that exec::Engine answers candidate batches bit-identically over
/// a table and its sharded copies.
///
/// Byte identity across shard counts regroups the same additions, so
/// the differential tables opt into dyadic-grid doubles
/// (RandomTableOptions::dyadic_doubles): every partial SUM is exactly
/// representable and the merge order cannot change a single bit. The
/// edge-case tests use ordinary tables — COUNT/MIN/MAX are
/// order-invariant and need no grid.
///
/// MUVE_DIFF_SEEDS overrides the seed count (the `slow` CTest variant
/// raises it; every seed is self-contained).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/strings.h"
#include "common/thread_pool.h"
#include "core/candidate.h"
#include "db/executor.h"
#include "db/table.h"
#include "exec/engine.h"
#include "exec/merger.h"
#include "shard/scatter_gather.h"
#include "shard/sharded_table.h"
#include "testing/random_workload.h"
#include "testing/reference_executor.h"

namespace muve::shard {
namespace {

int SeedCount() {
  const char* value = std::getenv("MUVE_DIFF_SEEDS");
  if (value == nullptr) return 210;
  const long parsed = std::strtol(value, nullptr, 10);
  return parsed > 0 ? static_cast<int>(parsed) : 210;
}

const int kNumSeeds = SeedCount();
constexpr uint64_t kSeedBase = 41000;

const size_t kShardCounts[] = {1, 2, 4};
const size_t kThreadCounts[] = {1, 2, 8};

void ExpectBitwiseEqual(const db::AggregateResult& oracle,
                        const db::AggregateResult& sharded,
                        const std::string& context) {
  EXPECT_EQ(oracle.value, sharded.value) << context;
  EXPECT_EQ(oracle.rows_matched, sharded.rows_matched) << context;
  EXPECT_EQ(oracle.empty_input, sharded.empty_input) << context;
}

void ExpectGroupedBitwiseEqual(const db::GroupByResult& oracle,
                               const db::GroupByResult& sharded,
                               const std::string& context) {
  ASSERT_EQ(oracle.cells.size(), sharded.cells.size()) << context;
  for (size_t g = 0; g < oracle.cells.size(); ++g) {
    ASSERT_EQ(oracle.cells[g].size(), sharded.cells[g].size()) << context;
    for (size_t a = 0; a < oracle.cells[g].size(); ++a) {
      ExpectBitwiseEqual(oracle.cells[g][a], sharded.cells[g][a],
                         StrCat({context, " cell ", std::to_string(g), "/",
                                 std::to_string(a)}));
    }
  }
}

// ---------------------------------------------------------------------
// Merge edge cases.
// ---------------------------------------------------------------------

std::shared_ptr<db::Table> TinyTable(size_t rows) {
  auto table = db::Table::Create(
      "tiny", {{"city", db::ValueType::kString},
               {"n", db::ValueType::kInt64}});
  EXPECT_TRUE(table.ok());
  const char* cities[] = {"ames", "boone", "cresco"};
  for (size_t r = 0; r < rows; ++r) {
    EXPECT_TRUE((*table)
                    ->AppendRow({db::Value(cities[r % 3]),
                                 db::Value(static_cast<int64_t>(r) - 2)})
                    .ok());
  }
  return std::move(table).value();
}

TEST(ShardedTableTest, EmptyShardsMergeCleanly) {
  // 3 rows over 8 shards: at least five shards are empty, and their
  // identity partials must not perturb any aggregate — in particular
  // MIN/MAX must come from data, never from an empty shard's sentinel.
  auto source = TinyTable(3);
  ShardedTableOptions options;
  options.num_shards = 8;
  auto sharded = ShardedTable::FromTable(*source, options);
  ASSERT_TRUE(sharded.ok());
  EXPECT_EQ((*sharded)->num_rows(), 3u);

  for (const db::AggregateFunction fn :
       {db::AggregateFunction::kCount, db::AggregateFunction::kSum,
        db::AggregateFunction::kMin, db::AggregateFunction::kMax,
        db::AggregateFunction::kAvg}) {
    db::AggregateQuery query;
    query.table = "tiny";
    query.function = fn;
    if (fn != db::AggregateFunction::kCount) query.aggregate_column = "n";
    const auto oracle = db::Executor::Execute(*source, query);
    ASSERT_TRUE(oracle.ok());
    const auto merged =
        ScatterGather::Execute((*sharded)->SnapshotPartitions(), query);
    ASSERT_TRUE(merged.ok());
    ExpectBitwiseEqual(*oracle, *merged, query.ToSql());
  }

  // A predicate no row matches: all shards produce empty partials and
  // the merged result must still be the legal empty aggregate.
  db::AggregateQuery none;
  none.table = "tiny";
  none.function = db::AggregateFunction::kMin;
  none.aggregate_column = "n";
  none.predicates.push_back(
      db::Predicate::Equals("city", db::Value("nowhere")));
  const auto oracle = db::Executor::Execute(*source, none);
  const auto merged =
      ScatterGather::Execute((*sharded)->SnapshotPartitions(), none);
  ASSERT_TRUE(oracle.ok());
  ASSERT_TRUE(merged.ok());
  EXPECT_TRUE(merged->empty_input);
  ExpectBitwiseEqual(*oracle, *merged, none.ToSql());
}

TEST(ShardedTableTest, ConstantHashKeySkewsAllRowsToOneShard) {
  // Hash partitioning on a constant-valued column is the worst skew:
  // every row routes to the same shard and the other shards stay empty.
  auto source = db::Table::Create(
      "skew", {{"k", db::ValueType::kString},
               {"n", db::ValueType::kInt64}});
  ASSERT_TRUE(source.ok());
  for (int64_t r = 0; r < 100; ++r) {
    ASSERT_TRUE(
        (*source)->AppendRow({db::Value("same"), db::Value(r)}).ok());
  }
  ShardedTableOptions options;
  options.num_shards = 4;
  options.hash_column = "k";
  auto sharded = ShardedTable::FromTable(**source, options);
  ASSERT_TRUE(sharded.ok());

  const size_t home =
      (*sharded)->RouteRow({db::Value("same"), db::Value(int64_t{0})});
  size_t populated = 0;
  for (size_t s = 0; s < (*sharded)->num_shards(); ++s) {
    const size_t rows = (*sharded)->shard(s)->num_rows();
    if (rows > 0) {
      ++populated;
      EXPECT_EQ(s, home);
      EXPECT_EQ(rows, 100u);
    }
  }
  EXPECT_EQ(populated, 1u);

  db::AggregateQuery query;
  query.table = "skew";
  query.function = db::AggregateFunction::kSum;
  query.aggregate_column = "n";
  const auto oracle = db::Executor::Execute(**source, query);
  const auto merged =
      ScatterGather::Execute((*sharded)->SnapshotPartitions(), query);
  ASSERT_TRUE(oracle.ok());
  ASSERT_TRUE(merged.ok());
  ExpectBitwiseEqual(*oracle, *merged, query.ToSql());
}

TEST(ShardedTableTest, GroupsSplitAcrossShardsMergePerGroup) {
  // Sequence-hash routing scatters each city's rows over all shards, so
  // every group's aggregate is assembled from several per-shard
  // partials; an absent group must still come back empty, not zeroed.
  auto source = TinyTable(90);
  ShardedTableOptions options;
  options.num_shards = 4;
  auto sharded = ShardedTable::FromTable(*source, options);
  ASSERT_TRUE(sharded.ok());
  for (size_t s = 0; s < 4; ++s) {
    EXPECT_GT((*sharded)->shard(s)->num_rows(), 0u) << "shard " << s;
    EXPECT_LT((*sharded)->shard(s)->num_rows(), 90u) << "shard " << s;
  }

  db::GroupByQuery query;
  query.table = "tiny";
  query.group_column = "city";
  query.group_values = {"ames", "boone", "cresco", "absent_group"};
  query.aggregates.push_back({db::AggregateFunction::kCount, ""});
  query.aggregates.push_back({db::AggregateFunction::kSum, "n"});
  query.aggregates.push_back({db::AggregateFunction::kMin, "n"});
  const auto oracle = db::Executor::ExecuteGrouped(*source, query);
  const auto merged =
      ScatterGather::ExecuteGrouped((*sharded)->SnapshotPartitions(), query);
  ASSERT_TRUE(oracle.ok());
  ASSERT_TRUE(merged.ok());
  ExpectGroupedBitwiseEqual(*oracle, *merged, query.ToSql());
  // The absent group matched nothing: COUNT is a legal 0, while MIN —
  // undefined over no rows — must report empty input, not a zeroed
  // sentinel leaked from an empty shard partial.
  for (const db::AggregateResult& cell : merged->cells.back()) {
    EXPECT_EQ(cell.rows_matched, 0u);
  }
  EXPECT_TRUE(merged->cells.back()[2].empty_input);
}

TEST(ShardedTableTest, RangePartitioningStripesAppendOrder) {
  auto source = TinyTable(10);
  ShardedTableOptions options;
  options.num_shards = 3;
  options.partitioning = Partitioning::kRange;
  options.range_stripe_rows = 2;
  auto sharded = ShardedTable::FromTable(*source, options);
  ASSERT_TRUE(sharded.ok());
  // Stripes of 2 rows round-robin over 3 shards: rows 0-1 and 6-7 on
  // shard 0, rows 2-3 and 8-9 on shard 1, rows 4-5 on shard 2.
  EXPECT_EQ((*sharded)->shard(0)->num_rows(), 4u);
  EXPECT_EQ((*sharded)->shard(1)->num_rows(), 4u);
  EXPECT_EQ((*sharded)->shard(2)->num_rows(), 2u);

  db::AggregateQuery query;
  query.table = "tiny";
  query.function = db::AggregateFunction::kMax;
  query.aggregate_column = "n";
  const auto oracle = db::Executor::Execute(*source, query);
  const auto merged =
      ScatterGather::Execute((*sharded)->SnapshotPartitions(), query);
  ASSERT_TRUE(oracle.ok());
  ASSERT_TRUE(merged.ok());
  ExpectBitwiseEqual(*oracle, *merged, query.ToSql());
}

TEST(ShardedTableTest, FromTablePreservesCatalogSurface) {
  Rng rng(4242);
  auto source = testing::RandomTable(&rng);
  ShardedTableOptions options;
  options.num_shards = 4;
  auto sharded = ShardedTable::FromTable(*source, options);
  ASSERT_TRUE(sharded.ok());
  EXPECT_EQ((*sharded)->num_rows(), source->num_rows());
  ASSERT_EQ((*sharded)->num_columns(), source->num_columns());
  for (size_t c = 0; c < source->num_columns(); ++c) {
    EXPECT_EQ((*sharded)->spec(c).name, source->spec(c).name);
    EXPECT_EQ((*sharded)->spec(c).type, source->spec(c).type);
    // Global statistics must match the single table: the same value on
    // several shards still counts once, and string vocabularies keep
    // first-appearance order of the global append sequence.
    EXPECT_EQ((*sharded)->DistinctCount(c), source->DistinctCount(c))
        << source->spec(c).name;
    if (source->spec(c).type == db::ValueType::kString) {
      EXPECT_EQ((*sharded)->StringValues(c), source->StringValues(c))
          << source->spec(c).name;
    }
  }
}

// ---------------------------------------------------------------------
// Sharded-vs-unsharded differential suite.
// ---------------------------------------------------------------------

class ShardDifferentialTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    pool2_ = new ThreadPool(2);
    pool8_ = new ThreadPool(8);
  }
  static void TearDownTestSuite() {
    delete pool8_;
    pool8_ = nullptr;
    delete pool2_;
    pool2_ = nullptr;
  }

  static ThreadPool* PoolFor(size_t threads) {
    if (threads <= 1) return nullptr;
    return threads == 2 ? pool2_ : pool8_;
  }

  static ThreadPool* pool2_;
  static ThreadPool* pool8_;
};

ThreadPool* ShardDifferentialTest::pool2_ = nullptr;
ThreadPool* ShardDifferentialTest::pool8_ = nullptr;

/// Shard layouts the suite cycles through by seed: hash on the append
/// sequence, hash on the first string column (clustered groups), and
/// range stripes that deliberately misalign with run boundaries.
ShardedTableOptions LayoutFor(int seed, size_t num_shards) {
  ShardedTableOptions options;
  options.num_shards = num_shards;
  switch (seed % 3) {
    case 0:
      break;  // Sequence hash.
    case 1:
      options.hash_column = "s0";
      break;
    case 2:
      options.partitioning = Partitioning::kRange;
      options.range_stripe_rows = 137;
      break;
  }
  return options;
}

TEST_F(ShardDifferentialTest, ShardedScansMatchSingleTableByteForByte) {
  // The full matrix per seed: 1/2/4 shards x 1/2/8 shard threads —
  // every cell must reproduce the
  // reference executor's single-table scan bit-for-bit. Dyadic-grid
  // doubles make SUM/AVG exactly representable, so regrouping additions
  // across shard counts cannot legally change any bit.
  testing::RandomTableOptions table_options;
  table_options.min_rows = 300;
  table_options.max_rows = 1500;
  table_options.dyadic_doubles = true;
  for (int seed = 0; seed < kNumSeeds; ++seed) {
    Rng rng(kSeedBase + static_cast<uint64_t>(seed));
    auto table = testing::RandomTable(&rng, table_options);
    const db::AggregateQuery query =
        testing::RandomVecAggregateQuery(*table, &rng);
    const db::GroupByQuery grouped =
        testing::RandomVecGroupByQuery(*table, &rng);
    const db::AggregateResult oracle =
        testing::ReferenceExecute(*table, query);
    const db::GroupByResult oracle_grouped =
        testing::ReferenceExecuteGrouped(*table, grouped);

    for (const size_t num_shards : kShardCounts) {
      auto sharded =
          ShardedTable::FromTable(*table, LayoutFor(seed, num_shards));
      ASSERT_TRUE(sharded.ok()) << "seed " << seed;
      const db::ShardedSnapshot snapshot = (*sharded)->SnapshotPartitions();
      ASSERT_EQ(snapshot.num_rows(), table->num_rows());

      for (const size_t threads : kThreadCounts) {
        ScatterOptions options;
        options.executor.pool = PoolFor(threads);
        options.executor.parallel_grain = 193;
        const std::string context =
            StrCat({"seed ", std::to_string(seed), " shards ",
                    std::to_string(num_shards), " threads ",
                    std::to_string(threads), " "});
        const auto merged = ScatterGather::Execute(snapshot, query, options);
        ASSERT_TRUE(merged.ok()) << context << query.ToSql();
        ExpectBitwiseEqual(oracle, *merged, context + query.ToSql());
        const auto merged_grouped =
            ScatterGather::ExecuteGrouped(snapshot, grouped, options);
        ASSERT_TRUE(merged_grouped.ok()) << context << grouped.ToSql();
        ExpectGroupedBitwiseEqual(oracle_grouped, *merged_grouped,
                                  context + grouped.ToSql());
      }
    }
  }
}

// ---------------------------------------------------------------------
// exec::Engine over the partition seam.
// ---------------------------------------------------------------------

TEST(ShardedEngineTest, EngineMatchesSingleTableAcrossShardCounts) {
  // The engine scans every relation through ScatterGather: a table is
  // one partition, a sharded copy is several. On dyadic data each batch
  // — several merge units, at least one a merged GROUP BY — must come
  // back bit-identical over the table and its 1/2/4-shard copies, at 1
  // and 8 engine threads.
  testing::RandomTableOptions table_options;
  table_options.dyadic_doubles = true;
  size_t batches = 0;
  for (int seed = 0; seed < 60 && batches < 8; ++seed) {
    Rng rng(kSeedBase + 300000 + static_cast<uint64_t>(seed));
    const std::shared_ptr<db::Table> table =
        testing::RandomTable(&rng, table_options);
    const core::CandidateSet set = testing::RandomCandidateSet(*table, &rng);
    std::vector<size_t> all(set.size());
    std::iota(all.begin(), all.end(), size_t{0});
    exec::Engine reference(table, {.num_threads = 1});
    const std::vector<exec::MergeUnit> units = exec::PlanMergedExecution(
        set, all, *table, reference.estimator(), /*enable_merging=*/true);
    if (units.size() < 2 ||
        std::none_of(units.begin(), units.end(),
                     [](const exec::MergeUnit& unit) { return unit.merged; })) {
      continue;
    }
    ++batches;
    const auto expected = reference.Execute(set, all);
    ASSERT_TRUE(expected.ok()) << "seed " << seed;

    std::vector<std::shared_ptr<const db::Relation>> relations = {table};
    for (const size_t num_shards : kShardCounts) {
      auto sharded =
          ShardedTable::FromTable(*table, LayoutFor(seed, num_shards));
      ASSERT_TRUE(sharded.ok()) << "seed " << seed;
      relations.push_back(*sharded);
    }
    for (size_t r = 0; r < relations.size(); ++r) {
      for (const size_t threads : {size_t{1}, size_t{8}}) {
        exec::Engine engine(relations[r], {.num_threads = threads});
        const auto actual = engine.Execute(set, all);
        const std::string context =
            StrCat({"seed ", std::to_string(seed), " relation ",
                    std::to_string(r), " threads ", std::to_string(threads)});
        ASSERT_TRUE(actual.ok()) << context;
        EXPECT_EQ(expected->queries_issued, actual->queries_issued)
            << context;
        ASSERT_EQ(expected->values.size(), actual->values.size());
        for (size_t i = 0; i < set.size(); ++i) {
          if (std::isnan(expected->values[i])) {
            EXPECT_TRUE(std::isnan(actual->values[i])) << context;
            continue;
          }
          EXPECT_EQ(expected->values[i], actual->values[i])
              << context << " " << set[i].query.ToSql();
        }
      }
    }
  }
  EXPECT_EQ(batches, 8u);
}

}  // namespace
}  // namespace muve::shard
