/// Differential test harness for the threaded MUVE pipeline.
///
/// Hundreds of seeded random workloads are pushed through pairs of
/// implementations that must agree:
///   - db::Executor inline scan vs pooled scan (1, 2 and 8 threads), for
///     single aggregates and grouped queries;
///   - db::Executor vs the value-at-a-time reference executor
///     (testing/reference_executor.h) at every thread count, full and
///     sampled;
///   - exec::Engine merged vs unmerged execution, serial vs parallel;
///   - core::GreedyPlanner serial vs parallel candidate evaluation
///     (plans must be structurally identical, costs bitwise equal);
///   - greedy vs brute-force reference planner on tiny instances (the
///     exhaustive optimum can never be worse than greedy);
///   - core::IlpPlanner across solver thread counts (1, 2, 8):
///     byte-identical multiplot, cost, bound, and node count; and
///     presolve on vs off: equal optimal cost;
///   - repeated execution on one exec::Engine vs a fresh engine, and the
///     full MuveEngine pipeline with its plan memo vs without: cold and
///     warm replays must be byte-identical to the memo-disabled path.
///
/// Agreement rules: executor results, including SUM/AVG, are bitwise
/// equal at every thread count, because every scan folds the same
/// fixed-grain slices in the same order whether or not a pool runs them,
/// and the reference executor folds them the same way. Plan structure is
/// exact, and
/// so are exec::Engine values, merged or unmerged, at every thread
/// count.
///
/// MUVE_DIFF_SEEDS overrides the seed count (the `slow` CTest variants
/// raise it; every seed is self-contained so any count reproduces).

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <iterator>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/strings.h"
#include "common/thread_pool.h"
#include "core/greedy_planner.h"
#include "core/ilp_planner.h"
#include "db/executor.h"
#include "exec/engine.h"
#include "muve/muve_engine.h"
#include "nlq/translator.h"
#include "serve/server.h"
#include "testing/brute_force_planner.h"
#include "testing/random_workload.h"
#include "testing/reference_executor.h"
#include "testing/sanitizer.h"
#include "viz/render_ascii.h"
#include "workload/datasets.h"

namespace muve {
namespace {

int SeedCount() {
  const char* value = std::getenv("MUVE_DIFF_SEEDS");
  if (value == nullptr) return 210;
  const long parsed = std::strtol(value, nullptr, 10);
  return parsed > 0 ? static_cast<int>(parsed) : 210;
}

const int kNumSeeds = SeedCount();
constexpr uint64_t kSeedBase = 9000;

/// Thread counts every comparison runs at (1 = serial reference path).
const size_t kThreadCounts[] = {1, 2, 8};

/// Every field bitwise equal, SUM/AVG included.
void ExpectBitwiseEqual(const db::AggregateResult& expected,
                        const db::AggregateResult& actual,
                        const std::string& context) {
  EXPECT_EQ(expected.value, actual.value) << context;
  EXPECT_EQ(expected.rows_matched, actual.rows_matched) << context;
  EXPECT_EQ(expected.empty_input, actual.empty_input) << context;
}

void ExpectGroupedBitwiseEqual(const db::GroupByResult& expected,
                               const db::GroupByResult& actual,
                               const std::string& context) {
  EXPECT_EQ(expected.rows_scanned, actual.rows_scanned) << context;
  ASSERT_EQ(expected.cells.size(), actual.cells.size()) << context;
  for (size_t g = 0; g < expected.cells.size(); ++g) {
    ASSERT_EQ(expected.cells[g].size(), actual.cells[g].size()) << context;
    for (size_t a = 0; a < expected.cells[g].size(); ++a) {
      ExpectBitwiseEqual(expected.cells[g][a], actual.cells[g][a],
                         StrCat({context, " cell ", std::to_string(g), "/",
                                 std::to_string(a)}));
    }
  }
}

/// Canonical string form of a multiplot's structure (bars, highlighting,
/// row layout) for exact plan comparison.
std::string PlanSignature(const core::Multiplot& multiplot) {
  std::ostringstream out;
  for (size_t r = 0; r < multiplot.rows.size(); ++r) {
    out << "row" << r << "[";
    for (const core::Plot& plot : multiplot.rows[r]) {
      out << "(" << plot.query_template.key << ":";
      for (const core::PlotBar& bar : plot.bars) {
        out << bar.candidate_index << (bar.highlighted ? "R" : "p") << ",";
      }
      out << ")";
    }
    out << "]";
  }
  return out.str();
}

class DifferentialTest : public ::testing::Test {
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

  /// Pool for a thread count; nullptr = serial.
  static ThreadPool* PoolFor(size_t threads) {
    if (threads <= 1) return nullptr;
    return threads == 2 ? pool2_ : pool8_;
  }

  static ThreadPool* pool2_;
  static ThreadPool* pool8_;
};

ThreadPool* DifferentialTest::pool2_ = nullptr;
ThreadPool* DifferentialTest::pool8_ = nullptr;

// ---------------------------------------------------------------------
// Layer 1: db::Executor — inline vs pooled scans.
//
// The inline leg uses the pooled legs' odd grain, so every leg cuts the
// same slices and all of them must agree bitwise, SUM/AVG included.
// ---------------------------------------------------------------------

TEST_F(DifferentialTest, ExecutorSerialVsParallelScans) {
  for (int seed = 0; seed < kNumSeeds; ++seed) {
    Rng rng(kSeedBase + static_cast<uint64_t>(seed));
    auto table = testing::RandomTable(&rng);
    // Odd grain: slice boundaries cut rows at awkward offsets.
    db::ExecutorOptions serial_options;
    serial_options.parallel_grain = 193;
    db::ExecutorOptions parallel_options = serial_options;

    for (int q = 0; q < 3; ++q) {
      const db::AggregateQuery query =
          testing::RandomAggregateQuery(*table, &rng);
      const auto serial =
          db::Executor::Execute(*table, query, serial_options);
      ASSERT_TRUE(serial.ok()) << query.ToSql();
      for (const size_t threads : kThreadCounts) {
        parallel_options.pool = PoolFor(threads);
        const auto parallel =
            db::Executor::Execute(*table, query, parallel_options);
        ASSERT_TRUE(parallel.ok()) << query.ToSql();
        ExpectBitwiseEqual(*serial, *parallel,
                           StrCat({"seed ", std::to_string(seed), " threads ",
                                   std::to_string(threads), " ",
                                   query.ToSql()}));
      }
    }
  }
}

TEST_F(DifferentialTest, ExecutorSerialVsParallelGroupedScans) {
  for (int seed = 0; seed < kNumSeeds; ++seed) {
    Rng rng(kSeedBase + 100000 + static_cast<uint64_t>(seed));
    // Runs of 1024 rows span several 311-row slices, so the inline fold
    // and the pooled fold both cross slice boundaries inside a run.
    testing::RandomTableOptions table_options;
    table_options.flush_threshold = 1024;
    auto table = testing::RandomTable(&rng, table_options);
    const db::GroupByQuery query =
        testing::RandomGroupByQuery(*table, &rng);
    db::ExecutorOptions serial_options;
    serial_options.parallel_grain = 311;
    const auto serial =
        db::Executor::ExecuteGrouped(*table, query, serial_options);
    ASSERT_TRUE(serial.ok()) << query.ToSql();

    db::ExecutorOptions parallel_options = serial_options;
    for (const size_t threads : kThreadCounts) {
      parallel_options.pool = PoolFor(threads);
      const auto parallel =
          db::Executor::ExecuteGrouped(*table, query, parallel_options);
      ASSERT_TRUE(parallel.ok()) << query.ToSql();
      ExpectGroupedBitwiseEqual(*serial, *parallel,
                                StrCat({"seed ", std::to_string(seed),
                                        " threads ", std::to_string(threads),
                                        " ", query.ToSql()}));
    }
  }
}

// ---------------------------------------------------------------------
// Layer 1b: db::Executor vs the value-at-a-time reference executor.
//
// The executor scans runs as column batches; the reference
// (testing/reference_executor.h) tests one value at a time through the
// snapshot's public surface, with the same slices and folds. Every field
// — including SUM/AVG — is compared with EXPECT_EQ, across thread
// counts and full vs sampled tables. Row
// counts sweep the batch boundaries (0, 1, 2047, 2048, 2049, 4099 rows
// around the 2048-row batch) on a third of the seeds, on every other
// sweep as one unsealed tail.
// ---------------------------------------------------------------------

/// Batch-boundary row counts: empty table, single row, one batch +/- 1,
/// and a multi-batch size that is a multiple of neither the batch nor
/// any test grain.
constexpr size_t kBatchBoundaryRows[] = {0, 1, 2047, 2048, 2049, 4099};

testing::RandomTableOptions VecTableOptions(int seed) {
  testing::RandomTableOptions options;
  if (seed % 3 == 0) {
    const size_t sweep = static_cast<size_t>(seed / 3);
    const size_t rows =
        kBatchBoundaryRows[sweep % std::size(kBatchBoundaryRows)];
    options.min_rows = rows;
    options.max_rows = rows;
    // Every other sweep never seals: the whole table is open rows, which
    // each snapshot freezes into one run that may cross batch boundaries.
    if (sweep / std::size(kBatchBoundaryRows) % 2 == 1) {
      options.flush_threshold = rows + 1;
    }
  }
  return options;
}

TEST_F(DifferentialTest, ExecutorVsReferenceScans) {
  for (int seed = 0; seed < kNumSeeds; ++seed) {
    Rng rng(kSeedBase + 1000000 + static_cast<uint64_t>(seed));
    auto table = testing::RandomTable(&rng, VecTableOptions(seed));
    // Sampled execution composes with batching: the executor must agree
    // on the sample too, and scaled values must match exactly.
    auto sample = table->Sample(0.37);

    for (int q = 0; q < 3; ++q) {
      const db::AggregateQuery query =
          testing::RandomVecAggregateQuery(*table, &rng);
      for (const db::Table* target : {table.get(), sample.get()}) {
        // Odd grain: batches tile each slice from its start, so awkward
        // slice cuts must not move any batch boundary's effect across
        // slices.
        const db::AggregateResult reference =
            testing::ReferenceExecute(*target, query, 193);
        for (const size_t threads : kThreadCounts) {
          db::ExecutorOptions options;
          options.parallel_grain = 193;
          options.pool = PoolFor(threads);
          const std::string context =
              StrCat({"seed ", std::to_string(seed), " threads ",
                      std::to_string(threads),
                      target == sample.get() ? " sampled " : " full ",
                      query.ToSql()});
          const auto vec = db::Executor::Execute(*target, query, options);
          ASSERT_TRUE(vec.ok()) << context;
          ExpectBitwiseEqual(reference, *vec, context);
          EXPECT_EQ(
              db::Executor::ScaleSampledValue(query.function,
                                              reference.value, 0.37),
              db::Executor::ScaleSampledValue(query.function, vec->value,
                                              0.37))
              << context;
        }
      }
    }
  }
}

TEST_F(DifferentialTest, ExecutorVsReferenceGroupedScans) {
  for (int seed = 0; seed < kNumSeeds; ++seed) {
    Rng rng(kSeedBase + 1100000 + static_cast<uint64_t>(seed));
    auto table = testing::RandomTable(&rng, VecTableOptions(seed));
    auto sample = table->Sample(0.37);
    const db::GroupByQuery query =
        testing::RandomVecGroupByQuery(*table, &rng);

    for (const db::Table* target : {table.get(), sample.get()}) {
      const db::GroupByResult reference =
          testing::ReferenceExecuteGrouped(*target, query, 311);
      for (const size_t threads : kThreadCounts) {
        db::ExecutorOptions options;
        options.parallel_grain = 311;
        options.pool = PoolFor(threads);
        const std::string context =
            StrCat({"seed ", std::to_string(seed), " threads ",
                    std::to_string(threads),
                    target == sample.get() ? " sampled " : " full ",
                    query.ToSql()});
        const auto vec =
            db::Executor::ExecuteGrouped(*target, query, options);
        ASSERT_TRUE(vec.ok()) << context;
        ExpectGroupedBitwiseEqual(reference, *vec, context);
      }
    }
  }
}

// ---------------------------------------------------------------------
// Layer 2: exec::Engine — merged vs unmerged, serial vs parallel.
// ---------------------------------------------------------------------

TEST_F(DifferentialTest, EngineMergedUnmergedSerialParallel) {
  for (int seed = 0; seed < kNumSeeds; ++seed) {
    Rng rng(kSeedBase + 200000 + static_cast<uint64_t>(seed));
    auto table = testing::RandomTable(&rng);
    const core::CandidateSet set =
        testing::RandomCandidateSet(*table, &rng);
    if (set.empty()) continue;
    std::vector<size_t> all(set.size());
    for (size_t i = 0; i < all.size(); ++i) all[i] = i;

    // Reference: serial, unmerged.
    exec::Engine reference(table,
                           {.enable_merging = false, .num_threads = 1});
    const auto expected = reference.Execute(set, all);
    ASSERT_TRUE(expected.ok());

    for (const bool merging : {false, true}) {
      for (const size_t threads : kThreadCounts) {
        exec::EngineOptions options;
        options.enable_merging = merging;
        options.num_threads = threads;
        exec::Engine engine(table, options);
        const auto actual = engine.Execute(set, all);
        ASSERT_TRUE(actual.ok());
        ASSERT_EQ(expected->values.size(), actual->values.size());
        for (size_t i = 0; i < set.size(); ++i) {
          const std::string context =
              StrCat({"seed ", std::to_string(seed), " merging ",
                      std::to_string(merging), " threads ",
                      std::to_string(threads), " ", set[i].query.ToSql()});
          if (std::isnan(expected->values[i])) {
            EXPECT_TRUE(std::isnan(actual->values[i])) << context;
            continue;
          }
          EXPECT_EQ(expected->values[i], actual->values[i]) << context;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------
// Layer 3: planners — greedy thread-count invariance, greedy vs
// brute-force reference.
// ---------------------------------------------------------------------

TEST_F(DifferentialTest, GreedyPlannerThreadCountInvariant) {
  for (int seed = 0; seed < kNumSeeds; ++seed) {
    Rng rng(kSeedBase + 300000 + static_cast<uint64_t>(seed));
    testing::RandomTableOptions table_options;
    table_options.min_rows = 200;
    table_options.max_rows = 600;
    auto table = testing::RandomTable(&rng, table_options);
    const core::CandidateSet set =
        testing::RandomCandidateSet(*table, &rng, 24);
    if (set.empty()) continue;
    core::PlannerConfig config;
    config.geometry.max_rows = 1 + static_cast<int>(seed % 2);

    core::PlanResult reference;
    for (const size_t threads : kThreadCounts) {
      core::GreedyPlanner::Options options;
      options.pool = PoolFor(threads);
      options.min_parallel_candidates = 1;  // Force the parallel path.
      const core::GreedyPlanner planner(options);
      const auto plan = planner.Plan(set, config);
      ASSERT_TRUE(plan.ok());
      EXPECT_TRUE(plan->multiplot.Validate(config.geometry).ok())
          << "seed " << seed << " threads " << threads;
      if (threads == 1) {
        reference = *plan;
        continue;
      }
      // The parallel argmax must reproduce the serial plan exactly:
      // same structure, bitwise-equal cost.
      EXPECT_EQ(PlanSignature(reference.multiplot),
                PlanSignature(plan->multiplot))
          << "seed " << seed << " threads " << threads;
      EXPECT_EQ(reference.expected_cost, plan->expected_cost)
          << "seed " << seed << " threads " << threads;
    }
  }
}

TEST_F(DifferentialTest, GreedyNeverBeatsBruteForce) {
  int planned = 0;
  for (int seed = 0; seed < kNumSeeds; ++seed) {
    Rng rng(kSeedBase + 400000 + static_cast<uint64_t>(seed));
    testing::RandomTableOptions table_options;
    table_options.min_rows = 100;
    table_options.max_rows = 300;
    auto table = testing::RandomTable(&rng, table_options);
    const core::CandidateSet set = testing::TinyCandidateSet(*table, &rng);
    core::PlannerConfig config;
    config.geometry.max_rows = 1;

    const core::BruteForcePlanner brute;
    const auto optimal = brute.Plan(set, config);
    ASSERT_TRUE(optimal.ok()) << "seed " << seed;

    for (const size_t threads : kThreadCounts) {
      core::GreedyPlanner::Options options;
      options.pool = PoolFor(threads);
      options.min_parallel_candidates = 1;
      const core::GreedyPlanner planner(options);
      const auto greedy = planner.Plan(set, config);
      ASSERT_TRUE(greedy.ok()) << "seed " << seed;
      // The exhaustive optimum is a lower bound for greedy at every
      // thread count.
      EXPECT_LE(optimal->expected_cost,
                greedy->expected_cost + 1e-9)
          << "seed " << seed << " threads " << threads;
    }
    ++planned;
  }
  // The suite must not silently degenerate to skipping everything.
  EXPECT_GE(planned, kNumSeeds);
}

TEST_F(DifferentialTest, IlpPlannerThreadAndPresolveInvariant) {
  // The branch-and-bound determinism contract: for solves that finish
  // within the timeout, the ILP planner's output is byte-identical at
  // any solver thread count — same multiplot, bitwise-equal cost and
  // bound, identical node count. Presolve rewrites the model (different
  // tree, different tie-breaking among equal-cost optima — symmetric
  // templates covering the same candidates do tie exactly), so across
  // presolve on/off only the optimal cost itself must agree.
  // Six solver configurations per seed: capped well below kNumSeeds to
  // keep the tier1 wall clock reasonable. Not skipped under sanitizers
  // — racing the parallel tree search under TSan is the point of that
  // pass — but trimmed further, since solves run ~10x slower there.
  const int seeds =
      std::min(kNumSeeds, muve::testing::kSanitizerBuild ? 3 : 10);
  int compared = 0;
  for (int seed = 0; seed < seeds; ++seed) {
    Rng rng(kSeedBase + 800000 + static_cast<uint64_t>(seed));
    testing::RandomTableOptions table_options;
    table_options.min_rows = 100;
    table_options.max_rows = 300;
    auto table = testing::RandomTable(&rng, table_options);
    const core::CandidateSet set =
        testing::RandomCandidateSet(*table, &rng, 8);
    if (set.empty()) continue;
    core::PlannerConfig config;
    config.geometry.max_rows = 1;
    // Generous for a release build; sanitizer builds may still hit it
    // on hard seeds, and a timeout legitimately surrenders determinism
    // — such seeds are skipped, not failed.
    config.timeout_ms = 10000.0;

    bool have_reference = false;
    bool timed_out = false;
    core::PlanResult reference;  // Presolve-on serial run.
    core::PlanResult presolve_reference;  // Serial run, either setting.
    for (const bool presolve : {true, false}) {
      for (const size_t threads : kThreadCounts) {
        config.ilp.presolve = presolve;
        config.ilp.num_threads = threads;
        const core::IlpPlanner planner(PoolFor(threads));
        const auto plan = planner.Plan(set, config);
        ASSERT_TRUE(plan.ok()) << "seed " << seed;
        if (plan->timed_out) {
          timed_out = true;
          break;
        }
        const std::string context =
            StrCat({"seed ", std::to_string(seed), " presolve ",
                    std::to_string(presolve), " threads ",
                    std::to_string(threads)});
        EXPECT_TRUE(plan->multiplot.Validate(config.geometry).ok())
            << context;
        if (threads == 1) {
          presolve_reference = *plan;
          if (!have_reference) {
            reference = *plan;
            have_reference = true;
          } else {
            // Presolve on vs off: the optimum value is preserved.
            const double scale =
                std::max(1.0, std::fabs(reference.expected_cost));
            EXPECT_NEAR(reference.expected_cost, plan->expected_cost,
                        1e-9 * scale)
                << context;
          }
          continue;
        }
        // Thread counts at a fixed presolve setting: byte-identical.
        EXPECT_EQ(PlanSignature(presolve_reference.multiplot),
                  PlanSignature(plan->multiplot))
            << context;
        EXPECT_EQ(presolve_reference.expected_cost, plan->expected_cost)
            << context;
        EXPECT_EQ(presolve_reference.best_bound, plan->best_bound)
            << context;
        EXPECT_EQ(presolve_reference.nodes_explored, plan->nodes_explored)
            << context;
      }
      if (timed_out) break;
    }
    if (have_reference && !timed_out) ++compared;
  }
  // The suite must not silently degenerate into empty candidate sets
  // (or all-timeout seeds).
  EXPECT_GT(compared, 0);
}

// ---------------------------------------------------------------------
// Layer 4: replays and the plan memo — a repeated batch, and the full
// pipeline with and without its plan memo, must be byte-identical for
// cold and warm replays.
// ---------------------------------------------------------------------

TEST_F(DifferentialTest, EngineReplayMatchesFreshEngine) {
  for (int seed = 0; seed < kNumSeeds; ++seed) {
    Rng rng(kSeedBase + 600000 + static_cast<uint64_t>(seed));
    auto table = testing::RandomTable(&rng);
    const core::CandidateSet set =
        testing::RandomCandidateSet(*table, &rng);
    if (set.empty()) continue;
    std::vector<size_t> all(set.size());
    for (size_t i = 0; i < all.size(); ++i) all[i] = i;

    for (const size_t threads : kThreadCounts) {
      exec::EngineOptions options;
      options.num_threads = threads;
      const auto reference = exec::Engine(table, options).Execute(set, all);
      ASSERT_TRUE(reference.ok());

      exec::Engine engine(table, options);
      for (const char* phase : {"cold", "warm"}) {
        const auto replay = engine.Execute(set, all);
        ASSERT_TRUE(replay.ok());
        ASSERT_EQ(reference->values.size(), replay->values.size());
        for (size_t i = 0; i < reference->values.size(); ++i) {
          const std::string context =
              StrCat({"seed ", std::to_string(seed), " threads ",
                      std::to_string(threads), " ", phase, " candidate ",
                      std::to_string(i)});
          if (std::isnan(reference->values[i])) {
            EXPECT_TRUE(std::isnan(replay->values[i])) << context;
          } else {
            EXPECT_EQ(reference->values[i], replay->values[i]) << context;
          }
        }
      }
    }
  }
}

TEST_F(DifferentialTest, MuvePipelineCachedVsUncachedReplay) {
  // Scans are bitwise equal at every thread count, so the full pipeline
  // — plan structure, bar values, rendering — must be byte-identical
  // between the cached and uncached engines, cold and warm.
  viz::AsciiRenderOptions render_options;
  render_options.use_color = false;
  uint64_t plan_hits = 0;
  for (int seed = 0; seed < kNumSeeds; ++seed) {
    Rng rng(kSeedBase + 700000 + static_cast<uint64_t>(seed));
    testing::RandomTableOptions table_options;
    table_options.min_rows = 150;
    table_options.max_rows = 400;
    auto table = testing::RandomTable(&rng, table_options);
    db::AggregateQuery target = testing::RandomAggregateQuery(*table, &rng);
    if (target.predicates.empty()) {
      target.predicates.push_back(
          testing::RandomPredicate(*table, &rng, 0.0));
    }
    const std::string utterance = nlq::VerbalizeQuery(target);

    const size_t threads = kThreadCounts[seed % 3];
    MuveOptions cached_options;
    cached_options.execution.num_threads = threads;
    MuveOptions uncached_options = cached_options;
    uncached_options.cache_capacity = 0;
    MuveEngine cached(table, cached_options);
    MuveEngine uncached(table, uncached_options);

    for (const char* phase : {"cold", "warm"}) {
      const auto expected = uncached.Ask(Request::Text(utterance));
      const auto actual = cached.Ask(Request::Text(utterance));
      ASSERT_EQ(expected.ok(), actual.ok())
          << "seed " << seed << " " << phase << " \"" << utterance << "\"";
      if (!expected.ok()) break;
      const std::string context =
          StrCat({"seed ", std::to_string(seed), " ", phase, " threads ",
                  std::to_string(threads), " \"", utterance, "\""});
      EXPECT_EQ(expected->base_query.CanonicalKey(),
                actual->base_query.CanonicalKey())
          << context;
      EXPECT_EQ(expected->base_confidence, actual->base_confidence)
          << context;
      ASSERT_EQ(expected->candidates.size(), actual->candidates.size())
          << context;
      for (size_t i = 0; i < expected->candidates.size(); ++i) {
        EXPECT_EQ(expected->candidates[i].query.CanonicalKey(),
                  actual->candidates[i].query.CanonicalKey())
            << context << " candidate " << i;
        EXPECT_EQ(expected->candidates[i].probability,
                  actual->candidates[i].probability)
            << context << " candidate " << i;
      }
      EXPECT_EQ(PlanSignature(expected->plan.multiplot),
                PlanSignature(actual->plan.multiplot))
          << context;
      EXPECT_EQ(viz::RenderMultiplot(expected->plan.multiplot,
                                     render_options),
                viz::RenderMultiplot(actual->plan.multiplot,
                                     render_options))
          << context;
    }

    const PipelineCacheStats stats = cached.cache_stats();
    if (stats.plans.lookups() > 0) {
      // The uncached engine keeps its memo silent.
      const PipelineCacheStats off = uncached.cache_stats();
      EXPECT_EQ(off.plans.lookups(), 0u) << "seed " << seed;
      plan_hits += stats.plans.hits;
    }
  }
  // Warm replays hit the plan memo on at least some seeds — the suite
  // must not silently degenerate into translation failures.
  EXPECT_GT(plan_hits, 0u);
}

TEST_F(DifferentialTest, DeadlineRequestVsClassicPipeline) {
  // The serving API's deadline machinery must be invisible when time
  // never runs out. Three implementations of the same ask must agree
  // byte-for-byte at every thread count:
  //   - Ask with default controls (infinite deadline, cached engine);
  //   - Ask with a generous *finite* real-clock deadline — this takes
  //     every deadline-aware code path (stage budgets, grain-checked
  //     scans, protected-base unit scheduling, seeded ILP-free greedy)
  //     without any of them firing;
  //   - Ask with bypass_cache on the cached engine vs a cache-disabled
  //     engine (a bypass request must equal the uncached pipeline and
  //     leave the plan memo untouched).
  for (int seed = 0; seed < kNumSeeds; ++seed) {
    Rng rng(kSeedBase + 800000 + static_cast<uint64_t>(seed));
    testing::RandomTableOptions table_options;
    table_options.min_rows = 150;
    table_options.max_rows = 400;
    auto table = testing::RandomTable(&rng, table_options);
    db::AggregateQuery target = testing::RandomAggregateQuery(*table, &rng);
    if (target.predicates.empty()) {
      target.predicates.push_back(
          testing::RandomPredicate(*table, &rng, 0.0));
    }
    const std::string utterance = nlq::VerbalizeQuery(target);

    const size_t threads = kThreadCounts[seed % 3];
    MuveOptions options;
    options.execution.num_threads = threads;
    MuveOptions uncached_options = options;
    uncached_options.cache_capacity = 0;
    MuveEngine classic(table, options);
    MuveEngine bounded(table, options);
    MuveEngine uncached(table, uncached_options);

    for (const char* phase : {"cold", "warm"}) {
      const std::string context =
          StrCat({"seed ", std::to_string(seed), " ", phase, " threads ",
                  std::to_string(threads), " \"", utterance, "\""});
      const auto expected = classic.Ask(Request::Text(utterance));

      Request request = Request::Text(utterance);
      request.deadline = Deadline::AfterMillis(1e9);  // Never expires.
      const auto finite = bounded.Ask(request);

      Request bypass = Request::Text(utterance);
      bypass.bypass_cache = true;
      const auto bypassed = classic.Ask(bypass);
      const auto reference = uncached.Ask(Request::Text(utterance));

      ASSERT_EQ(expected.ok(), finite.ok()) << context;
      ASSERT_EQ(reference.ok(), bypassed.ok()) << context;
      if (!expected.ok()) break;

      const MuveEngine::Answer* comparisons[][2] = {
          {&*expected, &*finite}, {&*reference, &*bypassed}};
      for (const auto& pair : comparisons) {
        const MuveEngine::Answer& lhs = *pair[0];
        const MuveEngine::Answer& rhs = *pair[1];
        EXPECT_EQ(lhs.base_query.CanonicalKey(),
                  rhs.base_query.CanonicalKey())
            << context;
        EXPECT_EQ(lhs.base_confidence, rhs.base_confidence) << context;
        ASSERT_EQ(lhs.candidates.size(), rhs.candidates.size()) << context;
        for (size_t i = 0; i < lhs.candidates.size(); ++i) {
          EXPECT_EQ(lhs.candidates[i].query.CanonicalKey(),
                    rhs.candidates[i].query.CanonicalKey())
              << context << " candidate " << i;
          EXPECT_EQ(lhs.candidates[i].probability,
                    rhs.candidates[i].probability)
              << context << " candidate " << i;
        }
        EXPECT_EQ(PlanSignature(lhs.plan.multiplot),
                  PlanSignature(rhs.plan.multiplot))
            << context;
        ASSERT_EQ(lhs.execution.values.size(), rhs.execution.values.size())
            << context;
        for (size_t i = 0; i < lhs.execution.values.size(); ++i) {
          const bool both_nan = std::isnan(lhs.execution.values[i]) &&
                                std::isnan(rhs.execution.values[i]);
          EXPECT_TRUE(both_nan ||
                      lhs.execution.values[i] == rhs.execution.values[i])
              << context << " value " << i;
        }
      }
      // The generous finite deadline never actually degraded anything.
      EXPECT_FALSE(finite->degradation.degraded()) << context;
      EXPECT_EQ(finite->degradation.Describe(), "exact") << context;
    }
    // Bypass requests left the cache-disabled engine's memo silent and
    // never wrote through the classic engine's memo on their own.
    EXPECT_EQ(uncached.cache_stats().plans.lookups(), 0u)
        << "seed " << seed;
  }
}

/// Full byte-identity check between two answers (query keys,
/// probabilities, plan structure, executed values, rendered multiplot).
void ExpectAnswersIdentical(const MuveEngine::Answer& lhs,
                            const MuveEngine::Answer& rhs,
                            const std::string& context) {
  EXPECT_EQ(lhs.base_query.CanonicalKey(), rhs.base_query.CanonicalKey())
      << context;
  EXPECT_EQ(lhs.base_confidence, rhs.base_confidence) << context;
  ASSERT_EQ(lhs.candidates.size(), rhs.candidates.size()) << context;
  for (size_t i = 0; i < lhs.candidates.size(); ++i) {
    EXPECT_EQ(lhs.candidates[i].query.CanonicalKey(),
              rhs.candidates[i].query.CanonicalKey())
        << context << " candidate " << i;
    EXPECT_EQ(lhs.candidates[i].probability, rhs.candidates[i].probability)
        << context << " candidate " << i;
  }
  EXPECT_EQ(PlanSignature(lhs.plan.multiplot),
            PlanSignature(rhs.plan.multiplot))
      << context;
  ASSERT_EQ(lhs.execution.values.size(), rhs.execution.values.size())
      << context;
  for (size_t i = 0; i < lhs.execution.values.size(); ++i) {
    const bool both_nan = std::isnan(lhs.execution.values[i]) &&
                          std::isnan(rhs.execution.values[i]);
    EXPECT_TRUE(both_nan ||
                lhs.execution.values[i] == rhs.execution.values[i])
        << context << " value " << i;
  }
  viz::AsciiRenderOptions render_options;
  EXPECT_EQ(viz::RenderMultiplot(lhs.plan.multiplot, render_options),
            viz::RenderMultiplot(rhs.plan.multiplot, render_options))
      << context;
}

/// Canonical keys of an answer's candidates, in order.
std::vector<std::string> CandidateKeys(const MuveEngine::Answer& answer) {
  std::vector<std::string> keys;
  for (size_t i = 0; i < answer.candidates.size(); ++i) {
    keys.push_back(answer.candidates[i].query.CanonicalKey());
  }
  return keys;
}

TEST(PlanMemoTest, FrontHalfComputedBeforeAConcurrentSyncNeverReplays) {
  // Request B computes its front half against the old vocabulary. While
  // B plans, rows carrying a new value close to B's constant arrive and
  // request A, on the same engine, absorbs them. B then memoizes its
  // front half; a later ask of B's transcript must not replay it.
  Rng rng(4242);
  std::shared_ptr<db::Table> table = workload::Make311Table(2000, &rng);
  MuveOptions options;
  options.execution.num_threads = 1;
  MuveEngine engine(table, options);
  const std::string transcript = "how many complaints in brooklyn";

  bool interleaved = false;
  Request b = Request::Text(transcript);
  b.stage_observer = [&](Request::Stage stage) {
    if (stage != Request::Stage::kPlan || interleaved) return;
    interleaved = true;
    ASSERT_TRUE(table
                    ->AppendRow({db::Value(std::string("brooklen")),
                                 db::Value(std::string("noise")),
                                 db::Value(std::string("nypd")),
                                 db::Value(std::string("open")),
                                 db::Value(std::string("phone")),
                                 db::Value(2.5),
                                 db::Value(static_cast<int64_t>(61))})
                    .ok());
    ASSERT_TRUE(engine.Ask(Request::Text("how many complaints in queens"))
                    .ok());
  };
  const auto stale = engine.Ask(b);
  ASSERT_TRUE(stale.ok());
  ASSERT_TRUE(interleaved);

  const auto later = engine.Ask(Request::Text(transcript));
  MuveOptions fresh_options = options;
  fresh_options.cache_capacity = 0;
  const auto fresh =
      MuveEngine(table, fresh_options).Ask(Request::Text(transcript));
  ASSERT_TRUE(later.ok());
  ASSERT_TRUE(fresh.ok());
  // The new value changes B's candidates, so replaying B's front half
  // would be visible.
  EXPECT_NE(CandidateKeys(*stale), CandidateKeys(*fresh));
  ExpectAnswersIdentical(*fresh, *later, "later ask of B's transcript");
}

TEST_F(DifferentialTest, ServerDepthOneReplaysSequentialAsk) {
  // The serving front end must be a pure wrapper when stripped of all
  // concurrency: one worker, queue depth 1, infinite deadlines, requests
  // submitted one at a time. Replaying a workload through that server
  // must be byte-identical to calling MuveEngine::Ask directly on one
  // engine built with the server's own engine options — admission, EDF
  // queueing, single-flight, and session streams may add bookkeeping but
  // never change an answer.
  for (int seed = 0; seed < kNumSeeds; ++seed) {
    Rng rng(kSeedBase + 900000 + static_cast<uint64_t>(seed));
    testing::RandomTableOptions table_options;
    table_options.min_rows = 150;
    table_options.max_rows = 400;
    auto table = testing::RandomTable(&rng, table_options);

    // A short session-tagged workload with repeats (repeats replay the
    // plan memo, which must also behave identically both ways).
    std::vector<std::pair<std::string, std::string>> workload;
    for (int q = 0; q < 4; ++q) {
      db::AggregateQuery target =
          testing::RandomAggregateQuery(*table, &rng);
      if (target.predicates.empty()) {
        target.predicates.push_back(
            testing::RandomPredicate(*table, &rng, 0.0));
      }
      const std::string session = q % 2 == 0 ? "alice" : "bob";
      const std::string utterance = nlq::VerbalizeQuery(target);
      workload.emplace_back(session, utterance);
      workload.emplace_back(session, utterance);  // Warm replay.
    }

    serve::ServerOptions server_options;
    server_options.num_workers = 1;
    server_options.max_queue_depth = 1;
    serve::Server server(table, server_options);

    MuveEngine reference(table, server.options().engine);
    for (const auto& [session, utterance] : workload) {
      const auto expected = reference.Ask(Request::Text(utterance));
      const auto served =
          server.Ask(session, Request::Text(utterance));
      const std::string context =
          StrCat({"seed ", std::to_string(seed), " session ", session, " \"",
                  utterance, "\""});
      ASSERT_EQ(expected.ok(), served.ok()) << context;
      if (!expected.ok()) continue;
      ExpectAnswersIdentical(*expected, served->answer, context);
      EXPECT_FALSE(served->shared) << context;
      EXPECT_TRUE(served->deadline_met) << context;
    }
    const serve::ServerStats stats = server.stats();
    EXPECT_EQ(stats.shed_total(), 0u) << "seed " << seed;
    EXPECT_EQ(stats.failed + stats.completed, stats.admitted)
        << "seed " << seed;
  }
}

TEST_F(DifferentialTest, IdenticallySeededServersReplayVoiceIdentically) {
  // Voice noise is per-session pseudo-random, derived from the session
  // manager's base seed and the session id. Two identically configured
  // servers replaying the same sequential voice workload must therefore
  // produce byte-identical transcripts and answers — the property that
  // makes production incidents replayable offline.
  const int voice_seeds = std::max(1, kNumSeeds / 10);
  for (int seed = 0; seed < voice_seeds; ++seed) {
    Rng rng(kSeedBase + 950000 + static_cast<uint64_t>(seed));
    testing::RandomTableOptions table_options;
    table_options.min_rows = 150;
    table_options.max_rows = 400;
    auto table = testing::RandomTable(&rng, table_options);

    serve::ServerOptions server_options;
    server_options.num_workers = 1;
    server_options.max_queue_depth = 1;
    serve::Server first(table, server_options);
    serve::Server second(table, server_options);

    speech::SpeechNoiseOptions noise;
    noise.substitution_rate = 0.15;
    for (int q = 0; q < 6; ++q) {
      db::AggregateQuery target =
          testing::RandomAggregateQuery(*table, &rng);
      if (target.predicates.empty()) {
        target.predicates.push_back(
            testing::RandomPredicate(*table, &rng, 0.0));
      }
      const std::string session = q % 2 == 0 ? "alice" : "bob";
      const std::string utterance = nlq::VerbalizeQuery(target);
      const auto lhs =
          first.Ask(session, Request::Voice(utterance, nullptr, noise));
      const auto rhs =
          second.Ask(session, Request::Voice(utterance, nullptr, noise));
      const std::string context =
          StrCat({"seed ", std::to_string(seed), " session ", session, " \"",
                  utterance, "\""});
      ASSERT_EQ(lhs.ok(), rhs.ok()) << context;
      if (!lhs.ok()) continue;
      EXPECT_EQ(lhs->answer.transcript, rhs->answer.transcript) << context;
      ExpectAnswersIdentical(lhs->answer, rhs->answer, context);
    }
  }
}

}  // namespace
}  // namespace muve
