/// Fake-clock deadline-injection suite for the end-to-end serving
/// deadline (request -> stage budgets -> cooperative cancellation).
///
/// Every layer is exercised with an injected FakeClock so expiry is
/// exact and deterministic — no sleeps, no wall-clock flakiness:
///   - db::Executor: expired deadlines cancel serial and partitioned
///     scans with Status::Timeout; unexpired finite deadlines are
///     byte-identical to the unbounded scan.
///   - exec::Engine: non-base merge units are dropped on expiry while
///     the base candidate's unit always completes; infinite controls
///     reproduce the legacy path exactly.
///   - core::GreedyPlanner: anytime behavior — an expired deadline
///     returns the best-so-far (possibly empty) plan flagged timed_out.
///   - core::IlpPlanner: an expired deadline falls back to the greedy
///     warm-start incumbent instead of erroring.
///   - nlq::CandidateGenerator: expired budgets cap the expansion to the
///     base candidate.
///   - muve::MuveEngine: for each pipeline stage, forcing expiry at that
///     stage's entry degrades the answer to the expected ladder rung,
///     identically at 1, 2, and 8 threads.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "common/rng.h"
#include "common/strings.h"
#include "common/thread_pool.h"
#include "core/greedy_planner.h"
#include "core/ilp_planner.h"
#include "db/executor.h"
#include "exec/engine.h"
#include "muve/muve_engine.h"
#include "nlq/candidate_generator.h"
#include "shard/sharded_table.h"
#include "testing/sanitizer.h"
#include "workload/datasets.h"

namespace muve {
namespace {

std::shared_ptr<db::Table> Table311(size_t rows = 20000) {
  Rng rng(4242);
  return workload::Make311Table(rows, &rng);
}

db::AggregateQuery Query311(db::AggregateFunction fn,
                            const std::string& agg,
                            const std::string& column,
                            const std::string& value) {
  db::AggregateQuery query;
  query.table = "nyc311";
  query.function = fn;
  query.aggregate_column = agg;
  query.predicates = {db::Predicate::Equals(column, db::Value(value))};
  return query;
}

/// Candidates spanning several merge units: borough value variants merge
/// into one grouped unit (containing the base), the AVG and the
/// complaint-type candidates land in others.
core::CandidateSet MultiUnitCandidates() {
  core::CandidateSet set;
  set.Add(Query311(db::AggregateFunction::kCount, "", "borough",
                   "brooklyn"),
          0.4);
  set.Add(Query311(db::AggregateFunction::kCount, "", "borough", "bronx"),
          0.25);
  set.Add(Query311(db::AggregateFunction::kAvg, "open_hours", "borough",
                   "brooklyn"),
          0.2);
  set.Add(Query311(db::AggregateFunction::kCount, "", "complaint_type",
                   "noise"),
          0.15);
  return set;
}

/// Canonical structure string for exact plan comparison across thread
/// counts.
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

Deadline ExpiredDeadline(const FakeClock* clock) {
  return Deadline::AfterMillis(0.0, clock);
}

/// Clock that advances one fixed step on every read. Because the
/// executor reads the clock exactly once per cancellation point (one
/// `AfterMillis` at deadline construction, then one `Expired()` per
/// partition grain), a budget of k + 0.5 steps expires on the (k+1)-th
/// grain check — making "cancelled mid-scan after exactly k grains" a
/// deterministic property of the check cadence, independent of machine
/// speed. Thread-safe: parallel workers each consume distinct reads.
class SteppingClock : public ClockSource {
 public:
  explicit SteppingClock(double step_millis = 1.0) : step_(step_millis) {}

  double NowMillis() const override {
    return step_ * static_cast<double>(
                       reads_.fetch_add(1, std::memory_order_relaxed) + 1);
  }

 private:
  const double step_;
  mutable std::atomic<uint64_t> reads_{0};
};

// ---------------------------------------------------------------------
// db::Executor cooperative cancellation.
// ---------------------------------------------------------------------

TEST(DeadlineExecutorTest, ExpiredDeadlineCancelsSerialScan) {
  auto table = Table311(5000);
  FakeClock clock;
  db::ExecutorOptions options;
  options.deadline = ExpiredDeadline(&clock);
  const auto result = db::Executor::Execute(
      *table,
      Query311(db::AggregateFunction::kCount, "", "borough", "brooklyn"),
      options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kTimeout);
}

TEST(DeadlineExecutorTest, ExpiredDeadlineCancelsParallelScan) {
  auto table = Table311(5000);
  ThreadPool pool(4);
  FakeClock clock;
  db::ExecutorOptions options;
  options.pool = &pool;
  options.parallel_grain = 256;
  options.deadline = ExpiredDeadline(&clock);
  const auto result = db::Executor::Execute(
      *table,
      Query311(db::AggregateFunction::kCount, "", "borough", "brooklyn"),
      options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kTimeout);
}

TEST(DeadlineExecutorTest, ExpiredDeadlineCancelsGroupedScan) {
  auto table = Table311(5000);
  db::GroupByQuery query;
  query.table = "nyc311";
  query.group_column = "borough";
  query.group_values = {"brooklyn", "bronx"};
  query.aggregates = {{db::AggregateFunction::kCount, ""}};
  FakeClock clock;
  for (const bool parallel : {false, true}) {
    ThreadPool pool(4);
    db::ExecutorOptions options;
    if (parallel) {
      options.pool = &pool;
      options.parallel_grain = 256;
    }
    options.deadline = ExpiredDeadline(&clock);
    const auto result = db::Executor::ExecuteGrouped(*table, query, options);
    ASSERT_FALSE(result.ok()) << (parallel ? "parallel" : "serial");
    EXPECT_EQ(result.status().code(), StatusCode::kTimeout)
        << (parallel ? "parallel" : "serial");
  }
}

TEST(DeadlineExecutorTest, UnexpiredFiniteDeadlineMatchesUnbounded) {
  auto table = Table311(5000);
  const db::AggregateQuery query = Query311(
      db::AggregateFunction::kAvg, "open_hours", "borough", "brooklyn");
  FakeClock clock;  // Frozen: a finite budget never expires mid-scan.
  for (const bool parallel : {false, true}) {
    ThreadPool pool(4);
    db::ExecutorOptions unbounded;
    db::ExecutorOptions bounded;
    bounded.deadline = Deadline::AfterMillis(10.0, &clock);
    if (parallel) {
      for (db::ExecutorOptions* options : {&unbounded, &bounded}) {
        options->pool = &pool;
        options->parallel_grain = 256;
      }
    }
    const auto expected = db::Executor::Execute(*table, query, unbounded);
    const auto actual = db::Executor::Execute(*table, query, bounded);
    ASSERT_TRUE(expected.ok());
    ASSERT_TRUE(actual.ok());
    EXPECT_EQ(expected->value, actual->value);
    EXPECT_EQ(expected->rows_matched, actual->rows_matched);
    EXPECT_EQ(expected->empty_input, actual->empty_input);
  }
}

// The batch path checks the deadline exactly once per slice, batches
// tiling each slice from its start. A SteppingClock whose budget covers
// 2.5 checks therefore cancels the inline scan at the start of the third
// slice — proving batching neither skips nor adds cancellation points.
TEST(DeadlineExecutorTest, BatchPathCancelsMidScanAtSliceStart) {
  auto table = Table311(5000);
  const db::AggregateQuery query = Query311(
      db::AggregateFunction::kCount, "", "borough", "brooklyn");
  SteppingClock clock;
  db::ExecutorOptions options;
  options.parallel_grain = 256;
  // Read 1 anchors the deadline; reads 2 and 3 (slice checks at rows 0
  // and 256) pass; read 4 (row 512) expires.
  options.deadline = Deadline::AfterMillis(2.5, &clock);
  const auto result = db::Executor::Execute(*table, query, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kTimeout);
  EXPECT_EQ(result.status().message(),
            "aggregate scan cancelled at row 512/5000");
}

TEST(DeadlineExecutorTest, BatchPathCancelsMidScanParallel) {
  auto table = Table311(5000);
  ThreadPool pool(4);
  SteppingClock clock;
  db::ExecutorOptions options;
  options.pool = &pool;
  options.parallel_grain = 256;  // 20 chunks; only 10 checks can pass.
  options.deadline = Deadline::AfterMillis(10.5, &clock);
  const auto result = db::Executor::Execute(
      *table,
      Query311(db::AggregateFunction::kCount, "", "borough", "brooklyn"),
      options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kTimeout);
  EXPECT_EQ(result.status().message(),
            "parallel aggregate scan cancelled (5000 rows)");
}

TEST(DeadlineExecutorTest, BatchPathCancelsGroupedScanMidScan) {
  auto table = Table311(5000);
  db::GroupByQuery query;
  query.table = "nyc311";
  query.group_column = "borough";
  query.group_values = {"brooklyn", "bronx"};
  query.aggregates = {{db::AggregateFunction::kCount, ""},
                      {db::AggregateFunction::kAvg, "open_hours"}};
  {
    SteppingClock clock;
    db::ExecutorOptions options;
    options.parallel_grain = 256;
    options.deadline = Deadline::AfterMillis(2.5, &clock);
    const auto result = db::Executor::ExecuteGrouped(*table, query, options);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kTimeout);
    EXPECT_EQ(result.status().message(),
              "grouped scan cancelled at row 512/5000");
  }
  {
    ThreadPool pool(4);
    SteppingClock clock;
    db::ExecutorOptions options;
    options.pool = &pool;
    options.parallel_grain = 256;
    options.deadline = Deadline::AfterMillis(10.5, &clock);
    const auto result = db::Executor::ExecuteGrouped(*table, query, options);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kTimeout);
    EXPECT_EQ(result.status().message(),
              "parallel grouped scan cancelled (5000 rows)");
  }
}

// A timeout racing storage reorganization: the scan times out against a
// snapshot while the table flushes and keeps ingesting. Nothing of the
// cancelled scan leaks into later ones: the snapshot still scans to its
// own version and the live table sees exactly the appended rows.
TEST(DeadlineExecutorTest, TimeoutRacingAFlushLeavesLaterScansExact) {
  auto table = Table311(5000);
  const db::AggregateQuery query = Query311(
      db::AggregateFunction::kCount, "", "borough", "brooklyn");

  const db::TableSnapshot snapshot = table->Snapshot();
  SteppingClock clock;
  db::ExecutorOptions bounded;
  bounded.parallel_grain = 256;
  bounded.deadline = Deadline::AfterMillis(2.5, &clock);
  const auto timed_out = db::Executor::Execute(snapshot, query, bounded);
  ASSERT_FALSE(timed_out.ok());
  EXPECT_EQ(timed_out.status().code(), StatusCode::kTimeout);

  // The writer proceeds: the open rows are sealed into a run and more
  // rows stream in.
  table->Flush();
  for (size_t r = 0; r < 32; ++r) {
    ASSERT_TRUE(table
                    ->AppendRow({db::Value("brooklyn"), db::Value("noise"),
                                 db::Value("nypd"), db::Value("open"),
                                 db::Value("phone"), db::Value(1.0),
                                 db::Value(int64_t{1})})
                    .ok());
  }
  const auto pinned = db::Executor::Execute(snapshot, query);
  const auto live = db::Executor::Execute(*table, query);
  ASSERT_TRUE(pinned.ok() && live.ok());
  EXPECT_EQ(live->value, pinned->value + 32.0);
}

// A snapshot pinned before its table is destroyed still serves
// deadline-bounded scans: a generous budget completes with correct
// values, an expired one cancels cleanly — and neither path touches
// freed storage.
TEST(DeadlineExecutorTest, SnapshotOutlivesTableUnderDeadline) {
  db::TableSnapshot survivor;
  double expected = 0.0;
  {
    auto table = Table311(3000);
    table->Flush();
    survivor = table->Snapshot();
    const auto reference = db::Executor::Execute(
        *table,
        Query311(db::AggregateFunction::kCount, "", "borough", "brooklyn"));
    ASSERT_TRUE(reference.ok());
    expected = reference->value;
    // `table` dies here; the snapshot holds the last pin.
  }
  ASSERT_TRUE(survivor.valid());

  SteppingClock clock;
  db::ExecutorOptions bounded;
  bounded.parallel_grain = 256;
  bounded.deadline = Deadline::AfterMillis(1000.0, &clock);
  const auto result = db::Executor::Execute(
      survivor,
      Query311(db::AggregateFunction::kCount, "", "borough", "brooklyn"),
      bounded);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->value, expected);

  SteppingClock expired_clock;
  db::ExecutorOptions expiring = bounded;
  expiring.deadline = Deadline::AfterMillis(0.5, &expired_clock);
  const auto cancelled = db::Executor::Execute(
      survivor,
      Query311(db::AggregateFunction::kAvg, "open_hours", "borough",
               "bronx"),
      expiring);
  ASSERT_FALSE(cancelled.ok());
  EXPECT_EQ(cancelled.status().code(), StatusCode::kTimeout);
}

// ---------------------------------------------------------------------
// exec::Engine unit dropping.
// ---------------------------------------------------------------------

TEST(DeadlineEngineTest, ExpiredDeadlineDropsOnlyNonBaseUnits) {
  for (const size_t threads : {size_t{1}, size_t{4}}) {
    exec::EngineOptions options;
    options.num_threads = threads;
    exec::Engine engine(Table311(), options);
    const core::CandidateSet set = MultiUnitCandidates();
    const std::vector<size_t> subset = {0, 1, 2, 3};

    FakeClock clock;
    exec::ExecControls controls;
    controls.deadline = ExpiredDeadline(&clock);
    auto bounded = engine.Execute(set, subset, controls);
    ASSERT_TRUE(bounded.ok()) << "threads " << threads;
    EXPECT_TRUE(bounded->deadline_hit) << "threads " << threads;
    EXPECT_GE(bounded->units_dropped, 1u) << "threads " << threads;
    // The base candidate's unit is protected: its value (and those of
    // any candidate merged into the same unit) materialized anyway.
    EXPECT_FALSE(std::isnan(bounded->values[0])) << "threads " << threads;
    // Dropped units leave their candidates NaN.
    size_t executed = 0;
    for (const size_t i : subset) {
      if (!std::isnan(bounded->values[i])) ++executed;
    }
    EXPECT_LT(executed, subset.size()) << "threads " << threads;

    // Whatever did execute matches the unbounded run bitwise.
    auto unbounded = engine.Execute(set, subset);
    ASSERT_TRUE(unbounded.ok());
    for (const size_t i : subset) {
      if (std::isnan(bounded->values[i])) continue;
      EXPECT_EQ(bounded->values[i], unbounded->values[i])
          << "threads " << threads << " candidate " << i;
    }
  }
}

TEST(DeadlineEngineTest, InfiniteControlsMatchLegacyExecution) {
  // Every Execute takes one unit loop: infinite controls and a finite
  // deadline that never expires must answer as the legacy overload does,
  // over the table and over a 3-shard copy of it. The 3-shard engine is
  // its own reference: AVG over these continuous doubles regroups its
  // additions per shard, so only a given layout is bit-stable (the
  // cross-layout check runs on dyadic data in shard_test).
  const std::shared_ptr<db::Table> table = Table311();
  shard::ShardedTableOptions shard_options;
  shard_options.num_shards = 3;
  auto sharded = shard::ShardedTable::FromTable(*table, shard_options);
  ASSERT_TRUE(sharded.ok());
  const std::pair<const char*, std::shared_ptr<const db::Relation>>
      relations[] = {{"table", table}, {"3-shard", *sharded}};
  exec::ExecControls far_future;
  far_future.deadline = Deadline::AfterMillis(3.6e6);
  const core::CandidateSet set = MultiUnitCandidates();
  const std::vector<size_t> subset = {0, 1, 2, 3};
  for (const auto& [relation_name, relation] : relations) {
    for (const size_t threads : {size_t{1}, size_t{4}}) {
      exec::EngineOptions options;
      options.num_threads = threads;
      exec::Engine engine(relation, options);
      auto legacy = engine.Execute(set, subset);
      ASSERT_TRUE(legacy.ok());
      for (const exec::ExecControls& controls :
           {exec::ExecControls{}, far_future}) {
        const std::string context =
            std::string(relation_name) + " threads " +
            std::to_string(threads) +
            (controls.deadline.IsFinite() ? " far-future" : " infinite");
        auto controlled = engine.Execute(set, subset, controls);
        ASSERT_TRUE(controlled.ok()) << context;
        ASSERT_EQ(legacy->values.size(), controlled->values.size());
        for (size_t i = 0; i < legacy->values.size(); ++i) {
          const bool both_nan = std::isnan(legacy->values[i]) &&
                                std::isnan(controlled->values[i]);
          EXPECT_TRUE(both_nan ||
                      legacy->values[i] == controlled->values[i])
              << context << " candidate " << i;
        }
        EXPECT_EQ(legacy->queries_issued, controlled->queries_issued)
            << context;
        EXPECT_FALSE(controlled->deadline_hit) << context;
        EXPECT_EQ(controlled->units_dropped, 0u) << context;
      }
    }
  }
}

TEST(DeadlineEngineTest, MultiplotPruningRemovesNaNBars) {
  exec::Engine engine(Table311());
  const core::CandidateSet set = MultiUnitCandidates();

  // One single-bar plot per candidate: each dropped unit leaves a plot
  // empty, so pruning must remove both the bar and its plot.
  core::Multiplot multiplot;
  multiplot.rows.resize(1);
  for (size_t i = 0; i < set.size(); ++i) {
    core::Plot plot;
    plot.query_template.key = StrCat({"t", std::to_string(i)});
    core::PlotBar bar;
    bar.candidate_index = i;
    bar.highlighted = true;
    plot.bars.push_back(bar);
    multiplot.rows[0].push_back(std::move(plot));
  }

  FakeClock clock;
  exec::ExecControls controls;
  controls.deadline = ExpiredDeadline(&clock);
  auto execution = engine.ExecuteMultiplot(set, &multiplot, controls);
  ASSERT_TRUE(execution.ok());
  EXPECT_TRUE(execution->deadline_hit);
  EXPECT_GE(execution->bars_dropped, 1u);
  EXPECT_EQ(execution->bars_dropped, execution->plots_dropped);
  // Everything still shown carries an executed value; the base bar is
  // among the survivors.
  bool base_shown = false;
  multiplot.ForEachPlot([&](const core::Plot& plot) {
    for (const core::PlotBar& bar : plot.bars) {
      EXPECT_FALSE(std::isnan(bar.value));
      base_shown |= bar.candidate_index == 0;
    }
  });
  EXPECT_TRUE(base_shown);
}

// ---------------------------------------------------------------------
// Planners.
// ---------------------------------------------------------------------

TEST(DeadlineGreedyTest, ExpiredDeadlineReturnsTimedOutPlan) {
  const core::GreedyPlanner planner;
  FakeClock clock;
  core::PlannerConfig config;
  config.deadline = ExpiredDeadline(&clock);
  auto plan = planner.Plan(MultiUnitCandidates(), config);
  ASSERT_TRUE(plan.ok());
  EXPECT_TRUE(plan->timed_out);
  // Expiry before the first step: nothing was selected yet.
  EXPECT_TRUE(plan->multiplot.empty());
}

TEST(DeadlineGreedyTest, UnexpiredFiniteDeadlineMatchesInfinite) {
  const core::GreedyPlanner planner;
  const core::CandidateSet set = MultiUnitCandidates();
  core::PlannerConfig unbounded;
  auto expected = planner.Plan(set, unbounded);
  ASSERT_TRUE(expected.ok());
  EXPECT_FALSE(expected->timed_out);

  FakeClock clock;  // Frozen: the budget cannot run out mid-plan.
  core::PlannerConfig bounded;
  bounded.deadline = Deadline::AfterMillis(10.0, &clock);
  auto actual = planner.Plan(set, bounded);
  ASSERT_TRUE(actual.ok());
  EXPECT_FALSE(actual->timed_out);
  EXPECT_EQ(PlanSignature(expected->multiplot),
            PlanSignature(actual->multiplot));
  EXPECT_EQ(expected->expected_cost, actual->expected_cost);
}

TEST(DeadlineIlpTest, ExpiredDeadlineFallsBackToWarmStartHint) {
  const core::CandidateSet set = MultiUnitCandidates();
  const core::GreedyPlanner greedy;
  core::PlannerConfig greedy_config;
  auto incumbent = greedy.Plan(set, greedy_config);
  ASSERT_TRUE(incumbent.ok());
  ASSERT_FALSE(incumbent->multiplot.empty());

  const core::IlpPlanner ilp;
  FakeClock clock;
  core::PlannerConfig config;
  config.deadline = ExpiredDeadline(&clock);
  auto plan = ilp.PlanWithHint(set, config, &incumbent->multiplot);
  ASSERT_TRUE(plan.ok());
  EXPECT_TRUE(plan->timed_out);
  // The solver had no time to improve on the seed: greedy quality, not
  // an empty screen.
  EXPECT_EQ(PlanSignature(plan->multiplot),
            PlanSignature(incumbent->multiplot));
}

// ---------------------------------------------------------------------
// Candidate generation.
// ---------------------------------------------------------------------

TEST(DeadlineGeneratorTest, ExpiredDeadlineCapsToBase) {
  auto table = Table311(2000);
  auto index = std::make_shared<nlq::SchemaIndex>(table);
  nlq::CandidateGenerator generator(index);

  const db::AggregateQuery base = Query311(
      db::AggregateFunction::kCount, "", "borough", "brooklyn");

  FakeClock clock;
  nlq::CandidateGenerator::GenerationConstraints constraints;
  constraints.deadline = ExpiredDeadline(&clock);
  bool capped = false;
  const core::CandidateSet degraded =
      generator.Generate(base, 1.0, {}, constraints, &capped);
  EXPECT_TRUE(capped);
  ASSERT_EQ(degraded.size(), 1u);
  EXPECT_EQ(degraded[0].query.CanonicalKey(), base.CanonicalKey());
  EXPECT_DOUBLE_EQ(degraded[0].probability, 1.0);
}

TEST(DeadlineGeneratorTest, UnexpiredFiniteDeadlineMatchesUnbounded) {
  auto table = Table311(2000);
  auto index = std::make_shared<nlq::SchemaIndex>(table);
  nlq::CandidateGenerator generator(index);
  const db::AggregateQuery base = Query311(
      db::AggregateFunction::kCount, "", "borough", "brooklyn");
  const core::CandidateSet expected = generator.Generate(base, 1.0, {});

  FakeClock clock;
  nlq::CandidateGenerator::GenerationConstraints constraints;
  constraints.deadline = Deadline::AfterMillis(10.0, &clock);
  bool capped = true;
  const core::CandidateSet actual =
      generator.Generate(base, 1.0, {}, constraints, &capped);
  EXPECT_FALSE(capped);
  ASSERT_EQ(expected.size(), actual.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(expected[i].query.CanonicalKey(),
              actual[i].query.CanonicalKey());
    EXPECT_EQ(expected[i].probability, actual[i].probability);
  }
}

// ---------------------------------------------------------------------
// Translation (the ladder's irreducible floor).
// ---------------------------------------------------------------------

TEST(DeadlineTranslatorTest, RecordsOverrunButStillTranslates) {
  auto table = Table311(2000);
  auto index = std::make_shared<nlq::SchemaIndex>(table);
  const nlq::Translator translator(index);
  FakeClock clock;
  bool overrun = false;
  auto bounded = translator.Translate("how many complaints in brooklyn",
                                      ExpiredDeadline(&clock), &overrun);
  ASSERT_TRUE(bounded.ok());
  EXPECT_TRUE(overrun);
  auto unbounded =
      translator.Translate("how many complaints in brooklyn");
  ASSERT_TRUE(unbounded.ok());
  EXPECT_EQ(bounded->query.CanonicalKey(), unbounded->query.CanonicalKey());
  EXPECT_EQ(bounded->confidence, unbounded->confidence);

  overrun = true;
  auto relaxed = translator.Translate("how many complaints in brooklyn",
                                      Deadline::AfterMillis(10.0, &clock),
                                      &overrun);
  ASSERT_TRUE(relaxed.ok());
  EXPECT_FALSE(overrun);
}

// ---------------------------------------------------------------------
// MuveEngine: per-stage expiry matrix.
// ---------------------------------------------------------------------

struct StageOutcome {
  std::string plan_signature;
  std::vector<double> shown_values;
  Degradation::Rung rung = Degradation::Rung::kExact;
};

/// Runs one request whose FakeClock jumps past the deadline at entry of
/// `expire_at`, and returns the (deterministic) outcome.
StageOutcome RunStageExpiry(size_t threads, Request::Stage expire_at) {
  MuveOptions options;
  options.execution.num_threads = threads;
  MuveEngine engine(Table311(10000), options);

  FakeClock clock;
  Request request = Request::Text("how many complaints in brooklyn");
  request.deadline = Deadline::AfterMillis(10.0, &clock);
  request.stage_observer = [&clock, expire_at](Request::Stage stage) {
    if (stage == expire_at) clock.AdvanceMillis(1000.0);
  };
  auto answer = engine.Ask(request);
  EXPECT_TRUE(answer.ok()) << "threads " << threads;
  StageOutcome outcome;
  if (!answer.ok()) return outcome;

  // Expiry anywhere in the pipeline must flag the answer degraded...
  EXPECT_TRUE(answer->degradation.degraded()) << "threads " << threads;
  outcome.rung = answer->degradation.rung;
  // ...while the base interpretation still reaches the screen with an
  // executed value (the bottom of the ladder is never empty).
  const auto location = answer->plan.multiplot.FindCandidate(0);
  EXPECT_TRUE(location.has_value()) << "threads " << threads;
  answer->plan.multiplot.ForEachPlot([&](const core::Plot& plot) {
    for (const core::PlotBar& bar : plot.bars) {
      EXPECT_FALSE(std::isnan(bar.value)) << "threads " << threads;
      outcome.shown_values.push_back(bar.value);
    }
  });
  outcome.plan_signature = PlanSignature(answer->plan.multiplot);

  switch (expire_at) {
    case Request::Stage::kTranslate:
    case Request::Stage::kGenerate:
    case Request::Stage::kPlan:
      // Planning had no budget left: base-query-only fallback plot.
      EXPECT_TRUE(answer->degradation.base_only_fallback)
          << "threads " << threads;
      EXPECT_EQ(outcome.rung, Degradation::Rung::kBaseOnly)
          << "threads " << threads;
      break;
    case Request::Stage::kExecute:
      // The front half ran in full; execution dropped non-base units.
      EXPECT_FALSE(answer->degradation.base_only_fallback)
          << "threads " << threads;
      EXPECT_TRUE(answer->execution.deadline_hit) << "threads " << threads;
      EXPECT_GE(answer->degradation.units_dropped, 1u)
          << "threads " << threads;
      EXPECT_EQ(outcome.rung, Degradation::Rung::kBaseOnly)
          << "threads " << threads;
      break;
    case Request::Stage::kAsr:
      break;
  }
  if (expire_at == Request::Stage::kGenerate) {
    EXPECT_TRUE(answer->degradation.candidates_capped)
        << "threads " << threads;
  }
  return outcome;
}

TEST(DeadlineMuveTest, StageExpiryDegradesDeterministicallyAcrossThreads) {
  const Request::Stage stages[] = {
      Request::Stage::kTranslate, Request::Stage::kGenerate,
      Request::Stage::kPlan, Request::Stage::kExecute};
  for (const Request::Stage stage : stages) {
    const StageOutcome reference = RunStageExpiry(1, stage);
    for (const size_t threads : {size_t{2}, size_t{8}}) {
      const StageOutcome outcome = RunStageExpiry(threads, stage);
      EXPECT_EQ(reference.plan_signature, outcome.plan_signature)
          << "stage " << static_cast<int>(stage) << " threads " << threads;
      EXPECT_EQ(reference.shown_values, outcome.shown_values)
          << "stage " << static_cast<int>(stage) << " threads " << threads;
      EXPECT_EQ(reference.rung, outcome.rung)
          << "stage " << static_cast<int>(stage) << " threads " << threads;
    }
  }
}

TEST(DeadlineMuveTest, DegradedRequestsNeverPoisonSessionCaches) {
  MuveOptions options;
  MuveEngine engine(Table311(10000), options);
  FakeClock clock;

  Request degraded = Request::Text("how many complaints in brooklyn");
  degraded.deadline = Deadline::AfterMillis(10.0, &clock);
  degraded.stage_observer = [&clock](Request::Stage stage) {
    if (stage == Request::Stage::kGenerate) clock.AdvanceMillis(1000.0);
  };
  auto first = engine.Ask(degraded);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(first->degradation.degraded());

  // The follow-up unconstrained request recomputes the full pipeline —
  // no memo hit, no capped candidate set replay.
  auto second = engine.Ask(Request::Text("how many complaints in brooklyn"));
  ASSERT_TRUE(second.ok());
  EXPECT_FALSE(second->degradation.degraded());
  EXPECT_EQ(engine.cache_stats().plans.hits, 0u);
  EXPECT_GT(second->candidates.size(), first->candidates.size());

  // The clean run memoizes; a third request replays it.
  auto third = engine.Ask(Request::Text("how many complaints in brooklyn"));
  ASSERT_TRUE(third.ok());
  EXPECT_EQ(engine.cache_stats().plans.hits, 1u);
}

TEST(DeadlineMuveTest, IlpTimeoutUnderFiniteDeadlineDegradesPlan) {
  if (testing::kSanitizerBuild) {
    GTEST_SKIP() << "wall-clock solver budget is meaningless under the "
                    "~10x sanitizer slowdown";
  }
  // A real-clock request deadline far in the future keeps every stage
  // intact, while the tiny ILP budget forces the solver to fall back to
  // its greedy incumbent: the middle rung of the ladder.
  MuveOptions options;
  options.use_ilp = true;
  options.planner.timeout_ms = 0.05;
  options.generation.max_candidates = 12;
  MuveEngine engine(Table311(10000), options);
  Request request = Request::Text("how many complaints in brooklyn");
  request.deadline = Deadline::AfterMillis(1e9);
  auto answer = engine.Ask(request);
  ASSERT_TRUE(answer.ok());
  EXPECT_TRUE(answer->degradation.ilp_fell_back);
  EXPECT_FALSE(answer->degradation.base_only_fallback);
  EXPECT_EQ(answer->degradation.rung, Degradation::Rung::kDegradedPlan);
  EXPECT_FALSE(answer->plan.multiplot.empty());
  EXPECT_TRUE(
      answer->plan.multiplot.Validate(options.planner.geometry).ok());
  // Execution was unconstrained: every shown bar has a value.
  answer->plan.multiplot.ForEachPlot([](const core::Plot& plot) {
    for (const core::PlotBar& bar : plot.bars) {
      EXPECT_FALSE(std::isnan(bar.value));
    }
  });
  EXPECT_EQ(answer->degradation.Describe(),
            "degraded-plan [ilp-fell-back]");
}

}  // namespace
}  // namespace muve
