/// Component microbenchmarks (google-benchmark): phonetic encoding and
/// lookup, scan/aggregate throughput, merging, planning, and the LP/MIP
/// solver — the building blocks behind the figure-level experiments.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/clock.h"
#include "common/rng.h"
#include "common/strings.h"
#include "common/thread_pool.h"
#include "core/greedy_planner.h"
#include "core/ilp_planner.h"
#include "core/query_template.h"
#include "db/executor.h"
#include "exec/engine.h"
#include "exec/merger.h"
#include "ilp/simplex.h"
#include "ilp/solver.h"
#include "muve/muve_engine.h"
#include "nlq/candidate_generator.h"
#include "nlq/schema_index.h"
#include "nlq/translator.h"
#include "phonetics/double_metaphone.h"
#include "phonetics/phonetic_index.h"
#include "phonetics/similarity.h"
#include "speech/speech_simulator.h"
#include "tests/testing/reference_executor.h"
#include "workload/datasets.h"
#include "workload/query_generator.h"

namespace muve {
namespace {

// Shared fixtures (constructed once).
std::shared_ptr<db::Table> Flights(size_t rows) {
  static std::map<size_t, std::shared_ptr<db::Table>> cache;
  auto it = cache.find(rows);
  if (it != cache.end()) return it->second;
  Rng rng(1);
  auto table = workload::MakeFlightsTable(rows, &rng);
  cache[rows] = table;
  return table;
}

core::CandidateSet Candidates(size_t n) {
  static std::map<size_t, core::CandidateSet> cache;
  auto it = cache.find(n);
  if (it != cache.end()) return it->second;
  auto table = Flights(2000);
  auto index = std::make_shared<nlq::SchemaIndex>(table);
  nlq::CandidateGenerator generator(index);
  db::AggregateQuery base;
  base.table = "flights";
  base.function = db::AggregateFunction::kAvg;
  base.aggregate_column = "arr_delay";
  base.predicates = {db::Predicate::Equals("origin", db::Value("boston"))};
  nlq::CandidateGeneratorOptions options;
  options.max_candidates = n;
  cache[n] = generator.Generate(base, 1.0, options);
  return cache[n];
}

void BM_DoubleMetaphoneEncode(benchmark::State& state) {
  const phonetics::DoubleMetaphone encoder;
  const char* words[] = {"brooklyn", "massachusetts", "quincy",
                         "schenectady", "phoenix"};
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(encoder.Encode(words[i++ % 5]));
  }
}
BENCHMARK(BM_DoubleMetaphoneEncode);

void BM_JaroWinkler(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        phonetics::JaroWinklerSimilarity("brooklyn", "brookline"));
  }
}
BENCHMARK(BM_JaroWinkler);

void BM_PhoneticIndexTopK(benchmark::State& state) {
  phonetics::PhoneticIndex index;
  auto table = Flights(5000);
  for (const std::string& entry : workload::BuildVocabulary(*table)) {
    index.Add(entry);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(index.TopK("boston", 20));
  }
}
BENCHMARK(BM_PhoneticIndexTopK);

void BM_ScanAggregate(benchmark::State& state) {
  auto table = Flights(static_cast<size_t>(state.range(0)));
  db::AggregateQuery query;
  query.table = "flights";
  query.function = db::AggregateFunction::kAvg;
  query.aggregate_column = "arr_delay";
  query.predicates = {db::Predicate::Equals("origin", db::Value("boston"))};
  for (auto _ : state) {
    benchmark::DoNotOptimize(db::Executor::Execute(*table, query));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ScanAggregate)->Arg(10000)->Arg(100000)->Arg(1000000);

void BM_GroupedScan(benchmark::State& state) {
  auto table = Flights(static_cast<size_t>(state.range(0)));
  db::GroupByQuery query;
  query.table = "flights";
  query.group_column = "origin";
  query.group_values = table->StringValues("origin");
  query.aggregates = {{db::AggregateFunction::kCount, ""},
                      {db::AggregateFunction::kAvg, "arr_delay"}};
  for (auto _ : state) {
    benchmark::DoNotOptimize(db::Executor::ExecuteGrouped(*table, query));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_GroupedScan)->Arg(100000)->Arg(1000000);

/// Serial vs. parallel scans at fixed table size: range(0) is the row
/// count, range(1) the thread count (1 = serial executor path). On a
/// multicore machine the 1M-row scan should speed up ~linearly to the
/// physical core count; thread count 1 must match BM_ScanAggregate.
void BM_ScanAggregateParallel(benchmark::State& state) {
  auto table = Flights(static_cast<size_t>(state.range(0)));
  const size_t threads = static_cast<size_t>(state.range(1));
  std::unique_ptr<ThreadPool> pool;
  db::ExecutorOptions options;
  if (threads >= 2) {
    pool = std::make_unique<ThreadPool>(threads);
    options.pool = pool.get();
  }
  db::AggregateQuery query;
  query.table = "flights";
  query.function = db::AggregateFunction::kAvg;
  query.aggregate_column = "arr_delay";
  query.predicates = {db::Predicate::Equals("origin", db::Value("boston"))};
  for (auto _ : state) {
    benchmark::DoNotOptimize(db::Executor::Execute(*table, query, options));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ScanAggregateParallel)
    ->Args({1000000, 1})
    ->Args({1000000, 2})
    ->Args({1000000, 4})
    ->Args({1000000, 8});

void BM_GroupedScanParallel(benchmark::State& state) {
  auto table = Flights(static_cast<size_t>(state.range(0)));
  const size_t threads = static_cast<size_t>(state.range(1));
  std::unique_ptr<ThreadPool> pool;
  db::ExecutorOptions options;
  if (threads >= 2) {
    pool = std::make_unique<ThreadPool>(threads);
    options.pool = pool.get();
  }
  db::GroupByQuery query;
  query.table = "flights";
  query.group_column = "origin";
  query.group_values = table->StringValues("origin");
  query.aggregates = {{db::AggregateFunction::kCount, ""},
                      {db::AggregateFunction::kAvg, "arr_delay"}};
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        db::Executor::ExecuteGrouped(*table, query, options));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_GroupedScanParallel)
    ->Args({1000000, 1})
    ->Args({1000000, 2})
    ->Args({1000000, 4})
    ->Args({1000000, 8});

/// End-to-end engine execution of a mergeable candidate batch, serial vs.
/// parallel merge units (num_threads = 1 vs. pool sizes).
void BM_EngineExecuteParallel(benchmark::State& state) {
  auto table = Flights(static_cast<size_t>(state.range(0)));
  exec::EngineOptions options;
  options.num_threads = static_cast<size_t>(state.range(1));
  exec::Engine engine(table, options);
  core::CandidateSet set = Candidates(20);
  std::vector<size_t> all(set.size());
  for (size_t i = 0; i < all.size(); ++i) all[i] = i;
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.Execute(set, all));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EngineExecuteParallel)
    ->Args({1000000, 1})
    ->Args({1000000, 2})
    ->Args({1000000, 8});

/// Greedy planning with parallel candidate evaluation; range(0) is the
/// candidate count, range(1) the thread count.
void BM_GreedyPlannerParallel(benchmark::State& state) {
  core::CandidateSet set = Candidates(static_cast<size_t>(state.range(0)));
  const size_t threads = static_cast<size_t>(state.range(1));
  std::unique_ptr<ThreadPool> pool;
  core::GreedyPlanner::Options options;
  if (threads >= 2) {
    pool = std::make_unique<ThreadPool>(threads);
    options.pool = pool.get();
    options.min_parallel_candidates = 1;
  }
  core::PlannerConfig config;
  const core::GreedyPlanner planner(options);
  for (auto _ : state) {
    benchmark::DoNotOptimize(planner.Plan(set, config));
  }
}
BENCHMARK(BM_GreedyPlannerParallel)
    ->Args({50, 1})
    ->Args({50, 2})
    ->Args({50, 8});

/// Full pipeline repeat-query latency: the same utterance asked over and
/// over against one MuveEngine. range(0) is the plan memo capacity (0
/// disables it; warm runs hit the memo, skipping translation, generation
/// and planning, and rerun the scans).
void BM_PipelineRepeatQuery(benchmark::State& state) {
  auto table = Flights(200000);
  MuveOptions options;
  options.execution.num_threads = 1;
  options.cache_capacity = static_cast<size_t>(state.range(0));
  MuveEngine engine(table, options);
  db::AggregateQuery target;
  target.table = "flights";
  target.function = db::AggregateFunction::kAvg;
  target.aggregate_column = "arr_delay";
  target.predicates = {db::Predicate::Equals("origin", db::Value("boston"))};
  const std::string utterance = nlq::VerbalizeQuery(target);
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.Ask(Request::Text(utterance)));
  }
  const PipelineCacheStats stats = engine.cache_stats();
  state.counters["plan_hit_rate"] = stats.plans.hit_rate();
}
BENCHMARK(BM_PipelineRepeatQuery)->Arg(0)->Arg(256);

void BM_MergePlanning(benchmark::State& state) {
  auto table = Flights(2000);
  db::CostEstimator estimator;
  core::CandidateSet set = Candidates(50);
  std::vector<size_t> all(set.size());
  for (size_t i = 0; i < all.size(); ++i) all[i] = i;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        exec::PlanMergedExecution(set, all, *table, estimator, true));
  }
}
BENCHMARK(BM_MergePlanning);

void BM_GreedyPlanner(benchmark::State& state) {
  core::CandidateSet set = Candidates(static_cast<size_t>(state.range(0)));
  core::PlannerConfig config;
  const core::GreedyPlanner planner;
  for (auto _ : state) {
    benchmark::DoNotOptimize(planner.Plan(set, config));
  }
}
BENCHMARK(BM_GreedyPlanner)->Arg(10)->Arg(20)->Arg(50);

/// The serving front half on real candidate sets: fixed nyc311
/// transcripts (random §9.2 queries, verbalized and passed through the
/// simulated recognizer), translated, and expanded by the candidate
/// generator with default options. Such sets group into hundreds of
/// mostly singleton templates, unlike the synthetic sets above.
struct Nyc311FrontHalf {
  std::shared_ptr<nlq::SchemaIndex> index;
  std::vector<nlq::Translation> translations;
  std::vector<core::CandidateSet> candidates;
};

const Nyc311FrontHalf& Nyc311Front() {
  static const Nyc311FrontHalf front = [] {
    Nyc311FrontHalf out;
    Rng table_rng(7);
    auto table = workload::Make311Table(4000, &table_rng);
    out.index = std::make_shared<nlq::SchemaIndex>(table);
    const nlq::Translator translator(out.index);
    const nlq::CandidateGenerator generator(out.index);
    std::vector<std::string> lexicon = workload::BuildVocabulary(*table);
    for (const char* word : {"how", "many", "average", "where", "and"}) {
      lexicon.emplace_back(word);
    }
    const speech::SpeechSimulator speech(lexicon);
    Rng rng(11);
    while (out.translations.size() < 64) {
      auto truth = workload::RandomQuery(*table, &rng);
      if (!truth.ok()) continue;
      auto translation = translator.Translate(
          speech.Transcribe(nlq::VerbalizeQuery(*truth), &rng));
      if (!translation.ok()) continue;
      out.candidates.push_back(
          generator.Generate(translation->query, translation->confidence));
      out.translations.push_back(std::move(translation).value());
    }
    return out;
  }();
  return front;
}

/// Template grouping (Algorithm 2's first loop) over the nyc311 sets,
/// one set per iteration.
void BM_GroupByTemplate(benchmark::State& state) {
  const Nyc311FrontHalf& front = Nyc311Front();
  size_t i = 0;
  size_t instantiations = 0;
  size_t groups = 0;
  for (auto _ : state) {
    const core::CandidateSet& set =
        front.candidates[i++ % front.candidates.size()];
    const core::TemplateGroups grouped = core::GroupByTemplate(set);
    groups += grouped.size();
    for (const core::CandidateQuery& candidate : set.candidates()) {
      instantiations += 1 + (candidate.query.aggregate_column.empty() ? 0 : 1) +
                        2 * candidate.query.predicates.size();
    }
    benchmark::DoNotOptimize(grouped);
  }
  const double n = static_cast<double>(state.iterations());
  state.counters["instantiations"] = static_cast<double>(instantiations) / n;
  state.counters["groups"] = static_cast<double>(groups) / n;
}
BENCHMARK(BM_GroupByTemplate);

/// Candidate generation for the nyc311 translations,
/// one base query per iteration.
void BM_GenerateCandidates(benchmark::State& state) {
  const Nyc311FrontHalf& front = Nyc311Front();
  const nlq::CandidateGenerator generator(front.index);
  size_t i = 0;
  size_t candidates = 0;
  for (auto _ : state) {
    const nlq::Translation& translation =
        front.translations[i++ % front.translations.size()];
    const core::CandidateSet set =
        generator.Generate(translation.query, translation.confidence);
    candidates += set.size();
    benchmark::DoNotOptimize(set);
  }
  state.counters["candidates"] =
      static_cast<double>(candidates) / static_cast<double>(state.iterations());
}
BENCHMARK(BM_GenerateCandidates);

void BM_IlpFormulationBuild(benchmark::State& state) {
  core::CandidateSet set = Candidates(static_cast<size_t>(state.range(0)));
  core::PlannerConfig config;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::BuildFormulation(set, config));
  }
}
BENCHMARK(BM_IlpFormulationBuild)->Arg(10)->Arg(20);

void BM_SimplexSolve(benchmark::State& state) {
  // LP relaxation of a knapsack-like model.
  Rng rng(5);
  ilp::Model model;
  ilp::LinearExpr capacity;
  const int n = static_cast<int>(state.range(0));
  for (int i = 0; i < n; ++i) {
    const int x = model.AddVariable(StrCat({"x", std::to_string(i)}), 0.0, 1.0);
    model.AddObjectiveTerm(x, rng.UniformDouble(1.0, 10.0));
    capacity.Add(x, rng.UniformDouble(1.0, 10.0));
  }
  model.SetSense(ilp::Sense::kMaximize);
  model.AddConstraint(capacity, ilp::Relation::kLessEqual, n / 3.0);
  const ilp::SimplexSolver solver;
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver.Solve(model));
  }
}
BENCHMARK(BM_SimplexSolve)->Arg(50)->Arg(200);

/// A real MUVE multiplot-selection MIP (Fig. 6 family, 311 data) for
/// exercising the branch-and-bound solver end to end. Built once.
const ilp::Model& MuveMip() {
  static const ilp::Model* model = [] {
    auto table = *workload::MakeDataset("nyc311", 2000, 7);
    const std::vector<bench::Instance> instances = bench::MakeInstances(
        table, /*count=*/1, /*num_candidates=*/8, /*max_predicates=*/2,
        /*seed=*/1234);
    core::PlannerConfig config;
    config.geometry.width_px = 750.0;
    config.geometry.max_rows = 1;
    auto formulation =
        core::BuildFormulation(instances[0].candidates, config);
    return new ilp::Model(std::move(formulation->model));
  }();
  return *model;
}

/// Branch-and-bound on the MUVE instance: range(0) = solver threads,
/// range(1) = presolve on (1) / off (0). All variants must report the
/// same objective; threads > 1 additionally the same node count.
void BM_MipMuvePlanning(benchmark::State& state) {
  const ilp::Model& model = MuveMip();
  ilp::MipSolver::Options options;
  options.num_threads = static_cast<size_t>(state.range(0));
  options.presolve = state.range(1) == 1;
  const ilp::MipSolver solver(options);
  size_t nodes = 0;
  for (auto _ : state) {
    const ilp::MipSolution solution = solver.Solve(model);
    nodes += solution.nodes_explored;
    benchmark::DoNotOptimize(solution);
  }
  state.counters["nodes"] = static_cast<double>(nodes) /
                            static_cast<double>(state.iterations());
}
BENCHMARK(BM_MipMuvePlanning)
    ->Args({1, 1})
    ->Args({2, 1})
    ->Args({8, 1})
    ->Args({1, 0});

void BM_MipKnapsack(benchmark::State& state) {
  Rng rng(6);
  ilp::Model model;
  ilp::LinearExpr capacity;
  const int n = 18;
  for (int i = 0; i < n; ++i) {
    const int x = model.AddBinary(StrCat({"x", std::to_string(i)}));
    model.AddObjectiveTerm(x, 1.0 + (i * 37) % 11);
    capacity.Add(x, 1.0 + (i * 53) % 9);
  }
  model.SetSense(ilp::Sense::kMaximize);
  model.AddConstraint(capacity, ilp::Relation::kLessEqual, 30.0);
  const ilp::MipSolver solver;
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver.Solve(model));
  }
}
BENCHMARK(BM_MipKnapsack);

/// Solver smoke run behind `--muve_ilp_json=PATH`: solves a small Fig. 6
/// instance family and writes machine-readable throughput/latency stats
/// (consumed by scripts/check.sh as the tier1 solver benchmark).
int RunIlpJsonReport(const std::string& path) {
  constexpr double kTimeoutMs = 1000.0;
  constexpr size_t kInstances = 4;
  auto table = *workload::MakeDataset("nyc311", 2000, 7);
  const std::vector<bench::Instance> instances = bench::MakeInstances(
      table, kInstances, /*num_candidates=*/8, /*max_predicates=*/2,
      /*seed=*/1234);
  core::PlannerConfig config;
  config.geometry.width_px = 750.0;
  config.geometry.max_rows = 1;

  size_t total_nodes = 0;
  int64_t total_lp_iterations = 0;
  double total_ms = 0.0;
  size_t timeouts = 0;
  size_t solved = 0;
  double first_incumbent_sum = 0.0;
  size_t first_incumbent_n = 0;
  for (const bench::Instance& instance : instances) {
    auto formulation = core::BuildFormulation(instance.candidates, config);
    if (!formulation.ok()) continue;
    const ilp::MipSolver solver;
    StopWatch watch;
    const ilp::MipSolution solution = solver.Solve(
        formulation->model, Deadline::AfterMillis(kTimeoutMs));
    total_ms += watch.ElapsedMillis();
    ++solved;
    total_nodes += solution.nodes_explored;
    total_lp_iterations += solution.lp_iterations;
    if (solution.timed_out) ++timeouts;
    if (solution.time_to_first_incumbent_ms >= 0.0) {
      first_incumbent_sum += solution.time_to_first_incumbent_ms;
      ++first_incumbent_n;
    }
  }
  if (solved == 0) {
    std::fprintf(stderr, "no instances solved\n");
    return 1;
  }
  const double nodes_per_sec =
      total_ms > 0.0 ? static_cast<double>(total_nodes) / (total_ms / 1e3)
                     : 0.0;
  const double mean_first_incumbent_ms =
      first_incumbent_n > 0 ? first_incumbent_sum /
                                  static_cast<double>(first_incumbent_n)
                            : -1.0;
  const double timeout_ratio =
      static_cast<double>(timeouts) / static_cast<double>(solved);

  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  out << "{\n"
      << "  \"benchmark\": \"ilp_solver_smoke\",\n"
      << "  \"instances\": " << solved << ",\n"
      << "  \"timeout_ms\": " << kTimeoutMs << ",\n"
      << "  \"total_time_ms\": " << total_ms << ",\n"
      << "  \"total_nodes\": " << total_nodes << ",\n"
      << "  \"total_lp_iterations\": " << total_lp_iterations << ",\n"
      << "  \"nodes_per_sec\": " << nodes_per_sec << ",\n"
      << "  \"mean_time_to_first_incumbent_ms\": "
      << mean_first_incumbent_ms << ",\n"
      << "  \"timeout_ratio\": " << timeout_ratio << "\n"
      << "}\n";
  std::printf(
      "BENCH_ilp: %zu instances, %.1f ms total, %zu nodes (%.0f "
      "nodes/sec), first incumbent %.2f ms, timeout ratio %.2f -> %s\n",
      solved, total_ms, total_nodes, nodes_per_sec,
      mean_first_incumbent_ms, timeout_ratio, path.c_str());
  return 0;
}

/// Serving smoke run behind `--muve_serve_json=PATH`: pushes a request
/// mix (unbounded, tightly bounded, and already-expired deadlines)
/// through the end-to-end MuveEngine serving API and writes latency
/// percentiles, the deadline-hit ratio, and the degradation-rung
/// histogram (consumed by scripts/check.sh as the tier1 serving
/// benchmark).
int RunServeJsonReport(const std::string& path) {
  Rng rng(77);
  auto table = workload::Make311Table(20000, &rng);
  MuveEngine engine(table);
  const char* utterances[] = {
      "how many complaints in brooklyn",
      "average open hours for noise in queens",
      "how many heating complaints",
      "how many complaints in queens",
  };
  // Budgets (ms) of the bounded request tiers. 0 is already expired at
  // admission (guaranteed base-only rung); 0.01 expires during the front
  // half on any hardware; the looser tiers mostly finish exact.
  const double budgets[] = {0.0, 0.01, 1.0, 5.0, 25.0};
  constexpr int kRepetitions = 4;

  std::vector<double> latencies;
  size_t requests = 0;
  size_t deadline_requests = 0;
  size_t deadline_met = 0;
  size_t rung_histogram[3] = {0, 0, 0};
  for (int rep = 0; rep < kRepetitions; ++rep) {
    for (const char* utterance : utterances) {
      for (int tier = -1;
           tier < static_cast<int>(std::size(budgets)); ++tier) {
        Request request = Request::Text(utterance);
        // Bypass the plan memo so every request pays (and measures)
        // the full pipeline; tier -1 is the unbounded reference.
        request.bypass_cache = true;
        const bool bounded = tier >= 0;
        if (bounded) {
          request.deadline = Deadline::AfterMillis(budgets[tier]);
        }
        StopWatch watch;
        auto answer = engine.Ask(request);
        const double elapsed = watch.ElapsedMillis();
        if (!answer.ok()) {
          std::fprintf(stderr, "serve failed: %s\n",
                       answer.status().ToString().c_str());
          return 1;
        }
        ++requests;
        latencies.push_back(elapsed);
        rung_histogram[static_cast<size_t>(answer->degradation.rung)] += 1;
        if (bounded) {
          ++deadline_requests;
          if (elapsed <= budgets[tier]) ++deadline_met;
        }
      }
    }
  }
  std::sort(latencies.begin(), latencies.end());
  const auto percentile = [&latencies](double p) {
    const size_t index = static_cast<size_t>(
        p * static_cast<double>(latencies.size() - 1) + 0.5);
    return latencies[index];
  };
  const double hit_ratio =
      deadline_requests > 0
          ? static_cast<double>(deadline_met) /
                static_cast<double>(deadline_requests)
          : 0.0;

  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  out << "{\n"
      << "  \"benchmark\": \"muve_serve_smoke\",\n"
      << "  \"requests\": " << requests << ",\n"
      << "  \"p50_latency_ms\": " << percentile(0.50) << ",\n"
      << "  \"p99_latency_ms\": " << percentile(0.99) << ",\n"
      << "  \"deadline_requests\": " << deadline_requests << ",\n"
      << "  \"deadline_hit_ratio\": " << hit_ratio << ",\n"
      << "  \"degradation_histogram\": {\n"
      << "    \"exact\": " << rung_histogram[0] << ",\n"
      << "    \"degraded_plan\": " << rung_histogram[1] << ",\n"
      << "    \"base_only\": " << rung_histogram[2] << "\n"
      << "  }\n"
      << "}\n";
  std::printf(
      "BENCH_serve: %zu requests, p50 %.2f ms, p99 %.2f ms, deadline hit "
      "ratio %.2f, rungs exact/degraded/base-only %zu/%zu/%zu -> %s\n",
      requests, percentile(0.50), percentile(0.99), hit_ratio,
      rung_histogram[0], rung_histogram[1], rung_histogram[2],
      path.c_str());
  return 0;
}

/// Vectorized-executor smoke run behind `--muve_vec_json=PATH`: times
/// the value-at-a-time reference executor (tests/testing/, reported as
/// "scalar") and db::Executor's batch scans on identical scan+aggregate
/// and grouped workloads at 100k and 1M rows (best of several
/// repetitions each), verifies the two return bitwise-identical values,
/// and writes the per-workload times and speedups (consumed by
/// scripts/check.sh as the tier1 vectorization benchmark).
int RunVecJsonReport(const std::string& path) {
  struct Entry {
    std::string name;
    size_t rows;
    double scalar_ms;
    double vec_ms;
  };
  constexpr size_t kRowCounts[] = {100000, 1000000};
  std::vector<Entry> entries;

  const auto best_of = [](int reps, const auto& fn) {
    double best = std::numeric_limits<double>::infinity();
    for (int r = 0; r < reps; ++r) {
      StopWatch watch;
      fn();
      best = std::min(best, watch.ElapsedMillis());
    }
    return best;
  };

  for (const size_t rows : kRowCounts) {
    auto table = Flights(rows);
    const int reps = rows >= 1000000 ? 5 : 9;

    db::AggregateQuery count;
    count.table = "flights";
    count.function = db::AggregateFunction::kCount;
    count.predicates = {
        db::Predicate::Equals("origin", db::Value("boston"))};
    db::AggregateQuery avg = count;
    avg.function = db::AggregateFunction::kAvg;
    avg.aggregate_column = "arr_delay";
    db::GroupByQuery grouped;
    grouped.table = "flights";
    grouped.group_column = "origin";
    grouped.group_values = table->StringValues("origin");
    grouped.aggregates = {{db::AggregateFunction::kCount, ""},
                          {db::AggregateFunction::kAvg, "arr_delay"}};

    // The smoke run doubles as a sanity check: the executor must return
    // the reference's bitwise-identical values (the differential suite's
    // invariant).
    const auto check = [](const db::AggregateResult& reference,
                          const Result<db::AggregateResult>& vec) {
      if (!vec.ok() || reference.value != vec->value ||
          reference.rows_matched != vec->rows_matched) {
        std::fprintf(stderr, "reference/vector mismatch\n");
        std::exit(1);
      }
    };
    check(testing::ReferenceExecute(*table, count),
          db::Executor::Execute(*table, count));
    check(testing::ReferenceExecute(*table, avg),
          db::Executor::Execute(*table, avg));

    const auto time_pair = [&](const std::string& name,
                               const auto& reference, const auto& vec) {
      Entry e;
      e.name = name;
      e.rows = rows;
      e.scalar_ms = best_of(reps, [&] {
        auto r = reference();
        benchmark::DoNotOptimize(r);
      });
      e.vec_ms = best_of(reps, [&] {
        auto r = vec();
        benchmark::DoNotOptimize(r);
      });
      entries.push_back(e);
    };
    time_pair(
        "count_eq", [&] { return testing::ReferenceExecute(*table, count); },
        [&] { return db::Executor::Execute(*table, count); });
    time_pair(
        "avg_eq", [&] { return testing::ReferenceExecute(*table, avg); },
        [&] { return db::Executor::Execute(*table, avg); });
    time_pair(
        "grouped_count_avg",
        [&] { return testing::ReferenceExecuteGrouped(*table, grouped); },
        [&] { return db::Executor::ExecuteGrouped(*table, grouped); });
  }

  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  out << "{\n"
      << "  \"benchmark\": \"vectorized_executor_smoke\",\n"
      << "  \"batch_size\": 2048,\n"
      << "  \"workloads\": [\n";
  for (size_t i = 0; i < entries.size(); ++i) {
    const Entry& e = entries[i];
    const double speedup = e.vec_ms > 0.0 ? e.scalar_ms / e.vec_ms : 0.0;
    out << "    {\"name\": \"" << e.name << "\", \"rows\": " << e.rows
        << ", \"scalar_ms\": " << e.scalar_ms
        << ", \"vector_ms\": " << e.vec_ms
        << ", \"speedup\": " << speedup << "}"
        << (i + 1 < entries.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  std::printf("BENCH_vec:\n");
  for (const Entry& e : entries) {
    std::printf(
        "BENCH_vec: %-18s %8zu rows  scalar %7.3f ms  vector %7.3f ms  "
        "speedup %.2fx\n",
        e.name.c_str(), e.rows, e.scalar_ms, e.vec_ms,
        e.vec_ms > 0.0 ? e.scalar_ms / e.vec_ms : 0.0);
  }
  std::printf("BENCH_vec: -> %s\n", path.c_str());
  return 0;
}

}  // namespace
}  // namespace muve

/// BENCHMARK_MAIN with three extra flags: `--muve_ilp_json=PATH` skips
/// the google-benchmark suite and emits the solver smoke report instead;
/// `--muve_serve_json=PATH` likewise emits the serving smoke report and
/// `--muve_vec_json=PATH` the reference-vs-vectorized executor report. The
/// flags are stripped before benchmark::Initialize, which rejects
/// unknown arguments.
int main(int argc, char** argv) {
  std::string json_path;
  std::string serve_path;
  std::string vec_path;
  int kept = 1;
  const char* kFlag = "--muve_ilp_json=";
  const char* kServeFlag = "--muve_serve_json=";
  const char* kVecFlag = "--muve_vec_json=";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], kFlag, std::strlen(kFlag)) == 0) {
      json_path = argv[i] + std::strlen(kFlag);
    } else if (std::strncmp(argv[i], kServeFlag, std::strlen(kServeFlag)) ==
               0) {
      serve_path = argv[i] + std::strlen(kServeFlag);
    } else if (std::strncmp(argv[i], kVecFlag, std::strlen(kVecFlag)) == 0) {
      vec_path = argv[i] + std::strlen(kVecFlag);
    } else {
      argv[kept++] = argv[i];
    }
  }
  argc = kept;
  if (!json_path.empty()) return muve::RunIlpJsonReport(json_path);
  if (!serve_path.empty()) return muve::RunServeJsonReport(serve_path);
  if (!vec_path.empty()) return muve::RunVecJsonReport(vec_path);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
