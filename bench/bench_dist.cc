// Distributed scatter-gather benchmark: the same seeded aggregate
// workload executed two ways over identical sharded data — in-process
// ScatterGather (local partial scans) and routed through a
// dist::Coordinator over real loopback shard endpoints — at 1/2/4
// shards, asserting the two answer streams stay bitwise identical
// while measuring what the network hop costs (QPS, p50/p99).
//
// A second phase injects a deterministic straggler (every 4th partial
// on one shard stalls --stall_ms) and runs the routed path with
// hedging off and on: the hedged duplicate must cut the tail (p99)
// from stall-scale down to hedge-delay-scale, which is the whole point
// of CoordinatorOptions::hedge_delay_ms.
//
// Emits BENCH_dist.json; registered as the tier1 bench_dist_smoke
// ctest and surfaced by scripts/check.sh.
//
// Flags:
//   --muve_dist_json=PATH  where to write the JSON report
//   --queries=N            queries per shard-count config (default 40)
//   --stall_ms=F           straggler stall (default 60)

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "db/executor.h"
#include "db/table.h"
#include "dist/coordinator.h"
#include "dist/shard_service.h"
#include "net/listener.h"
#include "shard/scatter_gather.h"
#include "shard/sharded_table.h"
#include "tools/load_driver.h"
#include "workload/datasets.h"
#include "workload/query_generator.h"

namespace muve {
namespace {

int Fail(const std::string& phase, const std::string& message) {
  std::fprintf(stderr, "bench_dist: %s: %s\n", phase.c_str(),
               message.c_str());
  return 1;
}

/// K loopback shard endpoints over the stripes of `sharded`, with an
/// optional handler override for one stripe (the straggler phase).
struct Cluster {
  std::vector<std::unique_ptr<dist::ShardService>> services;
  std::vector<std::unique_ptr<net::Listener>> listeners;
  std::vector<dist::Endpoint> endpoints;

  static Result<Cluster> Start(const shard::ShardedTable& sharded,
                               net::PartialHandler* override_handler,
                               size_t override_index) {
    Cluster cluster;
    for (size_t i = 0; i < sharded.num_shards(); ++i) {
      cluster.services.push_back(
          std::make_unique<dist::ShardService>(sharded.shard(i)));
      net::PartialHandler* handler = cluster.services.back().get();
      if (override_handler != nullptr && i == override_index) {
        handler = override_handler;
      }
      cluster.listeners.push_back(std::make_unique<net::Listener>(nullptr));
      cluster.listeners.back()->set_partial_handler(handler);
      MUVE_RETURN_NOT_OK(cluster.listeners.back()->Start());
      cluster.endpoints.push_back(
          {"127.0.0.1", cluster.listeners.back()->port()});
    }
    return cluster;
  }

  void Shutdown() {
    for (auto& listener : listeners) listener->Shutdown();
  }
};

/// Stalls every 4th partial it handles (deterministic straggling); the
/// hedged duplicate of a stalled request lands on a non-stalling slot.
class StragglerHandler : public net::PartialHandler {
 public:
  StragglerHandler(net::PartialHandler* inner, double stall_ms)
      : inner_(inner), stall_ms_(stall_ms) {}

  Result<net::PartialResult> HandlePartial(
      const net::PartialQuery& query) override {
    if (calls_.fetch_add(1) % 4 == 0) {
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(stall_ms_));
    }
    return inner_->HandlePartial(query);
  }

 private:
  net::PartialHandler* const inner_;
  const double stall_ms_;
  std::atomic<uint64_t> calls_{0};
};

struct RunStats {
  double qps = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
};

/// Executes `queries` one at a time through ScatterGather (routed when
/// `backend` is set, local partial scans otherwise), returning latency
/// stats and the result values for the bitwise cross-check.
Result<RunStats> RunQueries(const db::ShardedSnapshot& snapshot,
                            const std::vector<db::AggregateQuery>& queries,
                            shard::PartialBackend* backend,
                            std::vector<db::AggregateResult>* results) {
  shard::ScatterOptions options;
  options.backend = backend;
  RunStats stats;
  std::vector<double> latencies;
  latencies.reserve(queries.size());
  const auto wall_start = std::chrono::steady_clock::now();
  for (const db::AggregateQuery& query : queries) {
    const auto start = std::chrono::steady_clock::now();
    MUVE_ASSIGN_OR_RETURN(db::AggregateResult result,
                          shard::ScatterGather::Execute(snapshot, query,
                                                        options));
    latencies.push_back(std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - start)
                            .count());
    if (results != nullptr) results->push_back(result);
  }
  const double wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();
  stats.qps = wall_seconds > 0.0
                  ? static_cast<double>(queries.size()) / wall_seconds
                  : 0.0;
  stats.p50_ms = workload::Percentile(latencies, 0.50);
  stats.p99_ms = workload::Percentile(latencies, 0.99);
  return stats;
}

bool BitwiseEqual(const std::vector<db::AggregateResult>& a,
                  const std::vector<db::AggregateResult>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].value != b[i].value || a[i].rows_matched != b[i].rows_matched ||
        a[i].empty_input != b[i].empty_input) {
      return false;
    }
  }
  return true;
}

int RunBench(const std::string& json_path, size_t num_queries,
             double stall_ms) {
  Rng rng(7);
  std::shared_ptr<db::Table> table = workload::Make311Table(20000, &rng);
  table->Flush();

  std::ostringstream json;
  json << "{\n  \"shard_counts\": [";

  // --- Phase 1: routed vs local at 1/2/4 shards -----------------------
  const size_t shard_counts[] = {1, 2, 4};
  bool first = true;
  for (const size_t num_shards : shard_counts) {
    shard::ShardedTableOptions shard_options;
    shard_options.num_shards = num_shards;
    Result<std::shared_ptr<shard::ShardedTable>> sharded =
        shard::ShardedTable::FromTable(*table, shard_options);
    if (!sharded.ok()) return Fail("shard", sharded.status().ToString());
    const db::ShardedSnapshot snapshot = (*sharded)->SnapshotPartitions();

    Rng query_rng(100 + num_shards);
    std::vector<db::AggregateQuery> queries;
    for (size_t i = 0; i < num_queries; ++i) {
      Result<db::AggregateQuery> query =
          workload::RandomQuery(*table, &query_rng);
      if (!query.ok()) return Fail("queries", query.status().ToString());
      queries.push_back(std::move(query).value());
    }

    std::vector<db::AggregateResult> local_results;
    Result<RunStats> local =
        RunQueries(snapshot, queries, nullptr, &local_results);
    if (!local.ok()) return Fail("local", local.status().ToString());

    Result<Cluster> cluster = Cluster::Start(**sharded, nullptr, 0);
    if (!cluster.ok()) return Fail("cluster", cluster.status().ToString());
    dist::Coordinator coordinator(cluster->endpoints);
    std::vector<db::AggregateResult> routed_results;
    Result<RunStats> routed =
        RunQueries(snapshot, queries, &coordinator, &routed_results);
    cluster->Shutdown();
    if (!routed.ok()) return Fail("routed", routed.status().ToString());

    if (!BitwiseEqual(local_results, routed_results)) {
      return Fail("differential",
                  "routed results diverged from local scatter-gather at " +
                      std::to_string(num_shards) + " shards");
    }

    json << (first ? "" : ",") << "\n    {\"shards\": " << num_shards
         << ", \"queries\": " << num_queries
         << ", \"local_qps\": " << local->qps
         << ", \"routed_qps\": " << routed->qps
         << ", \"local_p99_ms\": " << local->p99_ms
         << ", \"routed_p50_ms\": " << routed->p50_ms
         << ", \"routed_p99_ms\": " << routed->p99_ms
         << ", \"bitwise_equal\": true}";
    first = false;
  }
  json << "\n  ],\n";

  // --- Phase 2: straggler tail, hedging off vs on ---------------------
  shard::ShardedTableOptions shard_options;
  shard_options.num_shards = 2;
  Result<std::shared_ptr<shard::ShardedTable>> sharded =
      shard::ShardedTable::FromTable(*table, shard_options);
  if (!sharded.ok()) return Fail("shard", sharded.status().ToString());
  const db::ShardedSnapshot snapshot = (*sharded)->SnapshotPartitions();

  Rng query_rng(777);
  std::vector<db::AggregateQuery> queries;
  for (size_t i = 0; i < num_queries; ++i) {
    Result<db::AggregateQuery> query =
        workload::RandomQuery(*table, &query_rng);
    if (!query.ok()) return Fail("queries", query.status().ToString());
    queries.push_back(std::move(query).value());
  }

  double unhedged_p99 = 0.0;
  double hedged_p99 = 0.0;
  uint64_t hedge_wins = 0;
  for (const bool hedged : {false, true}) {
    dist::ShardService inner((*sharded)->shard(1));
    StragglerHandler straggler(&inner, stall_ms);
    Result<Cluster> cluster = Cluster::Start(**sharded, &straggler, 1);
    if (!cluster.ok()) return Fail("cluster", cluster.status().ToString());
    dist::CoordinatorOptions options;
    options.request_timeout_ms = stall_ms * 50.0;  // Timeouts stay out of it.
    options.hedge_delay_ms = hedged ? 5.0 : 0.0;
    dist::Coordinator coordinator(cluster->endpoints, options);
    Result<RunStats> stats =
        RunQueries(snapshot, queries, &coordinator, nullptr);
    cluster->Shutdown();
    if (!stats.ok()) return Fail("straggler", stats.status().ToString());
    if (hedged) {
      hedged_p99 = stats->p99_ms;
      hedge_wins = coordinator.stats().shards[1].hedge_wins;
    } else {
      unhedged_p99 = stats->p99_ms;
    }
  }
  // The unhedged tail must show the stall, and hedging must beat it —
  // that is the claim this bench exists to check (generous factor to
  // stay robust on loaded CI machines).
  if (unhedged_p99 < stall_ms * 0.5) {
    return Fail("straggler", "stall did not reach the unhedged p99");
  }
  if (hedged_p99 > unhedged_p99 * 0.8) {
    return Fail("straggler", "hedging failed to cut the straggler tail: " +
                                 std::to_string(hedged_p99) + "ms vs " +
                                 std::to_string(unhedged_p99) + "ms");
  }
  if (hedge_wins == 0) {
    return Fail("straggler", "no hedge ever won");
  }

  json << "  \"straggler\": {\"stall_ms\": " << stall_ms
       << ", \"unhedged_p99_ms\": " << unhedged_p99
       << ", \"hedged_p99_ms\": " << hedged_p99
       << ", \"hedge_wins\": " << hedge_wins << "}\n}\n";

  if (!json_path.empty()) {
    std::ofstream file(json_path);
    if (!file) return Fail("json", "cannot write " + json_path);
    file << json.str();
  }
  std::fputs(json.str().c_str(), stdout);
  return 0;
}

}  // namespace
}  // namespace muve

int main(int argc, char** argv) {
  std::string json_path;
  size_t num_queries = 40;
  double stall_ms = 60.0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--muve_dist_json=", 0) == 0) {
      json_path = arg.substr(std::strlen("--muve_dist_json="));
    } else if (arg.rfind("--queries=", 0) == 0) {
      num_queries = std::stoul(arg.substr(std::strlen("--queries=")));
    } else if (arg.rfind("--stall_ms=", 0) == 0) {
      stall_ms = std::stod(arg.substr(std::strlen("--stall_ms=")));
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return 2;
    }
  }
  return muve::RunBench(json_path, num_queries, stall_ms);
}
