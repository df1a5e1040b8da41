/// Tests for the distributed-query subsystem (src/dist/): the
/// coordinator's scatter over real loopback shard endpoints, and the
/// contracts the router stands on.
///
///  - Differential suite: a routed gather (Coordinator over K in-process
///    shard listeners) must reproduce the local in-process
///    scatter-gather **byte-for-byte**, across 1/2/4 shard endpoints,
///    for seeded random aggregate and grouped workloads on dyadic
///    tables (see shard_test.cc for why the grid makes SUM exact).
///  - Fault injection: a dead endpoint (connection refused) and a
///    stalled endpoint (accepts, never answers in time) must each
///    degrade to a dropped stripe within the deadline — never a hang —
///    while surviving shards still merge. A shard's error frame drops
///    its stripe (Timeout), errors it (any other status), or is retried
///    as a transport failure (an undecodable or OK-carrying frame).
///  - Hedging: a straggling first attempt is overtaken by the hedged
///    duplicate, capping latency well below the stall.
///  - Breaker: consecutive transport failures eject a downstream
///    (fail-fast), and a re-probe after the window closes it again.
///  - Engine integration: a serve::Server whose engine scatters through
///    the remote backend answers byte-identically to a local sharded
///    server, and a killed shard yields a degraded-rung answer, not an
///    error.
///
/// MUVE_DIFF_SEEDS overrides the differential seed count.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "common/rng.h"
#include "common/strings.h"
#include "db/executor.h"
#include "db/table.h"
#include "dist/coordinator.h"
#include "dist/shard_service.h"
#include "net/connection.h"
#include "net/listener.h"
#include "net/protocol.h"
#include "net/wire.h"
#include "serve/server.h"
#include "shard/scatter_gather.h"
#include "shard/sharded_table.h"
#include "testing/random_workload.h"
#include "workload/datasets.h"

namespace muve::dist {
namespace {

int SeedCount() {
  const char* value = std::getenv("MUVE_DIFF_SEEDS");
  if (value == nullptr) return 105;
  const long parsed = std::strtol(value, nullptr, 10);
  return parsed > 0 ? static_cast<int>(parsed) : 105;
}

const int kNumSeeds = SeedCount();
constexpr uint64_t kSeedBase = 51000;
const size_t kShardCounts[] = {1, 2, 4};

void ExpectBitwiseEqual(const db::AggregateResult& oracle,
                        const db::AggregateResult& routed,
                        const std::string& context) {
  EXPECT_EQ(oracle.value, routed.value) << context;
  EXPECT_EQ(oracle.rows_matched, routed.rows_matched) << context;
  EXPECT_EQ(oracle.empty_input, routed.empty_input) << context;
}

void ExpectGroupedBitwiseEqual(const db::GroupByResult& oracle,
                               const db::GroupByResult& routed,
                               const std::string& context) {
  EXPECT_EQ(oracle.rows_scanned, routed.rows_scanned) << context;
  ASSERT_EQ(oracle.cells.size(), routed.cells.size()) << context;
  for (size_t g = 0; g < oracle.cells.size(); ++g) {
    ASSERT_EQ(oracle.cells[g].size(), routed.cells[g].size()) << context;
    for (size_t a = 0; a < oracle.cells[g].size(); ++a) {
      ExpectBitwiseEqual(oracle.cells[g][a], routed.cells[g][a],
                         StrCat({context, " cell ", std::to_string(g), "/",
                                 std::to_string(a)}));
    }
  }
}

/// K shard servers on loopback: one partial-only Listener per stripe of
/// `sharded`, plus the endpoint list a Coordinator dials.
class ShardCluster {
 public:
  explicit ShardCluster(const shard::ShardedTable& sharded,
                       net::PartialHandler* override_handler = nullptr,
                       size_t override_index = 0) {
    for (size_t i = 0; i < sharded.num_shards(); ++i) {
      services_.push_back(std::make_unique<ShardService>(sharded.shard(i)));
      net::PartialHandler* handler = services_.back().get();
      if (override_handler != nullptr && i == override_index) {
        handler = override_handler;
      }
      listeners_.push_back(std::make_unique<net::Listener>(nullptr));
      listeners_.back()->set_partial_handler(handler);
      const Status started = listeners_.back()->Start();
      EXPECT_TRUE(started.ok()) << started.message();
      endpoints_.push_back({"127.0.0.1", listeners_.back()->port()});
    }
  }

  ~ShardCluster() { Shutdown(); }

  void Shutdown() {
    for (auto& listener : listeners_) {
      if (listener != nullptr) listener->Shutdown();
    }
  }

  /// Kills one endpoint (further connects are refused).
  void Kill(size_t index) { listeners_[index]->Shutdown(); }

  /// Restarts a killed endpoint on its original port with its original
  /// stripe (the breaker-recovery scenario).
  void Restart(size_t index) {
    listeners_[index] =
        std::make_unique<net::Listener>(nullptr, endpoints_[index].port);
    listeners_[index]->set_partial_handler(services_[index].get());
    const Status started = listeners_[index]->Start();
    ASSERT_TRUE(started.ok()) << started.message();
  }

  const std::vector<Endpoint>& endpoints() const { return endpoints_; }

 private:
  std::vector<std::unique_ptr<ShardService>> services_;
  std::vector<std::unique_ptr<net::Listener>> listeners_;
  std::vector<Endpoint> endpoints_;
};

/// Fast coordinator timeouts for fault tests: failures resolve in tens
/// of milliseconds instead of the production second-scale defaults.
CoordinatorOptions FastFailOptions() {
  CoordinatorOptions options;
  options.connect_timeout_ms = 200.0;
  options.request_timeout_ms = 250.0;
  options.max_retries = 1;
  options.retry_backoff_ms = 5.0;
  return options;
}

// ---------------------------------------------------------------------
// Differential: routed == local, byte for byte.
// ---------------------------------------------------------------------

TEST(DistDifferentialTest, RoutedGatherMatchesLocalScatterByteForByte) {
  for (int seed = 0; seed < kNumSeeds; ++seed) {
    Rng rng(kSeedBase + static_cast<uint64_t>(seed));
    testing::RandomTableOptions table_options;
    table_options.min_rows = 200;
    table_options.max_rows = 1200;
    table_options.dyadic_doubles = true;
    auto table = testing::RandomTable(&rng, table_options);

    for (const size_t num_shards : kShardCounts) {
      shard::ShardedTableOptions shard_options;
      shard_options.num_shards = num_shards;
      auto sharded = shard::ShardedTable::FromTable(*table, shard_options);
      ASSERT_TRUE(sharded.ok());
      const db::ShardedSnapshot snapshot = (*sharded)->SnapshotPartitions();

      ShardCluster cluster(**sharded);
      Coordinator coordinator(cluster.endpoints());
      const std::string context =
          StrCat({"seed ", std::to_string(seed), " shards ",
                  std::to_string(num_shards)});

      const db::AggregateQuery aggregate =
          testing::RandomAggregateQuery(*table, &rng);
      shard::ScatterOptions local;
      auto oracle = shard::ScatterGather::Execute(snapshot, aggregate, local);
      shard::ScatterOptions remote;
      remote.backend = &coordinator;
      shard::ScatterStats stats;
      remote.stats = &stats;
      auto routed = shard::ScatterGather::Execute(snapshot, aggregate, remote);
      ASSERT_TRUE(oracle.ok()) << context;
      ASSERT_TRUE(routed.ok()) << context << ": "
                               << routed.status().message();
      ExpectBitwiseEqual(*oracle, *routed,
                         context + " " + aggregate.ToSql());
      EXPECT_EQ(stats.shards_total, num_shards) << context;
      EXPECT_EQ(stats.shards_dropped, 0u) << context;

      const db::GroupByQuery grouped =
          testing::RandomGroupByQuery(*table, &rng);
      auto grouped_oracle =
          shard::ScatterGather::ExecuteGrouped(snapshot, grouped, local);
      auto grouped_routed =
          shard::ScatterGather::ExecuteGrouped(snapshot, grouped, remote);
      ASSERT_TRUE(grouped_oracle.ok()) << context;
      ASSERT_TRUE(grouped_routed.ok())
          << context << ": " << grouped_routed.status().message();
      ExpectGroupedBitwiseEqual(*grouped_oracle, *grouped_routed,
                                context + " " + grouped.ToSql());
    }
  }
}

// ---------------------------------------------------------------------
// Fault injection: drops, never hangs.
// ---------------------------------------------------------------------

std::shared_ptr<db::Table> SmallDyadicTable(uint64_t seed) {
  Rng rng(seed);
  testing::RandomTableOptions options;
  options.min_rows = 300;
  options.max_rows = 600;
  options.dyadic_doubles = true;
  return testing::RandomTable(&rng, options);
}

TEST(DistFaultTest, DeadEndpointDegradesToADroppedStripeFast) {
  auto table = SmallDyadicTable(9001);
  shard::ShardedTableOptions shard_options;
  shard_options.num_shards = 3;
  auto sharded = shard::ShardedTable::FromTable(*table, shard_options);
  ASSERT_TRUE(sharded.ok());

  ShardCluster cluster(**sharded);
  cluster.Kill(1);
  Coordinator coordinator(cluster.endpoints(), FastFailOptions());

  Rng rng(9001);
  const db::AggregateQuery query =
      testing::RandomAggregateQuery(*table, &rng);
  StopWatch timer;
  auto outcomes = coordinator.ExecutePartialAll(
      query, Deadline::AfterMillis(5000.0));
  // Connection refused fails fast; with one retry the whole gather
  // resolves far below the deadline — and far below a hang.
  EXPECT_LT(timer.ElapsedMillis(), 4000.0);
  ASSERT_EQ(outcomes.size(), 3u);
  ASSERT_TRUE(outcomes[0].ok());
  ASSERT_TRUE(outcomes[1].ok());
  ASSERT_TRUE(outcomes[2].ok());
  EXPECT_FALSE(outcomes[0]->dropped);
  EXPECT_TRUE(outcomes[1]->dropped);
  EXPECT_FALSE(outcomes[2]->dropped);

  // Through the gather: result covers the surviving stripes, the drop
  // is reported, and nothing errors.
  shard::ScatterOptions remote;
  remote.backend = &coordinator;
  shard::ScatterStats stats;
  remote.stats = &stats;
  auto result = shard::ScatterGather::Execute(
      (*sharded)->SnapshotPartitions(), query, remote);
  ASSERT_TRUE(result.ok()) << result.status().message();
  EXPECT_EQ(stats.shards_dropped, 1u);

  const DistStats dist_stats = coordinator.stats();
  EXPECT_GT(dist_stats.shards[1].transport_errors, 0u);
  EXPECT_GT(dist_stats.shards[1].dropped, 0u);
  EXPECT_GT(dist_stats.shards[1].retries, 0u);
}

/// Answers every partial query with one fixed error status.
class FailingHandler : public net::PartialHandler {
 public:
  explicit FailingHandler(Status status) : status_(std::move(status)) {}

  Result<net::PartialResult> HandlePartial(const net::PartialQuery&) override {
    return status_;
  }

 private:
  const Status status_;
};

/// A shard endpoint that answers every frame with an error frame carrying
/// OK: a contradiction, so a broken reply rather than the peer's status.
class OkErrorPeer {
 public:
  OkErrorPeer() {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    socklen_t len = sizeof(addr);
    EXPECT_EQ(::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                     sizeof(addr)), 0);
    EXPECT_EQ(::listen(listen_fd_, 8), 0);
    EXPECT_EQ(::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                            &len), 0);
    port_ = ntohs(addr.sin_port);
    thread_ = std::thread([this] {
      // One connection at a time: each retry dials afresh.
      for (int fd; (fd = ::accept4(listen_fd_, nullptr, nullptr,
                                   SOCK_NONBLOCK)) >= 0;) {
        net::Connection conn(fd);
        const Deadline deadline = Deadline::AfterMillis(5000.0);
        while (conn.Receive(deadline).ok() &&
               conn.Send(net::FrameType::kError,
                         net::ErrorPayload(Status::OK()), deadline)
                   .ok()) {
        }
      }
    });
  }

  ~OkErrorPeer() {
    ::shutdown(listen_fd_, SHUT_RDWR);  // Fails the blocked accept(2).
    thread_.join();
    ::close(listen_fd_);
  }

  Endpoint endpoint() const { return {"127.0.0.1", port_}; }

 private:
  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::thread thread_;
};

TEST(DistFaultTest, ErrorFramesDropErrorOrRetryByWhatTheyCarry) {
  auto table = SmallDyadicTable(9004);
  shard::ShardedTableOptions shard_options;
  shard_options.num_shards = 3;
  auto sharded = shard::ShardedTable::FromTable(*table, shard_options);
  ASSERT_TRUE(sharded.ok());
  Rng rng(9004);
  const db::AggregateQuery query =
      testing::RandomAggregateQuery(*table, &rng);

  {
    // The shard's scan ran out of budget: a dropped stripe, not retried.
    FailingHandler timeout(Status::Timeout("scan budget spent"));
    ShardCluster cluster(**sharded, &timeout, /*override_index=*/1);
    Coordinator coordinator(cluster.endpoints(), FastFailOptions());
    auto outcomes =
        coordinator.ExecutePartialAll(query, Deadline::AfterMillis(5000.0));
    ASSERT_EQ(outcomes.size(), 3u);
    ASSERT_TRUE(outcomes[1].ok()) << outcomes[1].status().message();
    EXPECT_TRUE(outcomes[1]->dropped);
    const ShardCounters counters = coordinator.stats().shards[1];
    EXPECT_EQ(counters.retries, 0u);
    EXPECT_EQ(counters.transport_errors, 0u);
    EXPECT_EQ(counters.timeouts, 1u);
  }
  {
    // Any other status is deterministic: the stripe errors, not retried.
    FailingHandler invalid(Status::InvalidArgument("no such column"));
    ShardCluster cluster(**sharded, &invalid, /*override_index=*/1);
    Coordinator coordinator(cluster.endpoints(), FastFailOptions());
    auto outcomes =
        coordinator.ExecutePartialAll(query, Deadline::AfterMillis(5000.0));
    ASSERT_EQ(outcomes.size(), 3u);
    ASSERT_FALSE(outcomes[1].ok());
    EXPECT_EQ(outcomes[1].status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(coordinator.stats().shards[1].retries, 0u);
    EXPECT_TRUE(outcomes[0].ok());
  }
  {
    // An error frame carrying OK is a transport failure: retried, then
    // dropped.
    OkErrorPeer peer;
    ShardCluster cluster(**sharded);
    std::vector<Endpoint> endpoints = cluster.endpoints();
    endpoints[1] = peer.endpoint();
    Coordinator coordinator(endpoints, FastFailOptions());
    auto outcomes =
        coordinator.ExecutePartialAll(query, Deadline::AfterMillis(5000.0));
    ASSERT_EQ(outcomes.size(), 3u);
    ASSERT_TRUE(outcomes[1].ok()) << outcomes[1].status().message();
    EXPECT_TRUE(outcomes[1]->dropped);
    const ShardCounters counters = coordinator.stats().shards[1];
    EXPECT_EQ(counters.retries, 1u);
    EXPECT_EQ(counters.transport_errors, 2u);
  }
}

/// Accepts the query, then sleeps (interruptibly) far past every
/// timeout — the stalled-shard scenario.
class StallingHandler : public net::PartialHandler {
 public:
  explicit StallingHandler(net::PartialHandler* inner) : inner_(inner) {}

  Result<net::PartialResult> HandlePartial(
      const net::PartialQuery& query) override {
    for (int i = 0; i < 1000 && !released_.load(); ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return inner_->HandlePartial(query);
  }

  void Release() { released_.store(true); }

 private:
  net::PartialHandler* const inner_;
  std::atomic<bool> released_{false};
};

TEST(DistFaultTest, StalledEndpointDropsAtTheAttemptTimeoutNeverHangs) {
  auto table = SmallDyadicTable(9002);
  shard::ShardedTableOptions shard_options;
  shard_options.num_shards = 2;
  auto sharded = shard::ShardedTable::FromTable(*table, shard_options);
  ASSERT_TRUE(sharded.ok());

  ShardService stalled_service((*sharded)->shard(1));
  StallingHandler stalling(&stalled_service);
  ShardCluster cluster(**sharded, &stalling, /*override_index=*/1);

  CoordinatorOptions options = FastFailOptions();
  options.request_timeout_ms = 150.0;
  options.max_retries = 0;
  Coordinator coordinator(cluster.endpoints(), options);

  Rng rng(9002);
  const db::AggregateQuery query =
      testing::RandomAggregateQuery(*table, &rng);
  StopWatch timer;
  auto outcomes = coordinator.ExecutePartialAll(
      query, Deadline::AfterMillis(5000.0));
  EXPECT_LT(timer.ElapsedMillis(), 4000.0);
  ASSERT_EQ(outcomes.size(), 2u);
  ASSERT_TRUE(outcomes[0].ok());
  ASSERT_TRUE(outcomes[1].ok());
  EXPECT_FALSE(outcomes[0]->dropped);
  EXPECT_TRUE(outcomes[1]->dropped);
  EXPECT_GT(coordinator.stats().shards[1].timeouts, 0u);

  stalling.Release();
  cluster.Shutdown();
}

// ---------------------------------------------------------------------
// Hedging.
// ---------------------------------------------------------------------

/// Stalls the first call only; every later call answers immediately.
/// The hedged duplicate of a straggling request therefore wins.
class FirstCallSlowHandler : public net::PartialHandler {
 public:
  explicit FirstCallSlowHandler(net::PartialHandler* inner) : inner_(inner) {}

  Result<net::PartialResult> HandlePartial(
      const net::PartialQuery& query) override {
    if (calls_.fetch_add(1) == 0) {
      for (int i = 0; i < 300 && !released_.load(); ++i) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
    }
    return inner_->HandlePartial(query);
  }

  void Release() { released_.store(true); }

 private:
  net::PartialHandler* const inner_;
  std::atomic<int> calls_{0};
  std::atomic<bool> released_{false};
};

TEST(DistHedgeTest, HedgedDuplicateOvertakesAStraggler) {
  auto table = SmallDyadicTable(9003);
  shard::ShardedTableOptions shard_options;
  shard_options.num_shards = 2;
  auto sharded = shard::ShardedTable::FromTable(*table, shard_options);
  ASSERT_TRUE(sharded.ok());

  ShardService slow_service((*sharded)->shard(0));
  FirstCallSlowHandler slow(&slow_service);
  ShardCluster cluster(**sharded, &slow, /*override_index=*/0);

  CoordinatorOptions options;
  options.request_timeout_ms = 10000.0;  // The hedge, not a timeout, saves us.
  options.max_retries = 0;
  options.hedge_delay_ms = 50.0;
  Coordinator coordinator(cluster.endpoints(), options);

  Rng rng(9003);
  const db::AggregateQuery query =
      testing::RandomAggregateQuery(*table, &rng);
  StopWatch timer;
  auto outcomes = coordinator.ExecutePartialAll(
      query, Deadline::AfterMillis(8000.0));
  const double elapsed_ms = timer.ElapsedMillis();
  ASSERT_EQ(outcomes.size(), 2u);
  ASSERT_TRUE(outcomes[0].ok());
  EXPECT_FALSE(outcomes[0]->dropped);  // The hedge answered; no drop.

  const DistStats stats = coordinator.stats();
  EXPECT_GE(stats.shards[0].hedges, 1u);
  EXPECT_GE(stats.shards[0].hedge_wins, 1u);
  // The straggler stalls 3s; the hedged path answers in tens of ms.
  EXPECT_LT(elapsed_ms, 2500.0);

  slow.Release();
  cluster.Shutdown();
}

// ---------------------------------------------------------------------
// Breaker: ejection and re-probe.
// ---------------------------------------------------------------------

TEST(DistBreakerTest, ConsecutiveFailuresEjectThenReprobeRecovers) {
  auto table = SmallDyadicTable(9004);
  shard::ShardedTableOptions shard_options;
  shard_options.num_shards = 2;
  auto sharded = shard::ShardedTable::FromTable(*table, shard_options);
  ASSERT_TRUE(sharded.ok());

  ShardCluster cluster(**sharded);
  CoordinatorOptions options = FastFailOptions();
  options.max_retries = 0;
  options.eject_after_failures = 2;
  options.reprobe_after_ms = 150.0;
  Coordinator coordinator(cluster.endpoints(), options);

  Rng rng(9004);
  const db::AggregateQuery query =
      testing::RandomAggregateQuery(*table, &rng);
  const Deadline deadline = Deadline::AfterMillis(5000.0);

  // Healthy first: the pool works, the breaker is closed.
  auto healthy = coordinator.ExecutePartialAll(query, deadline);
  ASSERT_TRUE(healthy[1].ok());
  EXPECT_FALSE(healthy[1]->dropped);

  cluster.Kill(1);
  // Two failed gathers trip the breaker (eject_after_failures = 2)...
  for (int i = 0; i < 2; ++i) {
    auto outcomes =
        coordinator.ExecutePartialAll(query, Deadline::AfterMillis(5000.0));
    ASSERT_TRUE(outcomes[1].ok());
    EXPECT_TRUE(outcomes[1]->dropped);
  }
  EXPECT_EQ(coordinator.stats().shards[1].ejections, 1u);

  // ...and while it is open, legs fail fast without dialing.
  auto ejected =
      coordinator.ExecutePartialAll(query, Deadline::AfterMillis(5000.0));
  ASSERT_TRUE(ejected[1].ok());
  EXPECT_TRUE(ejected[1]->dropped);
  EXPECT_GT(coordinator.stats().shards[1].fast_failures, 0u);
  // The healthy shard is untouched throughout.
  ASSERT_TRUE(ejected[0].ok());
  EXPECT_FALSE(ejected[0]->dropped);

  // Recovery: the endpoint comes back, the re-probe window opens, and
  // the next leg through closes the breaker.
  cluster.Restart(1);
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  bool recovered = false;
  for (int i = 0; i < 20 && !recovered; ++i) {
    auto outcomes =
        coordinator.ExecutePartialAll(query, Deadline::AfterMillis(5000.0));
    ASSERT_TRUE(outcomes[1].ok());
    recovered = !outcomes[1]->dropped;
    if (!recovered) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  }
  EXPECT_TRUE(recovered) << "breaker never closed after restart";
}

// ---------------------------------------------------------------------
// Engine integration: the router's serving path.
// ---------------------------------------------------------------------

std::string NormalizedAnswerBytes(MuveEngine::Answer answer) {
  return net::SerializeAnswerDeterministic(std::move(answer));
}

TEST(DistEngineTest, RemoteBackendAnswersByteIdenticalToLocalSharded) {
  Rng rng(4242);
  std::shared_ptr<db::Table> table = workload::Make311Table(1500, &rng);
  shard::ShardedTableOptions shard_options;
  shard_options.num_shards = 2;
  auto sharded = shard::ShardedTable::FromTable(*table, shard_options);
  ASSERT_TRUE(sharded.ok());
  std::shared_ptr<const shard::ShardedTable> view = *sharded;

  ShardCluster cluster(*view);
  Coordinator coordinator(cluster.endpoints());

  serve::ServerOptions local_options;
  local_options.num_workers = 2;
  serve::Server local_server(view, local_options);

  serve::ServerOptions routed_options = local_options;
  routed_options.engine.execution.remote_backend = &coordinator;
  serve::Server routed_server(view, routed_options);

  const char* transcripts[] = {
      "how many complaints in brooklyn",
      "average open hours for noise in queens",
      "max open hours in manhattan",
  };
  for (const char* transcript : transcripts) {
    auto local = local_server.Ask("s-local", Request::Text(transcript));
    auto routed = routed_server.Ask("s-routed", Request::Text(transcript));
    ASSERT_TRUE(local.ok()) << transcript;
    ASSERT_TRUE(routed.ok()) << transcript;
    EXPECT_EQ(routed->answer.execution.shards_dropped, 0u);
    EXPECT_EQ(NormalizedAnswerBytes(routed->answer),
              NormalizedAnswerBytes(local->answer))
        << transcript;
  }

  local_server.Drain();
  routed_server.Drain();
  EXPECT_GT(coordinator.stats().shards[0].requests, 0u);
}

TEST(DistEngineTest, KilledShardYieldsDegradedAnswerNotAnError) {
  Rng rng(4243);
  std::shared_ptr<db::Table> table = workload::Make311Table(1200, &rng);
  shard::ShardedTableOptions shard_options;
  shard_options.num_shards = 2;
  auto sharded = shard::ShardedTable::FromTable(*table, shard_options);
  ASSERT_TRUE(sharded.ok());
  std::shared_ptr<const shard::ShardedTable> view = *sharded;

  ShardCluster cluster(*view);
  Coordinator coordinator(cluster.endpoints(), FastFailOptions());

  serve::ServerOptions options;
  options.num_workers = 2;
  options.engine.execution.remote_backend = &coordinator;
  serve::Server server(view, options);

  cluster.Kill(1);
  StopWatch timer;
  auto served =
      server.Ask("s-degraded",
                 Request::Text("how many complaints in brooklyn"));
  // A dead stripe costs its data, never the answer — and never a hang.
  ASSERT_TRUE(served.ok()) << served.status().message();
  EXPECT_LT(timer.ElapsedMillis(), 30000.0);
  EXPECT_GT(served->answer.execution.shards_dropped, 0u);
  EXPECT_GE(static_cast<int>(served->answer.degradation.rung),
            static_cast<int>(Degradation::Rung::kDegradedPlan));
  EXPECT_GT(served->answer.degradation.shards_dropped, 0u);
  EXPECT_NE(served->answer.degradation.Describe().find("shards-dropped"),
            std::string::npos)
      << served->answer.degradation.Describe();
  server.Drain();
}

}  // namespace
}  // namespace muve::dist
