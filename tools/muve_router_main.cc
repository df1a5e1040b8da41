// MUVE shard router: a full serving front end (planner, degradation
// ladder, plan memo) whose primary-table scans are scattered to
// remote shard servers instead of local threads.
//
// The router regenerates the deterministic 311 dataset from --rows and
// --seed — the same table every `muve_serve --shard_index=I` downstream
// carved its stripe from — so its planner, calibration probe, and
// sampled scans run locally while every full-fraction scan of the
// sharded table fans out as kPartialQuery frames through the
// dist::Coordinator. Answers are byte-identical to a single
// `muve_serve --num_shards=K` process over the same flags (the e2e
// smoke proves it with a byte-compare).
//
// Flags:
//   --port=N               TCP port; 0 (default) = ephemeral. Prints
//                          "LISTENING port=N" once ready.
//   --shard=HOST:PORT      one downstream shard server (repeat K times,
//                          in shard order; required)
//   --rows=N               synthetic table size (default 4000)
//   --seed=N               dataset RNG seed (default 7)
//   --workers=N            server worker threads (default 4)
//   --queue_depth=N        admission queue bound (default 64)
//   --floor_ms=F           feasibility floor in ms (default 0 = off)
//   --connect_timeout_ms=F downstream connect bound (default 250)
//   --request_timeout_ms=F per-attempt downstream bound (default 1000)
//   --retries=N            downstream retries per scan (default 2)
//   --hedge_ms=F           hedge delay; 0 (default) disables hedging
//   --pool=N               idle connections kept per shard (default 4)
//   --skip_ping            don't require downstreams up at startup
//
// A kStats frame against the router answers the coordinator's per-shard
// counters (requests/retries/hedges/timeouts/ejections/...) as JSON —
// muve_loadgen embeds it in its LoadReport.
//
// Runs until SIGINT/SIGTERM, then drains and exits 0.

#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "dist/coordinator.h"
#include "net/listener.h"
#include "serve/server.h"
#include "shard/sharded_table.h"
#include "workload/datasets.h"

namespace muve {
namespace {

volatile std::sig_atomic_t g_stop = 0;

void HandleSignal(int) { g_stop = 1; }

bool ParseEndpoint(const std::string& value, dist::Endpoint* out) {
  const size_t pos = value.rfind(':');
  if (pos == std::string::npos || pos == 0 || pos + 1 >= value.size()) {
    return false;
  }
  out->host = value.substr(0, pos);
  char* end = nullptr;
  const unsigned long port = std::strtoul(value.c_str() + pos + 1, &end, 10);
  if (end == nullptr || *end != '\0' || port == 0 || port > 65535) {
    return false;
  }
  out->port = static_cast<uint16_t>(port);
  return true;
}

int Run(int argc, char** argv) {
  uint16_t port = 0;
  size_t rows = 4000;
  uint64_t seed = 7;
  bool skip_ping = false;
  std::vector<dist::Endpoint> endpoints;
  serve::ServerOptions server_options;
  dist::CoordinatorOptions coordinator_options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&arg](const char* prefix) {
      return arg.substr(std::strlen(prefix));
    };
    if (arg.rfind("--port=", 0) == 0) {
      port = static_cast<uint16_t>(std::stoul(value("--port=")));
    } else if (arg.rfind("--shard=", 0) == 0) {
      dist::Endpoint endpoint;
      if (!ParseEndpoint(value("--shard="), &endpoint)) {
        std::fprintf(stderr, "bad --shard (want HOST:PORT): %s\n",
                     arg.c_str());
        return 2;
      }
      endpoints.push_back(std::move(endpoint));
    } else if (arg.rfind("--rows=", 0) == 0) {
      rows = std::stoul(value("--rows="));
    } else if (arg.rfind("--seed=", 0) == 0) {
      seed = std::stoull(value("--seed="));
    } else if (arg.rfind("--workers=", 0) == 0) {
      server_options.num_workers = std::stoul(value("--workers="));
    } else if (arg.rfind("--queue_depth=", 0) == 0) {
      server_options.max_queue_depth = std::stoul(value("--queue_depth="));
    } else if (arg.rfind("--floor_ms=", 0) == 0) {
      server_options.feasibility_floor_millis =
          std::stod(value("--floor_ms="));
    } else if (arg.rfind("--connect_timeout_ms=", 0) == 0) {
      coordinator_options.connect_timeout_ms =
          std::stod(value("--connect_timeout_ms="));
    } else if (arg.rfind("--request_timeout_ms=", 0) == 0) {
      coordinator_options.request_timeout_ms =
          std::stod(value("--request_timeout_ms="));
    } else if (arg.rfind("--retries=", 0) == 0) {
      coordinator_options.max_retries =
          static_cast<int>(std::stol(value("--retries=")));
    } else if (arg.rfind("--hedge_ms=", 0) == 0) {
      coordinator_options.hedge_delay_ms = std::stod(value("--hedge_ms="));
    } else if (arg.rfind("--pool=", 0) == 0) {
      coordinator_options.pool_size = std::stoul(value("--pool="));
    } else if (arg == "--skip_ping") {
      skip_ping = true;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return 2;
    }
  }
  if (endpoints.empty()) {
    std::fprintf(stderr, "muve_router: at least one --shard=HOST:PORT "
                         "is required\n");
    return 2;
  }

  // The router's local copy of the dataset: the planner, calibration
  // probe, and sampled scans read it; only full-fraction scans of the
  // sharded primary go remote.
  Rng rng(seed);
  std::shared_ptr<db::Table> table = workload::Make311Table(rows, &rng);
  shard::ShardedTableOptions shard_options;
  shard_options.num_shards = endpoints.size();
  Result<std::shared_ptr<shard::ShardedTable>> sharded =
      shard::ShardedTable::FromTable(*table, shard_options);
  if (!sharded.ok()) {
    std::fprintf(stderr, "sharding failed: %s\n",
                 sharded.status().ToString().c_str());
    return 1;
  }

  dist::Coordinator coordinator(endpoints, coordinator_options);
  if (!skip_ping) {
    const Status up = coordinator.PingAll(
        coordinator_options.connect_timeout_ms +
        coordinator_options.request_timeout_ms);
    if (!up.ok()) {
      std::fprintf(stderr, "muve_router: downstream not reachable: %s\n",
                   up.ToString().c_str());
      return 1;
    }
  }

  server_options.engine.execution.remote_backend = &coordinator;
  std::shared_ptr<const shard::ShardedTable> view = sharded.value();
  serve::Server server(view, server_options);
  std::fprintf(stderr, "muve_router: %zu rows over %zu remote shards\n",
               view->num_rows(), endpoints.size());

  net::Listener listener(&server, port);
  listener.set_stats_provider(
      [&coordinator] { return coordinator.StatsJson(); });
  const Status started = listener.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "listen failed: %s\n", started.ToString().c_str());
    return 1;
  }
  // The handshake scripts (e2e smoke, README quickstart) wait for this.
  std::printf("LISTENING port=%u\n", static_cast<unsigned>(listener.port()));
  std::fflush(stdout);

  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);
  while (g_stop == 0) {
    ::usleep(50 * 1000);
  }

  listener.Shutdown();
  const net::ListenerStats stats = listener.stats();
  std::fprintf(stderr,
               "muve_router: %llu connections, %llu requests, "
               "%llu protocol errors\n",
               static_cast<unsigned long long>(stats.connections_accepted),
               static_cast<unsigned long long>(stats.requests_served),
               static_cast<unsigned long long>(stats.protocol_errors));
  std::fprintf(stderr, "muve_router: downstream stats %s\n",
               coordinator.StatsJson().c_str());
  return 0;
}

}  // namespace
}  // namespace muve

int main(int argc, char** argv) { return muve::Run(argc, argv); }
