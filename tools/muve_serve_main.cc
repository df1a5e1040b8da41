// Standalone MUVE server over the frame protocol (net::Listener).
//
// The serving table is the synthetic 311 dataset, deterministic in
// --rows/--seed — a remote muve_loadgen regenerates the same table from
// the same two flags to produce utterances that resolve against this
// server's schema and value domains.
//
// Flags:
//   --port=N          TCP port; 0 (default) picks an ephemeral port.
//                     Prints "LISTENING port=N" once ready either way.
//   --rows=N          synthetic table size (default 4000)
//   --seed=N          dataset RNG seed (default 7)
//   --num_shards=K    1 (default) serves the single-table oracle path;
//                     K > 1 partitions into K hash shards
//   --shard_index=I   shard-server mode: partition into --num_shards
//                     stripes, keep stripe I, and serve kPartialQuery
//                     frames only (for a muve_router upstream). The full
//                     query surface (kRequest) answers an Error frame.
//   --workers=N       server worker threads (default 4)
//   --queue_depth=N   admission queue bound (default 64)
//   --floor_ms=F      feasibility floor in ms (default 0 = off)
//   --tenant=ID:RATE:BURST:WEIGHT
//                     per-tenant quota (repeatable); RATE 0 = unlimited
//
// Runs until SIGINT/SIGTERM, then drains and exits 0.

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <unistd.h>

#include "common/rng.h"
#include "dist/shard_service.h"
#include "net/listener.h"
#include "serve/server.h"
#include "shard/sharded_table.h"
#include "workload/datasets.h"

namespace muve {
namespace {

volatile std::sig_atomic_t g_stop = 0;

void HandleSignal(int) { g_stop = 1; }

bool ParseTenantFlag(const std::string& value, std::string* id,
                     serve::TenantQuota* quota) {
  // ID:RATE:BURST:WEIGHT with the numeric tail optional.
  size_t pos = value.find(':');
  if (pos == std::string::npos || pos == 0) return false;
  *id = value.substr(0, pos);
  double fields[3] = {0.0, 8.0, 1.0};
  size_t field = 0;
  size_t start = pos + 1;
  while (field < 3) {
    const size_t next = value.find(':', start);
    const std::string token = value.substr(
        start, next == std::string::npos ? std::string::npos : next - start);
    if (token.empty()) return false;
    char* end = nullptr;
    fields[field] = std::strtod(token.c_str(), &end);
    if (end == nullptr || *end != '\0') return false;
    ++field;
    if (next == std::string::npos) break;
    start = next + 1;
  }
  quota->rate_qps = fields[0];
  quota->burst = fields[1];
  quota->weight = fields[2];
  return true;
}

int Run(int argc, char** argv) {
  uint16_t port = 0;
  size_t rows = 4000;
  uint64_t seed = 7;
  size_t num_shards = 1;
  long shard_index = -1;
  serve::ServerOptions server_options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&arg](const char* prefix) {
      return arg.substr(std::strlen(prefix));
    };
    if (arg.rfind("--port=", 0) == 0) {
      port = static_cast<uint16_t>(std::stoul(value("--port=")));
    } else if (arg.rfind("--rows=", 0) == 0) {
      rows = std::stoul(value("--rows="));
    } else if (arg.rfind("--seed=", 0) == 0) {
      seed = std::stoull(value("--seed="));
    } else if (arg.rfind("--num_shards=", 0) == 0) {
      num_shards = std::stoul(value("--num_shards="));
    } else if (arg.rfind("--shard_index=", 0) == 0) {
      shard_index = std::stol(value("--shard_index="));
    } else if (arg.rfind("--workers=", 0) == 0) {
      server_options.num_workers = std::stoul(value("--workers="));
    } else if (arg.rfind("--queue_depth=", 0) == 0) {
      server_options.max_queue_depth = std::stoul(value("--queue_depth="));
    } else if (arg.rfind("--floor_ms=", 0) == 0) {
      server_options.feasibility_floor_millis =
          std::stod(value("--floor_ms="));
    } else if (arg.rfind("--tenant=", 0) == 0) {
      std::string id;
      serve::TenantQuota quota;
      if (!ParseTenantFlag(value("--tenant="), &id, &quota)) {
        std::fprintf(stderr,
                     "bad --tenant (want ID:RATE[:BURST[:WEIGHT]]): %s\n",
                     arg.c_str());
        return 2;
      }
      server_options.tenant_quotas[id] = quota;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return 2;
    }
  }

  Rng rng(seed);
  std::shared_ptr<db::Table> table = workload::Make311Table(rows, &rng);

  if (shard_index >= 0) {
    // Shard-server mode: carve the deterministic table the same way the
    // router does, keep one stripe, answer partial queries only.
    if (num_shards < 2 || static_cast<size_t>(shard_index) >= num_shards) {
      std::fprintf(stderr,
                   "--shard_index=%ld needs --num_shards=K with K > 1 and "
                   "index < K\n",
                   shard_index);
      return 2;
    }
    shard::ShardedTableOptions shard_options;
    shard_options.num_shards = num_shards;
    Result<std::shared_ptr<shard::ShardedTable>> sharded =
        shard::ShardedTable::FromTable(*table, shard_options);
    if (!sharded.ok()) {
      std::fprintf(stderr, "sharding failed: %s\n",
                   sharded.status().ToString().c_str());
      return 1;
    }
    dist::ShardService service(
        sharded.value()->shard(static_cast<size_t>(shard_index)));
    net::Listener listener(/*server=*/nullptr, port);
    listener.set_partial_handler(&service);
    const Status started = listener.Start();
    if (!started.ok()) {
      std::fprintf(stderr, "listen failed: %s\n", started.ToString().c_str());
      return 1;
    }
    // The handshake scripts (e2e smoke, README quickstart) wait for this.
    std::printf("LISTENING port=%u\n", static_cast<unsigned>(listener.port()));
    std::fflush(stdout);
    std::fprintf(stderr, "muve_serve: shard %ld/%zu, %zu of %zu rows\n",
                 shard_index, num_shards,
                 sharded.value()->shard(static_cast<size_t>(shard_index))
                     ->num_rows(),
                 table->num_rows());
    std::signal(SIGINT, HandleSignal);
    std::signal(SIGTERM, HandleSignal);
    while (g_stop == 0) {
      ::usleep(50 * 1000);
    }
    listener.Shutdown();
    std::fprintf(stderr, "muve_serve: shard served %llu, failed %llu\n",
                 static_cast<unsigned long long>(service.queries_served()),
                 static_cast<unsigned long long>(service.queries_failed()));
    return 0;
  }

  std::shared_ptr<const db::Relation> relation = table;
  if (num_shards > 1) {
    shard::ShardedTableOptions shard_options;
    shard_options.num_shards = num_shards;
    Result<std::shared_ptr<shard::ShardedTable>> sharded =
        shard::ShardedTable::FromTable(*table, shard_options);
    if (!sharded.ok()) {
      std::fprintf(stderr, "sharding failed: %s\n",
                   sharded.status().ToString().c_str());
      return 1;
    }
    relation = sharded.value();
    std::fprintf(stderr, "muve_serve: %zu rows over %zu shards\n",
                 relation->num_rows(), num_shards);
  } else {
    std::fprintf(stderr, "muve_serve: %zu rows, single table\n",
                 table->num_rows());
  }
  serve::Server server(relation, server_options);

  net::Listener listener(&server, port);
  const Status started = listener.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "listen failed: %s\n",
                 started.ToString().c_str());
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
               "muve_serve: %llu connections, %llu requests, "
               "%llu protocol errors\n",
               static_cast<unsigned long long>(stats.connections_accepted),
               static_cast<unsigned long long>(stats.requests_served),
               static_cast<unsigned long long>(stats.protocol_errors));
  return 0;
}

}  // namespace
}  // namespace muve

int main(int argc, char** argv) { return muve::Run(argc, argv); }
