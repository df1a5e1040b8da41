// Remote load generator: runs one RunLoad campaign (tools/load_driver.h)
// against a separate-process muve_serve over the frame protocol, through
// a RemoteTarget of --clients connections. Without --qps the campaign is
// closed loop, --clients requests in flight; with --qps it is open loop
// on a fixed 1/qps schedule. Either way at most --clients requests reach
// the server at once: an arrival waits on the client for a free
// connection, and its latency counts that wait. Each connection is one
// server session.
//
// The query mix is generated against a local reconstruction of the
// server's synthetic table — pass the same --rows/--seed as the server
// so utterances resolve against its schema and value domains.
//
// Flags:
//   --connect=HOST:PORT  server address (required; IPv4 or localhost)
//   --rows=N --seed=N    must match the server (defaults 4000 / 7)
//   --requests=N         total requests (default 100)
//   --clients=N          concurrent connections (default 4)
//   --qps=F              open-loop arrival rate; 0 = closed loop
//   --deadline_ms=F      per-request deadline; 0 = unbounded
//   --tenant=ID          tenant id stamped on every request
//   --replay_fraction=F  fraction submitted as RequestClass::kReplay
//   --json=PATH          write the report JSON here (also on stdout)
//   --dump_answers=PATH  write one hex line per request, in request
//                        order: the deterministic answer bytes
//                        (SerializeAnswerDeterministic). With
//                        --clients=1 two runs against byte-identical
//                        servers produce identical files — the e2e
//                        smoke compares a routed topology against a
//                        single process this way.
//
// --connect also accepts a muve_router: the router speaks the same
// protocol, and its kStats reply (per-shard retry/hedge/ejection
// counters) is embedded in the report as "server_stats".
//
// Exit code 0 iff every request got a well-formed response (answers and
// load sheds both count; protocol errors and transport failures fail).

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "net/connection.h"
#include "net/wire.h"
#include "tools/load_driver.h"
#include "workload/datasets.h"

namespace muve {
namespace {

std::string HexEncode(const std::string& bytes) {
  static const char kDigits[] = "0123456789abcdef";
  std::string out;
  out.reserve(bytes.size() * 2);
  for (unsigned char c : bytes) {
    out.push_back(kDigits[c >> 4]);
    out.push_back(kDigits[c & 0xF]);
  }
  return out;
}

/// The server's kStats reply (a router answers its per-shard
/// retry/hedge/ejection counters). Best-effort: "{}" when unavailable.
std::string FetchServerStats(const std::string& host, uint16_t port) {
  Result<net::Connection> connection =
      net::Connection::Connect(host, port, 0.0);
  if (!connection.ok()) return "{}";
  Result<net::Frame> stats =
      connection->Call(net::FrameType::kStats, "", Deadline::Infinite());
  if (!stats.ok() || stats->type != net::FrameType::kStats ||
      stats->payload.empty()) {
    return "{}";
  }
  return stats->payload;
}

int Run(int argc, char** argv) {
  std::string connect;
  size_t rows = 4000;
  uint64_t seed = 7;
  workload::LoadOptions options;
  options.num_requests = 100;
  options.num_clients = 4;
  double qps = 0.0;
  double deadline_ms = 0.0;
  std::string json_path;
  std::string dump_answers_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&arg](const char* prefix) {
      return arg.substr(std::strlen(prefix));
    };
    if (arg.rfind("--connect=", 0) == 0) {
      connect = value("--connect=");
    } else if (arg.rfind("--rows=", 0) == 0) {
      rows = std::stoul(value("--rows="));
    } else if (arg.rfind("--seed=", 0) == 0) {
      seed = std::stoull(value("--seed="));
    } else if (arg.rfind("--requests=", 0) == 0) {
      options.num_requests = std::stoul(value("--requests="));
    } else if (arg.rfind("--clients=", 0) == 0) {
      options.num_clients =
          std::max<size_t>(1, std::stoul(value("--clients=")));
    } else if (arg.rfind("--qps=", 0) == 0) {
      qps = std::stod(value("--qps="));
    } else if (arg.rfind("--deadline_ms=", 0) == 0) {
      deadline_ms = std::stod(value("--deadline_ms="));
    } else if (arg.rfind("--replay_fraction=", 0) == 0) {
      options.replay_fraction = std::stod(value("--replay_fraction="));
    } else if (arg.rfind("--tenant=", 0) == 0) {
      options.tenant_id = value("--tenant=");
    } else if (arg.rfind("--json=", 0) == 0) {
      json_path = value("--json=");
    } else if (arg.rfind("--dump_answers=", 0) == 0) {
      dump_answers_path = value("--dump_answers=");
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return 2;
    }
  }
  const size_t colon = connect.rfind(':');
  if (connect.empty() || colon == std::string::npos) {
    std::fprintf(stderr, "--connect=HOST:PORT is required\n");
    return 2;
  }
  const std::string host = connect.substr(0, colon);
  const uint16_t port =
      static_cast<uint16_t>(std::stoul(connect.substr(colon + 1)));
  if (qps > 0.0) {
    options.mode = workload::LoadOptions::Mode::kOpenLoop;
    options.offered_qps = qps;
    options.poisson_arrivals = false;
  }
  if (deadline_ms > 0.0) options.deadline_millis = deadline_ms;
  options.seed = seed ^ 0xC0FFEEULL;

  // Reconstruct the server's table to generate resolvable utterances.
  Rng rng(seed);
  std::shared_ptr<db::Table> table = workload::Make311Table(rows, &rng);

  Result<std::unique_ptr<workload::RemoteTarget>> target =
      workload::RemoteTarget::Connect(
          host, port,
          std::min(options.num_clients,
                   std::max<size_t>(1, options.num_requests)));
  if (!target.ok()) {
    std::fprintf(stderr, "cannot connect to %s: %s\n", connect.c_str(),
                 target.status().ToString().c_str());
    return 1;
  }
  // One slot per request index: the dump is in request order whichever
  // connection answered.
  std::vector<std::string> answer_dump(
      dump_answers_path.empty() ? 0 : options.num_requests);
  workload::AnswerSink on_answer;
  if (!answer_dump.empty()) {
    on_answer = [&answer_dump](size_t i, const serve::ServedAnswer& served) {
      answer_dump[i] =
          HexEncode(net::SerializeAnswerDeterministic(served.answer));
    };
  }
  Result<workload::LoadReport> report =
      workload::RunLoad(target->get(), *table, options, on_answer);
  target->reset();  // Closes the campaign's connections before kStats.
  if (!report.ok()) {
    std::fprintf(stderr, "load campaign failed: %s\n",
                 report.status().ToString().c_str());
    return 1;
  }

  if (!dump_answers_path.empty()) {
    std::ofstream dump(dump_answers_path);
    if (!dump) {
      std::fprintf(stderr, "cannot write --dump_answers=%s\n",
                   dump_answers_path.c_str());
      return 1;
    }
    for (size_t i = 0; i < answer_dump.size(); ++i) {
      dump << i << " " << (answer_dump[i].empty() ? "-" : answer_dump[i])
           << "\n";
    }
  }

  // The report object with the server's kStats reply as its last key.
  std::string json = report->ToJson();
  json.resize(json.size() - 2);  // Drops the closing "\n}".
  json += ",\n  \"server_stats\": " + FetchServerStats(host, port) + "\n}\n";
  if (!json_path.empty()) {
    std::ofstream file(json_path);
    if (file) file << json;
  }
  std::fputs(json.c_str(), stdout);

  return report->errors == 0 ? 0 : 1;
}

}  // namespace
}  // namespace muve

int main(int argc, char** argv) { return muve::Run(argc, argv); }
