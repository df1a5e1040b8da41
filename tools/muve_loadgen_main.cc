// Remote load generator: drives a separate-process muve_serve over the
// frame protocol, one net::Connection connection per client thread
// (closed loop, optionally paced).
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
//   --qps=F              paced aggregate arrival rate; 0 = unpaced
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
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "net/connection.h"
#include "net/wire.h"
#include "nlq/translator.h"
#include "workload/datasets.h"
#include "workload/query_generator.h"

namespace muve {
namespace {

struct PlannedRequest {
  std::string utterance;
  serve::RequestClass request_class = serve::RequestClass::kInteractive;
};

struct Outcome {
  bool completed = false;
  bool shed = false;
  bool protocol_error = false;
  bool error = false;
  bool deadline_met = false;
  double latency_ms = 0.0;
};

/// The loadgen's exchanges block: connect without a timeout, wait for
/// each reply without a deadline.
constexpr double kBlockingConnect = 0.0;

/// One kRequest round trip. Server-side rejections (Overloaded, pipeline
/// errors) come back as their decoded Status.
Result<serve::ServedAnswer> Ask(net::Connection& client,
                                const Request& request,
                                serve::RequestClass request_class) {
  MUVE_ASSIGN_OR_RETURN(
      net::Frame reply,
      client.Call(net::FrameType::kRequest,
                  net::SerializeRequestPayload(request, request_class),
                  Deadline::Infinite()));
  if (reply.type != net::FrameType::kAnswer) {
    return Status::ParseError("unexpected frame type " +
                              std::to_string(static_cast<int>(reply.type)));
  }
  return net::ParseServedAnswer(reply.payload);
}

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

double Percentile(std::vector<double>* sorted_in_place, double p) {
  if (sorted_in_place->empty()) return 0.0;
  std::sort(sorted_in_place->begin(), sorted_in_place->end());
  const double rank = p * static_cast<double>(sorted_in_place->size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, sorted_in_place->size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return (*sorted_in_place)[lo] * (1.0 - frac) +
         (*sorted_in_place)[hi] * frac;
}

int Run(int argc, char** argv) {
  std::string connect;
  size_t rows = 4000;
  uint64_t seed = 7;
  size_t num_requests = 100;
  size_t num_clients = 4;
  double qps = 0.0;
  double deadline_ms = 0.0;
  double replay_fraction = 0.0;
  std::string tenant;
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
      num_requests = std::stoul(value("--requests="));
    } else if (arg.rfind("--clients=", 0) == 0) {
      num_clients = std::max<size_t>(1, std::stoul(value("--clients=")));
    } else if (arg.rfind("--qps=", 0) == 0) {
      qps = std::stod(value("--qps="));
    } else if (arg.rfind("--deadline_ms=", 0) == 0) {
      deadline_ms = std::stod(value("--deadline_ms="));
    } else if (arg.rfind("--replay_fraction=", 0) == 0) {
      replay_fraction = std::stod(value("--replay_fraction="));
    } else if (arg.rfind("--tenant=", 0) == 0) {
      tenant = value("--tenant=");
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

  // Reconstruct the server's table to generate resolvable utterances.
  Rng rng(seed);
  std::shared_ptr<db::Table> table = workload::Make311Table(rows, &rng);
  Rng plan_rng(seed ^ 0xC0FFEEULL);
  std::vector<PlannedRequest> planned;
  planned.reserve(num_requests);
  for (size_t i = 0; i < num_requests; ++i) {
    Result<db::AggregateQuery> truth = workload::RandomQuery(*table, &plan_rng);
    if (!truth.ok()) {
      std::fprintf(stderr, "query generation failed: %s\n",
                   truth.status().ToString().c_str());
      return 1;
    }
    PlannedRequest request;
    request.utterance = nlq::VerbalizeQuery(truth.value());
    request.request_class = plan_rng.Bernoulli(replay_fraction)
                                ? serve::RequestClass::kReplay
                                : serve::RequestClass::kInteractive;
    planned.push_back(std::move(request));
  }

  std::mutex outcomes_mutex;
  std::vector<Outcome> outcomes;
  outcomes.reserve(num_requests);
  // Slot per request index, so the dump is in request order even with
  // several client threads racing.
  std::vector<std::string> answer_dump(
      dump_answers_path.empty() ? 0 : planned.size());
  std::atomic<size_t> next{0};
  const auto wall_start = std::chrono::steady_clock::now();
  const double gap_ms = qps > 0.0 ? 1000.0 / qps : 0.0;

  const size_t clients = std::min(num_clients, std::max<size_t>(1, num_requests));
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&] {
      Result<net::Connection> client =
          net::Connection::Connect(host, port, kBlockingConnect);
      for (;;) {
        const size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= planned.size()) return;
        Outcome outcome;
        if (!client.ok()) {
          outcome.error = true;
          std::lock_guard<std::mutex> lock(outcomes_mutex);
          outcomes.push_back(outcome);
          continue;
        }
        if (gap_ms > 0.0) {
          // Pace to the aggregate schedule: request i is due at i*gap.
          std::this_thread::sleep_until(
              wall_start +
              std::chrono::duration_cast<
                  std::chrono::steady_clock::duration>(
                  std::chrono::duration<double, std::milli>(
                      gap_ms * static_cast<double>(i))));
        }
        Request request = Request::Text(planned[i].utterance);
        request.tenant_id = tenant;
        if (deadline_ms > 0.0) {
          request.deadline = Deadline::AfterMillis(deadline_ms);
        }
        const auto sent = std::chrono::steady_clock::now();
        Result<serve::ServedAnswer> answer =
            Ask(*client, request, planned[i].request_class);
        outcome.latency_ms =
            std::chrono::duration<double, std::milli>(
                std::chrono::steady_clock::now() - sent)
                .count();
        if (answer.ok()) {
          outcome.completed = true;
          outcome.deadline_met = answer->deadline_met;
          if (!dump_answers_path.empty()) {
            answer_dump[i] =
                HexEncode(net::SerializeAnswerDeterministic(answer->answer));
          }
        } else if (answer.status().code() == StatusCode::kOverloaded) {
          outcome.shed = true;  // A well-formed load-shed response.
        } else if (answer.status().code() == StatusCode::kParseError) {
          outcome.protocol_error = true;
        } else {
          outcome.error = true;
        }
        std::lock_guard<std::mutex> lock(outcomes_mutex);
        outcomes.push_back(outcome);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  const double duration_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();

  size_t completed = 0, shed = 0, protocol_errors = 0, errors = 0;
  size_t finite_met = 0;
  std::vector<double> latencies;
  for (const Outcome& outcome : outcomes) {
    if (outcome.completed) {
      ++completed;
      latencies.push_back(outcome.latency_ms);
      if (outcome.deadline_met) ++finite_met;
    } else if (outcome.shed) {
      ++shed;
    } else if (outcome.protocol_error) {
      ++protocol_errors;
    } else {
      ++errors;
    }
  }

  // Operational stats from the server (a router answers its per-shard
  // retry/hedge/ejection counters). Best-effort: "{}" when unavailable.
  std::string server_stats = "{}";
  {
    Result<net::Connection> stats_client =
        net::Connection::Connect(host, port, kBlockingConnect);
    if (stats_client.ok()) {
      Result<net::Frame> stats = stats_client->Call(
          net::FrameType::kStats, "", Deadline::Infinite());
      if (stats.ok() && stats->type == net::FrameType::kStats &&
          !stats->payload.empty()) {
        server_stats = stats->payload;
      }
    }
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

  std::ostringstream out;
  out << "{\n";
  out << "  \"requests\": " << outcomes.size() << ",\n";
  out << "  \"completed\": " << completed << ",\n";
  out << "  \"shed\": " << shed << ",\n";
  out << "  \"protocol_errors\": " << protocol_errors << ",\n";
  out << "  \"errors\": " << errors << ",\n";
  out << "  \"duration_seconds\": " << duration_seconds << ",\n";
  out << "  \"sustained_qps\": "
      << (duration_seconds > 0.0
              ? static_cast<double>(completed) / duration_seconds
              : 0.0)
      << ",\n";
  out << "  \"p50_latency_ms\": " << Percentile(&latencies, 0.50) << ",\n";
  out << "  \"p95_latency_ms\": " << Percentile(&latencies, 0.95) << ",\n";
  out << "  \"p99_latency_ms\": " << Percentile(&latencies, 0.99) << ",\n";
  out << "  \"deadline_hit_ratio\": "
      << (deadline_ms > 0.0 && completed > 0
              ? static_cast<double>(finite_met) /
                    static_cast<double>(completed)
              : 1.0)
      << ",\n";
  out << "  \"server_stats\": " << server_stats << "\n";
  out << "}\n";
  if (!json_path.empty()) {
    std::ofstream file(json_path);
    if (file) file << out.str();
  }
  std::fputs(out.str().c_str(), stdout);

  return (protocol_errors == 0 && errors == 0) ? 0 : 1;
}

}  // namespace
}  // namespace muve

int main(int argc, char** argv) { return muve::Run(argc, argv); }
