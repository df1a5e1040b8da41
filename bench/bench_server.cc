// Serving front-end benchmark: measures the single-thread sustainable
// QPS closed-loop, then drives the 8-worker server open-loop at 2x that
// rate (the ISSUE acceptance regime: shed or degrade, never queue
// unboundedly) and at a 20x saturation rate that forces visible load
// shedding. Emits BENCH_server.json with offered vs sustained QPS,
// latency percentiles, the shed ratio, the single-flight hit ratio, and
// the deadline-hit ratio of admitted requests.
//
// Flags:
//   --muve_server_json=PATH  where to write the JSON report
//   --soak                   scaled-up open-loop phases (ctest label
//                            "soak", run by scripts/check.sh --full)

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "serve/server.h"
#include "tools/load_driver.h"
#include "workload/datasets.h"

namespace muve {
namespace {

using workload::LoadOptions;
using workload::LoadReport;

struct PhaseResult {
  std::string name;
  LoadReport report;
};

int Fail(const std::string& phase, const std::string& message) {
  std::fprintf(stderr, "bench_server: %s: %s\n", phase.c_str(),
               message.c_str());
  return 1;
}

/// Alternating isolated/contended gold campaigns in the isolation phase.
constexpr int kIsolationRounds = 5;

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n == 0 ? 0.0 : (values[(n - 1) / 2] + values[n / 2]) / 2.0;
}

std::string JsonList(const std::vector<double>& values) {
  std::ostringstream out;
  out << "[";
  for (size_t i = 0; i < values.size(); ++i) {
    out << (i == 0 ? "" : ", ") << values[i];
  }
  out << "]";
  return out.str();
}

size_t ScaleRequests(double target_seconds, double qps, size_t lo,
                     size_t hi) {
  const double n = target_seconds * qps;
  return std::min<size_t>(hi, std::max<size_t>(lo, static_cast<size_t>(n)));
}

int RunBench(const std::string& json_path, bool soak) {
  Rng rng(7);
  const size_t num_rows = soak ? 20000 : 4000;
  std::shared_ptr<db::Table> table = workload::Make311Table(num_rows, &rng);

  // Phase A — calibrate: one worker, one closed-loop client, unbounded
  // deadlines. sustained_qps here is the single-thread sustainable rate
  // every other phase is scaled from, so the benchmark adapts to the
  // machine and to sanitizer builds without hand-tuned rates.
  serve::ServerOptions calibration_server;
  calibration_server.num_workers = 1;
  calibration_server.max_queue_depth = 4;
  LoadOptions calibration_load;
  calibration_load.mode = LoadOptions::Mode::kClosedLoop;
  calibration_load.num_clients = 1;
  calibration_load.num_requests = soak ? 200 : 60;
  calibration_load.num_sessions = 4;
  calibration_load.repeat_probability = 0.35;
  calibration_load.seed = 11;
  LoadReport calibration;
  {
    serve::Server server(table, calibration_server);
    workload::InProcessTarget target(&server);
    Result<LoadReport> result = workload::RunLoad(&target, *table,
                                                  calibration_load);
    if (!result.ok()) {
      return Fail("calibration", result.status().ToString());
    }
    calibration = result.value();
  }
  if (calibration.errors > 0 || calibration.completed == 0) {
    return Fail("calibration", "pipeline errors under unbounded deadlines");
  }
  const double qps1 = std::max(calibration.sustained_qps, 1.0);
  const double mean_ms = std::max(calibration.mean_latency_ms, 0.1);

  // Phase B — the acceptance regime: 8 workers, open loop at 2x the
  // single-thread sustainable rate. Deadlines carry a 30x service-time
  // margin, the queue is short, and the feasibility floor sheds any
  // request whose budget drained in the queue — so admitted requests
  // overwhelmingly meet their deadlines.
  serve::ServerOptions overload_server;
  overload_server.num_workers = 8;
  overload_server.max_queue_depth = 16;
  overload_server.feasibility_floor_millis = std::max(0.5, 0.5 * mean_ms);
  LoadOptions overload_load;
  overload_load.mode = LoadOptions::Mode::kOpenLoop;
  overload_load.offered_qps = 2.0 * qps1;
  overload_load.num_requests =
      ScaleRequests(soak ? 10.0 : 2.0, overload_load.offered_qps,
                    soak ? 400 : 80, soak ? 5000 : 800);
  overload_load.num_sessions = 8;
  overload_load.deadline_millis = std::max(250.0, 30.0 * mean_ms);
  overload_load.replay_fraction = 0.2;
  overload_load.repeat_probability = 0.35;
  overload_load.seed = 12;
  LoadReport overload;
  {
    serve::Server server(table, overload_server);
    workload::InProcessTarget target(&server);
    Result<LoadReport> result =
        workload::RunLoad(&target, *table, overload_load);
    if (!result.ok()) return Fail("overload_2x", result.status().ToString());
    overload = result.value();
  }
  if (overload.errors > 0) {
    return Fail("overload_2x", "unexpected pipeline errors");
  }

  // Phase C — saturation: 20x the single-thread rate against the same
  // 8 workers with tight deadlines. Here the server must shed; the
  // point of this phase is a visibly non-zero shed ratio with the
  // survivors still meeting their deadlines.
  serve::ServerOptions saturation_server;
  saturation_server.num_workers = 8;
  saturation_server.max_queue_depth = 8;
  saturation_server.feasibility_floor_millis = std::max(1.0, mean_ms);
  LoadOptions saturation_load;
  saturation_load.mode = LoadOptions::Mode::kOpenLoop;
  saturation_load.offered_qps = 20.0 * qps1;
  saturation_load.num_requests =
      ScaleRequests(soak ? 5.0 : 1.0, saturation_load.offered_qps,
                    soak ? 500 : 100, soak ? 8000 : 1200);
  saturation_load.num_sessions = 8;
  saturation_load.deadline_millis = std::max(50.0, 6.0 * mean_ms);
  saturation_load.replay_fraction = 0.2;
  saturation_load.repeat_probability = 0.35;
  saturation_load.seed = 13;
  LoadReport saturation;
  {
    serve::Server server(table, saturation_server);
    workload::InProcessTarget target(&server);
    Result<LoadReport> result =
        workload::RunLoad(&target, *table, saturation_load);
    if (!result.ok()) return Fail("saturation", result.status().ToString());
    saturation = result.value();
  }
  if (saturation.errors > 0) {
    return Fail("saturation", "unexpected pipeline errors");
  }

  // Phase D — tenant isolation: a light "gold" tenant first runs alone
  // (isolated baseline), then reruns the identical schedule while a
  // "flood" tenant offers 10x the single-thread sustainable rate at the
  // same server. The flood tenant is clipped by its token bucket and
  // deprioritized by weighted fair dequeue; the acceptance signal is
  // gold's median contended p99 staying within 2x of its median isolated
  // p99 over kIsolationRounds alternating rounds.
  serve::ServerOptions tenant_server;
  tenant_server.num_workers = 4;
  // Deep enough that admitted work queues instead of bouncing: the
  // queue bound is global, so queue-full rejections hit the light
  // tenant too — isolation should come from the quota clip and the
  // weighted fair dequeue, not from racing for slots.
  tenant_server.max_queue_depth = 64;
  tenant_server.feasibility_floor_millis = std::max(0.5, 0.5 * mean_ms);
  tenant_server.tenant_quotas["gold"] = {/*rate_qps=*/0.0, /*burst=*/8.0,
                                         /*weight=*/8.0};
  // Quotas are capacity planning: isolation is only achievable when the
  // sum of admitted contracts fits the machine (the host may well be a
  // single core, in which case extra workers buy nothing), so the flood
  // contract is sized such that gold (0.25x) plus flood (0.2x) stays
  // under half of the calibrated single-thread capacity. The clip and
  // the weighted fair dequeue then keep the 10x offered overload from
  // translating into queueing delay for gold. A shallow burst makes the
  // clip engage within the campaign instead of hiding inside one big
  // initial allowance.
  tenant_server.tenant_quotas["flood"] = {0.2 * qps1, 4.0, 1.0};

  LoadOptions gold_load;
  gold_load.mode = LoadOptions::Mode::kOpenLoop;
  gold_load.offered_qps = std::max(1.0, 0.25 * qps1);
  gold_load.num_requests =
      ScaleRequests(soak ? 4.0 : 2.0, gold_load.offered_qps, soak ? 100 : 60,
                    soak ? 1000 : 300);
  gold_load.num_sessions = 2;
  gold_load.deadline_millis = std::max(250.0, 30.0 * mean_ms);
  gold_load.repeat_probability = 0.35;
  // All-interactive: class priority is strict and global, so any replay
  // requests the gold tenant submitted would legitimately starve behind
  // the flood's interactive backlog. Isolation is a promise about the
  // latency-sensitive class; it is measured on that class.
  gold_load.replay_fraction = 0.0;
  gold_load.tenant_id = "gold";
  gold_load.seed = 14;

  LoadOptions flood_load;
  flood_load.mode = LoadOptions::Mode::kOpenLoop;
  // 10x overload relative to the flood's own contract: the tenant
  // offers ten times what its token bucket admits, so nine in ten of
  // its requests bounce off the quota for the whole campaign.
  flood_load.offered_qps = 10.0 * tenant_server.tenant_quotas["flood"].rate_qps;
  // The flood must outlast the gold campaign so every gold request is
  // measured under contention — a short squall would leave most of the
  // gold percentile distribution uncontended. Offered requests beyond
  // the quota are rejected at the token bucket for the cost of a
  // counter bump, so the high cap is cheap.
  flood_load.num_requests =
      ScaleRequests(soak ? 4.5 : 2.25, flood_load.offered_qps,
                    soak ? 500 : 100, soak ? 20000 : 5000);
  flood_load.num_sessions = 6;
  flood_load.deadline_millis = std::max(250.0, 30.0 * mean_ms);
  flood_load.repeat_probability = 0.35;
  flood_load.tenant_id = "flood";
  flood_load.seed = 15;

  // One gold p99 over a few hundred requests is too few samples for a 2x
  // bound, so the two campaigns alternate kIsolationRounds times (drift
  // in the machine's load then hits both alike) and the check compares
  // their median p99s. The reports kept are the last round's.
  LoadReport gold_isolated;
  LoadReport gold_contended;
  LoadReport flood_contended;
  serve::TenantCounters gold_counters;
  serve::TenantCounters flood_counters;
  std::vector<double> isolated_p99s;
  std::vector<double> contended_p99s;
  for (int round = 0; round < kIsolationRounds; ++round) {
    {
      serve::Server server(table, tenant_server);
      workload::InProcessTarget target(&server);
      Result<LoadReport> result =
          workload::RunLoad(&target, *table, gold_load);
      if (!result.ok()) {
        return Fail("tenant_isolated", result.status().ToString());
      }
      gold_isolated = result.value();
    }
    if (gold_isolated.errors > 0) {
      return Fail("tenant_isolated", "unexpected pipeline errors");
    }
    {
      serve::Server server(table, tenant_server);
      workload::InProcessTarget target(&server);
      Result<LoadReport> gold_result = LoadReport{};
      Result<LoadReport> flood_result = LoadReport{};
      std::thread flood_thread([&] {
        flood_result = workload::RunLoad(&target, *table, flood_load);
      });
      gold_result = workload::RunLoad(&target, *table, gold_load);
      flood_thread.join();
      if (!gold_result.ok()) {
        return Fail("tenant_contended", gold_result.status().ToString());
      }
      if (!flood_result.ok()) {
        return Fail("tenant_contended", flood_result.status().ToString());
      }
      gold_contended = gold_result.value();
      flood_contended = flood_result.value();
      gold_counters = server.tenant_counters("gold");
      flood_counters = server.tenant_counters("flood");
    }
    if (gold_contended.errors > 0 || flood_contended.errors > 0) {
      return Fail("tenant_contended", "unexpected pipeline errors");
    }
    isolated_p99s.push_back(gold_isolated.p99_latency_ms);
    contended_p99s.push_back(gold_contended.p99_latency_ms);
  }
  const double isolated_p99 = Median(isolated_p99s);
  const double contended_p99 = Median(contended_p99s);
  const double isolation_ratio =
      isolated_p99 > 0.0 ? contended_p99 / isolated_p99 : 0.0;

  std::ostringstream out;
  out << "{\n";
  out << "  \"benchmark\": \"" << (soak ? "server_soak" : "server_smoke")
      << "\",\n";
  out << "  \"num_rows\": " << num_rows << ",\n";
  out << "  \"workers\": 8,\n";
  out << "  \"single_thread_sustainable_qps\": " << qps1 << ",\n";
  // Headline numbers come from the acceptance regime (phase B).
  out << "  \"offered_qps\": " << overload.offered_qps << ",\n";
  out << "  \"sustained_qps\": " << overload.sustained_qps << ",\n";
  out << "  \"p50_latency_ms\": " << overload.p50_latency_ms << ",\n";
  out << "  \"p99_latency_ms\": " << overload.p99_latency_ms << ",\n";
  out << "  \"shed_ratio\": " << overload.shed_ratio << ",\n";
  out << "  \"single_flight_hit_ratio\": "
      << overload.single_flight_hit_ratio << ",\n";
  out << "  \"deadline_hit_ratio\": " << overload.deadline_hit_ratio
      << ",\n";
  // Tenant isolation (phase D): headline p99s and the funnel counters
  // that show the flood tenant being clipped.
  out << "  \"tenant_isolation\": {\n";
  out << "    \"gold_offered_qps\": " << gold_load.offered_qps << ",\n";
  out << "    \"flood_offered_qps\": " << flood_load.offered_qps << ",\n";
  out << "    \"isolation_rounds\": " << kIsolationRounds << ",\n";
  out << "    \"gold_isolated_p99s_ms\": " << JsonList(isolated_p99s)
      << ",\n";
  out << "    \"gold_contended_p99s_ms\": " << JsonList(contended_p99s)
      << ",\n";
  // Medians over the rounds.
  out << "    \"gold_isolated_p99_ms\": " << isolated_p99 << ",\n";
  out << "    \"gold_contended_p99_ms\": " << contended_p99 << ",\n";
  out << "    \"isolation_ratio\": " << isolation_ratio << ",\n";
  out << "    \"gold_contended_completed\": " << gold_contended.completed
      << ",\n";
  out << "    \"gold_contended_shed\": " << gold_contended.shed << ",\n";
  out << "    \"flood_contended_completed\": " << flood_contended.completed
      << ",\n";
  out << "    \"flood_rejected_quota\": " << flood_counters.rejected_quota
      << ",\n";
  out << "    \"flood_shed\": " << flood_counters.shed << ",\n";
  out << "    \"gold_admitted\": " << gold_counters.admitted << ",\n";
  out << "    \"gold_isolated\": " << gold_isolated.ToJson("    ") << ",\n";
  out << "    \"gold_contended\": " << gold_contended.ToJson("    ")
      << ",\n";
  out << "    \"flood_contended\": " << flood_contended.ToJson("    ")
      << "\n";
  out << "  },\n";
  out << "  \"calibration\": " << calibration.ToJson("  ") << ",\n";
  out << "  \"overload_2x\": " << overload.ToJson("  ") << ",\n";
  out << "  \"saturation\": " << saturation.ToJson("  ") << "\n";
  out << "}\n";

  if (!json_path.empty()) {
    std::ofstream file(json_path);
    if (!file) return Fail("report", "cannot write " + json_path);
    file << out.str();
  }
  std::fputs(out.str().c_str(), stdout);

  if (overload.deadline_hit_ratio < 0.95) {
    // Don't hard-fail: on a loaded CI machine an open-loop run can
    // transiently miss; the JSON and this warning carry the signal.
    std::fprintf(stderr,
                 "bench_server: WARNING: deadline_hit_ratio %.3f < 0.95 "
                 "in the 2x overload phase\n",
                 overload.deadline_hit_ratio);
  }
  if (isolation_ratio > 2.0) {
    std::fprintf(stderr,
                 "bench_server: WARNING: gold tenant median p99 degraded "
                 "%.2fx under 10x flood over %d rounds (isolated %.3f ms, "
                 "contended %.3f ms; acceptance asks <= 2x)\n",
                 isolation_ratio, kIsolationRounds, isolated_p99,
                 contended_p99);
  }
  return 0;
}

}  // namespace
}  // namespace muve

int main(int argc, char** argv) {
  std::string json_path = "BENCH_server.json";
  bool soak = false;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--muve_server_json=", 19) == 0) {
      json_path = arg + 19;
    } else if (std::strcmp(arg, "--soak") == 0) {
      soak = true;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg);
      return 2;
    }
  }
  return muve::RunBench(json_path, soak);
}
