// Live-ingest benchmark: drives the same closed-loop read mix twice —
// once against a quiescent table (baseline) and once while a writer
// streams appends at --ingest_qps through the load generator's ingest
// mode (sealing runs as it goes, with background compaction armed) —
// and emits BENCH_ingest.json with the achieved append rate and the read
// p50/p99 under ingest vs baseline.
//
// Flags:
//   --muve_ingest_json=PATH  where to write the JSON report
//   --ingest_qps=N           writer pacing (rows/second; default 2000
//                            smoke, 5000 soak)
//   --soak                   scaled-up run (ctest label "soak", run by
//                            scripts/check.sh --full)

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "serve/server.h"
#include "workload/datasets.h"
#include "workload/load_generator.h"

namespace muve {
namespace {

using workload::LoadOptions;
using workload::LoadReport;

int Fail(const std::string& phase, const std::string& message) {
  std::fprintf(stderr, "bench_ingest: %s: %s\n", phase.c_str(),
               message.c_str());
  return 1;
}

int RunBench(const std::string& json_path, double ingest_qps, bool soak) {
  Rng rng(7);
  const size_t num_rows = soak ? 20000 : 4000;
  std::shared_ptr<db::Table> table = workload::Make311Table(num_rows, &rng);
  // Seal the initial load into a columnar run so reads scan column
  // batches from the start, and arm background compaction so the
  // ingest phase exercises run retirement while queries execute.
  table->Flush();
  ThreadPool compaction_pool(2);
  table->EnableBackgroundCompaction(&compaction_pool);

  serve::ServerOptions server_options;
  server_options.num_workers = 4;
  server_options.max_queue_depth = 64;

  LoadOptions read_load;
  read_load.mode = LoadOptions::Mode::kClosedLoop;
  read_load.num_clients = 4;
  read_load.num_requests = soak ? 1200 : 150;
  read_load.num_sessions = 4;
  // A repeat-heavy mix keeps the session plan memo busy while appends
  // land in the scanned table.
  read_load.repeat_probability = 0.6;
  read_load.seed = 21;

  // Phase A — baseline: the identical read mix with the writer off.
  LoadReport baseline;
  {
    serve::Server server(table, server_options);
    Result<LoadReport> result = workload::RunLoad(&server, *table, read_load);
    if (!result.ok()) return Fail("baseline", result.status().ToString());
    baseline = result.value();
  }
  if (baseline.errors > 0 || baseline.completed == 0) {
    return Fail("baseline", "pipeline errors in the read-only phase");
  }

  // Phase B — live ingest: same mix, writer streaming at ingest_qps.
  read_load.seed = 22;
  read_load.ingest_qps = ingest_qps;
  read_load.ingest_flush_every = 256;
  LoadReport ingest;
  const size_t rows_before_ingest = table->num_rows();
  {
    serve::Server server(table, server_options);
    Result<LoadReport> result =
        workload::RunLoad(&server, table.get(), read_load);
    if (!result.ok()) return Fail("ingest", result.status().ToString());
    ingest = result.value();
  }
  if (ingest.errors > 0 || ingest.completed == 0) {
    return Fail("ingest", "pipeline errors under live ingest");
  }
  if (ingest.ingested_rows == 0) {
    return Fail("ingest", "writer appended no rows");
  }
  if (table->num_rows() != rows_before_ingest + ingest.ingested_rows) {
    return Fail("ingest", "table row count disagrees with ingested_rows");
  }

  std::ostringstream out;
  out << "{\n";
  out << "  \"benchmark\": \"" << (soak ? "ingest_soak" : "ingest_smoke")
      << "\",\n";
  out << "  \"num_rows_initial\": " << num_rows << ",\n";
  out << "  \"ingest_qps_offered\": " << ingest_qps << ",\n";
  out << "  \"ingest_qps_sustained\": " << ingest.ingest_sustained_qps
      << ",\n";
  out << "  \"ingested_rows\": " << ingest.ingested_rows << ",\n";
  out << "  \"ingest_flushes\": " << ingest.ingest_flushes << ",\n";
  out << "  \"read_p50_ms_baseline\": " << baseline.p50_latency_ms << ",\n";
  out << "  \"read_p99_ms_baseline\": " << baseline.p99_latency_ms << ",\n";
  out << "  \"read_p50_ms_ingest\": " << ingest.p50_latency_ms << ",\n";
  out << "  \"read_p99_ms_ingest\": " << ingest.p99_latency_ms << ",\n";
  out << "  \"read_qps_baseline\": " << baseline.sustained_qps << ",\n";
  out << "  \"read_qps_ingest\": " << ingest.sustained_qps << ",\n";
  out << "  \"baseline\": " << baseline.ToJson("  ") << ",\n";
  out << "  \"ingest\": " << ingest.ToJson("  ") << "\n";
  out << "}\n";

  if (!json_path.empty()) {
    std::ofstream file(json_path);
    if (!file) return Fail("report", "cannot write " + json_path);
    file << out.str();
  }
  std::fputs(out.str().c_str(), stdout);
  return 0;
}

}  // namespace
}  // namespace muve

int main(int argc, char** argv) {
  std::string json_path = "BENCH_ingest.json";
  bool soak = false;
  double ingest_qps = 0.0;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--muve_ingest_json=", 19) == 0) {
      json_path = arg + 19;
    } else if (std::strncmp(arg, "--ingest_qps=", 13) == 0) {
      ingest_qps = std::atof(arg + 13);
    } else if (std::strcmp(arg, "--soak") == 0) {
      soak = true;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg);
      return 2;
    }
  }
  if (ingest_qps <= 0.0) ingest_qps = soak ? 5000.0 : 2000.0;
  return muve::RunBench(json_path, ingest_qps, soak);
}
