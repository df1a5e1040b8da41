#ifndef MUVE_WORKLOAD_LOAD_GENERATOR_H_
#define MUVE_WORKLOAD_LOAD_GENERATOR_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "db/table.h"
#include "serve/server.h"
#include "workload/query_generator.h"

namespace muve::workload {

/// A load-generation campaign against a serve::Server.
struct LoadOptions {
  /// Closed loop: `num_clients` callers each keep exactly one request in
  /// flight (submit, wait, repeat) — throughput self-limits to what the
  /// server sustains. Open loop: requests arrive on a fixed schedule at
  /// `offered_qps` regardless of completions — the regime where an
  /// overloaded server must shed rather than queue unboundedly.
  enum class Mode { kClosedLoop, kOpenLoop };

  Mode mode = Mode::kClosedLoop;
  size_t num_requests = 200;
  /// Closed-loop concurrency (ignored in open loop).
  size_t num_clients = 4;
  /// Open-loop arrival rate (ignored in closed loop).
  double offered_qps = 100.0;
  /// Open loop: exponential (Poisson) interarrivals when true, a fixed
  /// 1/offered_qps spacing when false.
  bool poisson_arrivals = true;
  /// Requests are spread round-robin-randomly over this many sessions.
  size_t num_sessions = 8;
  /// Per-request end-to-end budget; infinity = unbounded requests.
  double deadline_millis = std::numeric_limits<double>::infinity();
  /// Fraction of requests submitted as RequestClass::kReplay.
  double replay_fraction = 0.0;
  /// Probability a request reuses an earlier utterance instead of a
  /// fresh random query — repeats exercise the plan memo and give
  /// concurrent single-flight collisions something to coalesce.
  double repeat_probability = 0.3;
  /// Tenant id stamped on every request of this campaign (empty = the
  /// default tenant). Concurrent campaigns with different tenant ids
  /// against one server exercise quota clipping and weighted fair
  /// dequeue — the tenant-isolation benchmark runs exactly that.
  std::string tenant_id;
  uint64_t seed = 1;
  /// Streaming ingest: > 0 runs one writer thread for the duration of
  /// the campaign, appending synthesized rows to the serving table at
  /// this rate (rows/second; infinity = unpaced, append as fast as the
  /// table absorbs). Rows are drawn from the table's own value domains,
  /// deterministically in `seed`. Requires the mutable RunLoad overload
  /// — the const overload rejects a nonzero rate.
  double ingest_qps = 0.0;
  /// Streaming ingest: the writer seals a columnar run every this many
  /// appends (0 leaves sealing to the table's own flush threshold).
  size_t ingest_flush_every = 256;
  /// Shape of the generated ground-truth queries.
  QueryGeneratorOptions query;
};

/// Aggregated outcome of one campaign.
struct LoadReport {
  size_t requests = 0;
  size_t completed = 0;
  /// Overloaded outcomes: admission rejections and dispatch sheds.
  size_t shed = 0;
  /// Non-Overloaded failures (pipeline errors, server stopped).
  size_t errors = 0;
  double duration_seconds = 0.0;
  /// Arrival rate actually driven (scheduled rate in open loop,
  /// requests/duration in closed loop).
  double offered_qps = 0.0;
  /// Completions per second of wall clock.
  double sustained_qps = 0.0;
  double p50_latency_ms = 0.0;
  double p95_latency_ms = 0.0;
  double p99_latency_ms = 0.0;
  double mean_latency_ms = 0.0;
  /// Translator-stage wall clock over completed requests. Requests whose
  /// front half replayed from the plan memo (or rode a single-flight
  /// leader) skipped translation and count as 0 here, so these track the
  /// phonetic front half's cost as the caches see it, not the cold cost.
  double translate_p50_ms = 0.0;
  double translate_p99_ms = 0.0;
  double translate_mean_ms = 0.0;
  double shed_ratio = 0.0;  ///< shed / requests.
  /// Among completed finite-deadline requests: answered in budget.
  double deadline_hit_ratio = 1.0;
  /// Completions served from a single-flight leader's execution.
  size_t shared_answers = 0;
  double single_flight_hit_ratio = 0.0;  ///< shared / completed.
  /// Degradation rungs of completed answers (exact / degraded-plan /
  /// base-only).
  size_t rung_histogram[3] = {0, 0, 0};
  /// Streaming ingest (ingest_qps > 0): rows appended while the
  /// campaign ran, the achieved append rate, and runs the writer sealed.
  size_t ingested_rows = 0;
  double ingest_sustained_qps = 0.0;
  size_t ingest_flushes = 0;
  /// Server funnel counters, as deltas over the campaign.
  serve::ServerStats server;

  /// Renders as a JSON object (no trailing newline), e.g. for embedding
  /// in BENCH_server.json. `indent` prefixes every line.
  std::string ToJson(const std::string& indent = "") const;
};

/// Runs one campaign: generates `num_requests` natural-language requests
/// from random ground-truth queries against `table` (the server's own
/// table), drives `server` in the configured mode, and aggregates the
/// outcomes. The schedule and query mix are deterministic in
/// `options.seed`; actual interleaving under concurrency is not.
Result<LoadReport> RunLoad(serve::Server* server, const db::Table& table,
                           const LoadOptions& options);

/// As above against the mutable serving table: when options.ingest_qps
/// is nonzero, one writer thread streams appends into `table` — the
/// single-writer side of the snapshot contract — for the duration of the
/// campaign, so reads race live ingest, run seals, and compaction.
Result<LoadReport> RunLoad(serve::Server* server, db::Table* table,
                           const LoadOptions& options);

}  // namespace muve::workload

#endif  // MUVE_WORKLOAD_LOAD_GENERATOR_H_
