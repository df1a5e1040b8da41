// The MUVE benchmark harness: one load process drives one workload for a
// fixed window and prints every end-to-end metric (or, with --trace 1,
// every per-layer metric) as a final JSON line. README.md explains the
// workloads, the metrics and how to run it; run.py builds and invokes
// this binary.
//
//   muve_bench --workload voice_4k --seed 1 --seconds 20 --trace 0
//              [--trace_out FILE]
//
// Load is an open loop: Poisson arrivals at a fixed rate, generated from
// the seed before the clock starts, and every latency is timed from the
// request's due time. A run sets its topology up several times and keeps
// the last one; setup_s is the median CPU time of the set-ups. The
// process exits non-zero when any correctness check fails.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/greedy_planner.h"
#include "dist/coordinator.h"
#include "dist/shard_service.h"
#include "harness.h"
#include "muve/muve_engine.h"
#include "net/listener.h"
#include "net/wire.h"
#include "nlq/candidate_generator.h"
#include "nlq/translator.h"
#include "serve/server.h"
#include "shard/sharded_table.h"
#include "speech/speech_simulator.h"
#include "user/user_simulator.h"
#include "workload/datasets.h"
#include "workload/query_generator.h"

namespace perfbench {
namespace {

using muve::Result;
using muve::Rng;
using muve::Status;
using muve::StatusCode;

// ---------------------------------------------------------------------------
// Workloads.

struct WorkloadSpec {
  const char* name;
  bool flights;           ///< flights dataset; nyc311 otherwise.
  size_t rows;
  double rate_qps;        ///< Open-loop arrival rate.
  size_t pool;            ///< Hot transcript pool; 0 = fresh per request.
  size_t sessions;        ///< Server sessions.
  double ingest_rows_per_s;  ///< Paced writer; 0 = read-only.
  /// Timed set-ups per run; setup_s is their median. scan_1m's 1M-row
  /// set-up takes ≈5 s, so it gets fewer to keep a run short.
  size_t setups;
  /// The traced composition executes through an in-process loopback
  /// shard cluster, tracing the net, dist and shard layers.
  bool trace_routed;
};

// Serving workers of the in-process server. The load side is one
// thread, plus one compaction thread on ingest_4k, so load threads +
// serving workers stay within 4 cores.
constexpr size_t kServeWorkers = 2;
constexpr size_t kRoutedShards = 2;  // Stripes of the traced cluster.
constexpr size_t kIngestFlushEvery = 256;
constexpr size_t kWarmupPerSession = 64;
constexpr size_t kOracleSamples = 64;
// The data, the hot query set and the warm-up set are fixed properties of
// the deployment being measured, so every seed sets up the same work;
// --seed drives the traffic over them (fresh transcripts, arrival
// schedule, hot-pool picks, ingest rows, simulated users). 7 is
// muve_serve's default --seed.
constexpr uint64_t kTableSeed = 7;
constexpr uint64_t kHotPoolSeed = 0x5EED0F1D;
constexpr uint64_t kWarmupSeed = 0x3A4B1C0D;

// Rates keep the serving workers under half busy (README.md gives the
// utilizations, and why they are not lower), and each run holds enough
// answers for a p99 with ten samples beyond it.
const WorkloadSpec kWorkloads[] = {
    {"voice_4k", false, 4000, 250.0, 0, 4, 0.0, 5, true},
    {"scan_1m", true, 1000000, 90.0, 0, 2, 0.0, 3, false},
    {"ingest_4k", false, 4000, 600.0, 256, 2, 2000.0, 5, false},
};

// ---------------------------------------------------------------------------
// Clocks and process accounting.

const std::chrono::steady_clock::time_point kEpoch =
    std::chrono::steady_clock::now();

double NowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - kEpoch)
      .count();
}

void SleepUntilMs(double at_ms) {
  std::this_thread::sleep_until(
      kEpoch + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                   std::chrono::duration<double, std::milli>(at_ms)));
}

/// Wall time of a fixed integer loop: how fast the host runs this
/// process right now.
double CalibrationMs() {
  const double t0 = NowMs();
  volatile uint64_t sink = 0;
  uint64_t x = 88172645463325252ULL;
  for (int i = 0; i < 20000000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  sink = x;
  (void)sink;
  return NowMs() - t0;
}

/// Cumulative host steal and total CPU ticks of this VM (/proc/stat):
/// time the host ran something else while a vCPU wanted to run. Steal
/// stretches wall-clock latency without adding CPU time.
std::pair<double, double> StealTicks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  double total = 0.0;
  double steal = 0.0;
  double field = 0.0;
  for (int i = 0; i < 10 && in >> field; ++i) {
    total += field;
    if (i == 7) steal = field;
  }
  return {steal, total};
}

/// Printed around each timed window so a reader can tell a slow program
/// from a slow or busy host.
class HostReport {
 public:
  HostReport() : calibration_ms_(CalibrationMs()) {}
  void StartWindow() { steal0_ = StealTicks(); }
  void EndWindow() {
    const auto [steal, total] = StealTicks();
    std::printf("host: calibration loop %.1f ms before setup, %.1f ms after "
                "the window; steal %.1f%% of CPU time in the window\n",
                calibration_ms_, CalibrationMs(),
                100.0 * (steal - steal0_.first) /
                    std::max(1.0, total - steal0_.second));
  }

 private:
  double calibration_ms_;
  std::pair<double, double> steal0_{0.0, 0.0};
};

double SelfCpuMs() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto ms = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1000.0 +
           static_cast<double>(tv.tv_usec) / 1000.0;
  };
  return ms(usage.ru_utime) + ms(usage.ru_stime);
}

/// Peak resident set (VmHWM) of this process in MiB.
double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;
    }
  }
  return 0.0;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Mean(const std::vector<double>& values) {
  double sum = 0.0;
  for (double v : values) sum += v;
  return values.empty() ? 0.0 : sum / static_cast<double>(values.size());
}

double Ratio(double part, double whole) {
  return whole > 0.0 ? part / whole : 0.0;
}

// ---------------------------------------------------------------------------
// Metrics output.

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  size_t samples = 0;
  std::string note;
};

class Report {
 public:
  void Add(std::string name, double value, std::string unit, size_t samples,
           std::string note = "") {
    metrics_.push_back({std::move(name), value, std::move(unit), samples,
                        std::move(note)});
  }
  /// A percentile metric; an unsupported one reads 0 and says why.
  void AddPercentile(std::string name, const Percentile& p, std::string unit) {
    Add(std::move(name), p.supported ? p.value : 0.0, std::move(unit),
        p.samples, p.supported ? "" : "too few samples beyond this percentile");
  }
  void Fail(const std::string& message) {
    std::printf("CHECK FAILED: %s\n", message.c_str());
    correct_ = false;
  }
  bool correct() const { return correct_; }

  void Print(size_t attempted, size_t failed) const {
    for (const Metric& m : metrics_) {
      std::printf("%-28s %14.4f %-6s n=%zu%s%s\n", m.name.c_str(), m.value,
                  m.unit.c_str(), m.samples, m.note.empty() ? "" : "  # ",
                  m.note.c_str());
    }
    std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
                "\"metrics\": {",
                correct_ ? "true" : "false", attempted, failed);
    for (size_t i = 0; i < metrics_.size(); ++i) {
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics_[i].name.c_str(),
                  metrics_[i].value, metrics_[i].unit.c_str());
    }
    std::printf("}}\n");
    std::fflush(stdout);
  }

 private:
  std::vector<Metric> metrics_;
  bool correct_ = true;
};

// ---------------------------------------------------------------------------
// Inputs, generated before any clock starts.

struct Utterance {
  std::string transcript;  ///< Noisy ASR output, what the system sees.
  std::string truth_key;   ///< CanonicalKey of the intended query.
};

struct Inputs {
  std::vector<Utterance> utterances;  ///< Fresh: one per request; else pool.
  std::vector<size_t> pick;           ///< Request -> utterance.
  std::vector<double> due_ms;         ///< Request arrival offsets.
  std::vector<Utterance> warmup;      ///< Fresh workloads' warm-up set.
  std::vector<std::vector<muve::db::Value>> ingest_rows;
  std::vector<double> ingest_due_ms;
  /// Ingest workloads: the table's rows before the writer starts.
  std::vector<std::vector<muve::db::Value>> initial_rows;

  const Utterance& request(size_t i) const { return utterances[pick[i]]; }
};

std::vector<std::string> SpeechLexicon(const muve::db::Relation& table) {
  // The recognizer lexicon MuveEngine gives its simulated ASR.
  std::vector<std::string> lexicon = muve::workload::BuildVocabulary(table);
  for (const char* word :
       {"how", "many", "total", "average", "maximum", "minimum", "count",
        "sum", "where", "is", "and", "records", "number", "of"}) {
    lexicon.emplace_back(word);
  }
  return lexicon;
}

Result<Inputs> MakeInputs(const WorkloadSpec& spec,
                          const muve::db::Table& table, uint64_t seed,
                          double seconds) {
  Rng rng(seed * 0x9E3779B97F4A7C15ULL + 17);
  Rng pool_rng(kHotPoolSeed);
  const muve::speech::SpeechSimulator speech(SpeechLexicon(table));
  // Random queries of the paper's evaluation (1-5 equality predicates),
  // verbalized and passed through the simulated recognizer.
  auto draw = [&](Rng* r) -> Result<Utterance> {
    MUVE_ASSIGN_OR_RETURN(muve::db::AggregateQuery truth,
                          muve::workload::RandomQuery(table, r));
    Utterance u;
    u.transcript = speech.Transcribe(muve::nlq::VerbalizeQuery(truth), r);
    u.truth_key = truth.CanonicalKey();
    return u;
  };
  Inputs in;
  in.due_ms = PoissonSchedule(
      static_cast<size_t>(std::lround(spec.rate_qps * seconds)), seconds,
      [&rng] { return rng.UniformDouble(); });
  const size_t distinct = spec.pool > 0 ? spec.pool : in.due_ms.size();
  for (size_t i = 0; i < distinct; ++i) {
    MUVE_ASSIGN_OR_RETURN(Utterance u,
                          draw(spec.pool > 0 ? &pool_rng : &rng));
    in.utterances.push_back(std::move(u));
  }
  for (size_t i = 0; i < in.due_ms.size(); ++i) {
    in.pick.push_back(spec.pool > 0 ? rng.UniformInt(spec.pool) : i);
  }
  if (spec.pool == 0) {
    Rng warmup_rng(kWarmupSeed);
    for (size_t i = 0; i < kWarmupPerSession * spec.sessions; ++i) {
      MUVE_ASSIGN_OR_RETURN(Utterance u, draw(&warmup_rng));
      in.warmup.push_back(std::move(u));
    }
  }
  if (spec.ingest_rows_per_s > 0.0) {
    // Rows drawn from the table's own value domains, so the vocabulary
    // never grows and the session plan memos stay valid.
    std::vector<std::vector<muve::db::Value>> domains;
    for (size_t c = 0; c < table.num_columns(); ++c) {
      std::vector<muve::db::Value> domain;
      if (table.spec(c).type == muve::db::ValueType::kString) {
        for (const std::string& v : table.StringValues(c)) {
          domain.emplace_back(v);
        }
      } else {
        for (size_t i = 0; i < 64; ++i) {
          domain.push_back(table.ValueAt(rng.UniformInt(table.num_rows()), c));
        }
      }
      domains.push_back(std::move(domain));
    }
    for (size_t r = 0; r < table.num_rows(); ++r) {
      std::vector<muve::db::Value> row;
      for (size_t c = 0; c < table.num_columns(); ++c) {
        row.push_back(table.ValueAt(r, c));
      }
      in.initial_rows.push_back(std::move(row));
    }
    const size_t rows = static_cast<size_t>(spec.ingest_rows_per_s * seconds);
    for (size_t k = 0; k < rows; ++k) {
      std::vector<muve::db::Value> row;
      for (const auto& domain : domains) row.push_back(rng.Choice(domain));
      in.ingest_rows.push_back(std::move(row));
      in.ingest_due_ms.push_back(static_cast<double>(k) * 1000.0 /
                                 spec.ingest_rows_per_s);
    }
  }
  return in;
}

std::shared_ptr<muve::db::Table> MakeTable(const WorkloadSpec& spec) {
  // Same generator and seed as muve_serve --rows --seed.
  Rng rng(kTableSeed);
  return spec.flights ? muve::workload::MakeFlightsTable(spec.rows, &rng)
                      : muve::workload::Make311Table(spec.rows, &rng);
}

/// The serving engine configuration with every session cache off: the
/// oracle engines and the traced composition's execution engine.
muve::MuveOptions OracleOptions() {
  muve::MuveOptions options = muve::serve::ServingEngineDefaults();
  options.cache_capacity = 0;
  options.execution.cache_capacity = 0;
  return options;
}

/// A translation the pipeline could not link to the schema: the system
/// answers "not understood" and the user re-asks. Deterministic in the
/// transcript, so it is a quality outcome, not a failed request.
bool NotUnderstood(const Status& status) {
  return status.code() == StatusCode::kNotFound ||
         status.code() == StatusCode::kInvalidArgument;
}

std::string ExpectedBytes(const Result<muve::MuveEngine::Answer>& answer) {
  return answer.ok()
             ? muve::net::SerializeAnswerDeterministic(*answer)
             : "error:" +
                   std::string(muve::StatusCodeName(answer.status().code()));
}

// ---------------------------------------------------------------------------
// Replies, folded into outcomes as they arrive so the harness never holds
// more answers than are in flight (peak_rss_mb measures the system).

/// What the checks and reports keep of one reply.
struct Outcome {
  RequestClock clock;
  bool answered = false;
  bool not_understood = false;
  Status status = Status::OK();
  double queue_ms = 0.0;
  double service_ms = 0.0;
  double total_ms = 0.0;
  bool shared = false;
  bool found = false;       ///< The intended query's bar was shown.
  double user_ms = 0.0;     ///< Simulated time to click it.
  std::string bytes;        ///< SerializeAnswerDeterministic, when kept.
};

/// One COUNT bar of an ingest answer, with the version it reflects.
struct CountBar {
  muve::db::AggregateQuery query;
  double value = 0.0;
  uint64_t version = 0;
};

class Collector {
 public:
  /// Which answers keep their bytes for the oracle comparison.
  enum class Keep {
    kSample,     ///< An even sample (fresh transcripts).
    kAll,        ///< Every one (traced runs compare the composition).
    kCountBars,  ///< None; COUNT bars are checked instead (ingest).
  };

  Collector(const Inputs& in, uint64_t seed, Keep keep)
      : in_(in), seed_(seed), keep_(keep), outcomes_(in.due_ms.size()) {
    stride_ = std::max<size_t>(1, outcomes_.size() / kOracleSamples);
  }

  Outcome& at(size_t i) { return outcomes_[i]; }
  const std::vector<Outcome>& outcomes() const { return outcomes_; }
  const std::vector<CountBar>& count_bars() const { return count_bars_; }

  /// Folds request `i`'s reply in. `clock.sent_ms` must be set; the
  /// completion is the send instant plus the server's
  /// admission-to-completion time.
  void Absorb(size_t i, Result<muve::serve::ServedAnswer> reply) {
    Outcome& o = outcomes_[i];
    if (!reply.ok()) {
      o.status = reply.status();
      o.not_understood = NotUnderstood(o.status);
      o.clock.done_ms = NowMs();
      if (o.not_understood) o.user_ms = RequeryMs();
      return;
    }
    const muve::serve::ServedAnswer& served = *reply;
    const muve::MuveEngine::Answer& a = served.answer;
    o.answered = true;
    o.queue_ms = served.queue_millis;
    o.service_ms = served.service_millis;
    o.total_ms = served.total_millis;
    o.shared = served.shared;
    o.clock.done_ms = o.clock.sent_ms + o.total_ms;
    Score(a, in_.request(i).truth_key, i, &o);
    switch (keep_) {
      case Keep::kSample:
        if (i % stride_ == 0) o.bytes = muve::net::SerializeAnswerDeterministic(a);
        break;
      case Keep::kAll:
        o.bytes = muve::net::SerializeAnswerDeterministic(a);
        break;
      case Keep::kCountBars:
        a.plan.multiplot.ForEachPlot([&](const muve::core::Plot& plot) {
          for (const muve::core::PlotBar& bar : plot.bars) {
            const muve::db::AggregateQuery& q =
                a.candidates[bar.candidate_index].query;
            if (q.function == muve::db::AggregateFunction::kCount) {
              count_bars_.push_back({q, bar.value,
                                     a.execution.snapshot_version});
            }
          }
        });
        break;
    }
  }

 private:
  static double RequeryMs() {
    const muve::user::UserBehaviorModel m;
    return m.requery_ms + m.plot_read_ms + m.bar_read_ms;
  }

  /// Paper §2/§4 answer quality: is the intended query's bar shown, and
  /// how long would a simulated user take to click it (plus a re-query
  /// when it is missing). The user RNG is seeded per request, so the
  /// value does not depend on completion order.
  void Score(const muve::MuveEngine::Answer& a, const std::string& truth_key,
             size_t i, Outcome* o) const {
    size_t target = SIZE_MAX;
    for (size_t c = 0; c < a.candidates.size(); ++c) {
      if (a.candidates[c].query.CanonicalKey() == truth_key) {
        target = c;
        break;
      }
    }
    const muve::user::UserSimulator user;
    Rng rng(seed_ * 0xD1B54A32D192ED03ULL + i + 1);
    const auto search = user.FindTarget(a.plan.multiplot, target, &rng);
    o->found = search.found;
    o->user_ms = search.millis + (search.found ? 0.0 : RequeryMs());
  }

  const Inputs& in_;
  const uint64_t seed_;
  const Keep keep_;
  size_t stride_ = 1;
  std::vector<Outcome> outcomes_;
  std::vector<CountBar> count_bars_;
};

// ---------------------------------------------------------------------------
// The topology. Each is built by one timed setup; the run keeps the last.

struct LocalTopology {
  // Declared first so it outlives the table whose compactions it runs.
  std::unique_ptr<muve::ThreadPool> compaction;
  std::shared_ptr<muve::db::Table> table;
  std::unique_ptr<muve::serve::Server> server;
};

std::string SessionId(size_t k) { return "s" + std::to_string(k); }

/// Submits `utterances` on `session` one at a time, each after the last
/// has been answered. One busy worker at a time keeps the set-up's wall
/// time from depending on how many cores the host frees at that moment.
void WarmSession(muve::serve::Server* server, const std::string& session,
                 const std::vector<const Utterance*>& utterances) {
  for (const Utterance* u : utterances) {
    server->Submit(session, muve::Request::Text(u->transcript)).get();
  }
}

/// Serves `table` (generated by the caller, part of the same timed
/// setup) and warms the server up.
std::unique_ptr<LocalTopology> SetupLocal(
    const WorkloadSpec& spec, std::shared_ptr<muve::db::Table> table,
    const Inputs& in) {
  auto topo = std::make_unique<LocalTopology>();
  topo->table = std::move(table);
  if (spec.ingest_rows_per_s > 0.0) {
    topo->compaction = std::make_unique<muve::ThreadPool>(1);
    topo->table->EnableBackgroundCompaction(topo->compaction.get());
  }
  muve::serve::ServerOptions options;
  options.num_workers = kServeWorkers;
  options.max_queue_depth = 4096;
  topo->server = std::make_unique<muve::serve::Server>(
      std::shared_ptr<const muve::db::Table>(topo->table), options);
  // Warm-up: every session is created (schema index, calibration) and,
  // for hot-pool workloads, its plan memo holds the whole pool. Session
  // by session, so single-flight never folds one session's warm-up into
  // another's.
  for (size_t s = 0; s < spec.sessions; ++s) {
    std::vector<const Utterance*> batch;
    if (spec.pool > 0) {
      for (const Utterance& u : in.utterances) batch.push_back(&u);
    } else {
      for (size_t k = s; k < in.warmup.size(); k += spec.sessions) {
        batch.push_back(&in.warmup[k]);
      }
    }
    WarmSession(topo->server.get(), SessionId(s), batch);
  }
  return topo;
}

// ---------------------------------------------------------------------------
// The traced composition: the pipeline of MuveEngine::Ask rebuilt from
// the modules' public calls, with a span around each.

struct TraceContext {
  Trace* trace = nullptr;
  std::atomic<int64_t> parent{-1};
  std::atomic<uint64_t> request{0};
};

class ScopedSpan {
 public:
  ScopedSpan(Trace* trace, const char* name, int64_t parent, uint64_t request)
      : trace_(trace),
        index_(trace->enabled() ? trace->Open(name, NowMs(), parent, request)
                                : -1) {}
  ~ScopedSpan() {
    if (index_ >= 0) trace_->Finish(index_, NowMs());
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int64_t index() const { return index_; }

 private:
  Trace* trace_;
  int64_t index_;
};

/// Shard side: times each partial scan a listener thread serves.
class TimedShard : public muve::net::PartialHandler {
 public:
  TimedShard(std::shared_ptr<const muve::db::Table> stripe, TraceContext* ctx)
      : service_(std::move(stripe)), ctx_(ctx) {}
  Result<muve::net::PartialResult> HandlePartial(
      const muve::net::PartialQuery& query) override {
    ScopedSpan span(ctx_->trace, "shard.partial", ctx_->parent.load(),
                    ctx_->request.load());
    return service_.HandlePartial(query);
  }

 private:
  muve::dist::ShardService service_;
  TraceContext* ctx_;
};

/// Coordinator side: times each scatter-gather round; the
/// shard spans of the round name it as parent.
class TimedBackend : public muve::shard::PartialBackend {
 public:
  TimedBackend(muve::dist::Coordinator* inner, TraceContext* ctx)
      : inner_(inner), ctx_(ctx) {}
  size_t num_shards() const override { return inner_->num_shards(); }
  std::vector<Result<AggregateOutcome>> ExecutePartialAll(
      const muve::db::AggregateQuery& query,
      const muve::Deadline& deadline) override {
    return Timed([&] { return inner_->ExecutePartialAll(query, deadline); });
  }
  std::vector<Result<GroupedOutcome>> ExecuteGroupedPartialAll(
      const muve::db::GroupByQuery& query,
      const muve::Deadline& deadline) override {
    return Timed(
        [&] { return inner_->ExecuteGroupedPartialAll(query, deadline); });
  }

 private:
  template <typename Fn>
  auto Timed(Fn&& fn) -> decltype(fn()) {
    const int64_t outer = ctx_->parent.load();
    ScopedSpan span(ctx_->trace, "dist.gather", outer, ctx_->request.load());
    ctx_->parent.store(span.index());
    auto out = fn();
    ctx_->parent.store(outer);
    return out;
  }

  muve::dist::Coordinator* inner_;
  TraceContext* ctx_;
};

/// The traced composition's shard cluster: each stripe's ShardService,
/// timed, behind a real loopback net::Listener, and a timed backend over
/// a real dist::Coordinator.
class LoopbackCluster {
 public:
  LoopbackCluster(const LoopbackCluster&) = delete;
  LoopbackCluster& operator=(const LoopbackCluster&) = delete;
  ~LoopbackCluster() {
    for (auto& listener : listeners_) listener->Shutdown();
  }

  static Result<std::unique_ptr<LoopbackCluster>> Start(
      const muve::shard::ShardedTable& sharded, TraceContext* ctx) {
    std::unique_ptr<LoopbackCluster> cluster(new LoopbackCluster());
    std::vector<muve::dist::Endpoint> endpoints;
    for (size_t i = 0; i < sharded.num_shards(); ++i) {
      cluster->handlers_.push_back(
          std::make_unique<TimedShard>(sharded.shard(i), ctx));
      cluster->listeners_.push_back(
          std::make_unique<muve::net::Listener>(nullptr));
      cluster->listeners_.back()->set_partial_handler(
          cluster->handlers_.back().get());
      MUVE_RETURN_NOT_OK(cluster->listeners_.back()->Start());
      endpoints.push_back({"127.0.0.1", cluster->listeners_.back()->port()});
    }
    cluster->coordinator_ =
        std::make_unique<muve::dist::Coordinator>(std::move(endpoints));
    cluster->backend_ =
        std::make_unique<TimedBackend>(cluster->coordinator_.get(), ctx);
    return cluster;
  }

  muve::shard::PartialBackend* backend() { return backend_.get(); }
  muve::dist::DistStats stats() const { return coordinator_->stats(); }

 private:
  LoopbackCluster() = default;

  // Listener threads call the handlers, so the destructor shuts the
  // listeners down before any member goes.
  std::vector<std::unique_ptr<TimedShard>> handlers_;
  std::vector<std::unique_ptr<muve::net::Listener>> listeners_;
  std::unique_ptr<muve::dist::Coordinator> coordinator_;
  std::unique_ptr<TimedBackend> backend_;
};

/// What Ask computes before execution, for one transcript.
struct FrontHalf {
  muve::db::AggregateQuery base_query;
  double base_confidence = 0.0;
  muve::core::CandidateSet candidates;
  muve::core::PlanResult plan;
};

class Composition {
 public:
  Composition(std::shared_ptr<const muve::db::Relation> relation,
              muve::exec::Engine* engine)
      : options_(OracleOptions()),
        index_(std::make_shared<muve::nlq::SchemaIndex>(std::move(relation))),
        translator_(index_),
        generator_(index_),
        engine_(engine) {}

  Result<FrontHalf> Front(const std::string& transcript, TraceContext* ctx,
                          int64_t parent, uint64_t request) const {
    Trace* trace = ctx->trace;
    FrontHalf f;
    {
      ScopedSpan span(trace, "translate", parent, request);
      bool overrun = false;
      MUVE_ASSIGN_OR_RETURN(
          muve::nlq::Translation t,
          translator_.Translate(transcript, muve::Deadline(), &overrun));
      f.base_query = std::move(t.query);
      f.base_confidence = t.confidence;
    }
    {
      ScopedSpan span(trace, "generate", parent, request);
      f.candidates = generator_.Generate(
          f.base_query, f.base_confidence, options_.generation,
          muve::nlq::CandidateGenerator::GenerationConstraints{});
    }
    {
      ScopedSpan span(trace, "plan", parent, request);
      const muve::core::GreedyPlanner planner;
      MUVE_ASSIGN_OR_RETURN(f.plan,
                            planner.Plan(f.candidates, options_.planner));
    }
    return f;
  }

  /// Executes a front half into a full answer, as Ask assembles it.
  Result<muve::MuveEngine::Answer> Execute(const std::string& transcript,
                                           FrontHalf f, TraceContext* ctx,
                                           int64_t parent,
                                           uint64_t request) const {
    muve::MuveEngine::Answer a;
    a.transcript = transcript;
    a.base_query = std::move(f.base_query);
    a.base_confidence = f.base_confidence;
    a.candidates = std::move(f.candidates);
    a.plan = std::move(f.plan);
    {
      ScopedSpan span(ctx->trace, "execute", parent, request);
      ctx->parent.store(span.index());
      ctx->request.store(request);
      Result<muve::exec::Execution> e = engine_->ExecuteMultiplot(
          a.candidates, &a.plan.multiplot, muve::exec::ExecControls{});
      ctx->parent.store(-1);
      if (!e.ok()) return e.status();
      a.execution = *std::move(e);
    }
    a.degradation.units_dropped = a.execution.units_dropped;
    a.degradation.bars_dropped = a.execution.bars_dropped;
    a.degradation.plots_dropped = a.execution.plots_dropped;
    a.degradation.shards_dropped = a.execution.shards_dropped;
    if (a.degradation.shards_dropped > 0) {
      a.degradation.rung = muve::Degradation::Rung::kDegradedPlan;
    }
    return a;
  }

 private:
  const muve::MuveOptions options_;
  std::shared_ptr<muve::nlq::SchemaIndex> index_;
  muve::nlq::Translator translator_;
  muve::nlq::CandidateGenerator generator_;
  muve::exec::Engine* engine_;
};

struct Composed {
  std::vector<double> traced_ms;
  std::vector<double> untraced_ms;
  std::vector<double> candidates, plots, bars, queries;
  /// Wire codec costs of each request and its answer (the net layer).
  std::vector<double> encode_us, decode_us, answer_bytes;
};

/// The serial traced composition over the requests in order, until
/// `until_abs_ms`. Every fourth request also runs with tracing off
/// (before or after, alternately) to measure the tracing overhead. Every
/// traced answer is byte-compared with Ask: with the open-loop window's
/// served answer to the same request when `served` is given, else with
/// `oracle`'s. Hot-pool workloads replay memoized front halves, as the
/// serving plan memo does once warm.
Composed RunComposition(const Composition& composed, muve::MuveEngine* oracle,
                        const Inputs& in, const std::vector<Outcome>* served,
                        double until_abs_ms, bool memo, TraceContext* ctx,
                        Report* report) {
  Composed out;
  Trace off(false);
  TraceContext off_ctx;
  off_ctx.trace = &off;
  std::unordered_map<std::string, FrontHalf> fronts;
  std::unordered_map<std::string, std::string> expected;
  if (memo) {
    // Front halves computed once, under "warm" roots that the
    // answer-time shares leave out.
    for (const Utterance& u : in.utterances) {
      const int64_t root = ctx->trace->Open("warm", NowMs(), -1, 0);
      Result<FrontHalf> f = composed.Front(u.transcript, ctx, root, 0);
      ctx->trace->Finish(root, NowMs());
      if (f.ok()) fronts.emplace(u.transcript, *std::move(f));
    }
  }
  size_t mismatches = 0;
  for (size_t i = 0; i < in.pick.size() && NowMs() < until_abs_ms; ++i) {
    const std::string& transcript = in.request(i).transcript;
    const uint64_t request = i + 1;
    auto run = [&](TraceContext* c) -> Result<muve::MuveEngine::Answer> {
      const double t0 = NowMs();
      const int64_t root = c->trace->enabled()
                               ? c->trace->Open("answer", t0, -1, request)
                               : -1;
      auto memoized = fronts.find(transcript);
      Result<FrontHalf> f =
          memoized != fronts.end()
              ? Result<FrontHalf>(memoized->second)
              : composed.Front(transcript, c, root, request);
      Result<muve::MuveEngine::Answer> a =
          f.ok() ? composed.Execute(transcript, *std::move(f), c, root,
                                    request)
                 : Result<muve::MuveEngine::Answer>(f.status());
      const double t1 = NowMs();
      c->trace->Finish(root, t1);
      (c->trace->enabled() ? out.traced_ms : out.untraced_ms)
          .push_back(t1 - t0);
      return a;
    };
    const bool twin = i % 4 == 0;
    if (twin && i % 8 == 0) run(&off_ctx);
    Result<muve::MuveEngine::Answer> a = run(ctx);
    if (twin && i % 8 != 0) run(&off_ctx);

    std::string want;
    if (served != nullptr) {
      const Outcome& o = (*served)[i];
      want = o.answered ? o.bytes
                        : "error:" + std::string(muve::StatusCodeName(
                                         o.status.code()));
    } else {
      auto it = expected.find(transcript);
      if (it == expected.end()) {
        it = expected
                 .emplace(transcript, ExpectedBytes(oracle->Ask(
                                          muve::Request::Text(transcript))))
                 .first;
      }
      want = it->second;
    }
    if (ExpectedBytes(a) != want) ++mismatches;
    if (!a.ok()) continue;
    const double e0 = NowMs();
    const std::string request_wire =
        muve::net::SerializeRequest(muve::Request::Text(transcript));
    out.encode_us.push_back((NowMs() - e0) * 1000.0);
    muve::serve::ServedAnswer served_answer;
    served_answer.answer = *a;
    const std::string answer_wire =
        muve::net::SerializeServedAnswer(served_answer);
    out.answer_bytes.push_back(static_cast<double>(answer_wire.size()));
    const double d0 = NowMs();
    if (!muve::net::ParseServedAnswer(answer_wire).ok()) ++mismatches;
    out.decode_us.push_back((NowMs() - d0) * 1000.0);
    out.candidates.push_back(static_cast<double>(a->candidates.size()));
    double plots = 0.0;
    a->plan.multiplot.ForEachPlot([&](const muve::core::Plot&) { ++plots; });
    out.plots.push_back(plots);
    out.bars.push_back(static_cast<double>(a->plan.multiplot.NumBars()));
    out.queries.push_back(static_cast<double>(a->execution.queries_issued));
  }
  if (mismatches > 0) {
    report->Fail(std::to_string(mismatches) +
                 " traced compositions differ from MuveEngine::Ask");
  }
  return out;
}

// ---------------------------------------------------------------------------
// Runs.

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  std::string trace_out;
};

struct WindowStats {
  double cpu_ms = 0.0;
  double rss_mb = 0.0;
};

/// The ingest writer's record of one timed window.
struct WriterLog {
  std::vector<double> append_us;
  std::vector<double> flush_ms;
  std::vector<double> late_ms;
  size_t runs_max = 0;
  size_t rows = 0;
  double busy_ms = 0.0;
  bool ok = true;
};

/// One open-loop window against the in-process server. On ingest
/// workloads the writer's paced appends interleave with the reads in one
/// event loop on this thread; between events it folds finished replies
/// into `collector`.
void DriveLocal(LocalTopology* topo, const WorkloadSpec& spec,
                const Inputs& in, Collector* collector, WriterLog* writer,
                Trace* trace, WindowStats* stats) {
  struct Event {
    double due;
    bool write;
    size_t index;
  };
  const size_t reads = in.due_ms.size();
  std::vector<Event> events;
  for (size_t i = 0; i < reads; ++i) events.push_back({in.due_ms[i], false, i});
  for (size_t k = 0; k < in.ingest_rows.size(); ++k) {
    events.push_back({in.ingest_due_ms[k], true, k});
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const Event& a, const Event& b) { return a.due < b.due; });

  std::vector<std::future<Result<muve::serve::ServedAnswer>>> futures(reads);
  size_t submitted = 0;
  size_t harvested = 0;
  auto harvest = [&](bool block) {
    while (harvested < submitted) {
      auto& f = futures[harvested];
      if (!block &&
          f.wait_for(std::chrono::seconds(0)) != std::future_status::ready) {
        return;
      }
      collector->Absorb(harvested, f.get());
      ++harvested;
    }
  };

  const double cpu0 = SelfCpuMs();
  const double start = NowMs();
  for (const Event& ev : events) {
    const double due = start + ev.due;
    SleepUntilMs(due);
    const double sent = NowMs();
    if (!ev.write) {
      collector->at(ev.index).clock = {due, sent, 0.0};
      futures[ev.index] = topo->server->Submit(
          SessionId(ev.index % spec.sessions),
          muve::Request::Text(in.request(ev.index).transcript));
      ++submitted;
      harvest(false);
      continue;
    }
    writer->late_ms.push_back(sent - due);
    if (!topo->table->AppendRow(in.ingest_rows[ev.index]).ok()) {
      writer->ok = false;
    }
    const double appended = NowMs();
    writer->append_us.push_back((appended - sent) * 1000.0);
    trace->Add({"ingest.append", sent, appended, -1, 0, 1});
    double finished = appended;
    if (++writer->rows % kIngestFlushEvery == 0) {
      topo->table->Flush();
      finished = NowMs();
      writer->flush_ms.push_back(finished - appended);
      trace->Add({"ingest.flush", appended, finished, -1, 0, 1});
    }
    writer->runs_max = std::max(writer->runs_max, topo->table->num_runs());
    writer->busy_ms += finished - sent;
  }
  harvest(true);
  stats->cpu_ms = SelfCpuMs() - cpu0;
  stats->rss_mb = PeakRssMb();
}

/// Byte-identity with a fresh uncached serial engine: every answer the
/// collector kept bytes for, and every not-understood reply (the engine
/// must fail the same way).
void CheckAgainstOracle(muve::MuveEngine* oracle, const Inputs& in,
                        const Collector& collector, Report* report) {
  std::unordered_map<std::string, std::string> expected;
  size_t compared = 0;
  size_t mismatches = 0;
  const std::vector<Outcome>& outcomes = collector.outcomes();
  for (size_t i = 0; i < outcomes.size(); ++i) {
    const Outcome& o = outcomes[i];
    if (!(o.answered && !o.bytes.empty()) && !o.not_understood) continue;
    const std::string& transcript = in.request(i).transcript;
    auto it = expected.find(transcript);
    if (it == expected.end()) {
      it = expected
               .emplace(transcript, ExpectedBytes(oracle->Ask(
                                        muve::Request::Text(transcript))))
               .first;
    }
    const std::string got =
        o.answered ? o.bytes
                   : "error:" + std::string(muve::StatusCodeName(o.status.code()));
    ++compared;
    if (got != it->second) ++mismatches;
  }
  std::printf("oracle check: %zu replies against an uncached serial "
              "MuveEngine::Ask\n",
              compared);
  if (mismatches > 0) {
    report->Fail(std::to_string(mismatches) +
                 " replies differ from the uncached serial MuveEngine::Ask");
  }
}

/// ingest_4k: every COUNT bar equals the benchmark's own count over the
/// rows that existed at the answer's snapshot version.
void CheckIngestCounts(const muve::db::Table& schema, const Inputs& in,
                       size_t rows_written, const Collector& collector,
                       Report* report) {
  // The benchmark's own row log: the initial rows it read before the
  // writer started, then the rows it appended, in order.
  std::vector<std::vector<muve::db::Value>> log = in.initial_rows;
  const size_t initial_rows = log.size();
  for (size_t k = 0; k < rows_written; ++k) log.push_back(in.ingest_rows[k]);

  std::unordered_map<std::string, std::vector<uint64_t>> matches;
  auto matching_rows = [&](const muve::db::AggregateQuery& q)
      -> const std::vector<uint64_t>& {
    const std::string key = q.CanonicalKey();
    auto it = matches.find(key);
    if (it != matches.end()) return it->second;
    std::vector<std::pair<size_t, const muve::db::Predicate*>> bound;
    for (const muve::db::Predicate& p : q.predicates) {
      Result<size_t> c = schema.ColumnIndex(p.column);
      bound.emplace_back(c.ok() ? *c : SIZE_MAX, &p);
    }
    std::vector<uint64_t> rows;
    for (uint64_t r = 0; r < log.size(); ++r) {
      bool all = true;
      for (const auto& [c, p] : bound) {
        bool any = false;
        if (c != SIZE_MAX) {
          for (const muve::db::Value& v : p->values) {
            any = any || log[r][c] == v;
          }
        }
        all = all && any;
      }
      if (all) rows.push_back(r);
    }
    return matches.emplace(key, std::move(rows)).first->second;
  };

  size_t wrong = 0;
  for (const CountBar& bar : collector.count_bars()) {
    if (bar.version < initial_rows || bar.version > log.size()) {
      ++wrong;
      continue;
    }
    const std::vector<uint64_t>& rows = matching_rows(bar.query);
    const double truth = static_cast<double>(
        std::lower_bound(rows.begin(), rows.end(), bar.version) -
        rows.begin());
    if (bar.value != truth) ++wrong;
  }
  std::printf("ingest check: %zu COUNT bars against the benchmark's own "
              "count at each answer's version\n",
              collector.count_bars().size());
  if (collector.count_bars().empty()) {
    report->Fail("ingest check found no COUNT bars");
  }
  if (wrong > 0) {
    report->Fail(std::to_string(wrong) +
                 " COUNT bars differ from the ground truth at their version");
  }
}

size_t CountFailed(const std::vector<Outcome>& outcomes) {
  size_t failed = 0;
  for (const Outcome& o : outcomes) failed += !o.answered && !o.not_understood;
  return failed;
}

/// End-to-end metrics of one window.
void AddEndToEnd(const std::vector<Outcome>& outcomes,
                 const WindowStats& window,
                 const std::vector<double>& setups, Report* report) {
  std::vector<double> latency;
  std::vector<double> user_ms;
  size_t completed = 0;
  size_t found = 0;
  for (const Outcome& o : outcomes) {
    if (o.answered) latency.push_back(o.clock.latency_ms());
    completed += o.answered || o.not_understood;
    found += o.found;
    user_ms.push_back(o.user_ms);
  }
  // Latency is printed, not bounded: on a shared VM it follows the
  // host's steal time further than any useful bound (README.md). Traced
  // runs report it as per-layer metrics.
  for (const auto& [label, p] : {std::pair{"p50", 0.50}, {"p99", 0.99}}) {
    const Percentile pct = TakePercentile(latency, p);
    std::printf("answer %s: %.4f ms (n=%zu%s)\n", label, pct.value,
                pct.samples, pct.supported ? "" : ", too few samples beyond it");
  }
  report->Add("cpu_ms_per_answer",
              Ratio(window.cpu_ms, static_cast<double>(completed)), "ms",
              completed);
  report->Add("recall",
              Ratio(static_cast<double>(found),
                    static_cast<double>(outcomes.size())),
              "ratio", outcomes.size());
  report->Add("user_time_ms", Mean(user_ms), "ms", user_ms.size());
  report->Add("setup_s", Median(setups), "s", setups.size());
  report->Add("peak_rss_mb", window.rss_mb, "MiB", 1);
}

// --- traced-run metrics -----------------------------------------------------

std::vector<double> SpanMillis(const std::vector<Span>& spans,
                               const std::string& name) {
  std::vector<double> out;
  for (const Span& s : spans) {
    if (s.name == name) out.push_back(s.duration_ms());
  }
  return out;
}

/// `<prefix>p50_ms` and `<prefix>p99_ms` of the spans named `span_name`.
void AddStage(Report* report, const std::vector<Span>& spans,
              const std::string& span_name, const std::string& prefix) {
  const std::vector<double> ms = SpanMillis(spans, span_name);
  report->AddPercentile(prefix + "p50_ms", TakePercentile(ms, 0.50), "ms");
  report->AddPercentile(prefix + "p99_ms", TakePercentile(ms, 0.99), "ms");
}

/// Inputs of the per-layer report: the open-loop window (serve, cache,
/// net, ingest, load-generator numbers) and the traced composition.
struct TracedInputs {
  const std::vector<Outcome>* window = nullptr;
  const WriterLog* writer = nullptr;
  muve::PipelineCacheStats cache;  ///< Delta over the open-loop window.
  muve::dist::DistStats dist;      ///< The loopback cluster's counters.
  const Composed* composed = nullptr;
};

void AddPerLayer(const TracedInputs& t, const std::vector<Span>& spans,
                 Report* r) {
  size_t not_understood = 0;
  size_t answered = 0;
  size_t shared = 0;
  std::vector<double> latency, queue, service, late;
  for (const Outcome& o : *t.window) {
    not_understood += o.not_understood;
    if (!o.answered) continue;
    ++answered;
    latency.push_back(o.clock.latency_ms());
    late.push_back(o.clock.late_ms());
    queue.push_back(o.queue_ms);
    service.push_back(o.service_ms);
    shared += o.shared;
  }
  // A scatter-gather round minus its slowest shard scan: frame I/O, wire
  // codecs and the coordinator's own work.
  std::vector<double> rtt_over;
  {
    std::unordered_map<int64_t, double> slowest;
    for (const Span& span : spans) {
      if (span.name == "shard.partial" && span.parent >= 0) {
        double& d = slowest[span.parent];
        d = std::max(d, span.duration_ms());
      }
    }
    for (size_t i = 0; i < spans.size(); ++i) {
      if (spans[i].name == "dist.gather") {
        rtt_over.push_back(spans[i].duration_ms() -
                           slowest[static_cast<int64_t>(i)]);
      }
    }
  }
  const Composed& c = *t.composed;

  r->AddPercentile("answer_p50_ms", TakePercentile(latency, 0.50), "ms");
  r->AddPercentile("answer_p99_ms", TakePercentile(latency, 0.99), "ms");
  AddStage(r, spans, "translate", "translate.");
  r->Add("translate.failed", static_cast<double>(not_understood), "count",
         t.window->size());
  AddStage(r, spans, "generate", "generate.");
  r->Add("generate.candidates", Mean(c.candidates), "count",
         c.candidates.size());
  AddStage(r, spans, "plan", "plan.");
  r->Add("plan.plots", Mean(c.plots), "count", c.plots.size());
  r->Add("plan.bars", Mean(c.bars), "count", c.bars.size());
  AddStage(r, spans, "execute", "execute.");
  r->Add("execute.queries_issued", Mean(c.queries), "count",
         c.queries.size());

  const muve::PipelineCacheStats& cache = t.cache;
  r->Add("cache.plan_hit_ratio", cache.plans.hit_rate(), "ratio",
         cache.plans.lookups());
  r->Add("cache.result_hit_ratio", cache.results.hit_rate(), "ratio",
         cache.results.lookups());
  r->Add("cache.candidate_hit_ratio", cache.candidates.hit_rate(), "ratio",
         cache.candidates.lookups());
  r->Add("cache.invalidations",
         static_cast<double>(cache.results.invalidations +
                             cache.candidates.invalidations +
                             cache.plans.invalidations),
         "count", 1);

  r->AddPercentile("serve.queue_p50_ms", TakePercentile(queue, 0.5), "ms");
  r->AddPercentile("serve.queue_p99_ms", TakePercentile(queue, 0.99), "ms");
  r->AddPercentile("serve.service_p50_ms", TakePercentile(service, 0.5), "ms");
  r->Add("serve.shared_ratio",
         Ratio(static_cast<double>(shared), static_cast<double>(answered)),
         "ratio", answered);

  r->AddPercentile("net.rtt_overhead_p50_ms", TakePercentile(rtt_over, 0.5),
                   "ms");
  r->AddPercentile("net.encode_us", TakePercentile(c.encode_us, 0.5), "us");
  r->AddPercentile("net.decode_us", TakePercentile(c.decode_us, 0.5), "us");
  r->Add("net.answer_bytes", Median(c.answer_bytes), "bytes",
         c.answer_bytes.size());

  AddStage(r, spans, "dist.gather", "dist.leg_");
  r->AddPercentile("shard.partial_p50_ms",
                   TakePercentile(SpanMillis(spans, "shard.partial"), 0.5),
                   "ms");
  uint64_t retries = 0, hedges = 0, dropped = 0;
  for (const muve::dist::ShardCounters& s : t.dist.shards) {
    retries += s.retries;
    hedges += s.hedges;
    dropped += s.dropped;
  }
  r->Add("dist.retries", static_cast<double>(retries), "count",
         t.dist.shards.size());
  r->Add("dist.hedges", static_cast<double>(hedges), "count",
         t.dist.shards.size());
  r->Add("dist.dropped", static_cast<double>(dropped), "count",
         t.dist.shards.size());

  const WriterLog& w = *t.writer;
  r->AddPercentile("ingest.append_p50_us", TakePercentile(w.append_us, 0.5),
                   "us");
  r->AddPercentile("ingest.append_p99_us", TakePercentile(w.append_us, 0.99),
                   "us");
  r->AddPercentile("ingest.flush_p50_ms", TakePercentile(w.flush_ms, 0.5),
                   "ms");
  r->Add("ingest.runs_max", static_cast<double>(w.runs_max), "count", w.rows);
  r->Add("ingest.rows", static_cast<double>(w.rows), "count", w.rows);
  double service_ms = 0.0;
  for (double s : service) service_ms += s;
  const double write_share = Ratio(w.busy_ms, w.busy_ms + service_ms);
  r->Add("ingest.write_share", write_share, "ratio", w.rows);

  r->AddPercentile("loadgen.late_p99_ms", TakePercentile(late, 0.99), "ms");
  r->AddPercentile("ingest.writer_late_p99_ms",
                   TakePercentile(w.late_ms, 0.99), "ms");

  // Self time per traced answer, per layer.
  const LayerTimes layers = SumLayers(spans, "answer");
  auto self = [&](const char* name) {
    auto it = layers.self_ms.find(name);
    return it == layers.self_ms.end() ? 0.0 : it->second;
  };
  const double roots = static_cast<double>(layers.roots);
  const char* kLayers[][2] = {
      {"translate", "self.translate_ms"},  {"generate", "self.generate_ms"},
      {"plan", "self.plan_ms"},            {"execute", "self.execute_ms"},
      {"dist.gather", "self.net_dist_ms"}, {"shard.partial", "self.shard_ms"}};
  for (const auto& [span, metric] : kLayers) {
    r->Add(metric, Ratio(self(span), roots), "ms", layers.roots);
  }
  r->Add("trace.answers", roots, "count", layers.roots);
  r->Add("trace.coverage", Ratio(layers.covered_ms, layers.root_ms), "ratio",
         layers.roots);
  const double traced = Median(c.traced_ms);
  const double untraced = Median(c.untraced_ms);
  r->Add("trace.overhead_pct", Ratio(traced - untraced, untraced) * 100.0,
         "%", c.untraced_ms.size());

  const double front = self("translate") + self("generate") + self("plan");
  std::printf(
      "share of traced answer time: front half %.1f%%, execute %.1f%%, "
      "net+dist %.1f%%, shard %.1f%%; writer share of busy time %.1f%%\n",
      100.0 * Ratio(front, layers.root_ms),
      100.0 * Ratio(self("execute"), layers.root_ms),
      100.0 * Ratio(self("dist.gather"), layers.root_ms),
      100.0 * Ratio(self("shard.partial"), layers.root_ms),
      100.0 * write_share);
}

muve::PipelineCacheStats Delta(const muve::PipelineCacheStats& after,
                               const muve::PipelineCacheStats& before) {
  auto d = [](const muve::cache::StatsSnapshot& a,
              const muve::cache::StatsSnapshot& b) {
    muve::cache::StatsSnapshot s;
    s.hits = a.hits - b.hits;
    s.misses = a.misses - b.misses;
    s.evictions = a.evictions - b.evictions;
    s.invalidations = a.invalidations - b.invalidations;
    return s;
  };
  return {d(after.results, before.results),
          d(after.candidates, before.candidates), d(after.plans, before.plans)};
}

/// Prints the result; a failed correctness check fails the run.
int Finish(const Report& report, const std::vector<Outcome>& outcomes) {
  report.Print(outcomes.size(), CountFailed(outcomes));
  return report.correct() ? 0 : 1;
}

void WriteTrace(const Trace& trace, const std::string& path,
                Report* report) {
  if (!path.empty() && !WriteChromeJson(trace.spans(), path)) {
    report->Fail("cannot write " + path);
  }
}

int Run(const WorkloadSpec& spec, const Args& args) {
  HostReport host;
  std::optional<Inputs> inputs;
  // setup_s is the set-ups' CPU time: the host's steal stretches their
  // wall time, which is printed beside it (README.md, "Set-up").
  std::vector<double> setup_wall;
  std::vector<double> setup_cpu;
  std::unique_ptr<LocalTopology> topo;
  for (size_t s = 0; s < spec.setups; ++s) {
    topo.reset();
    const double t0 = NowMs();
    const double c0 = SelfCpuMs();
    std::shared_ptr<muve::db::Table> table = MakeTable(spec);
    // Seal the generated rows into columnar runs, the state of a loaded
    // table (sharded tables are sealed by ShardedTable::FromTable too).
    table->Flush();
    double excluded_ms = 0.0;
    double excluded_cpu_ms = 0.0;
    if (!inputs) {
      // Inputs come from the first copy, outside the timed setup.
      const double i0 = NowMs();
      const double ic0 = SelfCpuMs();
      Result<Inputs> made = MakeInputs(spec, *table, args.seed, args.seconds);
      if (!made.ok()) {
        std::fprintf(stderr, "inputs: %s\n", made.status().ToString().c_str());
        return 1;
      }
      inputs = *std::move(made);
      excluded_ms = NowMs() - i0;
      excluded_cpu_ms = SelfCpuMs() - ic0;
    }
    topo = SetupLocal(spec, std::move(table), *inputs);
    setup_wall.push_back((NowMs() - t0 - excluded_ms) / 1000.0);
    setup_cpu.push_back((SelfCpuMs() - c0 - excluded_cpu_ms) / 1000.0);
  }
  std::printf("set-ups:");
  for (size_t s = 0; s < spec.setups; ++s) {
    std::printf(" CPU %.4f s (wall %.4f s)", setup_cpu[s], setup_wall[s]);
  }
  std::printf("\n");
  const Inputs& in = *inputs;
  std::printf("workload %s: %zu %s rows, %zu requests at %.0f/s, %s, %zu "
              "sessions; budget: 1 load thread + %zu serving workers%s "
              "of %u cores\n",
              spec.name, spec.rows, spec.flights ? "flights" : "nyc311",
              in.due_ms.size(), spec.rate_qps,
              spec.pool > 0
                  ? ("hot pool of " + std::to_string(spec.pool)).c_str()
                  : "fresh transcripts",
              spec.sessions, kServeWorkers,
              spec.ingest_rows_per_s > 0.0 ? " + 1 compaction thread" : "",
              std::thread::hardware_concurrency());

  Report report;
  WriterLog writer;
  WindowStats window;
  Trace trace(args.trace);
  const bool ingest = spec.ingest_rows_per_s > 0.0;
  Collector collector(in, args.seed,
                      ingest        ? Collector::Keep::kCountBars
                      : args.trace ? Collector::Keep::kAll
                                   : Collector::Keep::kSample);
  const muve::PipelineCacheStats cache_before = topo->server->cache_stats();
  host.StartWindow();
  DriveLocal(topo.get(), spec, in, &collector, &writer, &trace, &window);
  host.EndWindow();
  if (!writer.ok) report.Fail("an ingest append failed");
  if (ingest) {
    CheckIngestCounts(*topo->table, in, writer.rows, collector, &report);
  } else {
    muve::MuveEngine oracle(topo->table, OracleOptions());
    CheckAgainstOracle(&oracle, in, collector, &report);
  }
  if (!args.trace) {
    AddEndToEnd(collector.outcomes(), window, setup_cpu, &report);
    return Finish(report, collector.outcomes());
  }

  // Traced run: the open-loop window above gives the serve, cache,
  // ingest and load-generator numbers; a second window of the serial
  // traced composition gives the pipeline layers. On voice_4k the
  // composition executes through a loopback shard cluster, so its
  // answers are compared with the in-process sharded oracle.
  TracedInputs t;
  t.window = &collector.outcomes();
  t.writer = &writer;
  t.cache = Delta(topo->server->cache_stats(), cache_before);
  TraceContext ctx;
  ctx.trace = &trace;
  std::unique_ptr<LoopbackCluster> cluster;  // Outlives the engine below.
  std::shared_ptr<const muve::db::Relation> relation = topo->table;
  std::unique_ptr<muve::exec::Engine> engine;
  std::unique_ptr<muve::MuveEngine> oracle;
  if (spec.trace_routed) {
    muve::shard::ShardedTableOptions shard_options;
    shard_options.num_shards = kRoutedShards;
    Result<std::shared_ptr<muve::shard::ShardedTable>> sharded =
        muve::shard::ShardedTable::FromTable(*topo->table, shard_options);
    if (!sharded.ok()) {
      std::fprintf(stderr, "sharding: %s\n",
                   sharded.status().ToString().c_str());
      return 1;
    }
    const std::shared_ptr<const muve::shard::ShardedTable> view = *sharded;
    Result<std::unique_ptr<LoopbackCluster>> started =
        LoopbackCluster::Start(*view, &ctx);
    if (!started.ok()) {
      std::fprintf(stderr, "cluster: %s\n",
                   started.status().ToString().c_str());
      return 1;
    }
    cluster = *std::move(started);
    muve::exec::EngineOptions engine_options = OracleOptions().execution;
    engine_options.remote_backend = cluster->backend();
    engine = std::make_unique<muve::exec::Engine>(view, engine_options);
    oracle = std::make_unique<muve::MuveEngine>(view, OracleOptions());
    relation = view;
  } else {
    engine = std::make_unique<muve::exec::Engine>(topo->table,
                                                  OracleOptions().execution);
    oracle = std::make_unique<muve::MuveEngine>(topo->table, OracleOptions());
  }
  const Composition composed(relation, engine.get());
  const bool compare_served = spec.pool == 0 && !spec.trace_routed;
  const Composed c = RunComposition(
      composed, oracle.get(), in,
      compare_served ? &collector.outcomes() : nullptr,
      NowMs() + args.seconds * 1000.0, spec.pool > 0, &ctx, &report);
  if (cluster) t.dist = cluster->stats();
  t.composed = &c;
  AddPerLayer(t, trace.spans(), &report);
  WriteTrace(trace, args.trace_out, &report);
  return Finish(report, collector.outcomes());
}

int Usage(const std::string& message) {
  std::fprintf(stderr,
               "%s\nusage: muve_bench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--trace_out FILE]\n",
               message.c_str());
  return 2;
}

int Main(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--trace_out") {
      args.trace_out = value;
    } else {
      return Usage("unknown flag " + flag);
    }
  }
  if (args.seconds <= 0.0) return Usage("--seconds must be positive");
  for (const WorkloadSpec& spec : kWorkloads) {
    if (args.workload != spec.name) continue;
    return Run(spec, args);
  }
  return Usage("unknown workload " + args.workload);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
