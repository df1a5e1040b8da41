#include "tools/load_driver.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <sstream>
#include <utility>

#include "common/clock.h"
#include "common/rng.h"
#include "net/wire.h"
#include "nlq/translator.h"

namespace muve::workload {

namespace {

struct PlannedRequest {
  std::string session_id;
  std::string utterance;
  serve::RequestClass request_class = serve::RequestClass::kInteractive;
};

/// Pre-plans the whole campaign so the request mix is deterministic in
/// the seed regardless of how threads later interleave.
Result<std::vector<PlannedRequest>> PlanRequests(const db::Table& table,
                                                 const LoadOptions& options,
                                                 Rng* rng) {
  std::vector<PlannedRequest> planned;
  planned.reserve(options.num_requests);
  std::vector<std::string> utterance_pool;
  for (size_t i = 0; i < options.num_requests; ++i) {
    PlannedRequest request;
    request.session_id =
        "session-" +
        std::to_string(rng->UniformInt(std::max<size_t>(1, options.num_sessions)));
    if (!utterance_pool.empty() &&
        rng->Bernoulli(options.repeat_probability)) {
      request.utterance = rng->Choice(utterance_pool);
    } else {
      Result<db::AggregateQuery> truth =
          RandomQuery(table, rng, options.query);
      if (!truth.ok()) return truth.status();
      request.utterance = nlq::VerbalizeQuery(truth.value());
      utterance_pool.push_back(request.utterance);
    }
    request.request_class = rng->Bernoulli(options.replay_fraction)
                                ? serve::RequestClass::kReplay
                                : serve::RequestClass::kInteractive;
    planned.push_back(std::move(request));
  }
  return planned;
}

/// Per-request outcome recorded by the drivers.
struct Outcome {
  bool completed = false;
  bool shed = false;
  bool error = false;
  bool shared = false;
  bool deadline_met = false;
  int rung = -1;
  double latency_ms = 0.0;
  double translate_ms = 0.0;
};

Outcome RecordOutcome(const TargetResult& result) {
  Outcome outcome;
  if (result.answer.ok()) {
    const serve::ServedAnswer& served = *result.answer;
    outcome.completed = true;
    outcome.shared = served.shared;
    outcome.deadline_met = served.deadline_met;
    outcome.latency_ms = result.latency_ms;
    outcome.translate_ms = served.answer.timings.translate_millis;
    outcome.rung = static_cast<int>(served.answer.degradation.rung);
  } else if (result.answer.status().code() == StatusCode::kOverloaded) {
    outcome.shed = true;
  } else {
    outcome.error = true;
  }
  return outcome;
}

Request MakeRequest(const PlannedRequest& planned,
                    const LoadOptions& options) {
  Request request = Request::Text(planned.utterance);
  request.tenant_id = options.tenant_id;
  if (std::isfinite(options.deadline_millis)) {
    request.deadline = Deadline::AfterMillis(options.deadline_millis);
  }
  return request;
}

/// `after - before`, counter by counter.
serve::ServerStats StatsDelta(const serve::ServerStats& after,
                              const serve::ServerStats& before) {
  serve::ServerStats delta;
  delta.submitted = after.submitted - before.submitted;
  delta.admitted = after.admitted - before.admitted;
  delta.rejected_queue_full =
      after.rejected_queue_full - before.rejected_queue_full;
  delta.rejected_quota = after.rejected_quota - before.rejected_quota;
  delta.rejected_infeasible =
      after.rejected_infeasible - before.rejected_infeasible;
  delta.rejected_stopped = after.rejected_stopped - before.rejected_stopped;
  delta.shed_at_dispatch = after.shed_at_dispatch - before.shed_at_dispatch;
  delta.completed = after.completed - before.completed;
  delta.failed = after.failed - before.failed;
  delta.single_flight_leaders =
      after.single_flight_leaders - before.single_flight_leaders;
  delta.single_flight_followers =
      after.single_flight_followers - before.single_flight_followers;
  delta.deadline_met = after.deadline_met - before.deadline_met;
  delta.deadline_missed = after.deadline_missed - before.deadline_missed;
  for (size_t i = 0; i < serve::kNumRequestClasses; ++i) {
    delta.class_submitted[i] =
        after.class_submitted[i] - before.class_submitted[i];
  }
  return delta;
}

/// Per-column value pools the ingest writer draws rows from, captured
/// once before the campaign so synthesis never reads the table it is
/// mutating. Strings come from the column's full domain; numerics from a
/// fixed-size sample of existing rows.
Result<std::vector<std::vector<db::Value>>> CaptureIngestPools(
    const db::Table& table, Rng* rng) {
  const size_t rows = table.num_rows();
  if (rows == 0) {
    return Status(StatusCode::kInvalidArgument,
                  "streaming ingest needs a non-empty table to sample "
                  "row shapes from");
  }
  std::vector<std::vector<db::Value>> pools;
  pools.reserve(table.num_columns());
  for (size_t c = 0; c < table.num_columns(); ++c) {
    std::vector<db::Value> pool;
    if (table.spec(c).type == db::ValueType::kString) {
      for (const std::string& value : table.StringValues(c)) {
        pool.emplace_back(value);
      }
    } else {
      for (size_t i = 0; i < 64; ++i) {
        pool.push_back(table.ValueAt(rng->UniformInt(rows), c));
      }
    }
    pools.push_back(std::move(pool));
  }
  return pools;
}

/// The campaign core, shared by both RunLoad overloads. `writable` is
/// null for read-only campaigns; with options.ingest_qps > 0 it is the
/// single-writer side of the snapshot contract.
Result<LoadReport> RunLoadImpl(LoadTarget* target, const db::Table& table,
                               db::Table* writable,
                               const LoadOptions& options,
                               const AnswerSink& on_answer) {
  Rng rng(options.seed);
  Result<std::vector<PlannedRequest>> planned =
      PlanRequests(table, options, &rng);
  if (!planned.ok()) return planned.status();
  const std::vector<PlannedRequest>& requests = planned.value();
  const bool finite_deadline = std::isfinite(options.deadline_millis);

  const std::optional<serve::ServerStats> stats_before = target->stats();

  // One slot per request index: each is written by exactly one thread.
  std::vector<Outcome> outcomes(requests.size());
  auto record = [&](size_t i, const TargetResult& result) {
    outcomes[i] = RecordOutcome(result);
    if (on_answer && result.answer.ok()) on_answer(i, *result.answer);
  };
  auto submit = [&](size_t i) {
    return target->Submit(requests[i].session_id,
                          MakeRequest(requests[i], options),
                          requests[i].request_class);
  };

  const bool ingest = writable != nullptr && options.ingest_qps > 0.0;
  std::vector<std::vector<db::Value>> pools;
  if (ingest) {
    Result<std::vector<std::vector<db::Value>>> captured =
        CaptureIngestPools(table, &rng);
    if (!captured.ok()) return captured.status();
    pools = *std::move(captured);
  }

  const auto wall_start = std::chrono::steady_clock::now();

  // Streaming ingest: one writer thread paced at ingest_qps appends
  // synthesized rows (and periodically seals runs) for the duration of
  // the drive loop, so every read below races live writes.
  std::atomic<bool> ingest_stop{false};
  std::atomic<size_t> ingested{0};
  std::atomic<size_t> ingest_flushes{0};
  std::atomic<bool> ingest_ok{true};
  std::thread writer;
  if (ingest) {
    writer = std::thread([&, wall_start] {
      Rng ingest_rng(options.seed ^ 0x9e3779b97f4a7c15ULL);
      const bool paced = std::isfinite(options.ingest_qps);
      const double gap_ms = paced ? 1000.0 / options.ingest_qps : 0.0;
      size_t n = 0;
      while (!ingest_stop.load(std::memory_order_acquire)) {
        if (paced) {
          std::this_thread::sleep_until(
              wall_start + std::chrono::duration_cast<
                               std::chrono::steady_clock::duration>(
                               std::chrono::duration<double, std::milli>(
                                   gap_ms * static_cast<double>(n))));
          if (ingest_stop.load(std::memory_order_acquire)) break;
        }
        std::vector<db::Value> row;
        row.reserve(pools.size());
        for (const std::vector<db::Value>& pool : pools) {
          row.push_back(ingest_rng.Choice(pool));
        }
        if (!writable->AppendRow(row).ok()) {
          ingest_ok.store(false, std::memory_order_release);
          break;
        }
        ++n;
        ingested.store(n, std::memory_order_release);
        if (options.ingest_flush_every > 0 &&
            n % options.ingest_flush_every == 0) {
          writable->Flush();
          ingest_flushes.fetch_add(1, std::memory_order_relaxed);
        }
        if (!paced) std::this_thread::yield();
      }
    });
  }

  if (options.mode == LoadOptions::Mode::kClosedLoop) {
    // Closed loop: each client keeps one request in flight. The shared
    // cursor hands out planned requests in order.
    std::atomic<size_t> next{0};
    const size_t clients =
        std::max<size_t>(1, std::min(options.num_clients, requests.size()));
    std::vector<std::thread> threads;
    threads.reserve(clients);
    for (size_t c = 0; c < clients; ++c) {
      threads.emplace_back([&] {
        for (;;) {
          const size_t i = next.fetch_add(1, std::memory_order_relaxed);
          if (i >= requests.size()) return;
          record(i, submit(i).get());
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
  } else {
    // Open loop: submit on the arrival schedule no matter how the server
    // is doing, then harvest every future. Deadlines start at submit
    // time, so the schedule is honored even when the queue pushes back.
    std::vector<double> arrivals_ms(requests.size());
    double t = 0.0;
    const double rate = std::max(options.offered_qps, 1e-6);
    for (size_t i = 0; i < requests.size(); ++i) {
      arrivals_ms[i] = t;
      if (options.poisson_arrivals) {
        double u = rng.UniformDouble();
        if (u <= 0.0) u = 0x1.0p-53;
        t += -std::log(u) * 1000.0 / rate;
      } else {
        t += 1000.0 / rate;
      }
    }
    std::vector<std::future<TargetResult>> futures;
    futures.reserve(requests.size());
    for (size_t i = 0; i < requests.size(); ++i) {
      std::this_thread::sleep_until(
          wall_start + std::chrono::duration_cast<
                           std::chrono::steady_clock::duration>(
                           std::chrono::duration<double, std::milli>(
                               arrivals_ms[i])));
      futures.push_back(submit(i));
    }
    for (size_t i = 0; i < futures.size(); ++i) record(i, futures[i].get());
  }

  const double duration_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();

  if (writer.joinable()) {
    ingest_stop.store(true, std::memory_order_release);
    writer.join();
    if (!ingest_ok.load(std::memory_order_acquire)) {
      return Status(StatusCode::kInternal, "streaming ingest append failed");
    }
  }

  LoadReport report;
  report.requests = requests.size();
  report.duration_seconds = duration_seconds;
  std::vector<double> latencies;
  std::vector<double> translate_latencies;
  size_t finite_completed = 0;
  size_t finite_met = 0;
  double latency_sum = 0.0;
  double translate_sum = 0.0;
  for (const Outcome& outcome : outcomes) {
    if (outcome.completed) {
      ++report.completed;
      latencies.push_back(outcome.latency_ms);
      latency_sum += outcome.latency_ms;
      translate_latencies.push_back(outcome.translate_ms);
      translate_sum += outcome.translate_ms;
      if (outcome.shared) ++report.shared_answers;
      if (outcome.rung >= 0 && outcome.rung < 3) {
        ++report.rung_histogram[outcome.rung];
      }
      if (finite_deadline) {
        ++finite_completed;
        if (outcome.deadline_met) ++finite_met;
      }
    } else if (outcome.shed) {
      ++report.shed;
    } else {
      ++report.errors;
    }
  }
  if (duration_seconds > 0.0) {
    report.sustained_qps =
        static_cast<double>(report.completed) / duration_seconds;
  }
  report.offered_qps =
      options.mode == LoadOptions::Mode::kOpenLoop
          ? options.offered_qps
          : (duration_seconds > 0.0
                 ? static_cast<double>(report.requests) / duration_seconds
                 : 0.0);
  report.p50_latency_ms = Percentile(latencies, 0.50);
  report.p95_latency_ms = Percentile(latencies, 0.95);
  report.p99_latency_ms = Percentile(latencies, 0.99);
  report.mean_latency_ms =
      report.completed > 0
          ? latency_sum / static_cast<double>(report.completed)
          : 0.0;
  report.translate_p50_ms = Percentile(translate_latencies, 0.50);
  report.translate_p99_ms = Percentile(translate_latencies, 0.99);
  report.translate_mean_ms =
      report.completed > 0
          ? translate_sum / static_cast<double>(report.completed)
          : 0.0;
  report.shed_ratio =
      report.requests > 0
          ? static_cast<double>(report.shed) /
                static_cast<double>(report.requests)
          : 0.0;
  report.deadline_hit_ratio =
      finite_completed > 0 ? static_cast<double>(finite_met) /
                                 static_cast<double>(finite_completed)
                           : 1.0;
  report.single_flight_hit_ratio =
      report.completed > 0
          ? static_cast<double>(report.shared_answers) /
                static_cast<double>(report.completed)
          : 0.0;

  // Server funnel deltas over this campaign.
  const std::optional<serve::ServerStats> stats_after = target->stats();
  if (stats_before && stats_after) {
    report.server = StatsDelta(*stats_after, *stats_before);
  }

  report.ingested_rows = ingested.load(std::memory_order_acquire);
  report.ingest_flushes = ingest_flushes.load(std::memory_order_acquire);
  report.ingest_sustained_qps =
      duration_seconds > 0.0
          ? static_cast<double>(report.ingested_rows) / duration_seconds
          : 0.0;
  return report;
}

/// One kRequest round trip. Server-side rejections (Overloaded, pipeline
/// errors) come back as their decoded Status.
Result<serve::ServedAnswer> Ask(net::Connection& connection,
                                const Request& request,
                                serve::RequestClass request_class) {
  MUVE_ASSIGN_OR_RETURN(
      net::Frame reply,
      connection.Call(net::FrameType::kRequest,
                      net::SerializeRequestPayload(request, request_class),
                      Deadline::Infinite()));
  if (reply.type != net::FrameType::kAnswer) {
    return Status::ParseError("unexpected frame type " +
                              std::to_string(static_cast<int>(reply.type)));
  }
  return net::ParseServedAnswer(reply.payload);
}

}  // namespace

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  const size_t n = samples.size();
  const size_t rank =
      std::clamp<size_t>(
          static_cast<size_t>(std::ceil(p * static_cast<double>(n))), 1, n) -
      1;
  std::nth_element(samples.begin(), samples.begin() + rank, samples.end());
  return samples[rank];
}

std::future<TargetResult> InProcessTarget::Submit(
    const std::string& session_id, Request request,
    serve::RequestClass request_class) {
  std::future<Result<serve::ServedAnswer>> answer =
      server_->Submit(session_id, std::move(request), request_class);
  // Deferred: the waiting thread unwraps the server's future.
  return std::async(std::launch::deferred,
                    [answer = std::move(answer)]() mutable {
                      Result<serve::ServedAnswer> served = answer.get();
                      const double latency_ms =
                          served.ok() ? served->total_millis : 0.0;
                      return TargetResult{std::move(served), latency_ms};
                    });
}

Result<std::unique_ptr<RemoteTarget>> RemoteTarget::Connect(
    const std::string& host, uint16_t port, size_t connections) {
  std::unique_ptr<RemoteTarget> target(new RemoteTarget());
  for (size_t i = 0; i < std::max<size_t>(1, connections); ++i) {
    // No connect timeout: the campaign waits for its server.
    MUVE_ASSIGN_OR_RETURN(net::Connection connection,
                          net::Connection::Connect(host, port, 0.0));
    target->threads_.emplace_back(&RemoteTarget::Serve, target.get(),
                                  std::move(connection));
  }
  return target;
}

RemoteTarget::~RemoteTarget() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  ready_.notify_all();
  for (std::thread& thread : threads_) thread.join();
}

std::future<TargetResult> RemoteTarget::Submit(
    const std::string& /*session_id*/, Request request,
    serve::RequestClass request_class) {
  // The server names the session after the connection.
  const auto submitted = std::chrono::steady_clock::now();
  std::promise<TargetResult> promise;
  std::future<TargetResult> result = promise.get_future();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    pending_.push_back(
        {std::move(request), request_class, std::move(promise), submitted});
  }
  ready_.notify_one();
  return result;
}

void RemoteTarget::Serve(net::Connection connection) {
  for (;;) {
    std::unique_lock<std::mutex> lock(mutex_);
    ready_.wait(lock, [this] { return stopping_ || !pending_.empty(); });
    if (pending_.empty()) return;
    Pending next = std::move(pending_.front());
    pending_.pop_front();
    lock.unlock();
    Result<serve::ServedAnswer> answer =
        Ask(connection, next.request, next.request_class);
    const double latency_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - next.submitted)
            .count();
    next.promise.set_value(TargetResult{std::move(answer), latency_ms});
  }
}

Result<LoadReport> RunLoad(LoadTarget* target, const db::Table& table,
                           const LoadOptions& options,
                           const AnswerSink& on_answer) {
  if (options.ingest_qps > 0.0) {
    return Status(StatusCode::kInvalidArgument,
                  "ingest_qps > 0 requires the mutable RunLoad overload");
  }
  return RunLoadImpl(target, table, nullptr, options, on_answer);
}

Result<LoadReport> RunLoad(LoadTarget* target, db::Table* table,
                           const LoadOptions& options) {
  return RunLoadImpl(target, *table, table, options, nullptr);
}

std::string LoadReport::ToJson(const std::string& indent) const {
  std::ostringstream out;
  const std::string inner = indent + "  ";
  out << "{\n";
  out << inner << "\"requests\": " << requests << ",\n";
  out << inner << "\"completed\": " << completed << ",\n";
  out << inner << "\"shed\": " << shed << ",\n";
  out << inner << "\"errors\": " << errors << ",\n";
  out << inner << "\"duration_seconds\": " << duration_seconds << ",\n";
  out << inner << "\"offered_qps\": " << offered_qps << ",\n";
  out << inner << "\"sustained_qps\": " << sustained_qps << ",\n";
  out << inner << "\"p50_latency_ms\": " << p50_latency_ms << ",\n";
  out << inner << "\"p95_latency_ms\": " << p95_latency_ms << ",\n";
  out << inner << "\"p99_latency_ms\": " << p99_latency_ms << ",\n";
  out << inner << "\"mean_latency_ms\": " << mean_latency_ms << ",\n";
  out << inner << "\"translate_p50_ms\": " << translate_p50_ms << ",\n";
  out << inner << "\"translate_p99_ms\": " << translate_p99_ms << ",\n";
  out << inner << "\"translate_mean_ms\": " << translate_mean_ms << ",\n";
  out << inner << "\"shed_ratio\": " << shed_ratio << ",\n";
  out << inner << "\"deadline_hit_ratio\": " << deadline_hit_ratio << ",\n";
  out << inner << "\"shared_answers\": " << shared_answers << ",\n";
  out << inner << "\"single_flight_hit_ratio\": " << single_flight_hit_ratio
      << ",\n";
  out << inner << "\"rung_histogram\": {\"exact\": " << rung_histogram[0]
      << ", \"degraded_plan\": " << rung_histogram[1]
      << ", \"base_only\": " << rung_histogram[2] << "},\n";
  out << inner << "\"ingested_rows\": " << ingested_rows << ",\n";
  out << inner << "\"ingest_sustained_qps\": " << ingest_sustained_qps
      << ",\n";
  out << inner << "\"ingest_flushes\": " << ingest_flushes;
  if (server) {
    const std::string deep = inner + "  ";
    out << ",\n" << inner << "\"server\": {\n";
    out << deep << "\"submitted\": " << server->submitted << ",\n";
    out << deep << "\"admitted\": " << server->admitted << ",\n";
    out << deep << "\"rejected_queue_full\": " << server->rejected_queue_full
        << ",\n";
    out << deep << "\"rejected_quota\": " << server->rejected_quota << ",\n";
    out << deep << "\"rejected_infeasible\": " << server->rejected_infeasible
        << ",\n";
    out << deep << "\"rejected_stopped\": " << server->rejected_stopped
        << ",\n";
    out << deep << "\"shed_at_dispatch\": " << server->shed_at_dispatch
        << ",\n";
    out << deep << "\"completed\": " << server->completed << ",\n";
    out << deep << "\"failed\": " << server->failed << ",\n";
    out << deep << "\"single_flight_leaders\": "
        << server->single_flight_leaders << ",\n";
    out << deep << "\"single_flight_followers\": "
        << server->single_flight_followers << ",\n";
    out << deep << "\"deadline_met\": " << server->deadline_met << ",\n";
    out << deep << "\"deadline_missed\": " << server->deadline_missed
        << ",\n";
    out << deep << "\"interactive_submitted\": "
        << server->class_submitted[0] << ",\n";
    out << deep << "\"replay_submitted\": " << server->class_submitted[1]
        << "\n";
    out << inner << "}";
  }
  out << "\n" << indent << "}";
  return out.str();
}

}  // namespace muve::workload
