#ifndef MUVE_SERVE_SERVER_H_
#define MUVE_SERVE_SERVER_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/clock.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "db/relation.h"
#include "muve/muve_engine.h"
#include "serve/admission_queue.h"
#include "serve/session_manager.h"
#include "serve/single_flight.h"
#include "serve/tenant.h"

namespace muve::serve {

/// Engine options tuned for serving: the engine runs the exact serial
/// pipeline (num_threads = 1) so parallelism comes from concurrent
/// requests across server workers, not from a nested engine pool —
/// every worker calling into an M-thread pool would oversubscribe the
/// machine long before the admission queue pushes back.
inline MuveOptions ServingEngineDefaults() {
  MuveOptions options;
  options.execution.num_threads = 1;
  return options;
}

/// Serving front-end configuration.
struct ServerOptions {
  /// Worker threads dispatching admitted requests (at least 1). Each
  /// worker drives one request at a time through the engine's serial
  /// pipeline, so this is the service-level parallelism knob.
  size_t num_workers = 4;
  /// Bound on admitted-but-undispatched requests; a full queue rejects
  /// new requests fast with Status::Overloaded (backpressure instead of
  /// unbounded queueing).
  size_t max_queue_depth = 64;
  /// Feasibility floor (ms): a finite-deadline request whose remaining
  /// budget is below this is shed with Status::Overloaded — at admission
  /// and again at dispatch (its budget may have drained in the queue) —
  /// instead of burning a worker on an answer that can only be the
  /// bottom degradation rung delivered late. 0 disables shedding: every
  /// admitted request runs and degrades through the engine's ladder.
  double feasibility_floor_millis = 0.0;
  /// Coalesce concurrent requests with equal normalized transcript keys
  /// onto one pipeline execution (see SingleFlight): the first becomes
  /// the queued leader, identical requests admitted while it is queued
  /// or executing attach to it without consuming queue slots, and the
  /// leader's worker fans its answer out. Only
  /// deterministic-by-transcript requests participate: text input, no
  /// cache bypass, no per-request planner override, no stage observer.
  bool enable_single_flight = true;
  /// The server's one engine, shared by every session and worker.
  MuveOptions engine = ServingEngineDefaults();
  /// Voice-noise stream capacity and seeding.
  SessionManagerOptions sessions;
  /// Quota and fair-share weight for tenants without an entry in
  /// `tenant_quotas` (including the default "" tenant). The default is
  /// unlimited rate, weight 1 — single-tenant callers see no change.
  TenantQuota default_tenant_quota;
  /// Per-tenant overrides, keyed by Request::tenant_id.
  std::unordered_map<std::string, TenantQuota> tenant_quotas;
};

/// One served answer plus serving-side measurements.
struct ServedAnswer {
  MuveEngine::Answer answer;
  RequestClass request_class = RequestClass::kInteractive;
  /// True when the answer was fanned out from a single-flight leader's
  /// execution instead of a pipeline run of its own.
  bool shared = false;
  /// Milliseconds spent queued between admission and dispatch.
  double queue_millis = 0.0;
  /// Milliseconds spent executing (or waiting on the leader).
  double service_millis = 0.0;
  /// Admission-to-completion milliseconds.
  double total_millis = 0.0;
  /// For finite-deadline requests: the deadline had not expired when the
  /// answer was ready. Always true for unbounded requests.
  bool deadline_met = true;
};

/// Counter snapshot of the server's serving funnel.
struct ServerStats {
  uint64_t submitted = 0;
  uint64_t admitted = 0;
  /// Rejected at admission: queue at max depth.
  uint64_t rejected_queue_full = 0;
  /// Rejected at admission: the tenant's token bucket was empty.
  uint64_t rejected_quota = 0;
  /// Rejected at admission: remaining budget below the feasibility
  /// floor.
  uint64_t rejected_infeasible = 0;
  /// Rejected because the server was draining or stopped.
  uint64_t rejected_stopped = 0;
  /// Admitted, then shed at dispatch (budget drained below the floor
  /// while queued).
  uint64_t shed_at_dispatch = 0;
  /// Dispatched and answered successfully.
  uint64_t completed = 0;
  /// Dispatched but the pipeline errored (translation failure etc.).
  /// Disjoint from `completed`: completed + failed = dispatched-and-run.
  uint64_t failed = 0;
  /// Coalescible requests that opened a flight (and executed, unless
  /// shed).
  uint64_t single_flight_leaders = 0;
  /// Requests that attached to an open flight instead of queueing; each
  /// resolves with its leader's outcome, `ServedAnswer::shared` true.
  uint64_t single_flight_followers = 0;
  /// Finite-deadline completions that met / missed their deadline.
  uint64_t deadline_met = 0;
  uint64_t deadline_missed = 0;
  /// Submissions per RequestClass.
  uint64_t class_submitted[kNumRequestClasses] = {0, 0};

  /// Everything shed or rejected for load reasons (not pipeline
  /// errors): queue-full + quota + infeasible + shed-at-dispatch.
  uint64_t shed_total() const {
    return rejected_queue_full + rejected_quota + rejected_infeasible +
           shed_at_dispatch;
  }
};

/// The concurrent serving front end over one MuveEngine: a bounded EDF
/// admission queue with priority classes and load shedding
/// (AdmissionQueue), single-flight coalescing of identical concurrent
/// work (SingleFlight), per-session voice-noise streams
/// (SessionManager), and a dispatch loop of `num_workers` workers on one
/// common::ThreadPool, every one of them calling the engine's Ask
/// concurrently. The engine's plan memo is thereby shared by every
/// session: a transcript one session asked replays for the next.
///
/// Submit() is the asynchronous entry (admission decision now, answer
/// via future); Ask() is the blocking convenience. With one worker,
/// queue depth 1, and infinite deadlines, serving a workload
/// sequentially is byte-identical to calling MuveEngine::Ask directly
/// on one engine built from `options().engine` — the differential suite
/// locks this in.
///
/// Shutdown: Drain() (also run by the destructor) stops admissions,
/// lets queued requests finish, then joins the workers. Stop() sheds
/// queued requests instead (their futures resolve with Overloaded).
class Server {
 public:
  /// Serves `relation`, single or sharded, from one engine built from
  /// `options.engine` (schema index, calibration and speech lexicon are
  /// built here, once).
  Server(std::shared_ptr<const db::Relation> relation,
         ServerOptions options = {});
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Admission-controlled asynchronous serving. The returned future is
  /// always valid; rejections (Overloaded, stopped) resolve it
  /// immediately.
  std::future<Result<ServedAnswer>> Submit(
      const std::string& session_id, Request request,
      RequestClass request_class = RequestClass::kInteractive);

  /// Blocking convenience: Submit + wait.
  Result<ServedAnswer> Ask(const std::string& session_id, Request request,
                           RequestClass request_class =
                               RequestClass::kInteractive);

  /// Stops admissions, finishes every queued request, joins workers.
  /// Idempotent.
  void Drain();

  /// Stops admissions, shed every queued request with Overloaded, joins
  /// workers. Idempotent (and a no-op after Drain).
  void Stop();

  ServerStats stats() const;
  /// Funnel counters for one tenant ("" = the default tenant).
  TenantCounters tenant_counters(const std::string& tenant_id) const {
    return tenants_.counters(tenant_id);
  }
  size_t queue_depth() const { return queue_.depth(); }
  /// Sessions whose voice-noise stream is live (see SessionManager).
  size_t live_sessions() const { return sessions_.live_sessions(); }
  /// The one engine every session and worker shares.
  const MuveEngine& engine() const { return engine_; }
  PipelineCacheStats cache_stats() const { return engine_.cache_stats(); }
  const ServerOptions& options() const { return options_; }

 private:
  struct Task {
    std::string session_id;
    Request request;
    RequestClass request_class = RequestClass::kInteractive;
    std::promise<Result<ServedAnswer>> promise;
    /// Admission instant on the server clock, for queue_millis.
    double admitted_millis = 0.0;
    /// Engaged when this task leads a single-flight: followers attach
    /// to it while the task is queued or executing, and ProcessTask
    /// closes it to fan the answer out.
    FlightTicket flight;
  };
  using TaskPtr = std::unique_ptr<Task>;

  void WorkerLoop();
  void ProcessTask(TaskPtr task);
  /// Runs the pipeline for `task`: voice RNG derivation from the
  /// session's stream, engine Ask.
  Result<MuveEngine::Answer> Execute(Task& task);
  /// Resolves `task` (and counts it) with the shed status `status`.
  void ShedTask(Task& task, const Status& status, uint64_t ServerStats::*counter);
  /// True when the request may coalesce with identical concurrent work.
  static bool Coalescible(const Request& request);
  double NowMillis() const;

  const ServerOptions options_;
  MuveEngine engine_;
  SessionManager sessions_;
  AdmissionQueue<TaskPtr> queue_;
  TenantAccountant tenants_;
  SingleFlight<TaskPtr> single_flight_;
  std::unique_ptr<ThreadPool> pool_;
  std::vector<std::future<void>> workers_;

  mutable std::mutex lifecycle_mutex_;
  bool accepting_ = true;
  bool joined_ = false;
  /// True while Stop() wants queued tasks shed rather than executed.
  std::atomic<bool> shed_queued_{false};

  mutable std::mutex stats_mutex_;
  ServerStats stats_;
};

}  // namespace muve::serve

#endif  // MUVE_SERVE_SERVER_H_
