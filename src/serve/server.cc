#include "serve/server.h"

#include <algorithm>
#include <cstdio>
#include <utility>
#include <vector>

#include "net/wire.h"

namespace muve::serve {
namespace {

/// " (remaining X ms < floor Y ms)" — the numbers a caller needs to
/// tell "sent with too little budget" from "budget drained in queue".
std::string FloorDetail(double remaining_millis, double floor_millis) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), " (remaining %.3f ms < floor %.3f ms)",
                remaining_millis, floor_millis);
  return buf;
}

}  // namespace

Server::Server(std::shared_ptr<const db::Relation> relation,
               ServerOptions options)
    : options_(options),
      engine_(std::move(relation), options_.engine),
      sessions_(options_.sessions),
      queue_(options.max_queue_depth),
      tenants_(options.default_tenant_quota, options.tenant_quotas) {
  const size_t workers = std::max<size_t>(1, options_.num_workers);
  pool_ = std::make_unique<ThreadPool>(workers);
  workers_.reserve(workers);
  for (size_t i = 0; i < workers; ++i) {
    workers_.push_back(pool_->Submit([this] { WorkerLoop(); }));
  }
}

Server::~Server() { Drain(); }

double Server::NowMillis() const {
  return MonotonicClock::Instance()->NowMillis();
}

std::future<Result<ServedAnswer>> Server::Submit(
    const std::string& session_id, Request request,
    RequestClass request_class) {
  auto task = std::make_unique<Task>();
  task->session_id = session_id;
  task->request = std::move(request);
  task->request_class = request_class;
  std::future<Result<ServedAnswer>> future = task->promise.get_future();

  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.submitted;
    ++stats_.class_submitted[static_cast<size_t>(request_class)];
  }

  {
    std::lock_guard<std::mutex> lock(lifecycle_mutex_);
    if (!accepting_) {
      std::lock_guard<std::mutex> stats_lock(stats_mutex_);
      ++stats_.rejected_stopped;
      task->promise.set_value(
          Status::FailedPrecondition("server is draining"));
      return future;
    }
  }

  // Per-tenant token bucket: a tenant offering above its contracted
  // rate is clipped here, before it can consume queue slots that
  // belong to everyone.
  const std::string tenant = task->request.tenant_id;
  {
    const Status quota = tenants_.Admit(tenant);
    if (!quota.ok()) {
      std::lock_guard<std::mutex> lock(stats_mutex_);
      ++stats_.rejected_quota;
      task->promise.set_value(quota);
      return future;
    }
  }

  // Feasibility floor: a request that cannot possibly be answered in
  // its remaining budget is rejected now — cheaply, at admission —
  // instead of occupying queue and worker capacity to deliver a
  // bottom-rung answer after its deadline anyway.
  const Deadline& deadline = task->request.deadline;
  if (options_.feasibility_floor_millis > 0.0 && deadline.IsFinite() &&
      deadline.RemainingMillis() < options_.feasibility_floor_millis) {
    tenants_.RecordShed(tenant);
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.rejected_infeasible;
    task->promise.set_value(Status::Overloaded(
        "remaining deadline budget below feasibility floor" +
        FloorDetail(deadline.RemainingMillis(),
                    options_.feasibility_floor_millis)));
    return future;
  }

  // Single-flight admission: when an identical coalescible request is
  // already queued or executing, attach this one to its flight instead
  // of spending a queue slot and a dispatch on duplicated work. The
  // leader's worker resolves the promise when it fans its answer out.
  // The key is tenant-prefixed: coalescing across tenants would let a
  // quota-clipped tenant ride another tenant's admissions.
  if (options_.enable_single_flight && Coalescible(task->request)) {
    task->admitted_millis = NowMillis();
    const std::string key =
        tenant + '\x1F' +
        MuveEngine::NormalizedTranscriptKey(task->request.transcript);
    FlightTicket ticket = single_flight_.LeadOrAttach(key, &task);
    if (!ticket.led) {
      std::lock_guard<std::mutex> lock(stats_mutex_);
      ++stats_.admitted;
      return future;
    }
    task->flight = std::move(ticket);
  }

  task->admitted_millis = NowMillis();
  const Status pushed = queue_.Push(std::move(task), deadline, request_class,
                                    tenant, tenants_.Weight(tenant));
  if (!pushed.ok()) {
    Status reject = pushed;
    {
      std::lock_guard<std::mutex> lock(stats_mutex_);
      if (pushed.code() == StatusCode::kOverloaded) {
        ++stats_.rejected_queue_full;
        // The bare "admission queue full" loses what the caller needs
        // for retry policy: how deep the queue is and how much budget
        // the request still had when it was turned away.
        char detail[128];
        if (deadline.IsFinite()) {
          std::snprintf(detail, sizeof(detail),
                        " (depth %zu; remaining deadline budget %.3f ms)",
                        queue_.max_depth(), deadline.RemainingMillis());
        } else {
          std::snprintf(detail, sizeof(detail),
                        " (depth %zu; deadline unbounded)",
                        queue_.max_depth());
        }
        reject = Status::Overloaded(pushed.message() + detail);
      } else {
        ++stats_.rejected_stopped;
      }
    }
    tenants_.RecordShed(tenant);
    // Push rejections leave the caller's object intact; release any
    // followers that attached in the window since LeadOrAttach.
    std::vector<TaskPtr> orphans = single_flight_.Close(task->flight);
    for (TaskPtr& orphan : orphans) {
      ShedTask(*orphan, reject, &ServerStats::shed_at_dispatch);
    }
    task->promise.set_value(reject);
    return future;
  }
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.admitted;
  }
  return future;
}

Result<ServedAnswer> Server::Ask(const std::string& session_id,
                                 Request request,
                                 RequestClass request_class) {
  return Submit(session_id, std::move(request), request_class).get();
}

void Server::WorkerLoop() {
  TaskPtr task;
  while (queue_.Pop(&task)) {
    ProcessTask(std::move(task));
  }
}

void Server::ShedTask(Task& task, const Status& status,
                      uint64_t ServerStats::*counter) {
  tenants_.RecordShed(task.request.tenant_id);
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++(stats_.*counter);
  }
  task.promise.set_value(status);
}

void Server::ProcessTask(TaskPtr task) {
  if (shed_queued_.load(std::memory_order_acquire)) {
    const Status status =
        Status::Overloaded("server stopped before dispatch");
    std::vector<TaskPtr> members = single_flight_.Close(task->flight);
    for (TaskPtr& member : members) {
      ShedTask(*member, status, &ServerStats::rejected_stopped);
    }
    ShedTask(*task, status, &ServerStats::rejected_stopped);
    return;
  }

  const double queue_millis =
      std::max(0.0, NowMillis() - task->admitted_millis);

  const auto below_floor = [this](const Deadline& d) {
    return options_.feasibility_floor_millis > 0.0 && d.IsFinite() &&
           d.RemainingMillis() < options_.feasibility_floor_millis;
  };

  // Re-check feasibility at dispatch: the budget may have drained while
  // the request waited behind earlier deadlines. Followers have budgets
  // of their own, so a shed leader closes its flight and promotes the
  // first follower that can still make its deadline; the rest ride on
  // the promoted execution or are shed with it.
  std::vector<TaskPtr> carried;
  const auto drained_status = [this](const Deadline& d) {
    return Status::Overloaded(
        "deadline budget drained below feasibility floor in queue" +
        FloorDetail(d.RemainingMillis(), options_.feasibility_floor_millis));
  };
  if (below_floor(task->request.deadline)) {
    std::vector<TaskPtr> members = single_flight_.Close(task->flight);
    ShedTask(*task, drained_status(task->request.deadline),
             &ServerStats::shed_at_dispatch);
    task.reset();
    for (TaskPtr& member : members) {
      if (below_floor(member->request.deadline)) {
        ShedTask(*member, drained_status(member->request.deadline),
                 &ServerStats::shed_at_dispatch);
      } else if (task == nullptr) {
        task = std::move(member);
      } else {
        carried.push_back(std::move(member));
      }
    }
    if (task == nullptr) return;
  }

  const double service_start = NowMillis();
  Result<MuveEngine::Answer> result = Execute(*task);
  const double now = NowMillis();

  // Take everything that attached while this task was queued and
  // executing (plus any promoted survivors); they all resolve from this
  // one execution.
  std::vector<TaskPtr> followers = std::move(carried);
  {
    std::vector<TaskPtr> late = single_flight_.Close(task->flight);
    for (TaskPtr& member : late) followers.push_back(std::move(member));
  }

  if (!result.ok()) {
    {
      std::lock_guard<std::mutex> lock(stats_mutex_);
      stats_.failed += 1 + followers.size();
    }
    for (TaskPtr& member : followers) {
      tenants_.RecordShed(member->request.tenant_id);
      member->promise.set_value(result.status());
    }
    tenants_.RecordShed(task->request.tenant_id);
    task->promise.set_value(result.status());
    return;
  }

  ServedAnswer served;
  served.answer = std::move(result).value();
  served.request_class = task->request_class;
  served.shared = false;
  served.queue_millis = queue_millis;
  served.service_millis = std::max(0.0, now - service_start);
  served.total_millis = std::max(0.0, now - task->admitted_millis);
  const Deadline& deadline = task->request.deadline;
  served.deadline_met = !deadline.IsFinite() || !deadline.Expired();

  // Fan out through the stable Answer codec instead of a struct copy:
  // every follower decodes the same bytes a remote client would
  // receive, so in-process fan-out and the wire agree by construction
  // (the golden-file round-trip test pins the format itself).
  std::string packed;
  if (!followers.empty()) packed = net::SerializeAnswer(served.answer);
  for (TaskPtr& member : followers) {
    Result<MuveEngine::Answer> decoded = net::ParseAnswer(packed);
    if (!decoded.ok()) {
      // A codec defect, not load: fail the follower with the parse
      // error rather than inventing an answer.
      tenants_.RecordShed(member->request.tenant_id);
      {
        std::lock_guard<std::mutex> lock(stats_mutex_);
        ++stats_.failed;
      }
      member->promise.set_value(decoded.status());
      continue;
    }
    ServedAnswer fanned;
    fanned.answer = std::move(decoded).value();
    fanned.request_class = member->request_class;
    fanned.shared = true;
    // A follower never queued or executed: its whole life was waiting
    // on the leader's flight, accounted as queueing.
    fanned.total_millis =
        std::max(0.0, now - member->admitted_millis);
    fanned.queue_millis = fanned.total_millis;
    fanned.service_millis = 0.0;
    const Deadline& member_deadline = member->request.deadline;
    fanned.deadline_met =
        !member_deadline.IsFinite() || !member_deadline.Expired();
    tenants_.RecordCompleted(member->request.tenant_id);
    {
      std::lock_guard<std::mutex> lock(stats_mutex_);
      ++stats_.completed;
      if (member_deadline.IsFinite()) {
        if (fanned.deadline_met) {
          ++stats_.deadline_met;
        } else {
          ++stats_.deadline_missed;
        }
      }
    }
    member->promise.set_value(std::move(fanned));
  }

  tenants_.RecordCompleted(task->request.tenant_id);
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.completed;
    if (deadline.IsFinite()) {
      if (served.deadline_met) {
        ++stats_.deadline_met;
      } else {
        ++stats_.deadline_missed;
      }
    }
  }
  task->promise.set_value(std::move(served));
}

bool Server::Coalescible(const Request& request) {
  // Only requests whose answer is a pure function of the transcript may
  // share work: voice noise is per-session-random, bypass/override
  // requests intentionally diverge from the engine default, and stage
  // observers must see their own pipeline run.
  return !request.voice && !request.bypass_cache &&
         !request.use_ilp.has_value() && !request.stage_observer;
}

Result<MuveEngine::Answer> Server::Execute(Task& task) {
  Request& request = task.request;
  Rng request_rng(0);
  if (request.voice && request.rng == nullptr) {
    // Derive a per-request seed from the session's voice-noise stream:
    // concurrent requests of one session never race on one Rng, and a
    // sequentially processed workload replays bit-identically.
    request_rng.Seed(sessions_.DrawRngSeed(task.session_id));
    request.rng = &request_rng;
  }
  return engine_.Ask(request);
}

void Server::Drain() {
  {
    std::lock_guard<std::mutex> lock(lifecycle_mutex_);
    accepting_ = false;
    if (joined_) return;
    joined_ = true;
  }
  queue_.Close();
  for (std::future<void>& worker : workers_) {
    if (worker.valid()) worker.get();
  }
  workers_.clear();
  pool_->Shutdown();
}

void Server::Stop() {
  shed_queued_.store(true, std::memory_order_release);
  Drain();
}

ServerStats Server::stats() const {
  ServerStats snapshot;
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    snapshot = stats_;
  }
  snapshot.single_flight_leaders = single_flight_.flights_led();
  snapshot.single_flight_followers = single_flight_.attached();
  return snapshot;
}

}  // namespace muve::serve
