#include "dist/coordinator.h"

#include <poll.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <utility>

#include "common/strings.h"
#include "net/connection.h"
#include "net/protocol.h"

namespace muve::dist {

namespace {

constexpr double kInfinity = std::numeric_limits<double>::infinity();

/// Cap on one poll(2) sleep, so the loop re-reads the clock often enough
/// for backoff/hedge timers even when the next computed event is far out.
constexpr int kMaxPollWaitMillis = 20;

int PollWaitMillis(double wait_ms) {
  if (wait_ms <= 0.0) return 0;
  const double capped =
      std::min(wait_ms, static_cast<double>(kMaxPollWaitMillis));
  return std::max(1, static_cast<int>(std::ceil(capped)));
}

}  // namespace

Coordinator::Coordinator(std::vector<Endpoint> endpoints,
                         CoordinatorOptions options)
    : options_(options),
      clock_(options.clock != nullptr ? options.clock
                                      : MonotonicClock::Instance()) {
  // A non-positive or infinite per-attempt cap would let a silent shard
  // hang an infinite-deadline gather; clamp back to the default.
  if (!(options_.request_timeout_ms > 0.0) ||
      options_.request_timeout_ms == kInfinity) {
    options_.request_timeout_ms = 1000.0;
  }
  if (options_.max_retries < 0) options_.max_retries = 0;
  if (options_.eject_after_failures < 1) options_.eject_after_failures = 1;
  shards_.reserve(endpoints.size());
  for (Endpoint& endpoint : endpoints) {
    shards_.push_back(std::make_unique<Shard>(std::move(endpoint), options_));
  }
}

bool Coordinator::EjectedNow(Shard& shard, double now_ms) {
  if (!shard.ejected) return false;
  if (now_ms >= shard.ejected_until_ms) {
    // The re-probe: let this leg through, and hold other legs off for
    // another window so one probe at a time tests the downstream.
    shard.ejected_until_ms = now_ms + options_.reprobe_after_ms;
    return false;
  }
  return true;
}

void Coordinator::RecordFailure(Shard& shard, double now_ms) {
  ++shard.consecutive_failures;
  if (shard.ejected) {
    // Failed re-probe: stay open, push the window out.
    shard.ejected_until_ms = now_ms + options_.reprobe_after_ms;
    return;
  }
  if (shard.consecutive_failures >= options_.eject_after_failures) {
    shard.ejected = true;
    shard.ejected_until_ms = now_ms + options_.reprobe_after_ms;
    ++shard.counters.ejections;
    // A recovered peer should start from fresh sockets.
    shard.pool.Clear();
  }
}

void Coordinator::RecordSuccess(Shard& shard) {
  shard.consecutive_failures = 0;
  shard.ejected = false;
}

std::vector<Coordinator::Reply> Coordinator::Gather(const std::string& payload,
                                                    const Deadline& deadline) {
  // Anchor the caller's deadline on our clock once; all timers below are
  // absolute milliseconds on clock_.
  const double overall_expiry_ms =
      deadline.IsFinite() ? NowMs() + deadline.RemainingMillis() : kInfinity;

  struct Flight {
    net::Connection conn;
    bool is_hedge = false;
  };
  struct Leg {
    Shard* shard = nullptr;
    std::vector<Flight> flights;  ///< 1 in flight, 2 after a hedge.
    int attempts_started = 0;
    double attempt_expiry_ms = kInfinity;
    bool attempt_penalize = true;  ///< Timeout trips the breaker only
                                   ///< when the window wasn't clipped by
                                   ///< the caller's (tighter) deadline.
    double retry_at_ms = kInfinity;
    double hedge_at_ms = kInfinity;
    bool hedged = false;
    bool done = false;
    Reply reply;
  };

  std::vector<Leg> legs(shards_.size());

  // Drops the leg's attempt: close every flight, account the failure,
  // and either schedule a backoff retry or give the stripe up.
  auto fail_attempt = [&](Leg& leg, double now_ms, bool timed_out,
                          bool penalize) {
    leg.flights.clear();
    {
      std::lock_guard<std::mutex> lock(leg.shard->mutex);
      if (timed_out) {
        ++leg.shard->counters.timeouts;
      } else {
        ++leg.shard->counters.transport_errors;
      }
      if (penalize) RecordFailure(*leg.shard, now_ms);
    }
    leg.attempt_expiry_ms = kInfinity;
    leg.hedge_at_ms = kInfinity;
    const bool can_retry = leg.attempts_started < 1 + options_.max_retries;
    const int backoff_exp = std::min(std::max(leg.attempts_started - 1, 0), 20);
    const double retry_at_ms =
        now_ms + std::max(0.0, options_.retry_backoff_ms) *
                     static_cast<double>(1 << backoff_exp);
    if (can_retry && retry_at_ms < overall_expiry_ms) {
      leg.retry_at_ms = retry_at_ms;
    } else {
      leg.done = true;
      leg.reply.dropped = true;
      std::lock_guard<std::mutex> lock(leg.shard->mutex);
      ++leg.shard->counters.dropped;
    }
  };

  // Dials (or reuses) a connection and writes the query. On transport
  // failure, falls through to fail_attempt (which may schedule a retry).
  auto start_attempt = [&](Leg& leg, double now_ms) {
    ++leg.attempts_started;
    if (leg.attempts_started > 1) {
      std::lock_guard<std::mutex> lock(leg.shard->mutex);
      ++leg.shard->counters.retries;
    }
    leg.retry_at_ms = kInfinity;
    const double window_end_ms = now_ms + options_.request_timeout_ms;
    leg.attempt_penalize = window_end_ms <= overall_expiry_ms;
    leg.attempt_expiry_ms = std::min(window_end_ms, overall_expiry_ms);
    const bool hedging = options_.hedge_delay_ms > 0.0 &&
                         options_.hedge_delay_ms != kInfinity && !leg.hedged;
    leg.hedge_at_ms = hedging ? now_ms + options_.hedge_delay_ms : kInfinity;

    const Deadline attempt_deadline =
        Deadline::AfterMillis(leg.attempt_expiry_ms - now_ms, clock_);
    Result<net::Connection> conn = leg.shard->pool.Acquire(attempt_deadline);
    if (!conn.ok()) {
      fail_attempt(leg, NowMs(), /*timed_out=*/false, /*penalize=*/true);
      return;
    }
    Status sent = conn->Send(net::FrameType::kPartialQuery, payload,
                             attempt_deadline);
    if (!sent.ok()) {
      fail_attempt(leg, NowMs(), /*timed_out=*/false, /*penalize=*/true);
      return;
    }
    leg.flights.push_back(Flight{std::move(*conn), /*is_hedge=*/false});
  };

  // Fires the straggler insurance: a duplicate request on a second
  // connection. A hedge that cannot be placed just doesn't hedge — the
  // primary flight is still alive, so nothing fails.
  auto start_hedge = [&](Leg& leg, double now_ms) {
    leg.hedged = true;
    leg.hedge_at_ms = kInfinity;
    const Deadline attempt_deadline =
        Deadline::AfterMillis(leg.attempt_expiry_ms - now_ms, clock_);
    Result<net::Connection> conn = leg.shard->pool.Acquire(attempt_deadline);
    if (!conn.ok()) return;
    Status sent = conn->Send(net::FrameType::kPartialQuery, payload,
                             attempt_deadline);
    if (!sent.ok()) return;
    {
      std::lock_guard<std::mutex> lock(leg.shard->mutex);
      ++leg.shard->counters.hedges;
    }
    leg.flights.push_back(Flight{std::move(*conn), /*is_hedge=*/true});
  };

  // Leg finished with a full response on flights[winner]: release the
  // winner (its byte stream is clean), close any hedge loser (dirty —
  // its response may still be in flight and must never reach the pool).
  auto settle_flights = [&](Leg& leg, size_t winner) {
    Flight won = std::move(leg.flights[winner]);
    leg.flights.clear();
    leg.shard->pool.Release(std::move(won.conn));
  };

  // A complete frame arrived on flights[fi].
  auto handle_frame = [&](Leg& leg, size_t fi, net::Frame frame,
                          double now_ms) {
    const bool is_hedge = leg.flights[fi].is_hedge;
    switch (frame.type) {
      case net::FrameType::kPartialResult: {
        Result<net::PartialResult> parsed =
            net::ParsePartialResult(frame.payload);
        if (!parsed.ok()) {
          fail_attempt(leg, now_ms, /*timed_out=*/false, /*penalize=*/true);
          return;
        }
        leg.reply.result = std::move(*parsed);
        leg.done = true;
        settle_flights(leg, fi);
        std::lock_guard<std::mutex> lock(leg.shard->mutex);
        RecordSuccess(*leg.shard);
        if (is_hedge) ++leg.shard->counters.hedge_wins;
        return;
      }
      case net::FrameType::kError: {
        Status status;
        if (!net::ParseErrorPayload(frame.payload, &status).ok()) {
          fail_attempt(leg, now_ms, /*timed_out=*/false, /*penalize=*/true);
          return;
        }
        // The downstream answered: its transport is healthy either way.
        leg.done = true;
        settle_flights(leg, fi);
        std::lock_guard<std::mutex> lock(leg.shard->mutex);
        RecordSuccess(*leg.shard);
        if (is_hedge) ++leg.shard->counters.hedge_wins;
        if (status.code() == StatusCode::kTimeout) {
          // The shard's scan ran out of budget — degrade the stripe,
          // same as a local shard hitting its deadline.
          leg.reply.dropped = true;
          ++leg.shard->counters.timeouts;
          ++leg.shard->counters.dropped;
        } else {
          // Deterministic application error: retrying cannot help.
          leg.reply.error = status;
        }
        return;
      }
      default:
        fail_attempt(leg, now_ms, /*timed_out=*/false, /*penalize=*/true);
    }
  };

  // Kick off every leg.
  for (size_t i = 0; i < legs.size(); ++i) {
    Leg& leg = legs[i];
    leg.shard = shards_[i].get();
    const double now_ms = NowMs();
    bool fast_fail = false;
    {
      std::lock_guard<std::mutex> lock(leg.shard->mutex);
      ++leg.shard->counters.requests;
      if (EjectedNow(*leg.shard, now_ms)) {
        ++leg.shard->counters.fast_failures;
        ++leg.shard->counters.dropped;
        fast_fail = true;
      }
    }
    if (fast_fail) {
      leg.done = true;
      leg.reply.dropped = true;
      continue;
    }
    start_attempt(leg, now_ms);
  }

  // The multiplexed wait: one poll(2) over every in-flight fd, with the
  // timeout set by the nearest timer (attempt expiry, backoff, hedge,
  // overall deadline).
  std::vector<struct pollfd> pollfds;
  std::vector<size_t> pollfd_leg;
  while (true) {
    size_t open = 0;
    for (const Leg& leg : legs) {
      if (!leg.done) ++open;
    }
    if (open == 0) break;

    double now_ms = NowMs();
    double next_event_ms = overall_expiry_ms;
    pollfds.clear();
    pollfd_leg.clear();
    for (size_t li = 0; li < legs.size(); ++li) {
      const Leg& leg = legs[li];
      if (leg.done) continue;
      next_event_ms = std::min(next_event_ms, leg.attempt_expiry_ms);
      next_event_ms = std::min(next_event_ms, leg.retry_at_ms);
      next_event_ms = std::min(next_event_ms, leg.hedge_at_ms);
      for (const Flight& flight : leg.flights) {
        pollfds.push_back(
            pollfd{flight.conn.fd(), POLLIN, /*revents=*/0});
        pollfd_leg.push_back(li);
      }
    }

    const int wait = PollWaitMillis(next_event_ms - now_ms);
    ::poll(pollfds.empty() ? nullptr : pollfds.data(),
           static_cast<nfds_t>(pollfds.size()), wait);
    now_ms = NowMs();

    // Pump whatever became readable (or broke).
    for (size_t pi = 0; pi < pollfds.size(); ++pi) {
      if (pollfds[pi].revents == 0) continue;
      Leg& leg = legs[pollfd_leg[pi]];
      if (leg.done) continue;
      size_t fi = leg.flights.size();
      for (size_t f = 0; f < leg.flights.size(); ++f) {
        if (leg.flights[f].conn.fd() == pollfds[pi].fd) {
          fi = f;
          break;
        }
      }
      if (fi == leg.flights.size()) continue;  // Closed earlier this round.
      net::Frame frame;
      Result<bool> got = leg.flights[fi].conn.PumpReceive(&frame);
      if (!got.ok()) {
        // This flight's connection died; the leg only fails when no
        // flight remains (a hedge twin may still answer).
        leg.flights.erase(leg.flights.begin() + fi);
        if (leg.flights.empty()) {
          fail_attempt(leg, now_ms, /*timed_out=*/false, /*penalize=*/true);
        }
        continue;
      }
      if (!*got) continue;  // Frame still assembling.
      handle_frame(leg, fi, std::move(frame), now_ms);
    }

    // Fire due timers.
    for (Leg& leg : legs) {
      if (leg.done) continue;
      now_ms = NowMs();
      if (now_ms >= overall_expiry_ms) {
        // Out of overall budget: every unfinished stripe degrades NOW —
        // the gather never outlives the caller's deadline.
        leg.flights.clear();
        leg.done = true;
        leg.reply.dropped = true;
        std::lock_guard<std::mutex> lock(leg.shard->mutex);
        ++leg.shard->counters.timeouts;
        ++leg.shard->counters.dropped;
        continue;
      }
      if (!leg.flights.empty()) {
        if (now_ms >= leg.attempt_expiry_ms) {
          fail_attempt(leg, now_ms, /*timed_out=*/true,
                       /*penalize=*/leg.attempt_penalize);
        } else if (!leg.hedged && now_ms >= leg.hedge_at_ms) {
          start_hedge(leg, now_ms);
        }
      } else if (now_ms >= leg.retry_at_ms) {
        start_attempt(leg, now_ms);
      }
    }
  }

  std::vector<Reply> replies;
  replies.reserve(legs.size());
  for (Leg& leg : legs) replies.push_back(std::move(leg.reply));
  return replies;
}

std::vector<Result<shard::PartialBackend::AggregateOutcome>>
Coordinator::ExecutePartialAll(const db::AggregateQuery& query,
                               const Deadline& deadline) {
  net::PartialQuery wire_query;
  wire_query.kind = net::PartialQuery::Kind::kAggregate;
  wire_query.aggregate = query;
  wire_query.deadline = deadline;
  const std::string payload = net::SerializePartialQuery(wire_query);

  std::vector<Reply> replies = Gather(payload, deadline);
  std::vector<Result<AggregateOutcome>> out;
  out.reserve(replies.size());
  for (Reply& reply : replies) {
    if (!reply.error.ok()) {
      out.push_back(reply.error);
      continue;
    }
    AggregateOutcome outcome;
    if (reply.dropped) {
      outcome.dropped = true;
      out.push_back(std::move(outcome));
      continue;
    }
    if (reply.result.kind != net::PartialQuery::Kind::kAggregate) {
      out.push_back(
          Status::Internal("shard answered grouped partial to an aggregate "
                           "query"));
      continue;
    }
    outcome.partial = reply.result.aggregate;
    outcome.snapshot_version = reply.result.snapshot_version;
    outcome.rows_scanned = reply.result.rows_scanned;
    out.push_back(std::move(outcome));
  }
  return out;
}

std::vector<Result<shard::PartialBackend::GroupedOutcome>>
Coordinator::ExecuteGroupedPartialAll(const db::GroupByQuery& query,
                                      const Deadline& deadline) {
  net::PartialQuery wire_query;
  wire_query.kind = net::PartialQuery::Kind::kGrouped;
  wire_query.grouped = query;
  wire_query.deadline = deadline;
  const std::string payload = net::SerializePartialQuery(wire_query);

  std::vector<Reply> replies = Gather(payload, deadline);
  std::vector<Result<GroupedOutcome>> out;
  out.reserve(replies.size());
  for (Reply& reply : replies) {
    if (!reply.error.ok()) {
      out.push_back(reply.error);
      continue;
    }
    GroupedOutcome outcome;
    if (reply.dropped) {
      outcome.dropped = true;
      out.push_back(std::move(outcome));
      continue;
    }
    if (reply.result.kind != net::PartialQuery::Kind::kGrouped) {
      out.push_back(
          Status::Internal("shard answered aggregate partial to a grouped "
                           "query"));
      continue;
    }
    outcome.partial = std::move(reply.result.grouped);
    outcome.snapshot_version = reply.result.snapshot_version;
    outcome.rows_scanned = reply.result.rows_scanned;
    out.push_back(std::move(outcome));
  }
  return out;
}

Status Coordinator::Ping(size_t shard, double timeout_ms) {
  if (shard >= shards_.size()) {
    return Status::InvalidArgument(
        StrCat({"no shard ", std::to_string(shard)}));
  }
  Shard& target = *shards_[shard];
  const Deadline deadline = Deadline::AfterMillis(timeout_ms, clock_);
  Result<net::Connection> conn = target.pool.Acquire(deadline);
  if (!conn.ok()) return conn.status();
  Result<net::Frame> frame = conn->Call(net::FrameType::kPing, "", deadline);
  if (!frame.ok()) return frame.status();
  if (frame->type != net::FrameType::kPong) {
    return Status::ParseError("expected Pong from " +
                              target.pool.endpoint().ToString() + ", got " +
                              std::to_string(static_cast<int>(frame->type)));
  }
  target.pool.Release(std::move(*conn));
  std::lock_guard<std::mutex> lock(target.mutex);
  RecordSuccess(target);
  return Status::OK();
}

Status Coordinator::PingAll(double per_shard_timeout_ms) {
  for (size_t i = 0; i < shards_.size(); ++i) {
    Status status = Ping(i, per_shard_timeout_ms);
    if (!status.ok()) {
      return Status(status.code(),
                    StrCat({"shard ", std::to_string(i), " (",
                            shards_[i]->pool.endpoint().ToString(), "): ",
                            status.message()}));
    }
  }
  return Status::OK();
}

DistStats Coordinator::stats() const {
  DistStats out;
  out.shards.reserve(shards_.size());
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    out.shards.push_back(shard->counters);
  }
  return out;
}

std::string Coordinator::StatsJson() const {
  std::string out = "{\"shards\":[";
  for (size_t i = 0; i < shards_.size(); ++i) {
    ShardCounters counters;
    bool ejected = false;
    {
      std::lock_guard<std::mutex> lock(shards_[i]->mutex);
      counters = shards_[i]->counters;
      ejected = shards_[i]->ejected;
    }
    if (i > 0) out += ",";
    out += "{\"endpoint\":\"" + shards_[i]->pool.endpoint().ToString() + "\"";
    auto field = [&out](const char* name, uint64_t value) {
      out += ",\"";
      out += name;
      out += "\":";
      out += std::to_string(value);
    };
    field("requests", counters.requests);
    field("retries", counters.retries);
    field("hedges", counters.hedges);
    field("hedge_wins", counters.hedge_wins);
    field("timeouts", counters.timeouts);
    field("transport_errors", counters.transport_errors);
    field("ejections", counters.ejections);
    field("fast_failures", counters.fast_failures);
    field("dropped", counters.dropped);
    out += ",\"ejected\":";
    out += ejected ? "true" : "false";
    out += "}";
  }
  out += "]}";
  return out;
}

}  // namespace muve::dist
