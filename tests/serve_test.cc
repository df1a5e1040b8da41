/// Unit and concurrency tests for the serving front end (src/serve/):
/// the bounded EDF admission queue with priority classes, the LRU-bounded
/// per-session voice-noise streams, single-flight coalescing, and the Server
/// dispatch loop (admission control, load shedding, backpressure,
/// drain/stop semantics). scripts/check.sh reruns this suite under
/// ThreadSanitizer.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <future>
#include <limits>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/rng.h"
#include "common/strings.h"
#include "common/thread_pool.h"
#include "db/query.h"
#include "db/table.h"
#include "net/wire.h"
#include "nlq/schema_index.h"
#include "serve/admission_queue.h"
#include "serve/server.h"
#include "serve/tenant.h"
#include "serve/session_manager.h"
#include "serve/single_flight.h"
#include "testing/sanitizer.h"
#include "workload/datasets.h"
#include "workload/load_generator.h"

namespace muve::serve {
namespace {

std::shared_ptr<db::Table> Table311(size_t rows = 2000) {
  Rng rng(777);
  return workload::Make311Table(rows, &rng);
}

// ---------------------------------------------------------------------
// AdmissionQueue.
// ---------------------------------------------------------------------

TEST(AdmissionQueueTest, PopsEarliestDeadlineFirst) {
  FakeClock clock;
  AdmissionQueue<int> queue(8);
  ASSERT_TRUE(queue
                  .Push(1, Deadline::AfterMillis(500.0, &clock),
                        RequestClass::kInteractive)
                  .ok());
  ASSERT_TRUE(queue
                  .Push(2, Deadline::AfterMillis(100.0, &clock),
                        RequestClass::kInteractive)
                  .ok());
  ASSERT_TRUE(queue
                  .Push(3, Deadline::AfterMillis(300.0, &clock),
                        RequestClass::kInteractive)
                  .ok());
  int out = 0;
  ASSERT_TRUE(queue.Pop(&out));
  EXPECT_EQ(out, 2);
  ASSERT_TRUE(queue.Pop(&out));
  EXPECT_EQ(out, 3);
  ASSERT_TRUE(queue.Pop(&out));
  EXPECT_EQ(out, 1);
}

TEST(AdmissionQueueTest, InfiniteDeadlinesSortLastFifoAmongThemselves) {
  FakeClock clock;
  AdmissionQueue<int> queue(8);
  ASSERT_TRUE(
      queue.Push(1, Deadline::Infinite(), RequestClass::kInteractive).ok());
  ASSERT_TRUE(
      queue.Push(2, Deadline::Infinite(), RequestClass::kInteractive).ok());
  ASSERT_TRUE(queue
                  .Push(3, Deadline::AfterMillis(1000.0, &clock),
                        RequestClass::kInteractive)
                  .ok());
  int out = 0;
  ASSERT_TRUE(queue.Pop(&out));
  EXPECT_EQ(out, 3);  // Any finite deadline beats unbounded requests.
  ASSERT_TRUE(queue.Pop(&out));
  EXPECT_EQ(out, 1);  // FIFO among equal (infinite) keys.
  ASSERT_TRUE(queue.Pop(&out));
  EXPECT_EQ(out, 2);
}

TEST(AdmissionQueueTest, InteractiveStrictlyOutranksReplay) {
  FakeClock clock;
  AdmissionQueue<int> queue(8);
  // A replay request with a *tighter* deadline still loses to any
  // interactive request: class priority is strict.
  ASSERT_TRUE(queue
                  .Push(1, Deadline::AfterMillis(1.0, &clock),
                        RequestClass::kReplay)
                  .ok());
  ASSERT_TRUE(queue
                  .Push(2, Deadline::AfterMillis(9999.0, &clock),
                        RequestClass::kInteractive)
                  .ok());
  int out = 0;
  ASSERT_TRUE(queue.Pop(&out));
  EXPECT_EQ(out, 2);
  ASSERT_TRUE(queue.Pop(&out));
  EXPECT_EQ(out, 1);
}

TEST(AdmissionQueueTest, FullQueueRejectsWithOverloaded) {
  AdmissionQueue<int> queue(2);
  EXPECT_TRUE(
      queue.Push(1, Deadline::Infinite(), RequestClass::kInteractive).ok());
  EXPECT_TRUE(
      queue.Push(2, Deadline::Infinite(), RequestClass::kInteractive).ok());
  const Status rejected =
      queue.Push(3, Deadline::Infinite(), RequestClass::kInteractive);
  EXPECT_EQ(rejected.code(), StatusCode::kOverloaded);
  EXPECT_EQ(queue.depth(), 2u);
  EXPECT_EQ(queue.pushed(), 2u);
  EXPECT_EQ(queue.rejected_full(), 1u);
}

TEST(AdmissionQueueTest, RejectedMoveOnlyItemStaysWithCaller) {
  AdmissionQueue<std::unique_ptr<int>> queue(1);
  auto first = std::make_unique<int>(1);
  ASSERT_TRUE(queue
                  .Push(std::move(first), Deadline::Infinite(),
                        RequestClass::kInteractive)
                  .ok());
  auto second = std::make_unique<int>(2);
  const Status rejected = queue.Push(std::move(second), Deadline::Infinite(),
                                     RequestClass::kInteractive);
  EXPECT_EQ(rejected.code(), StatusCode::kOverloaded);
  // The rejected object was not moved from — the caller can still
  // resolve its promise / report the error against it.
  ASSERT_NE(second, nullptr);
  EXPECT_EQ(*second, 2);
}

TEST(AdmissionQueueTest, CloseDrainsThenUnblocksPop) {
  AdmissionQueue<int> queue(4);
  ASSERT_TRUE(
      queue.Push(7, Deadline::Infinite(), RequestClass::kInteractive).ok());
  queue.Close();
  EXPECT_EQ(queue.Push(8, Deadline::Infinite(), RequestClass::kInteractive)
                .code(),
            StatusCode::kFailedPrecondition);
  int out = 0;
  ASSERT_TRUE(queue.Pop(&out));  // Entries queued before Close drain.
  EXPECT_EQ(out, 7);
  EXPECT_FALSE(queue.Pop(&out));  // Closed and empty.
}

TEST(AdmissionQueueTest, CloseWakesBlockedPoppers) {
  AdmissionQueue<int> queue(4);
  std::thread popper([&queue] {
    int out = 0;
    EXPECT_FALSE(queue.Pop(&out));
  });
  queue.Close();
  popper.join();
}

// ---------------------------------------------------------------------
// SessionManager.
// ---------------------------------------------------------------------

SessionManagerOptions SmallSessions(size_t max_sessions) {
  SessionManagerOptions options;
  options.max_sessions = max_sessions;
  return options;
}

TEST(SessionManagerTest, DrawCreatesOneStreamPerId) {
  SessionManager manager(SmallSessions(4));
  manager.DrawRngSeed("alice");
  manager.DrawRngSeed("alice");
  EXPECT_EQ(manager.sessions_created(), 1u);
  EXPECT_EQ(manager.live_sessions(), 1u);
  manager.DrawRngSeed("bob");
  EXPECT_EQ(manager.sessions_created(), 2u);
  EXPECT_EQ(manager.live_sessions(), 2u);
}

TEST(SessionManagerTest, EvictsLeastRecentlyUsedStream) {
  SessionManager manager(SmallSessions(2));
  manager.DrawRngSeed("a");
  manager.DrawRngSeed("b");
  manager.DrawRngSeed("a");  // "a" is now most recently used.
  manager.DrawRngSeed("c");  // Evicts "b", the LRU stream.
  EXPECT_EQ(manager.live_sessions(), 2u);
  EXPECT_EQ(manager.sessions_evicted(), 1u);
  // "a" survived: drawing from it again creates nothing new.
  manager.DrawRngSeed("a");
  EXPECT_EQ(manager.sessions_created(), 3u);
  // "b" is gone: drawing from it recreates it.
  manager.DrawRngSeed("b");
  EXPECT_EQ(manager.sessions_created(), 4u);
}

TEST(SessionManagerTest, RngStreamsDifferPerSessionAndReplay) {
  SessionManager first(SmallSessions(8));
  // Distinct sessions draw from distinct streams.
  EXPECT_NE(first.DrawRngSeed("alice"), first.DrawRngSeed("bob"));
  // The same session id under the same base seed replays the same
  // stream in a fresh manager — the replayability guarantee.
  SessionManager second(SmallSessions(8));
  SessionManager third(SmallSessions(8));
  EXPECT_EQ(second.DrawRngSeed("alice"), third.DrawRngSeed("alice"));
  EXPECT_EQ(second.DrawRngSeed("alice"), third.DrawRngSeed("alice"));
  // A different base seed shifts the stream.
  SessionManagerOptions reseeded = SmallSessions(8);
  reseeded.seed = 123;
  SessionManager fourth(reseeded);
  SessionManager fifth(SmallSessions(8));
  EXPECT_NE(fourth.DrawRngSeed("alice"), fifth.DrawRngSeed("alice"));
}

TEST(SessionManagerTest, EvictedStreamRestartsFromItsOrigin) {
  SessionManager manager(SmallSessions(1));
  SessionManager fresh(SmallSessions(1));
  const uint64_t first = manager.DrawRngSeed("alice");
  EXPECT_EQ(first, fresh.DrawRngSeed("alice"));
  EXPECT_NE(manager.DrawRngSeed("alice"), first);  // The stream advances.
  manager.DrawRngSeed("bob");  // Evicts "alice".
  EXPECT_EQ(manager.sessions_evicted(), 1u);
  // The recreated stream starts over from (seed, id).
  EXPECT_EQ(manager.DrawRngSeed("alice"), first);
}

TEST(SessionManagerTest, ConcurrentDrawsOnOneIdShareOneStream) {
  SessionManager manager(SmallSessions(8));
  constexpr size_t kThreads = 8;
  std::vector<uint64_t> seen(kThreads, 0);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&manager, &seen, t] {
      seen[t] = manager.DrawRngSeed("shared");
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(manager.live_sessions(), 1u);
  EXPECT_EQ(manager.sessions_created(), 1u);
  // One stream, drawn kThreads times: the draws are the stream's first
  // kThreads values, in some order.
  SessionManager reference(SmallSessions(8));
  std::multiset<uint64_t> expected;
  for (size_t t = 0; t < kThreads; ++t) {
    expected.insert(reference.DrawRngSeed("shared"));
  }
  EXPECT_EQ(std::multiset<uint64_t>(seen.begin(), seen.end()), expected);
}

// ---------------------------------------------------------------------
// SingleFlight.
// ---------------------------------------------------------------------

TEST(SingleFlightTest, FirstCallerLeadsCloseRetiresFlight) {
  SingleFlight<int> flight;
  int leader_item = 1;
  FlightTicket ticket = flight.LeadOrAttach("k", &leader_item);
  ASSERT_TRUE(ticket.led);
  EXPECT_EQ(flight.open_flights(), 1u);
  EXPECT_TRUE(flight.Close(ticket).empty());
  EXPECT_EQ(flight.open_flights(), 0u);
  // The flight retired: the next request leads anew (no stale reuse).
  int fresh_item = 2;
  FlightTicket fresh = flight.LeadOrAttach("k", &fresh_item);
  EXPECT_TRUE(fresh.led);
  flight.Close(fresh);
  EXPECT_EQ(flight.flights_led(), 2u);
  EXPECT_EQ(flight.attached(), 0u);
}

TEST(SingleFlightTest, AttachersRideTheOpenFlightInOrder) {
  SingleFlight<int> flight;
  int leader_item = 0;
  FlightTicket ticket = flight.LeadOrAttach("k", &leader_item);
  ASSERT_TRUE(ticket.led);
  for (int i = 1; i <= 4; ++i) {
    int item = i * 10;
    FlightTicket follower = flight.LeadOrAttach("k", &item);
    EXPECT_FALSE(follower.led);
  }
  EXPECT_EQ(flight.open_flights(), 1u);  // Attaching opens nothing new.
  std::vector<int> followers = flight.Close(ticket);
  EXPECT_EQ(followers, (std::vector<int>{10, 20, 30, 40}));
  EXPECT_EQ(flight.flights_led(), 1u);
  EXPECT_EQ(flight.attached(), 4u);
}

TEST(SingleFlightTest, DistinctKeysFlySeparately) {
  SingleFlight<int> flight;
  int a_item = 1, b_item = 2, rider = 3;
  FlightTicket a = flight.LeadOrAttach("a", &a_item);
  FlightTicket b = flight.LeadOrAttach("b", &b_item);
  EXPECT_TRUE(a.led);
  EXPECT_TRUE(b.led);
  EXPECT_EQ(flight.open_flights(), 2u);
  EXPECT_FALSE(flight.LeadOrAttach("a", &rider).led);
  EXPECT_TRUE(flight.Close(b).empty());
  EXPECT_EQ(flight.Close(a), std::vector<int>{3});
  EXPECT_EQ(flight.open_flights(), 0u);
}

TEST(SingleFlightTest, StaleTicketCannotCloseAReopenedFlight) {
  SingleFlight<int> flight;
  int first = 1;
  FlightTicket stale = flight.LeadOrAttach("k", &first);
  ASSERT_TRUE(stale.led);
  flight.Close(stale);
  // Same key reopened by a newer leader with a follower aboard.
  int second = 2, rider = 3;
  FlightTicket fresh = flight.LeadOrAttach("k", &second);
  ASSERT_TRUE(fresh.led);
  EXPECT_FALSE(flight.LeadOrAttach("k", &rider).led);
  // Closing the spent ticket again must not disturb the new flight.
  EXPECT_TRUE(flight.Close(stale).empty());
  EXPECT_EQ(flight.open_flights(), 1u);
  EXPECT_EQ(flight.Close(fresh), std::vector<int>{3});
}

TEST(SingleFlightTest, DisengagedTicketClosesNothing) {
  SingleFlight<int> flight;
  int leader_item = 1, rider = 2;
  FlightTicket ticket = flight.LeadOrAttach("k", &leader_item);
  FlightTicket follower = flight.LeadOrAttach("k", &rider);
  ASSERT_FALSE(follower.led);
  EXPECT_TRUE(flight.Close(follower).empty());
  EXPECT_EQ(flight.open_flights(), 1u);
  EXPECT_EQ(flight.Close(ticket), std::vector<int>{2});
}

TEST(SingleFlightTest, ConcurrentAttachersAllLandOnOneFlight) {
  SingleFlight<int> flight;
  int leader_item = 0;
  FlightTicket ticket = flight.LeadOrAttach("k", &leader_item);
  ASSERT_TRUE(ticket.led);
  constexpr size_t kThreads = 8;
  std::vector<std::thread> threads;
  std::atomic<int> led{0};
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&flight, &led, t] {
      int item = static_cast<int>(t);
      FlightTicket outcome = flight.LeadOrAttach("k", &item);
      if (outcome.led) led.fetch_add(1, std::memory_order_relaxed);
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(led.load(), 0);
  std::vector<int> followers = flight.Close(ticket);
  EXPECT_EQ(followers.size(), kThreads);
  EXPECT_EQ(flight.attached(), kThreads);
}

// ---------------------------------------------------------------------
// Server.
// ---------------------------------------------------------------------

ServerOptions SmallServer(size_t workers, size_t depth) {
  ServerOptions options;
  options.num_workers = workers;
  options.max_queue_depth = depth;
  options.engine.cache_capacity = 8;
  return options;
}

TEST(ServerTest, ServesTextRequestsAcrossSessions) {
  Server server(Table311(), SmallServer(2, 8));
  auto first =
      server.Ask("alice", Request::Text("how many complaints in brooklyn"));
  auto second =
      server.Ask("bob", Request::Text("how many complaints in queens"));
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_FALSE(first->answer.plan.multiplot.empty());
  EXPECT_TRUE(first->deadline_met);
  // Text requests draw no voice noise, so no session stream was made.
  EXPECT_EQ(server.live_sessions(), 0u);
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.submitted, 2u);
  EXPECT_EQ(stats.admitted, 2u);
  EXPECT_EQ(stats.completed, 2u);
  EXPECT_EQ(stats.shed_total(), 0u);
}

TEST(ServerTest, UntranslatableRequestFailsWithoutPoisoningServer) {
  Server server(Table311(), SmallServer(1, 4));
  auto bad = server.Ask("alice", Request::Text("xyzzy plugh"));
  EXPECT_FALSE(bad.ok());
  auto good =
      server.Ask("alice", Request::Text("how many complaints in brooklyn"));
  EXPECT_TRUE(good.ok());
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.failed, 1u);
  EXPECT_EQ(stats.completed, 1u);
}

TEST(ServerTest, InfeasibleDeadlineIsShedAtAdmission) {
  ServerOptions options = SmallServer(1, 4);
  options.feasibility_floor_millis = 10.0;
  Server server(Table311(), options);
  Request request = Request::Text("how many complaints in brooklyn");
  request.deadline = Deadline::AfterMillis(1.0);  // Below the floor.
  auto result = server.Ask("alice", request);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kOverloaded);
  EXPECT_EQ(server.stats().rejected_infeasible, 1u);
  EXPECT_EQ(server.stats().admitted, 0u);
}

TEST(ServerTest, FullQueueShedsInsteadOfQueueingUnboundedly) {
  // One worker, depth 1, and a long-running first request: a burst must
  // produce fast Overloaded rejections, not a growing queue.
  // Single-flight is off so the identical burst exercises the queue
  // bound itself instead of coalescing onto one flight.
  ServerOptions options = SmallServer(1, 1);
  options.enable_single_flight = false;
  Server server(Table311(), options);
  std::vector<std::future<Result<ServedAnswer>>> futures;
  const size_t burst = 16;
  for (size_t i = 0; i < burst; ++i) {
    futures.push_back(server.Submit(
        "alice", Request::Text("how many complaints in brooklyn")));
  }
  size_t ok = 0;
  size_t overloaded = 0;
  for (auto& future : futures) {
    Result<ServedAnswer> result = future.get();
    if (result.ok()) {
      ++ok;
    } else if (result.status().code() == StatusCode::kOverloaded) {
      ++overloaded;
    }
  }
  EXPECT_EQ(ok + overloaded, burst);
  EXPECT_GE(ok, 1u);          // The worker made progress.
  EXPECT_GE(overloaded, 1u);  // And the queue pushed back.
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.rejected_queue_full, overloaded);
  EXPECT_LE(server.queue_depth(), 1u);
}

TEST(ServerTest, DrainFinishesQueuedWorkThenRejectsNewRequests) {
  Server server(Table311(), SmallServer(2, 8));
  std::vector<std::future<Result<ServedAnswer>>> futures;
  for (int i = 0; i < 4; ++i) {
    futures.push_back(server.Submit(
        "alice", Request::Text("how many complaints in brooklyn")));
  }
  server.Drain();
  for (auto& future : futures) {
    Result<ServedAnswer> result = future.get();
    // Admitted requests completed; none were abandoned by Drain.
    EXPECT_TRUE(result.ok() ||
                result.status().code() == StatusCode::kOverloaded)
        << result.status().ToString();
  }
  auto late =
      server.Ask("alice", Request::Text("how many complaints in brooklyn"));
  ASSERT_FALSE(late.ok());
  EXPECT_EQ(late.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_GE(server.stats().rejected_stopped, 1u);
}

TEST(ServerTest, SingleFlightCoalescesConcurrentIdenticalRequests) {
  // Many concurrent submissions of one transcript against one slow-ish
  // worker pool: single-flight must fan most of them out from shared
  // executions instead of running the pipeline once per request.
  ServerOptions options = SmallServer(2, 64);
  Server server(Table311(4000), options);
  const std::string utterance = "how many complaints in brooklyn";
  std::vector<std::future<Result<ServedAnswer>>> futures;
  const size_t burst = 24;
  for (size_t i = 0; i < burst; ++i) {
    futures.push_back(server.Submit("alice", Request::Text(utterance)));
  }
  size_t shared = 0;
  for (auto& future : futures) {
    Result<ServedAnswer> result = future.get();
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    if (result->shared) ++shared;
  }
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.completed, burst);
  EXPECT_EQ(stats.single_flight_followers, shared);
  // At least the very first request led a flight.
  EXPECT_GE(stats.single_flight_leaders, 1u);
  // Coalescing actually happened for this colliding burst: attaching
  // happens at admission, while the leader is still queued or
  // executing, so it does not depend on two workers ever overlapping
  // in time (this holds even on a single-core host).
  EXPECT_GE(shared, 1u);
  EXPECT_EQ(stats.single_flight_leaders + stats.single_flight_followers,
            burst);
}

TEST(ServerTest, SingleFlightOffRunsEveryRequestItself) {
  ServerOptions options = SmallServer(2, 64);
  options.enable_single_flight = false;
  Server server(Table311(), options);
  std::vector<std::future<Result<ServedAnswer>>> futures;
  for (size_t i = 0; i < 8; ++i) {
    futures.push_back(server.Submit(
        "alice", Request::Text("how many complaints in brooklyn")));
  }
  for (auto& future : futures) {
    Result<ServedAnswer> result = future.get();
    ASSERT_TRUE(result.ok());
    EXPECT_FALSE(result->shared);
  }
  EXPECT_EQ(server.stats().single_flight_followers, 0u);
}

TEST(ServerTest, StopShedsQueuedRequests) {
  // One worker and a deep queue of requests; Stop() while they are
  // queued must resolve the tail with Overloaded rather than running it.
  Server server(Table311(4000), SmallServer(1, 32));
  std::vector<std::future<Result<ServedAnswer>>> futures;
  for (size_t i = 0; i < 16; ++i) {
    futures.push_back(server.Submit(
        "alice", Request::Text("how many complaints in borough " +
                               std::to_string(i))));
  }
  server.Stop();
  size_t resolved = 0;
  for (auto& future : futures) {
    future.get();  // Every future resolves; none hang.
    ++resolved;
  }
  EXPECT_EQ(resolved, futures.size());
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.completed + stats.failed + stats.shed_total() +
                stats.rejected_stopped,
            stats.submitted);
}

TEST(ServerTest, ConcurrentMixedSessionLoadCompletesConsistently) {
  const size_t submitters = testing::kSanitizerBuild ? 4 : 8;
  const size_t per_submitter = testing::kSanitizerBuild ? 4 : 8;
  ServerOptions options = SmallServer(4, 64);
  Server server(Table311(), options);
  std::vector<std::thread> threads;
  std::atomic<size_t> ok{0};
  std::atomic<size_t> rejected{0};
  for (size_t t = 0; t < submitters; ++t) {
    threads.emplace_back([&, t] {
      for (size_t i = 0; i < per_submitter; ++i) {
        const std::string session =
            std::string("s").append(std::to_string((t + i) % 3));
        const RequestClass cls = (t + i) % 4 == 0
                                     ? RequestClass::kReplay
                                     : RequestClass::kInteractive;
        auto result = server.Ask(
            session, Request::Text("how many complaints in brooklyn"),
            cls);
        if (result.ok()) {
          ok.fetch_add(1, std::memory_order_relaxed);
        } else {
          rejected.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  const ServerStats stats = server.stats();
  EXPECT_EQ(ok.load() + rejected.load(), submitters * per_submitter);
  EXPECT_EQ(stats.submitted, submitters * per_submitter);
  EXPECT_EQ(stats.completed + stats.failed + stats.shed_total() +
                stats.rejected_stopped,
            stats.submitted);
  EXPECT_GE(ok.load(), 1u);
  EXPECT_LE(server.live_sessions(), 3u);
}

// ---------------------------------------------------------------------
// Live ingest: a writer races the serving reads.
// ---------------------------------------------------------------------

// Ground truth for a COUNT bar answered at snapshot version `v`: the
// table is append-only, so exactly the row prefix [0, v) existed at that
// version, and the expected count is the number of prefix rows matching
// the candidate's predicates. Evaluated against the final table after
// the writer stopped — every earlier version is a prefix of it.
double CountAtVersion(const db::Table& table, const db::AggregateQuery& query,
                      uint64_t version) {
  struct Bound {
    size_t column = 0;
    const db::Predicate* predicate = nullptr;
  };
  std::vector<Bound> bounds;
  for (const db::Predicate& predicate : query.predicates) {
    Result<size_t> column = table.ColumnIndex(predicate.column);
    if (!column.ok()) return 0.0;
    bounds.push_back({*column, &predicate});
  }
  size_t count = 0;
  for (uint64_t r = 0; r < version; ++r) {
    bool matches = true;
    for (const Bound& bound : bounds) {
      const db::Value value = table.ValueAt(r, bound.column);
      bool accepted = false;
      for (const db::Value& candidate : bound.predicate->values) {
        if (value == candidate) {
          accepted = true;
          break;
        }
      }
      if (!accepted) {
        matches = false;
        break;
      }
    }
    if (matches) ++count;
  }
  return static_cast<double>(count);
}

TEST(ServerTest, IngestRacingSessionsAnswerOneConsistentVersion) {
  // A single writer streams appends (sealing runs as it goes, with
  // background compaction armed) while sessions query through the
  // server. Every answer must reflect exactly one snapshot version
  // across ALL plots of its multiplot: each COUNT bar equals the
  // ground-truth count over the row prefix [0, snapshot_version).
  ThreadPool compaction_pool(2);
  std::shared_ptr<db::Table> table = Table311(1200);
  table->EnableBackgroundCompaction(&compaction_pool);
  Server server(table, SmallServer(4, 64));

  const uint64_t base_version = table->version();
  std::atomic<bool> stop{false};
  std::atomic<bool> writer_ok{true};
  std::thread writer([&] {
    // Fixed-shape rows keep every appended string inside the vocabulary
    // the schema index was built from; periodic flushes seal runs so
    // reads race run hand-off and compaction, not just open-row growth.
    uint64_t appended = 0;
    while (!stop.load(std::memory_order_acquire) && appended < 6000) {
      const Status st = table->AppendRow(
          {db::Value(std::string("brooklyn")), db::Value(std::string("noise")),
           db::Value(std::string("nypd")), db::Value(std::string("open")),
           db::Value(std::string("phone")), db::Value(2.5),
           db::Value(static_cast<int64_t>(61))});
      if (!st.ok()) {
        writer_ok.store(false, std::memory_order_release);
        break;
      }
      ++appended;
      if (appended % 96 == 0) table->Flush();
      std::this_thread::yield();
    }
  });

  static const char* const kTranscripts[] = {
      "how many noise complaints in brooklyn",
      "how many heating complaints in queens",
      "how many complaints in brooklyn",
  };
  struct Observation {
    ServedAnswer served;
    uint64_t version_before = 0;
    uint64_t version_after = 0;
  };
  const size_t clients = testing::kSanitizerBuild ? 3 : 4;
  const size_t per_client = testing::kSanitizerBuild ? 4 : 6;
  std::vector<std::vector<Observation>> observed(clients);
  std::atomic<size_t> rejected{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < clients; ++t) {
    threads.emplace_back([&, t] {
      for (size_t i = 0; i < per_client; ++i) {
        const std::string session = StrCat({"ingest-", std::to_string(t)});
        const uint64_t before = table->version();
        Result<ServedAnswer> result = server.Ask(
            session, Request::Text(kTranscripts[(t + i) % 3]));
        const uint64_t after = table->version();
        if (!result.ok()) {
          rejected.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        observed[t].push_back({*std::move(result), before, after});
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  stop.store(true, std::memory_order_release);
  writer.join();
  EXPECT_TRUE(writer_ok.load(std::memory_order_acquire));

  // Smoke load at the scale of the PR 5 concurrency test, with an ample
  // queue: live ingest must not introduce sheds or failures.
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.shed_total(), 0u);
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_EQ(rejected.load(), 0u);
  EXPECT_EQ(stats.completed, clients * per_client);

  size_t bars_checked = 0;
  for (const std::vector<Observation>& per_thread : observed) {
    for (const Observation& obs : per_thread) {
      const MuveEngine::Answer& answer = obs.served.answer;
      const uint64_t v = answer.execution.snapshot_version;
      // The snapshot is taken inside the Ask call: never newer than the
      // table was when the call returned, and — unless the answer was
      // coalesced onto an earlier identical in-flight request — never
      // older than the table was at submit.
      EXPECT_GE(v, base_version);
      EXPECT_LE(v, obs.version_after);
      if (!obs.served.shared) {
        EXPECT_GE(v, obs.version_before);
      }
      for (const std::vector<core::Plot>& row : answer.plan.multiplot.rows) {
        for (const core::Plot& plot : row) {
          for (const core::PlotBar& bar : plot.bars) {
            if (std::isnan(bar.value)) continue;
            const db::AggregateQuery& query =
                answer.candidates[bar.candidate_index].query;
            if (query.function != db::AggregateFunction::kCount) continue;
            EXPECT_DOUBLE_EQ(bar.value, CountAtVersion(*table, query, v))
                << query.ToSql() << " @ version " << v;
            ++bars_checked;
          }
        }
      }
    }
  }
  // Every transcript is a COUNT, so the consistency oracle must have
  // actually exercised bars.
  EXPECT_GT(bars_checked, 0u);
}

TEST(ServerTest, SessionSchemaIndexIsReusedAndAbsorbsIngestedValues) {
  std::shared_ptr<db::Table> table = Table311(400);
  Server server(table, SmallServer(1, 8));

  // The server's one engine built its schema index at construction,
  // synced to the table version of that moment.
  const nlq::SchemaIndex* built_index = &server.engine().schema_index();
  const size_t distinct_at_build = built_index->distinct_values();
  EXPECT_EQ(built_index->synced_version(), table->version());
  EXPECT_EQ(built_index->values_absorbed(), 0u);

  // Requests of every session reuse that index object: no per-request
  // or per-session rebuild, and no absorptions while the table is
  // quiescent.
  ASSERT_TRUE(
      server.Ask("alice", Request::Text("how many complaints in brooklyn"))
          .ok());
  ASSERT_TRUE(
      server.Ask("bob", Request::Text("how many complaints in queens"))
          .ok());
  EXPECT_EQ(&server.engine().schema_index(), built_index);
  EXPECT_EQ(built_index->values_absorbed(), 0u);
  EXPECT_EQ(built_index->distinct_values(), distinct_at_build);

  // Ingest rows carrying a complaint type the vocabulary has never
  // seen, sealed into a run. The next request must absorb it
  // incrementally into the same index object.
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(table
                    ->AppendRow({db::Value(std::string("brooklyn")),
                                 db::Value(std::string("gerbil stampede")),
                                 db::Value(std::string("nypd")),
                                 db::Value(std::string("open")),
                                 db::Value(std::string("phone")),
                                 db::Value(2.5),
                                 db::Value(static_cast<int64_t>(61))})
                    .ok());
  }
  table->Flush();
  ASSERT_TRUE(
      server.Ask("alice", Request::Text("how many complaints in brooklyn"))
          .ok());
  const nlq::SchemaIndex& index = server.engine().schema_index();
  EXPECT_EQ(&index, built_index);
  EXPECT_EQ(index.synced_version(), table->version());
  EXPECT_GT(index.values_absorbed(), 0u);
  EXPECT_EQ(index.distinct_values(), distinct_at_build + 1);
  EXPECT_EQ(index.ColumnsOfValue("gerbil stampede"),
            std::vector<std::string>{"complaint_type"});
}

TEST(ServerTest, PlanMemoIsSharedAcrossSessions) {
  Server server(Table311(), SmallServer(1, 8));
  const std::string transcript = "how many complaints in brooklyn";
  ASSERT_TRUE(server.Ask("alice", Request::Text(transcript)).ok());
  EXPECT_EQ(server.cache_stats().plans.hits, 0u);
  // Bob's first ask of a transcript Alice already asked replays the
  // front half Alice's request memoized.
  auto bob = server.Ask("bob", Request::Text(transcript));
  ASSERT_TRUE(bob.ok());
  EXPECT_EQ(server.cache_stats().plans.hits, 1u);
  EXPECT_EQ(bob->answer.timings.translate_millis, 0.0);
}

// ---------------------------------------------------------------------
// Load generator.
// ---------------------------------------------------------------------

TEST(LoadGeneratorTest, ClosedLoopCompletesAllRequests) {
  auto table = Table311();
  Server server(table, SmallServer(2, 16));
  workload::LoadOptions load;
  load.mode = workload::LoadOptions::Mode::kClosedLoop;
  load.num_requests = 12;
  load.num_clients = 3;
  load.num_sessions = 2;
  load.seed = 5;
  Result<workload::LoadReport> report =
      workload::RunLoad(&server, *table, load);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->requests, 12u);
  EXPECT_EQ(report->completed, 12u);  // Closed loop never overruns.
  EXPECT_EQ(report->shed, 0u);
  EXPECT_EQ(report->errors, 0u);
  EXPECT_GT(report->sustained_qps, 0.0);
  EXPECT_GE(report->p99_latency_ms, report->p50_latency_ms);
  const std::string json = report->ToJson();
  EXPECT_NE(json.find("\"sustained_qps\""), std::string::npos);
  EXPECT_NE(json.find("\"single_flight_hit_ratio\""), std::string::npos);
}

TEST(LoadGeneratorTest, OpenLoopOverdriveShedsButNeverErrors) {
  auto table = Table311();
  ServerOptions options = SmallServer(1, 2);
  options.feasibility_floor_millis = 0.5;
  Server server(table, options);
  workload::LoadOptions load;
  load.mode = workload::LoadOptions::Mode::kOpenLoop;
  load.offered_qps = 500.0;  // Far beyond one serial worker.
  load.num_requests = 40;
  load.num_sessions = 2;
  load.deadline_millis = 2000.0;
  load.seed = 6;
  Result<workload::LoadReport> report =
      workload::RunLoad(&server, *table, load);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->requests, 40u);
  EXPECT_EQ(report->errors, 0u);
  EXPECT_EQ(report->completed + report->shed, 40u);
  EXPECT_GT(report->completed, 0u);
  // The overdriven server shed load instead of queueing it all.
  EXPECT_GT(report->shed, 0u);
  EXPECT_EQ(report->server.submitted, 40u);
}

// ---------------------------------------------------------------------
// TenantAccountant.
// ---------------------------------------------------------------------

TEST(TenantAccountantTest, DefaultTenantIsUnlimited) {
  FakeClock clock;
  TenantAccountant accountant({}, {}, &clock);
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(accountant.Admit("").ok());
  }
  const TenantCounters counters = accountant.counters("");
  EXPECT_EQ(counters.submitted, 100u);
  EXPECT_EQ(counters.admitted, 100u);
  EXPECT_EQ(counters.rejected_quota, 0u);
}

TEST(TenantAccountantTest, BurstExhaustsThenRefillsAtTheConfiguredRate) {
  FakeClock clock;
  TenantAccountant accountant(
      {}, {{"metered", {/*rate_qps=*/10.0, /*burst=*/3.0, /*weight=*/1.0}}},
      &clock);
  // The bucket starts full: exactly `burst` admissions succeed at t=0.
  EXPECT_TRUE(accountant.Admit("metered").ok());
  EXPECT_TRUE(accountant.Admit("metered").ok());
  EXPECT_TRUE(accountant.Admit("metered").ok());
  const Status rejected = accountant.Admit("metered");
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.code(), StatusCode::kOverloaded);

  // 10 qps refills one token per 100 ms — and no more than one.
  clock.AdvanceMillis(100.0);
  EXPECT_TRUE(accountant.Admit("metered").ok());
  EXPECT_FALSE(accountant.Admit("metered").ok());

  // A long idle stretch refills only to the burst cap, never beyond.
  clock.AdvanceMillis(60000.0);
  EXPECT_TRUE(accountant.Admit("metered").ok());
  EXPECT_TRUE(accountant.Admit("metered").ok());
  EXPECT_TRUE(accountant.Admit("metered").ok());
  EXPECT_FALSE(accountant.Admit("metered").ok());

  const TenantCounters counters = accountant.counters("metered");
  EXPECT_EQ(counters.admitted, 7u);
  EXPECT_EQ(counters.rejected_quota, 3u);
  EXPECT_EQ(counters.submitted, 10u);
}

TEST(TenantAccountantTest, RejectionNamesTheTenantAndItsContract) {
  // Retry policy needs the contract in the message — and the flood
  // bench counts on this string being precomputed, so it must stay
  // stable run to run.
  FakeClock clock;
  TenantAccountant accountant(
      {}, {{"metered", {/*rate_qps=*/5.0, /*burst=*/1.0, /*weight=*/1.0}}},
      &clock);
  ASSERT_TRUE(accountant.Admit("metered").ok());
  const Status first = accountant.Admit("metered");
  const Status second = accountant.Admit("metered");
  ASSERT_FALSE(first.ok());
  EXPECT_NE(first.message().find("metered"), std::string::npos)
      << first.message();
  EXPECT_NE(first.message().find("over quota"), std::string::npos);
  EXPECT_NE(first.message().find("rate 5"), std::string::npos);
  EXPECT_EQ(first.message(), second.message());
}

TEST(TenantAccountantTest, UnknownTenantsInheritTheDefaultQuota) {
  FakeClock clock;
  TenantQuota metered{/*rate_qps=*/1.0, /*burst=*/1.0, /*weight=*/1.0};
  TenantAccountant accountant(metered, {}, &clock);
  EXPECT_TRUE(accountant.Admit("never-configured").ok());
  EXPECT_FALSE(accountant.Admit("never-configured").ok());
  // A different tenant gets its own bucket, not the exhausted one.
  EXPECT_TRUE(accountant.Admit("someone-else").ok());
}

// ---------------------------------------------------------------------
// Weighted fair dequeue across tenants.
// ---------------------------------------------------------------------

TEST(AdmissionQueueTest, BackloggedTenantsDispatchInWeightProportion) {
  AdmissionQueue<std::string> queue(64);
  // Two persistently backlogged lanes at weights 3:1. Equal deadlines
  // keep EDF out of the picture; the dispatch mix is pure WFQ.
  for (int i = 0; i < 12; ++i) {
    ASSERT_TRUE(queue
                    .Push("heavy", Deadline::Infinite(),
                          RequestClass::kInteractive, "heavy", 3.0)
                    .ok());
    ASSERT_TRUE(queue
                    .Push("light", Deadline::Infinite(),
                          RequestClass::kInteractive, "light", 1.0)
                    .ok());
  }
  size_t heavy = 0;
  size_t light = 0;
  std::string out;
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(queue.Pop(&out));
    (out == "heavy" ? heavy : light) += 1;
  }
  // Exact interleaving depends on tie-breaks; the aggregate does not:
  // over 8 dispatches a 3:1 weighting gives the heavy lane about 6.
  EXPECT_GE(heavy, 5u);
  EXPECT_GE(light, 1u);
}

TEST(AdmissionQueueTest, TenantDepthTracksEachLane) {
  AdmissionQueue<int> queue(16);
  ASSERT_TRUE(queue
                  .Push(1, Deadline::Infinite(), RequestClass::kInteractive,
                        "a", 1.0)
                  .ok());
  ASSERT_TRUE(queue
                  .Push(2, Deadline::Infinite(), RequestClass::kInteractive,
                        "a", 1.0)
                  .ok());
  ASSERT_TRUE(queue
                  .Push(3, Deadline::Infinite(), RequestClass::kInteractive,
                        "b", 1.0)
                  .ok());
  EXPECT_EQ(queue.tenant_depth("a"), 2u);
  EXPECT_EQ(queue.tenant_depth("b"), 1u);
  EXPECT_EQ(queue.tenant_depth("absent"), 0u);
  int out = 0;
  ASSERT_TRUE(queue.Pop(&out));
  ASSERT_TRUE(queue.Pop(&out));
  ASSERT_TRUE(queue.Pop(&out));
  EXPECT_EQ(queue.tenant_depth("a"), 0u);
  EXPECT_EQ(queue.tenant_depth("b"), 0u);
}

TEST(AdmissionQueueTest, IdleTenantAccumulatesNoDispatchCredit) {
  AdmissionQueue<std::string> queue(64);
  std::string out;
  // Tenant "busy" dispatches alone for a while, advancing its virtual
  // time (and the queue's virtual floor) well past zero.
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(queue
                    .Push("busy", Deadline::Infinite(),
                          RequestClass::kInteractive, "busy", 1.0)
                    .ok());
    ASSERT_TRUE(queue.Pop(&out));
  }
  // "late" was idle that whole time. If its lane started at vtime 0 it
  // would now hold 10 dispatches of spurious credit and monopolize the
  // queue; the virtual floor forbids that, so equal-weight lanes share
  // evenly from here on.
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(queue
                    .Push("busy", Deadline::Infinite(),
                          RequestClass::kInteractive, "busy", 1.0)
                    .ok());
    ASSERT_TRUE(queue
                    .Push("late", Deadline::Infinite(),
                          RequestClass::kInteractive, "late", 1.0)
                    .ok());
  }
  size_t late = 0;
  size_t busy = 0;
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(queue.Pop(&out));
    (out == "late" ? late : busy) += 1;
  }
  EXPECT_GE(busy, 2u);
  EXPECT_GE(late, 2u);
}

TEST(AdmissionQueueTest, ClassPriorityIsStrictAcrossTenants) {
  AdmissionQueue<std::string> queue(16);
  // A heavy tenant's replay backlog cannot delay another tenant's
  // interactive request: class outranks both vtime and deadline.
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(queue
                    .Push("replay", Deadline::Infinite(),
                          RequestClass::kReplay, "heavy", 8.0)
                    .ok());
  }
  ASSERT_TRUE(queue
                  .Push("interactive", Deadline::Infinite(),
                        RequestClass::kInteractive, "light", 1.0)
                  .ok());
  std::string out;
  ASSERT_TRUE(queue.Pop(&out));
  EXPECT_EQ(out, "interactive");
}

// ---------------------------------------------------------------------
// Rejection diagnostics and fan-out identity.
// ---------------------------------------------------------------------

TEST(ServerTest, QueueFullRejectionReportsDepthAndBudget) {
  ServerOptions options = SmallServer(1, 1);
  options.enable_single_flight = false;
  Server server(Table311(4000), options);
  std::vector<std::future<Result<ServedAnswer>>> futures;
  for (size_t i = 0; i < 12; ++i) {
    futures.push_back(server.Submit(
        "alice", Request::Text("how many complaints in brooklyn")));
  }
  bool saw_detail = false;
  for (auto& future : futures) {
    Result<ServedAnswer> result = future.get();
    if (result.ok()) continue;
    ASSERT_EQ(result.status().code(), StatusCode::kOverloaded);
    EXPECT_NE(result.status().message().find("admission queue full (depth"),
              std::string::npos)
        << result.status().message();
    saw_detail = true;
  }
  EXPECT_TRUE(saw_detail);
}

TEST(ServerTest, InfeasibleShedExplainsTheFloor) {
  ServerOptions options = SmallServer(1, 4);
  options.feasibility_floor_millis = 10.0;
  Server server(Table311(), options);
  Request request = Request::Text("how many complaints in brooklyn");
  request.deadline = Deadline::AfterMillis(1.0);
  auto result = server.Ask("alice", request);
  ASSERT_FALSE(result.ok());
  const std::string& message = result.status().message();
  EXPECT_NE(message.find("feasibility floor"), std::string::npos) << message;
  EXPECT_NE(message.find("remaining"), std::string::npos) << message;
  EXPECT_NE(message.find("floor 10.000 ms"), std::string::npos) << message;
}

TEST(ServerTest, SingleFlightFollowersReceiveByteIdenticalAnswers) {
  // The coalescing contract is not "similar answers" but the same
  // answer: every follower's payload must serialize to its leader's
  // exact bytes — this is what lets the wire layer fan one encoded
  // answer out to all attached connections. A request that arrives after
  // a flight closes leads a new flight, whose wall-clock timings differ,
  // so the burst may hold several leaders: all answers agree on the
  // deterministic encoding, and the full encodings number at most the
  // leaders (every follower carries some leader's exact bytes).
  ServerOptions options = SmallServer(2, 64);
  Server server(Table311(4000), options);
  std::vector<std::future<Result<ServedAnswer>>> futures;
  const size_t burst = 12;
  for (size_t i = 0; i < burst; ++i) {
    futures.push_back(server.Submit(
        "alice", Request::Text("how many complaints in brooklyn")));
  }
  std::vector<std::string> deterministic;
  std::set<std::string> full_encodings;
  size_t shared = 0;
  for (auto& future : futures) {
    Result<ServedAnswer> result = future.get();
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    if (result->shared) ++shared;
    full_encodings.insert(net::SerializeAnswer(result->answer));
    deterministic.push_back(
        net::SerializeAnswerDeterministic(result->answer));
  }
  ASSERT_GE(shared, 1u);
  for (size_t i = 1; i < deterministic.size(); ++i) {
    EXPECT_EQ(deterministic[i], deterministic[0]) << "request " << i;
  }
  EXPECT_LE(full_encodings.size(), burst - shared);
}

TEST(ServerTest, PerTenantFunnelCountersSeparateTenants) {
  ServerOptions options = SmallServer(2, 16);
  options.tenant_quotas["metered"] = {/*rate_qps=*/0.001, /*burst=*/1.0,
                                      /*weight=*/1.0};
  Server server(Table311(), options);

  Request metered = Request::Text("how many complaints in brooklyn");
  metered.tenant_id = "metered";
  ASSERT_TRUE(server.Ask("alice", metered).ok());
  auto rejected = server.Ask("alice", metered);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kOverloaded);

  ASSERT_TRUE(
      server.Ask("bob", Request::Text("how many complaints in queens")).ok());

  const TenantCounters metered_counters = server.tenant_counters("metered");
  EXPECT_EQ(metered_counters.submitted, 2u);
  EXPECT_EQ(metered_counters.admitted, 1u);
  EXPECT_EQ(metered_counters.rejected_quota, 1u);
  EXPECT_EQ(metered_counters.completed, 1u);

  const TenantCounters default_counters = server.tenant_counters("");
  EXPECT_EQ(default_counters.submitted, 1u);
  EXPECT_EQ(default_counters.completed, 1u);
  EXPECT_EQ(server.stats().rejected_quota, 1u);
}

}  // namespace
}  // namespace muve::serve
