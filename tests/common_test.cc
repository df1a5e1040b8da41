#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <future>
#include <limits>
#include <numeric>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/strings.h"
#include "common/thread_pool.h"

namespace muve {
namespace {

// ---------------------------------------------------------------------
// Status / Result.
// ---------------------------------------------------------------------

TEST(StatusTest, DefaultIsOk) {
  Status status;
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kOk);
  EXPECT_EQ(status.ToString(), "Ok");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status status = Status::InvalidArgument("bad input");
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(status.message(), "bad input");
  EXPECT_EQ(status.ToString(), "InvalidArgument: bad input");
}

TEST(StatusTest, AllFactoriesProduceDistinctCodes) {
  std::set<StatusCode> codes = {
      Status::InvalidArgument("").code(),  Status::NotFound("").code(),
      Status::OutOfRange("").code(),       Status::FailedPrecondition("").code(),
      Status::Unimplemented("").code(),    Status::Timeout("").code(),
      Status::Internal("").code(),         Status::ParseError("").code(),
      Status::Infeasible("").code(),       Status::Unbounded("").code()};
  EXPECT_EQ(codes.size(), 10u);
}

TEST(ResultTest, HoldsValue) {
  Result<int> result = 42;
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(*result, 42);
  EXPECT_EQ(result.value_or(7), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> result = Status::NotFound("missing");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(result.value_or(7), 7);
}

Result<int> ParsePositive(int x) {
  if (x <= 0) return Status::InvalidArgument("non-positive");
  return x;
}

Result<int> DoubledPositive(int x) {
  MUVE_ASSIGN_OR_RETURN(int value, ParsePositive(x));
  return value * 2;
}

TEST(ResultTest, AssignOrReturnMacro) {
  Result<int> good = DoubledPositive(21);
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(*good, 42);
  Result<int> bad = DoubledPositive(-1);
  EXPECT_FALSE(bad.ok());
}

// ---------------------------------------------------------------------
// Rng.
// ---------------------------------------------------------------------

TEST(RngTest, DeterministicForSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(RngTest, UniformIntInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const uint64_t v = rng.UniformInt(10);
    EXPECT_LT(v, 10u);
  }
}

TEST(RngTest, UniformIntCoversAllValues) {
  Rng rng(7);
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.UniformInt(5));
  EXPECT_EQ(seen.size(), 5u);
}

TEST(RngTest, UniformDoubleInUnitInterval) {
  Rng rng(9);
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.UniformDouble();
    ASSERT_GE(v, 0.0);
    ASSERT_LT(v, 1.0);
    sum += v;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(RngTest, NormalMoments) {
  Rng rng(11);
  double sum = 0.0;
  double sum_sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.Normal();
    sum += v;
    sum_sq += v * v;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.05);
}

TEST(RngTest, BernoulliRate) {
  Rng rng(13);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.Bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.02);
}

TEST(RngTest, PermutationIsPermutation) {
  Rng rng(17);
  std::vector<size_t> perm = rng.Permutation(20);
  std::vector<size_t> sorted = perm;
  std::sort(sorted.begin(), sorted.end());
  for (size_t i = 0; i < 20; ++i) EXPECT_EQ(sorted[i], i);
}

TEST(RngTest, DiscreteRespectsWeights) {
  Rng rng(19);
  std::vector<double> weights = {1.0, 0.0, 3.0};
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 8000; ++i) ++counts[rng.Discrete(weights)];
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(static_cast<double>(counts[2]) / counts[0], 3.0, 0.4);
}

TEST(RngTest, LogNormalPositive) {
  Rng rng(23);
  for (int i = 0; i < 100; ++i) {
    EXPECT_GT(rng.LogNormal(0.0, 0.5), 0.0);
  }
}

// ---------------------------------------------------------------------
// Strings.
// ---------------------------------------------------------------------

TEST(StringsTest, ToLower) {
  EXPECT_EQ(ToLower("AbC dEf"), "abc def");
}

TEST(StringsTest, Trim) {
  EXPECT_EQ(Trim("  hi  "), "hi");
  EXPECT_EQ(Trim("hi"), "hi");
  EXPECT_EQ(Trim("   "), "");
  EXPECT_EQ(Trim(""), "");
}

TEST(StringsTest, SplitWhitespace) {
  EXPECT_EQ(SplitWhitespace("  a  b\tc \n"),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_TRUE(SplitWhitespace("   ").empty());
}

TEST(StringsTest, Join) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ", "), "");
}

TEST(StringsTest, StartsWith) {
  EXPECT_TRUE(StartsWith("foobar", "foo"));
  EXPECT_FALSE(StartsWith("foobar", "bar"));
}

TEST(StringsTest, EqualsIgnoreCase) {
  EXPECT_TRUE(EqualsIgnoreCase("Hello", "hELLO"));
  EXPECT_FALSE(EqualsIgnoreCase("Hello", "Hell"));
}

TEST(StringsTest, FormatDouble) {
  EXPECT_EQ(FormatDouble(3.14159, 2), "3.14");
  EXPECT_EQ(FormatDouble(1.0, 0), "1");
}

// ---------------------------------------------------------------------
// Clock.
// ---------------------------------------------------------------------

TEST(ClockTest, StopWatchAdvances) {
  StopWatch watch;
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_GE(watch.ElapsedMillis(), 4.0);
}

TEST(ClockTest, DeadlineExpires) {
  Deadline deadline = Deadline::AfterMillis(1.0);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_TRUE(deadline.Expired());
  EXPECT_EQ(deadline.RemainingMillis(), 0.0);
}

TEST(ClockTest, InfiniteDeadlineNeverExpires) {
  Deadline deadline = Deadline::Infinite();
  EXPECT_FALSE(deadline.Expired());
  EXPECT_FALSE(deadline.IsFinite());
}

TEST(ClockTest, NonPositiveBudgetExpiresImmediately) {
  EXPECT_TRUE(Deadline::AfterMillis(0.0).Expired());
  EXPECT_TRUE(Deadline::AfterMillis(-5.0).Expired());
}

TEST(ClockTest, FakeClockControlsDeadline) {
  FakeClock clock;
  clock.SetMillis(100.0);
  Deadline deadline = Deadline::AfterMillis(10.0, &clock);
  EXPECT_TRUE(deadline.IsFinite());
  EXPECT_FALSE(deadline.Expired());
  EXPECT_DOUBLE_EQ(deadline.RemainingMillis(), 10.0);

  clock.AdvanceMillis(9.0);
  EXPECT_FALSE(deadline.Expired());
  EXPECT_DOUBLE_EQ(deadline.RemainingMillis(), 1.0);

  clock.AdvanceMillis(1.0);  // Exactly at expiry: now >= expiry.
  EXPECT_TRUE(deadline.Expired());
  EXPECT_EQ(deadline.RemainingMillis(), 0.0);

  // A frozen clock never expires an unexpired deadline on its own.
  Deadline fresh = Deadline::AfterMillis(5.0, &clock);
  for (int i = 0; i < 100; ++i) EXPECT_FALSE(fresh.Expired());
}

TEST(ClockTest, FakeClockInfiniteBudgetStaysInfinite) {
  FakeClock clock;
  Deadline deadline = Deadline::AfterMillis(
      std::numeric_limits<double>::infinity(), &clock);
  EXPECT_FALSE(deadline.IsFinite());
  clock.AdvanceMillis(1e12);
  EXPECT_FALSE(deadline.Expired());
}

TEST(ClockTest, TightestPicksSmallerRemaining) {
  FakeClock clock;
  clock.SetMillis(50.0);
  Deadline near = Deadline::AfterMillis(5.0, &clock);
  Deadline far = Deadline::AfterMillis(500.0, &clock);
  Deadline infinite = Deadline::Infinite();

  EXPECT_DOUBLE_EQ(Deadline::Tightest(near, far).RemainingMillis(), 5.0);
  EXPECT_DOUBLE_EQ(Deadline::Tightest(far, near).RemainingMillis(), 5.0);
  // Any finite deadline beats infinite; both infinite stays infinite.
  EXPECT_TRUE(Deadline::Tightest(far, infinite).IsFinite());
  EXPECT_TRUE(Deadline::Tightest(infinite, near).IsFinite());
  EXPECT_FALSE(Deadline::Tightest(infinite, Deadline::Infinite()).IsFinite());
  // The winner keeps its own clock so later Expired() calls track it.
  Deadline winner = Deadline::Tightest(infinite, near);
  clock.AdvanceMillis(5.0);
  EXPECT_TRUE(winner.Expired());
}

// ---------------------------------------------------------------------
// ThreadPool lifetime.
// ---------------------------------------------------------------------

TEST(ThreadPoolTest, RunsSubmittedTasks) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.num_threads(), 3u);
  std::vector<std::future<int>> futures;
  for (int i = 0; i < 20; ++i) {
    futures.push_back(pool.Submit([i] { return i * i; }));
  }
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(futures[static_cast<size_t>(i)].get(), i * i);
  }
}

TEST(ThreadPoolTest, SubmitAfterShutdownThrows) {
  ThreadPool pool(2);
  pool.Shutdown();
  EXPECT_TRUE(pool.shutdown_started());
  EXPECT_EQ(pool.num_threads(), 0u);
  // A future from a post-shutdown Submit could never become ready
  // (no worker will ever run the task), so the call must fail loudly
  // instead of handing back a guaranteed hang.
  EXPECT_THROW(pool.Submit([] { return 1; }), std::runtime_error);
}

TEST(ThreadPoolTest, ShutdownDrainsAlreadyQueuedTasks) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 64; ++i) {
      pool.Submit([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
    }
    pool.Shutdown();
    EXPECT_EQ(ran.load(), 64);
  }
  EXPECT_EQ(ran.load(), 64);
}

TEST(ThreadPoolTest, ConcurrentShutdownIsSafe) {
  ThreadPool pool(2);
  for (int i = 0; i < 8; ++i) {
    pool.Submit([] {});
  }
  std::vector<std::thread> closers;
  for (int i = 0; i < 4; ++i) {
    closers.emplace_back([&pool] { pool.Shutdown(); });
  }
  for (std::thread& closer : closers) closer.join();
  EXPECT_EQ(pool.num_threads(), 0u);
}

TEST(ThreadPoolTest, ParallelForRunsInlineAfterShutdown) {
  ThreadPool pool(2);
  pool.Shutdown();
  // num_threads() is 0 now; ParallelFor must degrade to the calling
  // thread rather than submitting to the dead pool.
  std::vector<int> hits(100, 0);
  ParallelFor(&pool, hits.size(), 7,
              [&hits](size_t, size_t begin, size_t end) {
                for (size_t i = begin; i < end; ++i) hits[i] += 1;
              });
  for (int hit : hits) EXPECT_EQ(hit, 1);
}

}  // namespace
}  // namespace muve
