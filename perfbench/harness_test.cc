// Tests of the benchmark's measurement rules (harness.h).
//
//   cmake --build .bench_build --target perfbench_test
//   .bench_build/perfbench_test

#include "harness.h"

#include <gtest/gtest.h>

#include <random>
#include <vector>

namespace perfbench {
namespace {

std::vector<double> OneTo(size_t n) {
  std::vector<double> v;
  for (size_t i = n; i >= 1; --i) v.push_back(static_cast<double>(i));
  return v;
}

TEST(PercentileTest, ReportsAP99OnlyWithTenSamplesBeyondIt) {
  const Percentile enough = TakePercentile(OneTo(1000), 0.99);
  EXPECT_TRUE(enough.supported);
  EXPECT_EQ(enough.samples, 1000u);
  EXPECT_DOUBLE_EQ(enough.value, 990.0);  // 10 samples (991..1000) beyond.

  const Percentile short_run = TakePercentile(OneTo(999), 0.99);
  EXPECT_FALSE(short_run.supported);
  EXPECT_EQ(short_run.samples, 999u);
  EXPECT_DOUBLE_EQ(short_run.value, 0.0);
}

TEST(PercentileTest, MedianNeedsTwentySamples) {
  EXPECT_FALSE(TakePercentile(OneTo(19), 0.5).supported);
  const Percentile p50 = TakePercentile(OneTo(20), 0.5);
  ASSERT_TRUE(p50.supported);
  EXPECT_DOUBLE_EQ(p50.value, 10.0);  // 10 samples (11..20) beyond.
  EXPECT_FALSE(TakePercentile({}, 0.5).supported);
}

TEST(PercentileTest, IsTheNearestRankWhateverTheInputOrder) {
  std::vector<double> samples = OneTo(2000);
  std::shuffle(samples.begin(), samples.end(), std::mt19937(7));
  EXPECT_DOUBLE_EQ(TakePercentile(samples, 0.99).value, 1980.0);
  EXPECT_DOUBLE_EQ(TakePercentile(samples, 0.5).value, 1000.0);
}

TEST(OpenLoopTest, LatencyRunsFromTheDueTimeNotTheSendTime) {
  // The generator fell 5 ms behind (a stall); the request then took 2 ms.
  const RequestClock clock{/*due_ms=*/100.0, /*sent_ms=*/105.0,
                           /*done_ms=*/107.0};
  EXPECT_DOUBLE_EQ(clock.late_ms(), 5.0);
  EXPECT_DOUBLE_EQ(clock.latency_ms(), 7.0);
}

TEST(OpenLoopTest, ScheduleIsSeededSortedAndInsideTheWindow) {
  std::mt19937_64 a(42), b(42);
  auto uniform = [](std::mt19937_64& g) {
    return std::uniform_real_distribution<double>(0.0, 1.0)(g);
  };
  const std::vector<double> first =
      PoissonSchedule(500, 2.0, [&] { return uniform(a); });
  const std::vector<double> again =
      PoissonSchedule(500, 2.0, [&] { return uniform(b); });
  EXPECT_EQ(first, again);
  ASSERT_EQ(first.size(), 500u);
  EXPECT_TRUE(std::is_sorted(first.begin(), first.end()));
  EXPECT_GE(first.front(), 0.0);
  EXPECT_LT(first.back(), 2000.0);
}

TEST(SpanTest, SelfTimeSubtractsTheUnionOfChildren) {
  // answer [0,10) with children [1,3) and [2,5) overlapping (two shard
  // legs at once) and [8,9); the [1,3) child has a grandchild [1,2).
  const std::vector<Span> spans = {
      {"answer", 0.0, 10.0, -1, 1, 0}, {"leg", 1.0, 3.0, 0, 1, 0},
      {"leg", 2.0, 5.0, 0, 1, 1},      {"plan", 8.0, 9.0, 0, 1, 0},
      {"scan", 1.0, 2.0, 1, 1, 0},
  };
  const std::vector<double> self = SelfMillis(spans);
  EXPECT_DOUBLE_EQ(self[0], 10.0 - 4.0 - 1.0);
  EXPECT_DOUBLE_EQ(self[1], 1.0);
  EXPECT_DOUBLE_EQ(self[2], 3.0);
  EXPECT_DOUBLE_EQ(self[3], 1.0);
  EXPECT_DOUBLE_EQ(self[4], 1.0);
}

TEST(SpanTest, ChildrenAreClippedToTheirParent) {
  const std::vector<Span> spans = {{"answer", 0.0, 4.0, -1, 1, 0},
                                   {"late", 3.0, 6.0, 0, 1, 0}};
  EXPECT_DOUBLE_EQ(SelfMillis(spans)[0], 3.0);
}

TEST(SpanTest, LayerSumsCoverOnlyTheNamedRoots) {
  const std::vector<Span> spans = {
      {"warm", 0.0, 5.0, -1, 0, 0},   {"plan", 0.0, 5.0, 0, 0, 0},
      {"answer", 10.0, 14.0, -1, 1, 0}, {"execute", 10.0, 13.0, 2, 1, 0},
      {"dist.gather", 11.0, 12.0, 3, 1, 0},
  };
  const LayerTimes layers = SumLayers(spans, "answer");
  EXPECT_EQ(layers.roots, 1u);
  EXPECT_DOUBLE_EQ(layers.root_ms, 4.0);
  EXPECT_DOUBLE_EQ(layers.covered_ms, 3.0);
  EXPECT_DOUBLE_EQ(layers.self_ms.at("execute"), 2.0);
  EXPECT_DOUBLE_EQ(layers.self_ms.at("dist.gather"), 1.0);
  EXPECT_EQ(layers.self_ms.count("plan"), 0u);
}

TEST(SpanTest, DisabledTraceRecordsNothing) {
  Trace off(false);
  EXPECT_EQ(off.Open("answer", 0.0, -1, 1), -1);
  off.Finish(-1, 1.0);
  EXPECT_TRUE(off.spans().empty());

  Trace on;
  const int64_t root = on.Open("answer", 0.0, -1, 1);
  on.Add({"plan", 0.5, 1.0, root, 1, 0});
  on.Finish(root, 2.0);
  ASSERT_EQ(on.spans().size(), 2u);
  EXPECT_DOUBLE_EQ(on.spans()[0].duration_ms(), 2.0);
}

}  // namespace
}  // namespace perfbench
