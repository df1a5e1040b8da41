#include <gtest/gtest.h>

#include <cmath>

#include "bench/stats.h"
#include "common/rng.h"

namespace muve::stats {
namespace {

TEST(DescriptiveTest, Mean) {
  EXPECT_DOUBLE_EQ(Mean({1.0, 2.0, 3.0}), 2.0);
  EXPECT_DOUBLE_EQ(Mean({}), 0.0);
}

TEST(DescriptiveTest, SampleVariance) {
  // Known: var of {2, 4, 4, 4, 5, 5, 7, 9} (sample) = 32/7.
  EXPECT_NEAR(SampleVariance({2, 4, 4, 4, 5, 5, 7, 9}), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(SampleVariance({5.0}), 0.0);
}

TEST(DescriptiveTest, ConfidenceInterval95Contains) {
  // CI of a constant sample collapses to the mean.
  ConfidenceInterval ci = ConfidenceInterval95({3.0, 3.0, 3.0, 3.0});
  EXPECT_DOUBLE_EQ(ci.mean, 3.0);
  EXPECT_DOUBLE_EQ(ci.half_width, 0.0);
}

TEST(DescriptiveTest, ConfidenceInterval95KnownValue) {
  // n=4, mean=2.5, s=stddev{1,2,3,4}=1.29099, t*(3, .95)=3.1824.
  ConfidenceInterval ci = ConfidenceInterval95({1.0, 2.0, 3.0, 4.0});
  EXPECT_NEAR(ci.mean, 2.5, 1e-12);
  EXPECT_NEAR(ci.half_width, 3.1824 * 1.2909944 / 2.0, 1e-3);
}

TEST(SpecialFunctionsTest, IncompleteBetaBoundaries) {
  EXPECT_DOUBLE_EQ(RegularizedIncompleteBeta(2.0, 3.0, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(RegularizedIncompleteBeta(2.0, 3.0, 1.0), 1.0);
}

TEST(SpecialFunctionsTest, IncompleteBetaSymmetry) {
  // I_x(a,b) = 1 - I_{1-x}(b,a).
  for (double x : {0.1, 0.3, 0.5, 0.8}) {
    EXPECT_NEAR(RegularizedIncompleteBeta(2.5, 1.5, x),
                1.0 - RegularizedIncompleteBeta(1.5, 2.5, 1.0 - x), 1e-10);
  }
}

TEST(SpecialFunctionsTest, IncompleteBetaUniformCase) {
  // I_x(1,1) = x.
  for (double x : {0.25, 0.5, 0.75}) {
    EXPECT_NEAR(RegularizedIncompleteBeta(1.0, 1.0, x), x, 1e-10);
  }
}

TEST(StudentTTest, CdfAtZeroIsHalf) {
  for (double df : {1.0, 5.0, 30.0}) {
    EXPECT_NEAR(StudentTCdf(0.0, df), 0.5, 1e-10);
  }
}

TEST(StudentTTest, KnownQuantiles) {
  // t(df=10): P(T <= 1.812) ~ 0.95; t(df=1, Cauchy): P(T <= 1) = 0.75.
  EXPECT_NEAR(StudentTCdf(1.8125, 10.0), 0.95, 1e-3);
  EXPECT_NEAR(StudentTCdf(1.0, 1.0), 0.75, 1e-6);
}

TEST(StudentTTest, CriticalValueRoundTrips) {
  for (double df : {3.0, 10.0, 100.0}) {
    const double t_star = StudentTCritical(df, 0.95);
    EXPECT_NEAR(StudentTCdf(t_star, df), 0.975, 1e-6);
  }
}

TEST(StudentTTest, CriticalValueKnown) {
  // Two-sided 95% critical values: df=3 -> 3.182, df=30 -> 2.042.
  EXPECT_NEAR(StudentTCritical(3.0, 0.95), 3.1824, 1e-3);
  EXPECT_NEAR(StudentTCritical(30.0, 0.95), 2.0423, 1e-3);
}

TEST(PearsonTest, PerfectCorrelation) {
  auto result = PearsonCorrelation({1, 2, 3, 4}, {2, 4, 6, 8});
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result->r, 1.0, 1e-12);
  EXPECT_NEAR(result->r_squared, 1.0, 1e-12);
  EXPECT_NEAR(result->p_value, 0.0, 1e-9);
}

TEST(PearsonTest, PerfectAnticorrelation) {
  auto result = PearsonCorrelation({1, 2, 3, 4}, {8, 6, 4, 2});
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result->r, -1.0, 1e-12);
}

TEST(PearsonTest, IndependentSamplesHaveHighP) {
  Rng rng(5);
  std::vector<double> xs;
  std::vector<double> ys;
  for (int i = 0; i < 200; ++i) {
    xs.push_back(rng.Normal());
    ys.push_back(rng.Normal());
  }
  auto result = PearsonCorrelation(xs, ys);
  ASSERT_TRUE(result.ok());
  EXPECT_LT(std::fabs(result->r), 0.2);
  EXPECT_GT(result->p_value, 0.01);
}

TEST(PearsonTest, CorrelatedSamplesHaveLowP) {
  Rng rng(6);
  std::vector<double> xs;
  std::vector<double> ys;
  for (int i = 0; i < 100; ++i) {
    const double x = rng.Normal();
    xs.push_back(x);
    ys.push_back(2.0 * x + rng.Normal() * 0.5);
  }
  auto result = PearsonCorrelation(xs, ys);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->r_squared, 0.8);
  EXPECT_LT(result->p_value, 1e-6);
}

TEST(PearsonTest, ConstantSampleIsUncorrelated) {
  auto result = PearsonCorrelation({1, 1, 1, 1}, {1, 2, 3, 4});
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(result->r, 0.0);
  EXPECT_DOUBLE_EQ(result->p_value, 1.0);
}

TEST(PearsonTest, RejectsMismatchedSizes) {
  EXPECT_FALSE(PearsonCorrelation({1, 2}, {1, 2, 3}).ok());
  EXPECT_FALSE(PearsonCorrelation({1, 2}, {1, 2}).ok());
}

TEST(PearsonTest, KnownTextbookValue) {
  // r of {(1,2),(2,5),(3,6)} = 0.9608.
  auto result = PearsonCorrelation({1, 2, 3}, {2, 5, 6});
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result->r, 0.9608, 1e-3);
}

TEST(FitLineTest, ExactLine) {
  auto fit = FitLine({0, 1, 2, 3}, {1, 3, 5, 7});
  ASSERT_TRUE(fit.ok());
  EXPECT_NEAR(fit->slope, 2.0, 1e-12);
  EXPECT_NEAR(fit->intercept, 1.0, 1e-12);
  EXPECT_NEAR(fit->r_squared, 1.0, 1e-12);
}

TEST(FitLineTest, NoisyLineRecoversSlope) {
  Rng rng(8);
  std::vector<double> xs;
  std::vector<double> ys;
  for (int i = 0; i < 500; ++i) {
    const double x = static_cast<double>(i % 10);
    xs.push_back(x);
    ys.push_back(3.0 * x + 5.0 + rng.Normal() * 0.5);
  }
  auto fit = FitLine(xs, ys);
  ASSERT_TRUE(fit.ok());
  EXPECT_NEAR(fit->slope, 3.0, 0.05);
  EXPECT_NEAR(fit->intercept, 5.0, 0.3);
}

TEST(FitLineTest, RejectsConstantX) {
  EXPECT_FALSE(FitLine({2, 2, 2}, {1, 2, 3}).ok());
}

}  // namespace
}  // namespace muve::stats
