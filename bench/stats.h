#ifndef MUVE_BENCH_STATS_H_
#define MUVE_BENCH_STATS_H_

#include <cstddef>
#include <vector>

#include "common/status.h"

namespace muve::stats {

/// Arithmetic mean. Returns 0 for an empty sample.
double Mean(const std::vector<double>& xs);

/// Unbiased sample variance (n-1 denominator). Returns 0 for n < 2.
double SampleVariance(const std::vector<double>& xs);

/// Square root of SampleVariance.
double SampleStdDev(const std::vector<double>& xs);

/// Two-sided confidence interval around the mean.
struct ConfidenceInterval {
  double mean = 0.0;
  double lower = 0.0;
  double upper = 0.0;
  double half_width = 0.0;
};

/// 95% confidence interval for the mean using the Student t distribution
/// with n-1 degrees of freedom (the paper reports 95% bounds on all
/// arithmetic-average plots).
ConfidenceInterval ConfidenceInterval95(const std::vector<double>& xs);

/// Regularized incomplete beta function I_x(a, b), computed with the
/// continued-fraction expansion (Lentz's algorithm).
double RegularizedIncompleteBeta(double a, double b, double x);

/// CDF of the Student t distribution with `df` degrees of freedom.
double StudentTCdf(double t, double df);

/// Two-sided p-value for a t statistic with `df` degrees of freedom.
double TwoSidedPValueFromT(double t, double df);

/// Critical value t* such that P(|T| <= t*) = level for df degrees of
/// freedom (bisection on StudentTCdf).
double StudentTCritical(double df, double level);

/// Result of a Pearson correlation analysis (Table 1 of the paper reports
/// R^2 and p per visualization feature).
struct PearsonResult {
  double r = 0.0;         ///< Correlation coefficient.
  double r_squared = 0.0; ///< Coefficient of determination.
  double p_value = 1.0;   ///< Two-sided p-value (H0: no correlation).
  size_t n = 0;           ///< Sample size.
};

/// Pearson correlation of paired samples. Requires xs.size() == ys.size().
Result<PearsonResult> PearsonCorrelation(const std::vector<double>& xs,
                                         const std::vector<double>& ys);

/// Ordinary least squares fit y = slope * x + intercept.
struct LinearFit {
  double slope = 0.0;
  double intercept = 0.0;
  double r_squared = 0.0;
};

/// Least-squares line through the paired samples.
Result<LinearFit> FitLine(const std::vector<double>& xs,
                          const std::vector<double>& ys);

}  // namespace muve::stats

#endif  // MUVE_BENCH_STATS_H_
