#include "bench/stats.h"

#include <algorithm>
#include <cmath>

namespace muve::stats {

namespace {

// Lanczos approximation of log(Gamma(x)) for x > 0.
double LogGamma(double x) {
  static const double kCoefficients[6] = {
      76.18009172947146,  -86.50532032941677,   24.01409824083091,
      -1.231739572450155, 0.1208650973866179e-2, -0.5395239384953e-5};
  double y = x;
  double tmp = x + 5.5;
  tmp -= (x + 0.5) * std::log(tmp);
  double series = 1.000000000190015;
  for (double coefficient : kCoefficients) {
    y += 1.0;
    series += coefficient / y;
  }
  return -tmp + std::log(2.5066282746310005 * series / x);
}

// Continued fraction for the incomplete beta function (Numerical-Recipes
// style modified Lentz algorithm).
double BetaContinuedFraction(double a, double b, double x) {
  constexpr int kMaxIterations = 300;
  constexpr double kEpsilon = 3.0e-12;
  constexpr double kTiny = 1.0e-300;

  const double qab = a + b;
  const double qap = a + 1.0;
  const double qam = a - 1.0;
  double c = 1.0;
  double d = 1.0 - qab * x / qap;
  if (std::fabs(d) < kTiny) d = kTiny;
  d = 1.0 / d;
  double h = d;
  for (int m = 1; m <= kMaxIterations; ++m) {
    const int m2 = 2 * m;
    double aa = m * (b - m) * x / ((qam + m2) * (a + m2));
    d = 1.0 + aa * d;
    if (std::fabs(d) < kTiny) d = kTiny;
    c = 1.0 + aa / c;
    if (std::fabs(c) < kTiny) c = kTiny;
    d = 1.0 / d;
    h *= d * c;
    aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2));
    d = 1.0 + aa * d;
    if (std::fabs(d) < kTiny) d = kTiny;
    c = 1.0 + aa / c;
    if (std::fabs(c) < kTiny) c = kTiny;
    d = 1.0 / d;
    const double del = d * c;
    h *= del;
    if (std::fabs(del - 1.0) < kEpsilon) break;
  }
  return h;
}

}  // namespace

double Mean(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  double sum = 0.0;
  for (double x : xs) sum += x;
  return sum / static_cast<double>(xs.size());
}

double SampleVariance(const std::vector<double>& xs) {
  if (xs.size() < 2) return 0.0;
  const double mean = Mean(xs);
  double sum_sq = 0.0;
  for (double x : xs) sum_sq += (x - mean) * (x - mean);
  return sum_sq / static_cast<double>(xs.size() - 1);
}

double SampleStdDev(const std::vector<double>& xs) {
  return std::sqrt(SampleVariance(xs));
}

ConfidenceInterval ConfidenceInterval95(const std::vector<double>& xs) {
  ConfidenceInterval ci;
  ci.mean = Mean(xs);
  if (xs.size() < 2) {
    ci.lower = ci.upper = ci.mean;
    return ci;
  }
  const double df = static_cast<double>(xs.size() - 1);
  const double t_star = StudentTCritical(df, 0.95);
  const double sem =
      SampleStdDev(xs) / std::sqrt(static_cast<double>(xs.size()));
  ci.half_width = t_star * sem;
  ci.lower = ci.mean - ci.half_width;
  ci.upper = ci.mean + ci.half_width;
  return ci;
}

double RegularizedIncompleteBeta(double a, double b, double x) {
  if (x <= 0.0) return 0.0;
  if (x >= 1.0) return 1.0;
  const double log_beta = LogGamma(a + b) - LogGamma(a) - LogGamma(b) +
                          a * std::log(x) + b * std::log(1.0 - x);
  const double front = std::exp(log_beta);
  if (x < (a + 1.0) / (a + b + 2.0)) {
    return front * BetaContinuedFraction(a, b, x) / a;
  }
  return 1.0 - front * BetaContinuedFraction(b, a, 1.0 - x) / b;
}

double StudentTCdf(double t, double df) {
  const double x = df / (df + t * t);
  const double tail = 0.5 * RegularizedIncompleteBeta(df / 2.0, 0.5, x);
  return t >= 0.0 ? 1.0 - tail : tail;
}

double TwoSidedPValueFromT(double t, double df) {
  const double x = df / (df + t * t);
  double p = RegularizedIncompleteBeta(df / 2.0, 0.5, x);
  return std::min(1.0, std::max(0.0, p));
}

double StudentTCritical(double df, double level) {
  // Find t with P(|T| <= t) = level, i.e., CDF(t) = (1 + level) / 2.
  const double target = (1.0 + level) / 2.0;
  double lo = 0.0;
  double hi = 1.0;
  while (StudentTCdf(hi, df) < target && hi < 1e6) hi *= 2.0;
  for (int i = 0; i < 200; ++i) {
    const double mid = (lo + hi) / 2.0;
    if (StudentTCdf(mid, df) < target) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return (lo + hi) / 2.0;
}

Result<PearsonResult> PearsonCorrelation(const std::vector<double>& xs,
                                         const std::vector<double>& ys) {
  if (xs.size() != ys.size()) {
    return Status::InvalidArgument("Pearson: sample sizes differ");
  }
  if (xs.size() < 3) {
    return Status::InvalidArgument("Pearson: need at least 3 pairs");
  }
  const size_t n = xs.size();
  const double mean_x = Mean(xs);
  const double mean_y = Mean(ys);
  double sxy = 0.0;
  double sxx = 0.0;
  double syy = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const double dx = xs[i] - mean_x;
    const double dy = ys[i] - mean_y;
    sxy += dx * dy;
    sxx += dx * dx;
    syy += dy * dy;
  }
  PearsonResult out;
  out.n = n;
  if (sxx <= 0.0 || syy <= 0.0) {
    // A constant sample has no defined correlation; report zero.
    out.r = 0.0;
    out.r_squared = 0.0;
    out.p_value = 1.0;
    return out;
  }
  out.r = sxy / std::sqrt(sxx * syy);
  out.r = std::clamp(out.r, -1.0, 1.0);
  out.r_squared = out.r * out.r;
  const double df = static_cast<double>(n - 2);
  const double denom = 1.0 - out.r * out.r;
  if (denom <= 1e-15) {
    out.p_value = 0.0;
  } else {
    const double t = out.r * std::sqrt(df / denom);
    out.p_value = TwoSidedPValueFromT(t, df);
  }
  return out;
}

Result<LinearFit> FitLine(const std::vector<double>& xs,
                          const std::vector<double>& ys) {
  if (xs.size() != ys.size() || xs.size() < 2) {
    return Status::InvalidArgument("FitLine: need >= 2 equal-length samples");
  }
  const double mean_x = Mean(xs);
  const double mean_y = Mean(ys);
  double sxy = 0.0;
  double sxx = 0.0;
  double syy = 0.0;
  for (size_t i = 0; i < xs.size(); ++i) {
    const double dx = xs[i] - mean_x;
    const double dy = ys[i] - mean_y;
    sxy += dx * dy;
    sxx += dx * dx;
    syy += dy * dy;
  }
  if (sxx <= 0.0) {
    return Status::InvalidArgument("FitLine: x values are constant");
  }
  LinearFit fit;
  fit.slope = sxy / sxx;
  fit.intercept = mean_y - fit.slope * mean_x;
  fit.r_squared = syy > 0.0 ? (sxy * sxy) / (sxx * syy) : 1.0;
  return fit;
}

}  // namespace muve::stats
