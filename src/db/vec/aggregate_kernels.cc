#include "db/vec/aggregate_kernels.h"

namespace muve::db::vec {

namespace {

/// Fold shapes shared by every kernel. `load(i)` reads element i as a
/// double; `fold` must be the value-at-a-time scans' per-row operation so
/// the sequential accumulation is bitwise-reproducible (see header).
template <typename Load, typename Fold>
double FoldGather(const uint32_t* sel, size_t n, double acc, Load load,
                  Fold fold) {
  for (size_t i = 0; i < n; ++i) {
    acc = fold(acc, load(sel[i]));
  }
  return acc;
}

template <typename Load, typename Fold>
double FoldDense(size_t n, double acc, Load load, Fold fold) {
  for (size_t i = 0; i < n; ++i) {
    acc = fold(acc, load(i));
  }
  return acc;
}

inline double Add(double acc, double v) { return acc + v; }
inline double Min(double acc, double v) { return v < acc ? v : acc; }
inline double Max(double acc, double v) { return acc < v ? v : acc; }

inline auto LoadF64(const double* data) {
  return [data](size_t i) { return data[i]; };
}
inline auto LoadI64(const int64_t* data) {
  return [data](size_t i) { return static_cast<double>(data[i]); };
}

}  // namespace

double SumGatherF64(const double* data, const uint32_t* sel, size_t n,
                    double acc) {
  return FoldGather(sel, n, acc, LoadF64(data), Add);
}

double SumGatherI64(const int64_t* data, const uint32_t* sel, size_t n,
                    double acc) {
  return FoldGather(sel, n, acc, LoadI64(data), Add);
}

double SumDenseF64(const double* data, size_t n, double acc) {
  return FoldDense(n, acc, LoadF64(data), Add);
}

double SumDenseI64(const int64_t* data, size_t n, double acc) {
  return FoldDense(n, acc, LoadI64(data), Add);
}

double MinGatherF64(const double* data, const uint32_t* sel, size_t n,
                    double acc) {
  return FoldGather(sel, n, acc, LoadF64(data), Min);
}

double MinGatherI64(const int64_t* data, const uint32_t* sel, size_t n,
                    double acc) {
  return FoldGather(sel, n, acc, LoadI64(data), Min);
}

double MinDenseF64(const double* data, size_t n, double acc) {
  return FoldDense(n, acc, LoadF64(data), Min);
}

double MinDenseI64(const int64_t* data, size_t n, double acc) {
  return FoldDense(n, acc, LoadI64(data), Min);
}

double MaxGatherF64(const double* data, const uint32_t* sel, size_t n,
                    double acc) {
  return FoldGather(sel, n, acc, LoadF64(data), Max);
}

double MaxGatherI64(const int64_t* data, const uint32_t* sel, size_t n,
                    double acc) {
  return FoldGather(sel, n, acc, LoadI64(data), Max);
}

double MaxDenseF64(const double* data, size_t n, double acc) {
  return FoldDense(n, acc, LoadF64(data), Max);
}

double MaxDenseI64(const int64_t* data, size_t n, double acc) {
  return FoldDense(n, acc, LoadI64(data), Max);
}

}  // namespace muve::db::vec
