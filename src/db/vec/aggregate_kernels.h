#ifndef MUVE_DB_VEC_AGGREGATE_KERNELS_H_
#define MUVE_DB_VEC_AGGREGATE_KERNELS_H_

#include <cstddef>
#include <cstdint>

namespace muve::db::vec {

/// Aggregate kernels for the vectorized executor.
///
/// Each kernel folds one batch worth of values into a running state and
/// returns the new state. Two shapes per (function, element type):
///
///  - *Gather: read through a selection vector (`sel` holds ascending
///    offsets into `data`, which is already offset to the batch base);
///  - *Dense: the all-selected fast path — read data[0..n) directly,
///    skipping the gather indirection when every row of the batch
///    passed (or the query has no predicates).
///
/// Bitwise-reproducibility contract: kernels accumulate sequentially in
/// selection order, which is row order, using exactly the per-row
/// operation of the value-at-a-time scans — `acc += v` for sums (int64
/// widened to double per element first), `acc = v < acc ? v : acc` for
/// min and `acc = acc < v ? v : acc` for max (the std::min/std::max
/// identities, including their NaN behavior). A vectorized scan
/// therefore produces the same floating-point result, bit for bit, as a
/// value-at-a-time loop over the same row range — the property the
/// differential suite pins down. Splitting SUM across SIMD lanes would
/// reassociate the adds and break it; the speedup comes from filtering,
/// not from reassociation.

double SumGatherF64(const double* data, const uint32_t* sel, size_t n,
                    double acc);
double SumGatherI64(const int64_t* data, const uint32_t* sel, size_t n,
                    double acc);
double SumDenseF64(const double* data, size_t n, double acc);
double SumDenseI64(const int64_t* data, size_t n, double acc);

double MinGatherF64(const double* data, const uint32_t* sel, size_t n,
                    double acc);
double MinGatherI64(const int64_t* data, const uint32_t* sel, size_t n,
                    double acc);
double MinDenseF64(const double* data, size_t n, double acc);
double MinDenseI64(const int64_t* data, size_t n, double acc);

double MaxGatherF64(const double* data, const uint32_t* sel, size_t n,
                    double acc);
double MaxGatherI64(const int64_t* data, const uint32_t* sel, size_t n,
                    double acc);
double MaxDenseF64(const double* data, size_t n, double acc);
double MaxDenseI64(const int64_t* data, size_t n, double acc);

}  // namespace muve::db::vec

#endif  // MUVE_DB_VEC_AGGREGATE_KERNELS_H_
