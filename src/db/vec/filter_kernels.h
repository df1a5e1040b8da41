#ifndef MUVE_DB_VEC_FILTER_KERNELS_H_
#define MUVE_DB_VEC_FILTER_KERNELS_H_

#include <cstddef>
#include <cstdint>

namespace muve::db::vec {

/// Predicate kernels for the vectorized executor.
///
/// Each kernel evaluates one equality/IN predicate over one batch of a
/// typed column and produces a selection vector: the offsets (relative
/// to the batch base, ascending) of rows that matched. Two shapes:
///
///  - Filter*: dense input — test every row in [0, n) of `data` (already
///    offset to the batch base) and write matching offsets to `sel`.
///  - Refine*: sparse input — test only the offsets in `sel_in` (the
///    previous predicate's output) and compact survivors into `sel_out`,
///    which must not alias `sel_in`.
///
/// All kernels return the number of offsets written. The inner loops are
/// branch-light (unconditional store, increment by the comparison
/// result) so the compiler can keep them free of per-row mispredictions;
/// selection order is always ascending, which downstream aggregate
/// kernels rely on for bitwise-reproducible float accumulation.
///
/// Comparison semantics match the value-at-a-time reference scan
/// (tests/testing/reference_executor.h) exactly: integer and
/// dictionary-code equality is `==`; double equality is IEEE `==`
/// (-0.0 matches 0.0, NaN matches nothing); an IN list accepts a row
/// when any of its values matches.

/// Dictionary codes against a single accepted code.
size_t FilterEqU32(const uint32_t* data, size_t n, uint32_t key,
                   uint32_t* sel);
size_t RefineEqU32(const uint32_t* data, const uint32_t* sel_in, size_t n,
                   uint32_t key, uint32_t* sel_out);

/// Dictionary codes against a per-dictionary accept mask (mask[code] is
/// 1 to accept; build with Column::AcceptMask). Turns an arbitrarily
/// long IN list into one table load per row.
size_t FilterMaskU32(const uint32_t* data, size_t n, const uint8_t* mask,
                     uint32_t* sel);
size_t RefineMaskU32(const uint32_t* data, const uint32_t* sel_in,
                     size_t n, const uint8_t* mask, uint32_t* sel_out);

/// Int64 values against one key or an IN list.
size_t FilterEqI64(const int64_t* data, size_t n, int64_t key,
                   uint32_t* sel);
size_t RefineEqI64(const int64_t* data, const uint32_t* sel_in, size_t n,
                   int64_t key, uint32_t* sel_out);
size_t FilterInI64(const int64_t* data, size_t n, const int64_t* keys,
                   size_t num_keys, uint32_t* sel);
size_t RefineInI64(const int64_t* data, const uint32_t* sel_in, size_t n,
                   const int64_t* keys, size_t num_keys, uint32_t* sel_out);

/// Double values against one key or an IN list (IEEE ==).
size_t FilterEqF64(const double* data, size_t n, double key, uint32_t* sel);
size_t RefineEqF64(const double* data, const uint32_t* sel_in, size_t n,
                   double key, uint32_t* sel_out);
size_t FilterInF64(const double* data, size_t n, const double* keys,
                   size_t num_keys, uint32_t* sel);
size_t RefineInF64(const double* data, const uint32_t* sel_in, size_t n,
                   const double* keys, size_t num_keys, uint32_t* sel_out);

}  // namespace muve::db::vec

#endif  // MUVE_DB_VEC_FILTER_KERNELS_H_
