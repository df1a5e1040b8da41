#ifndef MUVE_DB_VEC_BATCH_H_
#define MUVE_DB_VEC_BATCH_H_

#include <cstddef>
#include <cstdint>

namespace muve::db::vec {

/// Rows processed per batch by the vectorized executor. 2048 values keep
/// one batch of every scanned column plus the selection scratch well
/// inside L1/L2 while amortizing per-batch dispatch (predicate kind,
/// aggregate kind) over thousands of rows. Batches tile each scan slice
/// from its start, so slice boundaries — and therefore the per-slice
/// accumulator states the executor merges — do not depend on the batch
/// size.
inline constexpr size_t kBatchSize = 2048;

/// Selection-vector scratch for one scan (or one slice of a pooled
/// scan). A selection vector holds the offsets, relative to the batch
/// base row and in ascending order, of rows that passed every predicate
/// applied so far; filters write `a`/`b` alternately so a refine never
/// reads its own output. `c` receives the group-compacted selection of a
/// grouped scan and `groups` the matching group indices. Heap-allocate
/// (the struct is ~32 KiB — too big for pool-worker stacks under
/// sanitizers) and reuse across batches.
struct BatchScratch {
  uint32_t a[kBatchSize];
  uint32_t b[kBatchSize];
  uint32_t c[kBatchSize];
  uint32_t groups[kBatchSize];
};

}  // namespace muve::db::vec

#endif  // MUVE_DB_VEC_BATCH_H_
