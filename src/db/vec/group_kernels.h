#ifndef MUVE_DB_VEC_GROUP_KERNELS_H_
#define MUVE_DB_VEC_GROUP_KERNELS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "db/column.h"

namespace muve::db::vec {

/// Group index meaning "this row's group value is not in the IN list".
inline constexpr uint32_t kNoGroup = UINT32_MAX;

/// Dictionary-aware GROUP BY support: the grouped executor resolves a
/// row's group with one dense-array load on its dictionary code instead
/// of a hash lookup per row.

/// Builds the dense code -> group-index table for an IN-list GROUP BY
/// over a dictionary-encoded string column: lookup[code] is the index
/// into `group_values` of the value that code spells, or kNoGroup.
/// Group values absent from the dictionary get no entry (their cells
/// stay empty); when the same value appears twice in `group_values`,
/// the first occurrence wins, as in the reference executor's value map.
std::vector<uint32_t> BuildGroupLookup(
    const Column& column, const std::vector<std::string>& group_values);

/// Maps one batch's selection to groups: for each offset in sel_in,
/// looks up `lookup[codes[offset]]`; rows with a group are compacted
/// into sel_out (same ascending order) with their group index written to
/// the parallel `groups` array. Returns the surviving count. sel_out and
/// groups must not alias sel_in. `codes` is offset to the batch base.
size_t MapGroups(const uint32_t* codes, const uint32_t* sel_in, size_t n,
                 const uint32_t* lookup, uint32_t* sel_out,
                 uint32_t* groups);

/// Dense variant: consider every row of the batch (no prior selection).
size_t MapGroupsDense(const uint32_t* codes, size_t n,
                      const uint32_t* lookup, uint32_t* sel_out,
                      uint32_t* groups);

}  // namespace muve::db::vec

#endif  // MUVE_DB_VEC_GROUP_KERNELS_H_
