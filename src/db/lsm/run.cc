#include "db/lsm/run.h"

#include <utility>

namespace muve::db::lsm {

std::shared_ptr<const Run> Run::Build(
    const std::vector<ColumnSpec>& schema, size_t rows,
    const std::function<Value(size_t, size_t)>& cell) {
  std::vector<std::unique_ptr<Column>> columns;
  columns.reserve(schema.size());
  for (const ColumnSpec& spec : schema) {
    columns.push_back(std::make_unique<Column>(spec.name, spec.type));
  }
  // Row-order append keeps each per-run dictionary in first-appearance
  // order of the run's own row sequence, which makes a layout-preserving
  // clone (TableSnapshot::Clone) reproduce runs bit-for-bit.
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < columns.size(); ++c) {
      Status st = columns[c]->Append(cell(r, c));
      (void)st;  // Values were validated against the schema on AppendRow.
    }
  }
  return std::shared_ptr<const Run>(new Run(std::move(columns), rows));
}

}  // namespace muve::db::lsm
