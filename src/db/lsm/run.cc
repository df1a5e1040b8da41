#include "db/lsm/run.h"

#include <utility>

namespace muve::db::lsm {

std::vector<Column> Run::EmptyColumns(const std::vector<ColumnSpec>& schema) {
  std::vector<Column> columns;
  columns.reserve(schema.size());
  for (const ColumnSpec& spec : schema) {
    columns.emplace_back(spec.name, spec.type);
  }
  return columns;
}

std::shared_ptr<const Run> Run::Freeze(std::vector<Column> columns) {
  return std::shared_ptr<const Run>(new Run(std::move(columns)));
}

}  // namespace muve::db::lsm
