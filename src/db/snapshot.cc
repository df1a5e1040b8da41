#include "db/snapshot.h"

#include <algorithm>

namespace muve::db {

Value TableSnapshot::ValueAt(size_t row, size_t col) const {
  for (const auto& run : runs_) {
    if (row < run->num_rows()) return run->column(col).Get(row);
    row -= run->num_rows();
  }
  return Value();
}

Result<std::shared_ptr<Table>> TableSnapshot::Clone(
    const std::string& name) const {
  if (table_ == nullptr) {
    return Status::InvalidArgument("cannot clone an empty snapshot");
  }
  // A flush threshold beyond every run keeps AppendRow from sealing runs
  // on its own; explicit Flush() calls reproduce the original run
  // boundaries instead.
  TableOptions options = table_->options();
  options.flush_threshold = 1;
  for (const auto& run : runs_) {
    options.flush_threshold =
        std::max(options.flush_threshold, run->num_rows() + 1);
  }
  MUVE_ASSIGN_OR_RETURN(std::shared_ptr<Table> clone,
                        Table::Create(name, table_->schema(), options));
  const size_t num_cols = table_->num_columns();
  std::vector<Value> row(num_cols);
  for (size_t i = 0; i < runs_.size(); ++i) {
    const lsm::Run& run = *runs_[i];
    for (size_t r = 0; r < run.num_rows(); ++r) {
      for (size_t c = 0; c < num_cols; ++c) row[c] = run.column(c).Get(r);
      MUVE_RETURN_NOT_OK(clone->AppendRow(row));
    }
    if (i + 1 < runs_.size() || !open_tail_) clone->Flush();
  }
  return clone;
}

}  // namespace muve::db
