#include "db/snapshot.h"

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
  MUVE_ASSIGN_OR_RETURN(
      std::shared_ptr<Table> clone,
      Table::Create(name, table_->schema(), table_->options()));
  // Each sealed run loads as a copy of itself, keeping its boundaries and
  // dictionary order. The open tail goes back in row by row, which
  // leaves it open: it is shorter than the flush threshold, or the
  // source would have sealed it.
  const size_t sealed = runs_.size() - (open_tail_ ? 1 : 0);
  for (size_t i = 0; i < sealed; ++i) {
    MUVE_RETURN_NOT_OK(clone->AppendRun(runs_[i]->columns()));
  }
  if (open_tail_) {
    const lsm::Run& tail = *runs_.back();
    std::vector<Value> row(tail.num_columns());
    for (size_t r = 0; r < tail.num_rows(); ++r) {
      for (size_t c = 0; c < row.size(); ++c) row[c] = tail.column(c).Get(r);
      MUVE_RETURN_NOT_OK(clone->AppendRow(row));
    }
  }
  return clone;
}

}  // namespace muve::db
