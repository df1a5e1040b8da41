#include "db/table.h"

#include <algorithm>
#include <utility>

#include "common/strings.h"
#include "db/snapshot.h"

namespace muve::db {

Table::Table(std::string name, std::vector<ColumnSpec> schema,
             TableOptions options)
    : name_(std::move(name)),
      schema_(std::move(schema)),
      options_(options),
      open_(lsm::Run::EmptyColumns(schema_)),
      stats_(schema_.size()) {}

Result<std::shared_ptr<Table>> Table::Create(
    std::string name, const std::vector<ColumnSpec>& schema,
    TableOptions options) {
  if (schema.empty()) {
    return Status::InvalidArgument("table '" + name + "' needs columns");
  }
  for (size_t i = 0; i < schema.size(); ++i) {
    for (size_t j = 0; j < i; ++j) {
      if (EqualsIgnoreCase(schema[j].name, schema[i].name)) {
        return Status::InvalidArgument("duplicate column '" +
                                       schema[i].name + "'");
      }
    }
  }
  options.flush_threshold = std::max<size_t>(1, options.flush_threshold);
  options.target_runs = std::max<size_t>(1, options.target_runs);
  return std::shared_ptr<Table>(
      new Table(std::move(name), schema, options));
}

Status Table::AppendRow(const std::vector<Value>& values) {
  if (values.size() != schema_.size()) {
    return Status::InvalidArgument("row arity mismatch");
  }
  // Check the whole row before touching a column, so a rejected row
  // never leaves the open columns with unequal lengths.
  for (size_t i = 0; i < values.size(); ++i) {
    MUVE_RETURN_NOT_OK(
        CheckValueType(schema_[i].name, schema_[i].type, values[i]));
  }
  std::lock_guard<std::mutex> lock(mutex_);
  for (size_t i = 0; i < values.size(); ++i) {
    const size_t known = open_[i].dictionary_size();
    Status st = open_[i].Append(values[i]);
    (void)st;  // Checked above.
    // The open column's dictionary is already in the vocabulary, so only
    // a value new to it can be new to the table.
    if (open_[i].dictionary_size() > known) {
      stats_[i].Add(values[i].AsString());
    }
  }
  num_rows_.fetch_add(1, std::memory_order_release);
  version_.fetch_add(1, std::memory_order_release);
  if (open_.front().size() >= options_.flush_threshold) FlushLocked();
  return Status::OK();
}

Status Table::AppendRun(std::vector<Column> columns) {
  if (columns.size() != schema_.size()) {
    return Status::InvalidArgument("run column count mismatch");
  }
  for (size_t i = 0; i < columns.size(); ++i) {
    if (columns[i].name() != schema_[i].name ||
        columns[i].type() != schema_[i].type) {
      return Status::InvalidArgument("run column '" + columns[i].name() +
                                     "' does not match column '" +
                                     schema_[i].name + "'");
    }
    if (columns[i].size() != columns.front().size()) {
      return Status::InvalidArgument("run columns differ in length");
    }
  }
  const size_t rows = columns.front().size();
  if (rows == 0) return Status::OK();
  std::lock_guard<std::mutex> lock(mutex_);
  if (open_.front().size() > 0) FlushLocked();
  // A run dictionary lists the run's distinct values in first-appearance
  // order, so folding it keeps the vocabulary in table append order.
  for (size_t i = 0; i < columns.size(); ++i) {
    stats_[i].AddAll(columns[i].dictionary());
  }
  runs_.push_back(lsm::Run::Freeze(std::move(columns)));
  num_rows_.fetch_add(rows, std::memory_order_release);
  version_.fetch_add(rows, std::memory_order_release);
  MaybeScheduleCompactionLocked();
  return Status::OK();
}

TableSnapshot Table::Snapshot() const {
  TableSnapshot snapshot;
  std::lock_guard<std::mutex> lock(mutex_);
  snapshot.table_ = shared_from_this();
  snapshot.version_ = version_.load(std::memory_order_relaxed);
  snapshot.runs_ = runs_;
  if (open_.front().size() > 0) {
    // The writer keeps appending to open_, so the snapshot freezes a copy.
    snapshot.runs_.push_back(lsm::Run::Freeze(open_));
    snapshot.open_tail_ = true;
  }
  for (const auto& run : snapshot.runs_) snapshot.num_rows_ += run->num_rows();
  return snapshot;
}

size_t Table::DistinctCount(size_t index) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_[index].DistinctCount();
}

std::vector<std::string> Table::StringValues(size_t index) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_[index].string_values();
}

Value Table::ValueAt(size_t row, size_t col) const {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& run : runs_) {
    if (row < run->num_rows()) return run->column(col).Get(row);
    row -= run->num_rows();
  }
  return open_[col].Get(row);
}

ShardedSnapshot Table::SnapshotPartitions() const {
  ShardedSnapshot snapshot;
  snapshot.shards.push_back(Snapshot());
  snapshot.version = snapshot.shards[0].version();
  return snapshot;
}

std::shared_ptr<const Relation> Table::SampleRows(double fraction) const {
  return Sample(fraction);
}

std::shared_ptr<Table> Table::Sample(double fraction) const {
  fraction = std::clamp(fraction, 0.0, 1.0);
  TableSnapshot snapshot = Snapshot();
  auto sampled = Table::Create(name_ + "_sample", schema_);
  // Creation from a valid schema cannot fail.
  std::shared_ptr<Table> out = *sampled;
  if (fraction <= 0.0 || snapshot.num_rows() == 0) return out;
  // Systematic sampling: take every k-th row. Deterministic, cheap, and
  // unbiased for the synthetic workloads (row order is random).
  const double stride = 1.0 / fraction;
  std::vector<Column> columns = lsm::Run::EmptyColumns(schema_);
  double position = 0.0;
  size_t run_begin = 0;
  for (const auto& run : snapshot.runs()) {
    const size_t run_end = run_begin + run->num_rows();
    for (; position < static_cast<double>(run_end); position += stride) {
      const size_t r = static_cast<size_t>(position) - run_begin;
      for (size_t c = 0; c < columns.size(); ++c) {
        columns[c].AppendFrom(run->column(c), r);
      }
    }
    run_begin = run_end;
  }
  Status st = out->AppendRun(std::move(columns));
  (void)st;  // The columns come from the sample's own schema.
  return out;
}

void Table::Flush() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (open_.front().size() > 0) FlushLocked();
}

void Table::FlushLocked() {
  // Readers snapshotting before or after this see the open rows either
  // copied or sealed, never both: both happen under mutex_.
  runs_.push_back(
      lsm::Run::Freeze(std::exchange(open_, lsm::Run::EmptyColumns(schema_))));
  MaybeScheduleCompactionLocked();
}

void Table::Compact() {
  std::lock_guard<std::mutex> lock(compaction_mutex_);
  CompactionRound();
}

void Table::EnableBackgroundCompaction(ThreadPool* pool) {
  std::lock_guard<std::mutex> lock(mutex_);
  compaction_pool_ = pool;
  if (pool != nullptr) MaybeScheduleCompactionLocked();
}

void Table::MaybeScheduleCompactionLocked() {
  if (compaction_pool_ == nullptr || compaction_scheduled_ ||
      runs_.size() <= options_.max_runs) {
    return;
  }
  compaction_scheduled_ = true;
  std::weak_ptr<Table> weak = weak_from_this();
  try {
    compaction_pool_->Submit([weak] {
      if (std::shared_ptr<Table> table = weak.lock()) {
        table->BackgroundCompact();
      }
    });
  } catch (...) {
    // Pool already shut down; skip the round.
    compaction_scheduled_ = false;
  }
}

void Table::BackgroundCompact() {
  {
    std::lock_guard<std::mutex> lock(compaction_mutex_);
    CompactionRound();
  }
  std::lock_guard<std::mutex> lock(mutex_);
  compaction_scheduled_ = false;
  // Flushes during the round may have pushed the run count back over the
  // limit.
  MaybeScheduleCompactionLocked();
}

void Table::CompactionRound() {
  // Caller holds compaction_mutex_: one round at a time, so the planned
  // window positions stay valid (flushes only append past the end).
  std::vector<std::shared_ptr<const lsm::Run>> runs;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    runs = runs_;
  }
  std::vector<size_t> sizes;
  sizes.reserve(runs.size());
  for (const auto& run : runs) sizes.push_back(run->num_rows());
  lsm::CompactionPolicy policy;
  policy.target_runs = options_.target_runs;
  policy.max_merged_rows = options_.max_compacted_rows;
  const std::vector<lsm::CompactionWindow> windows =
      lsm::PlanCompaction(sizes, policy);
  if (windows.empty()) return;

  // Build the merged runs outside any lock — scans proceed against the
  // old run set (and snapshots pin it) while we copy.
  std::vector<std::shared_ptr<const lsm::Run>> merged;
  merged.reserve(windows.size());
  for (const lsm::CompactionWindow& window : windows) {
    std::vector<Column> columns = lsm::Run::EmptyColumns(schema_);
    // Column by column: each merged dictionary still grows in the row
    // order of the concatenated runs.
    for (size_t c = 0; c < columns.size(); ++c) {
      for (size_t i = window.begin; i < window.end; ++i) {
        const Column& source = runs[i]->column(c);
        for (size_t r = 0; r < source.size(); ++r) {
          columns[c].AppendFrom(source, r);
        }
      }
    }
    merged.push_back(lsm::Run::Freeze(std::move(columns)));
  }

  std::lock_guard<std::mutex> lock(mutex_);
  // Install back-to-front so earlier window positions stay valid while
  // later ones shrink the vector.
  for (size_t w = windows.size(); w-- > 0;) {
    const lsm::CompactionWindow& window = windows[w];
    runs_.erase(runs_.begin() + static_cast<ptrdiff_t>(window.begin),
                runs_.begin() + static_cast<ptrdiff_t>(window.end));
    runs_.insert(runs_.begin() + static_cast<ptrdiff_t>(window.begin),
                 merged[w]);
  }
}

size_t Table::num_runs() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return runs_.size();
}

size_t Table::memtable_rows() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return open_.front().size();
}

}  // namespace muve::db
