#include "db/table.h"

#include <algorithm>
#include <utility>

#include "common/strings.h"
#include "db/snapshot.h"

namespace muve::db {

namespace {

/// Memtable chunks sized well below the flush threshold keep a
/// huge-threshold table (e.g. a Clone oracle) from preallocating its
/// whole capacity up front.
size_t ChunkRowsFor(const TableOptions& options) {
  return std::max<size_t>(1, std::min<size_t>(options.flush_threshold, 4096));
}

}  // namespace

Table::Table(std::string name, std::vector<ColumnSpec> schema,
             TableOptions options)
    : name_(std::move(name)),
      schema_(std::move(schema)),
      options_(options),
      mem_(std::make_shared<lsm::MemTable>(schema_.size(),
                                           ChunkRowsFor(options_))),
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
  // Validate and normalize outside the lock; readers snapshotting
  // mid-append must never observe a partially validated row.
  std::vector<Value> row(values.size());
  for (size_t i = 0; i < values.size(); ++i) {
    const Value& value = values[i];
    switch (schema_[i].type) {
      case ValueType::kInt64:
        if (!value.is_int64()) {
          return Status::InvalidArgument("column '" + schema_[i].name +
                                         "' expects INT64");
        }
        row[i] = value;
        break;
      case ValueType::kDouble:
        if (!value.is_int64() && !value.is_double()) {
          return Status::InvalidArgument("column '" + schema_[i].name +
                                         "' expects DOUBLE");
        }
        row[i] = Value(value.AsDouble());
        break;
      case ValueType::kString:
        if (!value.is_string()) {
          return Status::InvalidArgument("column '" + schema_[i].name +
                                         "' expects STRING");
        }
        row[i] = value;
        break;
    }
  }
  std::lock_guard<std::mutex> lock(mutex_);
  mem_->Append(row);
  for (size_t i = 0; i < row.size(); ++i) {
    ColumnStats& stats = stats_[i];
    switch (schema_[i].type) {
      case ValueType::kInt64:
        stats.int_seen.insert(row[i].AsInt64());
        break;
      case ValueType::kDouble:
        stats.double_seen.insert(row[i].AsDouble());
        break;
      case ValueType::kString:
        if (stats.string_seen.insert(row[i].AsString()).second) {
          stats.string_values.push_back(row[i].AsString());
        }
        break;
    }
  }
  num_rows_.fetch_add(1, std::memory_order_release);
  version_.fetch_add(1, std::memory_order_release);
  if (mem_->size() >= options_.flush_threshold) FlushLocked();
  return Status::OK();
}

TableSnapshot Table::Snapshot() const {
  TableSnapshot snapshot;
  std::lock_guard<std::mutex> lock(mutex_);
  snapshot.table_ = shared_from_this();
  snapshot.version_ = version_.load(std::memory_order_relaxed);
  snapshot.runs_ = runs_;
  snapshot.mem_ = mem_;
  snapshot.mem_view_ = mem_->ViewOf(mem_->size());
  size_t rows = snapshot.mem_view_.rows;
  for (const auto& run : snapshot.runs_) rows += run->num_rows();
  snapshot.num_rows_ = rows;
  return snapshot;
}

Result<size_t> Table::ColumnIndex(const std::string& name) const {
  for (size_t i = 0; i < schema_.size(); ++i) {
    if (EqualsIgnoreCase(schema_[i].name, name)) return i;
  }
  return Status::NotFound("no column '" + name + "' in table '" + name_ +
                          "'");
}

std::vector<std::string> Table::ColumnNames() const {
  std::vector<std::string> names;
  names.reserve(schema_.size());
  for (const auto& spec : schema_) names.push_back(spec.name);
  return names;
}

std::vector<std::string> Table::ColumnNamesOfType(ValueType type) const {
  std::vector<std::string> names;
  for (const auto& spec : schema_) {
    if (spec.type == type) names.push_back(spec.name);
  }
  return names;
}

size_t Table::DistinctCount(size_t index) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const ColumnStats& stats = stats_[index];
  switch (schema_[index].type) {
    case ValueType::kInt64:
      return stats.int_seen.size();
    case ValueType::kDouble:
      return stats.double_seen.size();
    case ValueType::kString:
      return stats.string_values.size();
  }
  return 0;
}

std::vector<std::string> Table::StringValues(size_t index) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_[index].string_values;
}

std::vector<std::string> Table::StringValues(const std::string& name) const {
  auto index = ColumnIndex(name);
  if (!index.ok()) return {};
  return StringValues(*index);
}

Value Table::ValueAt(size_t row, size_t col) const {
  return Snapshot().ValueAt(row, col);
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
  std::vector<Value> row(schema_.size());
  for (double position = 0.0;
       position < static_cast<double>(snapshot.num_rows());
       position += stride) {
    const size_t r = static_cast<size_t>(position);
    for (size_t c = 0; c < schema_.size(); ++c) {
      row[c] = snapshot.ValueAt(r, c);
    }
    Status st = out->AppendRow(row);
    (void)st;  // Types match the source schema by construction.
  }
  // The sample is complete: seal it into a columnar run so scans over it
  // run as column batches (and cache per run).
  out->Flush();
  return out;
}

void Table::Flush() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (mem_->size() > 0) FlushLocked();
}

void Table::FlushLocked() {
  std::shared_ptr<lsm::MemTable> full = mem_;
  // Readers snapshotting between these two statements see either the
  // memtable rows or the new run, never both: both assignments happen
  // under mutex_, as does Snapshot().
  runs_.push_back(lsm::Run::Build(
      schema_, full->size(),
      [&full](size_t r, size_t c) { return full->At(r, c); }));
  mem_ = std::make_shared<lsm::MemTable>(schema_.size(),
                                         ChunkRowsFor(options_));
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
    size_t total = 0;
    for (size_t i = window.begin; i < window.end; ++i) {
      total += runs[i]->num_rows();
    }
    merged.push_back(lsm::Run::Build(
        schema_, total, [&runs, &window](size_t r, size_t c) {
          size_t i = window.begin;
          while (r >= runs[i]->num_rows()) {
            r -= runs[i]->num_rows();
            ++i;
          }
          return runs[i]->column(c).Get(r);
        }));
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
  return mem_->size();
}

}  // namespace muve::db
