#include "shard/sharded_table.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <utility>

#include "common/strings.h"

namespace muve::shard {

namespace {

/// FNV-1a 64-bit.
inline uint64_t Fnv1a(const void* data, size_t len,
                      uint64_t hash = 1469598103934665603ull) {
  const unsigned char* bytes = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < len; ++i) {
    hash ^= bytes[i];
    hash *= 1099511628211ull;
  }
  return hash;
}

inline uint64_t HashValue(const db::Value& value, db::ValueType type) {
  switch (type) {
    case db::ValueType::kInt64: {
      const int64_t v = value.is_int64() ? value.AsInt64() : 0;
      return Fnv1a(&v, sizeof(v));
    }
    case db::ValueType::kDouble: {
      // Hash the bit pattern of the schema-normalized double so int64
      // literals appended to a DOUBLE column route like their promoted
      // value.
      const double v =
          value.is_string() ? 0.0 : value.AsDouble();
      uint64_t bits = 0;
      std::memcpy(&bits, &v, sizeof(bits));
      return Fnv1a(&bits, sizeof(bits));
    }
    case db::ValueType::kString: {
      if (!value.is_string()) return Fnv1a(nullptr, 0);
      const std::string& s = value.AsString();
      return Fnv1a(s.data(), s.size());
    }
  }
  return 0;
}

}  // namespace

ShardedTable::ShardedTable(std::string name,
                           std::vector<db::ColumnSpec> schema,
                           ShardedTableOptions options,
                           std::vector<std::shared_ptr<db::Table>> shards)
    : name_(std::move(name)),
      schema_(std::move(schema)),
      options_(std::move(options)),
      shards_(std::move(shards)),
      stats_(schema_.size()) {
  if (!options_.hash_column.empty()) {
    for (size_t i = 0; i < schema_.size(); ++i) {
      if (EqualsIgnoreCase(schema_[i].name, options_.hash_column)) {
        hash_column_index_ = i;
        break;
      }
    }
  }
}

Result<std::shared_ptr<ShardedTable>> ShardedTable::Create(
    std::string name, const std::vector<db::ColumnSpec>& schema,
    ShardedTableOptions options) {
  if (options.num_shards == 0) {
    return Status::InvalidArgument("sharded table '" + name +
                                   "' needs at least one shard");
  }
  if (!options.hash_column.empty()) {
    bool found = false;
    for (const db::ColumnSpec& spec : schema) {
      if (EqualsIgnoreCase(spec.name, options.hash_column)) {
        found = true;
        break;
      }
    }
    if (!found) {
      return Status::InvalidArgument("hash column '" + options.hash_column +
                                     "' not in schema of table '" + name +
                                     "'");
    }
  }
  options.range_stripe_rows = std::max<size_t>(1, options.range_stripe_rows);
  std::vector<std::shared_ptr<db::Table>> shards;
  shards.reserve(options.num_shards);
  for (size_t i = 0; i < options.num_shards; ++i) {
    MUVE_ASSIGN_OR_RETURN(
        std::shared_ptr<db::Table> shard,
        db::Table::Create(StrCat({name, "#", std::to_string(i)}), schema,
                          options.shard_options));
    shards.push_back(std::move(shard));
  }
  return std::shared_ptr<ShardedTable>(new ShardedTable(
      std::move(name), schema, std::move(options), std::move(shards)));
}

Result<std::shared_ptr<ShardedTable>> ShardedTable::FromTable(
    const db::Table& source, ShardedTableOptions options) {
  MUVE_ASSIGN_OR_RETURN(
      std::shared_ptr<ShardedTable> sharded,
      Create(source.name(), source.schema(), std::move(options)));
  const db::TableSnapshot snapshot = source.Snapshot();
  std::vector<db::Value> row(source.num_columns());
  for (size_t r = 0; r < snapshot.num_rows(); ++r) {
    for (size_t c = 0; c < row.size(); ++c) {
      row[c] = snapshot.ValueAt(r, c);
    }
    MUVE_RETURN_NOT_OK(sharded->AppendRow(row));
  }
  sharded->Flush();
  return sharded;
}

size_t ShardedTable::DistinctCount(size_t index) const {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  return stats_[index].DistinctCount();
}

std::vector<std::string> ShardedTable::StringValues(size_t index) const {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  return stats_[index].string_values();
}

size_t ShardedTable::RouteAt(uint64_t seq,
                             const std::vector<db::Value>& values) const {
  if (shards_.size() == 1) return 0;
  switch (options_.partitioning) {
    case Partitioning::kHash: {
      uint64_t hash = 0;
      if (hash_column_index_ != SIZE_MAX &&
          hash_column_index_ < values.size()) {
        hash = HashValue(values[hash_column_index_],
                         schema_[hash_column_index_].type);
      } else {
        hash = Fnv1a(&seq, sizeof(seq));
      }
      return static_cast<size_t>(hash % shards_.size());
    }
    case Partitioning::kRange: {
      const uint64_t stripe = seq / options_.range_stripe_rows;
      return static_cast<size_t>(stripe % shards_.size());
    }
  }
  return 0;
}

size_t ShardedTable::RouteRow(const std::vector<db::Value>& values) const {
  return RouteAt(num_rows_.load(std::memory_order_acquire), values);
}

Status ShardedTable::AppendRow(const std::vector<db::Value>& values) {
  const uint64_t seq = num_rows_.load(std::memory_order_relaxed);
  const size_t target = RouteAt(seq, values);
  MUVE_RETURN_NOT_OK(shards_[target]->AppendRow(values));
  {
    // The shard validated the row.
    std::lock_guard<std::mutex> lock(stats_mutex_);
    for (size_t i = 0; i < values.size(); ++i) {
      if (values[i].is_string()) stats_[i].Add(values[i].AsString());
    }
  }
  num_rows_.fetch_add(1, std::memory_order_release);
  version_.fetch_add(1, std::memory_order_release);
  return Status::OK();
}

db::ShardedSnapshot ShardedTable::SnapshotPartitions() const {
  db::ShardedSnapshot snapshot;
  snapshot.version = version_.load(std::memory_order_acquire);
  snapshot.shards.reserve(shards_.size());
  for (const auto& shard : shards_) {
    snapshot.shards.push_back(shard->Snapshot());
  }
  return snapshot;
}

db::Value ShardedTable::ValueAt(size_t row, size_t col) const {
  for (const auto& shard : shards_) {
    const size_t rows = shard->num_rows();
    if (row < rows) return shard->ValueAt(row, col);
    row -= rows;
  }
  return db::Value();
}

void ShardedTable::RebuildStats() {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  stats_.assign(schema_.size(), db::ColumnStats());
  size_t rows = 0;
  for (const auto& shard : shards_) {
    const db::TableSnapshot snapshot = shard->Snapshot();
    rows += snapshot.num_rows();
    // Run dictionaries are in first-appearance order, so folding them in
    // run order keeps each vocabulary in shard-concatenation order.
    for (const auto& run : snapshot.runs()) {
      for (size_t c = 0; c < schema_.size(); ++c) {
        stats_[c].AddAll(run->column(c).dictionary());
      }
    }
  }
  num_rows_.store(rows, std::memory_order_release);
  version_.store(rows, std::memory_order_release);
}

std::shared_ptr<const db::Relation> ShardedTable::SampleRows(
    double fraction) const {
  std::vector<std::shared_ptr<db::Table>> sampled;
  sampled.reserve(shards_.size());
  for (const auto& shard : shards_) {
    sampled.push_back(shard->Sample(fraction));
  }
  std::shared_ptr<ShardedTable> out(new ShardedTable(
      name_ + "_sample", schema_, options_, std::move(sampled)));
  out->RebuildStats();
  return out;
}

void ShardedTable::Flush() {
  for (const auto& shard : shards_) shard->Flush();
}

void ShardedTable::Compact() {
  for (const auto& shard : shards_) shard->Compact();
}

void ShardedTable::EnableBackgroundCompaction(ThreadPool* pool) {
  for (const auto& shard : shards_) shard->EnableBackgroundCompaction(pool);
}

}  // namespace muve::shard
