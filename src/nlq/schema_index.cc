#include "nlq/schema_index.h"

#include <algorithm>
#include <mutex>

#include "common/strings.h"

namespace muve::nlq {

SchemaIndex::SchemaIndex(
    std::shared_ptr<const db::Relation> table,
    const phonetics::PhoneticIndexOptions& phonetic_options)
    : table_(std::move(table)),
      phonetic_options_(phonetic_options),
      all_columns_(phonetic_options),
      numeric_columns_(phonetic_options),
      all_values_(phonetic_options) {
  values_seen_.resize(table_->num_columns(), 0);
  // Read the version before harvesting: values appended mid-harvest bump
  // the version past this snapshot, so the next SyncWithTable picks up
  // anything the harvest raced with (absorbing a value twice is a no-op).
  const uint64_t version = table_->version();
  for (size_t c = 0; c < table_->num_columns(); ++c) {
    const db::ColumnSpec& spec = table_->spec(c);
    all_columns_.Add(spec.name);
    if (spec.type != db::ValueType::kString) {
      numeric_columns_.Add(spec.name);
      continue;
    }
    phonetics::PhoneticIndex& per_column =
        values_per_column_.try_emplace(ToLower(spec.name), phonetic_options_)
            .first->second;
    const std::vector<std::string> values = table_->StringValues(c);
    values_seen_[c] = values.size();
    for (const std::string& value : values) {
      AbsorbValue(spec.name, per_column, value);
    }
  }
  synced_version_.store(version, std::memory_order_release);
}

void SchemaIndex::AbsorbValue(const std::string& column_name,
                              phonetics::PhoneticIndex& per_column,
                              const std::string& value) {
  all_values_.Add(value);
  per_column.Add(value);
  std::vector<std::string>& owners = columns_of_value_[ToLower(value)];
  if (std::find(owners.begin(), owners.end(), column_name) == owners.end()) {
    owners.push_back(column_name);
  }
}

void SchemaIndex::SyncWithTable() {
  // Fast path: nothing appended since the last sync.
  if (table_->version() == synced_version_.load(std::memory_order_acquire)) {
    return;
  }
  std::unique_lock<std::shared_mutex> lock(values_mutex_);
  // Re-read under the lock: a concurrent sync may have caught up already.
  const uint64_t target = table_->version();
  if (target == synced_version_.load(std::memory_order_acquire)) {
    return;
  }
  // Table vocabularies are append-only in first-appearance order, so the
  // new values of each column are exactly the suffix past what this index
  // absorbed before. DistinctCount is the cheap per-column probe that
  // skips the vocabulary copy when only numeric (or repeated string)
  // values arrived.
  for (size_t c = 0; c < table_->num_columns(); ++c) {
    const db::ColumnSpec& spec = table_->spec(c);
    if (spec.type != db::ValueType::kString) continue;
    const size_t seen = values_seen_[c];
    if (table_->DistinctCount(c) <= seen) continue;
    const std::vector<std::string> values = table_->StringValues(c);
    if (values.size() <= seen) continue;
    phonetics::PhoneticIndex& per_column =
        values_per_column_.try_emplace(ToLower(spec.name), phonetic_options_)
            .first->second;
    for (size_t i = seen; i < values.size(); ++i) {
      AbsorbValue(spec.name, per_column, values[i]);
    }
    values_absorbed_.fetch_add(values.size() - seen,
                               std::memory_order_release);
    values_seen_[c] = values.size();
  }
  synced_version_.store(target, std::memory_order_release);
}

size_t SchemaIndex::distinct_values() const {
  std::shared_lock<std::shared_mutex> lock(values_mutex_);
  return all_values_.size();
}

std::vector<ColumnMatch> SchemaIndex::TopColumns(const std::string& term,
                                                 size_t k,
                                                 bool numeric_only) const {
  // Column indexes are immutable after construction: no lock needed.
  const phonetics::PhoneticIndex& index =
      numeric_only ? numeric_columns_ : all_columns_;
  std::vector<ColumnMatch> out;
  for (const phonetics::PhoneticMatch& match : index.TopK(term, k)) {
    out.push_back({match.entry, match.similarity});
  }
  return out;
}

std::vector<ValueMatch> SchemaIndex::TopValues(const std::string& term,
                                               size_t k) const {
  std::shared_lock<std::shared_mutex> lock(values_mutex_);
  // The index ranks distinct values; each expands into one match per
  // owning column. Truncating to k matches *after* the expansion would
  // let one value owned by many columns crowd every lower-ranked distinct
  // value out entirely, so the expansion is returned whole: ranked by
  // similarity (ties by value, then first-appearance owner order), k
  // distinct values whenever the vocabulary has them.
  std::vector<ValueMatch> out;
  for (const phonetics::PhoneticMatch& match : all_values_.TopK(term, k)) {
    const auto it = columns_of_value_.find(ToLower(match.entry));
    if (it == columns_of_value_.end()) continue;
    for (const std::string& column : it->second) {
      out.push_back({match.entry, column, match.similarity});
    }
  }
  return out;
}

std::vector<ValueMatch> SchemaIndex::TopValuesInColumn(
    const std::string& column, const std::string& term, size_t k) const {
  std::shared_lock<std::shared_mutex> lock(values_mutex_);
  std::vector<ValueMatch> out;
  auto it = values_per_column_.find(ToLower(column));
  if (it == values_per_column_.end()) return out;
  for (const phonetics::PhoneticMatch& match : it->second.TopK(term, k)) {
    out.push_back({match.entry, column, match.similarity});
  }
  return out;
}

std::vector<std::string> SchemaIndex::ColumnsOfValue(
    const std::string& value) const {
  std::shared_lock<std::shared_mutex> lock(values_mutex_);
  auto it = columns_of_value_.find(ToLower(value));
  if (it == columns_of_value_.end()) return {};
  return it->second;
}

}  // namespace muve::nlq
