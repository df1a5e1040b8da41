#include "db/relation.h"

#include "common/strings.h"

namespace muve::db {

std::vector<ColumnStats> ColumnStats::ForSchema(
    const std::vector<ColumnSpec>& schema) {
  std::vector<ColumnStats> stats;
  stats.reserve(schema.size());
  for (const ColumnSpec& spec : schema) stats.emplace_back(spec.type);
  return stats;
}

void ColumnStats::Add(const Value& value) {
  switch (type_) {
    case ValueType::kInt64:
      int_seen_.insert(value.AsInt64());
      break;
    case ValueType::kDouble:
      double_seen_.insert(value.AsDouble());
      break;
    case ValueType::kString:
      if (string_seen_.insert(value.AsString()).second) {
        string_values_.push_back(value.AsString());
      }
      break;
  }
}

size_t ColumnStats::DistinctCount() const {
  switch (type_) {
    case ValueType::kInt64:
      return int_seen_.size();
    case ValueType::kDouble:
      return double_seen_.size();
    case ValueType::kString:
      return string_values_.size();
  }
  return 0;
}

Result<size_t> Relation::ColumnIndex(const std::string& name) const {
  const std::vector<ColumnSpec>& columns = schema();
  for (size_t i = 0; i < columns.size(); ++i) {
    if (EqualsIgnoreCase(columns[i].name, name)) return i;
  }
  return Status::NotFound("no column '" + name + "' in table '" +
                          this->name() + "'");
}

std::vector<std::string> Relation::ColumnNamesOfType(ValueType type) const {
  std::vector<std::string> names;
  for (const ColumnSpec& spec : schema()) {
    if (spec.type == type) names.push_back(spec.name);
  }
  return names;
}

std::vector<std::string> Relation::StringValues(
    const std::string& name) const {
  auto index = ColumnIndex(name);
  if (!index.ok()) return {};
  return StringValues(*index);
}

}  // namespace muve::db
