#include "db/relation.h"

#include "common/strings.h"

namespace muve::db {

void ColumnStats::Add(const std::string& value) {
  if (string_seen_.insert(value).second) string_values_.push_back(value);
}

void ColumnStats::AddAll(const std::vector<std::string>& values) {
  for (const std::string& value : values) Add(value);
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
