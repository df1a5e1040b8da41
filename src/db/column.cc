#include "db/column.h"

namespace muve::db {

Status CheckValueType(const std::string& column, ValueType type,
                      const Value& value) {
  const bool ok = type == ValueType::kInt64    ? value.is_int64()
                  : type == ValueType::kDouble ? !value.is_string()
                                               : value.is_string();
  if (ok) return Status::OK();
  return Status::InvalidArgument("column '" + column + "' expects " +
                                 ValueTypeName(type));
}

Status Column::Append(const Value& value) {
  MUVE_RETURN_NOT_OK(CheckValueType(name_, type_, value));
  switch (type_) {
    case ValueType::kInt64:
      AppendInt64(value.AsInt64());
      break;
    case ValueType::kDouble:
      AppendDouble(value.AsDouble());
      break;
    case ValueType::kString:
      AppendString(value.AsString());
      break;
  }
  return Status::OK();
}

void Column::AppendString(const std::string& text) {
  auto [it, added] = dictionary_lookup_.try_emplace(
      text, static_cast<uint32_t>(dictionary_.size()));
  if (added) dictionary_.push_back(text);
  codes_.push_back(it->second);
}

void Column::AppendFrom(const Column& source, size_t row) {
  switch (type_) {
    case ValueType::kInt64:
      AppendInt64(source.int_data_[row]);
      break;
    case ValueType::kDouble:
      AppendDouble(source.double_data_[row]);
      break;
    case ValueType::kString:
      AppendString(source.dictionary_[source.codes_[row]]);
      break;
  }
}

Value Column::Get(size_t row) const {
  switch (type_) {
    case ValueType::kInt64:
      return Value(int_data_[row]);
    case ValueType::kDouble:
      return Value(double_data_[row]);
    case ValueType::kString:
      return Value(dictionary_[codes_[row]]);
  }
  return Value();
}

uint32_t Column::CodeFor(const std::string& text) const {
  auto it = dictionary_lookup_.find(text);
  return it == dictionary_lookup_.end() ? kInvalidCode : it->second;
}

std::vector<uint8_t> Column::AcceptMask(
    const std::vector<uint32_t>& accepted) const {
  std::vector<uint8_t> mask(dictionary_.size(), 0);
  for (const uint32_t code : accepted) {
    if (code < mask.size()) mask[code] = 1;
  }
  return mask;
}

}  // namespace muve::db
