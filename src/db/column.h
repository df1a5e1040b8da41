#ifndef MUVE_DB_COLUMN_H_
#define MUVE_DB_COLUMN_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "db/value.h"

namespace muve::db {

/// Sentinel dictionary code meaning "value not present in dictionary".
inline constexpr uint32_t kInvalidCode = UINT32_MAX;

/// OK when `value` can be stored in column `column` of type `type`
/// (int64 promotes to double for kDouble); InvalidArgument otherwise.
Status CheckValueType(const std::string& column, ValueType type,
                      const Value& value);

/// A typed, append-only column.
///
/// Numeric columns store raw values; string columns are dictionary
/// encoded: rows hold 32-bit codes into a per-column dictionary, which
/// makes equality/IN predicates single integer comparisons per row and
/// gives the planner the distinct-value vocabulary it feeds into the
/// phonetic index.
class Column {
 public:
  Column(std::string name, ValueType type)
      : name_(std::move(name)), type_(type) {}

  const std::string& name() const { return name_; }
  ValueType type() const { return type_; }

  size_t size() const {
    switch (type_) {
      case ValueType::kInt64:
        return int_data_.size();
      case ValueType::kDouble:
        return double_data_.size();
      case ValueType::kString:
        return codes_.size();
    }
    return 0;
  }

  /// Appends a value; must match the column type (int64 promotes to
  /// double for kDouble columns).
  Status Append(const Value& value);

  // Typed appends for loaders that know the column's type, which must be
  // the named one: no Value boxing and no type check.
  void AppendInt64(int64_t value) { int_data_.push_back(value); }
  void AppendDouble(double value) { double_data_.push_back(value); }
  void AppendString(const std::string& text);

  /// Appends row `row` of `source`, a column of the same type.
  void AppendFrom(const Column& source, size_t row);

  /// Value at `row` (decoded for string columns).
  Value Get(size_t row) const;

  // Typed access used by the executor's scan loops.
  const std::vector<int64_t>& int_data() const { return int_data_; }
  const std::vector<uint32_t>& codes() const { return codes_; }
  const std::vector<std::string>& dictionary() const { return dictionary_; }

  // Raw typed views for the vectorized kernels (src/db/vec/): one base
  // pointer per scan instead of a bounds-checked vector access per row.
  // Appends may reallocate, so only columns of an immutable lsm::Run are
  // scanned; a table's open columns are never read through these.
  const int64_t* int_raw() const { return int_data_.data(); }
  const double* double_raw() const { return double_data_.data(); }
  const uint32_t* codes_raw() const { return codes_.data(); }

  /// Dictionary size of a string column (0 for numeric columns).
  size_t dictionary_size() const { return dictionary_.size(); }

  /// Dictionary code for `text`, or kInvalidCode when absent. Only valid
  /// for string columns.
  uint32_t CodeFor(const std::string& text) const;

  /// Dense accept mask over this column's dictionary for an equality/IN
  /// predicate: mask[code] is 1 iff `code` is in `accepted`. Lets the
  /// vectorized filter kernels answer an arbitrarily long IN list with a
  /// single table load per row. Codes >= dictionary_size() (including
  /// kInvalidCode) are ignored. Only valid for string columns.
  std::vector<uint8_t> AcceptMask(
      const std::vector<uint32_t>& accepted) const;

  /// Numeric view of row `row` (int64 widened to double). Only valid for
  /// numeric columns.
  double NumericAt(size_t row) const {
    return type_ == ValueType::kInt64
               ? static_cast<double>(int_data_[row])
               : double_data_[row];
  }

 private:
  std::string name_;
  ValueType type_;

  std::vector<int64_t> int_data_;
  std::vector<double> double_data_;

  std::vector<uint32_t> codes_;
  std::vector<std::string> dictionary_;
  std::unordered_map<std::string, uint32_t> dictionary_lookup_;
};

}  // namespace muve::db

#endif  // MUVE_DB_COLUMN_H_
