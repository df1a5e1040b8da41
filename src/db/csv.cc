#include "db/csv.h"

#include <cctype>
#include <fstream>
#include <sstream>
#include <vector>

#include "common/strings.h"
#include "db/snapshot.h"

namespace muve::db {

namespace {

bool NeedsQuoting(const std::string& field) {
  return field.find_first_of(",\"\n\r") != std::string::npos;
}

std::string QuoteField(const std::string& field) {
  if (!NeedsQuoting(field)) return field;
  std::string out = "\"";
  for (char c : field) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

/// Splits one CSV record (handles quoted fields with embedded commas and
/// doubled quotes). Assumes records do not span lines (our writer never
/// emits embedded newlines for the supported types).
std::vector<std::string> SplitRecord(const std::string& line) {
  std::vector<std::string> fields;
  std::string current;
  bool quoted = false;
  for (size_t i = 0; i < line.size(); ++i) {
    const char c = line[i];
    if (quoted) {
      if (c == '"') {
        if (i + 1 < line.size() && line[i + 1] == '"') {
          current += '"';
          ++i;
        } else {
          quoted = false;
        }
      } else {
        current += c;
      }
    } else if (c == '"') {
      quoted = true;
    } else if (c == ',') {
      fields.push_back(std::move(current));
      current.clear();
    } else if (c == '\r') {
      // Skip CR of CRLF endings.
    } else {
      current += c;
    }
  }
  fields.push_back(std::move(current));
  return fields;
}

bool LooksLikeInt(const std::string& text) {
  if (text.empty()) return false;
  size_t i = (text[0] == '-' || text[0] == '+') ? 1 : 0;
  if (i == text.size()) return false;
  for (; i < text.size(); ++i) {
    if (!std::isdigit(static_cast<unsigned char>(text[i]))) return false;
  }
  return true;
}

bool LooksLikeDouble(const std::string& text) {
  if (text.empty()) return false;
  char* end = nullptr;
  std::strtod(text.c_str(), &end);
  return end == text.c_str() + text.size();
}

/// Doubles keep an explicit decimal point so a round-trip re-infers the
/// column as DOUBLE even when every value happens to be integral.
std::string FormatField(const Value& value, ValueType type) {
  if (type != ValueType::kDouble) return value.ToString();
  std::string text = value.ToString();
  if (text.find('.') == std::string::npos &&
      text.find('e') == std::string::npos &&
      text.find("inf") == std::string::npos &&
      text.find("nan") == std::string::npos) {
    text += ".0";
  }
  return text;
}

}  // namespace

Status WriteCsv(const Table& table, const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    return Status::Internal("cannot open '" + path + "' for writing");
  }
  // One snapshot for the whole file: a writer racing the export cannot
  // tear the row set mid-write.
  const TableSnapshot snapshot = table.Snapshot();
  for (size_t c = 0; c < table.num_columns(); ++c) {
    if (c > 0) out << ',';
    out << QuoteField(table.spec(c).name);
  }
  out << '\n';
  for (size_t r = 0; r < snapshot.num_rows(); ++r) {
    for (size_t c = 0; c < table.num_columns(); ++c) {
      if (c > 0) out << ',';
      out << QuoteField(
          FormatField(snapshot.ValueAt(r, c), table.spec(c).type));
    }
    out << '\n';
  }
  if (!out) return Status::Internal("write error on '" + path + "'");
  return Status::OK();
}

Result<std::shared_ptr<Table>> ReadCsv(const std::string& table_name,
                                       const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return Status::NotFound("cannot open '" + path + "'");
  }
  std::string line;
  if (!std::getline(in, line)) {
    return Status::ParseError("empty CSV file '" + path + "'");
  }
  const std::vector<std::string> header = SplitRecord(line);

  // Buffer rows; infer types from the first data row.
  std::vector<std::vector<std::string>> rows;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::vector<std::string> fields = SplitRecord(line);
    if (fields.size() != header.size()) {
      return Status::ParseError(
          StrCat({"row ", std::to_string(rows.size() + 2), " has ",
                  std::to_string(fields.size()), " fields, expected ",
                  std::to_string(header.size())}));
    }
    rows.push_back(std::move(fields));
  }

  // Infer each column's type over ALL rows: INT64 only if every value
  // is an integer literal, DOUBLE if every value parses as a number,
  // STRING otherwise.
  std::vector<ColumnSpec> schema;
  schema.reserve(header.size());
  for (size_t c = 0; c < header.size(); ++c) {
    bool all_int = !rows.empty();
    bool all_double = !rows.empty();
    for (const auto& row : rows) {
      if (!LooksLikeInt(row[c])) all_int = false;
      if (!LooksLikeDouble(row[c])) all_double = false;
      if (!all_int && !all_double) break;
    }
    ValueType type = ValueType::kString;
    if (all_int) {
      type = ValueType::kInt64;
    } else if (all_double) {
      type = ValueType::kDouble;
    }
    schema.push_back({header[c], type});
  }
  MUVE_ASSIGN_OR_RETURN(std::shared_ptr<Table> table,
                        Table::Create(table_name, schema));

  std::vector<Value> values(schema.size());
  for (size_t r = 0; r < rows.size(); ++r) {
    for (size_t c = 0; c < schema.size(); ++c) {
      const std::string& text = rows[r][c];
      switch (schema[c].type) {
        case ValueType::kInt64:
          if (!LooksLikeInt(text)) {
            return Status::ParseError(StrCat(
                {"row ", std::to_string(r + 2), ", column '", schema[c].name,
                 "': expected integer, got '", text, "'"}));
          }
          values[c] = Value(static_cast<int64_t>(std::stoll(text)));
          break;
        case ValueType::kDouble:
          if (!LooksLikeDouble(text)) {
            return Status::ParseError(StrCat(
                {"row ", std::to_string(r + 2), ", column '", schema[c].name,
                 "': expected number, got '", text, "'"}));
          }
          values[c] = Value(std::stod(text));
          break;
        case ValueType::kString:
          values[c] = Value(text);
          break;
      }
    }
    MUVE_RETURN_NOT_OK(table->AppendRow(values));
  }
  return table;
}

}  // namespace muve::db
