#include "db/query.h"

#include <algorithm>

#include "common/strings.h"

namespace muve::db {

const char* AggregateFunctionName(AggregateFunction fn) {
  switch (fn) {
    case AggregateFunction::kCount:
      return "COUNT";
    case AggregateFunction::kSum:
      return "SUM";
    case AggregateFunction::kAvg:
      return "AVG";
    case AggregateFunction::kMin:
      return "MIN";
    case AggregateFunction::kMax:
      return "MAX";
  }
  return "UNKNOWN";
}

const std::vector<AggregateFunction>& AllAggregateFunctions() {
  static const std::vector<AggregateFunction> kAll = {
      AggregateFunction::kCount, AggregateFunction::kSum,
      AggregateFunction::kAvg, AggregateFunction::kMin,
      AggregateFunction::kMax};
  return kAll;
}

namespace {

std::string QuoteIfString(const Value& value) {
  if (!value.is_string()) return value.ToString();
  // Double embedded quotes — the escape the SQL lexer understands — so
  // ToSql output always re-parses to the same value.
  std::string quoted = "'";
  for (char c : value.AsString()) {
    if (c == '\'') quoted += '\'';
    quoted += c;
  }
  quoted += '\'';
  return quoted;
}

}  // namespace

std::string Predicate::ToSql() const {
  if (op == PredicateOp::kEq) {
    return StrCat({column, " = ", QuoteIfString(values.front())});
  }
  std::string out = column + " IN (";
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ", ";
    out += QuoteIfString(values[i]);
  }
  out += ")";
  return out;
}

bool Predicate::operator==(const Predicate& other) const {
  if (!EqualsIgnoreCase(column, other.column) || op != other.op) {
    return false;
  }
  if (values.size() != other.values.size()) return false;
  for (size_t i = 0; i < values.size(); ++i) {
    if (!(values[i] == other.values[i])) return false;
  }
  return true;
}

std::string AggregateQuery::AggregateSql() const {
  std::string target = aggregate_column.empty() ? "*" : aggregate_column;
  return std::string(AggregateFunctionName(function)) + "(" + target + ")";
}

std::string AggregateQuery::ToSql() const {
  std::string sql = StrCat({"SELECT ", AggregateSql(), " FROM ", table});
  if (!predicates.empty()) {
    sql += " WHERE ";
    for (size_t i = 0; i < predicates.size(); ++i) {
      if (i > 0) sql += " AND ";
      sql += predicates[i].ToSql();
    }
  }
  return sql;
}

std::string AggregateQuery::CanonicalKey() const {
  std::vector<std::string> parts;
  parts.reserve(predicates.size());
  for (const Predicate& p : predicates) {
    std::string part =
        ToLower(p.column) + (p.op == PredicateOp::kEq ? "=" : " in ");
    std::vector<std::string> values;
    values.reserve(p.values.size());
    for (const Value& v : p.values) values.push_back(v.ToString());
    std::sort(values.begin(), values.end());
    part += Join(values, ",");
    parts.push_back(std::move(part));
  }
  std::sort(parts.begin(), parts.end());
  // COUNT(col) and COUNT(*) are equivalent in this fragment (columns are
  // never NULL), so the aggregate column does not discriminate COUNTs.
  const std::string agg_column =
      function == AggregateFunction::kCount ? "" : ToLower(aggregate_column);
  return StrCat({ToLower(table), "|", AggregateFunctionName(function), "|",
                 agg_column, "|", Join(parts, "&")});
}

}  // namespace muve::db
