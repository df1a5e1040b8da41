#ifndef MUVE_TESTS_TESTING_SQL_PARSER_H_
#define MUVE_TESTS_TESTING_SQL_PARSER_H_

#include <string_view>

#include "common/status.h"
#include "db/query.h"

namespace muve::db {

/// Parses the SQL fragment MUVE supports (paper §3):
///
///   SELECT <AGG>(<column> | *) FROM <table>
///   [WHERE <column> = <literal> [AND ...]]
///   [WHERE <column> IN (<literal>, ...)]
///
/// where AGG is COUNT, SUM, AVG, MIN or MAX and literals are integers,
/// doubles, or single-quoted strings. Keywords are case insensitive.
/// Test-only: the round-trip oracle for AggregateQuery::ToSql's quoting.
Result<AggregateQuery> ParseSql(std::string_view sql);

}  // namespace muve::db

#endif  // MUVE_TESTS_TESTING_SQL_PARSER_H_
