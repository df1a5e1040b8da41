#ifndef MUVE_TESTS_TESTING_GENERATOR_ORACLE_H_
#define MUVE_TESTS_TESTING_GENERATOR_ORACLE_H_

/// String-built reference for nlq::CandidateGenerator::Generate without
/// a deadline or cache. It shares the replacement enumeration
/// (nlq::EnumerateReplacements, nlq::ReplacementPairs) with production
/// and is the reference for what follows: every enumerated candidate is
/// built as a full AggregateQuery (the base copied, replacements
/// applied), duplicates merge on AggregateQuery::CanonicalKey, and only
/// then is the set sorted and trimmed. The production generator must
/// produce the same candidate set byte for byte.

#include <algorithm>
#include <vector>

#include "common/strings.h"
#include "core/candidate.h"
#include "db/query.h"
#include "nlq/candidate_generator.h"
#include "nlq/replacements.h"
#include "nlq/schema_index.h"
#include "testing/template_oracle.h"

namespace muve::testing {

namespace generator_oracle_internal {

/// Applies a replacement to a copy of the query. Returns false when the
/// replacement conflicts with the query (e.g. duplicate predicate column).
inline bool Apply(const nlq::Replacement& replacement,
                  db::AggregateQuery* query) {
  switch (replacement.site) {
    case nlq::Replacement::Site::kAggregateFunction:
      // COUNT keeps the aggregate column (COUNT(col) == COUNT(*) in this
      // fragment) so the candidate shares the "?(col)" function-slot
      // template with its siblings.
      query->function = replacement.function;
      return true;
    case nlq::Replacement::Site::kAggregateColumn:
      query->aggregate_column = replacement.column;
      return true;
    case nlq::Replacement::Site::kAggregateBoth:
      query->function = replacement.function;
      query->aggregate_column = replacement.column;
      return true;
    case nlq::Replacement::Site::kDropPredicate: {
      for (size_t i = 0; i < query->predicates.size(); ++i) {
        if (EqualsIgnoreCase(query->predicates[i].column,
                             replacement.column)) {
          query->predicates.erase(query->predicates.begin() +
                                  static_cast<long>(i));
          return !query->predicates.empty();
        }
      }
      return false;  // Another replacement already rewired this column.
    }
    case nlq::Replacement::Site::kPredicateValue:
    case nlq::Replacement::Site::kPredicateColumn: {
      if (replacement.predicate_index >= query->predicates.size()) {
        return false;
      }
      // The replacement may move the predicate onto another column; a
      // query with two predicates on one column is contradictory (both
      // are equalities), so reject those.
      for (size_t i = 0; i < query->predicates.size(); ++i) {
        if (i == replacement.predicate_index) continue;
        if (EqualsIgnoreCase(query->predicates[i].column,
                             replacement.column)) {
          return false;
        }
      }
      db::Predicate& predicate =
          query->predicates[replacement.predicate_index];
      predicate.column = replacement.column;
      predicate.values = {db::Value(replacement.value)};
      return true;
    }
  }
  return false;
}

}  // namespace generator_oracle_internal

inline core::CandidateSet ReferenceGenerate(
    const nlq::SchemaIndex& index, const db::AggregateQuery& base,
    double base_confidence, const nlq::CandidateGeneratorOptions& options) {
  using generator_oracle_internal::Apply;
  const nlq::ReplacementSet replacement_set = nlq::EnumerateReplacements(
      index, base, options, [] { return false; });
  const std::vector<nlq::Replacement>& replacements =
      replacement_set.replacements;

  // Assemble weighted candidates: the base, all single replacements, and
  // (optionally) pairs of replacements at distinct sites.
  core::CandidateSet candidates;
  candidates.Add(base, std::max(base_confidence, 1e-9));

  for (const nlq::Replacement& r : replacements) {
    db::AggregateQuery query = base;
    if (!Apply(r, &query)) continue;
    candidates.Add(std::move(query), base_confidence * r.weight);
  }

  if (options.include_pairs && !replacements.empty()) {
    for (const auto& [a, b] :
         nlq::ReplacementPairs(replacement_set, options.pair_fanout)) {
      db::AggregateQuery query = base;
      if (!Apply(replacements[a], &query) ||
          !Apply(replacements[b], &query)) {
        continue;
      }
      candidates.Add(std::move(query), base_confidence *
                                           replacements[a].weight *
                                           replacements[b].weight);
    }
  }

  ReferenceDeduplicate(&candidates);
  candidates.SortByProbability();
  if (candidates.size() > options.max_candidates) {
    std::vector<core::CandidateQuery> trimmed(
        candidates.candidates().begin(),
        candidates.candidates().begin() +
            static_cast<long>(options.max_candidates));
    candidates = core::CandidateSet(std::move(trimmed));
  }
  candidates.Normalize();
  return candidates;
}

}  // namespace muve::testing

#endif  // MUVE_TESTS_TESTING_GENERATOR_ORACLE_H_
