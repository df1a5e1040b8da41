#ifndef MUVE_NLQ_REPLACEMENTS_H_
#define MUVE_NLQ_REPLACEMENTS_H_

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "db/query.h"
#include "nlq/candidate_generator.h"
#include "nlq/schema_index.h"

namespace muve::nlq {

/// One single-element replacement applicable to a base query.
struct Replacement {
  enum class Site {
    kAggregateFunction,
    kAggregateColumn,
    kAggregateBoth,    // Function and column at once (COUNT(*) bases).
    kPredicateValue,   // May move the predicate to another column.
    kPredicateColumn,  // Same value, different owning column.
    kDropPredicate,    // Remove a (possibly spurious) predicate.
  };
  Site site = Site::kPredicateValue;
  size_t predicate_index = 0;
  db::AggregateFunction function = db::AggregateFunction::kCount;
  std::string column;
  std::string value;
  double weight = 0.0;
  int site_id = 0;  ///< Replacements at the same site are exclusive.
};

/// The replacements of one base query; their site ids run from 0 to
/// num_sites - 1.
struct ReplacementSet {
  std::vector<Replacement> replacements;
  int num_sites = 0;
};

/// Looks every element of `base` up in the phonetic index and returns
/// its weighted alternatives, site by site: the aggregate function, the
/// COUNT(*) aggregates, the aggregate column, each predicate's value and
/// column, and dropping a predicate. `out_of_time` is polled before each
/// site; once it returns true the remaining sites are skipped.
ReplacementSet EnumerateReplacements(const SchemaIndex& index,
                                     const db::AggregateQuery& base,
                                     const CandidateGeneratorOptions& options,
                                     const std::function<bool()>& out_of_time);

/// The replacement pairs (a, b) that form two-replacement candidates, in
/// enumeration order: two of the pair_fanout strongest
/// alternatives of their sites, at distinct sites.
std::vector<std::pair<size_t, size_t>> ReplacementPairs(
    const ReplacementSet& set, size_t pair_fanout);

}  // namespace muve::nlq

#endif  // MUVE_NLQ_REPLACEMENTS_H_
