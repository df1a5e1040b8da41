#ifndef MUVE_NLQ_CANDIDATE_GENERATOR_H_
#define MUVE_NLQ_CANDIDATE_GENERATOR_H_

#include <memory>

#include "common/clock.h"
#include "core/candidate.h"
#include "db/query.h"
#include "nlq/schema_index.h"

namespace muve::nlq {

/// Options for "text to multi-SQL" candidate generation (paper §3).
struct CandidateGeneratorOptions {
  /// k most phonetically similar alternatives per query element
  /// (paper: "typically, we set k to 20").
  size_t k_similar = 20;
  /// Cap on the size of the returned candidate set (most likely kept).
  size_t max_candidates = 50;
  /// Exponent sharpening similarity into a replacement probability:
  /// weight = similarity^sharpen. Larger values concentrate mass on the
  /// original interpretation.
  double sharpen = 6.0;
  /// Also generate candidates with two simultaneous replacements (their
  /// probability is the product of the single-replacement probabilities).
  bool include_pairs = true;
  /// Per-site cap on alternatives participating in pair enumeration.
  size_t pair_fanout = 6;
  /// Weight of aggregate alternatives generated for COUNT(*) bases — a
  /// COUNT(*) translation may stem from a misrecognized aggregate
  /// keyword, so SUM/AVG/MIN/MAX over each numeric column are proposed
  /// with this flat weight.
  double count_star_alternative_weight = 0.05;
  /// Minimum weight of aggregate-function alternatives. Aggregate cue
  /// words ("how many", "minimum", ...) are short and easily misheard,
  /// so alternatives keep at least this floor even when the function
  /// names sound nothing alike.
  double aggregate_alternative_floor = 0.05;
  /// Weight of dropping one predicate — noisy recognition can inject a
  /// spurious predicate, so candidates with one predicate removed are
  /// proposed (only for bases with two or more predicates).
  double drop_predicate_weight = 0.08;
};

/// Expands a translated base query into a probability distribution over
/// phonetically similar candidate queries, the "text to multi-SQL" step
/// of paper §3: every schema element and constant of the base query is
/// looked up in the phonetic index; alternatives produce replacement
/// queries whose probability derives from Jaro-Winkler similarity of
/// Double Metaphone codes; multi-replacement probabilities multiply.
///
/// Generation is uncached: a repeated transcript replays its whole front
/// half, candidates included, from MuveEngine's plan memo, and a fresh
/// transcript almost never repeats a base query another one produced.
class CandidateGenerator {
 public:
  explicit CandidateGenerator(std::shared_ptr<const SchemaIndex> index)
      : index_(std::move(index)) {}

  /// Request-scoped constraints on one Generate call.
  struct GenerationConstraints {
    /// Budget for the phonetic expansion, checked between enumeration
    /// sites and before pair enumeration: on expiry the remaining
    /// expansion is skipped and the (still deduplicated, sorted, and
    /// normalized) set is flagged capped. The base query is always
    /// produced — candidate #0 exists on every rung of the serving
    /// degradation ladder. The default infinite deadline is the exact
    /// unconstrained expansion.
    Deadline deadline;
  };

  /// Generates the candidate set (normalized to total probability 1,
  /// sorted by descending probability, duplicates merged). The base query
  /// itself is always candidate #0. `base_confidence` scales how dominant
  /// the base interpretation is relative to alternatives.
  core::CandidateSet Generate(
      const db::AggregateQuery& base, double base_confidence = 1.0,
      const CandidateGeneratorOptions& options = {}) const;

  /// As above with request-scoped constraints. `*capped` (optional) is
  /// set to true when the deadline cut the expansion short.
  core::CandidateSet Generate(const db::AggregateQuery& base,
                              double base_confidence,
                              const CandidateGeneratorOptions& options,
                              const GenerationConstraints& constraints,
                              bool* capped = nullptr) const;

 private:
  std::shared_ptr<const SchemaIndex> index_;
};

}  // namespace muve::nlq

#endif  // MUVE_NLQ_CANDIDATE_GENERATOR_H_
