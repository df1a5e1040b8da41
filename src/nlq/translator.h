#ifndef MUVE_NLQ_TRANSLATOR_H_
#define MUVE_NLQ_TRANSLATOR_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/clock.h"
#include "common/status.h"
#include "db/query.h"
#include "nlq/schema_index.h"

namespace muve::nlq {

/// A translated query plus the translator's confidence in it.
struct Translation {
  db::AggregateQuery query;
  double confidence = 0.0;
};

/// Rule-based natural-language -> SQL translator, standing in for the
/// SQLova sequence-to-sequence model the paper uses (§3) to obtain the
/// *most likely* query. Downstream components only consume the resulting
/// query + confidence, so a deterministic translator exercises the same
/// pipeline while keeping tests reproducible.
///
/// Supported shapes (case-insensitive, punctuation ignored):
///   "how many complaints in brooklyn"            -> COUNT(*) + predicate
///   "average open hours for noise in queens"     -> AVG(open_hours) + 2
///   "total arr delay where carrier is delta"     -> SUM(arr_delay) + 1
///
/// Aggregates are detected from keyword cues, the aggregation column and
/// predicate constants from fuzzy phonetic matches against the schema
/// index (so slightly misrecognized words still link).
class Translator {
 public:
  explicit Translator(std::shared_ptr<const SchemaIndex> index)
      : index_(std::move(index)) {}

  /// Translates an utterance. Fails when no predicate or aggregate target
  /// can be linked to the schema at all.
  Result<Translation> Translate(std::string_view text) const;

  /// As Translate(), recording whether `deadline` expired while (or
  /// before) translating. Translation always runs to completion even on
  /// an expired deadline: every rung of the serving degradation ladder —
  /// including the bottom base-query-only answer — needs the base query,
  /// so this stage is the pipeline's irreducible floor. The overrun flag
  /// lets the caller degrade every later stage immediately.
  Result<Translation> Translate(std::string_view text,
                                const Deadline& deadline,
                                bool* deadline_overrun) const;

 private:
  std::shared_ptr<const SchemaIndex> index_;
};

/// The translator's view of an utterance: lowercase tokens of
/// alphanumerics and underscores, apostrophes dropped ("what's" ->
/// "whats"), every other character a separator. Utterances with equal
/// token streams translate identically.
std::vector<std::string> TokenizeUtterance(std::string_view text);

/// Renders a query as a natural-language utterance ("average open hours
/// where complaint type is noise and borough is brooklyn") — the inverse
/// of Translate, used to drive end-to-end pipeline simulations from
/// generated ground-truth queries.
std::string VerbalizeQuery(const db::AggregateQuery& query);

}  // namespace muve::nlq

#endif  // MUVE_NLQ_TRANSLATOR_H_
