#ifndef MUVE_CORE_CANDIDATE_H_
#define MUVE_CORE_CANDIDATE_H_

#include <string>
#include <vector>

#include "db/query.h"

namespace muve::core {

/// A candidate query: one possible interpretation of the voice input,
/// weighted by the system's confidence (paper §2, Definition 1).
struct CandidateQuery {
  db::AggregateQuery query;
  double probability = 0.0;
};

/// The set of candidate interpretations for one voice query. Probabilities
/// are kept normalized to sum to at most 1; any residual mass is the
/// probability that none of the candidates is correct.
class CandidateSet {
 public:
  CandidateSet() = default;
  explicit CandidateSet(std::vector<CandidateQuery> candidates)
      : candidates_(std::move(candidates)) {}

  void Add(db::AggregateQuery query, double probability) {
    candidates_.push_back({std::move(query), probability});
  }

  size_t size() const { return candidates_.size(); }
  bool empty() const { return candidates_.empty(); }
  const CandidateQuery& operator[](size_t i) const { return candidates_[i]; }
  const std::vector<CandidateQuery>& candidates() const {
    return candidates_;
  }

  /// Scales probabilities so they sum to `target_mass` (default 1.0).
  /// No-op for an empty set or all-zero probabilities.
  void Normalize(double target_mass = 1.0) {
    double total = 0.0;
    for (const CandidateQuery& c : candidates_) total += c.probability;
    if (total <= 0.0) return;
    const double factor = target_mass / total;
    for (CandidateQuery& c : candidates_) c.probability *= factor;
  }

  /// Sorts candidates by descending probability (stable).
  void SortByProbability();

  /// Total probability mass of the set.
  double TotalProbability() const {
    double total = 0.0;
    for (const CandidateQuery& c : candidates_) total += c.probability;
    return total;
  }

 private:
  std::vector<CandidateQuery> candidates_;
};

}  // namespace muve::core

#endif  // MUVE_CORE_CANDIDATE_H_
