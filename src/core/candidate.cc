#include "core/candidate.h"

#include <algorithm>

namespace muve::core {

void CandidateSet::SortByProbability() {
  std::stable_sort(candidates_.begin(), candidates_.end(),
                   [](const CandidateQuery& a, const CandidateQuery& b) {
                     return a.probability > b.probability;
                   });
}

}  // namespace muve::core
