#ifndef MUVE_TESTS_TESTING_PHONETIC_ORACLE_H_
#define MUVE_TESTS_TESTING_PHONETIC_ORACLE_H_

/// Exhaustive phonetic top-k: the linear scan the pruned, blocked,
/// optionally parallel `phonetics::PhoneticIndex::TopK` replaced, kept as
/// its oracle. It scores every vocabulary entry with the index's one
/// scoring function (`phonetics::BlendedScore`) and fully sorts, so the
/// index must match it bit for bit: entries, scores and tie-break order.

#include <algorithm>
#include <cstddef>
#include <string>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "common/strings.h"
#include "phonetics/double_metaphone.h"
#include "phonetics/phonetic_index.h"

namespace muve::testing {

class ExhaustiveTopK {
 public:
  /// Encodes each entry once. Like PhoneticIndex::Add, a later entry
  /// equal to an earlier one up to case is dropped.
  explicit ExhaustiveTopK(const std::vector<std::string>& vocabulary) {
    const phonetics::DoubleMetaphone encoder;
    std::unordered_set<std::string> seen;
    for (const std::string& text : vocabulary) {
      std::string lower = ToLower(text);
      if (!seen.insert(lower).second) continue;
      entries_.push_back({text, std::move(lower), encoder.Encode(text)});
    }
  }

  size_t size() const { return entries_.size(); }

  /// Same contract as PhoneticIndex::TopK: up to `k` entries by
  /// descending similarity, ties broken lexicographically; with
  /// `include_exact` false an entry equal to `query` up to case is left
  /// out.
  std::vector<phonetics::PhoneticMatch> TopK(std::string_view query, size_t k,
                                             bool include_exact = true) const {
    if (k == 0) return {};
    const std::string query_lower = ToLower(query);
    const phonetics::MetaphoneCode query_code =
        phonetics::DoubleMetaphone().Encode(query);
    std::vector<phonetics::PhoneticMatch> matches;
    matches.reserve(entries_.size());
    for (const Entry& entry : entries_) {
      if (!include_exact && entry.lower == query_lower) continue;
      matches.push_back({entry.text,
                         phonetics::BlendedScore(query_lower, query_code,
                                                 entry.code, entry.lower)});
    }
    std::sort(matches.begin(), matches.end(),
              [](const phonetics::PhoneticMatch& a,
                 const phonetics::PhoneticMatch& b) {
                if (a.similarity != b.similarity) {
                  return a.similarity > b.similarity;
                }
                return a.entry < b.entry;
              });
    if (matches.size() > k) matches.resize(k);
    return matches;
  }

 private:
  struct Entry {
    std::string text;
    std::string lower;
    phonetics::MetaphoneCode code;
  };

  std::vector<Entry> entries_;
};

}  // namespace muve::testing

#endif  // MUVE_TESTS_TESTING_PHONETIC_ORACLE_H_
