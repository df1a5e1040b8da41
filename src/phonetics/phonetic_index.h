#ifndef MUVE_PHONETICS_PHONETIC_INDEX_H_
#define MUVE_PHONETICS_PHONETIC_INDEX_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/thread_pool.h"
#include "phonetics/double_metaphone.h"
#include "phonetics/similarity.h"

namespace muve::phonetics {

/// An entry returned by a phonetic lookup.
struct PhoneticMatch {
  std::string entry;        ///< The indexed vocabulary entry.
  double similarity = 0.0;  ///< Phonetic similarity in [0, 1].
};

/// Knobs for PhoneticIndex. Defaults give the pruned serial path.
struct PhoneticIndexOptions {
  /// Pool for parallel candidate scoring; null scores on the caller. The
  /// sweep partitioning depends only on the vocabulary size and a fixed
  /// grain, never the pool size, so results are identical for any pool.
  ThreadPool* pool = nullptr;

  /// Minimum vocabulary size before TopK fans out to the pool; below it
  /// the chunked sweep runs inline (identical partitioning, same result).
  size_t parallel_min_entries = 4096;
};

/// Counters from one TopK lookup.
struct PhoneticLookupStats {
  size_t vocabulary = 0;     ///< Entries in the index at lookup time.
  size_t seeded = 0;         ///< Candidates scored by the blocking seed.
  size_t pruned_length = 0;  ///< Swept entries cut by the length-band bound.
  size_t pruned_mask = 0;    ///< Swept entries cut by the symbol-mask bound.
  size_t scored = 0;         ///< Full blended scores computed (incl. seeds).
};

/// The one scoring function of a phonetic lookup: 0.9 x the similarity of
/// the Double Metaphone codes plus 0.1 x the Jaro-Winkler similarity of
/// the lowered spellings, which breaks phonetic ties (a lookup of
/// "brooklyn" prefers "brooklyn" over "brookline"). Every lookup path and
/// the exhaustive oracle in tests/ score through this one definition, so
/// they round identically. Inline so the lookup's hot loops keep it
/// inlined.
inline double BlendedScore(std::string_view query_lower,
                           const MetaphoneCode& query_code,
                           const MetaphoneCode& entry_code,
                           std::string_view entry_lower) {
  return 0.9 * CodeSimilarity(query_code, entry_code) +
         0.1 * JaroWinklerSimilarity(query_lower, entry_lower);
}

/// Vocabulary index answering "k most phonetically similar entries"
/// queries, standing in for the Apache Lucene phonetic functionality the
/// paper uses (§3, typically k = 20).
///
/// Entries are encoded with Double Metaphone at insertion time and bucketed
/// by code (exact-code blocking) and by (first code symbol, code length)
/// bands. A lookup scores the blocking buckets first to establish a kth
/// score threshold, then sweeps the rest of the vocabulary behind two
/// admissible Jaro-Winkler upper bounds (length-band, then symbol-mask; see
/// bounds.h) that discard entries provably below the threshold without
/// computing the full comparison. The sweep runs chunk-parallel on the
/// shared ThreadPool for large vocabularies. Serial and parallel at any
/// thread count return results bit-identical (entries, scores, and
/// tie-break order) to a linear scan that scores every entry and sorts
/// (the exhaustive oracle in tests/testing/phonetic_oracle.h).
class PhoneticIndex {
 public:
  PhoneticIndex() = default;
  explicit PhoneticIndex(const PhoneticIndexOptions& options)
      : options_(options) {}

  /// Adds one vocabulary entry. Duplicate entries (case insensitive) are
  /// ignored; the check is a hash lookup, so building is O(n) overall.
  void Add(std::string_view entry);

  /// Number of distinct entries in the index.
  size_t size() const { return entries_.size(); }

  /// Returns up to `k` entries most phonetically similar to `query`,
  /// sorted by descending similarity (ties broken lexicographically).
  /// When `include_exact` is false, an entry equal to `query` (case
  /// insensitive) is excluded — MUVE uses this to propose *alternatives*.
  /// When `stats` is non-null it receives the lookup's pruning counters.
  std::vector<PhoneticMatch> TopK(std::string_view query, size_t k,
                                  bool include_exact = true,
                                  PhoneticLookupStats* stats = nullptr) const;

 private:
  struct IndexedEntry {
    std::string text;
    std::string lower;
    MetaphoneCode code;
    uint32_t primary_mask = 0;    ///< CodeSymbolMask(code.primary).
    uint32_t secondary_mask = 0;  ///< CodeSymbolMask(code.secondary).
    uint64_t lower_mask = 0;      ///< ByteMask(lower).
    bool has_secondary = false;   ///< code.secondary != code.primary.
  };

  /// (score, entry id) during selection; texts materialize only at the end.
  struct Candidate {
    double score = 0.0;
    uint32_t id = 0;
  };

  std::vector<PhoneticMatch> TopKIndexed(const std::string& query_lower,
                                         const MetaphoneCode& query_code,
                                         size_t k, bool include_exact,
                                         PhoneticLookupStats* stats) const;

  PhoneticIndexOptions options_;
  std::vector<IndexedEntry> entries_;
  /// Lowered entry -> id. Deduplicates Add and resolves the excluded entry
  /// for include_exact=false in O(1).
  std::unordered_map<std::string, uint32_t> by_lower_;
  /// Double Metaphone code -> ids whose primary (or distinct secondary)
  /// code equals it. The highest-value blocking seed.
  std::unordered_map<std::string, std::vector<uint32_t>> code_buckets_;
  /// (first primary-code symbol, primary-code length) -> ids. Seeds near
  /// misses the exact-code buckets don't cover.
  std::unordered_map<uint16_t, std::vector<uint32_t>> band_buckets_;
};

}  // namespace muve::phonetics

#endif  // MUVE_PHONETICS_PHONETIC_INDEX_H_
