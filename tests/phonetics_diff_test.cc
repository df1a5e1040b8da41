/// Differential lockdown of the indexed phonetic top-k engine.
///
/// The pruned, blocked, optionally parallel `PhoneticIndex::TopK` must be
/// *bit-identical* — entries, scores, and tie-break order — to the linear
/// scan it replaced, which survives as `testing::ExhaustiveTopK`
/// (tests/testing/phonetic_oracle.h), the oracle (the same lockdown pattern the batch executor has in
/// tests/testing/reference_executor.h). Seeded random
/// vocabularies mix plain ASCII words, accented (multi-byte UTF-8)
/// strings, empty and 1-character entries, and near-duplicate spellings;
/// every lookup is checked at k in {1, 3, 20, > vocabulary}, with
/// include_exact on and off, serially and on pools of 1, 2, and 8
/// threads (forced through the parallel sweep via a tiny
/// parallel_min_entries).
///
/// The pruning is provably lossless only if each upper bound in
/// bounds.h is admissible — never below the true Jaro-Winkler score of
/// the pair it bounds — so the bounds get their own randomized property
/// suite, including the adversarial repeated-symbol cases a
/// presence-bitmask bound would get wrong.
///
/// MUVE_DIFF_SEEDS overrides the seed count (the `slow` CTest variant
/// raises it; every seed is self-contained so any count reproduces).

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/strings.h"
#include "common/thread_pool.h"
#include "phonetics/bounds.h"
#include "phonetics/phonetic_index.h"
#include "phonetics/similarity.h"
#include "testing/phonetic_oracle.h"
#include "testing/sanitizer.h"

namespace muve::phonetics {
namespace {

int SeedCount() {
  const char* value = std::getenv("MUVE_DIFF_SEEDS");
  if (value == nullptr) return 210;
  const int parsed = std::atoi(value);
  return parsed > 0 ? parsed : 210;
}

/// Words the random vocabularies draw syllables from: phonetically dense
/// (many near-collisions under Double Metaphone) to stress tie-breaking.
constexpr const char* kSyllables[] = {
    "bro", "brook", "lyn", "line", "kings", "queens", "quincy", "smith",
    "smyth", "noise", "heat", "heed", "park", "bark", "man", "mann",
    "hat", "tan", "ten", "ton", "phil", "fill", "carl", "karl",
};

/// Accented / multi-byte fragments: the index must treat them as opaque
/// bytes without ever diverging from the oracle.
constexpr const char* kAccents[] = {
    "caf\xc3\xa9", "r\xc3\xa9sum\xc3\xa9", "\xc3\xbc" "ber",
    "Z\xc3\xbcrich", "s\xc3\xa3o",
};

std::string RandomEntry(Rng& rng) {
  const uint64_t shape = rng.UniformInt(20);
  if (shape == 0) return "";  // Empty entry: encodes to empty codes.
  if (shape == 1) {           // 1-character entry.
    return std::string(1, static_cast<char>('a' + rng.UniformInt(26)));
  }
  if (shape <= 3) {  // Accented entry.
    return kAccents[rng.UniformInt(std::size(kAccents))];
  }
  std::string out;
  const size_t syllables = 1 + rng.UniformInt(3);
  for (size_t s = 0; s < syllables; ++s) {
    if (s > 0 && rng.UniformInt(3) == 0) out += ' ';
    out += kSyllables[rng.UniformInt(std::size(kSyllables))];
  }
  if (rng.UniformInt(4) == 0) out[0] = static_cast<char>(
      std::toupper(static_cast<unsigned char>(out[0])));
  return out;
}

std::vector<std::string> RandomVocabulary(Rng& rng, size_t size) {
  std::vector<std::string> vocabulary;
  vocabulary.reserve(size);
  for (size_t i = 0; i < size; ++i) vocabulary.push_back(RandomEntry(rng));
  return vocabulary;
}

void ExpectBitIdentical(const std::vector<PhoneticMatch>& oracle,
                        const std::vector<PhoneticMatch>& indexed,
                        const std::string& context) {
  ASSERT_EQ(oracle.size(), indexed.size()) << context;
  for (size_t i = 0; i < oracle.size(); ++i) {
    EXPECT_EQ(oracle[i].entry, indexed[i].entry)
        << context << " rank " << i;
    // Bitwise: the indexed path must compute the very same doubles.
    EXPECT_EQ(oracle[i].similarity, indexed[i].similarity)
        << context << " rank " << i << " entry " << oracle[i].entry;
  }
}

TEST(PhoneticDifferentialTest, IndexedMatchesBruteForceAtEveryThreadCount) {
  // Pools are shared across seeds (thread churn is expensive under TSan).
  std::unique_ptr<ThreadPool> pools[] = {
      std::make_unique<ThreadPool>(1),
      std::make_unique<ThreadPool>(2),
      std::make_unique<ThreadPool>(8),
  };
  const int seeds = SeedCount();
  // Sanitizer builds run the same seed count with smaller vocabularies.
  const size_t max_vocabulary = muve::testing::kSanitizerBuild ? 160 : 400;

  for (int seed = 0; seed < seeds; ++seed) {
    Rng rng(0x9E0001 + static_cast<uint64_t>(seed));
    const size_t vocab_size = 20 + rng.UniformInt(max_vocabulary - 20);
    const std::vector<std::string> vocabulary =
        RandomVocabulary(rng, vocab_size);

    PhoneticIndexOptions serial_options;  // Pruned, inline sweep.
    PhoneticIndex serial(serial_options);
    for (const std::string& entry : vocabulary) serial.Add(entry);
    const testing::ExhaustiveTopK oracle(vocabulary);
    ASSERT_EQ(oracle.size(), serial.size());

    std::vector<PhoneticIndex> parallel;
    for (const auto& pool : pools) {
      PhoneticIndexOptions options;
      options.pool = pool.get();
      options.parallel_min_entries = 1;  // Force the pool path.
      parallel.emplace_back(options);
      for (const std::string& entry : vocabulary) parallel.back().Add(entry);
    }

    // Queries: indexed entries (exact hits), fresh random strings
    // (misses), and the empty string.
    std::vector<std::string> queries;
    for (int q = 0; q < 3; ++q) {
      queries.push_back(vocabulary[rng.UniformInt(vocabulary.size())]);
      queries.push_back(RandomEntry(rng));
    }
    queries.push_back("");

    const size_t ks[] = {1, 3, 20, serial.size() + 7};
    for (const std::string& query : queries) {
      for (size_t k : ks) {
        for (bool include_exact : {true, false}) {
          const std::string context =
              StrCat({"seed ", std::to_string(seed), " query '", query,
                      "' k ", std::to_string(k),
                      include_exact ? " incl" : " excl"});
          const std::vector<PhoneticMatch> expected =
              oracle.TopK(query, k, include_exact);
          PhoneticLookupStats stats;
          ExpectBitIdentical(
              expected, serial.TopK(query, k, include_exact, &stats),
              context + " serial");
          EXPECT_EQ(stats.vocabulary, serial.size()) << context;
          EXPECT_LE(stats.scored, stats.vocabulary) << context;
          EXPECT_LE(stats.seeded, stats.scored) << context;
          EXPECT_LE(stats.scored + stats.pruned_length + stats.pruned_mask,
                    stats.vocabulary)
              << context;
          for (size_t p = 0; p < parallel.size(); ++p) {
            ExpectBitIdentical(
                expected, parallel[p].TopK(query, k, include_exact),
                StrCat({context, " pool ", std::to_string(p)}));
          }
        }
      }
    }
  }
}

TEST(PhoneticDifferentialTest, LookupStatsAreThreadCountInvariant) {
  // The sweep shares no state between chunks, so even the pruning
  // counters are deterministic and identical for every pool size.
  ThreadPool pool(8);
  Rng rng(0xFEED);
  const std::vector<std::string> vocabulary = RandomVocabulary(rng, 300);

  PhoneticIndexOptions serial_options;
  PhoneticIndex serial(serial_options);
  for (const std::string& entry : vocabulary) serial.Add(entry);

  PhoneticIndexOptions parallel_options;
  parallel_options.pool = &pool;
  parallel_options.parallel_min_entries = 1;
  PhoneticIndex threaded(parallel_options);
  for (const std::string& entry : vocabulary) threaded.Add(entry);

  for (const char* query : {"brooklyn", "smith", "kwinzy", ""}) {
    PhoneticLookupStats serial_stats;
    PhoneticLookupStats threaded_stats;
    serial.TopK(query, 5, /*include_exact=*/true, &serial_stats);
    threaded.TopK(query, 5, /*include_exact=*/true, &threaded_stats);
    EXPECT_EQ(serial_stats.seeded, threaded_stats.seeded) << query;
    EXPECT_EQ(serial_stats.pruned_length, threaded_stats.pruned_length)
        << query;
    EXPECT_EQ(serial_stats.pruned_mask, threaded_stats.pruned_mask)
        << query;
    EXPECT_EQ(serial_stats.scored, threaded_stats.scored) << query;
  }
}

// ---------------------------------------------------------------------
// Bound admissibility: no bound may ever fall below the true score of a
// pair it claims to bound (within the documented rounding slack, far
// smaller than the pruning slack the index applies).

constexpr double kAdmissibilityTolerance = 1e-12;

std::string RandomCodeLike(Rng& rng) {
  // Double Metaphone emits A-Z and '0'; empty codes happen for
  // non-alphabetic input.
  static constexpr char kAlphabet[] = "AKNPRSTX0LMFJH";
  const size_t length = rng.UniformInt(6);  // 0..5 (codes cap at 4).
  std::string out;
  for (size_t i = 0; i < length; ++i) {
    out += kAlphabet[rng.UniformInt(sizeof(kAlphabet) - 1)];
  }
  return out;
}

TEST(PhoneticBoundsTest, CodeBoundsAreAdmissible) {
  Rng rng(0xB0091);
  const int iterations = SeedCount() * 40;
  for (int i = 0; i < iterations; ++i) {
    const std::string a = RandomCodeLike(rng);
    const std::string b = RandomCodeLike(rng);
    const double truth = JaroWinklerSimilarity(a, b);
    const double mask_bound =
        CodePairUpperBound(a, CodeSymbolMask(a), b, CodeSymbolMask(b));
    const double length_bound = CodePairLengthUpperBound(a, b);
    EXPECT_GE(mask_bound, truth - kAdmissibilityTolerance)
        << "'" << a << "' vs '" << b << "'";
    EXPECT_GE(length_bound, truth - kAdmissibilityTolerance)
        << "'" << a << "' vs '" << b << "'";
    // The mask bound refines the length bound; both stay in [0, 1].
    EXPECT_LE(mask_bound, length_bound + kAdmissibilityTolerance);
    EXPECT_GE(mask_bound, 0.0);
    EXPECT_LE(mask_bound, 1.0);
  }
}

TEST(PhoneticBoundsTest, RepeatedSymbolsStayAdmissible) {
  // A presence-only bitmask bound would cap the match count of "LL" vs
  // "LL" at 1 (one distinct symbol) and underestimate the true score —
  // the multiset-aware bound must not.
  const struct {
    const char* a;
    const char* b;
  } kCases[] = {
      {"LL", "LL"},       {"LLLL", "LLL"},  {"AAAA", "AAAA"},
      {"ABAB", "BABA"},   {"SS", "SSSS"},   {"KKK", "K"},
      {"0000", "0000"},   {"TNTN", "NTNT"},
  };
  for (const auto& test_case : kCases) {
    const std::string a = test_case.a;
    const std::string b = test_case.b;
    const double truth = JaroWinklerSimilarity(a, b);
    EXPECT_GE(CodePairUpperBound(a, CodeSymbolMask(a), b, CodeSymbolMask(b)),
              truth - kAdmissibilityTolerance)
        << "'" << a << "' vs '" << b << "'";
    EXPECT_GE(SpellingUpperBound(a, ByteMask(a), b, ByteMask(b)),
              truth - kAdmissibilityTolerance)
        << "'" << a << "' vs '" << b << "'";
  }
}

TEST(PhoneticBoundsTest, SpellingBoundsAreAdmissible) {
  Rng rng(0x5BE11);
  const int iterations = SeedCount() * 40;
  for (int i = 0; i < iterations; ++i) {
    const std::string a = RandomEntry(rng);
    const std::string b = RandomEntry(rng);
    const double truth = JaroWinklerSimilarity(a, b);
    EXPECT_GE(SpellingUpperBound(a, ByteMask(a), b, ByteMask(b)),
              truth - kAdmissibilityTolerance)
        << "'" << a << "' vs '" << b << "'";
    EXPECT_GE(SpellingLengthUpperBound(a.size(), b.size()),
              truth - kAdmissibilityTolerance)
        << "'" << a << "' vs '" << b << "'";
  }
}

TEST(PhoneticBoundsTest, EmptyAndDisjointCornerCases) {
  // Both empty -> exactly 1 (matches JaroSimilarity's convention).
  EXPECT_EQ(CodePairUpperBound("", 0, "", 0), 1.0);
  EXPECT_EQ(SpellingUpperBound("", 0, "", 0), 1.0);
  EXPECT_EQ(SpellingLengthUpperBound(0, 0), 1.0);
  // One empty -> exactly 0.
  EXPECT_EQ(CodePairUpperBound("SM0", CodeSymbolMask("SM0"), "", 0), 0.0);
  EXPECT_EQ(SpellingLengthUpperBound(4, 0), 0.0);
  // Disjoint symbol sets -> 0, matching JaroWinklerSimilarity exactly
  // (zero matches also means zero common prefix).
  EXPECT_EQ(
      CodePairUpperBound("AK", CodeSymbolMask("AK"), "SM", CodeSymbolMask("SM")),
      0.0);
  EXPECT_EQ(JaroWinklerSimilarity("AK", "SM"), 0.0);
}

TEST(PhoneticBoundsTest, JaroUpperBoundDominatesJaro) {
  Rng rng(0x1A90);
  const int iterations = SeedCount() * 20;
  for (int i = 0; i < iterations; ++i) {
    const std::string a = RandomEntry(rng);
    const std::string b = RandomEntry(rng);
    // With the trivial match bound min(|a|, |b|) the Jaro bound must
    // dominate the true Jaro similarity.
    EXPECT_GE(JaroUpperBound(a.size(), b.size(),
                             std::min(a.size(), b.size())),
              JaroSimilarity(a, b) - kAdmissibilityTolerance)
        << "'" << a << "' vs '" << b << "'";
  }
}

TEST(PhoneticDifferentialTest, LargeVocabularyActuallyPrunes) {
  // Not a correctness requirement — bit-identity is — but the index is
  // pointless if the bounds never fire: on a few thousand entries a
  // top-20 lookup must skip full scoring for most of the vocabulary.
  Rng rng(0xCAFE);
  PhoneticIndex index{PhoneticIndexOptions{}};
  const size_t vocab = muve::testing::kSanitizerBuild ? 1000 : 4000;
  for (size_t i = 0; i < vocab; ++i) {
    index.Add(StrCat({RandomEntry(rng), "_", std::to_string(i)}));
  }
  PhoneticLookupStats stats;
  index.TopK("brooklyn", 20, /*include_exact=*/true, &stats);
  // More than half of the vocabulary is never fully scored.
  EXPECT_LT(2 * stats.scored, stats.vocabulary)
      << "scored " << stats.scored << " of " << stats.vocabulary;
}

}  // namespace
}  // namespace muve::phonetics
