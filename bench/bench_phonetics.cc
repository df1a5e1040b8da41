// Phonetic top-k benchmark: builds the candidate index over synthetic
// pronounceable vocabularies of 1k / 10k / 100k distinct values, checks
// the indexed path returns bit-identical top-k to the brute-force scan
// (testing::ExhaustiveTopK, tests/testing/phonetic_oracle.h) on the bench
// workload, and emits BENCH_phonetics.json with the index build time,
// brute vs indexed lookups/sec (k = 20), the resulting speedup, and the
// fraction of the vocabulary the pruning bounds discarded without
// scoring.
//
// Sanitizer builds shrink the vocabulary ladder (instrumentation slows
// string scoring ~10x); the Release run carries the acceptance numbers:
// >= 5x indexed-over-brute lookup throughput at 100k vocabulary and a
// sub-second 100k build. Both thresholds warn to stderr rather than
// fail — the JSON carries the signal and CI machines are noisy.
//
// Flags:
//   --muve_phonetics_json=PATH  where to write the JSON report

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "phonetics/phonetic_index.h"
#include "tests/testing/phonetic_oracle.h"
#include "tests/testing/sanitizer.h"

namespace muve {
namespace {

using testing::kSanitizerBuild;

using Clock = std::chrono::steady_clock;

double MillisSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

int Fail(const std::string& phase, const std::string& message) {
  std::fprintf(stderr, "bench_phonetics: %s: %s\n", phase.c_str(),
               message.c_str());
  return 1;
}

/// A random pronounceable word: 2-4 consonant-vowel syllables with an
/// occasional coda. Distinctness is the caller's problem; diversity of
/// Double Metaphone codes is the point — real-world value vocabularies
/// (street names, complaint types) spread across many code buckets, and
/// that spread is what the blocking index exploits.
std::string RandomWord(Rng* rng) {
  static constexpr char kConsonants[] = "bcdfghjklmnprstvwz";
  static constexpr char kVowels[] = "aeiou";
  const size_t syllables = 2 + rng->UniformInt(3);
  std::string word;
  for (size_t s = 0; s < syllables; ++s) {
    word.push_back(kConsonants[rng->UniformInt(sizeof(kConsonants) - 1)]);
    word.push_back(kVowels[rng->UniformInt(sizeof(kVowels) - 1)]);
    if (rng->UniformInt(4) == 0) {
      word.push_back(kConsonants[rng->UniformInt(sizeof(kConsonants) - 1)]);
    }
  }
  return word;
}

std::vector<std::string> MakeVocabulary(size_t size, Rng* rng) {
  std::vector<std::string> words;
  std::unordered_set<std::string> seen;
  words.reserve(size);
  while (words.size() < size) {
    std::string word = RandomWord(rng);
    // Collisions get a suffix syllable instead of a retry loop: at 100k
    // the short-word space is dense enough that retries would stall.
    while (!seen.insert(word).second) {
      word += RandomWord(rng);
    }
    words.push_back(std::move(word));
  }
  return words;
}

/// Query mix: half exact vocabulary hits, half single-edit corruptions
/// (the ASR-misrecognition regime the index serves in production).
std::vector<std::string> MakeQueries(const std::vector<std::string>& vocab,
                                     size_t count, Rng* rng) {
  std::vector<std::string> queries;
  queries.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    std::string q = vocab[rng->UniformInt(vocab.size())];
    if (i % 2 == 1 && !q.empty()) {
      const size_t pos = rng->UniformInt(q.size());
      q[pos] = static_cast<char>('a' + rng->UniformInt(26));
    }
    queries.push_back(std::move(q));
  }
  return queries;
}

struct SizeResult {
  size_t vocabulary = 0;
  double build_ms = 0.0;
  double brute_lookups_per_sec = 0.0;
  double indexed_lookups_per_sec = 0.0;
  double speedup = 0.0;
  double pruned_fraction = 0.0;
  double scored_fraction = 0.0;
  size_t num_queries = 0;
};

int RunBench(const std::string& json_path) {
  constexpr size_t kTopK = 20;
  const std::vector<size_t> sizes =
      kSanitizerBuild ? std::vector<size_t>{1000, 10000, 20000}
                      : std::vector<size_t>{1000, 10000, 100000};
  const size_t num_queries = kSanitizerBuild ? 12 : 40;
  const size_t repeats = kSanitizerBuild ? 1 : 3;
  // The brute scan is the slow side by design; timing it on an i.i.d.
  // subset of the mix keeps the smoke run short without biasing the
  // per-lookup rate.
  const size_t num_brute_queries = kSanitizerBuild ? 6 : 12;

  ThreadPool pool(4);
  Rng rng(1234);
  std::vector<SizeResult> results;

  for (size_t size : sizes) {
    const std::vector<std::string> vocab = MakeVocabulary(size, &rng);
    const std::vector<std::string> queries =
        MakeQueries(vocab, num_queries, &rng);

    phonetics::PhoneticIndexOptions indexed_options;
    indexed_options.pool = &pool;
    const Clock::time_point build_start = Clock::now();
    phonetics::PhoneticIndex indexed(indexed_options);
    for (const std::string& entry : vocab) indexed.Add(entry);
    const double build_ms = MillisSince(build_start);
    const testing::ExhaustiveTopK brute(vocab);

    // Correctness gate before timing: the indexed path must return
    // bit-identical top-k to the scan on this workload (the exhaustive
    // check lives in tests/phonetics_diff_test.cc; this is a canary on
    // the bench's own vocabulary).
    const size_t verify_count = std::min(num_brute_queries, queries.size());
    for (size_t qi = 0; qi < verify_count; ++qi) {
      const std::string& query = queries[qi];
      const auto expected = brute.TopK(query, kTopK);
      const auto actual = indexed.TopK(query, kTopK);
      if (actual.size() != expected.size()) {
        return Fail("verify", "top-k size mismatch for '" + query + "'");
      }
      for (size_t i = 0; i < expected.size(); ++i) {
        if (actual[i].entry != expected[i].entry ||
            actual[i].similarity != expected[i].similarity) {
          return Fail("verify", "top-k mismatch for '" + query + "'");
        }
      }
    }

    // Timed phase: the same query set through both paths, best-of-N
    // repeats to shrug off scheduler noise.
    double brute_ms = 1e300;
    double indexed_ms = 1e300;
    double pruned = 0.0;
    double scored = 0.0;
    const size_t brute_count = std::min(num_brute_queries, queries.size());
    for (size_t r = 0; r < repeats; ++r) {
      Clock::time_point start = Clock::now();
      for (size_t qi = 0; qi < brute_count; ++qi) {
        brute.TopK(queries[qi], kTopK);
      }
      brute_ms = std::min(brute_ms, MillisSince(start));

      double run_pruned = 0.0;
      double run_scored = 0.0;
      start = Clock::now();
      for (const std::string& query : queries) {
        phonetics::PhoneticLookupStats stats;
        indexed.TopK(query, kTopK, /*include_exact=*/true, &stats);
        // Pruned: the share of the vocabulary never fully scored.
        if (stats.vocabulary > 0) {
          const double vocabulary = static_cast<double>(stats.vocabulary);
          run_pruned +=
              static_cast<double>(stats.vocabulary - stats.scored) / vocabulary;
          run_scored += static_cast<double>(stats.scored) / vocabulary;
        }
      }
      indexed_ms = std::min(indexed_ms, MillisSince(start));
      pruned = run_pruned / static_cast<double>(queries.size());
      scored = run_scored / static_cast<double>(queries.size());
    }

    SizeResult result;
    result.vocabulary = size;
    result.build_ms = build_ms;
    result.num_queries = queries.size();
    const double n = static_cast<double>(queries.size());
    result.brute_lookups_per_sec =
        brute_ms > 0.0 ? static_cast<double>(brute_count) * 1000.0 / brute_ms
                       : 0.0;
    result.indexed_lookups_per_sec =
        indexed_ms > 0.0 ? n * 1000.0 / indexed_ms : 0.0;
    result.speedup = result.brute_lookups_per_sec > 0.0
                         ? result.indexed_lookups_per_sec /
                               result.brute_lookups_per_sec
                         : 0.0;
    result.pruned_fraction = pruned;
    result.scored_fraction = scored;
    results.push_back(result);
  }

  const SizeResult& largest = results.back();

  std::ostringstream out;
  out << "{\n";
  out << "  \"benchmark\": \"phonetics_smoke\",\n";
  out << "  \"sanitizer_build\": " << (kSanitizerBuild ? "true" : "false")
      << ",\n";
  out << "  \"top_k\": " << kTopK << ",\n";
  out << "  \"largest_vocabulary\": " << largest.vocabulary << ",\n";
  out << "  \"build_ms_at_largest\": " << largest.build_ms << ",\n";
  out << "  \"speedup_at_largest\": " << largest.speedup << ",\n";
  out << "  \"pruned_fraction_at_largest\": " << largest.pruned_fraction
      << ",\n";
  out << "  \"sizes\": [\n";
  for (size_t i = 0; i < results.size(); ++i) {
    const SizeResult& r = results[i];
    out << "    {\"vocabulary\": " << r.vocabulary
        << ", \"build_ms\": " << r.build_ms
        << ", \"brute_lookups_per_sec\": " << r.brute_lookups_per_sec
        << ", \"indexed_lookups_per_sec\": " << r.indexed_lookups_per_sec
        << ", \"speedup\": " << r.speedup
        << ", \"pruned_fraction\": " << r.pruned_fraction
        << ", \"scored_fraction\": " << r.scored_fraction
        << ", \"num_queries\": " << r.num_queries << "}"
        << (i + 1 < results.size() ? "," : "") << "\n";
  }
  out << "  ]\n";
  out << "}\n";

  if (!json_path.empty()) {
    std::ofstream file(json_path);
    if (!file) return Fail("report", "cannot write " + json_path);
    file << out.str();
  }
  std::fputs(out.str().c_str(), stdout);

  if (!kSanitizerBuild) {
    // Acceptance thresholds; warn-don't-fail (the JSON carries the
    // numbers, and a loaded CI machine should not flake the suite).
    if (largest.speedup < 5.0) {
      std::fprintf(stderr,
                   "bench_phonetics: WARNING: indexed speedup %.2fx at "
                   "%zu vocab is below the 5x target\n",
                   largest.speedup, largest.vocabulary);
    }
    if (largest.build_ms > 1000.0) {
      std::fprintf(stderr,
                   "bench_phonetics: WARNING: %zu-entry build took "
                   "%.1f ms (> 1s target)\n",
                   largest.vocabulary, largest.build_ms);
    }
  }
  return 0;
}

}  // namespace
}  // namespace muve

int main(int argc, char** argv) {
  std::string json_path = "BENCH_phonetics.json";
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--muve_phonetics_json=", 22) == 0) {
      json_path = arg + 22;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg);
      return 2;
    }
  }
  return muve::RunBench(json_path);
}
