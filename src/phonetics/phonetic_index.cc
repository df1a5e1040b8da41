#include "phonetics/phonetic_index.h"

#include <algorithm>
#include <queue>

#include "common/strings.h"
#include "phonetics/bounds.h"
#include "phonetics/similarity.h"

namespace muve::phonetics {

namespace {

const DoubleMetaphone& Encoder() {
  static const DoubleMetaphone kEncoder;
  return kEncoder;
}

/// Chunk size of the pruning sweep. Fixed (never derived from the pool
/// size) so the ParallelFor partitioning — and with it every per-chunk
/// heap and the merged result — is identical for every thread count,
/// including the inline null-pool path.
constexpr size_t kSweepGrain = 2048;

/// Cap on blocking-seed candidates scored before the sweep; bounds the
/// seeding cost on adversarial vocabularies (everything in one bucket).
/// Entries a full bucket leaves unseeded are still swept, so the cap
/// affects only how early the threshold tightens, never the result.
constexpr size_t kMaxSeedCandidates = 4096;

uint16_t BandKeyParts(unsigned char first_symbol, size_t code_length) {
  return static_cast<uint16_t>(first_symbol << 4 |
                               std::min<size_t>(code_length, 15));
}

uint16_t BandKey(std::string_view primary) {
  const unsigned char first =
      primary.empty() ? 0 : static_cast<unsigned char>(primary[0]);
  return BandKeyParts(first, primary.size());
}

}  // namespace

void PhoneticIndex::Add(std::string_view entry) {
  std::string lower = ToLower(entry);
  const uint32_t id = static_cast<uint32_t>(entries_.size());
  if (!by_lower_.try_emplace(lower, id).second) return;

  IndexedEntry indexed;
  indexed.text = std::string(entry);
  indexed.lower = std::move(lower);
  indexed.code = Encoder().Encode(entry);
  indexed.primary_mask = CodeSymbolMask(indexed.code.primary);
  indexed.secondary_mask = CodeSymbolMask(indexed.code.secondary);
  indexed.lower_mask = ByteMask(indexed.lower);
  indexed.has_secondary = indexed.code.secondary != indexed.code.primary;

  code_buckets_[indexed.code.primary].push_back(id);
  if (indexed.has_secondary) {
    code_buckets_[indexed.code.secondary].push_back(id);
  }
  band_buckets_[BandKey(indexed.code.primary)].push_back(id);
  entries_.push_back(std::move(indexed));
}

std::vector<PhoneticMatch> PhoneticIndex::TopK(
    std::string_view query, size_t k, bool include_exact,
    PhoneticLookupStats* stats) const {
  if (stats != nullptr) {
    *stats = PhoneticLookupStats{};
    stats->vocabulary = entries_.size();
  }
  if (k == 0 || entries_.empty()) return {};

  const std::string query_lower = ToLower(query);
  const MetaphoneCode query_code = Encoder().Encode(query);

  return TopKIndexed(query_lower, query_code, k, include_exact, stats);
}

std::vector<PhoneticMatch> PhoneticIndex::TopKIndexed(
    const std::string& query_lower, const MetaphoneCode& query_code, size_t k,
    bool include_exact, PhoneticLookupStats* stats) const {
  const size_t n = entries_.size();
  const uint32_t q_pri_mask = CodeSymbolMask(query_code.primary);
  const uint32_t q_sec_mask = CodeSymbolMask(query_code.secondary);
  const uint64_t q_lower_mask = ByteMask(query_lower);
  const bool q_has_secondary = query_code.secondary != query_code.primary;

  // "a ranks strictly before b" — the same total order the exhaustive
  // oracle sorts with (texts are unique, so it is total). Used both as the
  // heap comparator (heap top = worst kept) and for the final merge sort.
  const auto ranks_before = [this](const Candidate& a, const Candidate& b) {
    if (a.score != b.score) return a.score > b.score;
    return entries_[a.id].text < entries_[b.id].text;
  };
  using Heap = std::priority_queue<Candidate, std::vector<Candidate>,
                                   decltype(ranks_before)>;
  const auto push_candidate = [&](Heap& heap, const Candidate& c) {
    if (heap.size() < k) {
      heap.push(c);
    } else if (ranks_before(c, heap.top())) {
      heap.pop();
      heap.push(c);
    }
  };

  // ---- Seed phase: score the blocking buckets to establish a kth-score
  // threshold before the sweep. `seeded` doubles as the sweep skip mask;
  // it is written only here (single-threaded) and read-only in the sweep.
  std::vector<uint8_t> seeded(n, 0);
  if (!include_exact) {
    if (const auto it = by_lower_.find(query_lower); it != by_lower_.end()) {
      // The excluded exact match: marked seeded but never scored, so both
      // the seed phase and the sweep skip it.
      seeded[it->second] = 1;
    }
  }

  Heap seed_heap(ranks_before);
  size_t seeds_scored = 0;
  const auto consider_seed = [&](uint32_t id) {
    if (seeded[id]) return;
    seeded[id] = 1;
    const IndexedEntry& entry = entries_[id];
    ++seeds_scored;
    push_candidate(seed_heap,
                   {BlendedScore(query_lower, query_code, entry.code,
                                 entry.lower),
                    id});
  };
  const auto seed_bucket = [&](const std::vector<uint32_t>* bucket) {
    if (bucket == nullptr) return;
    for (uint32_t id : *bucket) {
      if (seeds_scored >= kMaxSeedCandidates) return;
      consider_seed(id);
    }
  };
  const auto find_code_bucket = [&](const std::string& code) {
    const auto it = code_buckets_.find(code);
    return it == code_buckets_.end() ? nullptr : &it->second;
  };
  const auto find_band_bucket = [&](uint16_t key) {
    const auto it = band_buckets_.find(key);
    return it == band_buckets_.end() ? nullptr : &it->second;
  };

  // Score the exact hit first: it is usually the global best and tightens
  // the threshold immediately.
  if (include_exact) {
    if (const auto it = by_lower_.find(query_lower); it != by_lower_.end()) {
      consider_seed(it->second);
    }
  }
  seed_bucket(find_code_bucket(query_code.primary));
  if (q_has_secondary) seed_bucket(find_code_bucket(query_code.secondary));
  // First-symbol blocking with +-1 length banding around the primary code.
  {
    const unsigned char first =
        query_code.primary.empty()
            ? 0
            : static_cast<unsigned char>(query_code.primary[0]);
    const size_t len = query_code.primary.size();
    seed_bucket(find_band_bucket(BandKeyParts(first, len)));
    if (len > 0) seed_bucket(find_band_bucket(BandKeyParts(first, len - 1)));
    seed_bucket(find_band_bucket(BandKeyParts(first, len + 1)));
  }

  const double seed_threshold =
      seed_heap.size() == k ? seed_heap.top().score : -1.0;

  // ---- Sweep phase: one pass over the flat entry array in fixed-grain
  // chunks. Each chunk keeps its own heap and prunes against
  // max(seed threshold, its local kth score) — both are kth-best scores of
  // subsets of the vocabulary, hence lower bounds on the global kth score,
  // so a pruned entry (upper bound strictly below) can never be in the
  // global top-k. No state is shared between chunks: the survivor set is
  // deterministic and identical for every thread count.
  struct ChunkResult {
    std::vector<Candidate> kept;
    size_t pruned_length = 0;
    size_t pruned_mask = 0;
    size_t scored = 0;
  };
  const size_t num_chunks = n == 0 ? 0 : (n + kSweepGrain - 1) / kSweepGrain;
  std::vector<ChunkResult> chunks(num_chunks);

  ThreadPool* pool =
      n >= options_.parallel_min_entries ? options_.pool : nullptr;
  ParallelFor(pool, n, kSweepGrain, [&](size_t chunk, size_t begin,
                                        size_t end) {
    ChunkResult& out = chunks[chunk];
    Heap heap(ranks_before);
    double threshold = seed_threshold;
    for (size_t i = begin; i < end; ++i) {
      if (seeded[i]) continue;
      const IndexedEntry& entry = entries_[i];
      const double cutoff = threshold - kPruneSlack;

      // Stage 1: length-band bound (lengths + first symbols only).
      double code_ub =
          CodePairLengthUpperBound(query_code.primary, entry.code.primary);
      if (q_has_secondary) {
        code_ub = std::max(code_ub, CodePairLengthUpperBound(
                                        query_code.secondary,
                                        entry.code.primary));
      }
      if (entry.has_secondary) {
        code_ub = std::max(code_ub, CodePairLengthUpperBound(
                                        query_code.primary,
                                        entry.code.secondary));
        if (q_has_secondary) {
          code_ub = std::max(code_ub, CodePairLengthUpperBound(
                                          query_code.secondary,
                                          entry.code.secondary));
        }
      }
      double upper = 0.9 * code_ub +
                     0.1 * SpellingLengthUpperBound(query_lower.size(),
                                                    entry.lower.size());
      if (upper < cutoff) {
        ++out.pruned_length;
        continue;
      }

      // Stage 2: common-symbol mask bound.
      code_ub = CodePairUpperBound(query_code.primary, q_pri_mask,
                                   entry.code.primary, entry.primary_mask);
      if (q_has_secondary) {
        code_ub = std::max(
            code_ub, CodePairUpperBound(query_code.secondary, q_sec_mask,
                                        entry.code.primary,
                                        entry.primary_mask));
      }
      if (entry.has_secondary) {
        code_ub = std::max(
            code_ub, CodePairUpperBound(query_code.primary, q_pri_mask,
                                        entry.code.secondary,
                                        entry.secondary_mask));
        if (q_has_secondary) {
          code_ub = std::max(
              code_ub, CodePairUpperBound(query_code.secondary, q_sec_mask,
                                          entry.code.secondary,
                                          entry.secondary_mask));
        }
      }
      upper = 0.9 * code_ub +
              0.1 * SpellingUpperBound(query_lower, q_lower_mask, entry.lower,
                                       entry.lower_mask);
      if (upper < cutoff) {
        ++out.pruned_mask;
        continue;
      }

      // Survivor: full blended score.
      ++out.scored;
      push_candidate(heap, {BlendedScore(query_lower, query_code, entry.code,
                                         entry.lower),
                            static_cast<uint32_t>(i)});
      if (heap.size() == k && heap.top().score > threshold) {
        threshold = heap.top().score;
      }
    }
    out.kept.reserve(heap.size());
    while (!heap.empty()) {
      out.kept.push_back(heap.top());
      heap.pop();
    }
  });

  // ---- Merge: the seed heap plus every chunk's survivors contain the
  // true top-k; sort with the exhaustive comparator and truncate.
  std::vector<Candidate> merged;
  merged.reserve(seed_heap.size() + k * num_chunks);
  {
    Heap drained = std::move(seed_heap);
    while (!drained.empty()) {
      merged.push_back(drained.top());
      drained.pop();
    }
  }
  size_t swept_scored = 0;
  size_t pruned_length = 0;
  size_t pruned_mask = 0;
  for (ChunkResult& chunk : chunks) {
    merged.insert(merged.end(), chunk.kept.begin(), chunk.kept.end());
    swept_scored += chunk.scored;
    pruned_length += chunk.pruned_length;
    pruned_mask += chunk.pruned_mask;
  }
  std::sort(merged.begin(), merged.end(), ranks_before);
  if (merged.size() > k) merged.resize(k);

  if (stats != nullptr) {
    stats->seeded = seeds_scored;
    stats->pruned_length = pruned_length;
    stats->pruned_mask = pruned_mask;
    stats->scored = seeds_scored + swept_scored;
  }

  std::vector<PhoneticMatch> matches;
  matches.reserve(merged.size());
  for (const Candidate& candidate : merged) {
    matches.push_back({entries_[candidate.id].text, candidate.score});
  }
  return matches;
}

}  // namespace muve::phonetics
