#ifndef MUVE_TESTS_TESTING_FUZZ_MUTATOR_H_
#define MUVE_TESTS_TESTING_FUZZ_MUTATOR_H_

/// Deterministic fuzz-style input generation for the property tests
/// (tests/fuzz_property_test.cc): valid SQL texts assembled from random
/// query pieces, byte-level mutations of arbitrary strings, and random
/// words for the phonetic encoder. Everything derives from an Rng, so
/// every failure reproduces from its seed.

#include <algorithm>
#include <cstdlib>
#include <string>
#include <utility>

#include "common/rng.h"
#include "common/strings.h"
#include "db/query.h"
#include "db/value.h"

namespace muve::testing {

/// Reads a positive iteration count from an environment variable,
/// falling back to `default_iters` — how the slow CTest variants scale
/// the fuzz suites up without a recompile.
inline size_t FuzzIterations(const char* env_var, size_t default_iters) {
  const char* value = std::getenv(env_var);
  if (value == nullptr) return default_iters;
  const long parsed = std::strtol(value, nullptr, 10);
  return parsed > 0 ? static_cast<size_t>(parsed) : default_iters;
}

/// Random identifier: leading letter, then letters/digits/underscores.
inline std::string RandomIdentifier(Rng* rng) {
  static const std::string kLead = "abcdefghijklmnopqrstuvwxyz";
  static const std::string kBody = "abcdefghijklmnopqrstuvwxyz0123456789_";
  std::string out(1, kLead[rng->UniformInt(kLead.size())]);
  const size_t extra = rng->UniformInt(8);
  for (size_t i = 0; i < extra; ++i) {
    out += kBody[rng->UniformInt(kBody.size())];
  }
  return out;
}

/// Random literal of any Value type. Doubles are hundredths of integers
/// so their %g rendering never needs exponent notation (which the SQL
/// lexer does not read back); strings may embed quotes and spaces to
/// exercise the doubled-quote escape.
inline db::Value RandomLiteral(Rng* rng) {
  switch (rng->UniformInt(3)) {
    case 0:
      return db::Value(rng->UniformInRange(-100000, 100000));
    case 1:
      return db::Value(
          static_cast<double>(rng->UniformInRange(-99999, 99999)) / 100.0);
    default: {
      std::string text = RandomIdentifier(rng);
      if (rng->Bernoulli(0.2)) text += StrCat({" ", RandomIdentifier(rng)});
      if (rng->Bernoulli(0.15)) {
        text.insert(rng->UniformInt(text.size() + 1), 1, '\'');
      }
      return db::Value(std::move(text));
    }
  }
}

/// Random well-formed aggregate query (independent of any table — the
/// parser only checks syntax).
inline db::AggregateQuery RandomSqlQuery(Rng* rng) {
  db::AggregateQuery query;
  query.table = RandomIdentifier(rng);
  query.function = rng->Choice(db::AllAggregateFunctions());
  if (query.function != db::AggregateFunction::kCount ||
      rng->Bernoulli(0.5)) {
    query.aggregate_column = RandomIdentifier(rng);
  }
  const size_t num_predicates = rng->UniformInt(4);
  for (size_t p = 0; p < num_predicates; ++p) {
    db::Predicate predicate;
    predicate.column = RandomIdentifier(rng);
    if (rng->Bernoulli(0.3)) {
      predicate.op = db::PredicateOp::kIn;
      const size_t values = 1 + rng->UniformInt(3);
      for (size_t v = 0; v < values; ++v) {
        predicate.values.push_back(RandomLiteral(rng));
      }
    } else {
      predicate.op = db::PredicateOp::kEq;
      predicate.values.push_back(RandomLiteral(rng));
    }
    query.predicates.push_back(std::move(predicate));
  }
  return query;
}

/// Applies `edits` random byte-level edits: deletions, insertions from a
/// pool of SQL-significant characters, swaps, duplicated spans,
/// truncation, and occasional overlong digit runs (which overflow naive
/// numeric conversion).
inline std::string MutateBytes(Rng* rng, std::string text, size_t edits) {
  static const std::string kPool =
      " '()=,*.+-0123456789abcXYZ_\t\n\"%;<>";
  for (size_t e = 0; e < edits; ++e) {
    if (text.empty()) {
      text += kPool[rng->UniformInt(kPool.size())];
      continue;
    }
    switch (rng->UniformInt(6)) {
      case 0:  // Delete one byte.
        text.erase(rng->UniformInt(text.size()), 1);
        break;
      case 1:  // Insert one byte.
        text.insert(rng->UniformInt(text.size() + 1), 1,
                    kPool[rng->UniformInt(kPool.size())]);
        break;
      case 2: {  // Swap two bytes.
        const size_t a = rng->UniformInt(text.size());
        const size_t b = rng->UniformInt(text.size());
        std::swap(text[a], text[b]);
        break;
      }
      case 3: {  // Duplicate a short span.
        const size_t start = rng->UniformInt(text.size());
        const size_t len =
            std::min<size_t>(1 + rng->UniformInt(6), text.size() - start);
        text.insert(rng->UniformInt(text.size() + 1),
                    text.substr(start, len));
        break;
      }
      case 4:  // Truncate the tail.
        text.erase(text.size() - 1 - rng->UniformInt(text.size()) / 2);
        break;
      default:  // Overlong digit run, optionally signed.
        text.insert(rng->UniformInt(text.size() + 1),
                    (rng->Bernoulli(0.5) ? "-" : "") +
                        std::string(25 + rng->UniformInt(15), '9'));
        break;
    }
  }
  return text;
}

/// Random word for the phonetic encoder: mostly letters with occasional
/// digits, punctuation, and non-ASCII bytes (the encoder must ignore
/// them, not crash).
inline std::string RandomWord(Rng* rng) {
  static const std::string kAlpha = "abcdefghijklmnopqrstuvwxyz"
                                    "ABCDEFGHIJKLMNOPQRSTUVWXYZ";
  const size_t len = 1 + rng->UniformInt(14);
  std::string word;
  word.reserve(len);
  for (size_t i = 0; i < len; ++i) {
    if (rng->Bernoulli(0.08)) {
      word += static_cast<char>(1 + rng->UniformInt(254));
    } else {
      word += kAlpha[rng->UniformInt(kAlpha.size())];
    }
  }
  return word;
}

}  // namespace muve::testing

#endif  // MUVE_TESTS_TESTING_FUZZ_MUTATOR_H_
