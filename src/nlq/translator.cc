#include "nlq/translator.h"

#include <algorithm>
#include <cctype>
#include <vector>

#include "common/strings.h"
#include "phonetics/similarity.h"

namespace muve::nlq {

namespace {

constexpr double kColumnMatchThreshold = 0.70;
// Generic (pattern-free) value linking must be confident.
constexpr double kGenericValueThreshold = 0.74;
// Pattern-based ("X is Y") linking can be more permissive.
constexpr double kPatternColumnThreshold = 0.66;
constexpr double kPatternValueThreshold = 0.55;

/// Aggregate keyword cues.
struct AggregateCue {
  const char* word;
  db::AggregateFunction function;
};

constexpr AggregateCue kAggregateCues[] = {
    {"count", db::AggregateFunction::kCount},
    {"many", db::AggregateFunction::kCount},
    {"number", db::AggregateFunction::kCount},
    {"total", db::AggregateFunction::kSum},
    {"sum", db::AggregateFunction::kSum},
    {"average", db::AggregateFunction::kAvg},
    {"avg", db::AggregateFunction::kAvg},
    {"mean", db::AggregateFunction::kAvg},
    {"typical", db::AggregateFunction::kAvg},
    {"max", db::AggregateFunction::kMax},
    {"maximum", db::AggregateFunction::kMax},
    {"highest", db::AggregateFunction::kMax},
    {"largest", db::AggregateFunction::kMax},
    {"longest", db::AggregateFunction::kMax},
    {"min", db::AggregateFunction::kMin},
    {"minimum", db::AggregateFunction::kMin},
    {"lowest", db::AggregateFunction::kMin},
    {"smallest", db::AggregateFunction::kMin},
    {"shortest", db::AggregateFunction::kMin},
};

bool IsStopword(const std::string& token) {
  static const std::vector<std::string> kStopwords = {
      "the",   "a",       "an",      "of",   "in",      "on",     "at",
      "for",   "is",      "are",     "was",  "were",    "what",   "whats",
      "show",  "me",      "how",     "with", "where",   "and",    "from",
      "please", "give",   "tell",    "do",   "does",    "did",    "to",
      "by",    "that",    "it",      "there", "query",  "queries",
      "records", "rows",  "entries", "us"};
  return std::find(kStopwords.begin(), kStopwords.end(), token) !=
         kStopwords.end();
}

std::string WindowText(const std::vector<std::string>& tokens, size_t start,
                       size_t length) {
  std::string out;
  for (size_t i = start; i < start + length; ++i) {
    if (!out.empty()) out += ' ';
    out += tokens[i];
  }
  return out;
}

/// Underscores in schema names read as spaces in speech.
std::string Spoken(const std::string& name) {
  std::string out = ToLower(name);
  std::replace(out.begin(), out.end(), '_', ' ');
  return out;
}

/// Lookup fan-outs the translator asks the schema index for. Centralized
/// so the per-utterance memo below can key lookups on the window alone.
constexpr size_t kColumnFanout = 3;
constexpr size_t kValueFanout = 5;

/// Per-utterance scratch. The translator's loops (aggregation-column
/// windows, pattern-predicate sides, generic windows) revisit the same
/// token windows and schema entries many times; this memo encodes each
/// window once, precomputes each entry's lowered/spoken form and
/// Metaphone code once, and caches every index lookup and blended
/// similarity for the lifetime of one Translate call.
class TranslationScratch {
 public:
  explicit TranslationScratch(const SchemaIndex& index) : index_(index) {}

  const std::vector<ColumnMatch>& TopColumns(const std::string& window,
                                             bool numeric_only) {
    auto& memo = numeric_only ? numeric_columns_ : all_columns_;
    auto [it, inserted] = memo.try_emplace(window);
    if (inserted) {
      it->second = index_.TopColumns(window, kColumnFanout, numeric_only);
    }
    return it->second;
  }

  const std::vector<ValueMatch>& TopValues(const std::string& window) {
    auto [it, inserted] = values_.try_emplace(window);
    if (inserted) it->second = index_.TopValues(window, kValueFanout);
    return it->second;
  }

  const std::vector<ValueMatch>& TopValuesInColumn(
      const std::string& column, const std::string& window) {
    auto [it, inserted] =
        column_values_.try_emplace(PairKey(column, window));
    if (inserted) {
      it->second = index_.TopValuesInColumn(column, window, kColumnFanout);
    }
    return it->second;
  }

  /// Confidence blend: half phonetic, half spelling — robust to both ASR
  /// confusions and near-miss transcriptions, while rejecting words that
  /// merely share a consonant skeleton.
  double Blended(const std::string& window, const std::string& entry) {
    auto [it, inserted] = blended_.try_emplace(PairKey(window, entry), 0.0);
    if (inserted) {
      const WindowForms& w = Window(window);
      const EntryForms& e = Entry(entry);
      it->second =
          0.5 * phonetics::CodeSimilarity(w.code, e.code) +
          0.5 * phonetics::JaroWinklerSimilarity(w.lower, e.spoken);
    }
    return it->second;
  }

 private:
  struct WindowForms {
    std::string lower;
    phonetics::MetaphoneCode code;
  };
  struct EntryForms {
    std::string spoken;
    phonetics::MetaphoneCode code;
  };

  static std::string PairKey(const std::string& a, const std::string& b) {
    std::string key;
    key.reserve(a.size() + 1 + b.size());
    key += a;
    key += '\x1f';  // Unit separator: never appears in tokens or names.
    key += b;
    return key;
  }

  static const phonetics::DoubleMetaphone& Encoder() {
    static const phonetics::DoubleMetaphone kEncoder;
    return kEncoder;
  }

  const WindowForms& Window(const std::string& window) {
    auto [it, inserted] = windows_.try_emplace(window);
    if (inserted) {
      it->second.lower = ToLower(window);
      it->second.code = Encoder().Encode(window);
    }
    return it->second;
  }

  const EntryForms& Entry(const std::string& entry) {
    auto [it, inserted] = entries_.try_emplace(entry);
    if (inserted) {
      it->second.spoken = Spoken(entry);
      it->second.code = Encoder().Encode(it->second.spoken);
    }
    return it->second;
  }

  const SchemaIndex& index_;
  std::unordered_map<std::string, std::vector<ColumnMatch>> all_columns_;
  std::unordered_map<std::string, std::vector<ColumnMatch>>
      numeric_columns_;
  std::unordered_map<std::string, std::vector<ValueMatch>> values_;
  std::unordered_map<std::string, std::vector<ValueMatch>> column_values_;
  std::unordered_map<std::string, double> blended_;
  std::unordered_map<std::string, WindowForms> windows_;
  std::unordered_map<std::string, EntryForms> entries_;
};

}  // namespace

std::vector<std::string> TokenizeUtterance(std::string_view text) {
  std::string cleaned;
  cleaned.reserve(text.size());
  for (char c : text) {
    if (std::isalnum(static_cast<unsigned char>(c)) || c == ' ' ||
        c == '_') {
      cleaned += static_cast<char>(
          std::tolower(static_cast<unsigned char>(c)));
    } else if (c == '\'') {
      // "what's" -> "whats".
    } else {
      cleaned += ' ';
    }
  }
  return SplitWhitespace(cleaned);
}

Result<Translation> Translator::Translate(std::string_view text,
                                          const Deadline& deadline,
                                          bool* deadline_overrun) const {
  // The full translation runs regardless of the deadline (see header);
  // only the overrun is reported so downstream stages can degrade.
  Result<Translation> translation = Translate(text);
  if (deadline_overrun != nullptr) *deadline_overrun = deadline.Expired();
  return translation;
}

Result<Translation> Translator::Translate(std::string_view text) const {
  std::vector<std::string> tokens = TokenizeUtterance(text);
  if (tokens.empty()) {
    return Status::InvalidArgument("empty utterance");
  }

  Translation out;
  out.query.table = index_->table().name();
  out.query.function = db::AggregateFunction::kCount;
  out.confidence = 1.0;

  TranslationScratch scratch(*index_);

  std::vector<char> used(tokens.size(), 0);
  std::vector<std::string> constrained_columns;

  // 1. Aggregate function cue.
  size_t aggregate_pos = tokens.size();
  for (size_t i = 0; i < tokens.size() && aggregate_pos == tokens.size();
       ++i) {
    for (const AggregateCue& cue : kAggregateCues) {
      if (tokens[i] == cue.word) {
        out.query.function = cue.function;
        aggregate_pos = i;
        used[i] = 1;
        break;
      }
    }
  }

  // 2. Aggregation column: the tokens right after the cue, fuzzy-matched
  //    against numeric columns (longest window first). COUNT needs none.
  if (out.query.function != db::AggregateFunction::kCount &&
      aggregate_pos < tokens.size()) {
    double best_similarity = kColumnMatchThreshold;
    size_t best_start = 0;
    size_t best_length = 0;
    std::string best_column;
    for (size_t length = 3; length >= 1; --length) {
      for (size_t start = aggregate_pos + 1;
           start + length <= tokens.size() && start <= aggregate_pos + 3;
           ++start) {
        bool overlap = false;
        for (size_t i = start; i < start + length; ++i) {
          if (used[i]) overlap = true;
        }
        if (overlap) continue;
        const std::string window = WindowText(tokens, start, length);
        for (const ColumnMatch& match :
             scratch.TopColumns(window, /*numeric_only=*/true)) {
          const double blended = scratch.Blended(window, match.column);
          if (blended > best_similarity) {
            best_similarity = blended;
            best_column = match.column;
            best_start = start;
            best_length = length;
          }
        }
      }
      if (length == 1) break;
    }
    if (!best_column.empty()) {
      out.query.aggregate_column = best_column;
      out.confidence *= best_similarity;
      for (size_t i = best_start; i < best_start + best_length; ++i) {
        used[i] = 1;
      }
    } else {
      // No aggregatable column found: degrade to COUNT(*).
      out.query.function = db::AggregateFunction::kCount;
    }
  }

  auto add_predicate = [&](const std::string& column,
                           const std::string& value, double confidence,
                           size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) used[i] = 1;
    constrained_columns.push_back(column);
    out.query.predicates.push_back(
        db::Predicate::Equals(column, db::Value(value)));
    out.confidence *= confidence;
  };

  auto column_constrained = [&](const std::string& column) {
    for (const std::string& existing : constrained_columns) {
      if (EqualsIgnoreCase(existing, column)) return true;
    }
    return false;
  };

  // 3a. Pattern predicates: "<column words> is <value words>".
  for (size_t i = 0; i < tokens.size(); ++i) {
    if (tokens[i] != "is" && tokens[i] != "equals") continue;
    // Left side: a column name ending at i-1.
    double best_column_sim = kPatternColumnThreshold;
    std::string best_column;
    size_t column_begin = 0;
    for (size_t length = 1; length <= 3 && length <= i; ++length) {
      const size_t start = i - length;
      bool blocked = false;
      for (size_t t = start; t < i; ++t) {
        if (used[t]) blocked = true;
      }
      if (blocked) continue;
      const std::string window = WindowText(tokens, start, length);
      for (const ColumnMatch& match :
           scratch.TopColumns(window, /*numeric_only=*/false)) {
        const double blended = scratch.Blended(window, match.column);
        if (blended > best_column_sim) {
          best_column_sim = blended;
          best_column = match.column;
          column_begin = start;
        }
      }
    }
    if (best_column.empty() || column_constrained(best_column)) continue;
    // Right side: a value of that column starting at i+1.
    double best_value_sim = kPatternValueThreshold;
    std::string best_value;
    size_t value_end = 0;
    for (size_t length = 1; length <= 3 && i + length < tokens.size();
         ++length) {
      bool blocked = false;
      for (size_t t = i + 1; t <= i + length; ++t) {
        if (used[t]) blocked = true;
      }
      if (blocked) continue;
      const std::string window = WindowText(tokens, i + 1, length);
      for (const ValueMatch& match :
           scratch.TopValuesInColumn(best_column, window)) {
        const double blended = scratch.Blended(window, match.value);
        if (blended > best_value_sim) {
          best_value_sim = blended;
          best_value = match.value;
          value_end = i + 1 + length;
        }
      }
    }
    if (best_value.empty()) continue;
    used[i] = 1;
    add_predicate(best_column, best_value,
                  best_column_sim * best_value_sim, column_begin,
                  value_end);
  }

  // 3b. Generic predicates: remaining windows fuzzy-linked to values.
  //     A window that resembles a *column name* more than any value is
  //     treated as descriptive ("complaints" ~ complaint_type) and
  //     skipped.
  struct PredicateCandidate {
    size_t start, length;
    std::string column, value;
    double similarity;
  };
  std::vector<PredicateCandidate> found;
  for (size_t length = 3; length >= 1; --length) {
    for (size_t start = 0; start + length <= tokens.size(); ++start) {
      bool blocked = false;
      for (size_t i = start; i < start + length; ++i) {
        if (used[i] || IsStopword(tokens[i])) blocked = true;
      }
      if (blocked) continue;
      const std::string window = WindowText(tokens, start, length);
      double best_value_sim = 0.0;
      std::string best_value;
      std::string best_value_column;
      for (const ValueMatch& match : scratch.TopValues(window)) {
        const double blended = scratch.Blended(window, match.value);
        if (blended > best_value_sim) {
          best_value_sim = blended;
          best_value = match.value;
          best_value_column = match.column;
        }
      }
      if (best_value_sim < kGenericValueThreshold) continue;
      double best_column_sim = 0.0;
      for (const ColumnMatch& match :
           scratch.TopColumns(window, /*numeric_only=*/false)) {
        best_column_sim = std::max(best_column_sim,
                                   scratch.Blended(window, match.column));
      }
      if (best_column_sim > best_value_sim) continue;  // Descriptive.
      found.push_back(
          {start, length, best_value_column, best_value, best_value_sim});
    }
    if (length == 1) break;
  }
  std::stable_sort(found.begin(), found.end(),
                   [](const PredicateCandidate& a,
                      const PredicateCandidate& b) {
                     if (a.length != b.length) return a.length > b.length;
                     return a.similarity > b.similarity;
                   });
  for (const PredicateCandidate& candidate : found) {
    bool overlap = false;
    for (size_t i = candidate.start;
         i < candidate.start + candidate.length; ++i) {
      if (used[i]) overlap = true;
    }
    if (overlap || column_constrained(candidate.column)) continue;
    add_predicate(candidate.column, candidate.value, candidate.similarity,
                  candidate.start, candidate.start + candidate.length);
  }

  if (out.query.predicates.empty() &&
      out.query.aggregate_column.empty() &&
      out.query.function == db::AggregateFunction::kCount) {
    // Nothing linked at all: an utterance with content words but no
    // recognized element is a translation failure.
    bool any_content = false;
    for (size_t i = 0; i < tokens.size(); ++i) {
      if (!used[i] && !IsStopword(tokens[i])) any_content = true;
    }
    if (any_content) {
      return Status::NotFound("could not link utterance to the schema: '" +
                              std::string(text) + "'");
    }
  }
  return out;
}

std::string VerbalizeQuery(const db::AggregateQuery& query) {
  std::string out;
  switch (query.function) {
    case db::AggregateFunction::kCount:
      out = "how many";
      break;
    case db::AggregateFunction::kSum:
      out = "total";
      break;
    case db::AggregateFunction::kAvg:
      out = "average";
      break;
    case db::AggregateFunction::kMin:
      out = "minimum";
      break;
    case db::AggregateFunction::kMax:
      out = "maximum";
      break;
  }
  if (!query.aggregate_column.empty()) {
    out.append(" ").append(Spoken(query.aggregate_column));
  } else {
    out += " records";
  }
  for (size_t i = 0; i < query.predicates.size(); ++i) {
    const db::Predicate& predicate = query.predicates[i];
    out += i == 0 ? " where " : " and ";
    out += Spoken(predicate.column) + " is " +
           ToLower(predicate.values.empty()
                       ? ""
                       : predicate.values.front().ToString());
  }
  return out;
}

}  // namespace muve::nlq
