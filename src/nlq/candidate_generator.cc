#include "nlq/candidate_generator.h"

#include <algorithm>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/strings.h"
#include "nlq/replacements.h"

namespace muve::nlq {

namespace {

/// One enumerated candidate before it is materialized: the base query
/// with up to two replacements applied (-1 = none), and its weight.
struct Descriptor {
  int a = -1;
  int b = -1;
  double probability = 0.0;
};

/// The shape of a candidate query as the base query plus replacements:
/// its aggregate and its predicates, each a base predicate (whose
/// operator it keeps) optionally rewired by a replacement.
struct Edit {
  db::AggregateFunction function = db::AggregateFunction::kCount;
  int aggregate_column = -1;  ///< Replacement supplying it; -1 = base.
  struct Slot {
    size_t base = 0;
    int replacement = -1;  ///< Supplies column and value; -1 = base.
  };
  std::vector<Slot> predicates;
};

/// Applies replacement `index` to `edit`. Returns false when the
/// replacement conflicts with the query (e.g. duplicate predicate column).
bool Apply(const db::AggregateQuery& base,
           const std::vector<Replacement>& replacements, int index,
           Edit* edit) {
  const Replacement& replacement = replacements[index];
  const auto column_of = [&](const Edit::Slot& slot) -> const std::string& {
    return slot.replacement >= 0 ? replacements[slot.replacement].column
                                 : base.predicates[slot.base].column;
  };
  switch (replacement.site) {
    case Replacement::Site::kAggregateFunction:
      // COUNT keeps the aggregate column (COUNT(col) == COUNT(*) in this
      // fragment) so the candidate shares the "?(col)" function-slot
      // template with its siblings.
      edit->function = replacement.function;
      return true;
    case Replacement::Site::kAggregateColumn:
      edit->aggregate_column = index;
      return true;
    case Replacement::Site::kAggregateBoth:
      edit->function = replacement.function;
      edit->aggregate_column = index;
      return true;
    case Replacement::Site::kDropPredicate: {
      for (size_t i = 0; i < edit->predicates.size(); ++i) {
        if (EqualsIgnoreCase(column_of(edit->predicates[i]),
                             replacement.column)) {
          edit->predicates.erase(edit->predicates.begin() +
                                 static_cast<long>(i));
          return !edit->predicates.empty();
        }
      }
      return false;  // Another replacement already rewired this column.
    }
    case Replacement::Site::kPredicateValue:
    case Replacement::Site::kPredicateColumn: {
      if (replacement.predicate_index >= edit->predicates.size()) {
        return false;
      }
      // The replacement may move the predicate onto another column; a
      // query with two predicates on one column is contradictory (both
      // are equalities), so reject those.
      for (size_t i = 0; i < edit->predicates.size(); ++i) {
        if (i == replacement.predicate_index) continue;
        if (EqualsIgnoreCase(column_of(edit->predicates[i]),
                             replacement.column)) {
          return false;
        }
      }
      edit->predicates[replacement.predicate_index].replacement = index;
      return true;
    }
  }
  return false;
}

/// Resets `edit` to the base query and applies the descriptor's
/// replacements in order. Returns false when one of them conflicts.
bool MakeEdit(const db::AggregateQuery& base,
              const std::vector<Replacement>& replacements,
              const Descriptor& descriptor, Edit* edit) {
  edit->function = base.function;
  edit->aggregate_column = -1;
  edit->predicates.resize(base.predicates.size());
  for (size_t i = 0; i < base.predicates.size(); ++i) {
    edit->predicates[i] = {i, -1};
  }
  return (descriptor.a < 0 ||
          Apply(base, replacements, descriptor.a, edit)) &&
         (descriptor.b < 0 || Apply(base, replacements, descriptor.b, edit));
}

/// Builds the candidate query `edit` describes: the base query with the
/// edit's aggregate and predicates.
db::AggregateQuery Materialize(const db::AggregateQuery& base,
                               const std::vector<Replacement>& replacements,
                               const Edit& edit) {
  db::AggregateQuery query = base;
  query.function = edit.function;
  if (edit.aggregate_column >= 0) {
    query.aggregate_column = replacements[edit.aggregate_column].column;
  }
  std::vector<db::Predicate> predicates;
  predicates.reserve(edit.predicates.size());
  for (const Edit::Slot& slot : edit.predicates) {
    predicates.push_back(base.predicates[slot.base]);
    if (slot.replacement >= 0) {
      const Replacement& replacement = replacements[slot.replacement];
      predicates.back().column = replacement.column;
      predicates.back().values = {db::Value(replacement.value)};
    }
  }
  query.predicates = std::move(predicates);
  return query;
}

/// Writes candidates' AggregateQuery::CanonicalKey bytes without
/// building the queries: lowered names and value texts are computed once
/// per base predicate and replacement, not once per candidate. The
/// output must match CanonicalKey byte for byte.
class CanonicalKeyWriter {
 public:
  CanonicalKeyWriter(const db::AggregateQuery& base,
                     const std::vector<Replacement>& replacements)
      : replacements_(replacements) {
    prefix_ = ToLower(base.table);
    prefix_.push_back('|');
    base_column_ = ToLower(base.aggregate_column);
    for (const db::Predicate& predicate : base.predicates) {
      std::vector<std::string> values;
      for (const db::Value& value : predicate.values) {
        values.push_back(value.ToString());
      }
      std::sort(values.begin(), values.end());
      const char* op = predicate.op == db::PredicateOp::kEq ? "=" : " in ";
      base_operators_.push_back(op);
      base_predicates_.push_back(ToLower(predicate.column) + op +
                                 Join(values, ","));
    }
    for (const Replacement& replacement : replacements) {
      lower_columns_.push_back(ToLower(replacement.column));
    }
  }

  /// Appends the canonical key of `edit` to `out`.
  void Append(const Edit& edit, std::string* out) {
    out->append(prefix_);
    out->append(db::AggregateFunctionName(edit.function));
    out->push_back('|');
    // COUNT(col) and COUNT(*) are equivalent in this fragment.
    if (edit.function != db::AggregateFunction::kCount) {
      out->append(edit.aggregate_column < 0
                      ? base_column_
                      : lower_columns_[edit.aggregate_column]);
    }
    out->push_back('|');
    // Predicate texts sort as strings, for order independence.
    scratch_.clear();
    ends_.clear();
    for (const Edit::Slot& slot : edit.predicates) {
      if (slot.replacement < 0) {
        scratch_.append(base_predicates_[slot.base]);
      } else {
        scratch_.append(lower_columns_[slot.replacement]);
        scratch_.append(base_operators_[slot.base]);
        scratch_.append(replacements_[slot.replacement].value);
      }
      ends_.push_back(scratch_.size());
    }
    parts_.clear();
    for (size_t p = 0; p < ends_.size(); ++p) {
      const size_t begin = p == 0 ? 0 : ends_[p - 1];
      parts_.push_back(
          std::string_view(scratch_).substr(begin, ends_[p] - begin));
    }
    std::sort(parts_.begin(), parts_.end());
    for (size_t p = 0; p < parts_.size(); ++p) {
      if (p > 0) out->push_back('&');
      out->append(parts_[p]);
    }
  }

 private:
  const std::vector<Replacement>& replacements_;
  std::string prefix_;        ///< "table|".
  std::string base_column_;   ///< Lowered base aggregate column.
  std::vector<std::string> base_predicates_;  ///< Canonical parts.
  std::vector<const char*> base_operators_;
  std::vector<std::string> lower_columns_;  ///< Per replacement.
  std::string scratch_;
  std::vector<size_t> ends_;
  std::vector<std::string_view> parts_;
};

}  // namespace

core::CandidateSet CandidateGenerator::Generate(
    const db::AggregateQuery& base, double base_confidence,
    const CandidateGeneratorOptions& options) const {
  return Generate(base, base_confidence, options, GenerationConstraints{});
}

core::CandidateSet CandidateGenerator::Generate(
    const db::AggregateQuery& base, double base_confidence,
    const CandidateGeneratorOptions& options,
    const GenerationConstraints& constraints, bool* capped) const {
  // Deadline polling between enumeration sites: once out of budget, the
  // remaining sites (and pair enumeration) are skipped and the set is
  // flagged capped. With the default infinite deadline `out_of_time`
  // never trips and the expansion below is exactly the unconstrained
  // one.
  bool expansion_capped = false;
  const bool finite_deadline = constraints.deadline.IsFinite();
  auto out_of_time = [&]() {
    if (!finite_deadline) return false;
    if (!expansion_capped && constraints.deadline.Expired()) {
      expansion_capped = true;
    }
    return expansion_capped;
  };

  const ReplacementSet replacement_set =
      EnumerateReplacements(*index_, base, options, out_of_time);
  const std::vector<Replacement>& replacements = replacement_set.replacements;

  // Enumerate weighted candidates as descriptors: the base, all single
  // replacements, and (optionally) pairs of replacements at distinct
  // sites. Each one's canonical key goes into one buffer.
  std::vector<Descriptor> descriptors;
  CanonicalKeyWriter key_writer(base, replacements);
  std::string keys;
  std::vector<size_t> key_end;
  Edit edit;
  const auto add = [&](const Descriptor& descriptor) {
    if (!MakeEdit(base, replacements, descriptor, &edit)) return;
    descriptors.push_back(descriptor);
    key_writer.Append(edit, &keys);
    key_end.push_back(keys.size());
  };
  add({-1, -1, std::max(base_confidence, 1e-9)});
  for (size_t r = 0; r < replacements.size(); ++r) {
    add({static_cast<int>(r), -1, base_confidence * replacements[r].weight});
  }

  if (options.include_pairs && !replacements.empty() && !out_of_time()) {
    for (const auto& [a, b] :
         ReplacementPairs(replacement_set, options.pair_fanout)) {
      add({static_cast<int>(a), static_cast<int>(b),
           base_confidence * replacements[a].weight *
               replacements[b].weight});
    }
  }

  // Merge duplicates (equal canonical keys): the first occurrence stays,
  // the others add their mass to it in order. The key buffer is
  // complete, so the views the map holds stay valid.
  std::unordered_map<std::string_view, size_t> index_of_key;
  index_of_key.reserve(descriptors.size());
  std::vector<Descriptor> unique;
  unique.reserve(descriptors.size());
  for (size_t k = 0; k < descriptors.size(); ++k) {
    const size_t begin = k == 0 ? 0 : key_end[k - 1];
    const auto [it, inserted] = index_of_key.try_emplace(
        std::string_view(keys).substr(begin, key_end[k] - begin),
        unique.size());
    if (inserted) {
      unique.push_back(descriptors[k]);
    } else {
      unique[it->second].probability += descriptors[k].probability;
    }
  }

  // Keep the most likely, and build queries for those only.
  std::stable_sort(unique.begin(), unique.end(),
                   [](const Descriptor& a, const Descriptor& b) {
                     return a.probability > b.probability;
                   });
  if (unique.size() > options.max_candidates) {
    unique.resize(options.max_candidates);
  }
  std::vector<core::CandidateQuery> survivors;
  survivors.reserve(unique.size());
  for (const Descriptor& descriptor : unique) {
    MakeEdit(base, replacements, descriptor, &edit);
    survivors.push_back(
        {Materialize(base, replacements, edit), descriptor.probability});
  }
  core::CandidateSet candidates(std::move(survivors));
  candidates.Normalize();
  if (capped != nullptr) *capped = expansion_capped;
  return candidates;
}

}  // namespace muve::nlq
