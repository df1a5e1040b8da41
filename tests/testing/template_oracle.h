#ifndef MUVE_TESTS_TESTING_TEMPLATE_ORACLE_H_
#define MUVE_TESTS_TESTING_TEMPLATE_ORACLE_H_

/// String-built reference implementations of template grouping
/// (Algorithm 2's first loop) and candidate deduplication. Every template
/// instantiation builds its own key and title strings and groups through
/// a std::map keyed on the key string; dedup keys every candidate on
/// AggregateQuery::CanonicalKey. core::GroupByTemplate and
/// nlq::CandidateGenerator must agree with these byte for byte.

#include <algorithm>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/strings.h"
#include "core/candidate.h"
#include "core/query_template.h"
#include "db/query.h"

namespace muve::testing {

/// One template instantiation: the template plus the concrete label a
/// particular query substitutes for the placeholder.
struct TemplateInstantiation {
  core::QueryTemplate query_template;
  std::string slot_label;  ///< x-axis label for this query's bar.
};

/// A group of candidate queries (indices into a CandidateSet) that
/// instantiate a common template, with per-query x labels.
struct ReferenceTemplateGroup {
  core::QueryTemplate query_template;
  std::vector<size_t> member_queries;      ///< Candidate indices.
  std::vector<std::string> member_labels;  ///< Parallel to member_queries.
};

namespace oracle_internal {

/// Canonical text of one predicate, with an optional placeholder for its
/// value or column.
inline std::string PredicateText(const db::Predicate& predicate,
                                 bool mask_value, bool mask_column) {
  const std::string column = mask_column ? "?" : ToLower(predicate.column);
  std::string value = "?";
  if (!mask_value) {
    value = predicate.values.empty() ? ""
                                     : predicate.values.front().ToString();
  }
  return column + " = " + value;
}

/// Key and title of a template; keys sort predicates for order
/// independence, titles keep the original order for readability.
inline core::QueryTemplate MakeTemplate(
    const db::AggregateQuery& query, const std::string& aggregate_text,
    const std::vector<std::string>& predicate_texts, core::SlotKind slot) {
  core::QueryTemplate out;
  out.slot = slot;
  std::vector<std::string> sorted = predicate_texts;
  std::sort(sorted.begin(), sorted.end());
  out.key = ToLower(query.table) + "|" + aggregate_text + "|" +
            Join(sorted, " & ");
  out.title = aggregate_text;
  if (!predicate_texts.empty()) {
    out.title += StrCat({" WHERE ", Join(predicate_texts, " AND ")});
  }
  return out;
}

}  // namespace oracle_internal

/// All templates instantiated by `query` (the function T(q)): aggregate
/// function slot, aggregate column slot (when a column is aggregated),
/// and per predicate its value slot and column slot.
inline std::vector<TemplateInstantiation> ReferenceDeriveTemplates(
    const db::AggregateQuery& query) {
  using oracle_internal::MakeTemplate;
  using oracle_internal::PredicateText;
  std::vector<TemplateInstantiation> out;
  std::vector<std::string> plain_predicates;
  for (const db::Predicate& predicate : query.predicates) {
    plain_predicates.push_back(PredicateText(predicate, false, false));
  }
  const std::string aggregate_target =
      query.aggregate_column.empty() ? "*" : ToLower(query.aggregate_column);
  {
    TemplateInstantiation inst;
    inst.query_template =
        MakeTemplate(query, "?(" + aggregate_target + ")", plain_predicates,
                     core::SlotKind::kAggregateFunction);
    inst.slot_label = db::AggregateFunctionName(query.function);
    out.push_back(std::move(inst));
  }
  if (!query.aggregate_column.empty()) {
    TemplateInstantiation inst;
    inst.query_template = MakeTemplate(
        query,
        std::string(db::AggregateFunctionName(query.function)) + "(?)",
        plain_predicates, core::SlotKind::kAggregateColumn);
    inst.slot_label = ToLower(query.aggregate_column);
    out.push_back(std::move(inst));
  }
  const std::string full_aggregate =
      std::string(db::AggregateFunctionName(query.function)) + "(" +
      aggregate_target + ")";
  for (size_t i = 0; i < query.predicates.size(); ++i) {
    std::vector<std::string> texts = plain_predicates;
    texts[i] = PredicateText(query.predicates[i], /*mask_value=*/true,
                             /*mask_column=*/false);
    TemplateInstantiation value_inst;
    value_inst.query_template = MakeTemplate(
        query, full_aggregate, texts, core::SlotKind::kPredicateValue);
    value_inst.slot_label =
        query.predicates[i].values.empty()
            ? ""
            : query.predicates[i].values.front().ToString();
    out.push_back(std::move(value_inst));

    texts[i] = PredicateText(query.predicates[i], /*mask_value=*/false,
                             /*mask_column=*/true);
    TemplateInstantiation column_inst;
    column_inst.query_template = MakeTemplate(
        query, full_aggregate, texts, core::SlotKind::kPredicateColumn);
    column_inst.slot_label = ToLower(query.predicates[i].column);
    out.push_back(std::move(column_inst));
  }
  return out;
}

/// Groups candidates by template key. Members within each group are
/// sorted by descending probability; groups by descending total member
/// probability, ties by key.
inline std::vector<ReferenceTemplateGroup> ReferenceGroupByTemplate(
    const core::CandidateSet& candidates) {
  std::map<std::string, ReferenceTemplateGroup> groups;
  for (size_t i = 0; i < candidates.size(); ++i) {
    for (TemplateInstantiation& inst :
         ReferenceDeriveTemplates(candidates[i].query)) {
      ReferenceTemplateGroup& group = groups[inst.query_template.key];
      if (group.member_queries.empty()) {
        group.query_template = inst.query_template;
      }
      // The same query may instantiate a template only once.
      if (std::find(group.member_queries.begin(),
                    group.member_queries.end(),
                    i) != group.member_queries.end()) {
        continue;
      }
      group.member_queries.push_back(i);
      group.member_labels.push_back(std::move(inst.slot_label));
    }
  }
  std::vector<ReferenceTemplateGroup> out;
  for (auto& [key, group] : groups) {
    std::vector<size_t> order(group.member_queries.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      return candidates[group.member_queries[a]].probability >
             candidates[group.member_queries[b]].probability;
    });
    ReferenceTemplateGroup sorted_group;
    sorted_group.query_template = group.query_template;
    for (size_t idx : order) {
      sorted_group.member_queries.push_back(group.member_queries[idx]);
      sorted_group.member_labels.push_back(group.member_labels[idx]);
    }
    out.push_back(std::move(sorted_group));
  }
  std::stable_sort(out.begin(), out.end(),
                   [&](const ReferenceTemplateGroup& a,
                       const ReferenceTemplateGroup& b) {
                     double pa = 0.0;
                     double pb = 0.0;
                     for (size_t i : a.member_queries) {
                       pa += candidates[i].probability;
                     }
                     for (size_t i : b.member_queries) {
                       pb += candidates[i].probability;
                     }
                     return pa > pb;
                   });
  return out;
}

/// Removes duplicate queries (same CanonicalKey), keeping the first
/// occurrence and summing the duplicates' mass into it in order.
inline void ReferenceDeduplicate(core::CandidateSet* set) {
  std::unordered_map<std::string, size_t> index_of_key;
  std::vector<core::CandidateQuery> unique;
  for (const core::CandidateQuery& candidate : set->candidates()) {
    const std::string key = candidate.query.CanonicalKey();
    auto it = index_of_key.find(key);
    if (it == index_of_key.end()) {
      index_of_key.emplace(key, unique.size());
      unique.push_back(candidate);
    } else {
      unique[it->second].probability += candidate.probability;
    }
  }
  *set = core::CandidateSet(std::move(unique));
}

}  // namespace muve::testing

#endif  // MUVE_TESTS_TESTING_TEMPLATE_ORACLE_H_
