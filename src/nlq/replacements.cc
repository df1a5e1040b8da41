#include "nlq/replacements.h"

#include <algorithm>
#include <cmath>

#include "common/strings.h"
#include "phonetics/similarity.h"

namespace muve::nlq {

ReplacementSet EnumerateReplacements(
    const SchemaIndex& index, const db::AggregateQuery& base,
    const CandidateGeneratorOptions& options,
    const std::function<bool()>& out_of_time) {
  ReplacementSet out;

  // Site: aggregate function (only meaningful when a column is
  // aggregated; COUNT(*) has no alternative target).
  if (!out_of_time() && !base.aggregate_column.empty()) {
    const int site = out.num_sites++;
    const std::string base_name =
        ToLower(db::AggregateFunctionName(base.function));
    for (db::AggregateFunction fn : db::AllAggregateFunctions()) {
      if (fn == base.function) continue;
      const std::string name = ToLower(db::AggregateFunctionName(fn));
      Replacement r;
      r.site = Replacement::Site::kAggregateFunction;
      r.function = fn;
      r.weight = std::max(
          options.aggregate_alternative_floor,
          std::pow(phonetics::PhoneticSimilarity(base_name, name),
                   options.sharpen));
      r.site_id = site;
      out.replacements.push_back(std::move(r));
    }
  }

  // Site: COUNT(*) bases may stem from a misrecognized aggregate
  // keyword — propose every (function, numeric column) combination.
  if (!out_of_time() && base.aggregate_column.empty() &&
      base.function == db::AggregateFunction::kCount &&
      options.count_star_alternative_weight > 0.0) {
    const int site = out.num_sites++;
    for (const std::string& column :
         index.table().ColumnNamesOfType(db::ValueType::kInt64)) {
      for (db::AggregateFunction fn : db::AllAggregateFunctions()) {
        if (fn == db::AggregateFunction::kCount) continue;
        Replacement r;
        r.site = Replacement::Site::kAggregateBoth;
        r.function = fn;
        r.column = column;
        r.weight = options.count_star_alternative_weight;
        r.site_id = site;
        out.replacements.push_back(std::move(r));
      }
    }
    for (const std::string& column :
         index.table().ColumnNamesOfType(db::ValueType::kDouble)) {
      for (db::AggregateFunction fn : db::AllAggregateFunctions()) {
        if (fn == db::AggregateFunction::kCount) continue;
        Replacement r;
        r.site = Replacement::Site::kAggregateBoth;
        r.function = fn;
        r.column = column;
        r.weight = options.count_star_alternative_weight;
        r.site_id = site;
        out.replacements.push_back(std::move(r));
      }
    }
  }

  // Site: aggregate column.
  if (!out_of_time() && !base.aggregate_column.empty()) {
    const int site = out.num_sites++;
    for (const ColumnMatch& match : index.TopColumns(
             base.aggregate_column, options.k_similar + 1,
             /*numeric_only=*/true)) {
      if (EqualsIgnoreCase(match.column, base.aggregate_column)) continue;
      Replacement r;
      r.site = Replacement::Site::kAggregateColumn;
      r.column = match.column;
      r.weight = std::pow(match.similarity, options.sharpen);
      r.site_id = site;
      out.replacements.push_back(std::move(r));
    }
  }

  // Sites: predicate values and predicate columns.
  for (size_t p = 0; p < base.predicates.size(); ++p) {
    if (out_of_time()) break;
    const db::Predicate& predicate = base.predicates[p];
    if (predicate.op != db::PredicateOp::kEq || predicate.values.empty() ||
        !predicate.values.front().is_string()) {
      continue;
    }
    const std::string value = predicate.values.front().AsString();

    const int value_site = out.num_sites++;
    for (const ValueMatch& match :
         index.TopValues(value, options.k_similar + 1)) {
      if (EqualsIgnoreCase(match.value, value) &&
          EqualsIgnoreCase(match.column, predicate.column)) {
        continue;
      }
      Replacement r;
      r.site = Replacement::Site::kPredicateValue;
      r.predicate_index = p;
      r.column = match.column;
      r.value = match.value;
      r.weight = std::pow(match.similarity, options.sharpen);
      r.site_id = value_site;
      out.replacements.push_back(std::move(r));
    }

    const int column_site = out.num_sites++;
    for (const std::string& owner : index.ColumnsOfValue(value)) {
      if (EqualsIgnoreCase(owner, predicate.column)) continue;
      Replacement r;
      r.site = Replacement::Site::kPredicateColumn;
      r.predicate_index = p;
      r.column = owner;
      r.value = value;
      r.weight =
          std::pow(phonetics::PhoneticSimilarity(predicate.column, owner),
                   options.sharpen);
      r.site_id = column_site;
      out.replacements.push_back(std::move(r));
    }
  }

  // Sites: dropping one of multiple predicates (spurious insertions).
  if (!out_of_time() && base.predicates.size() >= 2 &&
      options.drop_predicate_weight > 0.0) {
    for (const db::Predicate& predicate : base.predicates) {
      Replacement r;
      r.site = Replacement::Site::kDropPredicate;
      r.column = predicate.column;
      r.weight = options.drop_predicate_weight;
      r.site_id = out.num_sites++;
      out.replacements.push_back(std::move(r));
    }
  }
  return out;
}

std::vector<std::pair<size_t, size_t>> ReplacementPairs(
    const ReplacementSet& set, size_t pair_fanout) {
  const std::vector<Replacement>& replacements = set.replacements;
  // Use only the strongest alternatives per site.
  std::vector<size_t> order(replacements.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return replacements[a].weight > replacements[b].weight;
  });
  std::vector<size_t> picked;
  std::vector<int> per_site_count(set.num_sites, 0);
  for (size_t idx : order) {
    if (per_site_count[replacements[idx].site_id] >=
        static_cast<int>(pair_fanout)) {
      continue;
    }
    ++per_site_count[replacements[idx].site_id];
    picked.push_back(idx);
  }
  std::vector<std::pair<size_t, size_t>> pairs;
  for (size_t a = 0; a < picked.size(); ++a) {
    for (size_t b = a + 1; b < picked.size(); ++b) {
      if (replacements[picked[a]].site_id == replacements[picked[b]].site_id) {
        continue;
      }
      pairs.emplace_back(picked[a], picked[b]);
    }
  }
  return pairs;
}

}  // namespace muve::nlq
