#include "core/query_template.h"

#include <algorithm>
#include <unordered_map>

#include "common/strings.h"

namespace muve::core {

namespace {

constexpr uint32_t kFunctionSlot = 0;
constexpr uint32_t kColumnSlot = 1;

}  // namespace

TemplateGroups GroupByTemplate(const CandidateSet& candidates) {
  return TemplateGroups(candidates);
}

TemplateGroups::TemplateGroups(const CandidateSet& candidates) {
  // Each candidate's texts, and its aggregate and predicate phrases with
  // and without the placeholder: keys, labels and titles are assembled
  // from these.
  const auto add = [&](std::initializer_list<std::string_view> parts) {
    Text out{static_cast<uint32_t>(texts_.size()), 0};
    for (std::string_view part : parts) texts_.append(part);
    out.size = static_cast<uint32_t>(texts_.size()) - out.begin;
    return out;
  };
  tokens_.reserve(candidates.size());
  for (const CandidateQuery& candidate : candidates.candidates()) {
    const db::AggregateQuery& query = candidate.query;
    Tokens tokens;
    tokens.table = add({ToLower(query.table)});
    tokens.has_column = !query.aggregate_column.empty();
    const std::string target =
        tokens.has_column ? ToLower(query.aggregate_column) : "*";
    const std::string_view function =
        db::AggregateFunctionName(query.function);
    tokens.function = add({function});
    tokens.target = add({target});
    tokens.aggregate[kFunctionSlot] = add({"?(", target, ")"});
    tokens.aggregate[kColumnSlot] = add({function, "(?)"});
    tokens.aggregate[2] = add({function, "(", target, ")"});
    tokens.predicate_begin = static_cast<uint32_t>(predicates_.size());
    for (const db::Predicate& predicate : query.predicates) {
      const std::string column = ToLower(predicate.column);
      std::string number;
      std::string_view value;
      if (!predicate.values.empty()) {
        if (predicate.values.front().is_string()) {
          value = predicate.values.front().AsString();
        } else {
          number = predicate.values.front().ToString();
          value = number;
        }
      }
      PredicateTexts texts;
      texts.column = add({column});
      texts.value = add({value});
      texts.phrase[0] = add({column, " = ", value});
      texts.phrase[1] = add({column, " = ?"});
      texts.phrase[2] = add({"? = ", value});
      predicates_.push_back(texts);
    }
    tokens.predicate_end = static_cast<uint32_t>(predicates_.size());
    tokens_.push_back(tokens);
  }

  // Every instantiation and its key, "table|aggregate|c = v & c = v",
  // with the predicate texts sorted as strings for order independence.
  std::vector<Instance> instances;
  std::vector<uint32_t> key_begin;
  std::vector<std::string_view> predicate_texts;
  for (uint32_t i = 0; i < tokens_.size(); ++i) {
    const Tokens& tokens = tokens_[i];
    const uint32_t num_predicates =
        tokens.predicate_end - tokens.predicate_begin;
    for (uint32_t position = 0; position < 2 + 2 * num_predicates;
         ++position) {
      if (position == kColumnSlot && !tokens.has_column) continue;
      const Instance instance{i, position};
      instances.push_back(instance);
      key_begin.push_back(static_cast<uint32_t>(keys_.size()));
      keys_.append(text(tokens.table));
      keys_.push_back('|');
      keys_.append(AggregateText(instance));
      keys_.push_back('|');
      predicate_texts.clear();
      for (uint32_t p = 0; p < num_predicates; ++p) {
        predicate_texts.push_back(PredicateText(instance, p));
      }
      std::sort(predicate_texts.begin(), predicate_texts.end());
      for (size_t p = 0; p < predicate_texts.size(); ++p) {
        if (p > 0) keys_.append(" & ");
        keys_.append(predicate_texts[p]);
      }
    }
  }
  key_begin.push_back(static_cast<uint32_t>(keys_.size()));
  const size_t num_instances = instances.size();
  const auto key_of_instance = [&](size_t k) {
    return std::string_view(keys_).substr(key_begin[k],
                                          key_begin[k + 1] - key_begin[k]);
  };

  // Group on key bytes, numbering groups in order of creation. The key
  // buffer is complete, so the views the map holds stay valid.
  std::unordered_map<std::string_view, uint32_t> group_of;
  group_of.reserve(num_instances);
  std::vector<uint32_t> instance_group(num_instances);
  std::vector<uint32_t> first_instance;
  std::vector<uint32_t> count;
  for (size_t k = 0; k < num_instances; ++k) {
    const auto [it, inserted] = group_of.try_emplace(
        key_of_instance(k), static_cast<uint32_t>(first_instance.size()));
    if (inserted) {
      first_instance.push_back(static_cast<uint32_t>(k));
      count.push_back(0);
    }
    instance_group[k] = it->second;
    ++count[it->second];
  }
  const size_t num_groups = first_instance.size();

  // Members as instance indices, in instantiation order. A candidate
  // joins a group once, with its first instantiation of it (a query with
  // a repeated predicate instantiates some templates twice); its
  // instantiations are consecutive, so only the last member can repeat it.
  std::vector<uint32_t> member_begin(num_groups, 0);
  for (size_t g = 1; g < num_groups; ++g) {
    member_begin[g] = member_begin[g - 1] + count[g - 1];
  }
  std::vector<uint32_t> member_end = member_begin;
  std::vector<uint32_t> member_instances(num_instances);
  for (uint32_t k = 0; k < num_instances; ++k) {
    const uint32_t g = instance_group[k];
    uint32_t& end = member_end[g];
    if (end > member_begin[g] &&
        instances[member_instances[end - 1]].candidate ==
            instances[k].candidate) {
      continue;
    }
    member_instances[end++] = k;
  }

  // Members by descending probability (a stable insertion sort: groups
  // are small), then each group's mass, summed in that order.
  const auto probability = [&](uint32_t instance) {
    return candidates[instances[instance].candidate].probability;
  };
  std::vector<double> mass(num_groups, 0.0);
  std::vector<uint32_t> order(num_groups);
  for (uint32_t g = 0; g < num_groups; ++g) {
    uint32_t* const first = member_instances.data() + member_begin[g];
    uint32_t* const last = member_instances.data() + member_end[g];
    for (uint32_t* it = first + 1; it < last; ++it) {
      const uint32_t moving = *it;
      uint32_t* hole = it;
      for (; hole > first && probability(hole[-1]) < probability(moving);
           --hole) {
        *hole = hole[-1];
      }
      *hole = moving;
    }
    for (const uint32_t* it = first; it != last; ++it) {
      mass[g] += probability(*it);
    }
    order[g] = g;
  }
  // Keys are unique, so this order is total.
  std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    if (mass[a] != mass[b]) return mass[a] > mass[b];
    return key_of_instance(first_instance[a]) <
           key_of_instance(first_instance[b]);
  });

  groups_.reserve(num_groups);
  members_.reserve(num_instances);
  labels_.reserve(num_instances);
  for (uint32_t g : order) {
    const uint32_t k = first_instance[g];
    Group group;
    group.member_begin = static_cast<uint32_t>(members_.size());
    group.member_count = member_end[g] - member_begin[g];
    group.key_begin = key_begin[k];
    group.key_size = key_begin[k + 1] - key_begin[k];
    group.first = instances[k];
    for (uint32_t m = member_begin[g]; m < member_end[g]; ++m) {
      const Instance& member = instances[member_instances[m]];
      members_.push_back(member.candidate);
      labels_.push_back(Label(member));
    }
    groups_.push_back(group);
  }
}

TemplateGroups::Text TemplateGroups::Label(const Instance& instance) const {
  const Tokens& tokens = tokens_[instance.candidate];
  if (instance.position == kFunctionSlot) return tokens.function;
  if (instance.position == kColumnSlot) return tokens.target;
  const PredicateTexts& predicate =
      predicates_[tokens.predicate_begin + (instance.position - 2) / 2];
  return instance.position % 2 == 0 ? predicate.value : predicate.column;
}

std::string_view TemplateGroups::AggregateText(
    const Instance& instance) const {
  return text(
      tokens_[instance.candidate].aggregate[std::min(instance.position, 2u)]);
}

std::string_view TemplateGroups::PredicateText(const Instance& instance,
                                               uint32_t p) const {
  const PredicateTexts& predicate =
      predicates_[tokens_[instance.candidate].predicate_begin + p];
  if (instance.position == 2 + 2 * p) return text(predicate.phrase[1]);
  if (instance.position == 3 + 2 * p) return text(predicate.phrase[2]);
  return text(predicate.phrase[0]);
}

SlotKind TemplateGroups::slot(size_t g) const {
  const uint32_t position = groups_[g].first.position;
  if (position == kFunctionSlot) return SlotKind::kAggregateFunction;
  if (position == kColumnSlot) return SlotKind::kAggregateColumn;
  return position % 2 == 0 ? SlotKind::kPredicateValue
                           : SlotKind::kPredicateColumn;
}

size_t TemplateGroups::title_size(size_t g) const {
  const Instance& first = groups_[g].first;
  const Tokens& tokens = tokens_[first.candidate];
  size_t size = AggregateText(first).size();
  for (uint32_t p = 0; p < tokens.predicate_end - tokens.predicate_begin;
       ++p) {
    size += (p == 0 ? 7 : 5) + PredicateText(first, p).size();
  }
  return size;
}

QueryTemplate TemplateGroups::Template(size_t g) const {
  const Instance& first = groups_[g].first;
  const Tokens& tokens = tokens_[first.candidate];
  QueryTemplate out;
  out.key = std::string(key(g));
  out.slot = slot(g);
  // Predicates keep the query's order in the title, for readability.
  out.title.reserve(title_size(g));
  out.title.append(AggregateText(first));
  for (uint32_t p = 0; p < tokens.predicate_end - tokens.predicate_begin;
       ++p) {
    out.title.append(p == 0 ? " WHERE " : " AND ");
    out.title.append(PredicateText(first, p));
  }
  return out;
}

}  // namespace muve::core
