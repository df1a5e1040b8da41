#ifndef MUVE_CORE_QUERY_TEMPLATE_H_
#define MUVE_CORE_QUERY_TEMPLATE_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/candidate.h"
#include "db/query.h"

namespace muve::core {

/// Which query element a template's placeholder substitutes (paper §2,
/// Definition 2: "placeholders may substitute constants in predicates but
/// also operators or aggregation functions").
enum class SlotKind {
  kAggregateFunction,  ///< e.g. "?(delay) WHERE ..." varying COUNT/AVG/...
  kAggregateColumn,    ///< e.g. "AVG(?) WHERE ..." varying the column.
  kPredicateValue,     ///< e.g. "... WHERE city = ?" varying the constant.
  kPredicateColumn,    ///< e.g. "... WHERE ? = 'queens'" varying the column.
};

/// A query template: a query with exactly one element replaced by a
/// placeholder. All queries instantiating the same template can share one
/// plot, with the placeholder substitutions as x-axis labels.
struct QueryTemplate {
  /// Canonical identity: equal keys <=> same template (predicate order
  /// insensitive).
  std::string key;
  /// Human-readable title shown above the plot, e.g.
  /// "COUNT(*) WHERE city = ? AND boro = 'brooklyn'".
  std::string title;
  SlotKind slot = SlotKind::kPredicateValue;

  bool operator==(const QueryTemplate& other) const {
    return key == other.key;
  }
};

class TemplateGroups;

/// Groups candidates by template: the first loop of Algorithm 2, applying
/// the function T(q) to every candidate. Each query instantiates one
/// template per aggregate-function slot, one per aggregate-column slot
/// (when it aggregates a column), and two per predicate (its value slot
/// and its column slot).
TemplateGroups GroupByTemplate(const CandidateSet& candidates);

/// The template groups of one candidate set. Group g holds the candidates
/// (indices into the CandidateSet) that instantiate one template, by
/// descending probability, each with the x label it substitutes for the
/// placeholder. Groups are ordered by descending total member probability,
/// ties by template key.
///
/// Every instantiation's key is written once into one buffer and
/// instantiations group on those bytes. The texts keys, labels and
/// titles are made of (lowered names, value texts, aggregate and
/// predicate phrases) are built once per candidate into another buffer;
/// titles are assembled only on request, for shown plots.
class TemplateGroups {
 public:
  TemplateGroups() = default;  ///< No groups.
  TemplateGroups(TemplateGroups&&) = default;
  TemplateGroups& operator=(TemplateGroups&&) = default;
  TemplateGroups(const TemplateGroups&) = delete;
  TemplateGroups& operator=(const TemplateGroups&) = delete;

  size_t size() const { return groups_.size(); }
  bool empty() const { return groups_.empty(); }

  /// Candidate indices of group g's members, most probable first.
  std::span<const size_t> members(size_t g) const {
    return {members_.data() + groups_[g].member_begin,
            groups_[g].member_count};
  }
  /// The x label member m of group g substitutes for the placeholder.
  std::string_view label(size_t g, size_t m) const {
    return text(labels_[groups_[g].member_begin + m]);
  }
  /// Canonical identity: equal keys <=> same template.
  std::string_view key(size_t g) const {
    return std::string_view(keys_).substr(groups_[g].key_begin,
                                          groups_[g].key_size);
  }
  SlotKind slot(size_t g) const;
  /// Length of the title Template(g) would build.
  size_t title_size(size_t g) const;
  /// Group g's template with its title, for a plot being shown.
  QueryTemplate Template(size_t g) const;

 private:
  friend TemplateGroups GroupByTemplate(const CandidateSet& candidates);
  explicit TemplateGroups(const CandidateSet& candidates);

  /// A text in texts_.
  struct Text {
    uint32_t begin = 0;
    uint32_t size = 0;
  };
  /// The texts of one candidate query.
  struct Tokens {
    Text table;     ///< Lowered.
    Text function;  ///< "COUNT", "AVG", ...
    Text target;    ///< Lowered aggregate column, or "*".
    bool has_column = false;
    /// "?(x)", "FN(?)" and "FN(x)": the aggregate text of its function
    /// slot (position 0), its column slot (1) and its predicate slots.
    Text aggregate[3];
    /// Range of its predicates in predicates_.
    uint32_t predicate_begin = 0;
    uint32_t predicate_end = 0;
  };
  /// The texts of one predicate "c = v".
  struct PredicateTexts {
    Text column;  ///< Lowered.
    Text value;   ///< First value's text; empty without values.
    /// "c = v", "c = ?" (its value slot) and "? = v" (its column slot).
    Text phrase[3];
  };
  /// One template of one candidate: its slot position is 0 for the
  /// aggregate function, 1 for the aggregate column, 2 + 2p for predicate
  /// p's value and 3 + 2p for its column.
  struct Instance {
    uint32_t candidate = 0;
    uint32_t position = 0;
  };
  struct Group {
    uint32_t member_begin = 0;
    uint32_t member_count = 0;
    uint32_t key_begin = 0;
    uint32_t key_size = 0;
    Instance first;  ///< The instantiation that created the group.
  };

  std::string_view text(Text t) const {
    return std::string_view(texts_).substr(t.begin, t.size);
  }
  /// The x label of an instantiation.
  Text Label(const Instance& instance) const;
  /// The aggregate text of an instantiation.
  std::string_view AggregateText(const Instance& instance) const;
  /// Predicate p of an instantiation as text, "c = v", with the
  /// placeholder substituted.
  std::string_view PredicateText(const Instance& instance, uint32_t p) const;

  std::string texts_;
  std::vector<Tokens> tokens_;  ///< Per candidate.
  std::vector<PredicateTexts> predicates_;
  std::vector<Group> groups_;
  std::vector<size_t> members_;
  std::vector<Text> labels_;  ///< Parallel to members_.
  std::string keys_;  ///< Every instantiation's key, back to back.
};

}  // namespace muve::core

#endif  // MUVE_CORE_QUERY_TEMPLATE_H_
