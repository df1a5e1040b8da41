/// Differential suite for the planner's front half: template grouping
/// (core::GroupByTemplate, grouping on key bytes) and candidate
/// generation (nlq::CandidateGenerator, descriptor dedup) against their
/// string-built references in testing/template_oracle.h and
/// testing/generator_oracle.h.
///
/// Inputs, all derived from the seed:
///   - random candidate sets over random tables;
///   - generator output for random base queries on nyc311 and flights;
///   - adversarial texts: values holding " & ", " = ", "?" or "|", a
///     value that prefixes another, mixed-case column spellings,
///     duplicate predicates, empty and numeric value lists.
///
/// Groups must agree in order, key, title, slot, members and labels;
/// generated sets in order, query bytes and bitwise probabilities; and
/// the greedy, ILP and brute-force planners must produce identical
/// multiplots at 1, 2 and 8 threads whose plots carry the reference
/// group's template and labels.
///
/// MUVE_DIFF_SEEDS overrides the seed count (default 210).

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/strings.h"
#include "common/thread_pool.h"
#include "core/greedy_planner.h"
#include "core/ilp_planner.h"
#include "core/query_template.h"
#include "db/table.h"
#include "nlq/candidate_generator.h"
#include "nlq/schema_index.h"
#include "testing/brute_force_planner.h"
#include "testing/generator_oracle.h"
#include "testing/random_workload.h"
#include "testing/sanitizer.h"
#include "testing/template_oracle.h"
#include "workload/datasets.h"
#include "workload/query_generator.h"

namespace muve {
namespace {

int SeedCount() {
  const char* value = std::getenv("MUVE_DIFF_SEEDS");
  if (value == nullptr) return 210;
  const long parsed = std::strtol(value, nullptr, 10);
  return parsed > 0 ? static_cast<int>(parsed) : 210;
}

const int kNumSeeds = SeedCount();
constexpr uint64_t kSeedBase = 31000;
const size_t kThreadCounts[] = {1, 2, 8};

std::string Context(const char* what, int seed) {
  return StrCat({what, " seed ", std::to_string(seed)});
}

void ExpectSameGroups(const core::CandidateSet& set,
                      const std::string& context) {
  const std::vector<testing::ReferenceTemplateGroup> expected =
      testing::ReferenceGroupByTemplate(set);
  const core::TemplateGroups actual = core::GroupByTemplate(set);
  ASSERT_EQ(expected.size(), actual.size()) << context;
  for (size_t g = 0; g < expected.size(); ++g) {
    const core::QueryTemplate actual_template = actual.Template(g);
    const core::QueryTemplate& want = expected[g].query_template;
    ASSERT_EQ(want.key, actual.key(g)) << context << " group " << g;
    EXPECT_EQ(want.key, actual_template.key) << context;
    EXPECT_EQ(want.title, actual_template.title) << context;
    EXPECT_EQ(want.title.size(), actual.title_size(g)) << context;
    EXPECT_EQ(want.slot, actual.slot(g)) << context;
    EXPECT_EQ(want.slot, actual_template.slot) << context;
    const std::vector<size_t> members(actual.members(g).begin(),
                                      actual.members(g).end());
    EXPECT_EQ(expected[g].member_queries, members) << context;
    std::vector<std::string> labels;
    for (size_t m = 0; m < members.size(); ++m) {
      labels.emplace_back(actual.label(g, m));
    }
    EXPECT_EQ(expected[g].member_labels, labels) << context;
  }
}

void ExpectSameQuery(const db::AggregateQuery& expected,
                     const db::AggregateQuery& actual,
                     const std::string& context) {
  EXPECT_EQ(expected.table, actual.table) << context;
  EXPECT_EQ(expected.function, actual.function) << context;
  EXPECT_EQ(expected.aggregate_column, actual.aggregate_column) << context;
  ASSERT_EQ(expected.predicates.size(), actual.predicates.size())
      << context;
  for (size_t p = 0; p < expected.predicates.size(); ++p) {
    const db::Predicate& want = expected.predicates[p];
    const db::Predicate& got = actual.predicates[p];
    EXPECT_EQ(want.column, got.column) << context;
    EXPECT_EQ(want.op, got.op) << context;
    ASSERT_EQ(want.values.size(), got.values.size()) << context;
    for (size_t v = 0; v < want.values.size(); ++v) {
      EXPECT_TRUE(want.values[v] == got.values[v])
          << context << " value " << want.values[v].ToString() << " vs "
          << got.values[v].ToString();
    }
  }
}

void ExpectSameCandidates(const core::CandidateSet& expected,
                          const core::CandidateSet& actual,
                          const std::string& context) {
  ASSERT_EQ(expected.size(), actual.size()) << context;
  for (size_t i = 0; i < expected.size(); ++i) {
    const std::string at = StrCat({context, " candidate ", std::to_string(i)});
    ExpectSameQuery(expected[i].query, actual[i].query, at);
    EXPECT_EQ(std::bit_cast<uint64_t>(expected[i].probability),
              std::bit_cast<uint64_t>(actual[i].probability))
        << at;
  }
}

/// Everything a plan shows: per row, each plot's template and bars.
std::string PlanSignature(const core::PlanResult& plan) {
  std::string out;
  for (const auto& row : plan.multiplot.rows) {
    out += "[";
    for (const core::Plot& plot : row) {
      out += "(" + plot.query_template.key + "#" +
             plot.query_template.title + "#" +
             std::to_string(static_cast<int>(plot.query_template.slot)) +
             ":";
      for (const core::PlotBar& bar : plot.bars) {
        out += std::to_string(bar.candidate_index) +
               (bar.highlighted ? "R" : "p") + bar.label + ",";
      }
      out += ")";
    }
    out += "]";
  }
  return out + std::to_string(std::bit_cast<uint64_t>(plan.expected_cost));
}

/// Every plot carries its reference group's template, and every bar the
/// label the reference gives its candidate in that group.
void ExpectPlotsMatchReference(const core::CandidateSet& set,
                               const core::PlanResult& plan,
                               const std::string& context) {
  std::map<std::string, const testing::ReferenceTemplateGroup*> by_key;
  const auto groups = testing::ReferenceGroupByTemplate(set);
  for (const auto& group : groups) {
    by_key[group.query_template.key] = &group;
  }
  plan.multiplot.ForEachPlot([&](const core::Plot& plot) {
    const auto it = by_key.find(plot.query_template.key);
    ASSERT_NE(it, by_key.end()) << context;
    const testing::ReferenceTemplateGroup& group = *it->second;
    EXPECT_EQ(group.query_template.title, plot.query_template.title)
        << context;
    EXPECT_EQ(group.query_template.slot, plot.query_template.slot)
        << context;
    for (const core::PlotBar& bar : plot.bars) {
      size_t m = 0;
      while (m < group.member_queries.size() &&
             group.member_queries[m] != bar.candidate_index) {
        ++m;
      }
      ASSERT_LT(m, group.member_queries.size()) << context;
      EXPECT_EQ(group.member_labels[m], bar.label) << context;
    }
  });
}

class GroupingDiffTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    pool2_ = new ThreadPool(2);
    pool8_ = new ThreadPool(8);
  }
  static void TearDownTestSuite() {
    delete pool8_;
    pool8_ = nullptr;
    delete pool2_;
    pool2_ = nullptr;
  }
  static ThreadPool* PoolFor(size_t threads) {
    if (threads <= 1) return nullptr;
    return threads == 2 ? pool2_ : pool8_;
  }

  /// Greedy at 1/2/8 threads: identical plans, matching the reference.
  static void ExpectGreedyAgrees(const core::CandidateSet& set,
                                 int max_rows, const std::string& context) {
    core::PlannerConfig config;
    config.geometry.max_rows = max_rows;
    std::string reference;
    for (const size_t threads : kThreadCounts) {
      core::GreedyPlanner::Options options;
      options.pool = PoolFor(threads);
      options.min_parallel_candidates = 1;
      const auto plan = core::GreedyPlanner(options).Plan(set, config);
      ASSERT_TRUE(plan.ok()) << context;
      EXPECT_TRUE(plan->multiplot.Validate(config.geometry).ok()) << context;
      if (threads == 1) {
        reference = PlanSignature(*plan);
        ExpectPlotsMatchReference(set, *plan, context + " greedy");
      } else {
        EXPECT_EQ(reference, PlanSignature(*plan))
            << context << " greedy threads " << threads;
      }
    }
  }

  /// ILP at 1/2/8 solver threads: identical plans, matching the
  /// reference. A solve that times out surrenders determinism and is
  /// skipped.
  static void ExpectIlpAgrees(const core::CandidateSet& set,
                              const std::string& context) {
    core::PlannerConfig config;
    config.geometry.max_rows = 1;
    config.timeout_ms = 10000.0;
    std::string reference;
    for (const size_t threads : kThreadCounts) {
      config.ilp.num_threads = threads;
      const auto plan = core::IlpPlanner(PoolFor(threads)).Plan(set, config);
      ASSERT_TRUE(plan.ok()) << context;
      if (plan->timed_out) return;
      if (threads == 1) {
        reference = PlanSignature(*plan);
        ExpectPlotsMatchReference(set, *plan, context + " ilp");
      } else {
        EXPECT_EQ(reference, PlanSignature(*plan))
            << context << " ilp threads " << threads;
      }
    }
  }

  static void ExpectBruteForceMatchesReference(const core::CandidateSet& set,
                                               const std::string& context) {
    core::PlannerConfig config;
    config.geometry.max_rows = 1;
    const auto plan = core::BruteForcePlanner().Plan(set, config);
    if (!plan.ok()) return;  // Group too large or budget exhausted.
    ExpectPlotsMatchReference(set, *plan, context + " brute force");
  }

  static ThreadPool* pool2_;
  static ThreadPool* pool8_;
};

ThreadPool* GroupingDiffTest::pool2_ = nullptr;
ThreadPool* GroupingDiffTest::pool8_ = nullptr;

// ---------------------------------------------------------------------
// Random candidate sets.
// ---------------------------------------------------------------------

TEST_F(GroupingDiffTest, RandomCandidateSets) {
  // ILP solves are the slow part: a tenth of the seeds, fewer under
  // sanitizers.
  const int ilp_every = muve::testing::kSanitizerBuild ? 70 : 21;
  for (int seed = 0; seed < kNumSeeds; ++seed) {
    Rng rng(kSeedBase + static_cast<uint64_t>(seed));
    testing::RandomTableOptions table_options;
    table_options.min_rows = 50;
    table_options.max_rows = 100;
    auto table = testing::RandomTable(&rng, table_options);
    const std::string context = Context("random", seed);
    const core::CandidateSet set =
        testing::RandomCandidateSet(*table, &rng, 24);
    ExpectSameGroups(set, context);
    ExpectGreedyAgrees(set, 1 + seed % 2, context);
    if (seed % ilp_every == 0) {
      const core::CandidateSet small =
          testing::RandomCandidateSet(*table, &rng, 8);
      ExpectSameGroups(small, context + " small");
      ExpectIlpAgrees(small, context + " small");
    }
    const core::CandidateSet tiny = testing::TinyCandidateSet(*table, &rng);
    ExpectSameGroups(tiny, context + " tiny");
    ExpectBruteForceMatchesReference(tiny, context + " tiny");
  }
}

// ---------------------------------------------------------------------
// Generator output on the paper's datasets.
// ---------------------------------------------------------------------

TEST_F(GroupingDiffTest, GeneratorOnNyc311AndFlights) {
  for (const char* dataset : {"nyc311", "flights"}) {
    Rng table_rng(7);
    const std::shared_ptr<db::Table> table =
        std::string(dataset) == "nyc311"
            ? workload::Make311Table(2000, &table_rng)
            : workload::MakeFlightsTable(2000, &table_rng);
    auto index = std::make_shared<nlq::SchemaIndex>(table);
    const nlq::CandidateGenerator generator(index);
    for (int seed = 0; seed < kNumSeeds; ++seed) {
      Rng rng(kSeedBase + 100000 + static_cast<uint64_t>(seed));
      const auto base = workload::RandomQuery(*table, &rng);
      ASSERT_TRUE(base.ok());
      nlq::CandidateGeneratorOptions options;
      options.include_pairs = seed % 4 != 0;
      options.max_candidates =
          static_cast<size_t>(rng.UniformInRange(5, 80));
      options.pair_fanout = static_cast<size_t>(rng.UniformInRange(1, 8));
      const double confidence = rng.UniformDouble(0.2, 1.0);
      const std::string context = Context(dataset, seed);
      const core::CandidateSet expected = testing::ReferenceGenerate(
          *index, *base, confidence, options);
      const core::CandidateSet actual =
          generator.Generate(*base, confidence, options);
      ExpectSameCandidates(expected, actual, context);
      ExpectSameGroups(actual, context);
      ExpectGreedyAgrees(actual, 1 + seed % 2, context);
    }
  }
}

// ---------------------------------------------------------------------
// Adversarial texts.
// ---------------------------------------------------------------------

/// Values that collide with key syntax, prefix one another, differ only
/// in case, or are empty.
const std::vector<std::string>& AdversarialValues() {
  static const std::vector<std::string> values = {
      "x & b = y", "x", "a = b", "?", "p|q", "bro", "brooklyn", "Brooklyn",
      "", "b = y", "queens & kings", "?(*)", "y"};
  return values;
}

db::Value AdversarialValue(Rng* rng) {
  switch (rng->UniformInt(4)) {
    case 0:
      return db::Value(static_cast<int64_t>(rng->UniformInRange(-3, 3)));
    case 1:
      return db::Value(static_cast<double>(rng->UniformInRange(-4, 4)) / 2);
    default:
      return db::Value(rng->Choice(AdversarialValues()));
  }
}

db::Predicate AdversarialPredicate(Rng* rng) {
  static const std::vector<std::string> columns = {
      "city", "City", "CITY", "a", "b", "?", "kind", "a = x", "b|c"};
  db::Predicate predicate;
  predicate.column = rng->Choice(columns);
  const size_t num_values = rng->Bernoulli(0.1)   ? 0
                            : rng->Bernoulli(0.2) ? 3
                                                  : 1;
  predicate.op = num_values == 1 && rng->Bernoulli(0.8) ? db::PredicateOp::kEq
                                                        : db::PredicateOp::kIn;
  for (size_t v = 0; v < num_values; ++v) {
    predicate.values.push_back(AdversarialValue(rng));
  }
  return predicate;
}

db::AggregateQuery AdversarialQuery(Rng* rng) {
  static const std::vector<std::string> tables = {"t", "T", "t|x"};
  static const std::vector<std::string> aggregate_columns = {
      "", "", "delay", "Delay", "*", "?", "cost"};
  db::AggregateQuery query;
  query.table = rng->Choice(tables);
  query.function = rng->Choice(db::AllAggregateFunctions());
  query.aggregate_column = rng->Choice(aggregate_columns);
  const size_t num_predicates = static_cast<size_t>(rng->UniformInRange(0, 3));
  for (size_t p = 0; p < num_predicates; ++p) {
    query.predicates.push_back(AdversarialPredicate(rng));
  }
  // Duplicate predicates, verbatim or with the column's case changed.
  if (!query.predicates.empty() && rng->Bernoulli(0.2)) {
    query.predicates.push_back(query.predicates.front());
    if (rng->Bernoulli(0.5)) query.predicates.back().column = "CITY";
  }
  return query;
}

TEST_F(GroupingDiffTest, AdversarialCandidateSets) {
  for (int seed = 0; seed < kNumSeeds; ++seed) {
    Rng rng(kSeedBase + 200000 + static_cast<uint64_t>(seed));
    const std::string context = Context("adversarial", seed);
    // Families varying one predicate's value or the aggregate share
    // templates; loose queries add singletons and key look-alikes.
    core::CandidateSet set;
    const size_t families = static_cast<size_t>(rng.UniformInRange(1, 4));
    for (size_t f = 0; f < families; ++f) {
      const db::AggregateQuery base = AdversarialQuery(&rng);
      const size_t members = static_cast<size_t>(rng.UniformInRange(1, 5));
      for (size_t m = 0; m < members; ++m) {
        db::AggregateQuery member = base;
        if (!member.predicates.empty() && rng.Bernoulli(0.7)) {
          member.predicates[rng.UniformInt(member.predicates.size())]
              .values = {AdversarialValue(&rng)};
        } else {
          member.function = rng.Choice(db::AllAggregateFunctions());
        }
        // Equal probabilities make ties for the key tie-break.
        set.Add(std::move(member),
                rng.Bernoulli(0.3) ? 0.25 : rng.UniformDouble(0.01, 1.0));
      }
    }
    const size_t loose = static_cast<size_t>(rng.UniformInRange(0, 6));
    for (size_t i = 0; i < loose; ++i) {
      set.Add(AdversarialQuery(&rng), rng.UniformDouble(0.01, 1.0));
    }
    ExpectSameGroups(set, context);

    core::CandidateSet deduplicated = set;
    testing::ReferenceDeduplicate(&deduplicated);
    deduplicated.Normalize();
    ExpectSameGroups(deduplicated, context + " deduplicated");
    ExpectGreedyAgrees(deduplicated, 1 + seed % 2, context);
    if (deduplicated.size() <= 6) {
      ExpectBruteForceMatchesReference(deduplicated, context);
    }
  }
}

TEST_F(GroupingDiffTest, KeyCollisionsMergeLikeTheReference) {
  // "a = 'x & b = y'" and "a = 'x' AND b = 'y'" print one function-slot
  // key, "t|?(*)|a = x & b = y"; a literal "?" value prints like the
  // value placeholder. The key defines the template, so both pairs must
  // share a group, as they do in the reference.
  const auto query = [](std::vector<std::pair<std::string, std::string>>
                            predicates) {
    db::AggregateQuery q;
    q.table = "t";
    for (const auto& [column, value] : predicates) {
      q.predicates.push_back(db::Predicate::Equals(column, db::Value(value)));
    }
    return q;
  };
  core::CandidateSet set;
  set.Add(query({{"a", "x & b = y"}}), 0.4);
  set.Add(query({{"a", "x"}, {"b", "y"}}), 0.3);
  set.Add(query({{"a", "?"}, {"b", "y"}}), 0.2);
  set.Add(query({{"a", "x"}, {"b", "?"}}), 0.1);
  ExpectSameGroups(set, "collisions");
  const core::TemplateGroups groups = core::GroupByTemplate(set);
  bool merged_function_slot = false;
  for (size_t g = 0; g < groups.size(); ++g) {
    if (groups.key(g) == "t|?(*)|a = x & b = y") {
      merged_function_slot = groups.members(g).size() == 2;
    }
  }
  EXPECT_TRUE(merged_function_slot);
}

/// A small table whose names and values are adversarial, for the
/// generator's dedup.
std::shared_ptr<db::Table> AdversarialTable(Rng* rng) {
  auto table = db::Table::Create("Adv", {{"City", db::ValueType::kString},
                                         {"kind", db::ValueType::kString},
                                         {"Delay", db::ValueType::kInt64},
                                         {"cost", db::ValueType::kDouble}});
  EXPECT_TRUE(table.ok());
  for (int r = 0; r < 200; ++r) {
    const Status status = (*table)->AppendRow(
        {db::Value(rng->Choice(AdversarialValues())),
         db::Value(rng->Choice(AdversarialValues())),
         db::Value(static_cast<int64_t>(rng->UniformInRange(0, 50))),
         db::Value(rng->UniformDouble(0.0, 10.0))});
    EXPECT_TRUE(status.ok());
  }
  return std::move(table).value();
}

TEST_F(GroupingDiffTest, AdversarialGeneratorDedup) {
  Rng table_rng(kSeedBase);
  const std::shared_ptr<db::Table> table = AdversarialTable(&table_rng);
  auto index = std::make_shared<nlq::SchemaIndex>(table);
  const nlq::CandidateGenerator generator(index);
  static const std::vector<std::string> columns = {"City", "city", "CITY",
                                                   "kind", "KIND"};
  for (int seed = 0; seed < kNumSeeds; ++seed) {
    Rng rng(kSeedBase + 300000 + static_cast<uint64_t>(seed));
    db::AggregateQuery base;
    base.table = rng.Bernoulli(0.5) ? "Adv" : "adv";
    base.function = rng.Choice(db::AllAggregateFunctions());
    if (base.function != db::AggregateFunction::kCount ||
        rng.Bernoulli(0.3)) {
      base.aggregate_column = rng.Bernoulli(0.5) ? "Delay" : "cost";
    }
    const size_t num_predicates =
        static_cast<size_t>(rng.UniformInRange(1, 3));
    for (size_t p = 0; p < num_predicates; ++p) {
      if (rng.Bernoulli(0.4)) {
        // Numeric or IN: no replacement targets these, but a replacement
        // shifted by a dropped predicate can rewire one.
        base.predicates.push_back(
            rng.Bernoulli(0.3)
                ? db::Predicate::Equals(
                      "Delay", db::Value(static_cast<int64_t>(
                                   rng.UniformInRange(0, 5))))
                : db::Predicate::In(
                      rng.Choice(columns),
                      {db::Value(rng.Choice(AdversarialValues())),
                       db::Value(rng.Choice(AdversarialValues()))}));
      } else {
        base.predicates.push_back(db::Predicate::Equals(
            rng.Choice(columns),
            db::Value(rng.Choice(AdversarialValues()))));
      }
    }
    nlq::CandidateGeneratorOptions options;
    options.max_candidates = static_cast<size_t>(rng.UniformInRange(5, 60));
    const double confidence = rng.UniformDouble(0.2, 1.0);
    const std::string context = Context("adversarial generator", seed);
    const core::CandidateSet expected =
        testing::ReferenceGenerate(*index, base, confidence, options);
    const core::CandidateSet actual =
        generator.Generate(base, confidence, options);
    ExpectSameCandidates(expected, actual, context);
    ExpectSameGroups(actual, context);
  }
}

}  // namespace
}  // namespace muve
