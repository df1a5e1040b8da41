#include "workload/datasets.h"

#include <cmath>

#include "common/strings.h"

namespace muve::workload {

namespace {

using db::ColumnSpec;
using db::Table;
using db::Value;
using db::ValueType;

/// Draws a category index with a mildly skewed (Zipf-like) distribution,
/// so predicates on frequent values select many rows and on rare values
/// few — matching real categorical data.
size_t SkewedIndex(size_t n, Rng* rng) {
  std::vector<double> weights(n);
  for (size_t i = 0; i < n; ++i) {
    weights[i] = 1.0 / static_cast<double>(i + 1);
  }
  return rng->Discrete(weights);
}

// Vocabularies deliberately contain phonetically confusable entries
// (e.g. queens/quincy, boston/austin, heating/heeding) so that
// noisy speech recognition produces plausible alternative predicates.

const std::vector<std::string>& Boroughs() {
  static const std::vector<std::string> kValues = {
      "brooklyn", "bronx",  "manhattan", "queens",
      "quincy",   "bergen", "brookline", "staten island"};
  return kValues;
}

std::shared_ptr<Table> MustCreate(const std::string& name,
                                  const std::vector<ColumnSpec>& schema) {
  auto table = Table::Create(name, schema);
  // Static schemas below are valid by construction.
  return *table;
}

}  // namespace

const std::vector<std::string>& DatasetNames() {
  static const std::vector<std::string> kNames = {"ads", "dob", "nyc311",
                                                  "flights"};
  return kNames;
}

std::shared_ptr<Table> MakeAdsTable(size_t num_rows, Rng* rng) {
  static const std::vector<std::string> kContactTypes = {
      "lead", "client", "prospect", "partner", "reseller", "press"};
  static const std::vector<std::string> kIndustries = {
      "finance", "fashion",   "pharma",  "farming",
      "retail",  "insurance", "airline", "auto"};
  static const std::vector<std::string> kRegions = {
      "northeast", "northwest", "southeast", "southwest", "midwest",
      "mideast"};
  static const std::vector<std::string> kChannels = {
      "email", "phone", "social", "search", "display", "mail"};

  auto table = MustCreate(
      "ads", {{"contact_type", ValueType::kString},
              {"industry", ValueType::kString},
              {"region", ValueType::kString},
              {"channel", ValueType::kString},
              {"budget", ValueType::kDouble},
              {"impressions", ValueType::kInt64},
              {"clicks", ValueType::kInt64}});
  for (size_t r = 0; r < num_rows; ++r) {
    const int64_t impressions = rng->UniformInRange(100, 100000);
    const int64_t clicks =
        static_cast<int64_t>(impressions * rng->UniformDouble(0.001, 0.08));
    Status st = table->AppendRow(
        {Value(kContactTypes[SkewedIndex(kContactTypes.size(), rng)]),
         Value(kIndustries[SkewedIndex(kIndustries.size(), rng)]),
         Value(kRegions[SkewedIndex(kRegions.size(), rng)]),
         Value(kChannels[SkewedIndex(kChannels.size(), rng)]),
         Value(rng->LogNormal(7.0, 1.2)), Value(impressions),
         Value(clicks)});
    (void)st;
  }
  table->Flush();
  return table;
}

std::shared_ptr<Table> MakeDobTable(size_t num_rows, Rng* rng) {
  static const std::vector<std::string> kJobTypes = {
      "alteration", "new building", "demolition", "renovation",
      "elevation",  "excavation",   "plumbing",   "signage"};
  static const std::vector<std::string> kStatuses = {
      "filed", "approved", "permitted", "completed", "withdrawn",
      "failed"};
  static const std::vector<std::string> kOwnerTypes = {
      "individual", "corporation", "partnership", "condo", "city",
      "state"};

  auto table = MustCreate(
      "dob", {{"borough", ValueType::kString},
              {"job_type", ValueType::kString},
              {"job_status", ValueType::kString},
              {"owner_type", ValueType::kString},
              {"existing_stories", ValueType::kInt64},
              {"proposed_stories", ValueType::kInt64},
              {"initial_cost", ValueType::kDouble}});
  for (size_t r = 0; r < num_rows; ++r) {
    const int64_t existing = rng->UniformInRange(1, 40);
    Status st = table->AppendRow(
        {Value(Boroughs()[SkewedIndex(Boroughs().size(), rng)]),
         Value(kJobTypes[SkewedIndex(kJobTypes.size(), rng)]),
         Value(kStatuses[SkewedIndex(kStatuses.size(), rng)]),
         Value(kOwnerTypes[SkewedIndex(kOwnerTypes.size(), rng)]),
         Value(existing),
         Value(existing + rng->UniformInRange(-2, 10)),
         Value(rng->LogNormal(11.0, 1.5))});
    (void)st;
  }
  table->Flush();
  return table;
}

std::shared_ptr<Table> Make311Table(size_t num_rows, Rng* rng) {
  static const std::vector<std::string> kComplaints = {
      "noise",        "heating",     "heeding",  "parking",
      "water leak",   "water lick",  "rodents",  "graffiti",
      "street light", "straight light"};
  static const std::vector<std::string> kAgencies = {
      "nypd", "dep", "dob", "dot", "hpd", "dsny"};
  static const std::vector<std::string> kStatuses = {
      "open", "closed", "pending", "assigned", "escalated"};
  static const std::vector<std::string> kChannels = {
      "phone", "online", "mobile", "walk in"};

  auto table = MustCreate(
      "nyc311", {{"borough", ValueType::kString},
                 {"complaint_type", ValueType::kString},
                 {"agency", ValueType::kString},
                 {"status", ValueType::kString},
                 {"channel", ValueType::kString},
                 {"open_hours", ValueType::kDouble},
                 {"precinct", ValueType::kInt64}});
  for (size_t r = 0; r < num_rows; ++r) {
    Status st = table->AppendRow(
        {Value(Boroughs()[SkewedIndex(Boroughs().size(), rng)]),
         Value(kComplaints[SkewedIndex(kComplaints.size(), rng)]),
         Value(kAgencies[SkewedIndex(kAgencies.size(), rng)]),
         Value(kStatuses[SkewedIndex(kStatuses.size(), rng)]),
         Value(kChannels[SkewedIndex(kChannels.size(), rng)]),
         Value(rng->LogNormal(3.0, 1.4)),
         Value(rng->UniformInRange(1, 123))});
    (void)st;
  }
  table->Flush();
  return table;
}

std::shared_ptr<Table> MakeFlightsTable(size_t num_rows, Rng* rng) {
  static const std::vector<std::string> kCities = {
      "newark", "new york",  "norwalk",  "boston",   "austin",
      "oakland", "auckland",  "portland", "porterville",
      "dallas", "dulles",    "denver",   "phoenix",  "seattle",
      "san jose", "san diego"};
  static const std::vector<std::string> kCarriers = {
      "united", "delta", "jetblue", "southwest", "alaska", "spirit",
      "frontier", "american"};
  static const std::vector<std::string> kWeekdays = {
      "monday", "tuesday", "wednesday", "thursday", "friday", "saturday",
      "sunday"};
  static const std::vector<std::string> kMonths = {
      "january", "february", "march",     "april",   "may",      "june",
      "july",    "august",   "september", "october", "november",
      "december"};

  auto table = MustCreate(
      "flights", {{"origin", ValueType::kString},
                  {"dest", ValueType::kString},
                  {"carrier", ValueType::kString},
                  {"month", ValueType::kString},
                  {"day_of_week", ValueType::kString},
                  {"dep_delay", ValueType::kDouble},
                  {"arr_delay", ValueType::kDouble},
                  {"distance", ValueType::kInt64},
                  {"air_time", ValueType::kDouble}});
  for (size_t r = 0; r < num_rows; ++r) {
    const double dep_delay = rng->Normal(8.0, 25.0);
    const int64_t distance = rng->UniformInRange(120, 3000);
    Status st = table->AppendRow(
        {Value(kCities[SkewedIndex(kCities.size(), rng)]),
         Value(kCities[SkewedIndex(kCities.size(), rng)]),
         Value(kCarriers[SkewedIndex(kCarriers.size(), rng)]),
         Value(kMonths[rng->UniformInt(kMonths.size())]),
         Value(kWeekdays[rng->UniformInt(kWeekdays.size())]),
         Value(dep_delay),
         Value(dep_delay + rng->Normal(0.0, 12.0)),
         Value(distance),
         Value(static_cast<double>(distance) / 8.0 +
               rng->Normal(20.0, 10.0))});
    (void)st;
  }
  table->Flush();
  return table;
}

Result<std::shared_ptr<Table>> MakeDataset(std::string_view name,
                                           size_t num_rows, uint64_t seed) {
  Rng rng(seed);
  if (EqualsIgnoreCase(name, "ads")) return MakeAdsTable(num_rows, &rng);
  if (EqualsIgnoreCase(name, "dob")) return MakeDobTable(num_rows, &rng);
  if (EqualsIgnoreCase(name, "nyc311")) return Make311Table(num_rows, &rng);
  if (EqualsIgnoreCase(name, "flights")) {
    return MakeFlightsTable(num_rows, &rng);
  }
  return Status::NotFound(StrCat({"unknown dataset '", name, "'"}));
}

std::vector<std::string> BuildVocabulary(const db::Relation& table) {
  std::vector<std::string> vocabulary;
  for (size_t c = 0; c < table.num_columns(); ++c) {
    const db::ColumnSpec& spec = table.spec(c);
    vocabulary.push_back(spec.name);
    if (spec.type == ValueType::kString) {
      for (const std::string& value : table.StringValues(c)) {
        vocabulary.push_back(value);
      }
    }
  }
  return vocabulary;
}

}  // namespace muve::workload
