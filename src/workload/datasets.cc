#include "workload/datasets.h"

#include <cmath>
#include <utility>

#include "common/strings.h"
#include "db/lsm/run.h"

namespace muve::workload {

namespace {

using db::Column;
using db::ColumnSpec;
using db::Table;
using db::ValueType;

/// Draws values of a vocabulary with a mildly skewed (Zipf-like)
/// distribution, so predicates on frequent values select many rows and on
/// rare values few — matching real categorical data.
/// The weights are computed once per vocabulary, not per draw.
struct SkewedDraw {
  explicit SkewedDraw(const std::vector<std::string>& values)
      : values(values) {
    for (size_t i = 1; i <= values.size(); ++i) {
      weights.push_back(1.0 / static_cast<double>(i));
    }
  }
  const std::string& operator()(Rng* rng) const {
    return values[rng->Discrete(weights)];
  }

  const std::vector<std::string>& values;
  std::vector<double> weights;
};

// Vocabularies deliberately contain phonetically confusable entries
// (e.g. queens/quincy, boston/austin, heating/heeding) so that
// noisy speech recognition produces plausible alternative predicates.

const std::vector<std::string>& Boroughs() {
  static const std::vector<std::string> kValues = {
      "brooklyn", "bronx",  "manhattan", "queens",
      "quincy",   "bergen", "brookline", "staten island"};
  return kValues;
}

/// Builds table `name` from `num_rows` rows, each appended by
/// `append_row` to the column set it is handed, one value per column,
/// left to right. The rows go straight into run columns, which are
/// bulk-loaded as one sealed run every `TableOptions::max_compacted_rows`
/// rows and once more at the end.
template <typename AppendRowFn>
std::shared_ptr<Table> Generate(const std::string& name,
                                const std::vector<ColumnSpec>& schema,
                                size_t num_rows, AppendRowFn append_row) {
  // Static schemas below are valid by construction.
  std::shared_ptr<Table> table = *Table::Create(name, schema);
  const size_t run_rows = table->options().max_compacted_rows;
  std::vector<Column> columns = db::lsm::Run::EmptyColumns(schema);
  for (size_t r = 0; r < num_rows; ++r) {
    append_row(columns);
    if (columns.front().size() == run_rows || r + 1 == num_rows) {
      Status st = table->AppendRun(
          std::exchange(columns, db::lsm::Run::EmptyColumns(schema)));
      (void)st;  // The columns come from the table's own schema.
    }
  }
  return table;
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

  const SkewedDraw contact_type(kContactTypes), industry(kIndustries),
      region(kRegions), channel(kChannels);
  return Generate(
      "ads",
      {{"contact_type", ValueType::kString},
       {"industry", ValueType::kString},
       {"region", ValueType::kString},
       {"channel", ValueType::kString},
       {"budget", ValueType::kDouble},
       {"impressions", ValueType::kInt64},
       {"clicks", ValueType::kInt64}},
      num_rows, [&](std::vector<Column>& row) {
        const int64_t impressions = rng->UniformInRange(100, 100000);
        const int64_t clicks = static_cast<int64_t>(
            impressions * rng->UniformDouble(0.001, 0.08));
        row[0].AppendString(contact_type(rng));
        row[1].AppendString(industry(rng));
        row[2].AppendString(region(rng));
        row[3].AppendString(channel(rng));
        row[4].AppendDouble(rng->LogNormal(7.0, 1.2));
        row[5].AppendInt64(impressions);
        row[6].AppendInt64(clicks);
      });
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

  const SkewedDraw borough(Boroughs()), job_type(kJobTypes),
      job_status(kStatuses), owner_type(kOwnerTypes);
  return Generate(
      "dob",
      {{"borough", ValueType::kString},
       {"job_type", ValueType::kString},
       {"job_status", ValueType::kString},
       {"owner_type", ValueType::kString},
       {"existing_stories", ValueType::kInt64},
       {"proposed_stories", ValueType::kInt64},
       {"initial_cost", ValueType::kDouble}},
      num_rows, [&](std::vector<Column>& row) {
        const int64_t existing = rng->UniformInRange(1, 40);
        row[0].AppendString(borough(rng));
        row[1].AppendString(job_type(rng));
        row[2].AppendString(job_status(rng));
        row[3].AppendString(owner_type(rng));
        row[4].AppendInt64(existing);
        row[5].AppendInt64(existing + rng->UniformInRange(-2, 10));
        row[6].AppendDouble(rng->LogNormal(11.0, 1.5));
      });
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

  const SkewedDraw borough(Boroughs()), complaint_type(kComplaints),
      agency(kAgencies), status(kStatuses), channel(kChannels);
  return Generate(
      "nyc311",
      {{"borough", ValueType::kString},
       {"complaint_type", ValueType::kString},
       {"agency", ValueType::kString},
       {"status", ValueType::kString},
       {"channel", ValueType::kString},
       {"open_hours", ValueType::kDouble},
       {"precinct", ValueType::kInt64}},
      num_rows, [&](std::vector<Column>& row) {
        row[0].AppendString(borough(rng));
        row[1].AppendString(complaint_type(rng));
        row[2].AppendString(agency(rng));
        row[3].AppendString(status(rng));
        row[4].AppendString(channel(rng));
        row[5].AppendDouble(rng->LogNormal(3.0, 1.4));
        row[6].AppendInt64(rng->UniformInRange(1, 123));
      });
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

  const SkewedDraw city(kCities), carrier(kCarriers);
  return Generate(
      "flights",
      {{"origin", ValueType::kString},
       {"dest", ValueType::kString},
       {"carrier", ValueType::kString},
       {"month", ValueType::kString},
       {"day_of_week", ValueType::kString},
       {"dep_delay", ValueType::kDouble},
       {"arr_delay", ValueType::kDouble},
       {"distance", ValueType::kInt64},
       {"air_time", ValueType::kDouble}},
      num_rows, [&](std::vector<Column>& row) {
        const double dep_delay = rng->Normal(8.0, 25.0);
        const int64_t distance = rng->UniformInRange(120, 3000);
        row[0].AppendString(city(rng));
        row[1].AppendString(city(rng));
        row[2].AppendString(carrier(rng));
        row[3].AppendString(kMonths[rng->UniformInt(kMonths.size())]);
        row[4].AppendString(kWeekdays[rng->UniformInt(kWeekdays.size())]);
        row[5].AppendDouble(dep_delay);
        row[6].AppendDouble(dep_delay + rng->Normal(0.0, 12.0));
        row[7].AppendInt64(distance);
        row[8].AppendDouble(static_cast<double>(distance) / 8.0 +
                            rng->Normal(20.0, 10.0));
      });
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
