#ifndef MUVE_WORKLOAD_DATASETS_H_
#define MUVE_WORKLOAD_DATASETS_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "db/relation.h"
#include "db/table.h"

namespace muve::workload {

/// Names of the four synthetic datasets mirroring the paper's evaluation
/// data (§9.1): "ads" (advertisement contacts from an industry partner),
/// "dob" (NYC Department of Buildings job filings), "nyc311" (NYC 311
/// service requests) and "flights" (flight delays, the largest).
const std::vector<std::string>& DatasetNames();

/// Builds one of the synthetic datasets with `num_rows` rows.
///
/// The generators preserve what the experiments depend on: single-table
/// schemas with several categorical (string) predicate columns whose
/// vocabularies contain phonetically confusable entries (so ASR noise
/// yields plausible alternative queries), several numeric aggregation
/// columns, and a row count that scales processing cost.
///
/// Every generator bulk-loads its rows (`db::Table::AppendRun`) as sealed
/// runs of up to `TableOptions::max_compacted_rows` rows — one run for a
/// table of up to 2^20 rows — so snapshots of a static table copy no open
/// rows. The values depend only on the seed and `num_rows`.
Result<std::shared_ptr<db::Table>> MakeDataset(std::string_view name,
                                               size_t num_rows,
                                               uint64_t seed);

/// Advertisement-contacts table.
std::shared_ptr<db::Table> MakeAdsTable(size_t num_rows, Rng* rng);

/// NYC Department of Buildings job-filings table.
std::shared_ptr<db::Table> MakeDobTable(size_t num_rows, Rng* rng);

/// NYC 311 service-requests table.
std::shared_ptr<db::Table> Make311Table(size_t num_rows, Rng* rng);

/// Flight-delays table (the paper's largest dataset).
std::shared_ptr<db::Table> MakeFlightsTable(size_t num_rows, Rng* rng);

/// All schema element names and categorical values of a relation (single
/// or sharded table): the vocabulary MUVE indexes phonetically (paper §3).
std::vector<std::string> BuildVocabulary(const db::Relation& table);

}  // namespace muve::workload

#endif  // MUVE_WORKLOAD_DATASETS_H_
