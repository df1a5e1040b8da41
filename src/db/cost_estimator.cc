#include "db/cost_estimator.h"

namespace muve::db {

double CostEstimator::ScanCost(size_t rows, size_t num_predicates,
                               size_t num_aggregates) const {
  const double pages =
      static_cast<double>(rows + params_.rows_per_page - 1) /
      static_cast<double>(params_.rows_per_page);
  const double per_row =
      params_.cpu_tuple_cost +
      params_.cpu_operator_cost *
          static_cast<double>(num_predicates + num_aggregates);
  return params_.startup_cost + pages * params_.seq_page_cost +
         static_cast<double>(rows) * per_row;
}

Result<CostEstimate> CostEstimator::Estimate(
    const Relation& table, const AggregateQuery& query) const {
  // A query naming a missing column is an error (NotFound), not a cost.
  for (const Predicate& predicate : query.predicates) {
    MUVE_RETURN_NOT_OK(table.ColumnIndex(predicate.column).status());
  }
  CostEstimate out;
  out.total_cost = ScanCost(table.num_rows(), query.predicates.size(),
                            /*num_aggregates=*/1);
  return out;
}

Result<CostEstimate> CostEstimator::EstimateGrouped(
    const Relation& table, const GroupByQuery& query) const {
  for (const Predicate& predicate : query.shared_predicates) {
    MUVE_RETURN_NOT_OK(table.ColumnIndex(predicate.column).status());
  }
  // The IN list on the group column names a column as well.
  if (!query.group_values.empty()) {
    MUVE_RETURN_NOT_OK(table.ColumnIndex(query.group_column).status());
  }
  CostEstimate out;
  // One pass over the data; per-row work includes the group lookup
  // (counted as one extra predicate) and all aggregates.
  out.total_cost =
      ScanCost(table.num_rows(), query.shared_predicates.size() + 1,
               query.aggregates.size());
  return out;
}

}  // namespace muve::db
