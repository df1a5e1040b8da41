#ifndef MUVE_DB_COST_ESTIMATOR_H_
#define MUVE_DB_COST_ESTIMATOR_H_

#include "common/status.h"
#include "db/executor.h"
#include "db/query.h"
#include "db/relation.h"

namespace muve::db {

/// Output of a cost estimate, in the spirit of Postgres EXPLAIN's total
/// cost. MUVE uses these estimates to decide whether to merge queries and
/// to bound processing overheads during visualization planning (paper
/// §8.1). A scan's cost depends on the rows it reads and the predicates
/// and aggregates it evaluates per row, not on how many rows survive, so
/// there is no cardinality estimate.
struct CostEstimate {
  double total_cost = 0.0;  ///< Abstract cost units.
};

/// Plan-cost parameters, mirroring the Postgres seq-scan cost knobs.
struct CostParams {
  double seq_page_cost = 1.0;     ///< Per "page" (block of rows) read.
  double cpu_tuple_cost = 0.01;   ///< Per row processed.
  double cpu_operator_cost = 0.0025;  ///< Per predicate evaluation per row.
  double startup_cost = 20.0;     ///< Parse/plan/dispatch overhead.
  size_t rows_per_page = 128;     ///< Rows per simulated page.
};

/// Heuristic cost model for scans over in-memory tables.
class CostEstimator {
 public:
  explicit CostEstimator(CostParams params = CostParams())
      : params_(params) {}

  /// Estimates a single aggregation query (sequential scan + aggregate).
  Result<CostEstimate> Estimate(const Relation& table,
                                const AggregateQuery& query) const;

  /// Estimates a merged, grouped query: one scan evaluated once for all
  /// member queries (the merging benefit is one scan instead of N).
  Result<CostEstimate> EstimateGrouped(const Relation& table,
                                       const GroupByQuery& query) const;

  const CostParams& params() const { return params_; }

 private:
  double ScanCost(size_t rows, size_t num_predicates,
                  size_t num_aggregates) const;

  CostParams params_;
};

}  // namespace muve::db

#endif  // MUVE_DB_COST_ESTIMATOR_H_
