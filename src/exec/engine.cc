#include "exec/engine.h"

#include <algorithm>
#include <cmath>
#include <future>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "db/executor.h"
#include "shard/scatter_gather.h"

namespace muve::exec {

namespace {

/// Outcome of one merge unit: the (candidate index, value) pairs it
/// answered, or the error that stopped it. Units compute into private
/// buffers; the engine applies buffers to Execution::values in unit
/// order, so the final vector is identical to the serial loop's
/// regardless of completion order.
struct UnitOutcome {
  Status status;
  std::vector<std::pair<size_t, double>> values;
  /// Remote shard stripes dropped from this unit's gather.
  size_t shards_dropped = 0;
};

/// Scans one merge unit over `snapshot` through shard::ScatterGather.
/// `scatter` says how the scan draws from the shared pool
/// (`executor.pool` row-partitions a one-partition scan or runs shard
/// scans as parallel tasks), its deadline, and — for the router — the
/// remote backend. Values of a sampled scan
/// (`sample_fraction` < 1) are scaled back up.
UnitOutcome ExecuteUnit(const MergeUnit& unit,
                        const db::ShardedSnapshot& snapshot,
                        const core::CandidateSet& candidates,
                        double sample_fraction,
                        shard::ScatterOptions scatter) {
  UnitOutcome out;
  shard::ScatterStats scatter_stats;
  scatter.stats = &scatter_stats;
  const bool sampled = sample_fraction < 1.0;
  if (unit.merged) {
    Result<db::GroupByResult> result = shard::ScatterGather::ExecuteGrouped(
        snapshot, unit.group_query, scatter);
    out.shards_dropped = scatter_stats.shards_dropped;
    if (!result.ok()) {
      out.status = result.status();
      return out;
    }
    for (size_t g = 0; g < unit.cell_candidate.size(); ++g) {
      for (size_t a = 0; a < unit.cell_candidate[g].size(); ++a) {
        const size_t idx = unit.cell_candidate[g][a];
        if (idx == SIZE_MAX) continue;
        double value = result->cells[g][a].value;
        if (sampled) {
          value = db::Executor::ScaleSampledValue(
              unit.group_query.aggregates[a].function, value,
              sample_fraction);
        }
        out.values.emplace_back(idx, value);
      }
    }
  } else {
    Result<db::AggregateResult> result = shard::ScatterGather::Execute(
        snapshot, candidates[unit.candidate].query, scatter);
    out.shards_dropped = scatter_stats.shards_dropped;
    if (!result.ok()) {
      out.status = result.status();
      return out;
    }
    double value = result->value;
    if (sampled) {
      value = db::Executor::ScaleSampledValue(
          candidates[unit.candidate].query.function, value,
          sample_fraction);
    }
    out.values.emplace_back(unit.candidate, value);
  }
  return out;
}

}  // namespace

Engine::Engine(std::shared_ptr<const db::Relation> relation,
               EngineOptions options)
    : relation_(std::move(relation)), options_(options) {
  const size_t threads =
      ThreadPool::ResolveThreadCount(options_.num_threads);
  if (threads >= 2) pool_ = std::make_unique<ThreadPool>(threads);
  // Calibration probe: time one full COUNT(*) scan and relate it to its
  // estimated cost, yielding cost-units-per-millisecond for
  // EstimateMillis (used by the dynamic approximate method).
  db::AggregateQuery probe;
  probe.table = relation_->name();
  probe.function = db::AggregateFunction::kCount;
  const db::ShardedSnapshot snapshot = relation_->SnapshotPartitions();
  StopWatch watch;
  auto result = shard::ScatterGather::Execute(snapshot, probe);
  const double millis = std::max(1e-3, watch.ElapsedMillis());
  if (result.ok()) {
    if (auto estimate = estimator_.Estimate(*relation_, probe);
        estimate.ok()) {
      cost_units_per_ms_ = estimate->total_cost / millis;
    }
  }
}

std::shared_ptr<const db::Relation> Engine::SampleRelation(double fraction) {
  if (fraction >= 1.0) return relation_;
  std::lock_guard<std::mutex> lock(samples_mutex_);
  auto it = samples_.find(fraction);
  if (it != samples_.end()) return it->second;
  std::shared_ptr<const db::Relation> sample = relation_->SampleRows(fraction);
  samples_.emplace(fraction, sample);
  return sample;
}

Result<Execution> Engine::Execute(const core::CandidateSet& candidates,
                                  const std::vector<size_t>& subset,
                                  double sample_fraction) {
  ExecControls controls;
  controls.sample_fraction = sample_fraction;
  return Execute(candidates, subset, controls);
}

Result<Execution> Engine::Execute(const core::CandidateSet& candidates,
                                  const std::vector<size_t>& subset,
                                  const ExecControls& controls) {
  Execution out;
  out.values.assign(candidates.size(), std::nan(""));
  if (subset.empty()) return out;

  // One snapshot for the whole batch: every unit — and therefore every
  // plot of a multiplot answer — scans the same frozen version (of every
  // partition) while a concurrent writer keeps appending to the live
  // relation.
  const std::shared_ptr<const db::Relation> scan_relation =
      SampleRelation(std::clamp(controls.sample_fraction, 0.0, 1.0));
  const db::ShardedSnapshot snapshot = scan_relation->SnapshotPartitions();
  out.snapshot_version = snapshot.version;

  const std::vector<MergeUnit> units = PlanMergedExecution(
      candidates, subset, *relation_, estimator_, options_.enable_merging);
  out.queries_issued = units.size();
  out.estimated_cost =
      EstimateUnitsCost(units, *scan_relation, estimator_, candidates);

  StopWatch watch;
  MUVE_RETURN_NOT_OK(
      ExecuteUnitsBounded(units, snapshot, candidates, controls, &out));
  out.measured_millis = watch.ElapsedMillis();
  out.modeled_millis =
      out.measured_millis +
      options_.per_query_overhead_ms * static_cast<double>(units.size());
  return out;
}

Status Engine::ExecuteUnitsBounded(const std::vector<MergeUnit>& units,
                                   const db::ShardedSnapshot& snapshot,
                                   const core::CandidateSet& candidates,
                                   const ExecControls& controls,
                                   Execution* out) {
  // The unit answering the base candidate (index 0) is protected: it
  // runs first and without cancellation so the bottom rung of the
  // degradation ladder — a base-query-only plot — always materializes.
  // Every other unit checks the deadline before it starts and its scan
  // cancels at partition granularity; under a finite deadline a unit cut
  // either way is dropped (its candidates keep NaN) instead of blocking
  // the answer, bounding the overshoot past the deadline to one
  // partition grain. An infinite deadline never cuts a unit.
  size_t base_unit = units.size();
  for (size_t u = 0; u < units.size() && base_unit == units.size(); ++u) {
    if (units[u].merged) {
      for (const auto& row : units[u].cell_candidate) {
        for (size_t idx : row) {
          if (idx == 0) base_unit = u;
        }
      }
    } else if (units[u].candidate == 0) {
      base_unit = u;
    }
  }

  // Independent units run concurrently with serial per-unit scans: never
  // two levels of parallelism at once, so pool tasks never wait on
  // sub-tasks of the same pool. A lone unit instead parallelizes its
  // scan — by rows (one partition), or across shards.
  shard::ScatterOptions base_options;  // No deadline: uncancellable.
  base_options.executor.pool = units.size() == 1 ? pool_.get() : nullptr;
  // Remote partials apply only to the primary relation: samples are
  // local tables the router materialized itself (the shard servers hold
  // full-resolution stripes, not samples).
  if (controls.sample_fraction >= 1.0) {
    base_options.backend = options_.remote_backend;
  }
  shard::ScatterOptions rest_options = base_options;
  rest_options.executor.deadline = controls.deadline;

  auto run_unit = [&](size_t u) -> UnitOutcome {
    if (u != base_unit && controls.deadline.Expired()) {
      UnitOutcome skipped;
      skipped.status =
          Status::Timeout("merge unit skipped: deadline expired");
      return skipped;
    }
    return ExecuteUnit(units[u], snapshot, candidates,
                       controls.sample_fraction,
                       u == base_unit ? base_options : rest_options);
  };

  std::vector<UnitOutcome> outcomes(units.size());
  if (pool_ != nullptr && units.size() >= 2) {
    // The base unit is submitted first so it starts as early as possible.
    std::vector<std::future<UnitOutcome>> futures(units.size());
    if (base_unit < units.size()) {
      futures[base_unit] =
          pool_->Submit([&run_unit, base_unit] { return run_unit(base_unit); });
    }
    for (size_t u = 0; u < units.size(); ++u) {
      if (u == base_unit) continue;
      futures[u] = pool_->Submit([&run_unit, u] { return run_unit(u); });
    }
    for (size_t u = 0; u < units.size(); ++u) {
      outcomes[u] = futures[u].get();
    }
  } else {
    if (base_unit < units.size()) outcomes[base_unit] = run_unit(base_unit);
    for (size_t u = 0; u < units.size(); ++u) {
      if (u != base_unit) outcomes[u] = run_unit(u);
    }
  }

  // Apply in unit order; the first error in unit order (after the
  // drops) is the batch's status.
  const bool finite = controls.deadline.IsFinite();
  for (size_t u = 0; u < units.size(); ++u) {
    const UnitOutcome& outcome = outcomes[u];
    out->shards_dropped += outcome.shards_dropped;
    if (!outcome.status.ok()) {
      if (finite && outcome.status.code() == StatusCode::kTimeout &&
          u != base_unit) {
        ++out->units_dropped;
        out->deadline_hit = true;
        continue;
      }
      return outcome.status;
    }
    for (const auto& [idx, value] : outcome.values) {
      out->values[idx] = value;
    }
  }
  return Status::OK();
}

Result<Execution> Engine::ExecuteMultiplot(
    const core::CandidateSet& candidates, core::Multiplot* multiplot,
    double sample_fraction) {
  ExecControls controls;
  controls.sample_fraction = sample_fraction;
  return ExecuteMultiplot(candidates, multiplot, controls);
}

Result<Execution> Engine::ExecuteMultiplot(
    const core::CandidateSet& candidates, core::Multiplot* multiplot,
    const ExecControls& controls) {
  std::vector<size_t> subset;
  multiplot->ForEachPlot([&](const core::Plot& plot) {
    for (const core::PlotBar& bar : plot.bars) {
      subset.push_back(bar.candidate_index);
    }
  });
  MUVE_ASSIGN_OR_RETURN(Execution execution,
                        Execute(candidates, subset, controls));
  multiplot->ForEachPlotMutable([&](core::Plot& plot) {
    for (core::PlotBar& bar : plot.bars) {
      bar.value = execution.values[bar.candidate_index];
      bar.approximate = controls.sample_fraction < 1.0;
    }
  });
  if (execution.deadline_hit) {
    // Drop unexecuted (dropped-unit) bars — their values are still NaN,
    // since every requested candidate whose unit completed got a value —
    // and plots that lose all bars. A partial answer beats a stale or
    // blocking one; the counts tell the caller what was cut.
    for (auto& row : multiplot->rows) {
      for (core::Plot& plot : row) {
        std::vector<core::PlotBar> kept;
        kept.reserve(plot.bars.size());
        for (core::PlotBar& bar : plot.bars) {
          if (std::isnan(bar.value)) {
            ++execution.bars_dropped;
          } else {
            kept.push_back(std::move(bar));
          }
        }
        plot.bars = std::move(kept);
      }
      const auto empty = [&](const core::Plot& plot) {
        if (!plot.bars.empty()) return false;
        ++execution.plots_dropped;
        return true;
      };
      row.erase(std::remove_if(row.begin(), row.end(), empty), row.end());
    }
  }
  return execution;
}

double Engine::EstimateMillis(const core::CandidateSet& candidates,
                              const std::vector<size_t>& subset) const {
  const std::vector<MergeUnit> units = PlanMergedExecution(
      candidates, subset, *relation_, estimator_, options_.enable_merging);
  const double cost =
      EstimateUnitsCost(units, *relation_, estimator_, candidates);
  return cost / std::max(1e-9, cost_units_per_ms_) +
         options_.per_query_overhead_ms * static_cast<double>(units.size());
}

}  // namespace muve::exec
