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

/// How one unit's scan draws from the shared pool: `db_options.pool` row-
/// partitions a single-table (or single-shard) scan; `shard_pool` runs
/// shard scans as parallel tasks. At most one of the two is ever set —
/// one level of parallelism at a time. `backend`, when set, sources the
/// shard partials remotely (the router path); `stats` receives its drop
/// counts.
Result<db::AggregateResult> ExecuteSingle(const ScanTarget& target,
                                          const db::AggregateQuery& query,
                                          const db::ExecutorOptions& db_options,
                                          ThreadPool* shard_pool,
                                          shard::PartialBackend* backend = nullptr,
                                          shard::ScatterStats* stats = nullptr) {
  if (!target.is_sharded()) {
    return db::Executor::Execute(target.single, query, db_options);
  }
  shard::ScatterOptions scatter;
  scatter.executor = db_options;
  scatter.shard_pool = shard_pool;
  scatter.backend = backend;
  scatter.stats = stats;
  return shard::ScatterGather::Execute(target.sharded, query, scatter);
}

Result<db::GroupByResult> ExecuteGroupedTarget(
    const ScanTarget& target, const db::GroupByQuery& query,
    const db::ExecutorOptions& db_options, ThreadPool* shard_pool,
    shard::PartialBackend* backend = nullptr,
    shard::ScatterStats* stats = nullptr) {
  if (!target.is_sharded()) {
    return db::Executor::ExecuteGrouped(target.single, query, db_options);
  }
  shard::ScatterOptions scatter;
  scatter.executor = db_options;
  scatter.shard_pool = shard_pool;
  scatter.backend = backend;
  scatter.stats = stats;
  return shard::ScatterGather::ExecuteGrouped(target.sharded, query, scatter);
}

UnitOutcome ExecuteUnit(const MergeUnit& unit, const ScanTarget& target,
                        const core::CandidateSet& candidates, bool sampled,
                        double sample_fraction,
                        const db::ExecutorOptions& db_options,
                        ThreadPool* shard_pool = nullptr,
                        shard::PartialBackend* backend = nullptr) {
  UnitOutcome out;
  shard::ScatterStats scatter_stats;
  if (unit.merged) {
    Result<db::GroupByResult> result =
        ExecuteGroupedTarget(target, unit.group_query, db_options, shard_pool,
                             backend, &scatter_stats);
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
    Result<db::AggregateResult> result =
        ExecuteSingle(target, candidates[unit.candidate].query, db_options,
                      shard_pool, backend, &scatter_stats);
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

Engine::Engine(std::shared_ptr<const db::Table> table, EngineOptions options)
    : table_(std::move(table)), options_(options) {
  relation_ = table_.get();
  Init();
}

Engine::Engine(std::shared_ptr<const shard::ShardedTable> table,
               EngineOptions options)
    : sharded_(std::move(table)), options_(options) {
  relation_ = sharded_.get();
  Init();
}

void Engine::Init() {
  const size_t threads =
      ThreadPool::ResolveThreadCount(options_.num_threads);
  if (threads >= 2) pool_ = std::make_unique<ThreadPool>(threads);
  // Calibration probe: time one full COUNT(*) scan and relate it to its
  // estimated cost, yielding cost-units-per-millisecond for
  // EstimateMillis (used by the dynamic approximate method).
  db::AggregateQuery probe;
  probe.table = relation_->name();
  probe.function = db::AggregateFunction::kCount;
  db::ExecutorOptions probe_options;
  ScanTarget target;
  if (sharded_ != nullptr) {
    target.sharded = sharded_->Snapshot();
  } else {
    target.single = table_->Snapshot();
  }
  StopWatch watch;
  auto result = ExecuteSingle(target, probe, probe_options, nullptr);
  const double millis = std::max(1e-3, watch.ElapsedMillis());
  if (result.ok()) {
    if (auto estimate = estimator_.Estimate(*relation_, probe);
        estimate.ok()) {
      cost_units_per_ms_ = estimate->total_cost / millis;
    }
  }
}

std::shared_ptr<const db::Table> Engine::SampleTable(double fraction) {
  if (fraction >= 1.0) return table_;
  std::lock_guard<std::mutex> lock(samples_mutex_);
  auto it = samples_.find(fraction);
  if (it != samples_.end()) return it->second;
  std::shared_ptr<const db::Table> sample = table_->Sample(fraction);
  samples_.emplace(fraction, sample);
  return sample;
}

std::shared_ptr<const shard::ShardedTable> Engine::SampleSharded(
    double fraction) {
  if (fraction >= 1.0) return sharded_;
  std::lock_guard<std::mutex> lock(samples_mutex_);
  auto it = sharded_samples_.find(fraction);
  if (it != sharded_samples_.end()) return it->second;
  std::shared_ptr<const shard::ShardedTable> sample =
      sharded_->Sample(fraction);
  sharded_samples_.emplace(fraction, sample);
  return sample;
}

const db::Relation& Engine::SnapshotTarget(double fraction,
                                           ScanTarget* target) {
  if (sharded_ != nullptr) {
    const std::shared_ptr<const shard::ShardedTable> sampled =
        SampleSharded(fraction);
    target->sharded = sampled->Snapshot();
    return *sampled;
  }
  const std::shared_ptr<const db::Table> sampled = SampleTable(fraction);
  target->single = sampled->Snapshot();
  return *sampled;
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
  const double sample_fraction = controls.sample_fraction;
  Execution out;
  out.values.assign(candidates.size(), std::nan(""));
  if (subset.empty()) return out;

  const bool sampled = sample_fraction < 1.0;

  // One snapshot for the whole batch: every unit — and therefore every
  // plot of a multiplot answer — scans the same frozen version (of every
  // shard, when sharded) while a concurrent writer keeps appending to
  // the live table.
  ScanTarget target;
  const db::Relation& scan_relation =
      SnapshotTarget(std::clamp(sample_fraction, 0.0, 1.0), &target);
  out.snapshot_version = target.version();

  // Remote partials apply only to the primary sharded table: samples are
  // local tables the router materialized itself (the shard servers hold
  // full-resolution stripes, not samples).
  shard::PartialBackend* const backend =
      (!sampled && target.is_sharded()) ? options_.remote_backend : nullptr;

  const std::vector<MergeUnit> units = PlanMergedExecution(
      candidates, subset, *relation_, estimator_, options_.enable_merging);
  out.queries_issued = units.size();
  out.estimated_cost =
      EstimateUnitsCost(units, scan_relation, estimator_, candidates);

  StopWatch watch;
  if (controls.deadline.IsFinite()) {
    MUVE_RETURN_NOT_OK(ExecuteUnitsBounded(units, target, candidates,
                                           sampled, controls, &out));
  } else if (pool_ != nullptr && units.size() >= 2) {
    // Independent units run concurrently with serial per-unit scans
    // (serial per-unit shard loops, when sharded): never two levels of
    // parallelism at once, so pool tasks never wait on sub-tasks of the
    // same pool.
    std::vector<std::future<UnitOutcome>> futures;
    futures.reserve(units.size());
    for (const MergeUnit& unit : units) {
      futures.push_back(pool_->Submit([&unit, &target, &candidates,
                                       sampled, sample_fraction, backend] {
        return ExecuteUnit(unit, target, candidates, sampled,
                           sample_fraction, db::ExecutorOptions{}, nullptr,
                           backend);
      }));
    }
    std::vector<UnitOutcome> outcomes;
    outcomes.reserve(units.size());
    for (std::future<UnitOutcome>& future : futures) {
      outcomes.push_back(future.get());
    }
    // Apply in unit order; report the first error in unit order, which
    // is the status the serial loop would have returned.
    for (const UnitOutcome& outcome : outcomes) {
      out.shards_dropped += outcome.shards_dropped;
      MUVE_RETURN_NOT_OK(outcome.status);
      for (const auto& [idx, value] : outcome.values) {
        out.values[idx] = value;
      }
    }
  } else {
    // Serial across units; a lone unit may still parallelize its scan
    // when a pool exists — by rows (unsharded), or across shards with
    // row partitioning inside each shard task's slack (sharded).
    db::ExecutorOptions db_options;
    ThreadPool* shard_pool = nullptr;
    if (units.size() == 1) {
      db_options.pool = pool_.get();
      shard_pool = pool_.get();
    }
    for (const MergeUnit& unit : units) {
      const UnitOutcome outcome =
          ExecuteUnit(unit, target, candidates, sampled, sample_fraction,
                      db_options, shard_pool, backend);
      out.shards_dropped += outcome.shards_dropped;
      MUVE_RETURN_NOT_OK(outcome.status);
      for (const auto& [idx, value] : outcome.values) {
        out.values[idx] = value;
      }
    }
  }
  out.measured_millis = watch.ElapsedMillis();
  out.modeled_millis =
      out.measured_millis +
      options_.per_query_overhead_ms * static_cast<double>(units.size());
  return out;
}

Status Engine::ExecuteUnitsBounded(const std::vector<MergeUnit>& units,
                                   const ScanTarget& target,
                                   const core::CandidateSet& candidates,
                                   bool sampled,
                                   const ExecControls& controls,
                                   Execution* out) {
  // The unit answering the base candidate (index 0) is protected: it
  // runs without cancellation so the bottom rung of the degradation
  // ladder — a base-query-only plot — always materializes. Every other
  // unit checks the deadline before it starts and its scan cancels at
  // partition granularity; a unit cut either way is dropped (its
  // candidates keep NaN) instead of blocking the answer, bounding the
  // overshoot past the deadline to one partition grain.
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

  db::ExecutorOptions base_options;  // No deadline: uncancellable.
  db::ExecutorOptions rest_options = base_options;
  rest_options.deadline = controls.deadline;
  ThreadPool* base_shard_pool = nullptr;
  if (units.size() == 1) {
    base_options.pool = pool_.get();
    base_shard_pool = pool_.get();
  }

  const double sample_fraction = controls.sample_fraction;
  shard::PartialBackend* const backend =
      (!sampled && target.is_sharded()) ? options_.remote_backend : nullptr;
  auto run_unit = [&](size_t u) -> UnitOutcome {
    if (u != base_unit && controls.deadline.Expired()) {
      UnitOutcome skipped;
      skipped.status =
          Status::Timeout("merge unit skipped: deadline expired");
      return skipped;
    }
    return ExecuteUnit(units[u], target, candidates, sampled,
                       sample_fraction,
                       u == base_unit ? base_options : rest_options,
                       u == base_unit ? base_shard_pool : nullptr, backend);
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

  for (size_t u = 0; u < units.size(); ++u) {
    const UnitOutcome& outcome = outcomes[u];
    out->shards_dropped += outcome.shards_dropped;
    if (!outcome.status.ok()) {
      if (outcome.status.code() == StatusCode::kTimeout && u != base_unit) {
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
