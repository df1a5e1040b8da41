#ifndef MUVE_DB_TABLE_H_
#define MUVE_DB_TABLE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "db/column.h"
#include "db/lsm/compaction.h"
#include "db/lsm/run.h"
#include "db/relation.h"
#include "db/schema.h"
#include "db/value.h"

namespace muve::db {

class TableSnapshot;

/// Storage-layer knobs of a versioned table.
struct TableOptions {
  /// Rows the open columns absorb before they are sealed into an
  /// immutable run. A multiple of the vectorized batch size keeps run
  /// boundaries aligned with batch boundaries on big scans.
  size_t flush_threshold = 4096;
  /// Background compaction is scheduled once the run count exceeds this
  /// (only when a compaction pool is attached).
  size_t max_runs = 8;
  /// One compaction round merges adjacent runs down to this many.
  size_t target_runs = 4;
  /// Cap on rows of any single merged run (see lsm::CompactionPolicy).
  size_t max_compacted_rows = 1 << 20;
};

/// An in-memory, versioned, single relation with LSM-flavoured storage.
/// MUVE queries a single table per voice query (paper §3), so the engine
/// is a single-table engine with no join support.
///
/// Layout: every stored row lives in a column. AppendRow appends each
/// validated row straight into the open column set, which only the
/// writer appends to; at `TableOptions::flush_threshold` rows (or on
/// Flush()) the open columns are frozen into an immutable `lsm::Run` and
/// a fresh set starts. AppendRun loads a whole column set as one run.
/// Background compaction (when enabled) concatenates adjacent runs into
/// bigger ones. Run order preserves append order, so the logical row
/// sequence is independent of the physical run layout. A scan's
/// floating-point fold order is not: the executor folds per-run partials
/// (see lsm::Run), so run boundaries are part of what an answer's bytes
/// depend on.
///
/// Concurrency contract (single writer, concurrent readers): one thread
/// at a time may call AppendRow or AppendRun, while any number of threads
/// read through snapshots. `Snapshot()` returns an immutable list of
/// runs — the sealed runs plus, when rows are open, a frozen copy of the
/// open columns taken under the table mutex — so an in-flight scan,
/// request, or serving session executes against one consistent version
/// while the writer proceeds. Snapshots also pin retired runs (and the
/// table itself) alive until the last reader drops them.
class Table : public Relation, public std::enable_shared_from_this<Table> {
 public:
  /// Creates a table with the given schema. Column names must be unique
  /// (case insensitive).
  static Result<std::shared_ptr<Table>> Create(
      std::string name, const std::vector<ColumnSpec>& schema,
      TableOptions options = {});

  const std::string& name() const override { return name_; }

  /// Total rows appended so far. Under concurrent ingest this is a
  /// moving target — scans read a snapshot's row count instead.
  size_t num_rows() const override {
    return num_rows_.load(std::memory_order_acquire);
  }

  /// Content version: bumped once per appended row (by AppendRow, and
  /// by AppendRun's row count), so it always equals num_rows(). Flushes
  /// and compactions reorganize storage without changing contents, so
  /// they do not bump it.
  uint64_t version() const override {
    return version_.load(std::memory_order_acquire);
  }

  /// Appends one row; `values` must match the schema arity and types
  /// (int64 promotes to double for DOUBLE columns). Bumps `version()`.
  /// Single writer: concurrent AppendRow calls must be serialized by the
  /// caller; readers never need to coordinate with the writer.
  Status AppendRow(const std::vector<Value>& values);

  /// Bulk load: appends `columns` — one per schema entry, in schema
  /// order, with the schema's names and types and equal lengths — as one
  /// sealed run, after sealing any open rows, so rows keep append order.
  /// Bumps `version()` by the row count and folds each string column's
  /// run dictionary into the vocabulary. On any mismatch returns
  /// InvalidArgument and leaves the table untouched; a zero-row set is a
  /// no-op. Same single-writer contract as AppendRow.
  Status AppendRun(std::vector<Column> columns);

  /// An immutable, consistent view of the current contents: the sealed
  /// runs and a frozen copy of the open rows at this instant (O(open
  /// rows), at most `flush_threshold`), pinned against flushes,
  /// compactions, and table destruction for the snapshot's lifetime.
  TableSnapshot Snapshot() const;

  // --- Schema and statistics -----------------------------------------

  const std::vector<ColumnSpec>& schema() const override { return schema_; }

  /// Vocabulary size of string column `index`; 0 for a numeric column.
  size_t DistinctCount(size_t index) const override;

  /// Distinct values of a string column in first-appearance order (the
  /// vocabulary the phonetic index and workload generators consume).
  /// Empty for numeric columns.
  std::vector<std::string> StringValues(size_t index) const override;

  using Relation::StringValues;

  /// Value at (row, col) of the current contents, read in place under the
  /// table mutex (no snapshot). Convenience for tests and data
  /// generation; scans use snapshots.
  Value ValueAt(size_t row, size_t col) const;

  /// Builds a new table containing a deterministic row sample of
  /// approximately `fraction` of this table (every k-th row of a
  /// snapshot), used for approximate query processing and data-size
  /// scaling experiments. The sample is bulk-loaded as one sealed run.
  std::shared_ptr<Table> Sample(double fraction) const;

  // --- db::Relation partitions ---------------------------------------

  /// One partition: this table's Snapshot().
  ShardedSnapshot SnapshotPartitions() const override;
  /// Sample(fraction).
  std::shared_ptr<const Relation> SampleRows(double fraction) const override;

  // --- LSM storage controls ------------------------------------------

  const TableOptions& options() const { return options_; }

  /// Seals the open columns into a run now (no-op when empty).
  void Flush();

  /// Synchronous compaction down to `TableOptions::target_runs`.
  void Compact();

  /// Attaches the worker pool that background compaction rounds are
  /// scheduled on: once the run count exceeds `TableOptions::max_runs`
  /// after a flush, one compaction task is submitted (never more than
  /// one in flight). The pool must outlive the table or be shut down
  /// first — a task finding the pool stopped simply skips the round.
  /// Pass nullptr to stop scheduling.
  void EnableBackgroundCompaction(ThreadPool* pool);

  /// Sealed runs (the open rows are not a run until sealed).
  size_t num_runs() const;
  /// Rows appended since the last seal.
  size_t memtable_rows() const;

 private:
  friend class TableSnapshot;

  Table(std::string name, std::vector<ColumnSpec> schema,
        TableOptions options);

  /// Seals the open columns into a run. Caller holds `mutex_`.
  void FlushLocked();

  /// Submits one background compaction task if warranted. Caller holds
  /// `mutex_`.
  void MaybeScheduleCompactionLocked();

  /// One full compaction round (plan, build merged runs, install).
  void CompactionRound();

  /// Entry point of the scheduled background task.
  void BackgroundCompact();

  std::string name_;
  std::vector<ColumnSpec> schema_;
  TableOptions options_;
  std::atomic<size_t> num_rows_{0};
  std::atomic<uint64_t> version_{0};

  /// Guards the storage state below (runs, open columns, vocabularies,
  /// compaction scheduling flag).
  mutable std::mutex mutex_;
  std::vector<std::shared_ptr<const lsm::Run>> runs_;
  /// The open column set: rows appended since the last seal. Only the
  /// writer appends to it; readers touch it only under mutex_ (the copy
  /// Snapshot() freezes, ValueAt), so no scan reads a column being
  /// appended to.
  std::vector<Column> open_;
  std::vector<ColumnStats> stats_;

  ThreadPool* compaction_pool_ = nullptr;
  bool compaction_scheduled_ = false;
  /// Serializes compaction rounds (manual and background).
  std::mutex compaction_mutex_;
};

}  // namespace muve::db

#endif  // MUVE_DB_TABLE_H_
