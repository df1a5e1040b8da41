#ifndef MUVE_NLQ_SCHEMA_INDEX_H_
#define MUVE_NLQ_SCHEMA_INDEX_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "db/relation.h"
#include "phonetics/phonetic_index.h"

namespace muve::nlq {

/// A fuzzy value match: a categorical value, the column it belongs to,
/// and its phonetic similarity to the lookup term.
struct ValueMatch {
  std::string value;
  std::string column;
  double similarity = 0.0;
};

/// A fuzzy column match.
struct ColumnMatch {
  std::string column;
  double similarity = 0.0;
};

/// Phonetic indexes over a table's schema elements and categorical
/// values — the structure MUVE queries for "the k most phonetically
/// similar entries for each query element" (paper §3, via Lucene there).
///
/// The column indexes are immutable (the schema is fixed); the value
/// indexes grow with the table: SyncWithTable() absorbs string values
/// appended since the last sync, so a long-lived index stays current
/// under live ingest without a rebuild. Lookups may run
/// concurrently with a sync (readers take a shared lock).
class SchemaIndex {
 public:
  /// Builds the indexes over `table`'s current contents. Any Relation —
  /// a single db::Table or a shard::ShardedTable (whose catalog surface
  /// presents globally merged vocabularies) — works unchanged.
  /// `phonetic_options` is forwarded to every phonetic index (thread
  /// pool for parallel candidate scoring, brute-force oracle toggle).
  explicit SchemaIndex(std::shared_ptr<const db::Relation> table,
                       const phonetics::PhoneticIndexOptions&
                           phonetic_options = {});

  const db::Relation& table() const { return *table_; }

  /// Absorbs string values appended to the table since construction or
  /// the last sync into the value indexes (the distinct-value suffix of
  /// each string column, in first-appearance order). Cheap when nothing
  /// changed: one atomic version compare.
  void SyncWithTable();

  /// Table content version the value indexes reflect.
  uint64_t synced_version() const {
    return synced_version_.load(std::memory_order_acquire);
  }

  /// Total values absorbed by SyncWithTable() since construction: the
  /// vocabulary generation. It moves only when a new value arrives, never
  /// on a plain append, so anything derived from the vocabulary (the
  /// plan memo's entries) is current exactly while this count is
  /// unchanged. Values counted here are already visible to lookups.
  uint64_t values_absorbed() const {
    return values_absorbed_.load(std::memory_order_acquire);
  }

  /// Distinct values currently indexed across all string columns.
  size_t distinct_values() const;

  /// k columns most phonetically similar to `term`. `numeric_only`
  /// restricts matches to aggregatable (numeric) columns.
  std::vector<ColumnMatch> TopColumns(const std::string& term, size_t k,
                                      bool numeric_only = false) const;

  /// The k categorical values most phonetically similar to `term`,
  /// across all string columns, each expanded into one match per owning
  /// column (so the result can exceed k matches but never fewer than k
  /// distinct values when the vocabulary has them). Ranked by similarity,
  /// then value, then first-appearance owner order.
  std::vector<ValueMatch> TopValues(const std::string& term,
                                    size_t k) const;

  /// k values of one specific column most similar to `term`.
  std::vector<ValueMatch> TopValuesInColumn(const std::string& column,
                                            const std::string& term,
                                            size_t k) const;

  /// Columns owning the exact value `value` (case insensitive).
  std::vector<std::string> ColumnsOfValue(const std::string& value) const;

 private:
  /// Adds `value` (owned by `column_name`) to the value structures.
  /// Caller holds the exclusive lock (or is the constructor).
  void AbsorbValue(const std::string& column_name,
                   phonetics::PhoneticIndex& per_column,
                   const std::string& value);

  std::shared_ptr<const db::Relation> table_;
  phonetics::PhoneticIndexOptions phonetic_options_;

  // Immutable after construction (the schema is fixed).
  phonetics::PhoneticIndex all_columns_;
  phonetics::PhoneticIndex numeric_columns_;

  /// Guards the value structures below against concurrent SyncWithTable.
  mutable std::shared_mutex values_mutex_;
  phonetics::PhoneticIndex all_values_;
  std::unordered_map<std::string, std::vector<std::string>>
      columns_of_value_;  // Lower-cased value -> owning columns.
  std::unordered_map<std::string, phonetics::PhoneticIndex>
      values_per_column_;  // Lower-cased column name -> value index.
  std::vector<size_t> values_seen_;  // Distinct values absorbed per column.

  std::atomic<uint64_t> synced_version_{0};
  std::atomic<uint64_t> values_absorbed_{0};
};

}  // namespace muve::nlq

#endif  // MUVE_NLQ_SCHEMA_INDEX_H_
