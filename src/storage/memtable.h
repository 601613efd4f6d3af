// In-memory write buffer of the LSM engine: a hash map from key to the
// latest version's shared record, with byte accounting that drives flush
// decisions, plus an incrementally maintained key-ordered view for the
// ordered consumers — flush, range scans, and split exports.
//
// The memtable stores no copy of its own: a row is the ReplRecordPtr the
// engine's WriteEntry materialized (or a primary shipped), the same
// record the WAL, the replication logs and, after a flush, the SSTable
// runs hold (replication_log.h). Records are immutable, so nothing here
// ever mutates a stored version; an overwrite swaps the pointer.
//
// Point writes dominate the data plane, so the primary index is a hash
// table. The ordered view is a vector of row pointers that stays live
// once built: overwrites keep it valid (rows are the table's nodes, whose
// addresses are stable, and the key set is unchanged), and a first-seen
// key only joins a small "fresh" list. Sorted() sorts that list and
// merges it into the view — O(n + k log k) for k new keys instead of
// re-sorting all n rows.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "storage/replication_log.h"
#include "storage/value.h"

namespace abase {
namespace storage {

/// Key→record buffer. Not internally synchronized; the engine serializes
/// access.
class MemTable {
 public:
  /// One stored row; `first` is the key, `second` the newest version.
  /// Matches the hash table's value_type so the ordered view can point
  /// straight at the nodes.
  using Row = std::pair<const std::string, ReplRecordPtr>;

  MemTable() = default;
  // The ordered view holds pointers into the table's nodes, so a copied
  // view would alias the *source* table. Copies start with every row
  // fresh (the view rebuilds on the next Sorted()); moves keep the view
  // (node pointers survive a map move).
  MemTable(const MemTable& other) { *this = other; }
  MemTable& operator=(const MemTable& other);
  MemTable(MemTable&&) = default;
  MemTable& operator=(MemTable&&) = default;

  /// Makes `rec` the entry for `rec->key`, replacing any older version.
  /// Shares the record: no key/value copy beyond a first-seen key's
  /// hash-table key.
  void Put(ReplRecordPtr rec);

  /// Latest entry for `key`, including tombstones (callers must check).
  /// Valid until the next Put/clear of this memtable.
  const ValueEntry* Get(std::string_view key) const;

  size_t entry_count() const { return table_.size(); }
  uint64_t approximate_bytes() const { return bytes_; }
  bool empty() const { return table_.empty(); }

  /// Key-ordered view of the rows for scans and exports. Folds in the
  /// keys first seen since the last call; row pointers are stable and
  /// value updates never invalidate the view.
  const std::vector<const Row*>& Sorted() const;

  /// Flush: hands out every row's record in key order and empties the
  /// table (keeping its bucket array for the next fill).
  std::vector<ReplRecordPtr> TakeSorted();

  /// Drops every row; keeps the bucket array.
  void clear();

 private:
  static uint64_t EntryBytes(const ReplRecord& rec) {
    return rec.key.size() + rec.entry.PayloadBytes() + kEntryOverhead;
  }

  /// Fixed per-entry overhead (seq, type, TTL, node pointers).
  static constexpr uint64_t kEntryOverhead = 48;

  std::unordered_map<std::string, ReplRecordPtr> table_;
  /// Ordered view over the rows; excludes the rows in `fresh_`.
  mutable std::vector<const Row*> sorted_;
  /// Rows inserted since the last Sorted(), in insertion order.
  mutable std::vector<const Row*> fresh_;
  /// Lookup key scratch: capacity retained across Get calls so probing
  /// never allocates (C++17 unordered_map lacks heterogeneous find).
  mutable std::string lookup_scratch_;
  uint64_t bytes_ = 0;
};

}  // namespace storage
}  // namespace abase
