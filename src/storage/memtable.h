// In-memory write buffer of the LSM engine: an open-addressing index
// from key to the latest version's shared record, with byte accounting
// that drives flush decisions, plus an incrementally maintained
// key-ordered view for the ordered consumers — flush, range scans, and
// split exports.
//
// The memtable stores no copy of its own: a row is the ReplRecordPtr the
// engine's write path built (or a primary shipped), the same record the
// replication logs and, after a flush, the SSTable runs hold
// (record.h). The key lives only in that record. Records are
// immutable, so nothing here ever mutates a stored version; an
// overwrite swaps the row's pointer.
//
// Layout, per row: the row itself (one 8-byte ReplRecordPtr in a
// chunked row store, so growth never relocates earlier chunks), 1.3–2.7
// 8-byte index slots (a linear-probing table of (row id, hash tag)
// pairs kept at most 3/4 full), and a 4-byte row id in the ordered
// view — 28–34 bytes with growth slack (DESIGN.md "Shared log
// records"). An empty memtable allocates nothing, which matters because
// every partition replica has its own. Rows are never erased one at a
// time, so row ids are dense and assigned in insertion order: the rows
// not yet in the ordered view are exactly the id range past its end.
// Sorted() sorts that tail and merges it in — O(n + k log k) for k new
// keys instead of re-sorting all n rows. Overwrites keep the view valid
// (a row keeps its id, and the key set is unchanged).
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "storage/record.h"

namespace abase {
namespace storage {

/// Key→record buffer. Not internally synchronized; the engine serializes
/// access.
class MemTable {
 public:
  /// Dense row handle: rows are numbered 0.. in insertion order.
  using RowId = uint32_t;

  /// Rows per full chunk of the row store.
  static constexpr size_t kChunkRows = 512;

  /// Makes `rec` the entry for `rec->key()`, replacing any older version.
  /// Shares the record: no key/value copy.
  void Put(ReplRecordPtr rec);

  /// The row holding the latest version of `key` — its record,
  /// tombstones included (callers must check), is `**slot` — or nullptr.
  /// The slot is valid until the next Put/clear of this memtable; a
  /// caller that copies the ReplRecordPtr out keeps the record past that.
  const ReplRecordPtr* Get(std::string_view key) const;

  size_t entry_count() const { return size_; }
  uint64_t approximate_bytes() const { return bytes_; }
  bool empty() const { return size_ == 0; }

  /// The handle of the newest version stored in row `id`
  /// (id < entry_count()).
  const ReplRecordPtr& row(RowId id) const {
    return chunks_[id / kChunkRows][id % kChunkRows];
  }
  /// The newest version stored in row `id`.
  const ReplRecord& record(RowId id) const { return *row(id); }

  /// Key-ordered view of the rows (as row ids) for scans and exports.
  /// Folds in the keys first seen since the last call; value updates
  /// never invalidate the view.
  const std::vector<RowId>& Sorted() const;

  /// Flush: hands out every row's record in key order and empties the
  /// table (keeping its index and view capacity for the next fill).
  std::vector<ReplRecordPtr> TakeSorted();

  /// Drops every row; keeps the index and view capacity.
  void clear();

 private:
  /// One index slot: `row` is the row id + 1 (0 = empty), `tag` the
  /// key's 32-bit hash, which also picks the home slot — so a growth
  /// re-places slots from their tags without touching a key.
  struct Slot {
    uint32_t row = 0;
    uint32_t tag = 0;
  };

  static uint64_t EntryBytes(const ReplRecord& rec) {
    return rec.key().size() + rec.PayloadBytes() + kEntryOverhead;
  }
  static uint32_t Tag(std::string_view key);

  /// Index of `key`'s slot, or of the empty slot that ends its probe
  /// sequence when the key is absent. The index must be non-empty.
  size_t Probe(std::string_view key, uint32_t tag) const;

  /// Doubles the index (or creates it) and re-places every slot.
  void GrowIndex();

  /// Fixed per-entry overhead (seq, type, TTL, node pointers).
  static constexpr uint64_t kEntryOverhead = 48;

  /// Row store: full chunks of kChunkRows rows, the last one filling.
  std::vector<std::vector<ReplRecordPtr>> chunks_;
  /// Linear-probing index; its size is zero or a power of two.
  std::vector<Slot> index_;
  /// Ordered view: ids of rows [0, sorted_.size()) in key order. Rows
  /// with larger ids were inserted since the last Sorted().
  mutable std::vector<RowId> sorted_;
  size_t size_ = 0;
  uint64_t bytes_ = 0;
};

}  // namespace storage
}  // namespace abase
