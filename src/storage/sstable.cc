#include "storage/sstable.h"

#include <algorithm>

namespace abase {
namespace storage {

SsTable::SsTable(uint64_t id, std::vector<ReplRecordPtr> rows)
    : id_(id), rows_(std::move(rows)), bloom_(rows_.size()) {
  for (const ReplRecordPtr& rec : rows_) {
    bloom_.Add(rec->key());
    data_bytes_ += rec->key().size() + rec->PayloadBytes();
  }
  if (!rows_.empty()) {
    min_key_ = rows_.front()->key();
    max_key_ = rows_.back()->key();
  }
}

SstProbe SsTable::Get(std::string_view key) const {
  size_t hint = 0;
  return Get(KeyRef::From(key), &hint);
}

SstProbe SsTable::Get(std::string_view key, size_t* hint) const {
  return Get(KeyRef::From(key), hint);
}

SstProbe SsTable::Get(const KeyRef& kref, size_t* hint) const {
  const std::string_view key = kref.view();
  SstProbe probe;
  if (!KeyInRange(key) || !bloom_.MayContainHashed(kref.hash)) return probe;
  // Bloom said "maybe": charge one data-block read whether or not the key
  // is actually present (a false positive still reads the block).
  probe.block_reads = 1;
  // For ascending keys, lower_bound(key_i) >= lower_bound(key_{i-1}):
  // resuming from the hint searches the same final position as a full
  // binary search would.
  auto it = std::lower_bound(
      rows_.begin() + static_cast<ptrdiff_t>(*hint), rows_.end(), key,
      [](const ReplRecordPtr& row, std::string_view k) {
        return row->key() < k;
      });
  *hint = static_cast<size_t>(it - rows_.begin());
  if (it != rows_.end() && (*it)->key() == key) probe.rec = &*it;
  return probe;
}

}  // namespace storage
}  // namespace abase
