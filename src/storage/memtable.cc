#include "storage/memtable.h"

#include <algorithm>

namespace abase {
namespace storage {

namespace {

bool RowKeyLess(const MemTable::Row* a, const MemTable::Row* b) {
  return a->first < b->first;
}

}  // namespace

MemTable& MemTable::operator=(const MemTable& other) {
  if (this == &other) return *this;
  table_ = other.table_;
  bytes_ = other.bytes_;
  sorted_.clear();
  fresh_.clear();
  fresh_.reserve(table_.size());
  for (const Row& row : table_) fresh_.push_back(&row);
  return *this;
}

void MemTable::Put(ReplRecordPtr rec) {
  const uint64_t new_bytes = EntryBytes(*rec);
  auto [it, inserted] = table_.try_emplace(rec->key);
  if (inserted) {
    fresh_.push_back(&*it);
  } else {
    bytes_ -= EntryBytes(*it->second);
  }
  it->second = std::move(rec);
  bytes_ += new_bytes;
}

const ValueEntry* MemTable::Get(std::string_view key) const {
  // C++17 unordered_map lacks heterogeneous lookup; the scratch string
  // retains its capacity across probes so the lookup key never
  // allocates in steady state (not even past SSO range).
  lookup_scratch_.assign(key.data(), key.size());
  auto it = table_.find(lookup_scratch_);
  return it == table_.end() ? nullptr : &it->second->entry;
}

const std::vector<const MemTable::Row*>& MemTable::Sorted() const {
  if (fresh_.empty()) return sorted_;
  std::sort(fresh_.begin(), fresh_.end(), RowKeyLess);
  const size_t mid = sorted_.size();
  sorted_.insert(sorted_.end(), fresh_.begin(), fresh_.end());
  fresh_.clear();
  // Keys are unique, so the merge order is fully determined; new keys
  // that all sort past the view (ascending inserts) need no merge.
  if (mid > 0 && !RowKeyLess(sorted_[mid - 1], sorted_[mid])) {
    std::inplace_merge(sorted_.begin(),
                       sorted_.begin() + static_cast<ptrdiff_t>(mid),
                       sorted_.end(), RowKeyLess);
  }
  return sorted_;
}

std::vector<ReplRecordPtr> MemTable::TakeSorted() {
  std::vector<ReplRecordPtr> rows;
  rows.reserve(table_.size());
  // The view types rows const for its readers; they are this table's
  // own nodes, about to be cleared, so moving the handles out is safe.
  for (const Row* row : Sorted()) {
    rows.push_back(std::move(const_cast<Row*>(row)->second));
  }
  clear();
  return rows;
}

void MemTable::clear() {
  table_.clear();
  sorted_.clear();
  fresh_.clear();
  bytes_ = 0;
}

}  // namespace storage
}  // namespace abase
