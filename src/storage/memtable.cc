#include "storage/memtable.h"

#include <algorithm>
#include <functional>

namespace abase {
namespace storage {

uint32_t MemTable::Tag(std::string_view key) {
  const uint64_t h = std::hash<std::string_view>{}(key);
  return static_cast<uint32_t>(h ^ (h >> 32));
}

void MemTable::GrowIndex() {
  std::vector<Slot> old = std::move(index_);
  index_.assign(old.empty() ? 4 : old.size() * 2, Slot{});
  const size_t mask = index_.size() - 1;
  for (const Slot& s : old) {
    if (s.row == 0) continue;
    size_t i = s.tag & mask;
    while (index_[i].row != 0) i = (i + 1) & mask;
    index_[i] = s;
  }
}

size_t MemTable::Probe(std::string_view key, uint32_t tag) const {
  const size_t mask = index_.size() - 1;
  size_t i = tag & mask;
  for (; index_[i].row != 0; i = (i + 1) & mask) {
    if (index_[i].tag == tag && record(index_[i].row - 1).key() == key) break;
  }
  return i;
}

void MemTable::Put(ReplRecordPtr rec) {
  if (index_.empty()) GrowIndex();
  const uint32_t tag = Tag(rec->key());
  size_t i = Probe(rec->key(), tag);
  bytes_ += EntryBytes(*rec);
  if (const uint32_t row = index_[i].row; row != 0) {
    ReplRecordPtr& cur =
        chunks_[(row - 1) / kChunkRows][(row - 1) % kChunkRows];
    bytes_ -= EntryBytes(*cur);
    cur = std::move(rec);
    return;
  }
  // First-seen key: the next row id.
  if ((size_ + 1) * 4 > index_.size() * 3) {
    GrowIndex();
    i = Probe(rec->key(), tag);
  }
  index_[i] = Slot{static_cast<uint32_t>(size_ + 1), tag};
  // The first chunk grows geometrically, so a small memtable holds only
  // what it uses; later chunks are allocated whole.
  if (size_ % kChunkRows == 0) {
    chunks_.emplace_back();
    if (chunks_.size() > 1) chunks_.back().reserve(kChunkRows);
  }
  chunks_.back().push_back(std::move(rec));
  size_++;
}

const ReplRecordPtr* MemTable::Get(std::string_view key) const {
  if (size_ == 0) return nullptr;
  const uint32_t row = index_[Probe(key, Tag(key))].row;
  if (row == 0) return nullptr;
  return &chunks_[(row - 1) / kChunkRows][(row - 1) % kChunkRows];
}

const std::vector<MemTable::RowId>& MemTable::Sorted() const {
  const size_t mid = sorted_.size();
  if (mid == size_) return sorted_;
  for (size_t id = mid; id < size_; id++) {
    sorted_.push_back(static_cast<RowId>(id));
  }
  auto key_less = [this](RowId a, RowId b) {
    return record(a).key() < record(b).key();
  };
  const auto tail = sorted_.begin() + static_cast<ptrdiff_t>(mid);
  std::sort(tail, sorted_.end(), key_less);
  // Keys are unique, so the merge order is fully determined; new keys
  // that all sort past the view (ascending inserts) need no merge.
  if (mid > 0 && !key_less(sorted_[mid - 1], sorted_[mid])) {
    std::inplace_merge(sorted_.begin(), tail, sorted_.end(), key_less);
  }
  return sorted_;
}

std::vector<ReplRecordPtr> MemTable::TakeSorted() {
  std::vector<ReplRecordPtr> rows;
  rows.reserve(size_);
  for (RowId id : Sorted()) {
    rows.push_back(std::move(chunks_[id / kChunkRows][id % kChunkRows]));
  }
  clear();
  return rows;
}

void MemTable::clear() {
  chunks_.clear();
  std::fill(index_.begin(), index_.end(), Slot{});
  sorted_.clear();
  size_ = 0;
  bytes_ = 0;
}

}  // namespace storage
}  // namespace abase
