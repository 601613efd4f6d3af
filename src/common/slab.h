// Slab — chunked storage for cache entries, addressed by 32-bit ids.
//
// The proxy content store and the DataNode SA-LRU hold hundreds of
// thousands of small entries. A heap node per entry (plus a list node
// for its LRU position) costs an allocation per first-time fill and
// ~16 B of allocator header and rounding per node. A Slab keeps the
// entries in a few large chunks instead: an entry is named by its
// uint32_t id, the caches link their LRU lists and hash chains by id,
// and their hash indexes map to ids (4 B) instead of pointers or list
// iterators (8 B).
//
// Layout follows MemTable's row store: ids index full chunks of kChunk
// entries, and only the first chunk grows geometrically, so a store
// holding a handful of entries never pays for a whole chunk. An empty
// slab allocates nothing. Growing the first chunk moves its entries, so
// a reference into the slab is valid only until the next Allocate;
// Free never moves anything.
//
// Freed ids are recycled LIFO through a free list threaded through the
// entry's own `next` field (the caches' LRU link, unused while the entry
// is free). A recycled entry keeps whatever its last user left in it —
// callers release what they must (a payload handle, say) before Free,
// and overwrite every field after Allocate. Keeping the key string's
// capacity is the point: an evict-then-fill reuses it.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace abase {

/// `T` must be default-constructible and have a `uint32_t next` member;
/// the List operations also need a `uint32_t prev`.
template <typename T>
class Slab {
 public:
  static constexpr uint32_t kNil = 0xffffffffu;
  /// Entries per full chunk.
  static constexpr size_t kChunk = 512;

  /// A doubly linked list threaded through the entries' prev/next ids
  /// (the caches' LRU lists): front = most recent.
  struct List {
    uint32_t head = kNil;
    uint32_t tail = kNil;
  };

  /// Id of an entry to (re)fill: the most recently freed one, or a new
  /// default-constructed one.
  uint32_t Allocate() {
    live_++;
    if (free_ != kNil) {
      const uint32_t id = free_;
      free_ = (*this)[id].next;
      return id;
    }
    assert(high_ < kNil);
    if (high_ % kChunk == 0) chunks_.emplace_back();
    std::vector<T>& c = chunks_.back();
    if (c.size() == c.capacity()) {
      // Only the first chunk is ever short of kChunk: it doubles from 8.
      c.reserve(chunks_.size() > 1
                    ? kChunk
                    : std::min(kChunk, std::max<size_t>(8, 2 * c.capacity())));
    }
    c.emplace_back();
    return high_++;
  }

  /// Returns `id` to the free list. The entry must be out of every list
  /// and index that names it.
  void Free(uint32_t id) {
    assert(live_ > 0);
    live_--;
    (*this)[id].next = free_;
    free_ = id;
  }

  T& operator[](uint32_t id) {
    assert(id < high_);
    return chunks_[id / kChunk][id % kChunk];
  }
  const T& operator[](uint32_t id) const {
    assert(id < high_);
    return chunks_[id / kChunk][id % kChunk];
  }

  void PushFront(List& list, uint32_t id) {
    T& e = (*this)[id];
    e.prev = kNil;
    e.next = list.head;
    if (list.head != kNil) {
      (*this)[list.head].prev = id;
    } else {
      list.tail = id;
    }
    list.head = id;
  }

  void Unlink(List& list, uint32_t id) {
    const T& e = (*this)[id];
    if (e.prev != kNil) {
      (*this)[e.prev].next = e.next;
    } else {
      list.head = e.next;
    }
    if (e.next != kNil) {
      (*this)[e.next].prev = e.prev;
    } else {
      list.tail = e.prev;
    }
  }

  void MoveToFront(List& list, uint32_t id) {
    if (list.head == id) return;
    Unlink(list, id);
    PushFront(list, id);
  }

  /// Destroys every entry and releases the storage.
  void Clear() {
    std::vector<std::vector<T>>().swap(chunks_);
    high_ = 0;
    live_ = 0;
    free_ = kNil;
  }

  /// Entries allocated and not freed.
  size_t size() const { return live_; }

 private:
  std::vector<std::vector<T>> chunks_;
  uint32_t high_ = 0;  ///< Ids ever handed out (all below this exist).
  uint32_t live_ = 0;
  uint32_t free_ = kNil;  ///< Head of the free list.
};

}  // namespace abase
