// Immutable, intrusively refcounted heap blocks, and the one payload
// representation the read path and in-flight writes build on them.
//
// A SharedBlock is the 4-byte header of a block allocated once and never
// written after construction: an atomic reference count. The block's
// last reference frees it with one `::operator delete`, so a block type
// must be trivially destructible and start with its SharedBlock (single,
// non-virtual inheritance). Storage write records (storage/record.h) and
// derived payloads are such blocks; RefPtr is the 8-byte handle to one.
//
// A SharedValue is 16 bytes: a reference to a block plus the offset and
// length of the bytes it views inside that block. A string value read
// from the engine — and a SET's write-through value, taken from the
// record LsmEngine::Put just built — aliases the write record itself
// (`SharedValue(*rec, rec->str())`): one more reference, no allocation.
// Payloads the engine does not store as-is — an HGETALL serialization,
// an HLEN count, a framed scan — are built once, directly into a fresh
// block (MakeSharedValue). Either way the node cache, the NodeResponse
// and the proxy content store then share those bytes by refcount
// instead of each keeping a copy.
//
// An in-flight write carries its payload the same way
// (ClientRequest::value, NodeRequest::value): a generated write aliases
// a prefix of its generator's immutable block of 'v' bytes (prefix()),
// and a client command's bytes are copied into one block when it
// becomes a request. The proxy's forward and the node's pending slot
// copy the handle, and each holder drops it once the request has moved
// on, so a settled write pins nothing.
//
// Lifetime rule: the bytes are immutable and live as long as any handle
// does. A holder that outlives an overwrite, flush or compaction keeps
// reading the old bytes — exactly the staleness a cache entry already
// has until its invalidation lands — and never dangles. Refcounts are
// atomic, so handles may cross data-plane workers.
#pragma once

#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <string_view>
#include <type_traits>
#include <utility>

namespace abase {

/// Header of an immutable refcounted block; see the file comment.
class SharedBlock {
 public:
  SharedBlock(const SharedBlock&) = delete;
  SharedBlock& operator=(const SharedBlock&) = delete;

  void Ref() const noexcept { refs_.fetch_add(1, std::memory_order_relaxed); }

  /// Drops one reference; the last one frees the whole block.
  void Unref() const noexcept {
    if (refs_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      ::operator delete(const_cast<SharedBlock*>(this));
    }
  }

  long use_count() const noexcept {
    return static_cast<long>(refs_.load(std::memory_order_relaxed));
  }

  /// The block's first byte (a SharedBlock starts its block).
  const char* block_start() const {
    return reinterpret_cast<const char*>(this);
  }

  /// Allocates a `total`-byte block and constructs its T header (which
  /// holds the one reference the caller adopts); T's trailing bytes
  /// follow at `block_start() + sizeof(T)`.
  template <typename T, typename... Args>
  static T* New(size_t total, Args&&... args) {
    static_assert(std::is_base_of_v<SharedBlock, T> &&
                      std::is_trivially_destructible_v<T>,
                  "a block is freed without running a destructor");
    assert(total >= sizeof(T));
    void* raw = ::operator new(total);
    T* block = new (raw) T(std::forward<Args>(args)...);
    assert(static_cast<void*>(static_cast<SharedBlock*>(block)) == raw);
    return block;
  }

 protected:
  SharedBlock() = default;
  ~SharedBlock() = default;

 private:
  mutable std::atomic<uint32_t> refs_{1};
};

/// 8-byte owning handle to a SharedBlock-derived T.
template <typename T>
class RefPtr {
 public:
  RefPtr() = default;
  RefPtr(std::nullptr_t) {}  // Implicit, so `rec = nullptr` reads.

  /// Takes over the reference a fresh SharedBlock::New block holds.
  static RefPtr Adopt(T* p) {
    RefPtr r;
    r.p_ = p;
    return r;
  }

  RefPtr(const RefPtr& o) : p_(o.p_) {
    if (p_ != nullptr) p_->Ref();
  }
  RefPtr(RefPtr&& o) noexcept : p_(std::exchange(o.p_, nullptr)) {}
  RefPtr& operator=(RefPtr o) noexcept {
    std::swap(p_, o.p_);
    return *this;
  }
  ~RefPtr() {
    if (p_ != nullptr) p_->Unref();
  }

  T* get() const { return p_; }
  T& operator*() const { return *p_; }
  T* operator->() const { return p_; }
  long use_count() const { return p_ != nullptr ? p_->use_count() : 0; }

  friend bool operator==(const RefPtr& a, const RefPtr& b) {
    return a.p_ == b.p_;
  }
  friend bool operator!=(const RefPtr& a, const RefPtr& b) {
    return a.p_ != b.p_;
  }

 private:
  T* p_ = nullptr;
};

/// Immutable shared payload bytes. Null means "no payload" (a write's or
/// a rejection's response).
class SharedValue {
 public:
  SharedValue() = default;
  SharedValue(std::nullptr_t) {}  // Implicit, so `v = nullptr` reads.

  /// Aliases `bytes`, which lie inside `owner`'s block: one more
  /// reference, no copy.
  SharedValue(const SharedBlock& owner, std::string_view bytes)
      : owner_(&owner),
        offset_(static_cast<uint32_t>(bytes.data() - owner.block_start())),
        size_(static_cast<uint32_t>(bytes.size())) {
    assert(bytes.data() >= owner.block_start());
    owner_->Ref();
  }

  SharedValue(const SharedValue& o)
      : owner_(o.owner_), offset_(o.offset_), size_(o.size_) {
    if (owner_ != nullptr) owner_->Ref();
  }
  SharedValue(SharedValue&& o) noexcept
      : owner_(std::exchange(o.owner_, nullptr)),
        offset_(o.offset_),
        size_(o.size_) {}
  SharedValue& operator=(SharedValue o) noexcept {
    std::swap(owner_, o.owner_);
    std::swap(offset_, o.offset_);
    std::swap(size_, o.size_);
    return *this;
  }
  ~SharedValue() {
    if (owner_ != nullptr) owner_->Unref();
  }

  /// The bytes; empty for a null handle.
  std::string_view view() const {
    return owner_ != nullptr
               ? std::string_view(owner_->block_start() + offset_, size_)
               : std::string_view();
  }
  /// Length of the bytes (0 for a null handle).
  size_t size() const { return size_; }
  /// Aliases the first `n` (<= size()) bytes: one more reference to the
  /// same block, no copy.
  SharedValue prefix(size_t n) const {
    assert(n <= size_);
    SharedValue v(*this);
    v.size_ = static_cast<uint32_t>(n);
    return v;
  }
  /// Holders of the underlying block (0 for a null handle).
  long use_count() const {
    return owner_ != nullptr ? owner_->use_count() : 0;
  }
  friend bool operator==(const SharedValue& v, std::nullptr_t) {
    return v.owner_ == nullptr;
  }
  friend bool operator!=(const SharedValue& v, std::nullptr_t) {
    return v.owner_ != nullptr;
  }

 private:
  const SharedBlock* owner_ = nullptr;
  uint32_t offset_ = 0;
  uint32_t size_ = 0;
};

/// The one allocation of a derived payload: a block of `len` bytes that
/// `fill(char* dst)` writes in place.
template <typename Fill>
SharedValue MakeSharedValue(size_t len, Fill&& fill) {
  struct Payload : SharedBlock {};
  Payload* block = SharedBlock::New<Payload>(sizeof(Payload) + len);
  char* dst = reinterpret_cast<char*>(block) + sizeof(Payload);
  fill(dst);
  SharedValue v(*block, std::string_view(dst, len));
  block->Unref();  // The handle holds the block now.
  return v;
}

/// A derived payload holding a copy of `bytes`.
inline SharedValue MakeSharedValue(std::string_view bytes) {
  return MakeSharedValue(bytes.size(), [bytes](char* dst) {
    if (!bytes.empty()) std::memcpy(dst, bytes.data(), bytes.size());
  });
}

/// The payload's bytes; empty for a null handle.
inline std::string_view ValueView(const SharedValue& v) { return v.view(); }

static_assert(sizeof(SharedValue) <= 16, "a payload handle is 16 bytes");

}  // namespace abase
