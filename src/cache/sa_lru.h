// SA-LRU — Size-Aware LRU (paper Section 4.4, DataNode-layer cache).
//
// Entries are grouped into size classes (powers of two of the payload
// size). Each class keeps its own LRU list and hit counters. When space is
// needed, the victim class is the one with the lowest *hit density* —
// recent hits per cached byte — so large, rarely-hit items are evicted
// before small, frequently-hit ones. This is the paper's "individual
// eviction policies for items of different sizes": retaining small data
// (cheap to keep, high aggregate hit yield) improves the overall hit ratio
// under mixed KV sizes.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "cache/cache_stats.h"
#include "common/clock.h"
#include "common/flat_map.h"
#include "common/shared_value.h"
#include "common/slab.h"

namespace abase {
namespace cache {

/// Tuning knobs for SA-LRU.
struct SaLruOptions {
  uint64_t capacity_bytes = 64ull << 20;
  /// Smallest size class covers (0, min_class_bytes]; each further class
  /// doubles the upper bound.
  uint64_t min_class_bytes = 256;
  int num_classes = 8;
  /// Hit counters decay by this factor whenever the cache evicts, so the
  /// density score tracks *recent* utility rather than all-time counts.
  double hit_decay = 0.98;
};

/// Size-aware LRU cache. Single-threaded (per-DataNode, serialized by the
/// simulator); wrap externally if shared.
class SaLruCache {
 public:
  /// `clock` is required only when entries carry expirations; without it
  /// all entries are treated as immortal.
  explicit SaLruCache(SaLruOptions options = {},
                      const Clock* clock = nullptr);

  /// Inserts or refreshes `key` with the given byte footprint. Oversized
  /// entries (charge > capacity) are rejected. `expire_at` of 0 means no
  /// expiry; a value's cache lifetime must not outlive its engine TTL.
  /// The entry stores a shared handle (common/shared_value.h); this form
  /// builds one from a copy of `value`. The request path passes the
  /// handle it already holds to PutHashed instead.
  bool Put(const std::string& key, std::string_view value, uint64_t charge,
           Micros expire_at = 0);

  /// Lookup; promotes within the entry's size class on hit. Expired
  /// entries are erased and count as misses.
  std::optional<std::string> Get(const std::string& key);

  /// Like Get, and also reports the entry's expiry deadline (0 = none)
  /// so callers can propagate TTLs to downstream caches.
  std::optional<std::string> GetWithExpiry(const std::string& key,
                                           Micros* expire_at);

  /// Zero-copy lookup: returns a pointer to the entry's payload handle
  /// (nullptr on miss), valid only until the next cache mutation. Same
  /// promotion and expiry semantics as GetWithExpiry. Copying the handle
  /// out shares the payload past that point: the request hot path hands
  /// it to the response without touching the bytes.
  const SharedValue* GetRef(const std::string& key, Micros* expire_at);

  bool Erase(const std::string& key);
  bool Contains(const std::string& key) const;

  // -- Hashed entry points ----------------------------------------------------
  // Identical semantics with a caller-computed HashString(key). The hot
  // request path carries the cache-key hash with the scheduler entry
  // (computed once at Submit from the replica's prefix-hash state), so
  // probes and write invalidations skip re-hashing the key bytes. The
  // hash MUST equal HashString(key); the full key still rides along for
  // collision detection.

  bool PutHashed(uint64_t hash, const std::string& key,
                 std::string_view value, uint64_t charge,
                 Micros expire_at = 0);
  /// Stores `value` itself: the entry shares the caller's payload (an
  /// engine record's bytes, say) instead of copying it. The handle is
  /// released when the entry is overwritten, erased, evicted or cleared.
  bool PutHashed(uint64_t hash, const std::string& key, SharedValue value,
                 uint64_t charge, Micros expire_at = 0);
  const SharedValue* GetRefHashed(uint64_t hash, const std::string& key,
                                  Micros* expire_at);
  bool EraseHashed(uint64_t hash, const std::string& key);

  /// Drops every entry (a node crash loses the in-memory cache). Hit/miss
  /// statistics are kept; class hit counters reset.
  void Clear();

  uint64_t used_bytes() const { return used_; }
  uint64_t capacity_bytes() const { return options_.capacity_bytes; }
  size_t entry_count() const { return map_.size(); }
  const CacheStats& stats() const { return stats_; }

  /// Bytes currently held by each size class (diagnostics / tests).
  std::vector<uint64_t> ClassBytes() const;
  /// Recent-hit density score of each class (hits per byte).
  std::vector<double> ClassDensity() const;

 private:
  /// One cached entry, in slab_ (80 bytes).
  struct Entry {
    std::string key;
    SharedValue value;
    uint64_t hash = 0;  ///< The caller's HashString(key): its index key.
    uint64_t charge = 0;  ///< Its size class is ClassFor(charge).
    Micros expire_at = 0;  ///< 0 = never.
    uint32_t prev = kNil;  ///< Toward the class list's front.
    uint32_t next = kNil;  ///< Toward the back; the free link while free.
  };
  static constexpr uint32_t kNil = Slab<Entry>::kNil;
  struct SizeClass {
    Slab<Entry>::List lru;  ///< Its tail is the class's next victim.
    uint64_t bytes = 0;
    double recent_hits = 0;  ///< Decayed hit counter.
  };

  int ClassFor(uint64_t charge) const;
  /// Picks the class with the lowest hit density that holds any bytes.
  int VictimClass() const;
  void EvictUntilFits(uint64_t incoming);
  void DecayHits();
  /// Takes entry `id` off its class list and out of the byte counts.
  void Detach(uint32_t id);
  /// Detaches `id`, drops it from the index and frees its slab entry.
  void Remove(uint32_t id);

  SaLruOptions options_;
  const Clock* clock_;
  /// Sized to num_classes by the first Put: an empty cache (a node that
  /// never served a read) allocates nothing.
  std::vector<SizeClass> classes_;
  Slab<Entry> slab_;
  /// Key-hash index (FNV-1a of the key string) → slab id; entries hold
  /// the full key, so a hash collision is detected by comparing it and
  /// treated as a miss (Get/Erase) or evicts the collided entry (Put).
  FlatMap64<uint32_t> map_;
  uint64_t used_ = 0;
  CacheStats stats_;
};

}  // namespace cache
}  // namespace abase
