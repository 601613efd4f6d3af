// AU-LRU — Active-Update LRU (paper Section 4.4, proxy-layer cache).
//
// A TTL'd LRU with an *active update* mechanism: when a hot entry is
// accessed close to its expiry, the cache reports that the entry should be
// refreshed. The proxy then re-fetches from the DataNode in the background
// and re-inserts, so a hot key never actually expires and its traffic never
// stampedes the DataNode — the "potential spikes in requests due to expired
// cache entries" the paper calls out.
#pragma once

#include <cstdint>
#include <list>
#include <string>
#include <string_view>
#include <vector>

#include "cache/cache_stats.h"
#include "common/clock.h"
#include "common/flat_map.h"

namespace abase {
namespace cache {

/// AU-LRU tuning.
struct AuLruOptions {
  uint64_t capacity_bytes = 8ull << 20;  ///< Proxies have small memory
                                         ///< budgets (<10 GB in prod;
                                         ///< scaled down here).
  Micros default_ttl = 60 * kMicrosPerSecond;
  /// An access within this window before expiry marks the entry for
  /// active refresh.
  Micros refresh_window = 10 * kMicrosPerSecond;
  /// Minimum accesses inside the current TTL period for an entry to be
  /// considered hot enough to refresh proactively.
  uint32_t refresh_min_hits = 2;
};

/// Result of an AU-LRU lookup. `value` borrows the cached string — it
/// stays valid only until the next cache mutation; callers that need the
/// payload beyond that must copy it (the hot path only needs the size).
struct AuLookup {
  bool hit = false;
  bool needs_refresh = false;      ///< Caller should re-fetch + Put soon.
  /// The hit's bytes (empty on a miss); valid until the next call
  /// that mutates the cache.
  std::string_view value;
};

/// Active-update LRU cache with per-entry TTL. Single-threaded.
class AuLruCache {
 public:
  AuLruCache(AuLruOptions options, const Clock* clock);

  /// Inserts or refreshes `key`. `ttl` of 0 uses the default TTL. Resets
  /// the entry's refresh bookkeeping.
  bool Put(const std::string& key, std::string value, uint64_t charge,
           Micros ttl = 0);

  /// Lookup. Expired entries count as misses and are erased. A hit close
  /// to expiry on a hot entry sets `needs_refresh` (once per TTL period).
  AuLookup Get(const std::string& key);

  bool Erase(const std::string& key);
  /// Erase with a caller-computed HashString(key) — write-invalidation
  /// broadcasts hash once and erase across every proxy of the tenant.
  bool EraseHashed(uint64_t hash, const std::string& key);
  bool Contains(const std::string& key) const;

  /// Entries currently flagged for refresh and not yet re-Put. The proxy
  /// drains this each tick to schedule background re-fetches.
  std::vector<std::string> TakeRefreshQueue();

  uint64_t used_bytes() const { return used_; }
  uint64_t capacity_bytes() const { return options_.capacity_bytes; }
  size_t entry_count() const { return map_.size(); }
  const CacheStats& stats() const { return stats_; }
  uint64_t refresh_requests() const { return refresh_requests_; }

 private:
  struct Entry {
    std::string key;
    std::string value;
    uint64_t charge;
    Micros expire_at;
    uint32_t hits_this_period;
    bool refresh_flagged;
  };

  void EvictUntilFits(uint64_t incoming);
  void RemoveEntry(std::list<Entry>::iterator it);

  AuLruOptions options_;
  const Clock* clock_;
  std::list<Entry> lru_;  ///< Front = most recent.
  /// Key-hash index (FNV-1a of the key string); entries hold the full
  /// key, so a hash collision is detected by comparing it and treated
  /// as a miss (Get/Erase) or evicts the collided entry (Put) — either
  /// way the index stays bijective with the list.
  FlatMap64<std::list<Entry>::iterator> map_;
  std::vector<std::string> refresh_queue_;
  uint64_t used_ = 0;
  uint64_t refresh_requests_ = 0;
  CacheStats stats_;
};

}  // namespace cache
}  // namespace abase
