// Prefix-tree proxy content store — the range-aware successor of the
// flat AU-LRU cache.
//
// The store is a hybrid of two indexes sharing one LRU and one byte
// budget. Point entries (GET payloads) live in a flat hash index keyed
// by HashString(key) — O(1) probes on the per-request hot path, fed by
// the key hash the request already carries. Cached scan results live
// in a compressed radix tree at the node of their *prefix*, keyed by
// the scan limit. Organizing scans by prefix buys the two operations a
// flat cache cannot do better than O(entries) or a full flush:
//
//  * Covering-scan invalidation: a write to key K must drop every
//    cached scan whose range contains K. Prefix-shaped scans covering K
//    are exactly the scan payloads on the root→K path — O(|K|) node
//    visits, skipped entirely when no scans are cached (subtree scan
//    counters gate the walk).
//  * InvalidatePrefix(P): split cutover, moved-key purges and
//    migrations invalidate a whole key prefix in O(subtree) — detach
//    one subtree instead of sweeping every cached entry or flushing.
//
// Contract compatibility: the point-entry API reproduces the AU-LRU
// cache contract exactly — lazy TTL expiry on Get, active-update
// refresh flagging (once per TTL period for entries with at least
// refresh_min_hits hits inside the refresh window), Put resetting the
// refresh bookkeeping, and strict global-LRU eviction. A point-only
// workload observes bit-identical hits, misses, refresh requests and
// eviction order to cache::AuLruCache, which keeps every golden digest
// and proxy-cache bench stable across the swap.
//
// Capacity accounting is SA-LRU-style: every payload is charged to a
// power-of-two size class that tracks resident bytes and a decayed hit
// count, so operators can read per-class hit density (the SA-LRU victim
// signal) off a running proxy. Eviction itself stays strict global LRU
// — see above.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "cache/au_lru.h"
#include "cache/cache_stats.h"
#include "common/clock.h"
#include "common/flat_map.h"
#include "common/shared_value.h"
#include "common/slab.h"
#include "common/types.h"

namespace abase {
namespace cache {

/// Tree-specific counters, on top of the shared CacheStats (which the
/// store keeps with AU-LRU-identical semantics across point and scan
/// lookups alike).
struct PrefixTreeStats {
  uint64_t scan_hits = 0;
  uint64_t scan_misses = 0;
  uint64_t scan_inserts = 0;
  /// Cached scans dropped because a write landed inside their range.
  uint64_t scans_dropped_by_write = 0;
  /// InvalidatePrefix / InvalidateScans calls.
  uint64_t prefix_invalidations = 0;
  /// Payloads removed by prefix invalidation (not counted as evictions).
  uint64_t invalidated_payloads = 0;
};

/// Proxy content store over a compressed radix tree. Not thread-safe;
/// one instance per proxy, driven from the pipeline's serial sections.
class PrefixTreeStore {
 public:
  /// Reuses the AU-LRU option block: capacity, default TTL and the
  /// active-update refresh knobs keep their exact meaning.
  PrefixTreeStore(AuLruOptions options, const Clock* clock);
  ~PrefixTreeStore();

  PrefixTreeStore(const PrefixTreeStore&) = delete;
  PrefixTreeStore& operator=(const PrefixTreeStore&) = delete;

  // -- Point entries (AU-LRU contract) --------------------------------------

  /// Inserts/overwrites the point entry for `key`. ttl <= 0 means the
  /// configured default. Returns false if `charge` alone exceeds
  /// capacity. Overwriting resets the refresh bookkeeping and reuses
  /// the resident payload object. Payloads are shared handles
  /// (common/shared_value.h); this form builds one from a copy of
  /// `value`, the SharedValue forms store the caller's handle itself.
  bool Put(const std::string& key, std::string_view value, uint64_t charge,
           Micros ttl = 0);

  /// Point lookup. Expired entries are erased and reported as misses.
  /// A hit near expiry on a sufficiently hot entry flags one background
  /// refresh per TTL period (AU-LRU active update).
  AuLookup Get(const std::string& key);

  // Hashed point entry points: identical semantics with a
  // caller-computed HashString(key). The request hot path carries the
  // key hash with the request (computed once at generation), so point
  // probes and write invalidations go through the flat hash index —
  // O(1) — instead of walking the radix tree byte by byte. The hash
  // MUST equal HashString(key); collisions are chained and resolved by
  // full-key compare, so behavior is exact, not probabilistic.

  bool PutHashed(uint64_t hash, const std::string& key,
                 std::string_view value, uint64_t charge, Micros ttl = 0);
  /// Shares `value` (a node response's payload, say): no copy. The store
  /// releases its reference on overwrite, erase, eviction, expiry,
  /// invalidation and Clear.
  bool PutHashed(uint64_t hash, const std::string& key, SharedValue value,
                 uint64_t charge, Micros ttl = 0);
  AuLookup GetHashed(uint64_t hash, const std::string& key);

  bool Erase(const std::string& key);

  /// Erase with a caller-computed HashString(key): the point entry is
  /// located through the hash index. Also drops every cached scan whose
  /// prefix covers `key` — a write inside a cached range makes that
  /// range stale (covering-scan invalidation); the covering walk is
  /// skipped entirely when no scans are cached (subtree counters).
  bool EraseHashed(uint64_t hash, const std::string& key);

  bool Contains(const std::string& key) const;

  /// Keys flagged for active refresh since the last call, in flag
  /// order. Only point entries are flagged: a scan prefix is not a
  /// fetchable key, so scan payloads simply expire.
  std::vector<std::string> TakeRefreshQueue();

  // -- Scan results ---------------------------------------------------------

  /// Caches the framed payload (common/scan_codec.h) of a completed
  /// prefix scan, keyed by (prefix, limit). Same TTL semantics as Put;
  /// the SharedValue form shares the merged response's payload.
  bool PutScan(const std::string& prefix, uint32_t limit,
               std::string_view payload, uint64_t charge, Micros ttl = 0);
  bool PutScan(const std::string& prefix, uint32_t limit,
               SharedValue payload, uint64_t charge, Micros ttl = 0);

  /// Looks up a cached scan result for exactly (prefix, limit).
  /// Expired payloads are erased and reported as misses. Never flags a
  /// refresh.
  AuLookup GetScan(const std::string& prefix, uint32_t limit);

  // -- Prefix invalidation --------------------------------------------------

  /// Drops every payload — point and scan — under `prefix`, plus any
  /// scan payload on an ancestor node whose range covers the prefix.
  /// Scans cost O(affected subtree); points cost O(point entries), a
  /// sweep of the flat index (this is the rare cutover path — the
  /// common per-request operations stay O(1)). Returns payloads
  /// dropped.
  size_t InvalidatePrefix(const std::string& prefix);

  /// Drops every cached scan payload, keeping point entries. Walks only
  /// scan-bearing branches (subtree counters), so a store with no
  /// cached scans pays O(1). The split-cutover invalidation mode: a
  /// partition split changes the fan-out set scans were merged across,
  /// but moves no values, so point entries stay valid.
  size_t InvalidateScans();

  /// Drops everything (the conservative full-flush cutover mode).
  void Clear();

  // -- Introspection (AuLruCache-compatible surface) ------------------------

  uint64_t used_bytes() const { return used_; }
  uint64_t capacity_bytes() const { return options_.capacity_bytes; }
  size_t entry_count() const { return slab_.size(); }
  const CacheStats& stats() const { return stats_; }
  uint64_t refresh_requests() const { return refresh_requests_; }

  // -- Tree / size-class diagnostics ----------------------------------------

  const PrefixTreeStats& tree_stats() const { return tree_stats_; }
  /// Nodes in the scan tree (0 for point-only workloads).
  size_t node_count() const { return node_count_; }
  size_t cached_scans() const { return cached_scans_; }

  static constexpr int kNumClasses = 8;
  static constexpr uint64_t kMinClassBytes = 256;
  uint64_t ClassBytes(int c) const { return classes_[c].bytes; }
  /// Decayed hits per resident byte — the SA-LRU victim signal.
  double ClassDensity(int c) const;

 private:
  struct Node;
  struct Payload;
  static constexpr uint32_t kNil = Slab<Payload>::kNil;

  static int ClassFor(uint64_t charge);

  /// Exact-path node for `key`, or null.
  const Node* FindExact(const std::string& key) const;
  /// Finds or creates (splitting edges as needed) the node for `path`.
  Node* InsertPath(const std::string& path);

  /// Id of the point payload for `key` via the hash index (chained on
  /// collision, resolved by full-key compare), or kNil.
  uint32_t FindPoint(uint64_t hash, const std::string& key) const;
  void IndexPoint(uint64_t hash, uint32_t id);
  void UnindexPoint(uint32_t id);

  /// Detaches payload `id` from the LRU, size-class and subtree
  /// accounting and frees it; prunes the now-possibly-empty node chain.
  void RemovePayload(uint32_t id, bool count_as_invalidation);
  void EvictUntilFits(uint64_t incoming);
  /// Removes payload-less leaf nodes and merges payload-less
  /// single-child nodes upward from `n`.
  void PruneFrom(Node* n);
  /// Adds `delta` to the subtree scan counters on `n` and its ancestors.
  void BumpSubtreeScans(Node* n, int delta);
  /// Collects every scan payload in `n`'s subtree (subtree counters
  /// skip scan-free branches). Collected ids stay valid while their
  /// siblings are removed: ids are never reused before the next
  /// insert, and pruning only destroys payload-less nodes.
  void CollectSubtree(const Node* n, std::vector<uint32_t>& out) const;

  AuLruOptions options_;
  const Clock* clock_;
  /// Scan tree, lazily allocated on the first scan insert. Point-only
  /// workloads never touch it.
  std::unique_ptr<Node> root_;
  /// Home of every payload, point and scan alike (common/slab.h). The
  /// LRU, the hash chains and the tree's scan lists link slab ids.
  Slab<Payload> slab_;
  /// Point payloads: HashString(key) → id of the head of a (nearly
  /// always length-1) collision chain threaded through
  /// Payload::hash_next. Chains make the index exact — a probe miss is
  /// an authoritative miss, never a fallback — so point behavior is
  /// identical to the tree-resident layout, just O(1).
  FlatMap64<uint32_t> point_index_;
  Slab<Payload>::List lru_;  ///< Its tail is the next victim.
  uint64_t used_ = 0;
  size_t node_count_ = 0;
  size_t cached_scans_ = 0;
  uint64_t refresh_requests_ = 0;
  std::vector<std::string> refresh_queue_;
  CacheStats stats_;
  PrefixTreeStats tree_stats_;

  struct SizeClass {
    uint64_t bytes = 0;
    double recent_hits = 0;  ///< Decayed by kHitDecay on every insert.
  };
  static constexpr double kHitDecay = 0.98;
  SizeClass classes_[kNumClasses];
};

}  // namespace cache
}  // namespace abase
