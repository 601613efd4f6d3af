// Tests for src/cache/prefix_tree_store: the prefix-tree proxy content
// store. Point-entry behavior must stay bit-compatible with AuLruCache
// (the goldens and cache benches depend on it); the tree adds cached
// scan results, covering-scan invalidation on writes, and O(subtree)
// prefix invalidation.
#include <gtest/gtest.h>

#include <algorithm>
#include <list>
#include <string>
#include <vector>

#include "cache/au_lru.h"
#include "cache/prefix_tree_store.h"
#include "common/clock.h"
#include "common/hash.h"
#include "common/rng.h"
#include "common/scan_codec.h"
#include "common/shared_value.h"

namespace abase {
namespace cache {
namespace {

AuLruOptions SmallOptions() {
  AuLruOptions o;
  o.capacity_bytes = 1024;
  o.default_ttl = 60 * kMicrosPerSecond;
  o.refresh_window = 10 * kMicrosPerSecond;
  o.refresh_min_hits = 2;
  return o;
}

// ------------------------------------------------- Point-entry parity --

// Randomized op stream applied to both caches; every observable of the
// AU-LRU contract must match (hits, misses, evictions, refresh
// requests, byte accounting, per-key membership).
TEST(PrefixTreeStoreTest, PointParityWithAuLru) {
  SimClock clock(0);
  AuLruOptions opts = SmallOptions();
  AuLruCache lru(opts, &clock);
  PrefixTreeStore tree(opts, &clock);
  Rng rng(99);

  std::vector<std::string> keys;
  for (int i = 0; i < 40; i++) keys.push_back("t7:k" + std::to_string(i));

  for (int step = 0; step < 4000; step++) {
    const std::string& key = keys[rng.NextUint64(keys.size())];
    double pick = rng.NextDouble();
    if (pick < 0.45) {
      std::string value(1 + rng.NextUint64(64), 'v');
      uint64_t charge = value.size() + key.size();
      EXPECT_EQ(lru.Put(key, value, charge),
                tree.Put(key, value, charge));
    } else if (pick < 0.9) {
      AuLookup a = lru.Get(key);
      AuLookup b = tree.Get(key);
      EXPECT_EQ(a.hit, b.hit) << key << " step " << step;
      EXPECT_EQ(a.needs_refresh, b.needs_refresh) << key;
      if (a.hit && b.hit) {
        EXPECT_EQ(a.value, b.value);
      }
    } else if (pick < 0.97) {
      EXPECT_EQ(lru.Erase(key), tree.Erase(key));
    } else {
      clock.Advance(rng.NextUint64(20) * kMicrosPerSecond);
    }
    if (step % 256 == 0) {
      EXPECT_EQ(lru.TakeRefreshQueue(), tree.TakeRefreshQueue());
    }
  }
  EXPECT_EQ(lru.used_bytes(), tree.used_bytes());
  EXPECT_EQ(lru.entry_count(), tree.entry_count());
  EXPECT_EQ(lru.stats().hits, tree.stats().hits);
  EXPECT_EQ(lru.stats().misses, tree.stats().misses);
  EXPECT_EQ(lru.stats().evictions, tree.stats().evictions);
  EXPECT_EQ(lru.refresh_requests(), tree.refresh_requests());
  for (const std::string& k : keys) {
    EXPECT_EQ(lru.Contains(k), tree.Contains(k)) << k;
  }
}

// ----------------------------------------- Forced-collision differential --

// The store's contract without the tree, the hash index or the slab:
// one std::list in global LRU order, searched linearly. Points are
// keyed by key, scans by (prefix, limit); a write drops every scan
// whose prefix starts the key, and InvalidatePrefix(P) drops points
// under P, scans under P and scans on P's strict ancestors.
class StoreModel {
 public:
  StoreModel(AuLruOptions o, const Clock* clock) : o_(o), clock_(clock) {}

  bool Put(const std::string& key, const std::string& value, uint64_t charge,
           Micros ttl) {
    if (charge > o_.capacity_bytes) return false;
    if (ttl <= 0) ttl = o_.default_ttl;
    auto it = FindPoint(key);
    if (it != lru_.end()) Unaccount(*it), lru_.erase(it);
    Insert(E{false, key, 0, value, charge, clock_->NowMicros() + ttl});
    return true;
  }

  AuLookup Get(const std::string& key) {
    AuLookup out;
    auto it = FindPoint(key);
    if (it == lru_.end()) {
      misses++;
      return out;
    }
    const Micros now = clock_->NowMicros();
    if (now >= it->expire_at) {
      misses++;
      Drop(it);
      return out;
    }
    hits++;
    class_hits[ClassOf(it->charge)] += 1.0;
    it->hits_this_period++;
    out.hit = true;
    if (!it->flagged && it->hits_this_period >= o_.refresh_min_hits &&
        it->expire_at - now <= o_.refresh_window) {
      it->flagged = true;
      out.needs_refresh = true;
      refresh_queue.push_back(key);
    }
    lru_.splice(lru_.begin(), lru_, it);
    out.value = lru_.front().value;  // Points into the model's copy.
    return out;
  }

  bool Erase(const std::string& key) {
    for (auto it = lru_.begin(); it != lru_.end();) {
      if (it->scan && key.compare(0, it->key.size(), it->key) == 0 &&
          key.size() >= it->key.size()) {
        it = Drop(it);
      } else {
        ++it;
      }
    }
    auto it = FindPoint(key);
    if (it == lru_.end()) return false;
    Drop(it);
    return true;
  }

  bool PutScan(const std::string& prefix, uint32_t limit,
               const std::string& value, uint64_t charge, Micros ttl) {
    if (charge > o_.capacity_bytes) return false;
    if (ttl <= 0) ttl = o_.default_ttl;
    auto it = FindScan(prefix, limit);
    if (it != lru_.end()) Drop(it);
    Insert(E{true, prefix, limit, value, charge, clock_->NowMicros() + ttl});
    return true;
  }

  AuLookup GetScan(const std::string& prefix, uint32_t limit) {
    AuLookup out;
    auto it = FindScan(prefix, limit);
    if (it == lru_.end()) {
      misses++;
      return out;
    }
    if (clock_->NowMicros() >= it->expire_at) {
      misses++;
      Drop(it);
      return out;
    }
    hits++;
    class_hits[ClassOf(it->charge)] += 1.0;
    lru_.splice(lru_.begin(), lru_, it);
    out.hit = true;
    out.value = lru_.front().value;
    return out;
  }

  size_t InvalidatePrefix(const std::string& p) {
    size_t n = 0;
    for (auto it = lru_.begin(); it != lru_.end();) {
      const bool under = StartsWith(it->key, p);
      const bool ancestor = it->scan && it->key.size() < p.size() &&
                            StartsWith(p, it->key);
      if (under || ancestor) {
        it = Drop(it);
        n++;
      } else {
        ++it;
      }
    }
    return n;
  }

  size_t InvalidateScans() {
    size_t n = 0;
    for (auto it = lru_.begin(); it != lru_.end();) {
      if (it->scan) {
        it = Drop(it);
        n++;
      } else {
        ++it;
      }
    }
    return n;
  }

  /// Drops every payload; the counters stay, like the store's.
  void Clear() {
    lru_.clear();
    used = 0;
    for (uint64_t& b : class_bytes) b = 0;
    for (double& h : class_hits) h = 0;
    refresh_queue.clear();
  }
  size_t entry_count() const { return lru_.size(); }
  size_t cached_scans() const {
    return static_cast<size_t>(std::count_if(
        lru_.begin(), lru_.end(), [](const E& e) { return e.scan; }));
  }

  uint64_t used = 0, hits = 0, misses = 0, evictions = 0;
  uint64_t class_bytes[PrefixTreeStore::kNumClasses] = {};
  double class_hits[PrefixTreeStore::kNumClasses] = {};
  std::vector<std::string> refresh_queue;

 private:
  struct E {
    bool scan;
    std::string key;  ///< A point's key or a scan's prefix.
    uint32_t limit;
    std::string value;
    uint64_t charge;
    Micros expire_at;
    uint32_t hits_this_period = 0;
    bool flagged = false;
  };
  using It = std::list<E>::iterator;

  static bool StartsWith(const std::string& s, const std::string& p) {
    return s.size() >= p.size() && s.compare(0, p.size(), p) == 0;
  }
  static int ClassOf(uint64_t charge) {
    int c = 0;
    for (uint64_t b = PrefixTreeStore::kMinClassBytes;
         c < PrefixTreeStore::kNumClasses - 1 && charge > b; b <<= 1) {
      c++;
    }
    return c;
  }
  It FindPoint(const std::string& key) {
    return std::find_if(lru_.begin(), lru_.end(), [&](const E& e) {
      return !e.scan && e.key == key;
    });
  }
  It FindScan(const std::string& prefix, uint32_t limit) {
    return std::find_if(lru_.begin(), lru_.end(), [&](const E& e) {
      return e.scan && e.key == prefix && e.limit == limit;
    });
  }
  void Unaccount(const E& e) {
    used -= e.charge;
    class_bytes[ClassOf(e.charge)] -= e.charge;
  }
  It Drop(It it) {
    Unaccount(*it);
    return lru_.erase(it);
  }
  void Insert(E e) {
    while (used + e.charge > o_.capacity_bytes && !lru_.empty()) {
      evictions++;
      Drop(std::prev(lru_.end()));
    }
    used += e.charge;
    class_bytes[ClassOf(e.charge)] += e.charge;
    for (double& h : class_hits) h *= 0.98;
    lru_.push_front(std::move(e));
  }

  AuLruOptions o_;
  const Clock* clock_;
  std::list<E> lru_;  ///< Front = most recently used.
};

// Point probes, fills and write-erases under hashes from a 64-value
// space (long collision chains), interleaved with scan fills and hits,
// prefix and scan invalidation, expiry and Clear, against the model.
TEST(PrefixTreeStoreTest, ForcedCollisionsMatchReferenceModel) {
  const std::vector<std::string> prefixes = {"",       "t1:",    "t1:g1:",
                                             "t1:g2:", "t2:",    "t2:g1:k1",
                                             "t1:g1:k"};
  for (uint64_t seed : {1, 2, 3}) {
    SimClock clock(0);
    AuLruOptions opts = SmallOptions();
    opts.capacity_bytes = 2048;
    PrefixTreeStore tree(opts, &clock);
    StoreModel model(opts, &clock);
    Rng rng(seed);
    std::vector<std::string> keys;
    for (int t = 1; t <= 2; t++) {
      for (int g = 1; g <= 3; g++) {
        for (int k = 0; k < 25; k++) {
          keys.push_back("t" + std::to_string(t) + ":g" + std::to_string(g) +
                         ":k" + std::to_string(k));
        }
      }
    }
    auto hash_of = [](const std::string& k) { return HashString(k) % 64; };
    for (int step = 0; step < 20000; step++) {
      const std::string& key = keys[rng.NextUint64(keys.size())];
      const std::string& prefix = prefixes[rng.NextUint64(prefixes.size())];
      const uint32_t limit = rng.NextBool(0.5) ? 5 : 10;
      const double pick = rng.NextDouble();
      if (pick < 0.3) {
        const std::string value = "v" + std::to_string(step);
        const uint64_t charge = 1 + rng.NextUint64(rng.NextBool(0.1) ? 900 : 90);
        const Micros ttl =
            static_cast<Micros>(rng.NextUint64(80)) * kMicrosPerSecond;
        ASSERT_EQ(tree.PutHashed(hash_of(key), key, value, charge, ttl),
                  model.Put(key, value, charge, ttl));
      } else if (pick < 0.6) {
        AuLookup a = tree.GetHashed(hash_of(key), key);
        AuLookup b = model.Get(key);
        ASSERT_EQ(a.hit, b.hit) << key << " step " << step;
        EXPECT_EQ(a.needs_refresh, b.needs_refresh);
        EXPECT_EQ(a.value, b.value);
      } else if (pick < 0.7) {
        ASSERT_EQ(tree.EraseHashed(hash_of(key), key), model.Erase(key));
      } else if (pick < 0.8) {
        const std::string value = "s" + std::to_string(step);
        const uint64_t charge = 1 + rng.NextUint64(200);
        ASSERT_EQ(tree.PutScan(prefix, limit, value, charge),
                  model.PutScan(prefix, limit, value, charge, 0));
      } else if (pick < 0.92) {
        AuLookup a = tree.GetScan(prefix, limit);
        AuLookup b = model.GetScan(prefix, limit);
        ASSERT_EQ(a.hit, b.hit) << prefix << " step " << step;
        EXPECT_EQ(a.value, b.value);
      } else if (pick < 0.95) {
        ASSERT_EQ(tree.InvalidatePrefix(prefix), model.InvalidatePrefix(prefix))
            << prefix << " step " << step;
      } else if (pick < 0.96) {
        ASSERT_EQ(tree.InvalidateScans(), model.InvalidateScans());
      } else if (pick < 0.999) {
        clock.Advance(static_cast<Micros>(rng.NextUint64(10)) *
                      kMicrosPerSecond);
      } else {
        tree.Clear();
        model.Clear();
      }
      ASSERT_EQ(tree.used_bytes(), model.used) << "step " << step;
      ASSERT_EQ(tree.entry_count(), model.entry_count());
      ASSERT_EQ(tree.cached_scans(), model.cached_scans());
      for (int c = 0; c < PrefixTreeStore::kNumClasses; c++) {
        ASSERT_EQ(tree.ClassBytes(c), model.class_bytes[c]) << c;
      }
    }
    EXPECT_EQ(tree.TakeRefreshQueue(), model.refresh_queue);
    EXPECT_EQ(tree.stats().hits, model.hits);
    EXPECT_EQ(tree.stats().misses, model.misses);
    EXPECT_EQ(tree.stats().evictions, model.evictions);
    EXPECT_GT(model.evictions, 100u);
    for (int c = 0; c < PrefixTreeStore::kNumClasses; c++) {
      const uint64_t bytes = model.class_bytes[c];
      EXPECT_EQ(tree.ClassDensity(c),
                bytes == 0 ? 0.0
                           : model.class_hits[c] / static_cast<double>(bytes));
    }
  }
}

// ------------------------------------------------------- Scan results --

std::string FramedPayload(int entries) {
  std::string payload;
  for (int i = 0; i < entries; i++) {
    AppendScanEntry(payload, "t1:k" + std::to_string(i), "v");
  }
  return payload;
}

TEST(PrefixTreeStoreTest, ScanPutGetKeyedByPrefixAndLimit) {
  SimClock clock(0);
  PrefixTreeStore tree(SmallOptions(), &clock);
  std::string payload = FramedPayload(3);
  ASSERT_TRUE(tree.PutScan("t1:", 10, payload, payload.size() + 8));

  AuLookup hit = tree.GetScan("t1:", 10);
  ASSERT_TRUE(hit.hit);
  EXPECT_EQ(hit.value, payload);
  EXPECT_FALSE(hit.needs_refresh);  // Scan payloads never refresh.

  // Same prefix, different limit = different cached object.
  EXPECT_FALSE(tree.GetScan("t1:", 5).hit);
  EXPECT_FALSE(tree.GetScan("t2:", 10).hit);
  EXPECT_EQ(tree.cached_scans(), 1u);
  EXPECT_EQ(tree.tree_stats().scan_hits, 1u);
  EXPECT_EQ(tree.tree_stats().scan_misses, 2u);
}

TEST(PrefixTreeStoreTest, ScanExpiresLikePointEntries) {
  SimClock clock(0);
  PrefixTreeStore tree(SmallOptions(), &clock);
  ASSERT_TRUE(tree.PutScan("t1:", 10, "x", 16, 5 * kMicrosPerSecond));
  EXPECT_TRUE(tree.GetScan("t1:", 10).hit);
  clock.Advance(6 * kMicrosPerSecond);
  EXPECT_FALSE(tree.GetScan("t1:", 10).hit);
  EXPECT_EQ(tree.cached_scans(), 0u);
}

// A write under a cached scan's prefix must drop that scan (its range
// now has a stale member) while unrelated scans survive.
TEST(PrefixTreeStoreTest, WriteDropsCoveringScans) {
  SimClock clock(0);
  PrefixTreeStore tree(SmallOptions(), &clock);
  ASSERT_TRUE(tree.PutScan("t1:", 10, "a", 16));
  ASSERT_TRUE(tree.PutScan("t1:g1:", 10, "b", 16));
  ASSERT_TRUE(tree.PutScan("t2:", 10, "c", 16));
  ASSERT_TRUE(tree.Put("t1:g1:k5", "v", 16));

  // The write-invalidation broadcast path.
  tree.EraseHashed(HashString("t1:g1:k5"), "t1:g1:k5");

  EXPECT_FALSE(tree.GetScan("t1:", 10).hit);     // Covers the key.
  EXPECT_FALSE(tree.GetScan("t1:g1:", 10).hit);  // Covers the key.
  EXPECT_TRUE(tree.GetScan("t2:", 10).hit);      // Unrelated.
  EXPECT_FALSE(tree.Contains("t1:g1:k5"));
  EXPECT_GE(tree.tree_stats().scans_dropped_by_write, 2u);
}

// ------------------------------------------------ Prefix invalidation --

TEST(PrefixTreeStoreTest, InvalidatePrefixDropsSubtreeAndCoveringScans) {
  SimClock clock(0);
  PrefixTreeStore tree(SmallOptions(), &clock);
  ASSERT_TRUE(tree.Put("t1:g1:k1", "v", 16));
  ASSERT_TRUE(tree.Put("t1:g1:k2", "v", 16));
  ASSERT_TRUE(tree.Put("t1:g2:k1", "v", 16));
  ASSERT_TRUE(tree.PutScan("t1:g1:", 10, "s", 16));
  ASSERT_TRUE(tree.PutScan("t1:", 10, "s", 16));   // Ancestor, covers g1.
  ASSERT_TRUE(tree.PutScan("t2:", 10, "s", 16));

  size_t dropped = tree.InvalidatePrefix("t1:g1:");
  EXPECT_EQ(dropped, 4u);  // k1, k2, scan(t1:g1:), covering scan(t1:).
  EXPECT_FALSE(tree.Contains("t1:g1:k1"));
  EXPECT_FALSE(tree.Contains("t1:g1:k2"));
  EXPECT_TRUE(tree.Contains("t1:g2:k1"));  // Sibling subtree intact.
  EXPECT_FALSE(tree.GetScan("t1:g1:", 10).hit);
  EXPECT_FALSE(tree.GetScan("t1:", 10).hit);
  EXPECT_TRUE(tree.GetScan("t2:", 10).hit);
  EXPECT_EQ(tree.tree_stats().prefix_invalidations, 1u);
}

TEST(PrefixTreeStoreTest, InvalidateScansKeepsPointEntries) {
  SimClock clock(0);
  PrefixTreeStore tree(SmallOptions(), &clock);
  ASSERT_TRUE(tree.Put("t1:k1", "v", 16));
  ASSERT_TRUE(tree.Put("t9:k1", "v", 16));
  ASSERT_TRUE(tree.PutScan("t1:", 10, "s", 16));
  ASSERT_TRUE(tree.PutScan("t9:", 25, "s", 16));

  EXPECT_EQ(tree.InvalidateScans(), 2u);
  EXPECT_EQ(tree.cached_scans(), 0u);
  EXPECT_TRUE(tree.Contains("t1:k1"));
  EXPECT_TRUE(tree.Contains("t9:k1"));
  EXPECT_FALSE(tree.GetScan("t1:", 10).hit);
  // Scans invalidated by a split cutover are not "evictions".
  EXPECT_EQ(tree.stats().evictions, 0u);
}

TEST(PrefixTreeStoreTest, ClearDropsEverything) {
  SimClock clock(0);
  PrefixTreeStore tree(SmallOptions(), &clock);
  ASSERT_TRUE(tree.Put("t1:k1", "v", 16));
  ASSERT_TRUE(tree.PutScan("t1:", 10, "s", 16));
  tree.Clear();
  EXPECT_EQ(tree.entry_count(), 0u);
  EXPECT_EQ(tree.cached_scans(), 0u);
  EXPECT_EQ(tree.used_bytes(), 0u);
  EXPECT_FALSE(tree.Contains("t1:k1"));
}

// Point and scan payloads are shared handles (a node response's bytes):
// the store keeps one reference per resident payload and releases it on
// overwrite, erase, covering-scan invalidation, eviction and Clear.
TEST(PrefixTreeStoreTest, SharedPayloadReleasedOnOverwriteEraseEvictAndClear) {
  SimClock clock(0);
  AuLruOptions opts = SmallOptions();
  opts.capacity_bytes = 100;
  PrefixTreeStore tree(opts, &clock);
  const SharedValue a = MakeSharedValue("a");
  const SharedValue b = MakeSharedValue("b");
  const SharedValue scan = MakeSharedValue(FramedPayload(2));

  ASSERT_TRUE(tree.PutHashed(HashString("t1:k"), "t1:k", a, 40));
  EXPECT_EQ(a.use_count(), 2);
  AuLookup hit = tree.Get("t1:k");
  ASSERT_TRUE(hit.hit);
  EXPECT_EQ(hit.value.data(), a.view().data());  // The very buffer.

  ASSERT_TRUE(tree.PutHashed(HashString("t1:k"), "t1:k", b, 40));
  EXPECT_EQ(a.use_count(), 1);  // Overwrite.
  EXPECT_EQ(b.use_count(), 2);

  ASSERT_TRUE(tree.PutScan("t1:", 10, scan, 40));
  EXPECT_EQ(scan.use_count(), 2);
  EXPECT_EQ(tree.GetScan("t1:", 10).value.data(), scan.view().data());
  EXPECT_TRUE(tree.Erase("t1:k"));  // Drops the point and its cover.
  EXPECT_EQ(b.use_count(), 1);
  EXPECT_EQ(scan.use_count(), 1);

  ASSERT_TRUE(tree.PutScan("t1:", 10, scan, 60));
  ASSERT_TRUE(tree.PutHashed(HashString("t2:k"), "t2:k", a, 60));
  EXPECT_FALSE(tree.GetScan("t1:", 10).hit);  // Evicted.
  EXPECT_EQ(tree.stats().evictions, 1u);
  EXPECT_EQ(scan.use_count(), 1);
  EXPECT_EQ(a.use_count(), 2);

  tree.Clear();
  EXPECT_EQ(a.use_count(), 1);
}

// --------------------------------------------------------- Eviction --

TEST(PrefixTreeStoreTest, ScansParticipateInLruEviction) {
  SimClock clock(0);
  AuLruOptions opts = SmallOptions();
  opts.capacity_bytes = 64;
  PrefixTreeStore tree(opts, &clock);
  ASSERT_TRUE(tree.PutScan("t1:", 10, "s", 32));
  ASSERT_TRUE(tree.Put("t1:k1", "v", 32));
  // Inserting past capacity evicts the LRU tail (the scan).
  ASSERT_TRUE(tree.Put("t1:k2", "v", 32));
  EXPECT_FALSE(tree.GetScan("t1:", 10).hit);
  EXPECT_TRUE(tree.Contains("t1:k1"));
  EXPECT_TRUE(tree.Contains("t1:k2"));
  EXPECT_GE(tree.stats().evictions, 1u);
  EXPECT_LE(tree.used_bytes(), 64u);
}

TEST(PrefixTreeStoreTest, SizeClassAccountingTracksResidents) {
  SimClock clock(0);
  AuLruOptions opts = SmallOptions();
  opts.capacity_bytes = 1 << 20;
  PrefixTreeStore tree(opts, &clock);
  ASSERT_TRUE(tree.Put("small", "v", 64));
  ASSERT_TRUE(tree.Put("large", "v", 4096));
  uint64_t total = 0;
  for (int c = 0; c < PrefixTreeStore::kNumClasses; c++) {
    total += tree.ClassBytes(c);
  }
  EXPECT_EQ(total, tree.used_bytes());
  tree.Erase("large");
  total = 0;
  for (int c = 0; c < PrefixTreeStore::kNumClasses; c++) {
    total += tree.ClassBytes(c);
  }
  EXPECT_EQ(total, tree.used_bytes());
}

}  // namespace
}  // namespace cache
}  // namespace abase
