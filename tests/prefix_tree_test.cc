// Tests for src/cache/prefix_tree_store: the prefix-tree proxy content
// store. Point-entry behavior must stay bit-compatible with AuLruCache
// (the goldens and cache benches depend on it); the tree adds cached
// scan results, covering-scan invalidation on writes, and O(subtree)
// prefix invalidation.
#include <gtest/gtest.h>

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
