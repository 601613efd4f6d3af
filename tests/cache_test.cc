// Tests for src/cache: plain LRU, size-aware SA-LRU (Section 4.4
// DataNode cache), and active-update AU-LRU (Section 4.4 proxy cache).
#include <gtest/gtest.h>

#include <string>

#include "cache/au_lru.h"
#include "cache/lru_cache.h"
#include "cache/sa_lru.h"
#include "common/clock.h"
#include "common/flat_map.h"
#include "common/rng.h"
#include "common/shared_value.h"

namespace abase {
namespace cache {
namespace {

// ------------------------------------------------------------------- LRU --

TEST(LruCacheTest, PutGetHitMiss) {
  LruCache c(1024);
  EXPECT_TRUE(c.Put("a", "1", 10));
  auto v = c.Get("a");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, "1");
  EXPECT_FALSE(c.Get("b").has_value());
  EXPECT_EQ(c.stats().hits, 1u);
  EXPECT_EQ(c.stats().misses, 1u);
}

TEST(LruCacheTest, EvictsLeastRecentlyUsed) {
  LruCache c(30);
  c.Put("a", "1", 10);
  c.Put("b", "2", 10);
  c.Put("c", "3", 10);
  c.Get("a");           // Promote a.
  c.Put("d", "4", 10);  // Evicts b (oldest unused).
  EXPECT_TRUE(c.Contains("a"));
  EXPECT_FALSE(c.Contains("b"));
  EXPECT_TRUE(c.Contains("c"));
  EXPECT_TRUE(c.Contains("d"));
  EXPECT_EQ(c.stats().evictions, 1u);
}

TEST(LruCacheTest, OversizedEntryRejected) {
  LruCache c(100);
  EXPECT_FALSE(c.Put("big", "x", 101));
  EXPECT_EQ(c.entry_count(), 0u);
}

TEST(LruCacheTest, ReplaceUpdatesCharge) {
  LruCache c(100);
  c.Put("k", "v", 60);
  c.Put("k", "v2", 10);
  EXPECT_EQ(c.used_bytes(), 10u);
  EXPECT_EQ(c.entry_count(), 1u);
}

TEST(LruCacheTest, EraseAndClear) {
  LruCache c(100);
  c.Put("k", "v", 10);
  EXPECT_TRUE(c.Erase("k"));
  EXPECT_FALSE(c.Erase("k"));
  c.Put("k2", "v", 10);
  c.Clear();
  EXPECT_EQ(c.used_bytes(), 0u);
  EXPECT_EQ(c.entry_count(), 0u);
}

TEST(LruCacheTest, CapacityInvariantUnderRandomOps) {
  LruCache c(500);
  Rng rng(9);
  for (int i = 0; i < 5000; i++) {
    std::string key = "k" + std::to_string(rng.NextUint64(100));
    uint64_t charge = 1 + rng.NextUint64(120);
    c.Put(key, "v", charge);
    ASSERT_LE(c.used_bytes(), 500u);
  }
}

// ---------------------------------------------------------------- SA-LRU --

SaLruOptions SmallSaOptions(uint64_t cap = 1000) {
  SaLruOptions o;
  o.capacity_bytes = cap;
  o.min_class_bytes = 16;
  o.num_classes = 4;  // Classes: <=16, <=32, <=64, rest.
  return o;
}

TEST(SaLruTest, BasicHitMiss) {
  SaLruCache c(SmallSaOptions());
  EXPECT_TRUE(c.Put("a", "v", 10));
  EXPECT_TRUE(c.Get("a").has_value());
  EXPECT_FALSE(c.Get("b").has_value());
}

TEST(SaLruTest, ClassAssignmentBySize) {
  SaLruCache c(SmallSaOptions());
  c.Put("tiny", "v", 10);    // Class 0.
  c.Put("small", "v", 30);   // Class 1.
  c.Put("mid", "v", 60);     // Class 2.
  c.Put("large", "v", 500);  // Class 3.
  auto bytes = c.ClassBytes();
  EXPECT_EQ(bytes[0], 10u);
  EXPECT_EQ(bytes[1], 30u);
  EXPECT_EQ(bytes[2], 60u);
  EXPECT_EQ(bytes[3], 500u);
}

TEST(SaLruTest, EvictsColdLargeBeforeHotSmall) {
  // Paper claim: SA-LRU "strategically evicts data that occupies more
  // memory while yielding fewer cache hits".
  SaLruCache c(SmallSaOptions(1000));
  // Hot small entries.
  for (int i = 0; i < 10; i++) c.Put("small" + std::to_string(i), "v", 10);
  // Cold large entry filling most of the cache.
  c.Put("bigcold", "v", 800);
  // Heat up the small class.
  for (int round = 0; round < 20; round++) {
    for (int i = 0; i < 10; i++) c.Get("small" + std::to_string(i));
  }
  // Insert pressure: needs 400 bytes, must come from the cold large class.
  c.Put("newcomer", "v", 400);
  EXPECT_FALSE(c.Contains("bigcold"));
  for (int i = 0; i < 10; i++) {
    EXPECT_TRUE(c.Contains("small" + std::to_string(i))) << i;
  }
}

TEST(SaLruTest, CapacityInvariantUnderRandomOps) {
  SaLruCache c(SmallSaOptions(2000));
  Rng rng(11);
  for (int i = 0; i < 10000; i++) {
    std::string key = "k" + std::to_string(rng.NextUint64(300));
    uint64_t charge = 1 + rng.NextUint64(400);
    c.Put(key, "v", charge);
    if (rng.NextBool(0.5)) c.Get("k" + std::to_string(rng.NextUint64(300)));
    ASSERT_LE(c.used_bytes(), 2000u);
  }
  EXPECT_GT(c.stats().evictions, 0u);
}

TEST(SaLruTest, EraseMaintainsClassAccounting) {
  SaLruCache c(SmallSaOptions());
  c.Put("a", "v", 60);
  EXPECT_TRUE(c.Erase("a"));
  EXPECT_EQ(c.used_bytes(), 0u);
  EXPECT_EQ(c.ClassBytes()[2], 0u);
  EXPECT_FALSE(c.Erase("a"));
}

TEST(SaLruTest, OversizedRejected) {
  SaLruCache c(SmallSaOptions(100));
  EXPECT_FALSE(c.Put("x", "v", 200));
}

// Entries share the caller's payload handle (an engine record's bytes on
// the node read path): the cache holds one reference while resident and
// drops it on overwrite, erase, eviction and Clear — it never pins a
// payload it no longer serves.
TEST(SaLruTest, SharedPayloadReleasedOnOverwriteEraseEvictAndClear) {
  SaLruCache c(SmallSaOptions(100));
  const SharedValue a = MakeSharedValue("a");
  const SharedValue b = MakeSharedValue("b");
  ASSERT_TRUE(c.PutHashed(HashString("k"), "k", a, 40));
  EXPECT_EQ(a.use_count(), 2);
  Micros expire_at = 0;
  const SharedValue* ref = c.GetRef("k", &expire_at);
  ASSERT_NE(ref, nullptr);
  EXPECT_EQ(ref->view().data(), a.view().data());  // The very buffer.

  ASSERT_TRUE(c.PutHashed(HashString("k"), "k", b, 40));  // Overwrite.
  EXPECT_EQ(a.use_count(), 1);
  EXPECT_EQ(b.use_count(), 2);

  EXPECT_TRUE(c.Erase("k"));
  EXPECT_EQ(b.use_count(), 1);

  ASSERT_TRUE(c.PutHashed(HashString("k"), "k", a, 60));
  ASSERT_TRUE(c.PutHashed(HashString("k2"), "k2", b, 60));  // Evicts k.
  EXPECT_FALSE(c.Contains("k"));
  EXPECT_EQ(c.stats().evictions, 1u);
  EXPECT_EQ(a.use_count(), 1);
  EXPECT_EQ(b.use_count(), 2);

  c.Clear();
  EXPECT_EQ(b.use_count(), 1);
}

// Hit-ratio comparison under mixed sizes: SA-LRU should beat plain LRU
// when small hot items compete with large cold scans (the Table 1 mix).
TEST(SaLruTest, BeatsPlainLruOnMixedSizes) {
  const uint64_t capacity = 16 * 1024;
  SaLruOptions so;
  so.capacity_bytes = capacity;
  SaLruCache sa(so);
  LruCache lru(capacity);
  Rng rng(21);
  ZipfianGenerator hot_keys(200, 0.95);

  for (int i = 0; i < 30000; i++) {
    if (rng.NextBool(0.7)) {
      // Hot small reads (0.1 KB social-media comments).
      std::string key = "hot" + std::to_string(hot_keys.Next(rng));
      if (!sa.Get(key).has_value()) sa.Put(key, "v", 100);
      if (!lru.Get(key).has_value()) lru.Put(key, "v", 100);
    } else {
      // Cold large one-shot reads (10 KB ad payloads).
      std::string key = "cold" + std::to_string(i);
      if (!sa.Get(key).has_value()) sa.Put(key, "v", 10240);
      if (!lru.Get(key).has_value()) lru.Put(key, "v", 10240);
    }
  }
  EXPECT_GT(sa.stats().HitRatio(), lru.stats().HitRatio());
}

// ---------------------------------------------------------------- AU-LRU --

AuLruOptions SmallAuOptions() {
  AuLruOptions o;
  o.capacity_bytes = 1000;
  o.default_ttl = 100 * kMicrosPerSecond;
  o.refresh_window = 20 * kMicrosPerSecond;
  o.refresh_min_hits = 2;
  return o;
}

TEST(AuLruTest, HitWithinTtl) {
  SimClock clock;
  AuLruCache c(SmallAuOptions(), &clock);
  c.Put("k", "v", 10);
  auto lk = c.Get("k");
  EXPECT_TRUE(lk.hit);
  EXPECT_EQ(lk.value, "v");
  EXPECT_FALSE(lk.needs_refresh);
}

TEST(AuLruTest, ExpiredEntryIsMissAndErased) {
  SimClock clock;
  AuLruCache c(SmallAuOptions(), &clock);
  c.Put("k", "v", 10);
  clock.Advance(101 * kMicrosPerSecond);
  auto lk = c.Get("k");
  EXPECT_FALSE(lk.hit);
  EXPECT_FALSE(c.Contains("k"));
  EXPECT_EQ(c.stats().expired, 1u);
}

TEST(AuLruTest, HotEntryNearExpiryFlagsRefresh) {
  SimClock clock;
  AuLruCache c(SmallAuOptions(), &clock);
  c.Put("k", "v", 10);
  c.Get("k");  // Hit 1 (far from expiry).
  clock.Advance(85 * kMicrosPerSecond);  // 15s to expiry, inside window.
  auto lk = c.Get("k");                  // Hit 2 reaches min_hits.
  EXPECT_TRUE(lk.hit);
  EXPECT_TRUE(lk.needs_refresh);
  auto queue = c.TakeRefreshQueue();
  ASSERT_EQ(queue.size(), 1u);
  EXPECT_EQ(queue[0], "k");
  // Flag fires once per TTL period.
  EXPECT_FALSE(c.Get("k").needs_refresh);
  EXPECT_TRUE(c.TakeRefreshQueue().empty());
}

TEST(AuLruTest, ColdEntryDoesNotRefresh) {
  SimClock clock;
  AuLruCache c(SmallAuOptions(), &clock);
  c.Put("k", "v", 10);
  clock.Advance(85 * kMicrosPerSecond);
  // First (and only) hit inside the window: below refresh_min_hits.
  EXPECT_FALSE(c.Get("k").needs_refresh);
}

TEST(AuLruTest, RePutResetsTtlAndRefreshState) {
  SimClock clock;
  AuLruCache c(SmallAuOptions(), &clock);
  c.Put("k", "v", 10);
  c.Get("k");
  clock.Advance(85 * kMicrosPerSecond);
  c.Get("k");  // Flags refresh.
  c.TakeRefreshQueue();
  c.Put("k", "v2", 10);  // Background refresh completed.
  clock.Advance(50 * kMicrosPerSecond);  // Old TTL would have expired.
  auto lk = c.Get("k");
  EXPECT_TRUE(lk.hit);
  EXPECT_EQ(lk.value, "v2");
}

TEST(AuLruTest, EvictionAtCapacity) {
  SimClock clock;
  AuLruCache c(SmallAuOptions(), &clock);
  for (int i = 0; i < 200; i++) {
    c.Put("k" + std::to_string(i), "v", 100);
    ASSERT_LE(c.used_bytes(), 1000u);
  }
  EXPECT_GT(c.stats().evictions, 0u);
}

TEST(AuLruTest, CustomTtlHonored) {
  SimClock clock;
  AuLruCache c(SmallAuOptions(), &clock);
  c.Put("short", "v", 10, 5 * kMicrosPerSecond);
  clock.Advance(6 * kMicrosPerSecond);
  EXPECT_FALSE(c.Get("short").hit);
}

}  // namespace
}  // namespace cache
}  // namespace abase
