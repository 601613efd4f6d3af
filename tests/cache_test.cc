// Tests for src/cache: plain LRU, size-aware SA-LRU (Section 4.4
// DataNode cache), and active-update AU-LRU (Section 4.4 proxy cache).
#include <gtest/gtest.h>

#include <list>
#include <map>
#include <string>
#include <vector>

#include "cache/au_lru.h"
#include "cache/lru_cache.h"
#include "cache/prefix_tree_store.h"
#include "cache/sa_lru.h"
#include "common/clock.h"
#include "common/flat_map.h"
#include "common/rng.h"
#include "common/shared_value.h"
#include "counting_allocator.h"

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

// SA-LRU's contract, written as plainly as possible: per-class std::list
// LRUs and a std::map index keyed by the caller's hash. The slab-backed
// cache must match it observable for observable.
class SaLruModel {
 public:
  SaLruModel(SaLruOptions o, const Clock* clock)
      : o_(o), clock_(clock), classes_(static_cast<size_t>(o.num_classes)) {}

  bool Put(uint64_t h, const std::string& key, const std::string& value,
           uint64_t charge, Micros expire_at) {
    if (charge > o_.capacity_bytes) return false;
    if (index_.count(h) != 0) Remove(h);  // Same key or a collided one.
    while (used_ + charge > o_.capacity_bytes) {
      const int v = VictimClass();
      if (v < 0) break;
      Remove(classes_[static_cast<size_t>(v)].lru.back());
      evictions_++;
      for (Class& c : classes_) c.hits *= o_.hit_decay;
    }
    Class& c = classes_[static_cast<size_t>(ClassFor(charge))];
    c.lru.push_front(h);
    c.bytes += charge;
    used_ += charge;
    index_[h] = Ent{key, value, charge, expire_at, c.lru.begin()};
    return true;
  }

  /// The hit's value, or null on a miss.
  const std::string* Get(uint64_t h, const std::string& key,
                         Micros* expire_at) {
    *expire_at = 0;
    auto it = index_.find(h);
    if (it == index_.end() || it->second.key != key) {
      misses_++;
      return nullptr;
    }
    Ent& e = it->second;
    if (e.expire_at != 0 && clock_->NowMicros() >= e.expire_at) {
      misses_++;
      Remove(h);
      return nullptr;
    }
    hits_++;
    *expire_at = e.expire_at;
    Class& c = classes_[static_cast<size_t>(ClassFor(e.charge))];
    c.hits += 1.0;
    c.lru.splice(c.lru.begin(), c.lru, e.pos);
    return &e.value;
  }

  bool Erase(uint64_t h, const std::string& key) {
    auto it = index_.find(h);
    if (it == index_.end() || it->second.key != key) return false;
    Remove(h);
    return true;
  }

  void Clear() {
    index_.clear();
    for (Class& c : classes_) c = Class{};
    used_ = 0;
  }

  std::vector<uint64_t> ClassBytes() const {
    std::vector<uint64_t> out;
    for (const Class& c : classes_) out.push_back(c.bytes);
    return out;
  }
  std::vector<double> ClassDensity() const {
    std::vector<double> out;
    for (const Class& c : classes_) {
      out.push_back(c.bytes == 0 ? 0.0
                                 : c.hits / static_cast<double>(c.bytes));
    }
    return out;
  }
  uint64_t used_bytes() const { return used_; }
  size_t entry_count() const { return index_.size(); }
  uint64_t hits() const { return hits_; }
  uint64_t misses() const { return misses_; }
  uint64_t evictions() const { return evictions_; }

 private:
  struct Ent {
    std::string key, value;
    uint64_t charge;
    Micros expire_at;
    std::list<uint64_t>::iterator pos;
  };
  struct Class {
    std::list<uint64_t> lru;  ///< Hashes, front = most recent.
    uint64_t bytes = 0;
    double hits = 0;
  };

  int ClassFor(uint64_t charge) const {
    uint64_t bound = o_.min_class_bytes;
    for (int c = 0; c < o_.num_classes - 1; c++, bound *= 2) {
      if (charge <= bound) return c;
    }
    return o_.num_classes - 1;
  }
  /// Lowest hits per byte among classes holding bytes; ties go to the
  /// larger class.
  int VictimClass() const {
    int victim = -1;
    double best = 0;
    for (int c = o_.num_classes - 1; c >= 0; c--) {
      const Class& k = classes_[static_cast<size_t>(c)];
      if (k.bytes == 0) continue;
      const double d = k.hits / static_cast<double>(k.bytes);
      if (victim < 0 || d < best) {
        victim = c;
        best = d;
      }
    }
    return victim;
  }
  void Remove(uint64_t h) {
    const Ent& e = index_.at(h);
    Class& c = classes_[static_cast<size_t>(ClassFor(e.charge))];
    c.bytes -= e.charge;
    used_ -= e.charge;
    c.lru.erase(e.pos);
    index_.erase(h);
  }

  SaLruOptions o_;
  const Clock* clock_;
  std::vector<Class> classes_;
  std::map<uint64_t, Ent> index_;
  uint64_t used_ = 0, hits_ = 0, misses_ = 0, evictions_ = 0;
};

// Randomized Put/GetRef/Erase/Clear, TTLs and clock steps against the
// model. Hashes come from a 64-value space, so distinct keys collide
// all the time: a probe must miss on a collided key, and a Put must
// evict the collided entry it displaces.
TEST(SaLruTest, ForcedCollisionsMatchReferenceModel) {
  for (uint64_t seed : {1, 2, 3}) {
    SimClock clock(0);
    SaLruOptions o = SmallSaOptions(2000);
    SaLruCache cache(o, &clock);
    SaLruModel model(o, &clock);
    Rng rng(seed);
    std::vector<std::string> keys;
    for (int i = 0; i < 200; i++) keys.push_back("t1:k" + std::to_string(i));
    auto hash_of = [](const std::string& k) { return HashString(k) % 64; };
    for (int step = 0; step < 20000; step++) {
      const std::string& key = keys[rng.NextUint64(keys.size())];
      const uint64_t h = hash_of(key);
      const double pick = rng.NextDouble();
      if (pick < 0.4) {
        const std::string value = "v" + std::to_string(step);
        const uint64_t charge = 1 + rng.NextUint64(rng.NextBool(0.1) ? 900 : 70);
        const Micros expire_at =
            rng.NextBool(0.5) ? 0
                              : clock.NowMicros() +
                                    static_cast<Micros>(rng.NextUint64(50));
        ASSERT_EQ(cache.PutHashed(h, key, value, charge, expire_at),
                  model.Put(h, key, value, charge, expire_at));
      } else if (pick < 0.85) {
        Micros got_exp = -1, want_exp = -1;
        const SharedValue* got = cache.GetRefHashed(h, key, &got_exp);
        const std::string* want = model.Get(h, key, &want_exp);
        ASSERT_EQ(got != nullptr, want != nullptr) << key << " step " << step;
        if (want != nullptr) {
          EXPECT_EQ(got->view(), *want);
        }
        EXPECT_EQ(got_exp, want_exp);
      } else if (pick < 0.97) {
        ASSERT_EQ(cache.EraseHashed(h, key), model.Erase(h, key));
      } else if (pick < 0.995) {
        clock.Advance(static_cast<Micros>(rng.NextUint64(20)));
      } else {
        cache.Clear();
        model.Clear();
      }
      ASSERT_EQ(cache.used_bytes(), model.used_bytes()) << "step " << step;
      ASSERT_EQ(cache.entry_count(), model.entry_count());
      ASSERT_EQ(cache.ClassBytes(), model.ClassBytes());
    }
    EXPECT_EQ(cache.stats().hits, model.hits());
    EXPECT_EQ(cache.stats().misses, model.misses());
    EXPECT_EQ(cache.stats().evictions, model.evictions());
    EXPECT_GT(model.evictions(), 100u);
    EXPECT_EQ(cache.ClassDensity(), model.ClassDensity());
  }
}

// ------------------------------------------------ Entry allocation --

// Both cache tiers keep their entries in a slab (common/slab.h): a
// first-time fill allocates no entry of its own, only the occasional
// slab chunk or index rehash, and a cache that was never filled holds
// no heap memory at all. Payloads are shared and keys are short
// (inline), so neither allocates here.
constexpr int kFills = 10000;
// Slab chunks (first chunk doubling from 8, then 512-entry chunks), the
// chunk table's growth, and the hash index's rehashes: 38-39 for 10k
// fills. One allocation per fill would be 10,000.
constexpr long kMaxFillAllocs = 64;

std::vector<std::string> FillKeys() {
  std::vector<std::string> keys;
  for (int i = 0; i < kFills; i++) keys.push_back("t1:k" + std::to_string(i));
  return keys;
}

TEST(CacheAllocationTest, EmptyCachesAllocateNothing) {
  SimClock clock(0);
  Micros expire_at = 0;
  long allocs = CountAllocs([&] {
    SaLruCache node_cache(SaLruOptions{}, &clock);
    PrefixTreeStore store(AuLruOptions{}, &clock);
    EXPECT_EQ(node_cache.GetRefHashed(1, "k", &expire_at), nullptr);
    EXPECT_FALSE(node_cache.EraseHashed(1, "k"));
    EXPECT_FALSE(store.GetHashed(1, "k").hit);
    EXPECT_FALSE(store.GetScan("t1:", 10).hit);
    EXPECT_FALSE(store.EraseHashed(1, "k"));
    EXPECT_EQ(store.InvalidatePrefix("t1:"), 0u);
    node_cache.Clear();
    store.Clear();
  });
  EXPECT_EQ(allocs, 0);
}

TEST(CacheAllocationTest, NodeCacheFirstFillsShareSlabChunks) {
  const std::vector<std::string> keys = FillKeys();
  const SharedValue value = MakeSharedValue(std::string(64, 'v'));
  SimClock clock(0);
  SaLruCache cache(SaLruOptions{}, &clock);
  long allocs = CountAllocs([&] {
    for (const std::string& k : keys) {
      cache.PutHashed(HashString(k), k, value, 96);
    }
  });
  EXPECT_EQ(cache.entry_count(), static_cast<size_t>(kFills));
  EXPECT_LE(allocs, kMaxFillAllocs);
  // Evict-and-refill reuses freed entries: overwrites and fills of a
  // full cache allocate nothing.
  allocs = CountAllocs([&] {
    for (const std::string& k : keys) cache.EraseHashed(HashString(k), k);
    for (const std::string& k : keys) {
      cache.PutHashed(HashString(k), k, value, 96);
    }
  });
  EXPECT_EQ(allocs, 0);
}

TEST(CacheAllocationTest, ContentStoreFirstFillsShareSlabChunks) {
  const std::vector<std::string> keys = FillKeys();
  const SharedValue value = MakeSharedValue(std::string(64, 'v'));
  SimClock clock(0);
  PrefixTreeStore store(AuLruOptions{}, &clock);
  long allocs = CountAllocs([&] {
    for (const std::string& k : keys) {
      store.PutHashed(HashString(k), k, value, 96);
    }
  });
  EXPECT_EQ(store.entry_count(), static_cast<size_t>(kFills));
  EXPECT_LE(allocs, kMaxFillAllocs);
  allocs = CountAllocs([&] {
    for (const std::string& k : keys) store.EraseHashed(HashString(k), k);
    for (const std::string& k : keys) {
      store.PutHashed(HashString(k), k, value, 96);
    }
  });
  EXPECT_EQ(allocs, 0);
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
