#include "cache/sa_lru.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace abase {
namespace cache {

SaLruCache::SaLruCache(SaLruOptions options, const Clock* clock)
    : options_(options), clock_(clock) {
  static_assert(sizeof(void*) != 8 || sizeof(Entry) <= 80,
                "a node-cache entry is at most 80 bytes on LP64");
  assert(options_.num_classes >= 1);
}

int SaLruCache::ClassFor(uint64_t charge) const {
  uint64_t bound = options_.min_class_bytes;
  for (int c = 0; c < options_.num_classes - 1; c++) {
    if (charge <= bound) return c;
    bound *= 2;
  }
  return options_.num_classes - 1;
}

bool SaLruCache::Put(const std::string& key, std::string_view value,
                     uint64_t charge, Micros expire_at) {
  return PutHashed(HashString(key), key, value, charge, expire_at);
}

bool SaLruCache::PutHashed(uint64_t h, const std::string& key,
                           std::string_view value, uint64_t charge,
                           Micros expire_at) {
  return PutHashed(h, key, MakeSharedValue(value), charge, expire_at);
}

bool SaLruCache::PutHashed(uint64_t h, const std::string& key,
                           SharedValue value, uint64_t charge,
                           Micros expire_at) {
  assert(value != nullptr);
  if (charge > options_.capacity_bytes) return false;
  if (classes_.empty()) {
    classes_.resize(static_cast<size_t>(options_.num_classes));
  }
  // Same key or a hash-collided victim: either way the slot's current
  // entry goes, keeping the index bijective with the class lists. The
  // detached entry is out of every class list, so it can't be picked as
  // an eviction victim, and is refilled below with its key capacity
  // intact.
  uint32_t id = kNil;
  if (const uint32_t* slot = map_.Find(h)) {
    id = *slot;
    Detach(id);
    map_.Erase(h);
  }
  EvictUntilFits(charge);
  if (id == kNil) id = slab_.Allocate();
  Entry& e = slab_[id];
  e.key = key;
  e.value = std::move(value);
  e.hash = h;
  e.charge = charge;
  e.expire_at = expire_at;
  SizeClass& sc = classes_[static_cast<size_t>(ClassFor(charge))];
  slab_.PushFront(sc.lru, id);
  map_.Insert(h, id);
  sc.bytes += charge;
  used_ += charge;
  stats_.inserts++;
  return true;
}

void SaLruCache::Detach(uint32_t id) {
  const Entry& e = slab_[id];
  SizeClass& sc = classes_[static_cast<size_t>(ClassFor(e.charge))];
  sc.bytes -= e.charge;
  used_ -= e.charge;
  slab_.Unlink(sc.lru, id);
}

void SaLruCache::Remove(uint32_t id) {
  Detach(id);
  Entry& e = slab_[id];
  map_.Erase(e.hash);
  e.value = nullptr;
  slab_.Free(id);
}

std::optional<std::string> SaLruCache::Get(const std::string& key) {
  Micros ignored;
  return GetWithExpiry(key, &ignored);
}

std::optional<std::string> SaLruCache::GetWithExpiry(const std::string& key,
                                                     Micros* expire_at) {
  const SharedValue* v = GetRef(key, expire_at);
  if (v == nullptr) return std::nullopt;
  return std::string(v->view());
}

const SharedValue* SaLruCache::GetRef(const std::string& key,
                                      Micros* expire_at) {
  return GetRefHashed(HashString(key), key, expire_at);
}

const SharedValue* SaLruCache::GetRefHashed(uint64_t h,
                                            const std::string& key,
                                            Micros* expire_at) {
  *expire_at = 0;
  const uint32_t* slot = map_.Find(h);
  if (slot == nullptr || slab_[*slot].key != key) {
    stats_.misses++;
    return nullptr;
  }
  const uint32_t id = *slot;
  Entry& e = slab_[id];
  if (e.expire_at != 0 && clock_ != nullptr &&
      clock_->NowMicros() >= e.expire_at) {
    stats_.expired++;
    stats_.misses++;
    Remove(id);
    return nullptr;
  }
  stats_.hits++;
  *expire_at = e.expire_at;
  SizeClass& sc = classes_[static_cast<size_t>(ClassFor(e.charge))];
  sc.recent_hits += 1.0;
  slab_.MoveToFront(sc.lru, id);
  return &e.value;
}

bool SaLruCache::Erase(const std::string& key) {
  return EraseHashed(HashString(key), key);
}

bool SaLruCache::EraseHashed(uint64_t h, const std::string& key) {
  const uint32_t* slot = map_.Find(h);
  if (slot == nullptr || slab_[*slot].key != key) return false;
  Remove(*slot);
  return true;
}

void SaLruCache::Clear() {
  map_.Clear();
  slab_.Clear();
  for (SizeClass& sc : classes_) sc = SizeClass{};
  used_ = 0;
}

bool SaLruCache::Contains(const std::string& key) const {
  const uint32_t* slot = map_.Find(HashString(key));
  return slot != nullptr && slab_[*slot].key == key;
}

int SaLruCache::VictimClass() const {
  // Lowest recent-hit density (hits per byte) among non-empty classes.
  // Ties break toward the *largest* size class: with equal density, evicting
  // big items frees more room per displaced hit.
  int victim = -1;
  double best_density = 0;
  for (int c = options_.num_classes - 1; c >= 0; c--) {
    const SizeClass& sc = classes_[static_cast<size_t>(c)];
    if (sc.bytes == 0) continue;
    double density = sc.recent_hits / static_cast<double>(sc.bytes);
    if (victim < 0 || density < best_density) {
      victim = c;
      best_density = density;
    }
  }
  return victim;
}

void SaLruCache::EvictUntilFits(uint64_t incoming) {
  while (used_ + incoming > options_.capacity_bytes) {
    int victim_class = VictimClass();
    if (victim_class < 0) break;  // Cache empty.
    Remove(classes_[static_cast<size_t>(victim_class)].lru.tail);
    stats_.evictions++;
    DecayHits();
  }
}

void SaLruCache::DecayHits() {
  for (SizeClass& sc : classes_) sc.recent_hits *= options_.hit_decay;
}

std::vector<uint64_t> SaLruCache::ClassBytes() const {
  std::vector<uint64_t> out(static_cast<size_t>(options_.num_classes), 0);
  for (size_t c = 0; c < classes_.size(); c++) out[c] = classes_[c].bytes;
  return out;
}

std::vector<double> SaLruCache::ClassDensity() const {
  std::vector<double> out(static_cast<size_t>(options_.num_classes), 0.0);
  for (size_t c = 0; c < classes_.size(); c++) {
    const SizeClass& sc = classes_[c];
    if (sc.bytes != 0) {
      out[c] = sc.recent_hits / static_cast<double>(sc.bytes);
    }
  }
  return out;
}

}  // namespace cache
}  // namespace abase
