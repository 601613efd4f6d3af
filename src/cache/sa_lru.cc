#include "cache/sa_lru.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace abase {
namespace cache {

SaLruCache::SaLruCache(SaLruOptions options, const Clock* clock)
    : options_(options), clock_(clock) {
  assert(options_.num_classes >= 1);
  classes_.resize(static_cast<size_t>(options_.num_classes));
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
  // Same key or a hash-collided victim: either way the slot's current
  // entry goes, keeping the index bijective with the class lists. The
  // detached node is parked in spare_ — out of every class list, so it
  // can't be picked as an eviction victim — and reused below with its
  // key capacity intact.
  if (auto* slot = map_.Find(h)) {
    auto old = *slot;
    SizeClass& osc = classes_[static_cast<size_t>(old->size_class)];
    osc.bytes -= old->charge;
    used_ -= old->charge;
    spare_.splice(spare_.begin(), osc.lru, old);
    map_.Erase(h);
  }
  EvictUntilFits(charge);
  int cls = ClassFor(charge);
  SizeClass& sc = classes_[static_cast<size_t>(cls)];
  if (!spare_.empty()) {
    sc.lru.splice(sc.lru.begin(), spare_, spare_.begin());
    Entry& e = sc.lru.front();
    e.key = key;
    e.value = std::move(value);
    e.charge = charge;
    e.size_class = cls;
    e.expire_at = expire_at;
  } else {
    sc.lru.push_front(Entry{key, std::move(value), charge, cls, expire_at});
  }
  map_.Insert(h, sc.lru.begin());
  sc.bytes += charge;
  used_ += charge;
  stats_.inserts++;
  return true;
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
  auto* slot = map_.Find(h);
  if (slot == nullptr || (*slot)->key != key) {
    stats_.misses++;
    return nullptr;
  }
  auto it = *slot;
  if (it->expire_at != 0 && clock_ != nullptr &&
      clock_->NowMicros() >= it->expire_at) {
    stats_.expired++;
    stats_.misses++;
    EraseHashed(h, key);
    return nullptr;
  }
  stats_.hits++;
  *expire_at = it->expire_at;
  SizeClass& sc = classes_[static_cast<size_t>(it->size_class)];
  sc.recent_hits += 1.0;
  sc.lru.splice(sc.lru.begin(), sc.lru, it);
  return &it->value;
}

bool SaLruCache::Erase(const std::string& key) {
  return EraseHashed(HashString(key), key);
}

bool SaLruCache::EraseHashed(uint64_t h, const std::string& key) {
  auto* slot = map_.Find(h);
  if (slot == nullptr || (*slot)->key != key) return false;
  auto it = *slot;
  SizeClass& sc = classes_[static_cast<size_t>(it->size_class)];
  sc.bytes -= it->charge;
  used_ -= it->charge;
  sc.lru.erase(it);
  map_.Erase(h);
  return true;
}

void SaLruCache::Clear() {
  map_.Clear();
  for (SizeClass& sc : classes_) {
    sc.lru.clear();
    sc.bytes = 0;
    sc.recent_hits = 0;
  }
  used_ = 0;
}

bool SaLruCache::Contains(const std::string& key) const {
  const auto* slot = map_.Find(HashString(key));
  return slot != nullptr && (*slot)->key == key;
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
    SizeClass& sc = classes_[static_cast<size_t>(victim_class)];
    const Entry& victim = sc.lru.back();
    used_ -= victim.charge;
    sc.bytes -= victim.charge;
    map_.Erase(HashString(victim.key));
    sc.lru.pop_back();
    stats_.evictions++;
    DecayHits();
  }
}

void SaLruCache::DecayHits() {
  for (SizeClass& sc : classes_) sc.recent_hits *= options_.hit_decay;
}

std::vector<uint64_t> SaLruCache::ClassBytes() const {
  std::vector<uint64_t> out;
  out.reserve(classes_.size());
  for (const SizeClass& sc : classes_) out.push_back(sc.bytes);
  return out;
}

std::vector<double> SaLruCache::ClassDensity() const {
  std::vector<double> out;
  out.reserve(classes_.size());
  for (const SizeClass& sc : classes_) {
    out.push_back(sc.bytes == 0
                      ? 0.0
                      : sc.recent_hits / static_cast<double>(sc.bytes));
  }
  return out;
}

}  // namespace cache
}  // namespace abase
