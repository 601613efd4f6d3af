#include "cache/au_lru.h"

#include <cassert>

namespace abase {
namespace cache {

AuLruCache::AuLruCache(AuLruOptions options, const Clock* clock)
    : options_(options), clock_(clock) {
  assert(clock_ != nullptr);
}

bool AuLruCache::Put(const std::string& key, std::string value,
                     uint64_t charge, Micros ttl) {
  if (charge > options_.capacity_bytes) return false;
  if (ttl <= 0) ttl = options_.default_ttl;
  const uint64_t h = HashString(key);
  // Same key or a hash-collided victim: either way the slot's current
  // entry goes, keeping the index bijective with the list.
  if (auto* slot = map_.Find(h)) RemoveEntry(*slot);
  EvictUntilFits(charge);
  lru_.push_front(Entry{key, std::move(value), charge,
                        clock_->NowMicros() + ttl, /*hits_this_period=*/0,
                        /*refresh_flagged=*/false});
  map_.Insert(h, lru_.begin());
  used_ += charge;
  stats_.inserts++;
  return true;
}

AuLookup AuLruCache::Get(const std::string& key) {
  AuLookup out;
  auto* slot = map_.Find(HashString(key));
  if (slot == nullptr || (*slot)->key != key) {
    stats_.misses++;
    return out;
  }
  Entry& e = **slot;
  const Micros now = clock_->NowMicros();
  if (now >= e.expire_at) {
    // Lazily expire: a passive LRU would now forward this (possibly hot)
    // key to the DataNode — exactly the spike AU-LRU avoids via refresh.
    stats_.expired++;
    stats_.misses++;
    RemoveEntry(*slot);
    return out;
  }
  out.hit = true;
  out.value = e.value;
  stats_.hits++;
  e.hits_this_period++;
  if (!e.refresh_flagged && e.hits_this_period >= options_.refresh_min_hits &&
      e.expire_at - now <= options_.refresh_window) {
    e.refresh_flagged = true;
    out.needs_refresh = true;
    refresh_queue_.push_back(key);
    refresh_requests_++;
  }
  lru_.splice(lru_.begin(), lru_, *slot);
  return out;
}

bool AuLruCache::Erase(const std::string& key) {
  return EraseHashed(HashString(key), key);
}

bool AuLruCache::EraseHashed(uint64_t hash, const std::string& key) {
  auto* slot = map_.Find(hash);
  if (slot == nullptr || (*slot)->key != key) return false;
  RemoveEntry(*slot);
  return true;
}

bool AuLruCache::Contains(const std::string& key) const {
  const auto* slot = map_.Find(HashString(key));
  return slot != nullptr && (*slot)->key == key;
}

std::vector<std::string> AuLruCache::TakeRefreshQueue() {
  std::vector<std::string> out;
  out.swap(refresh_queue_);
  return out;
}

void AuLruCache::EvictUntilFits(uint64_t incoming) {
  while (used_ + incoming > options_.capacity_bytes && !lru_.empty()) {
    auto victim = std::prev(lru_.end());
    stats_.evictions++;
    RemoveEntry(victim);
  }
}

void AuLruCache::RemoveEntry(std::list<Entry>::iterator it) {
  used_ -= it->charge;
  map_.Erase(HashString(it->key));
  lru_.erase(it);
}

}  // namespace cache
}  // namespace abase
