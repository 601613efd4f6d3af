#include "cache/prefix_tree_store.h"

#include <cassert>
#include <utility>

namespace abase {
namespace cache {

/// One cached payload, in the store's slab (96 bytes). Scan results hang
/// off their prefix's tree node (Node::scans holds their ids); point
/// entries live only in the flat hash index.
struct PrefixTreeStore::Payload {
  std::string key;  ///< Point payloads: the key. Empty for scans.
  SharedValue value;  ///< Shared with the response it was filled from.
  union {
    Node* node;  ///< Scan payloads: the prefix's tree node.
    uint64_t key_hash = 0;  ///< Point payloads: the index key.
  };
  uint64_t charge = 0;
  Micros expire_at = 0;
  uint32_t prev = kNil;  ///< LRU neighbour toward the front.
  uint32_t next = kNil;  ///< Toward the back; the free link while free.
  uint32_t hash_next = kNil;  ///< Point payloads: same-hash chain.
  uint32_t limit = 0;  ///< Scan payloads: the cached scan's limit.
  uint32_t hits_this_period = 0;
  uint8_t size_class = 0;
  bool refresh_flagged = false;
  bool is_scan = false;
};

/// Compressed radix-tree node. `edge` is the label on the edge from the
/// parent; a node's path is the concatenation of edges from the root.
/// The tree holds only range-addressable state — cached scan results —
/// so the hot point workload never grows or walks it.
struct PrefixTreeStore::Node {
  std::string edge;
  Node* parent = nullptr;
  std::map<unsigned char, std::unique_ptr<Node>> children;
  std::vector<uint32_t> scans;  ///< Payload ids, by scan limit.
  /// Scan payloads in this subtree (self included) — gates the
  /// covering-scan walk and scan invalidation.
  uint32_t subtree_scans = 0;
};

PrefixTreeStore::PrefixTreeStore(AuLruOptions options, const Clock* clock)
    : options_(options), clock_(clock) {
  static_assert(sizeof(void*) != 8 || sizeof(Payload) <= 96,
                "a content-store entry is at most 96 bytes on LP64");
  assert(clock_ != nullptr);
}

PrefixTreeStore::~PrefixTreeStore() = default;

int PrefixTreeStore::ClassFor(uint64_t charge) {
  int c = 0;
  uint64_t limit = kMinClassBytes;
  while (c < kNumClasses - 1 && charge > limit) {
    limit <<= 1;
    c++;
  }
  return c;
}

double PrefixTreeStore::ClassDensity(int c) const {
  const SizeClass& sc = classes_[c];
  return sc.bytes == 0 ? 0.0
                       : sc.recent_hits / static_cast<double>(sc.bytes);
}

const PrefixTreeStore::Node* PrefixTreeStore::FindExact(
    const std::string& key) const {
  const Node* n = root_.get();
  if (n == nullptr) return nullptr;
  size_t i = 0;
  while (i < key.size()) {
    auto it = n->children.find(static_cast<unsigned char>(key[i]));
    if (it == n->children.end()) return nullptr;
    const Node* c = it->second.get();
    const std::string& e = c->edge;
    if (i + e.size() > key.size() || key.compare(i, e.size(), e) != 0) {
      return nullptr;
    }
    i += e.size();
    n = c;
  }
  return n;
}

PrefixTreeStore::Node* PrefixTreeStore::InsertPath(const std::string& path) {
  if (!root_) {
    root_ = std::make_unique<Node>();
    node_count_ = 1;
  }
  Node* n = root_.get();
  size_t i = 0;
  while (i < path.size()) {
    auto it = n->children.find(static_cast<unsigned char>(path[i]));
    if (it == n->children.end()) {
      auto leaf = std::make_unique<Node>();
      leaf->edge = path.substr(i);
      leaf->parent = n;
      Node* out = leaf.get();
      n->children.emplace(static_cast<unsigned char>(path[i]),
                          std::move(leaf));
      node_count_++;
      return out;
    }
    Node* c = it->second.get();
    const std::string& e = c->edge;
    size_t m = 0;  // Length of the common prefix of e and path[i..].
    while (m < e.size() && i + m < path.size() && e[m] == path[i + m]) m++;
    if (m == e.size()) {
      n = c;
      i += m;
      continue;
    }
    // path diverges from (or ends inside) c's edge: split the edge at m.
    auto mid = std::make_unique<Node>();
    mid->edge = e.substr(0, m);
    mid->parent = n;
    mid->subtree_scans = c->subtree_scans;
    std::unique_ptr<Node> owned = std::move(it->second);
    c->edge = e.substr(m);
    c->parent = mid.get();
    mid->children.emplace(static_cast<unsigned char>(c->edge[0]),
                          std::move(owned));
    Node* mid_raw = mid.get();
    it->second = std::move(mid);
    node_count_++;
    i += m;
    n = mid_raw;
    if (i == path.size()) return n;
    // Next iteration creates the leaf for the remaining path under mid.
  }
  return n;
}

uint32_t PrefixTreeStore::FindPoint(uint64_t hash,
                                    const std::string& key) const {
  const uint32_t* slot = point_index_.Find(hash);
  if (slot == nullptr) return kNil;
  for (uint32_t id = *slot; id != kNil; id = slab_[id].hash_next) {
    if (slab_[id].key == key) return id;
  }
  return kNil;
}

void PrefixTreeStore::IndexPoint(uint64_t hash, uint32_t id) {
  Payload& p = slab_[id];
  p.key_hash = hash;
  if (uint32_t* head = point_index_.Find(hash)) {
    p.hash_next = *head;
    *head = id;
  } else {
    p.hash_next = kNil;
    point_index_.Insert(hash, id);
  }
}

void PrefixTreeStore::UnindexPoint(uint32_t id) {
  const Payload& p = slab_[id];
  uint32_t* slot = point_index_.Find(p.key_hash);
  assert(slot != nullptr);
  uint32_t* link = slot;
  while (*link != id) link = &slab_[*link].hash_next;
  *link = p.hash_next;
  if (*slot == kNil) point_index_.Erase(p.key_hash);
}

void PrefixTreeStore::BumpSubtreeScans(Node* n, int delta) {
  for (Node* x = n; x != nullptr; x = x->parent) {
    x->subtree_scans = static_cast<uint32_t>(
        static_cast<int64_t>(x->subtree_scans) + delta);
  }
}

void PrefixTreeStore::PruneFrom(Node* n) {
  while (n != nullptr && n != root_.get()) {
    if (!n->scans.empty()) return;
    Node* parent = n->parent;
    if (n->children.empty()) {
      parent->children.erase(static_cast<unsigned char>(n->edge[0]));
      node_count_--;
      n = parent;
      continue;
    }
    if (n->children.size() == 1) {
      // Payload-less pass-through: merge the single child upward to
      // restore path compression after deletions.
      std::unique_ptr<Node> child = std::move(n->children.begin()->second);
      child->edge = n->edge + child->edge;
      child->parent = parent;
      const auto slot = static_cast<unsigned char>(child->edge[0]);
      parent->children[slot] = std::move(child);  // Destroys n.
      node_count_--;
    }
    return;
  }
}

void PrefixTreeStore::RemovePayload(uint32_t id,
                                    bool count_as_invalidation) {
  Payload& p = slab_[id];
  used_ -= p.charge;
  classes_[p.size_class].bytes -= p.charge;
  slab_.Unlink(lru_, id);
  if (count_as_invalidation) tree_stats_.invalidated_payloads++;
  p.value = nullptr;
  if (p.is_scan) {
    Node* n = p.node;
    cached_scans_--;
    BumpSubtreeScans(n, -1);
    for (auto it = n->scans.begin(); it != n->scans.end(); ++it) {
      if (*it == id) {
        n->scans.erase(it);
        break;
      }
    }
    slab_.Free(id);
    PruneFrom(n);
  } else {
    UnindexPoint(id);
    slab_.Free(id);
  }
}

void PrefixTreeStore::EvictUntilFits(uint64_t incoming) {
  while (used_ + incoming > options_.capacity_bytes && lru_.tail != kNil) {
    stats_.evictions++;
    RemovePayload(lru_.tail, /*count_as_invalidation=*/false);
  }
}

bool PrefixTreeStore::Put(const std::string& key, std::string_view value,
                          uint64_t charge, Micros ttl) {
  return PutHashed(HashString(key), key, value, charge, ttl);
}

bool PrefixTreeStore::PutHashed(uint64_t hash, const std::string& key,
                                std::string_view value, uint64_t charge,
                                Micros ttl) {
  return PutHashed(hash, key, MakeSharedValue(value), charge, ttl);
}

bool PrefixTreeStore::PutHashed(uint64_t hash, const std::string& key,
                                SharedValue value, uint64_t charge,
                                Micros ttl) {
  assert(value != nullptr);
  if (charge > options_.capacity_bytes) return false;
  if (ttl <= 0) ttl = options_.default_ttl;
  // Overwrite reuses the resident payload. Detaching its accounting
  // and LRU slot first reproduces the remove-then-insert sequence
  // exactly — eviction decisions run against the store without the old
  // entry, and the detached payload can never be picked as a victim.
  // The hash-index entry is untouched: same key, same hash, same
  // payload object. Fresh refresh bookkeeping, like the AU-LRU cache.
  uint32_t id = FindPoint(hash, key);
  if (id != kNil) {
    const Payload& old = slab_[id];
    used_ -= old.charge;
    classes_[old.size_class].bytes -= old.charge;
    slab_.Unlink(lru_, id);
    EvictUntilFits(charge);
  } else {
    EvictUntilFits(charge);
    id = slab_.Allocate();
    Payload& fresh = slab_[id];
    fresh.key = key;
    fresh.is_scan = false;
    IndexPoint(hash, id);
  }
  Payload& p = slab_[id];
  p.value = std::move(value);
  p.charge = charge;
  p.expire_at = clock_->NowMicros() + ttl;
  p.hits_this_period = 0;
  p.refresh_flagged = false;
  p.size_class = static_cast<uint8_t>(ClassFor(charge));
  slab_.PushFront(lru_, id);
  classes_[p.size_class].bytes += charge;
  for (SizeClass& sc : classes_) sc.recent_hits *= kHitDecay;
  used_ += charge;
  stats_.inserts++;
  return true;
}

AuLookup PrefixTreeStore::Get(const std::string& key) {
  return GetHashed(HashString(key), key);
}

AuLookup PrefixTreeStore::GetHashed(uint64_t hash, const std::string& key) {
  AuLookup out;
  const uint32_t id = FindPoint(hash, key);
  if (id == kNil) {
    stats_.misses++;
    return out;
  }
  Payload& e = slab_[id];
  const Micros now = clock_->NowMicros();
  if (now >= e.expire_at) {
    // Lazy expiry, AU-LRU style: count it, drop it, report a miss.
    stats_.expired++;
    stats_.misses++;
    RemovePayload(id, /*count_as_invalidation=*/false);
    return out;
  }
  out.hit = true;
  out.value = e.value.view();
  stats_.hits++;
  classes_[e.size_class].recent_hits += 1.0;
  e.hits_this_period++;
  if (!e.refresh_flagged && e.hits_this_period >= options_.refresh_min_hits &&
      e.expire_at - now <= options_.refresh_window) {
    e.refresh_flagged = true;
    out.needs_refresh = true;
    refresh_queue_.push_back(key);
    refresh_requests_++;
  }
  slab_.MoveToFront(lru_, id);
  return out;
}

bool PrefixTreeStore::Erase(const std::string& key) {
  return EraseHashed(HashString(key), key);
}

bool PrefixTreeStore::EraseHashed(uint64_t hash, const std::string& key) {
  // Covering-scan invalidation: a write inside a cached range drops
  // that range. The root→key walk only runs when scans are cached at
  // all (subtree counters); the point entry itself comes from the hash
  // index. Removal is deferred past the walk because pruning
  // restructures the path being walked.
  if (root_ != nullptr && root_->subtree_scans > 0) {
    std::vector<uint32_t> covering;
    Node* n = root_.get();
    size_t i = 0;
    while (true) {
      covering.insert(covering.end(), n->scans.begin(), n->scans.end());
      if (i == key.size()) break;
      auto it = n->children.find(static_cast<unsigned char>(key[i]));
      if (it == n->children.end()) break;
      Node* c = it->second.get();
      const std::string& e = c->edge;
      if (i + e.size() > key.size() || key.compare(i, e.size(), e) != 0) break;
      i += e.size();
      n = c;
    }
    for (uint32_t id : covering) {
      tree_stats_.scans_dropped_by_write++;
      RemovePayload(id, /*count_as_invalidation=*/false);
    }
  }
  const uint32_t point = FindPoint(hash, key);
  if (point == kNil) return false;
  RemovePayload(point, /*count_as_invalidation=*/false);
  return true;
}

bool PrefixTreeStore::Contains(const std::string& key) const {
  return FindPoint(HashString(key), key) != kNil;
}

std::vector<std::string> PrefixTreeStore::TakeRefreshQueue() {
  std::vector<std::string> out;
  out.swap(refresh_queue_);
  return out;
}

bool PrefixTreeStore::PutScan(const std::string& prefix, uint32_t limit,
                              std::string_view payload, uint64_t charge,
                              Micros ttl) {
  return PutScan(prefix, limit, MakeSharedValue(payload), charge, ttl);
}

bool PrefixTreeStore::PutScan(const std::string& prefix, uint32_t limit,
                              SharedValue payload, uint64_t charge,
                              Micros ttl) {
  assert(payload != nullptr);
  if (charge > options_.capacity_bytes) return false;
  if (ttl <= 0) ttl = options_.default_ttl;
  if (const Node* en = FindExact(prefix); en != nullptr) {
    for (uint32_t id : en->scans) {
      if (slab_[id].limit == limit) {
        RemovePayload(id, /*count_as_invalidation=*/false);
        break;
      }
    }
  }
  EvictUntilFits(charge);
  Node* n = InsertPath(prefix);
  const uint32_t id = slab_.Allocate();
  Payload& p = slab_[id];
  p.key.clear();
  p.node = n;
  p.is_scan = true;
  p.limit = limit;
  p.value = std::move(payload);
  p.charge = charge;
  p.expire_at = clock_->NowMicros() + ttl;
  p.hits_this_period = 0;
  p.refresh_flagged = false;
  p.size_class = static_cast<uint8_t>(ClassFor(charge));
  slab_.PushFront(lru_, id);
  classes_[p.size_class].bytes += charge;
  for (SizeClass& sc : classes_) sc.recent_hits *= kHitDecay;
  used_ += charge;
  stats_.inserts++;
  tree_stats_.scan_inserts++;
  cached_scans_++;
  BumpSubtreeScans(n, +1);
  n->scans.push_back(id);
  return true;
}

AuLookup PrefixTreeStore::GetScan(const std::string& prefix, uint32_t limit) {
  AuLookup out;
  const Node* n = FindExact(prefix);
  uint32_t id = kNil;
  if (n != nullptr) {
    for (uint32_t sid : n->scans) {
      if (slab_[sid].limit == limit) {
        id = sid;
        break;
      }
    }
  }
  if (id == kNil) {
    stats_.misses++;
    tree_stats_.scan_misses++;
    return out;
  }
  const Payload& e = slab_[id];
  const Micros now = clock_->NowMicros();
  if (now >= e.expire_at) {
    stats_.expired++;
    stats_.misses++;
    tree_stats_.scan_misses++;
    RemovePayload(id, /*count_as_invalidation=*/false);
    return out;
  }
  out.hit = true;
  out.value = e.value.view();
  stats_.hits++;
  tree_stats_.scan_hits++;
  classes_[e.size_class].recent_hits += 1.0;
  slab_.MoveToFront(lru_, id);
  return out;
}

void PrefixTreeStore::CollectSubtree(const Node* n,
                                     std::vector<uint32_t>& out) const {
  if (n->subtree_scans == 0) return;
  out.insert(out.end(), n->scans.begin(), n->scans.end());
  for (auto& [byte, child] : n->children) {
    (void)byte;
    CollectSubtree(child.get(), out);
  }
}

size_t PrefixTreeStore::InvalidatePrefix(const std::string& prefix) {
  tree_stats_.prefix_invalidations++;
  std::vector<uint32_t> drop;
  // Point entries under the prefix come from the flat index by key
  // compare. The tree would give O(subtree), but points no longer
  // reside there: prefix invalidation is the rare cutover/migration
  // path while point lookups run per request — the trade goes to the
  // lookups. Collect first, remove after: removal mutates the index.
  point_index_.ForEach([&](uint64_t, uint32_t head) {
    for (uint32_t id = head; id != kNil; id = slab_[id].hash_next) {
      const std::string& key = slab_[id].key;
      if (key.size() >= prefix.size() &&
          key.compare(0, prefix.size(), prefix) == 0) {
        drop.push_back(id);
      }
    }
  });
  if (root_ != nullptr && root_->subtree_scans > 0) {
    Node* subtree = nullptr;
    Node* n = root_.get();
    size_t i = 0;
    while (true) {
      if (i >= prefix.size()) {
        subtree = n;  // Exact node: its whole subtree is covered.
        break;
      }
      // Scans cached on strict-ancestor nodes span the invalidated
      // prefix — conservatively stale, drop them too.
      drop.insert(drop.end(), n->scans.begin(), n->scans.end());
      auto it = n->children.find(static_cast<unsigned char>(prefix[i]));
      if (it == n->children.end()) break;
      Node* c = it->second.get();
      const std::string& e = c->edge;
      const size_t remain = prefix.size() - i;
      if (e.size() >= remain) {
        // Prefix ends on/inside c's edge: if the edge extends the
        // prefix, every key below c starts with it — the whole subtree
        // is covered.
        if (e.compare(0, remain, prefix, i, remain) == 0) subtree = c;
        break;
      }
      if (prefix.compare(i, e.size(), e) != 0) break;
      i += e.size();
      n = c;
    }
    if (subtree != nullptr) CollectSubtree(subtree, drop);
  }
  for (uint32_t id : drop) RemovePayload(id, /*count_as_invalidation=*/true);
  return drop.size();
}

size_t PrefixTreeStore::InvalidateScans() {
  tree_stats_.prefix_invalidations++;
  if (!root_ || root_->subtree_scans == 0) return 0;
  std::vector<uint32_t> drop;
  CollectSubtree(root_.get(), drop);
  for (uint32_t id : drop) RemovePayload(id, /*count_as_invalidation=*/true);
  return drop.size();
}

void PrefixTreeStore::Clear() {
  root_.reset();
  point_index_.Clear();
  slab_.Clear();
  lru_ = {};
  refresh_queue_.clear();
  used_ = 0;
  node_count_ = 0;
  cached_scans_ = 0;
  for (SizeClass& sc : classes_) sc = SizeClass{};
}

}  // namespace cache
}  // namespace abase
