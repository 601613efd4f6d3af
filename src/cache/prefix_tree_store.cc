#include "cache/prefix_tree_store.h"

#include <cassert>
#include <utility>

namespace abase {
namespace cache {

/// One cached payload. Scan results live at their prefix's tree node
/// (owned by the node); point entries live only in the flat hash index
/// (owned by the store, deleted in RemovePayload/DeleteAllPoints). The
/// LRU and size-class structures hold raw pointers to both kinds.
struct PrefixTreeStore::Payload {
  Node* node = nullptr;  ///< Scan payloads only; null for points.
  bool is_scan = false;
  uint32_t limit = 0;  ///< Scan payloads: the cached scan's limit.
  SharedValue value;   ///< Shared with the response it was filled from.
  uint64_t charge = 0;
  Micros expire_at = 0;
  uint32_t hits_this_period = 0;
  bool refresh_flagged = false;
  int size_class = 0;
  std::list<Payload*>::iterator lru_it;
  // Point payloads only: hash-index membership. `key` backs the
  // collision check and prefix invalidation; `hash_next` chains
  // same-hash payloads.
  std::string key;
  uint64_t key_hash = 0;
  Payload* hash_next = nullptr;
};

/// Compressed radix-tree node. `edge` is the label on the edge from the
/// parent; a node's path is the concatenation of edges from the root.
/// The tree holds only range-addressable state — cached scan results —
/// so the hot point workload never grows or walks it.
struct PrefixTreeStore::Node {
  std::string edge;
  Node* parent = nullptr;
  std::map<unsigned char, std::unique_ptr<Node>> children;
  std::vector<std::unique_ptr<Payload>> scans;  ///< By scan limit.
  /// Scan payloads in this subtree (self included) — gates the
  /// covering-scan walk and scan invalidation.
  uint32_t subtree_scans = 0;
};

PrefixTreeStore::PrefixTreeStore(AuLruOptions options, const Clock* clock)
    : options_(options), clock_(clock) {
  assert(clock_ != nullptr);
}

PrefixTreeStore::~PrefixTreeStore() { DeleteAllPoints(); }

void PrefixTreeStore::DeleteAllPoints() {
  point_index_.ForEach([](uint64_t, Payload*& head) {
    for (Payload* p = head; p != nullptr;) {
      Payload* next = p->hash_next;
      delete p;
      p = next;
    }
  });
  point_index_.Clear();
}

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

PrefixTreeStore::Payload* PrefixTreeStore::FindPoint(
    uint64_t hash, const std::string& key) const {
  Payload* const* slot = point_index_.Find(hash);
  if (slot == nullptr) return nullptr;
  for (Payload* p = *slot; p != nullptr; p = p->hash_next) {
    if (p->key == key) return p;
  }
  return nullptr;
}

void PrefixTreeStore::IndexPoint(uint64_t hash, Payload* p) {
  p->key_hash = hash;
  Payload*& head = point_index_[hash];
  p->hash_next = head;
  head = p;
}

void PrefixTreeStore::UnindexPoint(Payload* p) {
  Payload** slot = point_index_.Find(p->key_hash);
  assert(slot != nullptr);
  Payload** link = slot;
  while (*link != p) link = &(*link)->hash_next;
  *link = p->hash_next;
  if (*slot == nullptr) point_index_.Erase(p->key_hash);
}

void PrefixTreeStore::TouchLru(Payload* p) {
  lru_.splice(lru_.begin(), lru_, p->lru_it);
}

void PrefixTreeStore::InsertLru(Payload* p) {
  lru_.push_front(p);
  p->lru_it = lru_.begin();
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

void PrefixTreeStore::RemovePayload(Payload* p, bool count_as_invalidation) {
  used_ -= p->charge;
  classes_[p->size_class].bytes -= p->charge;
  lru_.erase(p->lru_it);
  if (count_as_invalidation) tree_stats_.invalidated_payloads++;
  if (p->is_scan) {
    Node* n = p->node;
    cached_scans_--;
    BumpSubtreeScans(n, -1);
    for (auto it = n->scans.begin(); it != n->scans.end(); ++it) {
      if (it->get() == p) {
        n->scans.erase(it);  // Destroys p.
        break;
      }
    }
    PruneFrom(n);
  } else {
    UnindexPoint(p);
    delete p;
  }
}

void PrefixTreeStore::EvictUntilFits(uint64_t incoming) {
  while (used_ + incoming > options_.capacity_bytes && !lru_.empty()) {
    stats_.evictions++;
    RemovePayload(lru_.back(), /*count_as_invalidation=*/false);
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
  Payload* p = FindPoint(hash, key);
  if (p != nullptr) {
    used_ -= p->charge;
    classes_[p->size_class].bytes -= p->charge;
    lru_.erase(p->lru_it);
    EvictUntilFits(charge);
  } else {
    EvictUntilFits(charge);
    p = new Payload();
    p->key = key;
    IndexPoint(hash, p);
  }
  p->value = std::move(value);
  p->charge = charge;
  p->expire_at = clock_->NowMicros() + ttl;
  p->hits_this_period = 0;
  p->refresh_flagged = false;
  p->size_class = ClassFor(charge);
  InsertLru(p);
  classes_[p->size_class].bytes += charge;
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
  Payload* pe = FindPoint(hash, key);
  if (pe == nullptr) {
    stats_.misses++;
    return out;
  }
  Payload& e = *pe;
  const Micros now = clock_->NowMicros();
  if (now >= e.expire_at) {
    // Lazy expiry, AU-LRU style: count it, drop it, report a miss.
    stats_.expired++;
    stats_.misses++;
    RemovePayload(&e, /*count_as_invalidation=*/false);
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
  TouchLru(&e);
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
    std::vector<Payload*> covering;
    Node* n = root_.get();
    size_t i = 0;
    while (true) {
      for (auto& sp : n->scans) covering.push_back(sp.get());
      if (i == key.size()) break;
      auto it = n->children.find(static_cast<unsigned char>(key[i]));
      if (it == n->children.end()) break;
      Node* c = it->second.get();
      const std::string& e = c->edge;
      if (i + e.size() > key.size() || key.compare(i, e.size(), e) != 0) break;
      i += e.size();
      n = c;
    }
    for (Payload* p : covering) {
      tree_stats_.scans_dropped_by_write++;
      RemovePayload(p, /*count_as_invalidation=*/false);
    }
  }
  Payload* point = FindPoint(hash, key);
  if (point == nullptr) return false;
  RemovePayload(point, /*count_as_invalidation=*/false);
  return true;
}

bool PrefixTreeStore::Contains(const std::string& key) const {
  return FindPoint(HashString(key), key) != nullptr;
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
    for (auto& sp : en->scans) {
      if (sp->limit == limit) {
        RemovePayload(sp.get(), /*count_as_invalidation=*/false);
        break;
      }
    }
  }
  EvictUntilFits(charge);
  Node* n = InsertPath(prefix);
  auto p = std::make_unique<Payload>();
  p->node = n;
  p->is_scan = true;
  p->limit = limit;
  p->value = std::move(payload);
  p->charge = charge;
  p->expire_at = clock_->NowMicros() + ttl;
  p->size_class = ClassFor(charge);
  InsertLru(p.get());
  classes_[p->size_class].bytes += charge;
  for (SizeClass& sc : classes_) sc.recent_hits *= kHitDecay;
  used_ += charge;
  stats_.inserts++;
  tree_stats_.scan_inserts++;
  cached_scans_++;
  BumpSubtreeScans(n, +1);
  n->scans.push_back(std::move(p));
  return true;
}

AuLookup PrefixTreeStore::GetScan(const std::string& prefix, uint32_t limit) {
  AuLookup out;
  const Node* n = FindExact(prefix);
  Payload* e = nullptr;
  if (n != nullptr) {
    for (auto& sp : n->scans) {
      if (sp->limit == limit) {
        e = sp.get();
        break;
      }
    }
  }
  if (e == nullptr) {
    stats_.misses++;
    tree_stats_.scan_misses++;
    return out;
  }
  const Micros now = clock_->NowMicros();
  if (now >= e->expire_at) {
    stats_.expired++;
    stats_.misses++;
    tree_stats_.scan_misses++;
    RemovePayload(e, /*count_as_invalidation=*/false);
    return out;
  }
  out.hit = true;
  out.value = e->value.view();
  stats_.hits++;
  tree_stats_.scan_hits++;
  classes_[e->size_class].recent_hits += 1.0;
  TouchLru(e);
  return out;
}

void PrefixTreeStore::CollectSubtree(Node* n,
                                     std::vector<Payload*>& out) const {
  if (n->subtree_scans == 0) return;
  for (auto& sp : n->scans) out.push_back(sp.get());
  for (auto& [byte, child] : n->children) {
    (void)byte;
    CollectSubtree(child.get(), out);
  }
}

size_t PrefixTreeStore::InvalidatePrefix(const std::string& prefix) {
  tree_stats_.prefix_invalidations++;
  std::vector<Payload*> drop;
  // Point entries under the prefix come from the flat index by key
  // compare. The tree would give O(subtree), but points no longer
  // reside there: prefix invalidation is the rare cutover/migration
  // path while point lookups run per request — the trade goes to the
  // lookups. Collect first, remove after: removal mutates the index.
  point_index_.ForEach([&](uint64_t, Payload*& head) {
    for (Payload* p = head; p != nullptr; p = p->hash_next) {
      if (p->key.size() >= prefix.size() &&
          p->key.compare(0, prefix.size(), prefix) == 0) {
        drop.push_back(p);
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
      for (auto& sp : n->scans) drop.push_back(sp.get());
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
  for (Payload* p : drop) RemovePayload(p, /*count_as_invalidation=*/true);
  return drop.size();
}

size_t PrefixTreeStore::InvalidateScans() {
  tree_stats_.prefix_invalidations++;
  if (!root_ || root_->subtree_scans == 0) return 0;
  std::vector<Payload*> drop;
  CollectSubtree(root_.get(), drop);
  for (Payload* p : drop) RemovePayload(p, /*count_as_invalidation=*/true);
  return drop.size();
}

void PrefixTreeStore::Clear() {
  root_.reset();
  DeleteAllPoints();
  lru_.clear();
  refresh_queue_.clear();
  used_ = 0;
  node_count_ = 0;
  cached_scans_ = 0;
  for (SizeClass& sc : classes_) sc = SizeClass{};
}

}  // namespace cache
}  // namespace abase
