// Tenant proxy — paper Sections 3.2, 4.2 and 4.4.
//
// Each tenant owns a fleet of proxies. A proxy:
//  * serves point reads and prefix scans from its content store (free:
//    no quota charge, no data-plane traffic). The store is a prefix
//    tree with AU-LRU point semantics (cache/prefix_tree_store.h);
//  * enforces the proxy-level quota with 2x autonomous headroom,
//    rejecting excess traffic *before* it can reach shared DataNodes;
//  * estimates request RUs cache-awarely for admission control;
//  * actively refreshes hot cache entries that approach expiry.
//
// A registered tenant's proxies exist whether or not it ever sends a
// request, so a proxy keeps only its identity, options, quota and
// counters inline; the content store, the RU estimator and the in-flight
// estimate map are built on its first admitted request (Lazy below).
// Before that, cache() is a shared empty store and invalidations that
// would find nothing in an empty store are no-ops.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "cache/au_lru.h"
#include "cache/prefix_tree_store.h"
#include "common/flat_map.h"
#include "common/clock.h"
#include "common/types.h"
#include "node/request.h"
#include "quota/quota.h"
#include "ru/request_unit.h"

namespace abase {
namespace proxy {

/// Per-proxy configuration.
struct ProxyOptions {
  cache::AuLruOptions cache;
  ru::RuOptions ru;
  bool cache_enabled = true;
  bool quota_enabled = true;
  Micros cache_hit_latency = 80;    ///< Client-visible proxy-hit latency.
  Micros forward_hop_latency = 120; ///< Added per data-plane round trip.
  int replicas = 3;                 ///< For write RU estimation.
};

/// Cumulative proxy counters.
struct ProxyStats {
  uint64_t requests = 0;
  uint64_t cache_hits = 0;
  uint64_t throttled = 0;
  uint64_t forwarded = 0;
  uint64_t refresh_fetches = 0;
  double admitted_ru = 0;  ///< Estimated RU admitted through the quota.
  double charged_ru = 0;   ///< Actual RU charged after settlement.
};

/// What the proxy decided to do with a client request.
struct ProxyHandleResult {
  enum class Action { kServedFromCache, kThrottled, kForward };
  Action action = Action::kForward;
  NodeRequest forward;  ///< Valid when action == kForward.
  /// Cache-hit payload, materialized only for tracked requests (bulk
  /// generated traffic drops the value unread; see value_bytes).
  std::string value;
  uint64_t value_bytes = 0;  ///< Cache-hit payload size, always set.
  Micros latency = 0;   ///< Client-visible latency for local outcomes.
};

/// One proxy instance.
class Proxy {
 public:
  /// `partition_of_hashed` maps Fnv1a64(key) to the key's partition
  /// (routing metadata pulled from the MetaServer). Requests carry that
  /// hash from generation, so forwards route without re-hashing the key;
  /// refresh fetches hash their key once.
  Proxy(ProxyId id, TenantId tenant, double proxy_quota_ru,
        ProxyOptions options, const Clock* clock,
        std::function<PartitionId(uint64_t)> partition_of_hashed);

  /// Handles one client request: cache → quota → forward.
  ProxyHandleResult Handle(const ClientRequest& req);

  /// Handle with a caller-computed Fnv1a64(req.key) (the hot path hashes
  /// each key once at generate time).
  ProxyHandleResult Handle(const ClientRequest& req, uint64_t key_hash);

  /// Zero-copy-forward variant: on kForward the node request is
  /// materialized into `fwd` — a recycled slot whose string capacity is
  /// reused by assignment (every field is overwritten, so stale slot
  /// contents never leak). On local outcomes `local` carries the payload
  /// size / value / latency and `fwd` is untouched.
  ProxyHandleResult::Action HandleInto(const ClientRequest& req,
                                       uint64_t key_hash, NodeRequest& fwd,
                                       ProxyHandleResult& local);

  /// Ingests a data-plane response: settles the quota against the actual
  /// charge, updates RU estimators, and fills the cache.
  void OnResponse(const NodeResponse& resp);

  /// Forgets a forwarded request that will never get a response (stranded
  /// on a failed node, or unroutable after a redirect chase): refunds the
  /// admitted RU estimate and drops the in-flight record. The RU
  /// estimators are untouched — no data-plane outcome was observed.
  void AbandonForward(uint64_t req_id);

  /// Background re-fetches for cache entries flagged by AU-LRU's active
  /// update. The caller forwards these to the data plane like normal
  /// requests (they are marked background_refresh).
  std::vector<NodeRequest> TakeRefreshFetches();

  /// Drops the cached value of `key` (write invalidation: the simulator
  /// broadcasts this to the tenant's proxies when a write is routed).
  /// The content store also drops every cached scan covering the key.
  void InvalidateCache(const std::string& key) {
    if (lazy_) lazy_->cache.Erase(key);
  }

  /// InvalidateCache with a caller-computed HashString(key): the
  /// broadcast hashes once for the whole proxy fleet.
  void InvalidateCacheHashed(uint64_t hash, const std::string& key) {
    if (lazy_) lazy_->cache.EraseHashed(hash, key);
  }

  /// Drops every cached entry under `prefix` — O(subtree), used for
  /// moved-key purges and migrations.
  void InvalidateCachePrefix(const std::string& prefix) {
    MutableLazy().cache.InvalidatePrefix(prefix);  // Counted even if empty.
  }

  /// Drops only cached scan results (split cutover: the partition set a
  /// scan was merged across changed, but no value moved or changed, so
  /// point entries stay valid).
  void InvalidateCachedScans() {
    MutableLazy().cache.InvalidateScans();  // Counted even if empty.
  }

  /// Drops the whole content store (conservative full-flush cutover).
  void FlushCache() {
    if (lazy_) lazy_->cache.Clear();
  }

  /// Caches the framed payload of a completed prefix scan. Called by
  /// the settle merge, which knows the scan's prefix shape and limit
  /// (a NodeResponse does not carry them). The store shares the merged
  /// response's handle: no copy.
  void FillScanCache(const std::string& prefix, uint32_t limit,
                     const SharedValue& framed);

  // -- Control-plane hooks ---------------------------------------------------

  /// MetaServer clamp directive (asynchronous traffic control).
  void SetClamped(bool clamped) { quota_.SetClamped(clamped); }
  bool clamped() const { return quota_.clamped(); }

  /// Re-bases the per-proxy quota after tenant scaling.
  void SetBaseQuota(double proxy_quota_ru) {
    quota_.SetBaseQuota(proxy_quota_ru);
  }

  /// RU admitted since the last report (the MetaServer polls this).
  double ReportAndResetAdmittedRu();

  /// Installs the id source for background refresh fetches. The cluster
  /// simulator wires this to its sim-wide counter: refresh ids key the
  /// shared in-flight table, so per-proxy counters would collide across
  /// proxies. Standalone proxies (unit tests) fall back to a private id
  /// space.
  void set_refresh_id_allocator(std::function<uint64_t()> alloc) {
    refresh_id_alloc_ = std::move(alloc);
  }

  // -- Introspection ----------------------------------------------------------

  ProxyId id() const { return id_; }
  TenantId tenant() const { return tenant_; }

  /// Availability zone this proxy instance runs in (latency subsystem:
  /// the node<->proxy hop pays the cross-AZ RTT class when the serving
  /// node lives in a different zone). Assigned by the deployment.
  uint32_t az() const { return az_; }
  void set_az(uint32_t az) { az_ = az; }

  const ProxyStats& stats() const { return stats_; }
  /// The content store; a shared empty one before the first admission.
  const cache::PrefixTreeStore& cache() const;
  /// The RU estimator (built here if no request was admitted yet).
  const ru::RuEstimator& ru_estimator() { return MutableLazy().ru; }
  void set_cache_enabled(bool enabled) { cache_enabled_ = enabled; }
  void set_quota_enabled(bool enabled) { quota_enabled_ = enabled; }

 private:
  /// Per-traffic state, built on the first admission (see file comment).
  struct Lazy {
    Lazy(const ProxyOptions& options, const Clock* clock)
        : cache(options.cache, clock), ru(options.ru) {}
    cache::PrefixTreeStore cache;
    ru::RuEstimator ru;
    /// Estimates for in-flight forwards, keyed by req_id (settlement).
    FlatMap64<double> inflight_estimates;
  };

  Lazy& MutableLazy() {
    if (!lazy_) lazy_ = std::make_unique<Lazy>(options_, clock_);
    return *lazy_;
  }

  double EstimateRu(const ClientRequest& req) const;

  ProxyId id_;
  TenantId tenant_;
  uint32_t az_ = 0;
  ProxyOptions options_;
  const Clock* clock_;
  std::function<PartitionId(uint64_t)> partition_of_hashed_;
  quota::ProxyQuota quota_;
  bool cache_enabled_;
  bool quota_enabled_;
  ProxyStats stats_;
  double admitted_since_report_ = 0;
  std::unique_ptr<Lazy> lazy_;  ///< Null until the first admission.
  /// Sim-wide refresh id source (see set_refresh_id_allocator).
  std::function<uint64_t()> refresh_id_alloc_;
  uint64_t refresh_req_id_ = (1ull << 62);  ///< Standalone fallback space.
};

}  // namespace proxy
}  // namespace abase
