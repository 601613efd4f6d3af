#include "proxy/proxy.h"

#include <cassert>
#include <utility>

#include "common/hash.h"
#include "common/keyspace.h"

namespace abase {
namespace proxy {

Proxy::Proxy(ProxyId id, TenantId tenant, double proxy_quota_ru,
             ProxyOptions options, const Clock* clock,
             std::function<PartitionId(uint64_t)> partition_of_hashed)
    : id_(id),
      tenant_(tenant),
      options_(options),
      clock_(clock),
      partition_of_hashed_(std::move(partition_of_hashed)),
      quota_(proxy_quota_ru, clock),
      cache_enabled_(options.cache_enabled),
      quota_enabled_(options.quota_enabled) {
  assert(clock_ != nullptr);
}

const cache::PrefixTreeStore& Proxy::cache() const {
  static const SimClock kClock;
  static const cache::PrefixTreeStore kEmpty(cache::AuLruOptions{}, &kClock);
  return lazy_ ? lazy_->cache : kEmpty;
}

double Proxy::EstimateRu(const ClientRequest& req) const {
  const ru::RuEstimator& ru = lazy_->ru;
  switch (req.op) {
    case OpType::kSet:
      return ru.WriteRu(req.value.size(), options_.replicas);
    case OpType::kHSet:
      return ru.WriteRu(req.field.size() + req.value.size(),
                        options_.replicas);
    case OpType::kDel:
      return ru.WriteRu(req.key.size(), options_.replicas);
    case OpType::kExpire:
      return 1.0;
    case OpType::kGet:
    case OpType::kHGet:
      return ru.EstimateReadRu();
    case OpType::kHLen:
      return ru.EstimateHLenRu();
    case OpType::kHGetAll:
      return ru.EstimateHGetAllRu();
    case OpType::kScan:
      return ru.EstimateScanRu(req.scan_limit);
  }
  return 1.0;
}

ProxyHandleResult Proxy::Handle(const ClientRequest& req) {
  return Handle(req, Fnv1a64(req.key));
}

ProxyHandleResult Proxy::Handle(const ClientRequest& req, uint64_t key_hash) {
  ProxyHandleResult out;
  out.action = HandleInto(req, key_hash, out.forward, out);
  return out;
}

ProxyHandleResult::Action Proxy::HandleInto(const ClientRequest& req,
                                            uint64_t key_hash,
                                            NodeRequest& fwd,
                                            ProxyHandleResult& local) {
  Lazy& lz = MutableLazy();
  stats_.requests++;

  // 1. Proxy cache: hits return immediately — no throttling, no charge
  //    (Section 4.1: "requests that hit the proxy cache are directly
  //    returned without throttling or charges").
  // A proxy belongs to exactly one tenant, so the client key is the
  // cache key as-is — no tenant-prefixed copy to build per lookup.
  if (cache_enabled_ && req.op == OpType::kGet) {
    cache::AuLookup lk = lz.cache.GetHashed(key_hash, req.key);
    if (lk.hit) {
      stats_.cache_hits++;
      local.value_bytes = lk.value.size();
      // Only tracked requests ever read the payload downstream; bulk
      // traffic needs just the size, so skip the per-hit copy.
      if (req.track_outcome) local.value = lk.value;
      local.latency = options_.cache_hit_latency;
      return ProxyHandleResult::Action::kServedFromCache;
    }
  }
  // Prefix-shaped scans (end == PrefixUpperBound(start)) can be served
  // from the content store's scan payloads — saving an entire
  // cross-partition fan-out, not just one point read. Arbitrary
  // [start, end) ranges are not cached: their result is not addressable
  // by a tree prefix.
  if (cache_enabled_ && req.op == OpType::kScan &&
      req.field == PrefixUpperBound(req.key)) {
    cache::AuLookup lk = lz.cache.GetScan(req.key, req.scan_limit);
    if (lk.hit) {
      stats_.cache_hits++;
      local.value_bytes = lk.value.size();
      if (req.track_outcome) local.value = lk.value;
      local.latency = options_.cache_hit_latency;
      return ProxyHandleResult::Action::kServedFromCache;
    }
  }

  // 2. Proxy quota: block excess traffic here, before it can consume
  //    shared DataNode resources.
  double estimate = EstimateRu(req);
  if (quota_enabled_ && !quota_.TryAdmit(estimate)) {
    stats_.throttled++;
    local.latency = options_.cache_hit_latency;  // Fast local rejection.
    return ProxyHandleResult::Action::kThrottled;
  }
  stats_.admitted_ru += estimate;
  admitted_since_report_ += estimate;

  // 3. Forward to the data plane. `fwd` may be a recycled slot: every
  //    field is (re)assigned — strings by copy-assignment, which reuses
  //    the slot's capacity instead of allocating.
  stats_.forwarded++;
  fwd.req_id = req.req_id;
  fwd.tenant = req.tenant;
  fwd.partition = partition_of_hashed_(key_hash);
  fwd.op = req.op;
  fwd.key = req.key;
  fwd.field = req.field;
  fwd.value = req.value;
  fwd.ttl = req.ttl;
  fwd.scan_limit = req.scan_limit;
  fwd.issued_at = req.issued_at;
  fwd.consistency = req.consistency;
  fwd.estimated_ru = estimate;
  fwd.value_size_hint = IsReadOp(req.op)
                            ? static_cast<uint64_t>(lz.ru.ExpectedReadBytes())
                            : req.value.size();
  fwd.background_refresh = false;
  fwd.replicas = options_.replicas;
  lz.inflight_estimates.Insert(req.req_id, estimate);
  return ProxyHandleResult::Action::kForward;
}

void Proxy::OnResponse(const NodeResponse& resp) {
  Lazy& lz = MutableLazy();
  // Settle estimate vs. actual.
  if (double* est = lz.inflight_estimates.Find(resp.req_id)) {
    if (quota_enabled_ && resp.served_by != ServedBy::kRejected) {
      quota_.SettleActual(*est, resp.actual_ru);
    }
    lz.inflight_estimates.Erase(resp.req_id);
  }
  stats_.charged_ru += resp.actual_ru;

  // Update the cache-aware read estimators from data-plane outcomes.
  // Only genuine DataNode-cache hits count as hits: they are the
  // responses whose charge carried the cache discount. kNodeCpu covers
  // memtable/bloom-only reads, which are charged at full read cost.
  if (IsReadOp(resp.op) && resp.served_by != ServedBy::kRejected) {
    ru::ReadServedBy served = resp.served_by == ServedBy::kNodeCache
                                  ? ru::ReadServedBy::kDataNodeCache
                                  : ru::ReadServedBy::kDisk;
    if (resp.op == OpType::kGet || resp.op == OpType::kHGet) {
      lz.ru.ChargeRead(resp.value_bytes, served);
    } else if (resp.op == OpType::kHGetAll) {
      lz.ru.ChargeHGetAll(resp.value_bytes, served);
    } else if (resp.op == OpType::kScan && resp.status.ok()) {
      // Feed the per-entry size history behind EstimateScanRu.
      lz.ru.RecordScanShape(resp.scan_entries, resp.value_bytes);
    }
  }

  // Fill the proxy cache with successful GET payloads (including
  // background refreshes, which renew the TTL). A value with an engine
  // TTL may not be cached past its expiry. Replica-served (eventual)
  // reads never fill the cache: their payload may trail the primary by
  // the replication lag, and the cache also serves kPrimary reads —
  // caching a stale replica value would break read-your-writes. The
  // store shares the response's handle — for a GET, the engine record's
  // own bytes — so the fill copies nothing.
  if (cache_enabled_ && resp.op == OpType::kGet && resp.status.ok() &&
      resp.from_primary) {
    Micros ttl = 0;  // Default TTL.
    if (resp.ttl_remaining > 0) {
      ttl = std::min(resp.ttl_remaining, options_.cache.default_ttl);
    }
    lz.cache.PutHashed(Fnv1a64(resp.key), resp.key, resp.value,
                       ValueView(resp.value).size() + 32, ttl);
  }
}

void Proxy::FillScanCache(const std::string& prefix, uint32_t limit,
                          const SharedValue& framed) {
  if (!cache_enabled_) return;
  // Framed payloads carry per-entry headers; +64 approximates the tree
  // node and LRU bookkeeping, like +32 does for point entries.
  MutableLazy().cache.PutScan(prefix, limit, framed,
                              ValueView(framed).size() + 64, 0);
}

void Proxy::AbandonForward(uint64_t req_id) {
  if (!lazy_) return;
  double* est = lazy_->inflight_estimates.Find(req_id);
  if (est == nullptr) return;
  if (quota_enabled_) quota_.SettleActual(*est, 0.0);
  lazy_->inflight_estimates.Erase(req_id);
}

std::vector<NodeRequest> Proxy::TakeRefreshFetches() {
  std::vector<NodeRequest> out;
  if (!cache_enabled_ || !lazy_) return out;
  const ru::RuEstimator& ru = lazy_->ru;
  for (std::string& key : lazy_->cache.TakeRefreshQueue()) {
    NodeRequest req;
    req.req_id = refresh_id_alloc_ ? refresh_id_alloc_() : refresh_req_id_++;
    req.tenant = tenant_;
    req.partition = partition_of_hashed_(Fnv1a64(key));
    req.op = OpType::kGet;
    req.key = std::move(key);
    req.issued_at = clock_->NowMicros();
    req.estimated_ru = ru.EstimateReadRu();
    req.value_size_hint = static_cast<uint64_t>(ru.ExpectedReadBytes());
    req.background_refresh = true;
    stats_.refresh_fetches++;
    out.push_back(std::move(req));
  }
  return out;
}

double Proxy::ReportAndResetAdmittedRu() {
  double out = admitted_since_report_;
  admitted_since_report_ = 0;
  return out;
}

}  // namespace proxy
}  // namespace abase
