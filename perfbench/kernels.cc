// Standalone layer kernels of the perf ledger. Each kernel times one
// layer's public API outside the simulator, on state shaped like the
// workload's (engine memtable size and per-partition key count, store and
// cache capacity, active-tenant count), fed by the workload's own key
// stream from a WorkloadGenerator with the workload's profile and seed.
// Every kernel reports the median of several timed passes.
#include <algorithm>
#include <chrono>
#include <string>
#include <vector>

#include "cache/prefix_tree_store.h"
#include "cache/sa_lru.h"
#include "common/clock.h"
#include "common/flat_map.h"
#include "common/hash.h"
#include "forecast/ensemble.h"
#include "ledger.h"
#include "sched/wfq_queue.h"
#include "sim/workload.h"
#include "storage/lsm_engine.h"

namespace ledger {
namespace {

using Clock = std::chrono::steady_clock;
constexpr int kPasses = 5;

double NsSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
}

double MedianOf(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v.empty() ? 0 : v[v.size() / 2];
}

/// Keeps the optimizer from discarding a kernel's result.
volatile uint64_t g_sink = 0;

/// Tenant 1's request stream under the workload's profile: every
/// point-read key, write key and scan range its generator emits over
/// enough ticks to collect `want` reads (or as many ticks as the cap
/// allows).
struct KeyStream {
  std::vector<std::string> reads;
  std::vector<std::string> writes;
  std::vector<std::pair<std::string, std::string>> scans;
};

KeyStream MakeStream(const Shape& shape, uint64_t seed, size_t want) {
  KeyStream ks;
  abase::sim::WorkloadGenerator gen(1, shape.profile, seed);
  std::vector<abase::ClientRequest> batch;
  abase::Micros now = 0;
  for (int tick = 0; tick < 2000 && ks.reads.size() < want; tick++) {
    gen.Tick(now, abase::kMicrosPerSecond, batch);
    for (const abase::ClientRequest& r : batch) {
      if (r.op == abase::OpType::kScan) {
        ks.scans.emplace_back(r.key, r.field);
      } else if (abase::IsReadOp(r.op)) {
        ks.reads.push_back(r.key);
      } else {
        ks.writes.push_back(r.key);
      }
    }
    now += abase::kMicrosPerSecond;
  }
  return ks;
}

/// The subset of `keys` partition 0 of the tenant owns.
std::vector<std::string> OfPartitionZero(const Shape& shape,
                                         const std::vector<std::string>& keys) {
  const uint64_t parts = std::max<uint32_t>(1, shape.tenant.num_partitions);
  std::vector<std::string> out;
  for (const std::string& k : keys) {
    if (abase::Fnv1a64(k) % parts == 0) out.push_back(k);
  }
  return out;
}

std::string Value(const Shape& shape) {
  return std::string(shape.value_bytes, 'v');
}

void LsmKernels(const Shape& shape, const KeyStream& ks,
                std::vector<Metric>* out) {
  abase::SimClock clock;
  abase::storage::LsmOptions lo = shape.cluster.sim.node.lsm;
  abase::storage::LsmEngine engine(lo, &clock);
  // One partition engine: the preloaded dataset's share, then the
  // stream's writes, in the order the workload applies them.
  std::vector<std::string> preload;
  for (uint64_t i = 0; i < shape.preload_keys; i++) {
    preload.push_back("t1:k" + std::to_string(i));
  }
  const std::string value = Value(shape);
  for (const std::string& k : OfPartitionZero(shape, preload)) {
    (void)engine.Put(k, value);
  }
  for (const std::string& k : OfPartitionZero(shape, ks.writes)) {
    (void)engine.Put(k, value);
  }
  const std::vector<std::string> reads = OfPartitionZero(shape, ks.reads);

  std::vector<double> get_ns;
  for (int p = 0; p < kPasses; p++) {
    uint64_t found = 0;
    const auto t0 = Clock::now();
    for (const std::string& k : reads) found += engine.Get(k).ok();
    get_ns.push_back(NsSince(t0) / static_cast<double>(reads.size()));
    g_sink = g_sink + found;
  }
  out->push_back({"kernel.lsm_get_ns", MedianOf(get_ns), "ns"});

  // Scan ranges: the workload's own, or (point-only workloads) the
  // tenant-wide prefix with the workload's scan limit.
  std::vector<std::pair<std::string, std::string>> ranges = ks.scans;
  if (ranges.empty()) ranges.push_back({"t1:", "t1;"});
  if (ranges.size() > 2000) ranges.resize(2000);
  const size_t limit = std::max<uint32_t>(1, shape.profile.scan_limit);
  abase::storage::ScanBuffer buf;
  std::vector<double> scan_ns;
  for (int p = 0; p < kPasses; p++) {
    uint64_t entries = 0;
    const auto t0 = Clock::now();
    for (size_t i = 0; i < std::max<size_t>(ranges.size(), 200); i++) {
      const auto& r = ranges[i % ranges.size()];
      buf.Clear();
      entries += engine.ScanRange(r.first, r.second, limit, buf).entries;
    }
    scan_ns.push_back(NsSince(t0) /
                      static_cast<double>(std::max<uint64_t>(1, entries)));
    g_sink = g_sink + entries;
  }
  out->push_back({"kernel.lsm_scan_ns_per_entry", MedianOf(scan_ns), "ns"});
}

void CacheKernels(const Shape& shape, const KeyStream& ks,
                  std::vector<Metric>* out) {
  abase::SimClock clock;
  const std::string value = Value(shape);
  std::vector<uint64_t> hashes;
  hashes.reserve(ks.reads.size());
  for (const std::string& k : ks.reads) hashes.push_back(abase::HashString(k));

  // Proxy content store: one proxy's store, filled by the read stream's
  // misses (the proxy fills on forwarded reads).
  abase::cache::PrefixTreeStore store(shape.cluster.sim.proxy.cache, &clock);
  for (size_t i = 0; i < ks.reads.size(); i++) {
    if (!store.GetHashed(hashes[i], ks.reads[i]).hit) {
      store.PutHashed(hashes[i], ks.reads[i], value, value.size());
    }
  }
  std::vector<double> store_ns;
  for (int p = 0; p < kPasses; p++) {
    uint64_t hits = 0;
    const auto t0 = Clock::now();
    for (size_t i = 0; i < ks.reads.size(); i++) {
      hits += store.GetHashed(hashes[i], ks.reads[i]).hit;
    }
    store_ns.push_back(NsSince(t0) / static_cast<double>(ks.reads.size()));
    g_sink = g_sink + hits;
  }
  out->push_back({"kernel.prefix_store_get_ns", MedianOf(store_ns), "ns"});

  // Node cache: one node's SA-LRU, filled the same way.
  abase::cache::SaLruCache cache(shape.cluster.sim.node.cache, &clock);
  abase::Micros expire = 0;
  for (size_t i = 0; i < ks.reads.size(); i++) {
    if (cache.GetRefHashed(hashes[i], ks.reads[i], &expire) == nullptr) {
      cache.PutHashed(hashes[i], ks.reads[i], value, value.size());
    }
  }
  std::vector<double> lru_ns;
  for (int p = 0; p < kPasses; p++) {
    uint64_t hits = 0;
    const auto t0 = Clock::now();
    for (size_t i = 0; i < ks.reads.size(); i++) {
      hits += cache.GetRefHashed(hashes[i], ks.reads[i], &expire) != nullptr;
    }
    lru_ns.push_back(NsSince(t0) / static_cast<double>(ks.reads.size()));
    g_sink = g_sink + hits;
  }
  out->push_back({"kernel.sa_lru_get_ns", MedianOf(lru_ns), "ns"});
}

void WfqKernel(const Shape& shape, const KeyStream& ks,
               std::vector<Metric>* out) {
  // One CPU-WFQ at the workload's active-tenant count: a tick's worth of
  // requests spread over every active tenant, pushed then drained.
  const size_t tenants = std::max<size_t>(1, shape.active);
  const size_t batch = 4096;
  abase::sched::WfqQueue q;
  std::vector<abase::sched::SchedRequest> reqs(batch);
  for (size_t i = 0; i < batch; i++) {
    reqs[i].req_id = i + 1;
    const uint64_t h = i < ks.reads.size() ? abase::HashString(ks.reads[i]) : i;
    reqs[i].tenant = static_cast<abase::TenantId>(1 + h % tenants);
    reqs[i].key_hash = h;
  }
  std::vector<double> ns;
  for (int p = 0; p < kPasses; p++) {
    uint64_t sum = 0;
    const auto t0 = Clock::now();
    for (int round = 0; round < 8; round++) {
      for (const auto& r : reqs) q.Push(r, 1.0);
      while (!q.Empty()) sum += q.Pop().req_id;
    }
    ns.push_back(NsSince(t0) / static_cast<double>(8 * batch));
    g_sink = g_sink + sum;
  }
  out->push_back({"kernel.wfq_push_pop_ns", MedianOf(ns), "ns"});
}

void ReplKernel(const Shape& shape, const KeyStream& ks,
                std::vector<Metric>* out) {
  // One partition stream: the primary takes a batch of the workload's
  // writes (untimed), then the shipper visits the delta and the replica
  // applies it (timed), then the log truncates — the Replicate step.
  abase::SimClock clock;
  abase::storage::LsmOptions lo = shape.cluster.sim.node.lsm;
  lo.enable_repl_log = true;
  abase::storage::LsmEngine primary(lo, &clock);
  abase::storage::LsmEngine replica(lo, &clock);
  std::vector<std::string> keys = ks.writes;
  if (keys.empty()) keys = ks.reads;
  const std::string value = Value(shape);
  const size_t batch = 2048;
  std::vector<double> ns;
  size_t next = 0;
  for (int p = 0; p < kPasses; p++) {
    for (size_t i = 0; i < batch; i++) {
      (void)primary.Put(keys[next++ % keys.size()], value);
    }
    uint64_t applied = 0;
    const auto t0 = Clock::now();
    primary.repl_log().ForEachDelta(
        replica.applied_seq(), primary.applied_seq(),
        [&](const abase::storage::ReplRecordPtr& rec) {
          applied += replica.ApplyReplicated(rec).ok();
          return true;
        });
    ns.push_back(NsSince(t0) / static_cast<double>(batch));
    primary.TruncateReplLogThrough(replica.applied_seq());
    replica.TruncateReplLogThrough(replica.applied_seq());
    g_sink = g_sink + applied;
  }
  out->push_back({"kernel.repl_ship_apply_ns", MedianOf(ns), "ns"});
}

void ForecastKernel(uint64_t seed, std::vector<Metric>* out) {
  // One Algorithm 1 ensemble forecast over a 30-day hourly history with
  // a daily season, the predictive autoscaler's per-round work.
  abase::sim::SeriesSpec past;
  past.hours = 30 * 24;
  past.base = 100;
  past.seasons.push_back({24, 60});
  past.noise_sigma = 5;
  abase::Rng rng(seed * 1000003ull + 1);
  const abase::TimeSeries usage = abase::sim::GenerateSeries(past, rng);
  const abase::TimeSeries quota(std::vector<double>(usage.size(), 300.0));
  std::vector<double> ms;
  for (int p = 0; p < kPasses; p++) {
    const auto t0 = Clock::now();
    auto r = abase::forecast::EnsembleForecast(usage, quota, 7 * 24);
    ms.push_back(NsSince(t0) / 1e6);
    g_sink = g_sink + (r.ok() ? 1 : 0);
  }
  out->push_back({"kernel.forecast_ms", MedianOf(ms), "ms"});
}

}  // namespace

void RunKernels(const Shape& shape, uint64_t seed, std::vector<Metric>* out) {
  const KeyStream ks = MakeStream(shape, seed, 50000);
  LsmKernels(shape, ks, out);
  CacheKernels(shape, ks, out);
  WfqKernel(shape, ks, out);
  ReplKernel(shape, ks, out);
  ForecastKernel(seed, out);
}

}  // namespace ledger
