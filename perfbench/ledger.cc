// The perf ledger: one benchmark driver for the ABase simulator.
//
//   ledger --workload <cache_hot|write_spill|tenant_sprawl> --seed <n>
//          --seconds <s> --trace <0|1>
//
// Each workload builds a cluster through the public abase::Cluster /
// sim::ClusterSim API and drives it in repetitions: set up (register
// tenants, preload, warm up), then a fixed number of timed ticks. The
// synthetic WorkloadProfile traffic is an open loop at fixed simulated
// rates in virtual time (the generator is never late); beside it a few
// closed-loop abase::Client probe sessions (N sessions x depth d) write,
// read back and prefix-scan their own keys and check every answer. The
// simulator itself runs as fast as it can, so its wall cost is reported
// as work completed per second at the stated input size.
//
// --trace 0 prints the end-to-end metrics of untraced repetitions.
// --trace 1 runs untraced and traced repetitions (the pipeline's own
// per-stage timer switched on) plus the standalone layer kernels, and
// prints the per-layer metrics. The simulator's outcomes (ok share, hit
// ratio, RU, virtual latency, layer counters) are deterministic: every
// repetition of a run, traced or not, must reproduce them exactly, or
// the result is marked incorrect.
//
// End-to-end metrics (untraced repetitions; why each is reported):
//   wall_ns_per_op   timed wall / settled requests: what one simulated
//                    request costs the user running the simulator.
//   cpu_ns_per_op    process CPU / settled requests: the same cost in CPU,
//                    which shows what data-plane parallelism costs.
//   tick_ms.p50/p90  wall time per tick over every timed tick: the plain
//                    tick and the tick that carries the periodic jobs.
//   setup_s          cluster construction to end of warm-up (median over
//                    repetitions): work moved into set-up shows here.
//   peak_rss_mb      VmHWM: the memory a run of this size needs.
//   ok_share         ok / issued requests of the simulated system.
//   hit_ratio        combined proxy + node cache hit ratio.
//   ru_per_op        RU charged per settled request.
//   sim_p50_us/p99   virtual client latency over settled requests, all
//                    tenants merged.
// The first six are wall-clock costs of the simulator; the last five are
// the simulated system's deterministic outcomes for the seed.
//
// The last line of standard output is the JSON result; everything above
// it is a human-readable report.
#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/histogram.h"
#include "common/rng.h"
#include "core/abase.h"
#include "ledger.h"

namespace ledger {
namespace {

using abase::TenantId;
using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double ProcessCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e9 + static_cast<double>(ts.tv_nsec);
}

/// Peak resident set (VmHWM) of this process in MB.
double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

/// Linear-interpolated quantile (q in [0, 1]) of a sample set.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  double pos = q * static_cast<double>(v.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

// ----------------------------------------------------------------------------
// Workload shapes
// ----------------------------------------------------------------------------

}  // namespace

bool MakeShape(const std::string& workload, uint64_t seed, Shape* out) {
  Shape s;
  s.name = workload;
  abase::sim::SimOptions& opt = s.cluster.sim;
  opt.seed = seed;
  opt.meta_report_interval_ticks = s.period;
  // Sub-tick latency model on (lognormal service times), so the virtual
  // latency percentiles are continuous rather than a few fixed values.
  opt.latency.enabled = true;
  opt.node.service_time.enabled = true;
  s.profile.value_bytes = s.value_bytes;
  s.profile.value_sigma = 0.3;

  if (workload == "cache_hot") {
    // Proxy plane: zipf point reads that the proxies' prefix-tree stores
    // mostly absorb; one tenant pushed past its quota exercises the
    // cache-aware isolation path.
    s.nodes = 8;
    s.registered = s.active = 16;
    opt.data_plane_workers = 1;
    s.tenant.tenant_quota_ru = 200000;
    s.tenant.num_partitions = 8;
    s.tenant.num_proxies = 4;
    s.tenant.num_proxy_groups = 2;
    s.profile.base_qps = 2000;
    s.profile.read_ratio = 0.97;
    s.profile.num_keys = 20000;
    s.profile.key_dist = abase::sim::KeyDist::kZipfian;
    s.profile.zipf_theta = 0.99;
    s.throttled_tenant = 16;
    s.throttled_quota_ru = 150;
    s.preload_keys = 20000;
    s.warmup_ticks = 16;
    s.timed_ticks = 32;
    s.probe_sessions = 2;
    s.probe_depth = 4;
    s.probe_tenant = 1;
  } else if (workload == "write_spill") {
    // Data plane: uniform half-write traffic over a dataset that
    // overflows both cache tiers, a small memtable so flushes and
    // compactions cycle, lagged 3-way replication and prefix scans.
    s.nodes = 8;
    s.registered = s.active = 8;
    opt.data_plane_workers = 2;
    opt.replication_lag_ticks = 1;
    opt.node.lsm.memtable_flush_bytes = 128ull << 10;
    opt.node.cache.capacity_bytes = 2ull << 20;
    opt.proxy.cache.capacity_bytes = 1ull << 20;
    s.tenant.tenant_quota_ru = 200000;
    s.tenant.num_partitions = 16;
    s.tenant.num_proxies = 4;
    s.tenant.num_proxy_groups = 2;
    s.tenant.replicas = 3;
    s.profile.base_qps = 800;
    s.profile.read_ratio = 0.5;
    s.profile.num_keys = 20000;
    s.profile.key_dist = abase::sim::KeyDist::kUniform;
    s.profile.scan_fraction = 0.05;
    s.profile.scan_limit = 50;
    s.profile.scan_prefix_groups = 256;
    s.preload_keys = 20000;
    s.warmup_ticks = 16;
    s.timed_ticks = 32;
    s.probe_sessions = 2;
    s.probe_depth = 4;
    s.probe_tenant = 1;
  } else if (workload == "tenant_sprawl") {
    // Setup and control plane: many registered tenants, few active, a
    // compressed diurnal swing chased by predictive and reactive
    // autoscalers, background rescheduling on. The idle tenants live in a
    // pool of their own: a rescheduling plan over one pool holding every
    // tenant's replicas grows superlinearly (about 70 s per plan at 10k
    // tenants x 2 partitions x 3 replicas), which no run budget fits.
    // Three predictive tenants put Control at about a third of the
    // stage time.
    s.nodes = 16;
    s.parked_nodes = 16;
    s.registered = 6000;
    s.active = 200;
    opt.data_plane_workers = 1;
    opt.control_interval_ticks = s.period;
    opt.control_ticks_per_hour = s.period;
    opt.resched_interval_ticks = s.period;
    s.tenant.tenant_quota_ru = 40;
    s.tenant.num_partitions = 2;
    s.tenant.num_proxies = 1;
    s.tenant.num_proxy_groups = 1;
    s.tenant.partition_quota_upper = 25;
    s.tenant.partition_quota_lower = 5;
    abase::sim::SeriesSpec day;
    day.hours = 24;
    day.base = 25;
    day.seasons.push_back({24, 15});
    abase::Rng day_rng(seed * 31 + 7);
    s.profile.rate_schedule = abase::sim::GenerateSeries(day, day_rng);
    s.profile.rate_schedule_step =
        static_cast<abase::Micros>(s.period) * abase::kMicrosPerSecond;
    s.profile.read_ratio = 0.8;
    s.profile.num_keys = 500;
    s.profile.key_dist = abase::sim::KeyDist::kZipfian;
    s.preload_keys = 500;
    s.autoscale = true;
    s.predictive = 3;
    s.warmup_ticks = 16;
    s.timed_ticks = 32;
  } else {
    return false;
  }
  *out = s;
  return true;
}

namespace {

// ----------------------------------------------------------------------------
// Closed-loop probe sessions
// ----------------------------------------------------------------------------

/// One abase::Client session keeping `depth` commands in flight. Each
/// slot owns one key and cycles SET v(n) -> GET (must return v(n), the
/// last acknowledged write) -> every fourth round a ScanPrefix over the
/// session's keys (must come back in key order, under the limit, inside
/// the prefix).
class ProbeSession {
 public:
  ProbeSession(abase::Cluster* cluster, TenantId tenant, int session,
               int depth, uint64_t value_bytes)
      : client_(cluster->OpenClient(tenant)),
        prefix_("probe" + std::to_string(session) + ":"),
        value_bytes_(value_bytes) {
    slots_.resize(static_cast<size_t>(depth));
    for (size_t i = 0; i < slots_.size(); i++) {
      slots_[i].key = prefix_ + std::to_string(i);
    }
  }

  /// Checks every resolved command and issues each idle slot's next one.
  void Pump() {
    for (Slot& s : slots_) {
      if (s.in_flight && !s.future.ready()) continue;
      if (s.in_flight) Check(s);
      Issue(s);
    }
  }

  uint64_t ops() const { return ops_; }
  uint64_t failed() const { return failed_; }
  uint64_t violations() const { return violations_; }
  const std::string& first_violation() const { return first_violation_; }

 private:
  enum class Op { kSet, kGet, kScan };
  struct Slot {
    std::string key;
    uint64_t round = 0;
    Op op = Op::kSet;
    bool in_flight = false;
    std::string pending_value;  ///< Value of the SET in flight.
    std::string acked;          ///< Last acknowledged value ("" = none).
    abase::Future<abase::Reply> future;
  };
  static constexpr uint32_t kScanLimit = 3;

  std::string ValueFor(const Slot& s) const {
    std::string v = s.key + "#" + std::to_string(s.round) + "|";
    if (v.size() < value_bytes_) v.resize(value_bytes_, 'p');
    return v;
  }

  void Violation(const std::string& what) {
    violations_++;
    if (first_violation_.empty()) first_violation_ = what;
  }

  void Check(Slot& s) {
    const abase::Reply& r = s.future.value();
    s.in_flight = false;
    ops_++;
    switch (s.op) {
      case Op::kSet:
        if (r.ok()) {
          s.acked = s.pending_value;
        } else {
          failed_++;
        }
        s.op = Op::kGet;
        break;
      case Op::kGet:
        if (r.ok()) {
          if (r.value != s.acked) {
            Violation("read of " + s.key + " missed its last acked write");
          }
        } else if (r.status.IsNotFound()) {
          if (!s.acked.empty()) {
            Violation("read of " + s.key + " lost an acked write");
          }
        } else {
          failed_++;
        }
        s.round++;
        s.op = (s.round % 4 == 0) ? Op::kScan : Op::kSet;
        break;
      case Op::kScan: {
        if (!r.ok()) {
          failed_++;
        } else {
          auto entries = r.ScanEntries();
          if (entries.size() > kScanLimit) Violation("scan over its limit");
          for (size_t i = 0; i < entries.size(); i++) {
            if (entries[i].first.rfind(prefix_, 0) != 0) {
              Violation("scan left its prefix");
            }
            if (i > 0 && !(entries[i - 1].first < entries[i].first)) {
              Violation("scan out of key order");
            }
          }
        }
        s.op = Op::kSet;
        break;
      }
    }
  }

  void Issue(Slot& s) {
    switch (s.op) {
      case Op::kSet:
        s.pending_value = ValueFor(s);
        s.future = client_.Submit(abase::Command::Set(s.key, s.pending_value));
        break;
      case Op::kGet:
        s.future = client_.Submit(abase::Command::Get(s.key));
        break;
      case Op::kScan:
        s.future =
            client_.Submit(abase::Command::ScanPrefix(prefix_, kScanLimit));
        break;
    }
    s.in_flight = true;
  }

  abase::Client client_;
  std::string prefix_;
  uint64_t value_bytes_;
  std::vector<Slot> slots_;
  uint64_t ops_ = 0;
  uint64_t failed_ = 0;
  uint64_t violations_ = 0;
  std::string first_violation_;
};

// ----------------------------------------------------------------------------
// Layer counters (public stats, diffed across the timed window)
// ----------------------------------------------------------------------------

/// Cumulative layer counters, indexed by the enum below.
enum Counter {
  // proxy / quota / ru
  kProxyRequests, kProxyHits, kProxyThrottled, kProxyForwarded,
  kProxyRefresh, kAdmittedRu, kChargedRu, kStoreEvictions,
  // node cache
  kNodeHits, kNodeMisses, kNodeEvictions,
  // storage / replication
  kGets, kMemtableHits, kBlockReads, kBloomSkips, kFlushes, kCompactions,
  kPuts, kReplApplied, kFlushedBytes, kCompactionWriteBytes,
  // control plane
  kScaleUps, kScaleDowns, kSplits, kMigrations,
  kNumCounters
};

struct Counters {
  std::array<double, kNumCounters> v{};

  double operator[](Counter c) const { return v[c]; }
  double& operator[](Counter c) { return v[c]; }
  Counters Minus(const Counters& o) const {
    Counters d;
    for (size_t i = 0; i < v.size(); i++) d.v[i] = v[i] - o.v[i];
    return d;
  }
  bool operator==(const Counters& o) const { return v == o.v; }
};

Counters Snapshot(abase::Cluster& cluster, const Shape& shape) {
  Counters c;
  abase::sim::ClusterSim& sim = cluster.sim();
  for (TenantId t = 1; t <= shape.registered; t++) {
    const abase::sim::TenantRuntime* rt = sim.Tenant(t);
    if (rt == nullptr) continue;
    for (const auto& p : rt->proxies) {
      const abase::proxy::ProxyStats& ps = p->stats();
      c[kProxyRequests] += static_cast<double>(ps.requests);
      c[kProxyHits] += static_cast<double>(ps.cache_hits);
      c[kProxyThrottled] += static_cast<double>(ps.throttled);
      c[kProxyForwarded] += static_cast<double>(ps.forwarded);
      c[kProxyRefresh] += static_cast<double>(ps.refresh_fetches);
      c[kAdmittedRu] += ps.admitted_ru;
      c[kChargedRu] += ps.charged_ru;
      c[kStoreEvictions] += static_cast<double>(p->cache().stats().evictions);
    }
    c[kScaleUps] += static_cast<double>(rt->scale_ups);
    c[kScaleDowns] += static_cast<double>(rt->scale_downs);
    c[kSplits] += static_cast<double>(rt->splits_started);
  }
  c[kMigrations] = static_cast<double>(sim.migration_stats().applied);
  for (const auto& node : sim.nodes()) {
    const abase::cache::CacheStats& cs = node->data_cache().stats();
    c[kNodeHits] += static_cast<double>(cs.hits);
    c[kNodeMisses] += static_cast<double>(cs.misses);
    c[kNodeEvictions] += static_cast<double>(cs.evictions);
    for (const abase::node::PartitionReplica* rep : node->Replicas()) {
      const abase::storage::LsmStats& ls = rep->engine->stats();
      c[kGets] += static_cast<double>(ls.gets);
      c[kMemtableHits] += static_cast<double>(ls.memtable_hits);
      c[kBlockReads] += static_cast<double>(ls.block_reads);
      c[kBloomSkips] += static_cast<double>(ls.bloom_filtered);
      c[kFlushes] += static_cast<double>(ls.flush_count);
      c[kCompactions] += static_cast<double>(ls.compaction_count);
      c[kPuts] += static_cast<double>(ls.puts);
      c[kReplApplied] += static_cast<double>(ls.repl_applied);
      c[kFlushedBytes] += static_cast<double>(ls.flushed_bytes);
      c[kCompactionWriteBytes] +=
          static_cast<double>(ls.compaction_write_bytes);
    }
  }
  return c;
}

/// Storage gauges at the end of the window.
struct Gauges {
  double memtable_bytes = 0;
  double repl_log_bytes = 0;
  double physical_bytes = 0;  ///< Memtable + runs, duplicates included.
  double live_bytes = 0;      ///< Bytes of a full scan (newest versions).
};

Gauges MeasureGauges(abase::Cluster& cluster) {
  Gauges g;
  abase::storage::ScanBuffer buf;
  for (const auto& node : cluster.sim().nodes()) {
    for (const abase::node::PartitionReplica* rep : node->Replicas()) {
      abase::storage::LsmEngine* e = rep->engine.get();
      g.memtable_bytes += static_cast<double>(e->memtable_bytes());
      g.repl_log_bytes += static_cast<double>(e->repl_log().bytes());
      g.physical_bytes += static_cast<double>(e->ApproximateDataBytes());
      std::string start;
      for (;;) {
        buf.Clear();
        abase::storage::ScanResult r = e->ScanRange(start, "", 4096, buf);
        g.live_bytes += static_cast<double>(r.bytes);
        if (r.done || r.next_key.empty()) break;
        start = r.next_key;
      }
    }
  }
  return g;
}

// ----------------------------------------------------------------------------
// One repetition
// ----------------------------------------------------------------------------

/// Deterministic outcomes of the simulated system over the timed window:
/// a function of (workload, seed) alone.
struct Outcomes {
  double issued = 0, ok = 0, settled = 0, errors = 0, throttled = 0,
         unavailable = 0, proxy_hits = 0, node_cache_hits = 0,
         reads_completed = 0, ru_charged = 0, sim_p50_us = 0,
         sim_p99_us = 0;
  uint64_t probe_ops = 0, probe_failed = 0, probe_violations = 0;
  Counters layer;

  bool operator==(const Outcomes& o) const {
    return issued == o.issued && ok == o.ok && settled == o.settled &&
           errors == o.errors && throttled == o.throttled &&
           unavailable == o.unavailable && proxy_hits == o.proxy_hits &&
           node_cache_hits == o.node_cache_hits &&
           reads_completed == o.reads_completed &&
           ru_charged == o.ru_charged && sim_p50_us == o.sim_p50_us &&
           sim_p99_us == o.sim_p99_us && probe_ops == o.probe_ops &&
           probe_failed == o.probe_failed &&
           probe_violations == o.probe_violations && layer == o.layer;
  }
};

struct Rep {
  bool traced = false;
  double register_s = 0, preload_s = 0, warmup_s = 0, setup_s = 0;
  std::vector<double> add_tenant_us;
  double timed_wall_ns = 0;
  double tick_wall_ns = 0;  ///< Sum of Step() walls (stage coverage base).
  double cpu_ns = 0;
  std::vector<double> tick_ms;
  /// Wall and CPU ns per settled request of each window of `period`
  /// consecutive timed ticks (one spike tick each): many short samples,
  /// so a median over them shrugs off seconds-long host speed phases.
  std::vector<double> window_wall_ns_per_op;
  std::vector<double> window_cpu_ns_per_op;
  std::vector<double> stage_ns;
  std::vector<std::string> stage_names;
  Outcomes out;
  Gauges gauges;
  std::string first_violation;
};

Rep RunRep(const Shape& shape, bool traced, bool gauges) {
  Rep rep;
  rep.traced = traced;
  const auto t0 = Clock::now();
  abase::Cluster cluster(shape.cluster);
  abase::sim::ClusterSim& sim = cluster.sim();
  const abase::PoolId pool = cluster.CreatePool(shape.nodes);
  const abase::PoolId parked_pool =
      shape.parked_nodes > 0 ? cluster.CreatePool(shape.parked_nodes) : pool;
  rep.add_tenant_us.reserve(shape.registered);
  for (TenantId t = 1; t <= shape.registered; t++) {
    abase::meta::TenantConfig cfg = shape.tenant;
    cfg.id = t;
    cfg.name = "t" + std::to_string(t);
    if (t == shape.throttled_tenant) {
      cfg.tenant_quota_ru = shape.throttled_quota_ru;
    }
    const auto a0 = Clock::now();
    abase::Status st =
        cluster.CreateTenant(cfg, t <= shape.active ? pool : parked_pool);
    rep.add_tenant_us.push_back(SecondsSince(a0) * 1e6);
    if (!st.ok()) {
      std::fprintf(stderr, "CreateTenant(%u) failed: %s\n",
                   static_cast<unsigned>(t), st.ToString().c_str());
      std::exit(2);
    }
  }
  const auto t1 = Clock::now();
  for (TenantId t = 1; t <= shape.active; t++) {
    cluster.AttachWorkload(t, shape.profile);
    sim.PreloadKeys(t, shape.preload_keys, shape.value_bytes);
  }
  if (shape.autoscale) {
    for (TenantId t = 1; t <= shape.active; t++) {
      if (t <= shape.predictive) {
        abase::sim::SeriesSpec past;
        past.hours = 30 * 24;
        past.base = 25;
        past.seasons.push_back({24, 15});
        past.noise_sigma = 2;
        abase::Rng rng(shape.cluster.sim.seed * 1000003ull + t);
        sim.SeedUsageHistory(t, abase::sim::GenerateSeries(past, rng));
        sim.EnableAutoscale(t, abase::sim::AutoscaleMode::kPredictive);
      } else {
        sim.EnableAutoscale(t, abase::sim::AutoscaleMode::kReactive);
      }
    }
  }
  const auto t2 = Clock::now();

  std::vector<ProbeSession> probes;
  for (int i = 0; i < shape.probe_sessions; i++) {
    probes.emplace_back(&cluster, shape.probe_tenant, i, shape.probe_depth,
                        shape.value_bytes);
  }
  auto pump = [&probes]() {
    for (ProbeSession& p : probes) p.Pump();
  };
  for (size_t i = 0; i < shape.warmup_ticks; i++) {
    pump();
    cluster.Step();
  }
  rep.register_s = std::chrono::duration<double>(t1 - t0).count();
  rep.preload_s = std::chrono::duration<double>(t2 - t1).count();
  rep.warmup_s = SecondsSince(t2);
  rep.setup_s = SecondsSince(t0);

  // Timed window.
  for (TenantId t = 1; t <= shape.active; t++) {
    sim.MutableTenant(t)->latency_hist.Reset();
  }
  abase::sim::TickPipeline& pipe = sim.pipeline();
  pipe.SetStageTiming(traced);
  pipe.ResetStageNanos();
  const Counters before = Snapshot(cluster, shape);
  rep.tick_ms.reserve(shape.timed_ticks);
  std::vector<double> iter_wall_ns, iter_cpu_ns;
  const double cpu0 = ProcessCpuNs();
  const auto w0 = Clock::now();
  for (size_t i = 0; i < shape.timed_ticks; i++) {
    const double c0 = ProcessCpuNs();
    const auto i0 = Clock::now();
    pump();
    const auto s0 = Clock::now();
    cluster.Step();
    const auto s1 = Clock::now();
    const double ns = std::chrono::duration<double, std::nano>(s1 - s0).count();
    rep.tick_wall_ns += ns;
    rep.tick_ms.push_back(ns / 1e6);
    iter_wall_ns.push_back(
        std::chrono::duration<double, std::nano>(s1 - i0).count());
    iter_cpu_ns.push_back(ProcessCpuNs() - c0);
  }
  rep.timed_wall_ns =
      std::chrono::duration<double, std::nano>(Clock::now() - w0).count();
  rep.cpu_ns = ProcessCpuNs() - cpu0;
  pipe.SetStageTiming(false);
  for (size_t i = 0; i < pipe.num_stages(); i++) {
    rep.stage_ns.push_back(static_cast<double>(pipe.stage_nanos(i)));
    rep.stage_names.push_back(pipe.stage(i).name());
  }

  Outcomes& o = rep.out;
  o.layer = Snapshot(cluster, shape).Minus(before);
  abase::Histogram lat(1e9);
  std::vector<double> tick_settled(shape.timed_ticks, 0);
  for (TenantId t = 1; t <= shape.active; t++) {
    const auto& h = sim.History(t);
    for (size_t i = shape.warmup_ticks;
         i < shape.warmup_ticks + shape.timed_ticks && i < h.size(); i++) {
      const abase::sim::TenantTickMetrics& m = h[i];
      tick_settled[i - shape.warmup_ticks] +=
          static_cast<double>(m.ok + m.errors);
      o.issued += static_cast<double>(m.issued);
      o.ok += static_cast<double>(m.ok);
      o.errors += static_cast<double>(m.errors);
      o.throttled += static_cast<double>(m.throttled);
      o.unavailable += static_cast<double>(m.unavailable);
      o.proxy_hits += static_cast<double>(m.proxy_hits);
      o.node_cache_hits += static_cast<double>(m.node_cache_hits);
      o.reads_completed += static_cast<double>(m.reads_completed);
      o.ru_charged += m.ru_charged;
    }
    lat.Merge(sim.Tenant(t)->latency_hist);
  }
  o.settled = o.ok + o.errors;
  const size_t period = static_cast<size_t>(shape.period);
  for (size_t w = 0; w + period <= shape.timed_ticks; w += period) {
    double wall = 0, cpu = 0, settled = 0;
    for (size_t i = w; i < w + period; i++) {
      wall += iter_wall_ns[i];
      cpu += iter_cpu_ns[i];
      settled += tick_settled[i];
    }
    rep.window_wall_ns_per_op.push_back(Ratio(wall, settled));
    rep.window_cpu_ns_per_op.push_back(Ratio(cpu, settled));
  }
  o.sim_p50_us = lat.P50();
  o.sim_p99_us = lat.P99();
  for (const ProbeSession& p : probes) {
    o.probe_ops += p.ops();
    o.probe_failed += p.failed();
    o.probe_violations += p.violations();
    if (rep.first_violation.empty()) rep.first_violation = p.first_violation();
  }
  if (gauges) rep.gauges = MeasureGauges(cluster);
  return rep;
}

// ----------------------------------------------------------------------------
// Aggregation and output
// ----------------------------------------------------------------------------

double NsPerOp(const Rep& r) { return Ratio(r.timed_wall_ns, r.out.settled); }

/// Every repetition's samples of one kind, pooled.
std::vector<double> Pooled(const std::vector<Rep>& reps,
                           std::vector<double> Rep::*samples) {
  std::vector<double> v;
  for (const Rep& r : reps) {
    v.insert(v.end(), (r.*samples).begin(), (r.*samples).end());
  }
  return v;
}

/// Median of one per-repetition value.
double MedianOver(const std::vector<Rep>& reps, double Rep::*field) {
  std::vector<double> v;
  for (const Rep& r : reps) v.push_back(r.*field);
  return Median(v);
}

void EndToEnd(const std::vector<Rep>& reps, std::vector<Metric>* m) {
  const Outcomes& o = reps.front().out;
  m->push_back({"wall_ns_per_op",
                Median(Pooled(reps, &Rep::window_wall_ns_per_op)), "ns"});
  m->push_back({"cpu_ns_per_op",
                Median(Pooled(reps, &Rep::window_cpu_ns_per_op)), "ns"});
  const std::vector<double> ticks = Pooled(reps, &Rep::tick_ms);
  m->push_back({"tick_ms.p50", Quantile(ticks, 0.5), "ms"});
  m->push_back({"tick_ms.p90", Quantile(ticks, 0.9), "ms"});
  m->push_back({"setup_s", MedianOver(reps, &Rep::setup_s), "s"});
  m->push_back({"peak_rss_mb", PeakRssMb(), "MB"});
  m->push_back({"ok_share", Ratio(o.ok, o.issued), "ratio"});
  m->push_back({"hit_ratio",
                Ratio(o.proxy_hits + o.node_cache_hits,
                      o.proxy_hits + o.reads_completed),
                "ratio"});
  m->push_back({"ru_per_op", Ratio(o.ru_charged, o.settled), "RU"});
  m->push_back({"sim_p50_us", o.sim_p50_us, "us"});
  m->push_back({"sim_p99_us", o.sim_p99_us, "us"});
}

void PerLayer(const Shape& shape, const std::vector<Rep>& untraced,
              const std::vector<Rep>& traced, std::vector<Metric>* m) {
  const Outcomes& o = traced.front().out;
  const Counters& c = o.layer;
  const Gauges& g = traced.front().gauges;
  auto add = [m](std::string name, double value, const char* unit) {
    m->push_back({std::move(name), value, unit});
  };
  // Pipeline stages: medians over the traced repetitions.
  const Rep& first = traced.front();
  for (size_t i = 0; i < first.stage_ns.size(); i++) {
    std::vector<double> v;
    for (const Rep& r : traced) {
      v.push_back(Ratio(r.stage_ns[i], r.out.settled));
    }
    add("stage." + first.stage_names[i] + ".ns_per_op", Median(v), "ns");
  }
  std::vector<double> coverage;
  for (const Rep& r : traced) {
    double stage_sum = 0;
    for (double ns : r.stage_ns) stage_sum += ns;
    coverage.push_back(Ratio(stage_sum, r.tick_wall_ns));
  }
  add("stage.coverage", Median(coverage), "ratio");
  add("trace.overhead",
      Ratio(Median(Pooled(traced, &Rep::window_wall_ns_per_op)),
            Median(Pooled(untraced, &Rep::window_wall_ns_per_op))) - 1,
      "ratio");
  add("tick.spike_share",
      static_cast<double>(shape.timed_ticks / shape.period) /
          static_cast<double>(shape.timed_ticks),
      "ratio");
  // proxy / quota / ru
  const double requests = c[kProxyRequests];
  add("proxy.hit_ratio", Ratio(c[kProxyHits], requests), "ratio");
  add("proxy.forward_share", Ratio(c[kProxyForwarded], requests), "ratio");
  add("proxy.throttle_share", Ratio(c[kProxyThrottled], requests), "ratio");
  add("proxy.refresh_per_op", Ratio(c[kProxyRefresh], o.settled), "count");
  add("ru.charged_over_admitted", Ratio(c[kChargedRu], c[kAdmittedRu]),
      "ratio");
  // cache
  add("proxy_store.evictions_per_op", Ratio(c[kStoreEvictions], o.settled),
      "count");
  add("node_cache.hit_ratio",
      Ratio(c[kNodeHits], c[kNodeHits] + c[kNodeMisses]), "ratio");
  add("node_cache.evictions_per_op", Ratio(c[kNodeEvictions], o.settled),
      "count");
  // sched / node: data-plane failures that are neither quota throttles nor
  // unavailability are the WFQ queue-deadline expiries.
  add("node.deadline_share",
      Ratio(o.errors - o.throttled - o.unavailable, o.issued), "ratio");
  // storage
  add("lsm.memtable_hit_ratio", Ratio(c[kMemtableHits], c[kGets]), "ratio");
  add("lsm.block_reads_per_get", Ratio(c[kBlockReads], c[kGets]), "count");
  add("lsm.bloom_skips_per_get", Ratio(c[kBloomSkips], c[kGets]), "count");
  add("lsm.flushes", c[kFlushes], "count");
  add("lsm.compactions", c[kCompactions], "count");
  add("lsm.write_amp",
      Ratio(c[kFlushedBytes] + c[kCompactionWriteBytes], c[kFlushedBytes]),
      "ratio");
  add("lsm.space_amp", Ratio(g.physical_bytes, g.live_bytes), "ratio");
  add("lsm.memtable_mb", g.memtable_bytes / (1 << 20), "MB");
  // replication
  add("repl.applied_per_write", Ratio(c[kReplApplied], c[kPuts]), "count");
  add("repl.log_mb", g.repl_log_bytes / (1 << 20), "MB");
  // meta / setup (untraced repetitions: the setup path is never traced)
  add("setup.register_s", MedianOver(untraced, &Rep::register_s), "s");
  add("setup.preload_s", MedianOver(untraced, &Rep::preload_s), "s");
  add("setup.warmup_s", MedianOver(untraced, &Rep::warmup_s), "s");
  const std::vector<double> add_us = Pooled(untraced, &Rep::add_tenant_us);
  add("meta.add_tenant_us.p50", Quantile(add_us, 0.5), "us");
  add("meta.add_tenant_us.p99", Quantile(add_us, 0.99), "us");
  // control plane
  add("control.scale_ups", c[kScaleUps], "count");
  add("control.scale_downs", c[kScaleDowns], "count");
  add("control.splits", c[kSplits], "count");
  add("control.migrations_applied", c[kMigrations], "count");
}

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string s = "{\"correct\": ";
  s += correct ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(attempted);
  s += ", \"failed\": " + std::to_string(failed);
  s += ", \"metrics\": {";
  char buf[64];
  for (size_t i = 0; i < metrics.size(); i++) {
    double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0;
    std::snprintf(buf, sizeof(buf), "%.10g", v);
    s += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " + buf +
         ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  s += "}}";
  std::printf("%s\n", s.c_str());
}

int Usage() {
  std::fprintf(stderr,
               "usage: ledger --workload <cache_hot|write_spill|"
               "tenant_sprawl> --seed <n> --seconds <s> --trace <0|1>\n");
  return 2;
}

}  // namespace
}  // namespace ledger

int main(int argc, char** argv) {
  using namespace ledger;
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::strncmp(argv[i], "--", 2) != 0) return Usage();
    args[argv[i] + 2] = argv[i + 1];
  }
  if (args.count("workload") == 0) return Usage();
  const uint64_t seed = std::strtoull(args["seed"].c_str(), nullptr, 10);
  const double seconds =
      args.count("seconds") ? std::strtod(args["seconds"].c_str(), nullptr)
                            : 10;
  const bool trace = args.count("trace") && args["trace"] == "1";
  Shape shape;
  if (!MakeShape(args["workload"], seed, &shape)) return Usage();

  const auto start = Clock::now();
  // Repetitions fill the time budget, at least three untraced ones (trace
  // 0) or two untraced and two traced ones, alternating (trace 1), so
  // every median has a majority.
  std::vector<Rep> untraced, traced;
  std::vector<Metric> metrics;
  if (trace) RunKernels(shape, seed, &metrics);
  const double budget = seconds - SecondsSince(start);
  const auto loop0 = Clock::now();
  double longest = 0;
  for (size_t i = 0;; i++) {
    const bool is_traced = trace && i % 2 == 1;
    const size_t done = untraced.size() + traced.size();
    const size_t min_reps = trace ? 4 : 3;
    if (done >= min_reps && SecondsSince(loop0) + longest > budget) break;
    const auto r0 = Clock::now();
    Rep r = RunRep(shape, is_traced, is_traced && traced.empty());
    longest = std::max(longest, SecondsSince(r0));
    (is_traced ? traced : untraced).push_back(std::move(r));
  }

  // Correctness: deterministic outcomes repeat exactly across every
  // repetition (traced or not), and no probe read or scan broke its
  // contract.
  bool correct = true;
  const Rep& ref = untraced.front();
  for (const std::vector<Rep>* set : {&untraced, &traced}) {
    for (const Rep& r : *set) {
      if (!(r.out == ref.out)) {
        correct = false;
        std::printf("FAIL: %s repetition diverged from the first one\n",
                    r.traced ? "traced" : "untraced");
      }
    }
  }
  if (ref.out.probe_violations > 0) {
    correct = false;
    std::printf("FAIL: %llu probe violations, first: %s\n",
                static_cast<unsigned long long>(ref.out.probe_violations),
                ref.first_violation.c_str());
  }
  if (ref.out.settled <= 0) {
    correct = false;
    std::printf("FAIL: no request settled\n");
  }

  const Outcomes& o = ref.out;
  std::printf(
      "# workload=%s seed=%llu reps=%zu+%zu traced ticks=%zu+%zu nproc=%u "
      "workers=%d cpu=\"%s\" spike_tick_share=%.3f settled/rep=%.0f "
      "probe_ops/rep=%llu elapsed_s=%.2f\n",
      shape.name.c_str(), static_cast<unsigned long long>(seed),
      untraced.size(), traced.size(), shape.warmup_ticks, shape.timed_ticks,
      std::thread::hardware_concurrency(), shape.cluster.sim.data_plane_workers,
      CpuModel().c_str(),
      static_cast<double>(shape.timed_ticks / shape.period) /
          static_cast<double>(shape.timed_ticks),
      o.settled, static_cast<unsigned long long>(o.probe_ops),
      SecondsSince(start));

  for (const std::vector<Rep>* set : {&untraced, &traced}) {
    for (const Rep& r : *set) {
      std::printf(
          "#   rep %-8s setup_s=%.3f wall_ns_per_op=%.1f cpu_ns_per_op=%.1f\n",
          r.traced ? "traced" : "untraced", r.setup_s, NsPerOp(r),
          Ratio(r.cpu_ns, r.out.settled));
    }
  }
  if (trace) {
    PerLayer(shape, untraced, traced, &metrics);
    const double nproc = std::thread::hardware_concurrency();
    const double workers = shape.cluster.sim.data_plane_workers;
    metrics.push_back({"host.nproc", nproc, "count"});
    metrics.push_back({"host.workers", workers, "count"});
  } else {
    EndToEnd(untraced, &metrics);
  }
  for (const Metric& m : metrics) {
    std::printf("#   %-32s %16.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  const size_t reps = untraced.size() + traced.size();
  const uint64_t attempted =
      static_cast<uint64_t>(o.settled) * reps + o.probe_ops * reps;
  const uint64_t failed = o.probe_failed * reps;
  PrintResult(correct, attempted, failed, metrics);
  return 0;
}
