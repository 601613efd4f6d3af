// Million-tenant sparse-ticking scaling: the active-set data plane's
// headline claim is that tick cost tracks *active* work, not registered
// tenants. Two runs on the same 1000-node pool carry the identical live
// workload (1000 trafficked tenants); the big run additionally registers
// 999k parked tenants whose flat-zero schedules park their generators on
// the event wheel after the first tick. An exit-code gate holds the big
// run to at least half the small run's tick rate, which any tick walk
// that visits every registered tenant fails. A second gate bounds the
// 1M-tenant registration (setup_seconds): 191.5 s while every
// AddReplica re-summed its node's hosted quotas, 39.0 s once the
// ascending append became one `+=` (same 4-hardware-thread host). A
// third gate bounds what a registered tenant keeps resident: the VmRSS
// growth over the 1M-tenant registration loop, per tenant (see
// kMaxBytesPerTenant). VmRSS only counts pages that become resident, so
// a fourth gate bounds the heap the same loop allocates (mallinfo2
// growth per tenant, kMaxHeapBytesPerTenant), which counts every byte
// handed out whether or not it is ever written.
//
// Emits a human-readable table and writes the run's machine-readable
// record to BENCH_scale_tenants.json (overwritten per run; CI archives
// it as an artifact for trend tracking).
#include <malloc.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"

namespace abase {
namespace bench {
namespace {

struct RunResult {
  size_t nodes = 0;
  size_t registered = 0;
  size_t active = 0;
  double ticks_per_sec = 0;
  double setup_seconds = 0;
  uint64_t requests_completed = 0;
  size_t active_generators = 0;  ///< |gen_active_| after the timed window.
  size_t repl_active = 0;        ///< |repl_active_| after the timed window.
  size_t pending_wakes = 0;      ///< Generator wheel entries outstanding.
  /// VmRSS growth over the registration loop, per registered tenant.
  double rss_bytes_per_tenant = 0;
  /// Heap growth (bytes the allocator handed out, touched or not) over
  /// the registration loop, per registered tenant.
  double heap_bytes_per_tenant = 0;
};

/// Bytes the allocator currently has handed out: in-use arena chunks
/// plus mmap'd blocks, over every arena.
double HeapInUseBytes() {
  const struct mallinfo2 mi = mallinfo2();
  return static_cast<double>(mi.uordblks) + static_cast<double>(mi.hblkhd);
}

/// A "<field>: <n> kB" line of /proc/self/status, in bytes (0 if absent).
double ProcStatusBytes(const char* field) {
  std::ifstream in("/proc/self/status");
  const std::string prefix = std::string(field) + ":";
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(prefix, 0) == 0) {
      return std::strtod(line.c_str() + prefix.size(), nullptr) * 1024.0;
    }
  }
  return 0;
}

meta::TenantConfig ScaleTenant(TenantId id) {
  meta::TenantConfig c;
  c.id = id;
  c.name = "t" + std::to_string(id);
  c.tenant_quota_ru = 40000;
  // Minimal per-tenant footprint: the run measures how cheaply a parked
  // tenant rides along, not replication or proxy fan-out.
  c.num_partitions = 1;
  c.replicas = 1;
  c.num_proxies = 1;
  c.num_proxy_groups = 1;
  return c;
}

RunResult RunOnce(size_t num_nodes, size_t registered, size_t active,
                  size_t warmup_ticks, size_t timed_ticks, size_t windows) {
  sim::SimOptions opt;
  opt.seed = 77;
  // Round-robin placement: hash-free striping keeps 1M single-replica
  // tenants uniform across the pool without a per-tenant RNG draw.
  opt.striped_placement = true;
  sim::ClusterSim sim(opt);

  auto setup_start = std::chrono::steady_clock::now();
  PoolId pool = sim.AddPool(num_nodes);
  // Hand the previous run's freed memory back to the kernel first: the
  // registration would otherwise reuse those still-resident pages
  // without growing VmRSS, and the figure would depend on what ran
  // before it rather than on what a tenant keeps.
  malloc_trim(0);
  const double rss_before = ProcStatusBytes("VmRSS");
  const double heap_before = HeapInUseBytes();
  // Tenants 1..active carry traffic in BOTH runs: striped placement puts
  // them on the same nodes and their RNG streams are per-tenant, so the
  // live workload is bit-identical whether 0 or 999k parked tenants are
  // registered beside it (the requests_completed gate enforces this).
  for (TenantId t = 1; t <= registered; t++) {
    (void)sim.AddTenant(ScaleTenant(t), pool);
    const bool is_active = t <= active;
    sim::WorkloadProfile profile;
    profile.base_qps = is_active ? 500 : 0;  // 0 => parked after tick 1.
    profile.read_ratio = 0.8;
    profile.num_keys = 512;
    profile.value_bytes = 128;
    sim.SetWorkload(t, profile);
    if (is_active) {
      sim.PreloadKeys(t, /*num_keys=*/512, /*value_bytes=*/128);
    }
  }
  auto setup_end = std::chrono::steady_clock::now();
  const double rss_registered = ProcStatusBytes("VmRSS") - rss_before;
  const double heap_registered = HeapInUseBytes() - heap_before;

  // The first ticks park every flat-zero generator and drain the
  // replication walk to its quiescent set — that registration-size cost
  // is warm-up, not steady state.
  sim.RunTicks(warmup_ticks);

  // One simulation, median of N timed windows: rebuilding a
  // million-tenant cluster per repetition would dominate the bench.
  std::vector<double> tps_samples;
  for (size_t w = 0; w < windows; w++) {
    auto start = std::chrono::steady_clock::now();
    sim.RunTicks(timed_ticks);
    auto end = std::chrono::steady_clock::now();
    double seconds = std::chrono::duration<double>(end - start).count();
    tps_samples.push_back(
        seconds > 0 ? static_cast<double>(timed_ticks) / seconds : 0);
  }

  RunResult r;
  r.nodes = num_nodes;
  r.registered = registered;
  r.active = active;
  r.ticks_per_sec = Median(tps_samples);
  r.setup_seconds =
      std::chrono::duration<double>(setup_end - setup_start).count();
  r.rss_bytes_per_tenant = rss_registered / static_cast<double>(registered);
  r.heap_bytes_per_tenant =
      heap_registered / static_cast<double>(registered);
  r.active_generators = sim.ActiveGeneratorCount();
  r.repl_active = sim.ReplActiveCount();
  r.pending_wakes = sim.PendingGeneratorWakes();
  for (TenantId t = 1; t <= active; t++) {
    const auto& h = sim.History(t);
    for (size_t i = warmup_ticks; i < h.size(); i++) {
      r.requests_completed += h[i].ok;
    }
  }
  return r;
}

}  // namespace
}  // namespace bench
}  // namespace abase

int main() {
  using abase::bench::ProcStatusBytes;
  using abase::bench::RunOnce;
  using abase::bench::RunResult;

  const unsigned hw = std::thread::hardware_concurrency();
  abase::bench::PrintHeader(
      "Tenant scaling: ticks/sec vs registered tenants at fixed active "
      "work (hardware threads: " +
      std::to_string(hw) + ")");

  constexpr size_t kNodes = 1000;
  constexpr size_t kActive = 1000;
  constexpr size_t kWarmup = 3;
  constexpr size_t kTimed = 8;
  constexpr size_t kWindows = 3;  ///< Median-of-N timed windows.
  /// 1M-tenant setup ceiling: ~2.9x headroom over the slowest of three
  /// measured runs (3.30-3.46 s, 4-hardware-thread host) for runner
  /// variance. Building every parked tenant's Zipf sampler at
  /// registration again (12.4-15.3 s) fails it, as does the quadratic
  /// per-node quota re-sum (191.5 s).
  constexpr double kMaxBigSetupSeconds = 10.0;
  /// Resident bytes per registered tenant over the 1M registration loop
  /// (preload of the 1000 active tenants included): 10,999 B while every
  /// tenant built its router RNG and RU moving-average deques at
  /// registration, 5,214 B once they are built on first traffic, 2,718 B
  /// once the workload generator's RNG is too, 727 B once engine state,
  /// the proxy's content store / RU estimator / in-flight map, the
  /// tenant's metrics-latency-control block and the partition quota
  /// bucket are built on first use as well (same 4-hardware-thread
  /// host), 665 B once the Zipf sampler is built on the first draw.
  /// Those figures were read without trimming the heap first, so the
  /// registration reused pages the 1k run had freed while they were
  /// still resident: 665 B rose to 1,124 B once the 1k run stopped
  /// holding a tick of generated requests, with the same registration
  /// code. Trimmed first, the same code reads 1,803 B. ~33% headroom over
  /// that; any of the blocks above built eagerly again (engine state
  /// ~0.4 KB, proxy block ~0.9 KB, tenant block ~0.6 KB) fails.
  constexpr double kMaxBytesPerTenant = 2400.0;
  /// Heap bytes per registered tenant over the same loop: 1,805 B (same
  /// host, glibc 2.36), identical over four runs. The figure is a
  /// function of the registration code and the allocator's chunk sizes
  /// alone, so it carries ~11% headroom; an eager 256-byte allocation per
  /// tenant fails it.
  constexpr double kMaxHeapBytesPerTenant = 2000.0;
  const std::vector<size_t> registered_counts = {1000, 1000000};

  std::printf("%12s %8s %8s %12s %12s %10s %10s %10s\n", "registered",
              "active", "nodes", "ticks/sec", "reqs_ok", "gen_live",
              "setup_s", "B/tenant");
  std::vector<RunResult> results;
  for (size_t registered : registered_counts) {
    RunResult r =
        RunOnce(kNodes, registered, kActive, kWarmup, kTimed, kWindows);
    std::printf("%12zu %8zu %8zu %12.2f %12llu %10zu %9.1fs %10.0f\n",
                r.registered, r.active, r.nodes, r.ticks_per_sec,
                static_cast<unsigned long long>(r.requests_completed),
                r.active_generators, r.setup_seconds, r.rss_bytes_per_tenant);
    results.push_back(r);
  }

  const RunResult& small = results[0];
  const RunResult& big = results[1];
  const double ratio =
      small.ticks_per_sec > 0 ? big.ticks_per_sec / small.ticks_per_sec : 0;
  std::printf(
      "\n1M-registered run sustains %.2fx the 1k-run tick rate "
      "(%zu live generators, %zu repl-active, %zu pending wakes)\n",
      ratio, big.active_generators, big.repl_active, big.pending_wakes);
  const double peak_rss_mb = ProcStatusBytes("VmHWM") / (1024.0 * 1024.0);
  std::printf(
      "peak RSS %.1f MB; 1M registration kept %.0f B resident and %.0f B "
      "of heap per tenant\n",
      peak_rss_mb, big.rss_bytes_per_tenant, big.heap_bytes_per_tenant);

  // Machine-readable trend record, written at the repo root (committed
  // per PR so the perf trajectory has data points). hardware_threads
  // lets consumers self-disable parallel expectations on small
  // containers; the sparse-ticking gate below is single-worker and
  // applies everywhere.
  const std::string json_path =
      abase::bench::RepoRootPath("BENCH_scale_tenants.json");
  FILE* f = std::fopen(json_path.c_str(), "w");
  if (f != nullptr) {
    std::fprintf(f,
                 "{\"bench\":\"scale_tenants\",\"hardware_threads\":%u,"
                 "\"warmup_ticks\":%zu,\"timed_ticks\":%zu,"
                 "\"windows\":%zu,\"big_vs_small_tps_ratio\":%.3f,"
                 "\"peak_rss_mb\":%.1f,\"results\":[",
                 hw, kWarmup, kTimed, kWindows, ratio, peak_rss_mb);
    for (size_t i = 0; i < results.size(); i++) {
      const RunResult& r = results[i];
      std::fprintf(
          f,
          "%s{\"registered\":%zu,\"active\":%zu,\"nodes\":%zu,"
          "\"ticks_per_sec\":%.3f,\"requests_ok\":%llu,"
          "\"active_generators\":%zu,\"repl_active\":%zu,"
          "\"pending_wakes\":%zu,\"setup_seconds\":%.3f,"
          "\"rss_bytes_per_tenant\":%.0f,\"heap_bytes_per_tenant\":%.0f}",
          i == 0 ? "" : ",", r.registered, r.active, r.nodes, r.ticks_per_sec,
          static_cast<unsigned long long>(r.requests_completed),
          r.active_generators, r.repl_active, r.pending_wakes,
          r.setup_seconds, r.rss_bytes_per_tenant, r.heap_bytes_per_tenant);
    }
    std::fprintf(f, "]}\n");
    std::fclose(f);
    std::printf("\nwrote %s\n", json_path.c_str());
  }

  // Exit-code gates. (1) Sanity: both runs completed the same live work
  // — a parked tenant must contribute zero requests and an active one
  // must not be starved by its million idle neighbors. (2) The headline
  // sparse-ticking gate: registering 999k parked tenants may cost at
  // most 2x in steady-state tick rate (a walk over every registered
  // tenant each tick fails it). (3) Registering 1M tenants stays within
  // kMaxBigSetupSeconds. (4) It keeps at most kMaxBytesPerTenant
  // resident per tenant, and (5) allocates at most kMaxHeapBytesPerTenant
  // of heap per tenant.
  int rc = 0;
  if (big.requests_completed != small.requests_completed) {
    std::printf("FAIL: live work diverged (1k run %llu ok, 1M run %llu ok)\n",
                static_cast<unsigned long long>(small.requests_completed),
                static_cast<unsigned long long>(big.requests_completed));
    rc = 1;
  }
  if (ratio < 0.5) {
    std::printf(
        "FAIL: 1M-registered tick rate %.2f is %.2fx the 1k-run rate %.2f "
        "(gate: >= 0.5x)\n",
        big.ticks_per_sec, ratio, small.ticks_per_sec);
    rc = 1;
  }
  if (big.setup_seconds > kMaxBigSetupSeconds) {
    std::printf("FAIL: 1M-tenant setup took %.1f s (gate: <= %.0f s)\n",
                big.setup_seconds, kMaxBigSetupSeconds);
    rc = 1;
  }
  if (big.rss_bytes_per_tenant > kMaxBytesPerTenant) {
    std::printf(
        "FAIL: 1M-tenant registration kept %.0f B resident per tenant "
        "(gate: <= %.0f B)\n",
        big.rss_bytes_per_tenant, kMaxBytesPerTenant);
    rc = 1;
  }
  if (big.heap_bytes_per_tenant > kMaxHeapBytesPerTenant) {
    std::printf(
        "FAIL: 1M-tenant registration allocated %.0f B of heap per tenant "
        "(gate: <= %.0f B)\n",
        big.heap_bytes_per_tenant, kMaxHeapBytesPerTenant);
    rc = 1;
  }
  return rc;
}
