// Data-plane scaling: ticks/sec vs node count and NodeSchedule worker
// count. This is the perf trajectory for the parallel executor — the
// refactor's payoff is that within a tick, DataNodes are independent
// between Submit() and SwapResponses(), so their WFQ ticks fan out across
// a worker pool while serial/parallel results stay bit-identical
// (tests/pipeline_test.cc proves the identity).
//
// Emits a human-readable table and writes the run's machine-readable
// record to BENCH_scaling_nodes.json (overwritten per run; CI archives
// it as an artifact for trend tracking).
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"

namespace abase {
namespace bench {
namespace {

struct RunResult {
  size_t nodes = 0;
  size_t tenants = 0;
  int workers = 0;  ///< 1 = serial reference executor.
  double ticks_per_sec = 0;
  uint64_t requests_completed = 0;
  /// Wall-clock nanoseconds spent in each pipeline stage across the timed
  /// ticks (satellite: per-stage cost attribution). Parallel stages count
  /// the spawning thread's wall time, which includes worker wait.
  std::vector<std::pair<std::string, uint64_t>> stage_nanos;
};

meta::TenantConfig ScalingTenant(TenantId id, uint32_t partitions) {
  meta::TenantConfig c;
  c.id = id;
  c.name = "t" + std::to_string(id);
  c.tenant_quota_ru = 40000;
  c.num_partitions = partitions;
  c.num_proxies = 4;
  c.num_proxy_groups = 2;
  return c;
}

RunResult RunOnce(size_t num_nodes, size_t num_tenants, int workers,
                  size_t warmup_ticks, size_t timed_ticks,
                  const char* trace_path = nullptr) {
  sim::SimOptions opt;
  opt.seed = 99;
  opt.data_plane_workers = workers;
  if (trace_path != nullptr) opt.trace_path = trace_path;
  sim::ClusterSim sim(opt);
  PoolId pool = sim.AddPool(num_nodes);

  // Enough partitions that every node hosts replicas of every tenant.
  uint32_t partitions = static_cast<uint32_t>(num_nodes);
  for (TenantId t = 1; t <= num_tenants; t++) {
    (void)sim.AddTenant(ScalingTenant(t, partitions), pool);
    sim.PreloadKeys(t, /*num_keys=*/2000, /*value_bytes=*/512);
    sim::WorkloadProfile profile;
    profile.base_qps = 1500;
    profile.read_ratio = 0.8;
    profile.num_keys = 2000;
    profile.value_bytes = 512;
    sim.SetWorkload(t, profile);
  }

  sim.RunTicks(warmup_ticks);

  // Per-stage attribution only covers the timed window; the clock pairs
  // it inserts are observation-only (determinism untouched).
  sim.pipeline().SetStageTiming(true);
  sim.pipeline().ResetStageNanos();

  auto start = std::chrono::steady_clock::now();
  sim.RunTicks(timed_ticks);
  auto end = std::chrono::steady_clock::now();
  double seconds = std::chrono::duration<double>(end - start).count();

  RunResult r;
  for (size_t i = 0; i < sim.pipeline().num_stages(); i++) {
    r.stage_nanos.emplace_back(sim.pipeline().stage(i).name(),
                               sim.pipeline().stage_nanos(i));
  }
  r.nodes = num_nodes;
  r.tenants = num_tenants;
  r.workers = workers;
  r.ticks_per_sec =
      seconds > 0 ? static_cast<double>(timed_ticks) / seconds : 0;
  for (TenantId t = 1; t <= num_tenants; t++) {
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
  using abase::bench::RunOnce;
  using abase::bench::RunResult;

  const unsigned hw = std::thread::hardware_concurrency();
  abase::bench::PrintHeader(
      "Scaling: ticks/sec vs node count and data-plane workers "
      "(hardware threads: " +
      std::to_string(hw) + ")");

  const std::vector<size_t> node_counts = {4, 8, 16};
  const std::vector<int> worker_counts = {1, 2, 4};
  constexpr size_t kTenants = 8;
  constexpr size_t kWarmup = 2;
  constexpr size_t kTimed = 8;
  constexpr size_t kRepetitions = 3;  ///< Median-of-N per configuration.

  std::printf("%8s %8s %9s %12s %12s %10s\n", "nodes", "tenants", "workers",
              "ticks/sec", "reqs_ok", "speedup");
  std::vector<RunResult> results;
  for (size_t nodes : node_counts) {
    double serial_tps = 0;
    for (int workers : worker_counts) {
      // Each repetition is a full fresh simulation; the reported
      // ticks/sec is the median so one noisy run doesn't set the trend.
      std::vector<double> tps_samples;
      RunResult r;
      for (size_t rep = 0; rep < kRepetitions; rep++) {
        r = RunOnce(nodes, kTenants, workers, kWarmup, kTimed);
        tps_samples.push_back(r.ticks_per_sec);
      }
      r.ticks_per_sec = abase::bench::Median(tps_samples);
      if (workers == 1) serial_tps = r.ticks_per_sec;
      double speedup = serial_tps > 0 ? r.ticks_per_sec / serial_tps : 0;
      std::printf("%8zu %8zu %9d %12.2f %12llu %9.2fx\n", r.nodes, r.tenants,
                  r.workers, r.ticks_per_sec,
                  static_cast<unsigned long long>(r.requests_completed),
                  speedup);
      if (workers == 1) {
        // Where the serial tick actually goes (last repetition's split).
        uint64_t total_ns = 0;
        for (const auto& s : r.stage_nanos) total_ns += s.second;
        std::printf("%19s", "stages:");
        for (const auto& s : r.stage_nanos) {
          std::printf(" %s=%.0f%%", s.first.c_str(),
                      total_ns > 0 ? 100.0 * static_cast<double>(s.second) /
                                         static_cast<double>(total_ns)
                                   : 0.0);
        }
        std::printf("\n");
      }
      results.push_back(r);
    }
  }
  if (hw < 4) {
    std::printf(
        "\nNote: only %u hardware thread(s) available — parallel speedup "
        "needs >= `workers` cores to materialize.\n",
        hw);
  }

  // Machine-readable trend record, written at the repo root (committed
  // per PR so the perf trajectory has data points). hardware_threads
  // lets consumers — CI, the 4-worker speedup gate — self-disable
  // parallel expectations on small containers.
  const std::string json_path =
      abase::bench::RepoRootPath("BENCH_scaling_nodes.json");
  FILE* f = std::fopen(json_path.c_str(), "w");
  if (f != nullptr) {
    std::fprintf(f,
                 "{\"bench\":\"scaling_nodes\",\"hardware_threads\":%u,"
                 "\"warmup_ticks\":%zu,\"timed_ticks\":%zu,"
                 "\"repetitions\":%zu,\"results\":[",
                 hw, kWarmup, kTimed, kRepetitions);
    for (size_t i = 0; i < results.size(); i++) {
      const RunResult& r = results[i];
      std::fprintf(f,
                   "%s{\"nodes\":%zu,\"tenants\":%zu,\"workers\":%d,"
                   "\"ticks_per_sec\":%.3f,\"requests_ok\":%llu,"
                   "\"stage_nanos\":{",
                   i == 0 ? "" : ",", r.nodes, r.tenants, r.workers,
                   r.ticks_per_sec,
                   static_cast<unsigned long long>(r.requests_completed));
      for (size_t s = 0; s < r.stage_nanos.size(); s++) {
        std::fprintf(f, "%s\"%s\":%llu", s == 0 ? "" : ",",
                     r.stage_nanos[s].first.c_str(),
                     static_cast<unsigned long long>(r.stage_nanos[s].second));
      }
      std::fprintf(f, "}}");
    }
    std::fprintf(f, "]}\n");
    std::fclose(f);
    std::printf("\nwrote %s\n", json_path.c_str());
  }

  // Optional perfetto trace of one short run (CI uploads it as an
  // artifact; load in ui.perfetto.dev): ABASE_BENCH_TRACE=<path>.
  const char* trace_path = std::getenv("ABASE_BENCH_TRACE");
  if (trace_path != nullptr && trace_path[0] != '\0') {
    const int trace_workers = hw >= 4 ? 4 : 2;
    (void)RunOnce(/*num_nodes=*/16, kTenants, trace_workers,
                  /*warmup_ticks=*/1, /*timed_ticks=*/4, trace_path);
    std::printf("wrote perfetto trace %s (%d workers)\n", trace_path,
                trace_workers);
  }

  // Exit-code gates (CI perf smoke). The floor catches
  // order-of-magnitude regressions, not run-to-run noise — set it well
  // below the recorded trend. The 4-worker scaling gate self-disables
  // below 4 hardware threads, where extra workers only add coordination
  // overhead.
  int rc = 0;
  const char* floor_env = std::getenv("ABASE_BENCH_MIN_TPS");
  if (floor_env != nullptr && floor_env[0] != '\0') {
    const double floor = std::atof(floor_env);
    for (const RunResult& r : results) {
      if (r.workers != 1) continue;
      if (r.ticks_per_sec < floor) {
        std::printf("FAIL: %zu-node 1-worker %.2f ticks/sec below floor %.2f\n",
                    r.nodes, r.ticks_per_sec, floor);
        rc = 1;
      }
    }
  }
  if (hw >= 4) {
    const char* spd_env = std::getenv("ABASE_BENCH_MIN_SPEEDUP_4W");
    const double min_speedup = spd_env != nullptr ? std::atof(spd_env) : 1.2;
    double serial_16 = 0, four_16 = 0;
    for (const RunResult& r : results) {
      if (r.nodes != 16) continue;
      if (r.workers == 1) serial_16 = r.ticks_per_sec;
      if (r.workers == 4) four_16 = r.ticks_per_sec;
    }
    if (serial_16 > 0 && four_16 < min_speedup * serial_16) {
      std::printf("FAIL: 16-node 4-worker speedup %.2fx below %.2fx\n",
                  four_16 / serial_16, min_speedup);
      rc = 1;
    }
  }
  return rc;
}
