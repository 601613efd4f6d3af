// Tail latency under contention: clients × depth × hedging matrix.
//
// Closed-loop harness over the async command API: N client sessions each
// keep D eventual-consistency Gets in flight against one shared cluster
// with the sub-tick latency subsystem enabled (lognormal service times,
// cross-AZ RTT, timed Settle). The proxy read cache is disabled so every
// read pays a data-plane service-time draw — this bench measures the
// tail the hedging machinery exists to cut, not the cache.
//
// Each grid point runs twice, hedging off and on, and reports true
// p50/p95/p99 over the per-request sub-tick latencies (Reply::
// LatencyMicros) plus RU charged per completed op (hedges bill both
// legs, so the per-op RU is where their cost shows up).
//
// Acceptance gates, enforced by exit code at the contention point (the
// largest clients × depth grid cell):
//   1. p99/p50 > 3 with hedging off — the service-time distribution
//      must actually have a tail worth hedging.
//   2. Hedging cuts p99 by >= 20%.
//   3. Hedging raises RU per completed op by <= 10%.
//
// Writes BENCH_tail_latency.json (overwritten per run; CI archives
// BENCH_*.json as artifacts). The `hardware_threads` field records the
// host the figures came from.
#include <algorithm>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "core/abase.h"

namespace abase {
namespace bench {
namespace {

constexpr uint64_t kKeySpace = 2048;
constexpr uint64_t kValueBytes = 256;
constexpr size_t kWarmupTicks = 15;
constexpr size_t kMeasureTicks = 45;

meta::TenantConfig TailTenant() {
  meta::TenantConfig c;
  c.id = 1;
  c.name = "tail-bench";
  c.tenant_quota_ru = 2000000;  // Ample: measure the data plane, not admission.
  c.num_partitions = 16;
  c.num_proxies = 8;
  c.num_proxy_groups = 2;
  c.replicas = 3;
  return c;
}

Cluster MakeCluster(bool hedging) {
  ClusterOptions copts;
  copts.sim.seed = 23;
  copts.sim.node.wfq.cpu_budget_ru = 100000;
  copts.sim.node.ru_capacity = 100000;
  copts.sim.node.service_time.enabled = true;
  copts.sim.node.service_time.dist = latency::DistKind::kLognormal;
  copts.sim.node.service_time.mean_micros = 150;
  copts.sim.node.service_time.sigma = 1.2;
  copts.sim.latency.enabled = true;
  // Single-AZ deployment: every hop rides the 120us fabric. With 3 AZs
  // the 900us cross-AZ RTT lottery dominates the percentiles and buries
  // the service-time tail this bench (and hedging) is about.
  copts.sim.latency.num_azs = 1;
  copts.sim.latency.hedge.enabled = hedging;
  copts.sim.latency.hedge.min_observations = 32;
  copts.sim.latency.hedge.min_threshold_micros = 100;
  return Cluster(copts);
}

std::string KeyFor(int client, int seq) {
  return "t1:k" + std::to_string(
                      (static_cast<uint64_t>(client) * 131 + seq * 7) %
                      kKeySpace);
}

struct TailRun {
  size_t clients = 0;
  size_t depth = 0;
  bool hedging = false;
  uint64_t completed = 0;
  uint64_t errors = 0;
  uint64_t hedged = 0;
  uint64_t hedge_wins = 0;
  double p50 = 0;
  double p95 = 0;
  double p99 = 0;
  double ru_per_op = 0;
};

double PercentileOf(std::vector<uint64_t>& sorted, double pct) {
  if (sorted.empty()) return 0;
  size_t idx = static_cast<size_t>(
      static_cast<double>(sorted.size()) * pct / 100.0);
  return static_cast<double>(sorted[std::min(idx, sorted.size() - 1)]);
}

TailRun RunPoint(size_t num_clients, size_t depth, bool hedging) {
  Cluster cluster = MakeCluster(hedging);
  PoolId pool = cluster.CreatePool(8);
  (void)cluster.CreateTenant(TailTenant(), pool);
  cluster.sim().SetProxyCacheEnabled(1, false);
  cluster.sim().PreloadKeys(1, kKeySpace, kValueBytes);

  std::vector<Client> clients;
  clients.reserve(num_clients);
  for (size_t c = 0; c < num_clients; c++) {
    clients.push_back(cluster.OpenClient(1));
  }

  std::vector<std::vector<Future<Reply>>> outstanding(num_clients);
  std::vector<int> next_seq(num_clients, 0);
  auto submit_one = [&](size_t c) {
    int seq = next_seq[c]++;
    outstanding[c].push_back(clients[c].Submit(
        Command::GetEventual(KeyFor(static_cast<int>(c), seq))));
  };
  for (size_t c = 0; c < num_clients; c++) {
    for (size_t d = 0; d < depth; d++) submit_one(c);
  }

  TailRun run;
  run.clients = num_clients;
  run.depth = depth;
  run.hedging = hedging;
  std::vector<uint64_t> latencies;
  for (size_t tick = 0; tick < kWarmupTicks + kMeasureTicks; tick++) {
    bool measuring = tick >= kWarmupTicks;
    cluster.Step();
    for (size_t c = 0; c < num_clients; c++) {
      auto& fs = outstanding[c];
      for (size_t i = 0; i < fs.size();) {
        if (fs[i].ready()) {
          const Reply& r = fs[i].value();
          if (measuring) {
            if (r.ok() || r.status.IsNotFound()) {
              run.completed++;
              latencies.push_back(r.LatencyMicros());
            } else {
              run.errors++;
            }
          }
          fs.erase(fs.begin() + static_cast<long>(i));
          submit_one(c);  // Closed loop: keep `depth` in flight.
        } else {
          i++;
        }
      }
    }
  }

  double ru = 0;
  const auto& h = cluster.sim().History(1);
  for (size_t i = kWarmupTicks; i < h.size(); i++) {
    ru += h[i].ru_charged;
    run.hedged += h[i].hedged_reads;
    run.hedge_wins += h[i].hedge_wins;
  }
  run.ru_per_op = run.completed == 0 ? 0 : ru / static_cast<double>(run.completed);

  std::sort(latencies.begin(), latencies.end());
  run.p50 = PercentileOf(latencies, 50);
  run.p95 = PercentileOf(latencies, 95);
  run.p99 = PercentileOf(latencies, 99);
  return run;
}

}  // namespace
}  // namespace bench
}  // namespace abase

int main() {
  using abase::bench::RunPoint;
  using abase::bench::TailRun;

  abase::bench::PrintHeader(
      "Tail latency: clients x depth x hedging, sub-tick micros "
      "(lognormal service, proxy cache off, eventual reads)");

  const std::vector<size_t> client_counts = {8, 32, 64};
  const std::vector<size_t> depths = {1, 8};

  std::printf("%8s %6s %6s %10s %8s %8s %8s %9s %8s %8s\n", "clients",
              "depth", "hedge", "completed", "p50us", "p95us", "p99us",
              "ru/op", "hedged", "wins");
  std::vector<TailRun> runs;
  for (size_t clients : client_counts) {
    for (size_t depth : depths) {
      for (bool hedging : {false, true}) {
        TailRun r = RunPoint(clients, depth, hedging);
        std::printf("%8zu %6zu %6s %10llu %8.0f %8.0f %8.0f %9.3f %8llu "
                    "%8llu\n",
                    r.clients, r.depth, r.hedging ? "on" : "off",
                    static_cast<unsigned long long>(r.completed), r.p50,
                    r.p95, r.p99, r.ru_per_op,
                    static_cast<unsigned long long>(r.hedged),
                    static_cast<unsigned long long>(r.hedge_wins));
        runs.push_back(r);
      }
    }
  }

  // Gates at the contention point: largest clients x depth grid cell.
  const TailRun& off = runs[runs.size() - 2];
  const TailRun& on = runs[runs.size() - 1];
  double tail_ratio = off.p50 > 0 ? off.p99 / off.p50 : 0;
  double p99_cut = off.p99 > 0 ? 1.0 - on.p99 / off.p99 : 0;
  double ru_ratio = off.ru_per_op > 0 ? on.ru_per_op / off.ru_per_op : 0;

  bool tail_ok = tail_ratio > 3.0;
  bool cut_ok = p99_cut >= 0.20;
  bool ru_ok = ru_ratio <= 1.10;
  std::printf(
      "\ncontention point (%zu clients x depth %zu):\n"
      "  p99/p50 hedge-off: %.2f (acceptance: > 3)%s\n"
      "  hedging p99 cut: %.1f%% (acceptance: >= 20%%)%s\n"
      "  hedging RU/op ratio: %.3f (acceptance: <= 1.10)%s\n",
      off.clients, off.depth, tail_ratio, tail_ok ? "" : "  ** FAIL **",
      p99_cut * 100, cut_ok ? "" : "  ** FAIL **", ru_ratio,
      ru_ok ? "" : "  ** FAIL **");

  std::string path = abase::bench::RepoRootPath("BENCH_tail_latency.json");
  FILE* f = std::fopen(path.c_str(), "w");
  if (f != nullptr) {
    std::fprintf(f,
                 "{\"bench\":\"tail_latency\",\"hardware_threads\":%u,"
                 "\"warmup_ticks\":%zu,"
                 "\"measure_ticks\":%zu,"
                 "\"tail_ratio_hedge_off\":%.3f,\"p99_cut_pct\":%.2f,"
                 "\"ru_per_op_ratio\":%.4f,"
                 "\"gates\":{\"tail_ratio_gt_3\":%s,"
                 "\"p99_cut_ge_20pct\":%s,\"ru_per_op_le_1_10\":%s},"
                 "\"results\":[",
                 std::thread::hardware_concurrency(),
                 abase::bench::kWarmupTicks, abase::bench::kMeasureTicks,
                 tail_ratio, p99_cut * 100, ru_ratio,
                 tail_ok ? "true" : "false", cut_ok ? "true" : "false",
                 ru_ok ? "true" : "false");
    for (size_t i = 0; i < runs.size(); i++) {
      const TailRun& r = runs[i];
      std::fprintf(f,
                   "%s{\"clients\":%zu,\"depth\":%zu,\"hedging\":%s,"
                   "\"completed\":%llu,\"errors\":%llu,"
                   "\"p50_us\":%.1f,\"p95_us\":%.1f,\"p99_us\":%.1f,"
                   "\"ru_per_op\":%.4f,\"hedged\":%llu,\"hedge_wins\":%llu}",
                   i == 0 ? "" : ",", r.clients, r.depth,
                   r.hedging ? "true" : "false",
                   static_cast<unsigned long long>(r.completed),
                   static_cast<unsigned long long>(r.errors), r.p50, r.p95,
                   r.p99, r.ru_per_op,
                   static_cast<unsigned long long>(r.hedged),
                   static_cast<unsigned long long>(r.hedge_wins));
    }
    std::fprintf(f, "]}\n");
    std::fclose(f);
    std::printf("\nwrote %s\n", path.c_str());
  }

  bool pass = tail_ok && cut_ok && ru_ok;
  std::printf("tail latency gates: %s\n", pass ? "PASS" : "FAIL");
  return pass ? 0 : 1;
}
