// Closed-loop autoscaling bench: a diurnal + daily-burst tenant driven
// through the live Control pipeline stage.
//
// Part 1 — the Figure 8b oncall ablation, closed-loop: the same
// workload is run under predictive (Algorithm 1 forecast) and reactive
// (threshold-on-current-usage) scaling. Gate: predictive autoscaling
// throttles fewer requests than the reactive baseline (it scales before
// the burst instead of after users feel it).
//
// Part 2 — online split cutover: tracked writes are acknowledged
// continuously while a staged split streams the re-hashed half of every
// parent partition out, cuts over, and purges. Gate: zero acknowledged
// writes are lost — every acked write reads back with its exact value
// through the re-hashed routing.
//
// Writes BENCH_autoscale.json; exits non-zero if either gate fails.
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/rng.h"
#include "meta/meta_server.h"
#include "sim/cluster_sim.h"
#include "sim/workload.h"

namespace abase {
namespace bench {

constexpr TenantId kTenant = 1;

meta::TenantConfig Tenant(double quota, uint32_t partitions, double upper) {
  meta::TenantConfig c;
  c.id = kTenant;
  c.name = "diurnal";
  c.tenant_quota_ru = quota;
  c.num_partitions = partitions;
  c.num_proxies = 2;
  c.num_proxy_groups = 1;
  c.partition_quota_upper = upper;
  c.partition_quota_lower = 1;
  return c;
}

// ------------------------------------------------------------- Part 1 --

struct AblationResult {
  uint64_t first_scale_up_tick = 0;
  uint64_t scale_ups = 0;
  uint64_t throttled = 0;
  uint64_t ok = 0;
  double final_quota = 0;
};

/// One closed-loop day (3 ticks = 1 control hour): diurnal base with a
/// 4x burst over hours 5-8, seeded with 30 days of matching history.
AblationResult RunAblation(sim::AutoscaleMode mode) {
  sim::SimOptions opt;
  opt.seed = 20250;
  opt.control_interval_ticks = 3;
  opt.control_ticks_per_hour = 3;
  sim::ClusterSim sim(opt);
  PoolId pool = sim.AddPool(6);
  const double kInitialQuota = 700;
  (void)sim.AddTenant(Tenant(kInitialQuota, 4, 1e9), pool);
  sim.PreloadKeys(kTenant, 2000, 1024);

  sim::SeriesSpec day;
  day.hours = 24;
  day.base = 200;
  day.seasons.push_back({24, 150});
  Rng schedule_rng(5);

  sim::WorkloadProfile profile;
  profile.read_ratio = 0.3;
  profile.num_keys = 2000;
  profile.value_bytes = 1024;
  profile.rate_schedule = sim::GenerateSeries(day, schedule_rng);
  profile.rate_schedule_step = 3 * kMicrosPerSecond;
  // The daily burst: hours 5-8 of each simulated day.
  for (int d = 0; d < 2; d++) {
    Micros base = d * 72 * kMicrosPerSecond;
    profile.bursts.push_back({base + 15 * kMicrosPerSecond,
                              base + 27 * kMicrosPerSecond, 4.0});
  }
  sim.SetWorkload(kTenant, profile);

  sim::SeriesSpec past;
  past.hours = 30 * 24;
  past.base = 480;
  past.seasons.push_back({24, 360});
  past.noise_sigma = 10;
  for (size_t d = 0; d < 30; d++) {
    past.bursts.push_back({d * 24 + 5, 3, 2400});
  }
  Rng history_rng(17);
  sim.SeedUsageHistory(kTenant, sim::GenerateSeries(past, history_rng));
  sim.EnableAutoscale(kTenant, mode);

  AblationResult r;
  // Two simulated days (48 control hours = 144 ticks), one burst each.
  for (uint64_t tick = 1; tick <= 144; tick++) {
    sim.Tick();
    if (r.first_scale_up_tick == 0 &&
        sim.meta().GetTenant(kTenant)->tenant_quota_ru > kInitialQuota) {
      r.first_scale_up_tick = tick;
    }
  }
  for (const auto& m : sim.History(kTenant)) {
    r.throttled += m.throttled;
    r.ok += m.ok;
  }
  r.scale_ups = sim.Tenant(kTenant)->scale_ups;
  r.final_quota = sim.meta().GetTenant(kTenant)->tenant_quota_ru;
  return r;
}

// ------------------------------------------------------------- Part 2 --

struct SplitResult {
  uint64_t acked_writes = 0;
  uint64_t lost_acked_writes = 0;
  uint64_t reads_failed_during = 0;
  uint64_t cutover_tick = 0;
  uint64_t complete_tick = 0;
  uint64_t bytes_streamed = 0;  ///< Preload dataset size proxy.
  size_t partitions_after = 0;
};

SplitResult RunSplitCutover() {
  sim::SimOptions opt;
  opt.seed = 77;
  opt.split_bytes_per_tick = 32 << 10;  // Multi-tick streaming.
  sim::ClusterSim sim(opt);
  PoolId pool = sim.AddPool(6);
  (void)sim.AddTenant(Tenant(50000, 4, 1e9), pool);
  const uint64_t kKeys = 2000;
  sim.PreloadKeys(kTenant, kKeys, 256);

  SplitResult r;
  uint64_t next_req = 7000000;
  uint64_t writes = 0, probe = 0;
  std::map<uint64_t, std::string> pending_reads;
  std::map<uint64_t, std::pair<std::string, std::string>> pending_writes;
  std::map<std::string, std::string> acked;

  auto harvest = [&]() {
    for (auto it = pending_reads.begin(); it != pending_reads.end();) {
      auto outcome = sim.TakeOutcome(it->first);
      if (!outcome.has_value()) {
        ++it;
        continue;
      }
      if (!outcome->status.ok() || outcome->value.empty()) {
        r.reads_failed_during++;
      }
      it = pending_reads.erase(it);
    }
    for (auto it = pending_writes.begin(); it != pending_writes.end();) {
      auto outcome = sim.TakeOutcome(it->first);
      if (!outcome.has_value()) {
        ++it;
        continue;
      }
      if (outcome->status.ok()) acked[it->second.first] = it->second.second;
      it = pending_writes.erase(it);
    }
  };

  (void)sim.StartPartitionSplit(kTenant);
  for (uint64_t tick = 1; tick <= 200; tick++) {
    // Continuous tracked traffic: reads across the preloaded keyspace,
    // one uniquely-keyed write per tick.
    for (int i = 0; i < 6; i++) {
      ClientRequest req;
      req.req_id = next_req++;
      req.tenant = kTenant;
      req.op = OpType::kGet;
      req.key = "t1:k" + std::to_string(probe % kKeys);
      probe += 211;
      req.track_outcome = true;
      pending_reads[req.req_id] = req.key;
      sim.InjectRequest(req);
    }
    {
      ClientRequest req;
      req.req_id = next_req++;
      req.tenant = kTenant;
      req.op = OpType::kSet;
      req.key = "t1:kw" + std::to_string(writes);
      req.value = MakeSharedValue("payload-" + std::to_string(writes));
      writes++;
      req.track_outcome = true;
      pending_writes[req.req_id] = {req.key, std::string(req.value.view())};
      sim.InjectRequest(req);
    }
    sim.Tick();
    harvest();
    if (r.cutover_tick == 0 && sim.SplitCutovers() == 1) {
      r.cutover_tick = tick;
    }
    if (r.complete_tick == 0 && sim.SplitsCompleted() == 1) {
      r.complete_tick = tick;
    }
  }
  sim.RunTicks(4);
  harvest();
  r.acked_writes = acked.size();
  r.partitions_after = sim.meta().GetTenant(kTenant)->partitions.size();

  // Read every acknowledged write back through normal routing; a miss or
  // a value mismatch is a lost acked write.
  for (const auto& [key, value] : acked) {
    ClientRequest req;
    req.req_id = next_req++;
    req.tenant = kTenant;
    req.op = OpType::kGet;
    req.key = key;
    req.track_outcome = true;
    sim.InjectRequest(req);
    sim.RunTicks(3);
    auto outcome = sim.TakeOutcome(req.req_id);
    if (!outcome.has_value() || !outcome->status.ok() ||
        outcome->value != value) {
      r.lost_acked_writes++;
    }
  }
  return r;
}

}  // namespace bench
}  // namespace abase

int main() {
  abase::bench::PrintHeader(
      "Closed-loop autoscaling: predictive vs reactive, and online split "
      "cutover");

  std::printf("\n%12s %18s %10s %12s %12s\n", "mode", "first_scale_tick",
              "scale_ups", "throttled", "final_quota");
  abase::bench::AblationResult predictive =
      abase::bench::RunAblation(abase::sim::AutoscaleMode::kPredictive);
  abase::bench::AblationResult reactive =
      abase::bench::RunAblation(abase::sim::AutoscaleMode::kReactive);
  std::printf("%12s %18llu %10llu %12llu %12.0f\n", "predictive",
              (unsigned long long)predictive.first_scale_up_tick,
              (unsigned long long)predictive.scale_ups,
              (unsigned long long)predictive.throttled,
              predictive.final_quota);
  std::printf("%12s %18llu %10llu %12llu %12.0f\n", "reactive",
              (unsigned long long)reactive.first_scale_up_tick,
              (unsigned long long)reactive.scale_ups,
              (unsigned long long)reactive.throttled, reactive.final_quota);

  const bool predictive_throttles_less =
      predictive.throttled < reactive.throttled && reactive.throttled > 0;
  std::printf("predictive throttles less than reactive: %s\n",
              predictive_throttles_less ? "yes" : "NO (regression)");

  abase::bench::SplitResult split = abase::bench::RunSplitCutover();
  std::printf("\nonline split: cutover@tick %llu, complete@tick %llu, "
              "partitions 4 -> %zu\n",
              (unsigned long long)split.cutover_tick,
              (unsigned long long)split.complete_tick,
              split.partitions_after);
  std::printf("acked writes %llu, lost %llu, failed reads during split "
              "%llu\n",
              (unsigned long long)split.acked_writes,
              (unsigned long long)split.lost_acked_writes,
              (unsigned long long)split.reads_failed_during);
  const bool split_lossless = split.cutover_tick > 0 &&
                              split.complete_tick > 0 &&
                              split.acked_writes > 0 &&
                              split.lost_acked_writes == 0 &&
                              split.reads_failed_during == 0;
  std::printf("split cutover loses zero acked writes: %s\n",
              split_lossless ? "yes" : "NO (regression)");

  FILE* f = std::fopen("BENCH_autoscale.json", "w");
  if (f != nullptr) {
    std::fprintf(
        f,
        "{\"bench\":\"autoscale\","
        "\"predictive_throttles_less\":%s,\"split_lossless\":%s,"
        "\"ablation\":{"
        "\"predictive\":{\"first_scale_up_tick\":%llu,\"scale_ups\":%llu,"
        "\"throttled\":%llu,\"ok\":%llu,\"final_quota\":%.1f},"
        "\"reactive\":{\"first_scale_up_tick\":%llu,\"scale_ups\":%llu,"
        "\"throttled\":%llu,\"ok\":%llu,\"final_quota\":%.1f}},"
        "\"split\":{\"cutover_tick\":%llu,\"complete_tick\":%llu,"
        "\"partitions_after\":%zu,\"acked_writes\":%llu,"
        "\"lost_acked_writes\":%llu,\"reads_failed_during\":%llu}}\n",
        predictive_throttles_less ? "true" : "false",
        split_lossless ? "true" : "false",
        (unsigned long long)predictive.first_scale_up_tick,
        (unsigned long long)predictive.scale_ups,
        (unsigned long long)predictive.throttled,
        (unsigned long long)predictive.ok, predictive.final_quota,
        (unsigned long long)reactive.first_scale_up_tick,
        (unsigned long long)reactive.scale_ups,
        (unsigned long long)reactive.throttled,
        (unsigned long long)reactive.ok, reactive.final_quota,
        (unsigned long long)split.cutover_tick,
        (unsigned long long)split.complete_tick, split.partitions_after,
        (unsigned long long)split.acked_writes,
        (unsigned long long)split.lost_acked_writes,
        (unsigned long long)split.reads_failed_during);
    std::fclose(f);
    std::printf("\nwrote BENCH_autoscale.json\n");
  }
  return predictive_throttles_less && split_lossless ? 0 : 1;
}
