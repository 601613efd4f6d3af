// Golden-digest bit-identity tests for the batched data plane.
//
// Each scenario below (async client fleet, mid-run failover, mid-run
// online split) is run at 1, 2, and 4 data-plane workers and reduced to
// a single FNV-1a fingerprint of everything externally observable:
// per-tenant metric histories (bit-exact doubles included) and, for the
// async scenario, the full reply stream. The fingerprints are compared
// against constants recorded from the pre-batching seed pipeline, so
// this test pins two properties at once:
//
//   1. the struct-of-arrays / arena / morsel rewrite is *behavior
//      identical* to the request-at-a-time pipeline it replaced, and
//   2. worker count remains invisible (the determinism contract).
//
// To re-record after an intentional behavior change, run with
// GOLDEN_RECORD=1 in the environment; the test prints the new digests
// instead of asserting, and the constants below should be updated.
//
// The active-set and scan-workload constants were recorded on the
// simulator's former dense tick walk, which visited every registered
// tenant each tick. The active-set walk, which visits only tenants with
// live work, must reproduce them bit for bit: these constants are the
// oracle for every sparse walk.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/abase.h"
#include "sim/cluster_sim.h"
#include "sim/workload.h"

namespace abase {
namespace {

// ------------------------------------------------------------------ Digest --

class Digest {
 public:
  void U64(uint64_t v) {
    for (int i = 0; i < 8; i++) {
      h_ ^= (v >> (8 * i)) & 0xff;
      h_ *= 0x100000001b3ull;
    }
  }
  void F64(double v) {
    uint64_t bits;
    static_assert(sizeof(bits) == sizeof(v), "double must be 64-bit");
    std::memcpy(&bits, &v, sizeof(bits));
    U64(bits);
  }
  void Str(const std::string& s) {
    for (unsigned char c : s) {
      h_ ^= c;
      h_ *= 0x100000001b3ull;
    }
    U64(s.size());
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0xcbf29ce484222325ull;  // FNV-1a 64 offset basis.
};

void FoldHistory(Digest& d, const std::vector<sim::TenantTickMetrics>& h) {
  d.U64(h.size());
  for (const auto& m : h) {
    d.U64(m.issued);
    d.U64(m.ok);
    d.U64(m.errors);
    d.U64(m.throttled);
    d.U64(m.unavailable);
    d.U64(m.redirects);
    d.U64(m.replica_reads);
    d.U64(m.replica_lag_sum);
    d.U64(m.proxy_hits);
    d.U64(m.node_cache_hits);
    d.U64(m.disk_reads);
    d.U64(m.reads_completed);
    d.F64(m.ru_charged);
    d.F64(m.latency_sum);
    d.F64(m.latency_max);
    d.U64(m.latency_count);
  }
}

meta::TenantConfig GoldenTenant(TenantId id, double quota,
                                uint32_t partitions = 4) {
  meta::TenantConfig c;
  c.id = id;
  c.name = "t" + std::to_string(id);
  c.tenant_quota_ru = quota;
  c.num_partitions = partitions;
  c.num_proxies = 2;
  c.num_proxy_groups = 1;
  return c;
}

// ------------------------------------------------- Scenario: async clients --

/// 64 closed-loop async clients at pipeline depth 16 (the
/// pipeline_test fleet scenario); digest covers every reply plus the
/// tenant's metric history.
uint64_t RunAsyncClientDigest(int workers) {
  ClusterOptions copts;
  copts.sim.seed = 2025;
  copts.sim.data_plane_workers = workers;
  Cluster cluster(copts);
  PoolId pool = cluster.CreatePool(8);
  meta::TenantConfig cfg = GoldenTenant(1, /*quota=*/500000);
  cfg.num_proxies = 8;
  cfg.num_proxy_groups = 2;
  EXPECT_TRUE(cluster.CreateTenant(cfg, pool).ok());
  cluster.sim().PreloadKeys(1, /*num_keys=*/512, /*value_bytes=*/128);

  constexpr int kClients = 64;
  constexpr int kDepth = 16;
  std::vector<Client> clients;
  for (int c = 0; c < kClients; c++) clients.push_back(cluster.OpenClient(1));

  struct Slot {
    int seq = 0;
    Future<Reply> future;
  };
  std::vector<std::vector<Slot>> outstanding(kClients);
  std::vector<int> next_seq(kClients, 0);
  auto submit_one = [&](int c) {
    int seq = next_seq[c]++;
    std::string key = "t1:k" + std::to_string((c * 17 + seq * 5) % 512);
    Command cmd = (seq % 7 == 3)
                      ? Command::Set(std::move(key),
                                     "w" + std::to_string(c) + ":" +
                                         std::to_string(seq))
                      : Command::Get(std::move(key));
    outstanding[c].push_back({seq, clients[c].Submit(std::move(cmd))});
  };
  for (int c = 0; c < kClients; c++) {
    for (int d = 0; d < kDepth; d++) submit_one(c);
  }

  Digest digest;
  auto harvest = [&](bool refill) {
    for (int c = 0; c < kClients; c++) {
      auto& slots = outstanding[c];
      for (size_t i = 0; i < slots.size();) {
        if (slots[i].future.ready()) {
          const Reply& r = slots[i].future.value();
          digest.U64(static_cast<uint64_t>(c));
          digest.U64(static_cast<uint64_t>(slots[i].seq));
          digest.U64(static_cast<uint64_t>(r.status.code()));
          digest.Str(r.value);
          digest.U64(r.completed_at);
          slots.erase(slots.begin() + static_cast<long>(i));
          if (refill) submit_one(c);
        } else {
          i++;
        }
      }
    }
  };
  for (int tick = 0; tick < 25; tick++) {
    cluster.Step();
    harvest(/*refill=*/true);
  }
  cluster.Drain();
  harvest(/*refill=*/false);
  EXPECT_EQ(cluster.PendingCommands(), 0u);
  FoldHistory(digest, cluster.sim().History(1));
  return digest.value();
}

// ------------------------------------------------------ Scenario: failover --

/// The failover_test determinism scenario: 8 tenants on 16 nodes with a
/// primary failing at tick 6 and recovering (2 catch-up ticks) at 13.
uint64_t RunFailoverDigest(int workers) {
  sim::SimOptions opt;
  opt.seed = 4321;
  opt.data_plane_workers = workers;
  sim::ClusterSim sim(opt);
  PoolId pool = sim.AddPool(16);

  constexpr TenantId kTenants = 8;
  for (TenantId t = 1; t <= kTenants; t++) {
    meta::TenantConfig c = GoldenTenant(t, 20000 + 1000.0 * t);
    c.replicas = 3;
    EXPECT_TRUE(sim.AddTenant(c, pool).ok());
    sim.PreloadKeys(t, /*num_keys=*/200, /*value_bytes=*/256);

    sim::WorkloadProfile profile;
    profile.base_qps = 150 + 30.0 * t;
    profile.read_ratio = (t % 2 == 0) ? 0.95 : 0.6;
    profile.hash_op_fraction = (t % 3 == 0) ? 0.3 : 0.0;
    profile.num_keys = 200;
    profile.key_dist =
        (t % 2 == 0) ? sim::KeyDist::kZipfian : sim::KeyDist::kHotSpot;
    profile.value_bytes = 256;
    profile.eventual_read_fraction = (t % 2 == 0) ? 0.4 : 0.0;
    sim.SetWorkload(t, profile);
  }

  const NodeId victim = sim.meta().PrimaryFor(1, 0);
  for (size_t tick = 0; tick < 24; tick++) {
    if (tick == 6) sim.FailNode(victim);
    if (tick == 13) sim.RecoverNode(victim, 2);
    sim.Tick();
  }

  Digest digest;
  for (TenantId t = 1; t <= kTenants; t++) {
    FoldHistory(digest, sim.History(t));
  }
  return digest.value();
}

// -------------------------------------------- Scenario: mid-run split --

/// The control_loop_test split scenario: an online partition split
/// (4 -> 8) streaming at 8 KiB/tick under live traffic.
uint64_t RunMidRunSplitDigest(int workers) {
  sim::SimOptions opt;
  opt.seed = 4242;
  opt.data_plane_workers = workers;
  opt.split_bytes_per_tick = 8 << 10;
  sim::ClusterSim sim(opt);
  PoolId pool = sim.AddPool(8);
  EXPECT_TRUE(sim.AddTenant(GoldenTenant(1, 100000), pool).ok());
  sim.PreloadKeys(1, 400, 128);
  sim::WorkloadProfile profile;
  profile.base_qps = 250;
  profile.read_ratio = 0.7;
  profile.num_keys = 400;
  profile.value_bytes = 128;
  profile.eventual_read_fraction = 0.3;
  sim.SetWorkload(1, profile);

  sim.RunTicks(5);
  EXPECT_TRUE(sim.StartPartitionSplit(1).ok());
  sim.RunTicks(45);
  EXPECT_EQ(sim.SplitCutovers(), 1u);
  EXPECT_EQ(sim.SplitsCompleted(), 1u);

  Digest digest;
  FoldHistory(digest, sim.History(1));
  digest.U64(sim.meta().GetTenant(1)->partitions.size());
  return digest.value();
}

// ------------------------------------------- Scenario: background resched --

/// Background rescheduling over two pools. The active pool holds one
/// single-replica tenant under heavy zipf skew (a real RU imbalance, so
/// migrations fire). The parked pool holds idle tenants that nothing
/// touches until a direct engine write lands mid-run in the last one,
/// whose tiny quota placed all its partitions on one node: a storage
/// imbalance only that write creates, so parked-pool migrations fire
/// only if the planner sees it. A parked node then fails and recovers.
/// The digest covers the migration ledger and the final placement of
/// every tenant.
uint64_t RunReschedDigest(int workers) {
  sim::SimOptions opt;
  opt.seed = 777;
  opt.data_plane_workers = workers;
  opt.resched_interval_ticks = 4;
  opt.migration_bytes_per_tick = 64 << 10;
  opt.node.ru_capacity = 500;
  opt.node.storage_capacity = 4ull << 20;
  sim::ClusterSim sim(opt);
  const PoolId active = sim.AddPool(6);
  const PoolId parked = sim.AddPool(6);

  meta::TenantConfig hot = GoldenTenant(1, 20000, /*partitions=*/16);
  hot.replicas = 1;
  EXPECT_TRUE(sim.AddTenant(hot, active).ok());
  sim.PreloadKeys(1, 600, 512);
  sim::WorkloadProfile profile;
  profile.base_qps = 600;
  profile.read_ratio = 0.3;
  profile.num_keys = 600;
  profile.value_bytes = 512;
  profile.zipf_theta = 0.99;
  sim.SetWorkload(1, profile);

  constexpr TenantId kLastTenant = 42;
  for (TenantId t = 2; t < kLastTenant; t++) {
    meta::TenantConfig c = GoldenTenant(t, 400, /*partitions=*/2);
    c.replicas = 2;
    EXPECT_TRUE(sim.AddTenant(c, parked).ok());
  }
  meta::TenantConfig tiny = GoldenTenant(kLastTenant, 8, /*partitions=*/8);
  tiny.replicas = 1;
  EXPECT_TRUE(sim.AddTenant(tiny, parked).ok());

  const NodeId parked_victim = sim.meta().PrimaryFor(9, 1);
  for (size_t tick = 0; tick < 60; tick++) {
    if (tick == 18) sim.PreloadKeys(kLastTenant, 1500, 1024);
    if (tick == 33) sim.FailNode(parked_victim);
    if (tick == 41) sim.RecoverNode(parked_victim, 2);
    sim.Tick();
  }

  Digest digest;
  FoldHistory(digest, sim.History(1));
  FoldHistory(digest, sim.History(kLastTenant));
  const auto& stats = sim.migration_stats();
  digest.U64(stats.planned);
  digest.U64(stats.applied);
  digest.U64(stats.skipped);
  for (TenantId t = 1; t <= kLastTenant; t++) {
    for (const meta::PartitionPlacement& p :
         sim.meta().GetTenant(t)->partitions) {
      digest.U64(p.replicas.size());
      for (NodeId n : p.replicas) digest.U64(n);
    }
  }
  for (const auto& n : sim.nodes()) digest.U64(n->StoredBytes());
  return digest.value();
}

// ------------------------------------- Scenario: gray failure (timed path) --

/// Extended fold for the timed Settle path: the 16 seed fields plus the
/// latency-subsystem counters and the per-tick percentile doubles
/// (bit-exact). Only the timed scenario uses this — the three seed
/// scenarios keep the original fold and constants.
void FoldHistoryTimed(Digest& d,
                      const std::vector<sim::TenantTickMetrics>& h) {
  FoldHistory(d, h);
  for (const auto& m : h) {
    d.U64(m.hedged_reads);
    d.U64(m.hedge_wins);
    d.U64(m.slo_violations);
    d.F64(m.latency_p50);
    d.F64(m.latency_p95);
    d.F64(m.latency_p99);
  }
}

/// The full latency subsystem live — sampled lognormal service times,
/// cross-AZ RTT, hedged eventual reads, gray detection with routing
/// demotion — while node 3 turns 8x slow mid-run and recovers. Delivery
/// order, hedge decisions, and the gray flag must all be bit-identical
/// across worker counts.
uint64_t RunGrayFailureDigest(int workers) {
  sim::SimOptions opt;
  opt.seed = 777;
  opt.data_plane_workers = workers;
  opt.node.service_time.enabled = true;
  opt.node.service_time.dist = latency::DistKind::kLognormal;
  opt.node.service_time.mean_micros = 150;
  opt.node.service_time.sigma = 1.2;
  opt.latency.enabled = true;
  opt.latency.hedge.enabled = true;
  opt.latency.hedge.min_observations = 32;
  opt.latency.gray.enabled = true;
  opt.latency.gray.min_samples = 2;
  opt.latency.slo_target_micros = 3000;
  sim::ClusterSim sim(opt);
  PoolId pool = sim.AddPool(6);

  constexpr TenantId kTenants = 3;
  for (TenantId t = 1; t <= kTenants; t++) {
    meta::TenantConfig c = GoldenTenant(t, 80000 + 5000.0 * t);
    c.replicas = 3;
    EXPECT_TRUE(sim.AddTenant(c, pool).ok());
    sim.SetProxyCacheEnabled(t, false);
    sim.PreloadKeys(t, /*num_keys=*/300, /*value_bytes=*/256);

    sim::WorkloadProfile profile;
    profile.base_qps = 150 + 40.0 * t;
    profile.read_ratio = 0.9;
    profile.eventual_read_fraction = 0.8;
    profile.num_keys = 300;
    profile.value_bytes = 256;
    sim.SetWorkload(t, profile);
  }

  for (size_t tick = 0; tick < 30; tick++) {
    if (tick == 8) sim.DegradeNode(3, 8.0);
    if (tick == 20) sim.DegradeNode(3, 1.0);
    sim.Tick();
  }

  Digest digest;
  for (TenantId t = 1; t <= kTenants; t++) {
    FoldHistoryTimed(digest, sim.History(t));
  }
  digest.U64(sim.GrayNodeCount());
  digest.U64(sim.IsNodeGray(3) ? 1 : 0);
  return digest.value();
}

// ------------------------------------------- Scenario: active-set walks --

/// Stresses every active-set walk: parked
/// generators on zero rate-schedule cells (wheel wake-ups), flat-idle
/// tenants, mid-run workload mutation (unpark hook), a failover (epoch-
/// triggered replication rebuild), the control loop with sparse usage
/// folds, sparse MetaServer traffic reports with clamped tenants, the
/// timed Settle path (hedge-threshold set), and abandoned tracked
/// outcomes expiring through the wheel. The digest covers every tenant's
/// full (backfilled) history, the usage/quota roll-ups, and the outcome
/// table size.
uint64_t RunActiveSetDigest(int workers) {
  sim::SimOptions opt;
  opt.seed = 9091;
  opt.data_plane_workers = workers;
  opt.meta_report_interval_ticks = 3;
  opt.outcome_ttl_ticks = 4;
  opt.control_interval_ticks = 5;
  opt.control_ticks_per_hour = 10;
  opt.replication_lag_ticks = 1;
  opt.node.service_time.enabled = true;
  opt.node.service_time.dist = latency::DistKind::kLognormal;
  opt.node.service_time.mean_micros = 120;
  opt.node.service_time.sigma = 1.0;
  opt.latency.enabled = true;
  opt.latency.hedge.enabled = true;
  opt.latency.hedge.min_observations = 32;
  opt.latency.slo_target_micros = 2500;
  sim::ClusterSim sim(opt);
  PoolId pool = sim.AddPool(10);

  constexpr TenantId kTenants = 9;
  for (TenantId t = 1; t <= kTenants; t++) {
    meta::TenantConfig c = GoldenTenant(t, 30000 + 2000.0 * t,
                                        /*partitions=*/2);
    c.replicas = (t % 2 == 0) ? 3 : 1;
    EXPECT_TRUE(sim.AddTenant(c, pool).ok());
    sim.PreloadKeys(t, /*num_keys=*/150, /*value_bytes=*/128);

    sim::WorkloadProfile p;
    p.read_ratio = 0.8;
    p.num_keys = 150;
    p.value_bytes = 128;
    p.eventual_read_fraction = (t % 2 == 0) ? 0.5 : 0.0;
    if (t % 3 == 0) {
      // Bursty: zero cells park the generator between wheel wake-ups.
      p.base_qps = 0;
      p.rate_schedule = TimeSeries({0.0, 180.0 + 10.0 * t, 0.0, 90.0});
      p.rate_schedule_step = 4 * opt.tick;
    } else if (t % 3 == 1) {
      p.base_qps = 120 + 25.0 * t;  // Steady.
    } else {
      p.base_qps = 0;  // Idle until scripted otherwise.
    }
    sim.SetWorkload(t, p);
    if (t <= 2) {
      sim.EnableAutoscale(t, sim::AutoscaleMode::kReactive);
    }
  }

  const NodeId victim = sim.meta().PrimaryFor(4, 0);
  for (uint64_t tick = 0; tick < 40; tick++) {
    if (tick < 6) {
      // Tracked but never collected: expires through the outcome wheel.
      ClientRequest get;
      get.req_id = 500000 + tick;
      get.tenant = 1;
      get.op = OpType::kGet;
      get.key = "t1:k" + std::to_string(tick);
      get.track_outcome = true;
      sim.InjectRequest(get);
    }
    if (tick == 10) sim.FailNode(victim);
    if (tick == 18) sim.RecoverNode(victim, 2);
    if (tick == 14) sim.MutableWorkload(5)->base_qps = 140;  // Unpark.
    if (tick == 24) sim.MutableWorkload(7)->base_qps = 0;    // Park.
    sim.Tick();
  }

  Digest digest;
  for (TenantId t = 1; t <= kTenants; t++) {
    FoldHistoryTimed(digest, sim.History(t));
    if (const TimeSeries* usage = sim.UsageHistory(t)) {
      digest.U64(usage->size());
      for (double v : usage->values()) digest.F64(v);
    }
    digest.F64(sim.SloBurnRate(t, 16));
  }
  digest.U64(sim.TrackedOutcomeCount());
  digest.U64(sim.InflightCount());
  return digest.value();
}

// ----------------------------------------- Scenario: scan workload --

/// Range-scan data path under churn: two scan-heavy tenants (one with
/// grouped scan locality, one scanning its whole preloaded keyspace), a
/// mid-run online split with prefix-subtree cutover invalidation, and a
/// client submitting cross-partition ScanPrefix commands whose merged
/// framed payloads are folded byte-for-byte into the digest. Pins the
/// fan-out/merge path: leg routing, key-ordered dedup merge, RU
/// settlement and the scan cache must be invisible to worker count.
uint64_t RunScanWorkloadDigest(int workers) {
  ClusterOptions copts;
  copts.sim.seed = 6161;
  copts.sim.data_plane_workers = workers;
  copts.sim.split_bytes_per_tick = 8 << 10;
  copts.sim.split_invalidation = sim::ProxyInvalidationMode::kPrefixSubtree;
  Cluster cluster(copts);
  PoolId pool = cluster.CreatePool(8);

  // Tenant 1: grouped scan locality. Grouped keys ("t1:g<G>:k<I>") do
  // not match PreloadKeys naming, so its keyspace fills from the
  // workload's own writes — scans see a growing key population.
  EXPECT_TRUE(cluster.CreateTenant(GoldenTenant(1, 120000), pool).ok());
  sim::WorkloadProfile p1;
  p1.base_qps = 220;
  p1.read_ratio = 0.6;
  p1.num_keys = 240;
  p1.value_bytes = 128;
  p1.scan_fraction = 0.3;
  p1.scan_limit = 20;
  p1.scan_prefix_groups = 8;
  cluster.AttachWorkload(1, p1);

  // Tenant 2: tenant-wide scans over a preloaded keyspace.
  EXPECT_TRUE(cluster.CreateTenant(GoldenTenant(2, 90000), pool).ok());
  cluster.sim().PreloadKeys(2, /*num_keys=*/200, /*value_bytes=*/128);
  sim::WorkloadProfile p2;
  p2.base_qps = 150;
  p2.read_ratio = 0.9;
  p2.num_keys = 200;
  p2.value_bytes = 128;
  p2.scan_fraction = 0.2;
  p2.scan_limit = 15;
  cluster.AttachWorkload(2, p2);

  Client client = cluster.OpenClient(2);
  std::vector<Future<Reply>> scans;
  for (uint64_t tick = 0; tick < 40; tick++) {
    if (tick == 5) {
      EXPECT_TRUE(cluster.sim().StartPartitionSplit(1).ok());
    }
    if (tick % 6 == 2) {
      scans.push_back(client.Submit(Command::ScanPrefix(
          "t2:", static_cast<uint32_t>(10 + (tick / 6) % 3 * 5))));
    }
    cluster.Step();
  }
  cluster.Drain();
  EXPECT_EQ(cluster.sim().SplitCutovers(), 1u);

  Digest digest;
  for (auto& f : scans) {
    EXPECT_TRUE(f.ready());
    if (!f.ready()) continue;
    const Reply& r = f.value();
    digest.U64(static_cast<uint64_t>(r.status.code()));
    digest.Str(r.value);  // The merged framed payload, byte-for-byte.
    digest.U64(r.completed_at);
  }
  FoldHistory(digest, cluster.sim().History(1));
  FoldHistory(digest, cluster.sim().History(2));
  digest.U64(cluster.sim().meta().GetTenant(1)->partitions.size());
  return digest.value();
}

// ------------------------------------ Scenario: predictive autoscaling --

/// The predictive control loop (Algorithm 1 over the Section 5.2
/// forecaster). Three tenants carry seeded 30-day diurnal histories at
/// quotas that scale up (and split), scale down, and hold; a fourth has
/// an aperiodic history, so ProphetLite detects the period of its own
/// holdout fit; a fifth has a level shift, so the forecaster truncates
/// at the change point and forecasts over a shorter series. Every
/// control round folds each tenant's quota, partition count and
/// scale-up/scale-down/split counters into the digest.
uint64_t RunPredictiveDigest(int workers) {
  sim::SimOptions opt;
  opt.seed = 5150;
  opt.data_plane_workers = workers;
  opt.control_interval_ticks = 3;
  opt.control_ticks_per_hour = 3;  // One control round per hour.
  sim::ClusterSim sim(opt);
  PoolId pool = sim.AddPool(8);

  struct PredictiveTenant {
    double quota;
    double base_qps;
    sim::SeriesSpec past;
  };
  std::vector<PredictiveTenant> specs(5);
  for (size_t i = 0; i < 3; i++) {
    specs[i].past.base = 25;
    specs[i].past.seasons.push_back({24, 15});
    specs[i].past.noise_sigma = 2;
  }
  specs[0].quota = 40;  // Forecast peak above the band: scale up, split.
  specs[1].quota = 200;  // Far below the band: scale down.
  specs[2].quota = 55;  // Inside the band.
  specs[3].quota = 80;  // Aperiodic: noise only.
  specs[3].past.base = 60;
  specs[3].past.noise_sigma = 15;
  specs[4].quota = 50;  // Level shift at hour 540.
  specs[4].past.base = 20;
  specs[4].past.seasons.push_back({24, 8});
  specs[4].past.noise_sigma = 2;
  specs[4].past.level_shift_at_hour = 540;
  specs[4].past.level_shift_factor = 2.5;

  const TenantId kTenants = static_cast<TenantId>(specs.size());
  for (TenantId t = 1; t <= kTenants; t++) {
    const PredictiveTenant& spec = specs[t - 1];
    meta::TenantConfig c = GoldenTenant(t, spec.quota, /*partitions=*/2);
    c.partition_quota_upper = 25;
    c.partition_quota_lower = 5;
    EXPECT_TRUE(sim.AddTenant(c, pool).ok());
    sim.PreloadKeys(t, /*num_keys=*/100, /*value_bytes=*/64);
    sim::WorkloadProfile p;
    p.base_qps = 10 + 4.0 * t;
    p.read_ratio = 0.8;
    p.num_keys = 100;
    p.value_bytes = 64;
    sim.SetWorkload(t, p);
    Rng rng(opt.seed * 1000003ull + t);
    sim.SeedUsageHistory(t, sim::GenerateSeries(spec.past, rng));
    sim.EnableAutoscale(t, sim::AutoscaleMode::kPredictive);
  }

  Digest digest;
  for (int tick = 1; tick <= 45; tick++) {
    sim.Tick();
    if (tick % opt.control_interval_ticks != 0) continue;
    for (TenantId t = 1; t <= kTenants; t++) {
      const meta::TenantMeta* tm = sim.meta().GetTenant(t);
      const sim::TenantRuntime* rt = sim.Tenant(t);
      digest.F64(tm->tenant_quota_ru);
      digest.U64(tm->partitions.size());
      digest.U64(rt->scale_ups);
      digest.U64(rt->scale_downs);
      digest.U64(rt->splits_started);
    }
  }
  for (TenantId t = 1; t <= kTenants; t++) FoldHistory(digest, sim.History(t));
  return digest.value();
}

// ------------------------------------------------------------- The goldens --

// Recorded from the seed (request-at-a-time) pipeline at commit
// "Re-anchor ROADMAP" with GOLDEN_RECORD=1; every worker count must
// reproduce these exact fingerprints.
constexpr uint64_t kGoldenAsyncClient = 0xd86fcf506bbc0669ull;
constexpr uint64_t kGoldenFailover = 0x8a9f3490bacda12bull;
constexpr uint64_t kGoldenMidRunSplit = 0x50735ee6c2fe2b3cull;
// Recorded when the sub-tick latency subsystem landed (timed Settle
// path, extended fold): the seed pipeline never ran this scenario.
constexpr uint64_t kGoldenGrayFailure = 0xdc64bf5c63d5da41ull;
// Recorded before the rescheduling plan memo landed: every pool was
// re-planned from a fresh model each round.
constexpr uint64_t kGoldenResched = 0x980f166593a288c3ull;
// Recorded on the dense tick walk (every tenant visited every tick)
// before it was deleted; the active-set walk must reproduce them.
constexpr uint64_t kGoldenActiveSet = 0x90c855d89e9286d3ull;
constexpr uint64_t kGoldenScanWorkload = 0x0e83915a51e5135bull;
// Recorded on the direct-DFT periodogram and the per-point nth_element
// denoise window, before the twiddle-table cache and the sliding sorted
// window replaced them.
constexpr uint64_t kGoldenPredictive = 0xa52b922c4d0772abull;

bool Recording() { return std::getenv("GOLDEN_RECORD") != nullptr; }

void CheckScenario(const char* name, uint64_t (*run)(int), uint64_t golden) {
  for (int workers : {1, 2, 4}) {
    uint64_t got = run(workers);
    if (Recording()) {
      printf("GOLDEN %s workers=%d digest=0x%016llx\n", name, workers,
             static_cast<unsigned long long>(got));
      continue;
    }
    EXPECT_EQ(got, golden) << name << " at " << workers << " workers";
  }
}

TEST(GoldenDigestTest, AsyncClientFleetMatchesSeedPipeline) {
  CheckScenario("async_client", &RunAsyncClientDigest, kGoldenAsyncClient);
}

TEST(GoldenDigestTest, MidRunFailoverMatchesSeedPipeline) {
  CheckScenario("failover", &RunFailoverDigest, kGoldenFailover);
}

TEST(GoldenDigestTest, MidRunSplitMatchesSeedPipeline) {
  CheckScenario("mid_run_split", &RunMidRunSplitDigest, kGoldenMidRunSplit);
}

TEST(GoldenDigestTest, GrayFailureTimedSettleIsWorkerCountInvariant) {
  CheckScenario("gray_failure", &RunGrayFailureDigest, kGoldenGrayFailure);
}

TEST(GoldenDigestTest, BackgroundReschedulingMatchesUnmemoizedPlanner) {
  CheckScenario("resched", &RunReschedDigest, kGoldenResched);
}

TEST(GoldenDigestTest, ActiveSetTickingMatchesDenseRecording) {
  CheckScenario("active_set", &RunActiveSetDigest, kGoldenActiveSet);
}

TEST(GoldenDigestTest, ScanWorkloadMatchesDenseRecording) {
  CheckScenario("scan_workload", &RunScanWorkloadDigest, kGoldenScanWorkload);
}

TEST(GoldenDigestTest, PredictiveAutoscalingMatchesDirectForecaster) {
  CheckScenario("predictive", &RunPredictiveDigest, kGoldenPredictive);
}

}  // namespace
}  // namespace abase
