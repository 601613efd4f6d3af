// Cluster-level integration tests: failure recovery under traffic, live
// autoscaling with partition split, rescheduling under load, hot-key
// absorption, and cross-tenant isolation invariants.
#include <gtest/gtest.h>

#include "core/abase.h"
#include "resched/rescheduler.h"
#include "sim/cluster_sim.h"

namespace abase {
namespace {

meta::TenantConfig Tenant(TenantId id, double quota = 50000,
                          uint32_t partitions = 4, int replicas = 3) {
  meta::TenantConfig c;
  c.id = id;
  c.name = "it-tenant" + std::to_string(id);
  c.tenant_quota_ru = quota;
  c.num_partitions = partitions;
  c.num_proxies = 4;
  c.num_proxy_groups = 2;
  c.replicas = replicas;
  return c;
}

TEST(IntegrationTest, NodeFailureRecoversAndServiceContinues) {
  sim::ClusterSim cluster;
  PoolId pool = cluster.AddPool(6);
  ASSERT_TRUE(cluster.AddTenant(Tenant(1), pool).ok());
  sim::WorkloadProfile p;
  p.base_qps = 800;
  p.read_ratio = 0.5;
  p.num_keys = 2000;
  cluster.SetWorkload(1, p);
  cluster.RunTicks(10);

  // Kill the node hosting partition 0's primary for good: it never
  // recovers, so the Fault stage promotes the survivors and rebuilds
  // every replica it hosted elsewhere.
  NodeId victim = cluster.meta().PrimaryFor(1, 0);
  ASSERT_NE(victim, kInvalidNode);
  cluster.FailNode(victim);
  cluster.Tick();
  for (int i = 0; i < 64 && (!cluster.LastFailoverReport().has_value() ||
                             cluster.PendingRebuildCount() > 0);
       i++) {
    cluster.Tick();
  }
  const auto& report = cluster.LastFailoverReport();
  ASSERT_TRUE(report.has_value());
  EXPECT_GT(report->replicas_rebuilt, 0u);
  EXPECT_EQ(report->replicas_rebuilt_executed, report->replicas_rebuilt);
  for (const auto& placement : cluster.meta().GetTenant(1)->partitions) {
    for (NodeId nid : placement.replicas) EXPECT_NE(nid, victim);
  }

  // Traffic keeps flowing to the re-elected primaries.
  cluster.RunTicks(10);
  const auto& h = cluster.History(1);
  uint64_t ok_after = 0, issued_after = 0;
  for (size_t i = h.size() - 5; i < h.size(); i++) {
    ok_after += h[i].ok;
    issued_after += h[i].issued;
  }
  EXPECT_GT(issued_after, 0u);
  EXPECT_GT(static_cast<double>(ok_after) /
                static_cast<double>(issued_after),
            0.9);
}

TEST(IntegrationTest, LiveAutoscaleWithSplitKeepsServing) {
  Cluster cluster;
  PoolId pool = cluster.CreatePool(8);
  meta::TenantConfig cfg = Tenant(1, /*quota=*/8000, /*partitions=*/2);
  cfg.partition_quota_upper = 10000;  // Split when QP exceeds this.
  ASSERT_TRUE(cluster.CreateTenant(cfg, pool).ok());
  Client client = cluster.OpenClient(1);
  for (int i = 0; i < 40; i++) {
    ASSERT_TRUE(client.Set("pre-split:" + std::to_string(i),
                           "v" + std::to_string(i))
                    .ok());
  }

  // Grow the quota far enough to force repeated splits. Each call stages
  // one online split; re-apply after each cutover until QP <= UP.
  const meta::TenantMeta* t = cluster.meta().GetTenant(1);
  int rounds = 0;
  do {
    ASSERT_TRUE(cluster.sim().SetTenantQuota(1, 100000).ok());
    ASSERT_TRUE(cluster.sim().SplitInProgress(1)) << "round " << rounds;
    for (int tick = 0; tick < 200 && cluster.sim().SplitInProgress(1);
         tick++) {
      cluster.Step();
    }
    ASSERT_FALSE(cluster.sim().SplitInProgress(1)) << "round " << rounds;
    rounds++;
  } while (t->PartitionQuota() > cfg.partition_quota_upper && rounds < 8);
  EXPECT_EQ(t->partitions.size(), 16u);  // 100000/10000 -> >=10 -> 16.
  EXPECT_LE(t->PartitionQuota(), 10000.0);

  // The enlarged tenant still serves every pre-split key, and new
  // reads and writes.
  for (int i = 0; i < 40; i++) {
    auto got = client.Get("pre-split:" + std::to_string(i));
    ASSERT_TRUE(got.ok()) << i << ": " << got.status().ToString();
    EXPECT_EQ(got.value(), "v" + std::to_string(i));
  }
  for (int i = 0; i < 20; i++) {
    ASSERT_TRUE(
        client.Set("post-split:" + std::to_string(i), "v").ok());
  }
  for (int i = 0; i < 20; i++) {
    EXPECT_TRUE(client.Get("post-split:" + std::to_string(i)).ok()) << i;
  }
}

TEST(IntegrationTest, ReschedulingMovesLoadOffHotNodes) {
  sim::ClusterSim cluster;
  PoolId pool = cluster.AddPool(6);
  // Two heavy tenants and one light one.
  for (TenantId id = 1; id <= 3; id++) {
    ASSERT_TRUE(cluster.AddTenant(Tenant(id, 100000, 6), pool).ok());
    sim::WorkloadProfile p;
    p.base_qps = id == 3 ? 200 : 3000;
    p.read_ratio = 0.4;
    p.zipf_theta = 0.98;
    p.num_keys = 2000;
    cluster.SetWorkload(id, p);
  }
  cluster.RunTicks(12);

  resched::IntraPoolRescheduler rescheduler;
  size_t applied = 0;
  for (int round = 0; round < 5; round++) {
    resched::PoolModel model = cluster.BuildPoolModel(pool);
    for (const auto& outcome :
         cluster.ApplyMigrations(rescheduler.Run(&model))) {
      if (outcome.status.ok()) applied++;
    }
    cluster.RunTicks(5);
  }
  // Service must remain healthy through the migrations.
  for (TenantId id = 1; id <= 3; id++) {
    const auto& h = cluster.History(id);
    uint64_t ok = 0, issued = 0;
    for (size_t i = h.size() - 5; i < h.size(); i++) {
      ok += h[i].ok;
      issued += h[i].issued;
    }
    EXPECT_GT(static_cast<double>(ok) / std::max<uint64_t>(1, issued), 0.9)
        << "tenant " << id;
  }
}

TEST(IntegrationTest, HotKeySurgeAbsorbedByProxyLayer) {
  sim::ClusterSim cluster;
  PoolId pool = cluster.AddPool(3);
  ASSERT_TRUE(cluster.AddTenant(Tenant(1, 200000), pool).ok());
  sim::WorkloadProfile p;
  p.base_qps = 2000;
  p.read_ratio = 1.0;  // Pure serving traffic; the dataset pre-exists.
  p.num_keys = 10000;
  p.key_dist = sim::KeyDist::kHotSpot;
  p.hot_fraction = 0.0005;  // 5 hot keys.
  p.hot_share = 0.9;
  cluster.SetWorkload(1, p);
  cluster.PreloadKeys(1, 10000, 512);

  cluster.RunTicks(40);
  const auto& h = cluster.History(1);
  uint64_t proxy_hits = 0, reads = 0;
  for (size_t i = 20; i < h.size(); i++) {
    proxy_hits += h[i].proxy_hits;
    reads += h[i].proxy_hits + h[i].reads_completed;
  }
  // The proxy layer must absorb the bulk of the hot-key reads.
  EXPECT_GT(static_cast<double>(proxy_hits) / static_cast<double>(reads),
            0.5);
}

TEST(IntegrationTest, NoisyNeighborDoesNotDegradeVictims) {
  sim::SimOptions opts;
  opts.node.wfq.cpu_budget_ru = 20000;
  sim::ClusterSim cluster(opts);
  PoolId pool = cluster.AddPool(2);
  for (TenantId id = 1; id <= 2; id++) {
    meta::TenantConfig cfg = Tenant(id, 6000, 4, 2);
    ASSERT_TRUE(cluster.AddTenant(cfg, pool).ok());
    sim::WorkloadProfile p;
    p.base_qps = 1000;
    p.read_ratio = 0.9;
    p.num_keys = 3000;
    if (id == 1) {
      p.bursts.push_back(
          {20 * kMicrosPerSecond, 60 * kMicrosPerSecond, 40.0});
    }
    cluster.SetWorkload(id, p);
  }
  cluster.RunTicks(60);

  // Victim throughput and latency in the burst window stay healthy.
  const auto& h2 = cluster.History(2);
  uint64_t ok = 0;
  double lat_sum = 0, lat_n = 0;
  for (size_t i = 40; i < 60; i++) {
    ok += h2[i].ok;
    lat_sum += h2[i].latency_sum;
    lat_n += static_cast<double>(h2[i].latency_count);
  }
  EXPECT_GT(ok / 20.0, 900.0);                 // >= 90% of demand.
  EXPECT_LT(lat_sum / std::max(1.0, lat_n), 50000.0);  // Under 50 ms.
}

TEST(IntegrationTest, InterPoolRebalanceOnLiveModels) {
  // Donor pool nearly idle, receiver hot: the inter-pool rescheduler
  // hands a node over and both converge.
  resched::PoolModel donor, receiver;
  for (NodeId i = 0; i < 6; i++) {
    auto& n = donor.AddNode(i, 1000, 1e12);
    resched::ReplicaLoad r;
    r.tenant = 1;
    r.partition = i;
    r.ru = LoadVector::Constant(40);
    r.storage = LoadVector::Constant(1e8);
    n.AddReplica(r);
  }
  // Mixed replica sizes so the post-move packing can genuinely improve.
  double sizes[3] = {500, 250, 150};
  for (NodeId i = 10; i < 12; i++) {
    auto& n = receiver.AddNode(i, 1000, 1e12);
    for (int k = 0; k < 3; k++) {
      resched::ReplicaLoad r;
      r.tenant = 2;
      r.partition = i * 10 + static_cast<uint32_t>(k);
      r.ru = LoadVector::Constant(sizes[k]);
      r.storage = LoadVector::Constant(2e8);
      n.AddReplica(r);
    }
  }
  double before = receiver.MaxUtilization(resched::Resource::kRu);
  EXPECT_NEAR(before, 0.9, 1e-9);
  resched::InterPoolRescheduler inter;
  auto result = inter.Run(&donor, &receiver, 2);
  EXPECT_FALSE(result.reassigned_nodes.empty());
  EXPECT_LT(receiver.MaxUtilization(resched::Resource::kRu), 0.8);
  // No replica lost across the shuffle.
  EXPECT_EQ(donor.TotalReplicaCount() + receiver.TotalReplicaCount(), 12u);
}

TEST(IntegrationTest, MetaClampLoopEngagesUnderSustainedOverdrive) {
  sim::ClusterSim cluster;
  PoolId pool = cluster.AddPool(3);
  ASSERT_TRUE(cluster.AddTenant(Tenant(1, /*quota=*/3000), pool).ok());
  sim::WorkloadProfile p;
  p.base_qps = 20000;  // Far beyond quota.
  p.read_ratio = 0.2;
  p.num_keys = 100000;
  p.key_dist = sim::KeyDist::kUniform;
  cluster.SetWorkload(1, p);

  // The clamp is an asynchronous control loop: it engages when measured
  // traffic exceeds quota and releases as traffic subsides, so sample it
  // across the run rather than at one instant.
  bool ever_clamped = false;
  for (int t = 0; t < 30; t++) {
    cluster.Tick();
    ever_clamped = ever_clamped || cluster.meta().IsClamped(1);
  }
  EXPECT_TRUE(ever_clamped);
  // And sustained success stays in the ballpark of the tenant quota
  // (1 RU writes dominate; r=3 fan-out makes each ~3 RU).
  const auto& h = cluster.History(1);
  uint64_t ok = 0;
  for (size_t i = 20; i < 30; i++) ok += h[i].ok;
  EXPECT_LT(ok / 10.0, 6000.0);
}

}  // namespace
}  // namespace abase
