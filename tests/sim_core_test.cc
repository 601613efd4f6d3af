// End-to-end tests: workload generation, the cluster simulator, and the
// public abase::Cluster / abase::Client API.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <string_view>
#include <vector>

#include "core/abase.h"
#include "counting_allocator.h"
#include "sim/cluster_sim.h"
#include "sim/workload.h"

namespace abase {
namespace {

// --------------------------------------------------------------- Workload --

TEST(WorkloadGeneratorTest, QpsMatchesProfile) {
  sim::WorkloadProfile profile;
  profile.base_qps = 500;
  sim::WorkloadGenerator gen(1, profile, 42);
  uint64_t total = 0;
  for (int t = 0; t < 50; t++) {
    total += gen.Tick(t * kMicrosPerSecond, kMicrosPerSecond).size();
  }
  EXPECT_NEAR(static_cast<double>(total) / 50.0, 500, 25);
}

TEST(WorkloadGeneratorTest, ReadRatioRespected) {
  sim::WorkloadProfile profile;
  profile.base_qps = 2000;
  profile.read_ratio = 0.25;
  sim::WorkloadGenerator gen(1, profile, 42);
  auto reqs = gen.Tick(0, kMicrosPerSecond);
  int reads = 0;
  for (const auto& r : reqs) {
    if (IsReadOp(r.op)) reads++;
  }
  EXPECT_NEAR(static_cast<double>(reads) / reqs.size(), 0.25, 0.05);
}

TEST(WorkloadGeneratorTest, BurstMultiplierApplies) {
  sim::WorkloadProfile profile;
  profile.base_qps = 100;
  profile.bursts.push_back({10 * kMicrosPerSecond, 20 * kMicrosPerSecond,
                            5.0});
  sim::WorkloadGenerator gen(1, profile, 42);
  EXPECT_NEAR(gen.ExpectedQps(0), 100, 1e-9);
  EXPECT_NEAR(gen.ExpectedQps(15 * kMicrosPerSecond), 500, 1e-9);
  EXPECT_NEAR(gen.ExpectedQps(25 * kMicrosPerSecond), 100, 1e-9);
}

TEST(WorkloadGeneratorTest, DiurnalShape) {
  sim::WorkloadProfile profile;
  profile.base_qps = 100;
  profile.diurnal_amplitude = 0.5;
  sim::WorkloadGenerator gen(1, profile, 42);
  // Peak at 6h (sin peak of a 24h cycle), trough at 18h.
  EXPECT_NEAR(gen.ExpectedQps(6 * kMicrosPerHour), 150, 1.0);
  EXPECT_NEAR(gen.ExpectedQps(18 * kMicrosPerHour), 50, 1.0);
}

TEST(WorkloadGeneratorTest, HotSpotConcentratesTraffic) {
  sim::WorkloadProfile profile;
  profile.base_qps = 5000;
  profile.key_dist = sim::KeyDist::kHotSpot;
  profile.num_keys = 10000;
  profile.hot_fraction = 0.001;  // 10 hot keys.
  profile.hot_share = 0.9;
  sim::WorkloadGenerator gen(1, profile, 42);
  auto reqs = gen.Tick(0, kMicrosPerSecond);
  std::set<std::string> hot_keys;
  for (uint64_t i = 0; i < 10; i++) {
    hot_keys.insert("t1:k" + std::to_string(i));
  }
  int hot = 0;
  for (const auto& r : reqs) {
    if (hot_keys.count(r.key)) hot++;
  }
  EXPECT_NEAR(static_cast<double>(hot) / reqs.size(), 0.9, 0.05);
}

TEST(WorkloadGeneratorTest, HashOpsGenerated) {
  sim::WorkloadProfile profile;
  profile.base_qps = 2000;
  profile.hash_op_fraction = 1.0;
  sim::WorkloadGenerator gen(1, profile, 42);
  auto reqs = gen.Tick(0, kMicrosPerSecond);
  for (const auto& r : reqs) {
    EXPECT_TRUE(r.op == OpType::kHGet || r.op == OpType::kHGetAll ||
                r.op == OpType::kHLen || r.op == OpType::kHSet);
  }
}

// A generated write aliases a prefix of its generator's one immutable
// block of 'v' bytes: N writes cost the block's doublings, not N
// allocations. The sizes are the log-normal draws the per-request string
// fill made (figures recorded from that fill, same profile and seed).
TEST(WorkloadGeneratorTest, WritesAliasOneValueBlock) {
  sim::WorkloadProfile profile;
  profile.base_qps = 2000;
  profile.read_ratio = 0.5;
  profile.hash_op_fraction = 0.25;
  profile.value_bytes = 1024;
  sim::WorkloadGenerator gen(1, profile, 42);
  std::vector<ClientRequest> batch;
  batch.reserve(4096);  // Slot growth is not what this counts.

  uint64_t writes = 0;
  uint64_t bytes = 0;
  uint64_t fold = 14695981039346656037ull;  // FNV-1a over the sizes.
  size_t max_size = 0;
  std::vector<size_t> first;
  const char* block = nullptr;
  long blocks = 0;        // Distinct blocks the writes aliased.
  long later_blocks = 0;  // ... first seen after the first tick.
  long later_allocs = 0;
  for (int t = 0; t < 10; t++) {
    const long allocs = CountAllocs(
        [&] { gen.Tick(t * kMicrosPerSecond, kMicrosPerSecond, batch); });
    if (t > 0) later_allocs += allocs;
    for (const ClientRequest& r : batch) {
      if (IsReadOp(r.op)) {
        EXPECT_TRUE(r.value == nullptr);
        continue;
      }
      const std::string_view v = r.value.view();
      ASSERT_EQ(v.size(), r.value.size());
      ASSERT_EQ(v.find_first_not_of('v'), std::string_view::npos);
      // A prefix starts at its block's first byte, and a replaced block
      // is never aliased again, so a new start is a new block.
      if (v.data() != block) {
        block = v.data();
        blocks++;
        if (t > 0) later_blocks++;
      }
      writes++;
      bytes += v.size();
      fold = (fold ^ v.size()) * 1099511628211ull;
      max_size = std::max(max_size, v.size());
      if (first.size() < 8) first.push_back(v.size());
    }
  }
  EXPECT_EQ(writes, 10021u);
  EXPECT_EQ(bytes, 10743371u);
  EXPECT_EQ(fold, 3983460612057503810ull);
  EXPECT_EQ(max_size, 3195u);
  EXPECT_EQ(first,
            (std::vector<size_t>{1010, 869, 1088, 1393, 1089, 1283, 1037, 1971}));
  // After the first tick (which also builds the RNG engine and the Zipf
  // sampler) the only allocations are block replacements, and doubling
  // bounds those by log2 of the largest write.
  EXPECT_EQ(later_allocs, later_blocks);
  EXPECT_LE(blocks, 1 + static_cast<long>(std::ceil(std::log2(max_size))));
  // Once the requests are gone, the generator holds the only reference.
  batch.clear();
  EXPECT_EQ(gen.value_block().use_count(), 1);
}

// ------------------------------------------------------------- ClusterSim --

meta::TenantConfig SimTenant(TenantId id, double quota = 20000,
                             uint32_t partitions = 4) {
  meta::TenantConfig c;
  c.id = id;
  c.name = "t" + std::to_string(id);
  c.tenant_quota_ru = quota;
  c.num_partitions = partitions;
  c.num_proxies = 4;
  c.num_proxy_groups = 2;
  c.replicas = 3;
  return c;
}

TEST(ClusterSimTest, TrafficFlowsEndToEnd) {
  sim::ClusterSim cluster;
  PoolId pool = cluster.AddPool(4);
  ASSERT_TRUE(cluster.AddTenant(SimTenant(1), pool).ok());
  sim::WorkloadProfile profile;
  profile.base_qps = 500;
  profile.read_ratio = 0.5;
  profile.num_keys = 1000;
  cluster.SetWorkload(1, profile);

  cluster.RunTicks(20);
  const auto& history = cluster.History(1);
  ASSERT_EQ(history.size(), 20u);
  uint64_t ok = 0, issued = 0;
  for (const auto& tick : history) {
    ok += tick.ok;
    issued += tick.issued;
  }
  EXPECT_GT(issued, 8000u);
  // Under-quota traffic is nearly all served.
  EXPECT_GT(static_cast<double>(ok) / static_cast<double>(issued), 0.95);
}

TEST(ClusterSimTest, CacheHitRatioRisesOnSkewedReads) {
  sim::ClusterSim cluster;
  PoolId pool = cluster.AddPool(4);
  ASSERT_TRUE(cluster.AddTenant(SimTenant(1), pool).ok());
  sim::WorkloadProfile profile;
  profile.base_qps = 1000;
  profile.read_ratio = 0.95;  // A few writes populate the key space.
  profile.num_keys = 200;     // Small hot set.
  profile.zipf_theta = 0.99;
  cluster.SetWorkload(1, profile);

  // Warm up the caches, then measure.
  cluster.RunTicks(30);
  const auto& history = cluster.History(1);
  double late_hit = history.back().CacheHitRatio();
  EXPECT_GT(late_hit, 0.5);
}

TEST(ClusterSimTest, ProxyQuotaThrottlesOverdrive) {
  sim::ClusterSim cluster;
  PoolId pool = cluster.AddPool(4);
  // Quota 2000 RU/s but 20000 writes/s incoming.
  ASSERT_TRUE(cluster.AddTenant(SimTenant(1, 2000), pool).ok());
  sim::WorkloadProfile profile;
  profile.base_qps = 20000;
  profile.read_ratio = 0.0;
  profile.value_bytes = 2048;  // 3 RU per write (x3 replication).
  cluster.SetWorkload(1, profile);

  cluster.RunTicks(15);
  uint64_t throttled = 0;
  for (const auto& tick : cluster.History(1)) throttled += tick.throttled;
  EXPECT_GT(throttled, 10000u);
}

TEST(ClusterSimTest, InjectAndTrackOutcome) {
  sim::ClusterSim cluster;
  PoolId pool = cluster.AddPool(3);
  ASSERT_TRUE(cluster.AddTenant(SimTenant(1), pool).ok());

  ClientRequest set;
  set.req_id = 1001;
  set.tenant = 1;
  set.op = OpType::kSet;
  set.key = "mykey";
  set.value = MakeSharedValue("myvalue");
  set.track_outcome = true;
  cluster.InjectRequest(set);
  cluster.RunTicks(3);
  auto out = cluster.TakeOutcome(1001);
  ASSERT_TRUE(out.has_value());
  EXPECT_TRUE(out->status.ok());

  ClientRequest get = set;
  get.req_id = 1002;
  get.op = OpType::kGet;
  get.value = nullptr;
  cluster.InjectRequest(get);
  cluster.RunTicks(3);
  auto out2 = cluster.TakeOutcome(1002);
  ASSERT_TRUE(out2.has_value());
  ASSERT_TRUE(out2->status.ok());
  EXPECT_EQ(out2->value, "myvalue");
}

TEST(ClusterSimTest, PoolModelSnapshotReflectsLoad) {
  sim::ClusterSim cluster;
  PoolId pool = cluster.AddPool(4);
  ASSERT_TRUE(cluster.AddTenant(SimTenant(1), pool).ok());
  sim::WorkloadProfile profile;
  profile.base_qps = 2000;
  profile.read_ratio = 0.2;
  cluster.SetWorkload(1, profile);
  cluster.RunTicks(10);

  resched::PoolModel model = cluster.BuildPoolModel(pool);
  EXPECT_EQ(model.nodes().size(), 4u);
  EXPECT_EQ(model.TotalReplicaCount(), 12u);  // 4 partitions x 3 replicas.
  EXPECT_GT(model.MeanUtilization(resched::Resource::kRu), 0.0);
}

TEST(ClusterSimTest, MigrationsApplyToLiveTopology) {
  sim::ClusterSim cluster;
  PoolId pool = cluster.AddPool(4);
  ASSERT_TRUE(cluster.AddTenant(SimTenant(1), pool).ok());
  const auto* tmeta = cluster.meta().GetTenant(1);
  NodeId from = tmeta->partitions[0].replicas[0];
  NodeId to = kInvalidNode;
  for (const auto& n : cluster.nodes()) {
    if (!n->HasReplica(1, 0)) to = n->id();
  }
  ASSERT_NE(to, kInvalidNode);
  resched::Migration m;
  m.tenant = 1;
  m.partition = 0;
  m.from = from;
  m.to = to;
  auto outcomes = cluster.ApplyMigrations({m});
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_TRUE(outcomes[0].status.ok()) << outcomes[0].status.ToString();
  EXPECT_TRUE(cluster.FindNode(to)->HasReplica(1, 0));
  EXPECT_FALSE(cluster.FindNode(from)->HasReplica(1, 0));
  EXPECT_EQ(cluster.migration_stats().applied, 1u);

  // A doomed retry of the same move is reported with its reason instead
  // of being silently dropped from a success count.
  auto doomed = cluster.ApplyMigrations({m});
  ASSERT_EQ(doomed.size(), 1u);
  EXPECT_TRUE(doomed[0].status.IsNotFound())
      << doomed[0].status.ToString();  // Source no longer hosts it.
  EXPECT_EQ(cluster.migration_stats().skipped, 1u);
  EXPECT_EQ(
      cluster.migration_stats().skip_reasons.at(StatusCode::kNotFound), 1u);
}

// ------------------------------------------------------------ Public API --

TEST(ClientTest, RedisStyleRoundTrips) {
  Cluster cluster;
  PoolId pool = cluster.CreatePool(3);
  meta::TenantConfig config = SimTenant(1);
  ASSERT_TRUE(cluster.CreateTenant(config, pool).ok());
  Client client = cluster.OpenClient(1);

  ASSERT_TRUE(client.Set("user:1", "alice").ok());
  auto v = client.Get("user:1");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v.value(), "alice");

  EXPECT_TRUE(client.Get("nope").status().IsNotFound());

  ASSERT_TRUE(client.Del("user:1").ok());
  EXPECT_TRUE(client.Get("user:1").status().IsNotFound());

  ASSERT_TRUE(client.HSet("h:1", "name", "bob").ok());
  ASSERT_TRUE(client.HSet("h:1", "age", "30").ok());
  auto hv = client.HGet("h:1", "name");
  ASSERT_TRUE(hv.ok());
  EXPECT_EQ(hv.value(), "bob");
  auto len = client.HLen("h:1");
  ASSERT_TRUE(len.ok());
  EXPECT_EQ(len.value(), 2u);
  auto all = client.HGetAll("h:1");
  ASSERT_TRUE(all.ok());
  EXPECT_NE(all.value().find("age=30"), std::string::npos);
}

TEST(ClientTest, BatchedMGetMSet) {
  Cluster cluster;
  PoolId pool = cluster.CreatePool(3);
  ASSERT_TRUE(cluster.CreateTenant(SimTenant(1), pool).ok());
  Client client = cluster.OpenClient(1);

  std::vector<std::pair<std::string, std::string>> pairs;
  for (int i = 0; i < 8; i++) {
    pairs.emplace_back("batch:" + std::to_string(i),
                       "value" + std::to_string(i));
  }
  auto set_results = client.MSet(pairs);
  ASSERT_EQ(set_results.size(), 8u);
  for (const auto& st : set_results) EXPECT_TRUE(st.ok());

  std::vector<std::string> keys;
  for (int i = 0; i < 8; i++) keys.push_back("batch:" + std::to_string(i));
  keys.push_back("batch:missing");
  auto get_results = client.MGet(keys);
  ASSERT_EQ(get_results.size(), 9u);
  for (int i = 0; i < 8; i++) {
    ASSERT_TRUE(get_results[static_cast<size_t>(i)].ok()) << i;
    EXPECT_EQ(get_results[static_cast<size_t>(i)].value(),
              "value" + std::to_string(i));
  }
  EXPECT_TRUE(get_results[8].status().IsNotFound());
}

TEST(ClientTest, TtlExpiryThroughPublicApi) {
  Cluster cluster;
  PoolId pool = cluster.CreatePool(3);
  ASSERT_TRUE(cluster.CreateTenant(SimTenant(1), pool).ok());
  Client client = cluster.OpenClient(1);

  ASSERT_TRUE(client.Set("ephemeral", "v", 5 * kMicrosPerSecond).ok());
  EXPECT_TRUE(client.Get("ephemeral").ok());
  cluster.RunTicks(6);  // 6 simulated seconds.
  EXPECT_TRUE(client.Get("ephemeral").status().IsNotFound());
}

TEST(ClusterApiTest, AutoscalerAppliesQuota) {
  Cluster cluster;
  PoolId pool = cluster.CreatePool(4);
  ASSERT_TRUE(cluster.CreateTenant(SimTenant(1, 10000), pool).ok());

  // Rising usage history that breaches the 0.85 threshold.
  sim::SeriesSpec spec;
  spec.hours = 30 * 24;
  spec.base = 8000;
  spec.trend_per_day = 60;
  spec.seasons.push_back({24, 500});
  Rng rng(5);
  TimeSeries usage = sim::GenerateSeries(spec, rng);

  auto decision = cluster.RunAutoscaler(1, usage);
  ASSERT_TRUE(decision.ok());
  EXPECT_EQ(decision.value().action,
            autoscale::ScalingDecision::Action::kScaleUp);
  EXPECT_GT(cluster.meta().GetTenant(1)->tenant_quota_ru, 10000);
}

TEST(ClusterApiTest, ReschedulingReducesImbalance) {
  Cluster cluster;
  PoolId pool = cluster.CreatePool(6);
  // Two tenants: placement is balanced, so skew the load by traffic.
  ASSERT_TRUE(cluster.CreateTenant(SimTenant(1, 60000, 6), pool).ok());
  sim::WorkloadProfile profile;
  profile.base_qps = 6000;
  profile.read_ratio = 0.3;
  profile.zipf_theta = 0.99;  // Heavy skew: some partitions much hotter.
  profile.num_keys = 500;
  cluster.AttachWorkload(1, profile);
  cluster.RunTicks(15);

  resched::PoolModel before = cluster.sim().BuildPoolModel(pool);
  double stddev_before =
      before.UtilizationStddev(resched::Resource::kRu);
  size_t applied = cluster.RunRescheduling(pool);
  resched::PoolModel after = cluster.sim().BuildPoolModel(pool);
  double stddev_after = after.UtilizationStddev(resched::Resource::kRu);
  if (applied > 0) {
    EXPECT_LE(stddev_after, stddev_before);
  }
}

}  // namespace
}  // namespace abase
