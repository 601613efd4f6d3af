// Tests for the eight-stage tick pipeline and the data-plane executors:
//  * the parallel executor runs every task exactly once;
//  * a request can be driven through each stage boundary individually,
//    with the expected TickContext dataflow at every step;
//  * a seeded multi-tenant scenario produces bit-identical
//    TenantTickMetrics histories under the serial executor and under
//    parallel executors with 1, 2, and 4 workers.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "cluster_sim_test_peer.h"
#include "common/executor.h"
#include "core/abase.h"
#include "sim/cluster_sim.h"
#include "sim/pipeline.h"

namespace abase {
namespace {

// ---------------------------------------------------------------- Executor --

TEST(ExecutorTest, SerialRunsAllTasksInOrder)
{
  SerialExecutor ex;
  std::vector<size_t> order;
  ex.ParallelFor(5, [&](size_t i) { order.push_back(i); });
  EXPECT_EQ(order, (std::vector<size_t>{0, 1, 2, 3, 4}));
}

TEST(ExecutorTest, MorselPoolRunsEveryTaskExactlyOnce) {
  for (int workers : {1, 2, 4, 8}) {
    MorselExecutor ex(workers);
    EXPECT_EQ(ex.workers(), workers);
    constexpr size_t kTasks = 1000;
    std::vector<std::atomic<int>> hits(kTasks);
    for (auto& h : hits) h.store(0);
    for (int round = 0; round < 3; round++) {
      for (auto& h : hits) h.store(0);
      ex.ParallelFor(kTasks, [&](size_t i) { hits[i].fetch_add(1); });
      for (size_t i = 0; i < kTasks; i++) {
        ASSERT_EQ(hits[i].load(), 1) << "task " << i << " round " << round;
      }
    }
  }
}

TEST(ExecutorTest, MorselForCoversIndexSpaceAtEveryGrain) {
  for (int workers : {1, 2, 4}) {
    MorselExecutor ex(workers);
    for (size_t grain : {size_t{0}, size_t{1}, size_t{7}, size_t{1000}}) {
      constexpr size_t kTasks = 523;  // Prime: uneven ranges.
      std::vector<std::atomic<int>> hits(kTasks);
      for (auto& h : hits) h.store(0);
      ex.MorselFor("test", kTasks, grain,
                   [&](size_t begin, size_t end, int worker) {
                     ASSERT_GE(worker, 0);
                     ASSERT_LT(worker, workers);
                     for (size_t i = begin; i < end; i++) {
                       hits[i].fetch_add(1);
                     }
                   });
      for (size_t i = 0; i < kTasks; i++) {
        ASSERT_EQ(hits[i].load(), 1)
            << "task " << i << " grain " << grain << " workers " << workers;
      }
    }
  }
}

TEST(ExecutorTest, ParallelForZeroTasksReturns) {
  MorselExecutor ex(4);
  ex.ParallelFor(0, [](size_t) { FAIL() << "no task should run"; });
}

// ---------------------------------------------------------- Stage-by-stage --

meta::TenantConfig PipelineTenant(TenantId id, double quota = 50000) {
  meta::TenantConfig c;
  c.id = id;
  c.name = "t" + std::to_string(id);
  c.tenant_quota_ru = quota;
  c.num_partitions = 4;
  c.num_proxies = 2;
  c.num_proxy_groups = 1;
  return c;
}

TEST(TickPipelineTest, OneRequestCrossesEveryStageBoundary) {
  sim::SimOptions opt;
  opt.seed = 11;
  sim::ClusterSim sim(opt);
  PoolId pool = sim.AddPool(3);
  ASSERT_TRUE(sim.AddTenant(PipelineTenant(1), pool).ok());
  sim.PreloadKeys(1, /*num_keys=*/4, /*value_bytes=*/64);

  ClientRequest req;
  req.req_id = 424242;
  req.tenant = 1;
  req.op = OpType::kGet;
  req.key = "t1:k0";  // Preloaded.
  req.track_outcome = true;
  sim.InjectRequest(req);

  sim::TickPipeline& pipeline = sim.pipeline();
  ASSERT_EQ(pipeline.num_stages(), 8u);
  EXPECT_STREQ(pipeline.stage(0).name(), "Fault");
  EXPECT_STREQ(pipeline.stage(1).name(), "Generate");
  EXPECT_STREQ(pipeline.stage(2).name(), "ProxyAdmit");
  EXPECT_STREQ(pipeline.stage(3).name(), "Route");
  EXPECT_STREQ(pipeline.stage(4).name(), "NodeSchedule");
  EXPECT_STREQ(pipeline.stage(5).name(), "Replicate");
  EXPECT_STREQ(pipeline.stage(6).name(), "Settle");
  EXPECT_STREQ(pipeline.stage(7).name(), "Control");

  sim::TickContext ctx;

  // Fault: nothing queued; every node stays alive.
  pipeline.stage(0).Run(ctx);
  EXPECT_EQ(sim.DownNodeCount(), 0u);

  // Generate: the injected request becomes this tick's client traffic
  // (no workload generators are attached, so no bulk tenant traffic).
  pipeline.stage(1).Run(ctx);
  EXPECT_TRUE(ctx.traffic.empty());
  ASSERT_EQ(ctx.injected.size(), 1u);
  EXPECT_EQ(ctx.injected[0].req_id, 424242u);

  // ProxyAdmit: cold cache, ample quota -> forwarded toward the data
  // plane with the proxy's RU estimate attached.
  pipeline.stage(2).Run(ctx);
  ASSERT_EQ(ctx.forwards.size(), 1u);
  EXPECT_EQ(ctx.forwards[0].request.req_id, 424242u);
  EXPECT_EQ(ctx.forwards[0].ctx.tenant, 1u);
  EXPECT_TRUE(ctx.forwards[0].ctx.track_outcome);
  EXPECT_GT(ctx.forwards[0].request.estimated_ru, 0.0);
  EXPECT_EQ(sim.InflightCount(), 0u);

  // Route: the forward lands on the partition primary and is registered
  // in-flight.
  pipeline.stage(3).Run(ctx);
  EXPECT_EQ(sim.InflightCount(), 1u);

  // NodeSchedule: the WFQ serves it; the response merges back into the
  // per-node drain buffers.
  pipeline.stage(4).Run(ctx);
  std::vector<NodeResponse> drained;
  for (const auto& per_node : ctx.responses) {
    drained.insert(drained.end(), per_node.begin(), per_node.end());
  }
  ASSERT_EQ(drained.size(), 1u);
  EXPECT_EQ(drained[0].req_id, 424242u);
  EXPECT_TRUE(drained[0].status.ok());

  // Replicate: with lag 0, every replica of the preloaded partitions is
  // caught up to its primary's stream after the step.
  pipeline.stage(5).Run(ctx);
  for (PartitionId p = 0; p < 4; p++) {
    EXPECT_EQ(sim.ReplicationLag(1, p), 0u) << "partition " << p;
  }

  // Settle: metrics recorded, outcome available, clock advanced.
  pipeline.stage(6).Run(ctx);
  EXPECT_EQ(sim.InflightCount(), 0u);
  auto outcome = sim.TakeOutcome(424242u);
  ASSERT_TRUE(outcome.has_value());
  EXPECT_TRUE(outcome->status.ok());
  EXPECT_FALSE(outcome->value.empty());
  ASSERT_EQ(sim.History(1).size(), 1u);
  EXPECT_EQ(sim.History(1)[0].issued, 1u);
  EXPECT_EQ(sim.History(1)[0].ok, 1u);
  EXPECT_EQ(sim.clock().NowMicros(), kMicrosPerSecond);
}

// --------------------------------------------------------- Payload release --

// A generated write aliases its generator's immutable value block. The
// worker's request scratch, the forward slot and the node's pending slot
// each drop their reference once the request has moved on, so when
// nothing is in flight the generator's own handle is the only one left —
// whether the writes completed, expired queued, or died with their node.

/// A write-only tenant (30% HSET) across two data-plane workers whose
/// traffic stops at `stop_at` (a zero-multiplier burst); later ticks
/// only drain what is still in flight.
std::unique_ptr<sim::ClusterSim> WriteOnlySim(size_t nodes, int replicas,
                                              double cpu_budget_ru,
                                              Micros stop_at) {
  sim::SimOptions opt;
  opt.seed = 21;
  opt.data_plane_workers = 2;
  opt.node.wfq.cpu_budget_ru = cpu_budget_ru;
  auto s = std::make_unique<sim::ClusterSim>(opt);
  PoolId pool = s->AddPool(nodes);
  meta::TenantConfig c = PipelineTenant(1);
  c.replicas = replicas;
  EXPECT_TRUE(s->AddTenant(c, pool).ok());
  sim::WorkloadProfile profile;
  profile.base_qps = 2000;
  profile.read_ratio = 0;
  profile.hash_op_fraction = 0.3;
  profile.num_keys = 500;
  profile.value_bytes = 256;
  profile.bursts.push_back({stop_at, 1000 * kMicrosPerSecond, 0.0});
  s->SetWorkload(1, profile);
  return s;
}

/// Ticks until nothing is in flight (at most `max_ticks`).
void Drain(sim::ClusterSim& s, int max_ticks) {
  for (int i = 0; i < max_ticks && s.InflightCount() > 0; i++) s.Tick();
  ASSERT_EQ(s.InflightCount(), 0u);
}

long BlockRefs(sim::ClusterSim& s) {
  const sim::WorkloadGenerator* gen = sim::ClusterSimTestPeer::Generator(s, 1);
  return gen != nullptr ? gen->value_block().use_count() : -1;
}

TEST(PayloadReleaseTest, SettledWritesLeaveOnlyTheGeneratorsReference) {
  auto s = WriteOnlySim(3, 3, 12000, kMicrosPerSecond);
  s->Tick();
  ASSERT_GT(s->History(1)[0].ok, 1000u);
  Drain(*s, 8);
  EXPECT_EQ(BlockRefs(*s), 1);
}

TEST(PayloadReleaseTest, WriteExpiredAtQueueDeadlineDropsItsPayload) {
  // A 40-RU tick budget serves a handful of writes; the rest wait past
  // queue_timeout_ticks in the WFQ and fail with a deadline error.
  auto s = WriteOnlySim(3, 3, 40, kMicrosPerSecond);
  s->Tick();
  ASSERT_GT(s->InflightCount(), 0u);
  Drain(*s, 8);
  uint64_t deadline_errors = 0;
  for (const sim::TenantTickMetrics& m : s->History(1)) {
    deadline_errors += m.errors - m.throttled - m.unavailable;
  }
  EXPECT_GT(deadline_errors, 0u);
  EXPECT_EQ(BlockRefs(*s), 1);
}

TEST(PayloadReleaseTest, NodeFailureWithWritesInFlightDropsTheirPayloads) {
  // One node hosts the whole tenant. Writes queue behind a small budget;
  // the node then fails with them in flight, and the writes generated
  // while it is down fail to route.
  auto s = WriteOnlySim(1, 1, 40, 3 * kMicrosPerSecond);
  s->RunTicks(2);
  ASSERT_GT(s->InflightCount(), 0u);
  s->FailNode(0);
  s->Tick();
  EXPECT_GT(s->History(1)[2].unavailable, 0u);
  Drain(*s, 8);
  EXPECT_EQ(BlockRefs(*s), 1);
}

// ------------------------------------------------------------- Determinism --

bool MetricsEqual(const sim::TenantTickMetrics& a,
                  const sim::TenantTickMetrics& b) {
  return a.issued == b.issued && a.ok == b.ok && a.errors == b.errors &&
         a.throttled == b.throttled && a.unavailable == b.unavailable &&
         a.redirects == b.redirects &&
         a.replica_reads == b.replica_reads &&
         a.replica_lag_sum == b.replica_lag_sum &&
         a.proxy_hits == b.proxy_hits &&
         a.node_cache_hits == b.node_cache_hits &&
         a.disk_reads == b.disk_reads &&
         a.reads_completed == b.reads_completed &&
         a.ru_charged == b.ru_charged &&          // Bit-exact doubles:
         a.latency_sum == b.latency_sum &&        // settlement order is
         a.latency_max == b.latency_max &&        // node-id-deterministic.
         a.latency_count == b.latency_count;
}

/// A seeded 8-tenant / 16-node scenario with mixed read/write, hash-op,
/// and hot-spot traffic; returns per-tenant metric histories.
std::vector<std::vector<sim::TenantTickMetrics>> RunScenario(int workers,
                                                             size_t ticks) {
  sim::SimOptions opt;
  opt.seed = 1234;
  opt.data_plane_workers = workers;
  sim::ClusterSim sim(opt);
  PoolId pool = sim.AddPool(16);

  constexpr TenantId kTenants = 8;
  for (TenantId t = 1; t <= kTenants; t++) {
    EXPECT_TRUE(
        sim.AddTenant(PipelineTenant(t, 20000 + 1000.0 * t), pool).ok());
    sim.PreloadKeys(t, /*num_keys=*/200, /*value_bytes=*/256);

    sim::WorkloadProfile profile;
    profile.base_qps = 150 + 30.0 * t;
    profile.read_ratio = (t % 2 == 0) ? 0.95 : 0.6;
    profile.hash_op_fraction = (t % 3 == 0) ? 0.3 : 0.0;
    profile.num_keys = 200;
    profile.key_dist =
        (t % 2 == 0) ? sim::KeyDist::kZipfian : sim::KeyDist::kHotSpot;
    profile.value_bytes = 256;
    // Half the tenants spread part of their reads across replicas, so
    // the bit-identity contract covers the replica-read routing and the
    // Replicate step's staleness accounting too.
    profile.eventual_read_fraction = (t % 2 == 0) ? 0.5 : 0.0;
    sim.SetWorkload(t, profile);
  }

  sim.RunTicks(ticks);

  std::vector<std::vector<sim::TenantTickMetrics>> histories;
  for (TenantId t = 1; t <= kTenants; t++) {
    histories.push_back(sim.History(t));
  }
  return histories;
}

TEST(TickPipelineTest, SerialAndParallelExecutorsAreBitIdentical) {
  constexpr size_t kTicks = 20;
  auto serial = RunScenario(/*workers=*/1, kTicks);  // SerialExecutor.
  ASSERT_FALSE(serial.empty());

  // The scenario exercises replica reads, and at the default
  // replication lag of 0 they must observe zero staleness (replicas
  // apply every acknowledged write within the tick it is acknowledged).
  uint64_t replica_reads = 0, replica_lag_sum = 0;
  for (const auto& history : serial) {
    for (const auto& m : history) {
      replica_reads += m.replica_reads;
      replica_lag_sum += m.replica_lag_sum;
    }
  }
  EXPECT_GT(replica_reads, 0u);
  EXPECT_EQ(replica_lag_sum, 0u);
  for (int workers : {2, 4}) {
    auto parallel = RunScenario(workers, kTicks);
    ASSERT_EQ(parallel.size(), serial.size()) << workers << " workers";
    for (size_t t = 0; t < serial.size(); t++) {
      ASSERT_EQ(parallel[t].size(), serial[t].size())
          << workers << " workers, tenant " << t + 1;
      for (size_t tick = 0; tick < serial[t].size(); tick++) {
        ASSERT_TRUE(MetricsEqual(serial[t][tick], parallel[t][tick]))
            << workers << " workers, tenant " << t + 1 << ", tick " << tick;
      }
    }
  }
}

// A tenant's fan-out router RNG is built on its first routed request: a
// registered tenant that never carries traffic holds no generator state
// (most of a tenant's resident bytes otherwise), whatever its
// neighbours do.
TEST(TickPipelineTest, RouterRngBuiltOnFirstRoutedRequest) {
  sim::SimOptions opt;
  opt.seed = 11;
  sim::ClusterSim sim(opt);
  PoolId pool = sim.AddPool(3);
  for (TenantId t = 1; t <= 3; t++) {
    ASSERT_TRUE(sim.AddTenant(PipelineTenant(t), pool).ok());
    EXPECT_EQ(sim.Tenant(t)->router_rng, nullptr);
  }
  sim::WorkloadProfile busy;
  busy.base_qps = 200;
  busy.num_keys = 50;
  sim.SetWorkload(1, busy);
  sim::WorkloadProfile idle = busy;
  idle.base_qps = 0;  // Registered and scheduled, never driven.
  sim.SetWorkload(2, idle);
  sim.RunTicks(5);
  EXPECT_NE(sim.Tenant(1)->router_rng, nullptr);
  EXPECT_EQ(sim.Tenant(2)->router_rng, nullptr);
  EXPECT_EQ(sim.Tenant(3)->router_rng, nullptr);

  ClientRequest req;
  req.req_id = 7;
  req.tenant = 3;
  req.op = OpType::kGet;
  req.key = "t3:k0";
  sim.InjectRequest(req);
  sim.RunTicks(1);
  EXPECT_NE(sim.Tenant(3)->router_rng, nullptr);
  EXPECT_EQ(sim.Tenant(2)->router_rng, nullptr);
}

/// A 64-client closed-loop async session at pipeline depth 16: every
/// client keeps 16 commands in flight, refilled as futures resolve.
/// Returns a fingerprint of every reply (client, sequence, status, value
/// size, completion time) in resolution-scan order.
std::vector<std::string> RunAsyncClientScenario(int workers) {
  ClusterOptions copts;
  copts.sim.seed = 2025;
  copts.sim.data_plane_workers = workers;
  Cluster cluster(copts);
  PoolId pool = cluster.CreatePool(8);
  meta::TenantConfig cfg = PipelineTenant(1, /*quota=*/500000);
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

  std::vector<std::string> log;
  auto harvest = [&](bool refill) {
    for (int c = 0; c < kClients; c++) {
      auto& slots = outstanding[c];
      for (size_t i = 0; i < slots.size();) {
        if (slots[i].future.ready()) {
          const Reply& r = slots[i].future.value();
          log.push_back(std::to_string(c) + ":" +
                        std::to_string(slots[i].seq) + ":" +
                        std::to_string(static_cast<int>(r.status.code())) +
                        ":" + std::to_string(r.value.size()) + ":" +
                        std::to_string(r.completed_at));
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
  return log;
}

TEST(TickPipelineTest, AsyncClientFleetBitIdenticalAcrossWorkers) {
  // Extends the determinism contract to the async command API: 64
  // clients each holding 16 commands in flight must produce bit-identical
  // reply streams no matter how many data-plane workers run the tick.
  auto serial = RunAsyncClientScenario(/*workers=*/1);
  ASSERT_GT(serial.size(), 64u * 16u);  // Closed loop actually cycled.
  for (int workers : {2, 4}) {
    auto parallel = RunAsyncClientScenario(workers);
    ASSERT_EQ(parallel.size(), serial.size()) << workers << " workers";
    for (size_t i = 0; i < serial.size(); i++) {
      ASSERT_EQ(parallel[i], serial[i])
          << workers << " workers, reply " << i;
    }
  }
}

TEST(TickPipelineTest, SwitchingExecutorMidRunStaysDeterministic) {
  // The same scenario run (a) serial throughout and (b) switching the
  // executor between ticks must agree: the executor is pure mechanism.
  auto run = [](bool switch_executors) {
    sim::SimOptions opt;
    opt.seed = 77;
    sim::ClusterSim sim(opt);
    PoolId pool = sim.AddPool(4);
    EXPECT_TRUE(sim.AddTenant(PipelineTenant(1), pool).ok());
    sim.PreloadKeys(1, 100, 128);
    sim::WorkloadProfile profile;
    profile.base_qps = 300;
    profile.read_ratio = 0.8;
    profile.num_keys = 100;
    sim.SetWorkload(1, profile);
    for (int tick = 0; tick < 12; tick++) {
      if (switch_executors) sim.SetDataPlaneWorkers(1 + tick % 4);
      sim.Tick();
    }
    return sim.History(1);
  };
  auto baseline = run(false);
  auto switched = run(true);
  ASSERT_EQ(baseline.size(), switched.size());
  for (size_t i = 0; i < baseline.size(); i++) {
    ASSERT_TRUE(MetricsEqual(baseline[i], switched[i])) << "tick " << i;
  }
}

}  // namespace
}  // namespace abase
