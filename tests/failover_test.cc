// Tests for the live node failure domain: DataNode lifecycle, the Fault
// pipeline stage, epoch-versioned routing with redirect chases, stranded
// in-flight resolution, WAL catch-up with primary failback, and the
// determinism of a mid-run failover under any data-plane worker count.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "cluster_sim_test_peer.h"
#include "core/abase.h"
#include "node/data_node.h"
#include "sim/cluster_sim.h"

namespace abase {
namespace {

// ----------------------------------------------------------- Node lifecycle --

TEST(NodeLifecycleTest, FailedNodeRejectsSubmissionsAndDropsWork) {
  SimClock clock(0);
  node::DataNode node(0, node::DataNodeOptions{}, &clock);
  node.AddReplica(1, 0, /*partition_quota_ru=*/1000, /*is_primary=*/true);
  ASSERT_TRUE(node.EngineFor(1, 0)->Put("k", "v").ok());

  NodeRequest req;
  req.req_id = 1;
  req.tenant = 1;
  req.partition = 0;
  req.op = OpType::kGet;
  req.key = "k";
  node.Submit(req);
  EXPECT_EQ(node.state(), node::NodeState::kAlive);

  node.Fail();
  EXPECT_EQ(node.state(), node::NodeState::kFailed);
  // The queued request was dropped: ticking produces no response for it.
  node.Tick();
  EXPECT_TRUE(node.TakeResponses().empty());

  // Submissions while down come back Unavailable immediately.
  req.req_id = 2;
  node.Submit(req);
  auto rejected = node.TakeResponses();
  ASSERT_EQ(rejected.size(), 1u);
  EXPECT_TRUE(rejected[0].status.IsUnavailable());

  // Recovery replays the WAL: the engine still serves pre-crash keys.
  node.StartRecovery();
  EXPECT_EQ(node.state(), node::NodeState::kRecovering);
  node.CompleteRecovery();
  EXPECT_EQ(node.state(), node::NodeState::kAlive);
  auto r = node.EngineFor(1, 0)->Get("k");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), "v");
}

TEST(NodeLifecycleTest, PrimaryFlagFollowsMetaPromotion) {
  SimClock clock(0);
  node::DataNode node(0, node::DataNodeOptions{}, &clock);
  node.AddReplica(1, 0, 1000, /*is_primary=*/true);
  EXPECT_TRUE(node.IsPrimaryFor(1, 0));
  node.SetReplicaPrimary(1, 0, false);
  EXPECT_FALSE(node.IsPrimaryFor(1, 0));
  EXPECT_FALSE(node.IsPrimaryFor(1, 99));  // Not hosted at all.
}

// ------------------------------------------------------------ Failover flow --

meta::TenantConfig FailoverTenant(TenantId id, uint32_t partitions = 1,
                                  int replicas = 3) {
  meta::TenantConfig c;
  c.id = id;
  c.name = "t" + std::to_string(id);
  c.tenant_quota_ru = 50000;
  c.num_partitions = partitions;
  c.num_proxies = 2;
  c.num_proxy_groups = 1;
  c.replicas = replicas;
  return c;
}

TEST(FailoverTest, PromotedReplicaServesRealDataAndFailbackRestoresPrimary) {
  ClusterOptions copts;
  copts.sim.seed = 31;
  copts.sim.failover_detection_ticks = 1;
  copts.sim.replication_lag_ticks = 0;
  // This test holds the node down across many sync-op ticks; keep the
  // executed re-replication out of the picture (covered separately).
  copts.sim.re_replication_delay_ticks = 64;
  Cluster cluster(copts);
  PoolId pool = cluster.CreatePool(4);
  ASSERT_TRUE(cluster.CreateTenant(FailoverTenant(1), pool).ok());
  Client client = cluster.OpenClient(1);

  constexpr int kKeys = 10;
  for (int i = 0; i < kKeys; i++) {
    ASSERT_TRUE(client.Set("k" + std::to_string(i),
                           "v" + std::to_string(i)).ok());
  }

  const NodeId primary = cluster.meta().PrimaryFor(1, 0);
  ASSERT_NE(primary, kInvalidNode);
  const uint64_t epoch_before = cluster.RoutingEpoch();

  // Kill the primary. Before the failure detector fires, the routing
  // table still points at the dead node and requests resolve Unavailable.
  cluster.FailNode(primary);
  auto in_window = client.Get("k0");
  EXPECT_TRUE(in_window.status().IsUnavailable());

  // After the detection delay, a surviving replica is promoted and the
  // routing epoch moves.
  cluster.RunTicks(3);
  EXPECT_EQ(cluster.sim().DownNodeCount(), 1u);
  EXPECT_NE(cluster.meta().PrimaryFor(1, 0), primary);
  EXPECT_GT(cluster.RoutingEpoch(), epoch_before);
  ASSERT_TRUE(cluster.sim().LastFailoverReport().has_value());
  EXPECT_EQ(cluster.sim().LastFailoverReport()->primaries_promoted, 1u);
  EXPECT_FALSE(
      cluster.sim().LastFailoverReport()->re_replication_targets.empty());
  // With replication lag 0, every acknowledged write had been applied by
  // the promoted replica before the crash: no lost-write window.
  EXPECT_EQ(cluster.sim().LastFailoverReport()->lost_acked_writes, 0u);

  // The promoted replica serves its actually-applied state: every
  // pre-crash value is readable *during* the failure window.
  for (int i = 0; i < kKeys; i++) {
    auto r = client.Get("k" + std::to_string(i));
    ASSERT_TRUE(r.ok()) << "k" << i << " during window: "
                        << r.status().ToString();
    EXPECT_EQ(r.value(), "v" + std::to_string(i));
  }

  // Writes accepted by the interim primary extend the same stream.
  ASSERT_TRUE(client.Set("k-interim", "written-while-failed").ok());

  // Recover: log-delta resync + catch-up ticks, then failback.
  cluster.RecoverNode(primary, /*catch_up_ticks=*/2);
  cluster.RunTicks(4);
  EXPECT_EQ(cluster.sim().DownNodeCount(), 0u);
  EXPECT_EQ(cluster.meta().PrimaryFor(1, 0), primary);

  // Post-failback reads return every pre-crash value AND the interim
  // window's writes: the recovered node resynced the real log delta
  // from the interim primary before taking the lead back.
  for (int i = 0; i < kKeys; i++) {
    auto r = client.Get("k" + std::to_string(i));
    ASSERT_TRUE(r.ok()) << "k" << i << ": " << r.status().ToString();
    EXPECT_EQ(r.value(), "v" + std::to_string(i));
  }
  auto interim = client.Get("k-interim");
  ASSERT_TRUE(interim.ok()) << interim.status().ToString();
  EXPECT_EQ(interim.value(), "written-while-failed");

  // The failure window left visible fingerprints in the tenant metrics:
  // Unavailable resolutions while the primary was dark, and at least one
  // redirect chase per epoch change.
  uint64_t unavailable = 0, redirects = 0;
  for (const auto& m : cluster.sim().History(1)) {
    unavailable += m.unavailable;
    redirects += m.redirects;
  }
  EXPECT_GT(unavailable, 0u);
  EXPECT_GE(redirects, 2u);  // Failover redirect + failback redirect.
}

// ------------------------------------------------------ Lost-write window --

/// Writes a steady stream of acknowledged SETs, kills the primary, and
/// measures the lost-write window two ways: the promotion report's
/// `lost_acked_writes`, and the acknowledged keys no longer readable
/// from the promoted replica. Proxy caches are disabled so reads measure
/// engine state, not cached copies.
struct LagRunResult {
  uint64_t reported_lost = 0;
  uint64_t measured_lost = 0;
  size_t acked = 0;
};

LagRunResult RunLostWriteScenario(int lag) {
  ClusterOptions copts;
  copts.sim.seed = 77;
  copts.sim.failover_detection_ticks = 0;
  copts.sim.replication_lag_ticks = lag;
  Cluster cluster(copts);
  PoolId pool = cluster.CreatePool(4);
  EXPECT_TRUE(cluster.CreateTenant(FailoverTenant(1), pool).ok());
  cluster.sim().SetProxyCacheEnabled(1, false);
  Client client = cluster.OpenClient(1);

  constexpr int kTicks = 8;
  constexpr int kWritesPerTick = 5;
  std::vector<std::string> acked_keys;
  for (int t = 0; t < kTicks; t++) {
    std::vector<Command> batch;
    std::vector<std::string> keys;
    for (int i = 0; i < kWritesPerTick; i++) {
      std::string key = "w" + std::to_string(t) + "_" + std::to_string(i);
      keys.push_back(key);
      batch.push_back(Command::Set(key, "v"));
    }
    std::vector<Future<Reply>> futures = client.SubmitBatch(std::move(batch));
    cluster.Step();
    for (size_t i = 0; i < futures.size(); i++) {
      if (futures[i].ready() && (*futures[i]).ok()) {
        acked_keys.push_back(keys[i]);
      }
    }
  }

  const NodeId primary = cluster.meta().PrimaryFor(1, 0);
  cluster.FailNode(primary);
  cluster.RunTicks(2);  // Crash lands; detection 0 promotes immediately.
  EXPECT_NE(cluster.meta().PrimaryFor(1, 0), primary);

  LagRunResult res;
  res.acked = acked_keys.size();
  EXPECT_TRUE(cluster.sim().LastFailoverReport().has_value());
  if (cluster.sim().LastFailoverReport().has_value()) {
    res.reported_lost =
        cluster.sim().LastFailoverReport()->lost_acked_writes;
  }
  for (const std::string& key : acked_keys) {
    auto r = client.Get(key);
    if (!r.ok()) res.measured_lost++;
  }
  return res;
}

TEST(FailoverTest, LostAckedWriteWindowGrowsMonotonicallyWithLag) {
  LagRunResult lag0 = RunLostWriteScenario(0);
  LagRunResult lag2 = RunLostWriteScenario(2);
  LagRunResult lag4 = RunLostWriteScenario(4);
  ASSERT_GT(lag0.acked, 0u);

  // Lag 0: every acknowledged write survives the primary kill.
  EXPECT_EQ(lag0.reported_lost, 0u);
  EXPECT_EQ(lag0.measured_lost, 0u);

  // Lag > 0: a real, measurable loss that grows with the lag, and the
  // promotion report's accounting matches what clients observe.
  EXPECT_GT(lag2.measured_lost, lag0.measured_lost);
  EXPECT_GT(lag4.measured_lost, lag2.measured_lost);
  EXPECT_EQ(lag2.reported_lost, lag2.measured_lost);
  EXPECT_EQ(lag4.reported_lost, lag4.measured_lost);
}

// ------------------------------------------------- Executed re-replication --

TEST(FailoverTest, ReReplicationExecutesWhenNodeStaysDown) {
  ClusterOptions copts;
  copts.sim.seed = 101;
  copts.sim.failover_detection_ticks = 0;
  copts.sim.replication_lag_ticks = 0;
  copts.sim.re_replication_delay_ticks = 2;
  Cluster cluster(copts);
  PoolId pool = cluster.CreatePool(5);
  ASSERT_TRUE(
      cluster.CreateTenant(FailoverTenant(1, /*partitions=*/1), pool).ok());
  cluster.sim().SetProxyCacheEnabled(1, false);
  Client client = cluster.OpenClient(1);

  constexpr int kKeys = 8;
  for (int i = 0; i < kKeys; i++) {
    ASSERT_TRUE(client.Set("k" + std::to_string(i),
                           "v" + std::to_string(i)).ok());
  }

  const NodeId victim = cluster.meta().PrimaryFor(1, 0);
  cluster.FailNode(victim);
  cluster.RunTicks(8);  // Detection + grace period + copy ticks.

  // The planned target was executed: real partition state placed on a
  // new node, the dead node evicted from the placement.
  EXPECT_GT(cluster.sim().ExecutedRebuildCount(), 0u);
  ASSERT_TRUE(cluster.sim().LastFailoverReport().has_value());
  EXPECT_EQ(cluster.sim().LastFailoverReport()->replicas_rebuilt_executed,
            cluster.sim().ExecutedRebuildCount());
  const meta::TenantMeta* tm = cluster.meta().GetTenant(1);
  ASSERT_NE(tm, nullptr);
  const auto& reps = tm->partitions[0].replicas;
  EXPECT_EQ(std::find(reps.begin(), reps.end(), victim), reps.end())
      << "dead node should have been replaced in the placement";
  for (NodeId nid : reps) {
    node::DataNode* n = sim::ClusterSimTestPeer::Node(cluster.sim(), nid);
    ASSERT_NE(n, nullptr);
    EXPECT_TRUE(n->HasReplica(1, 0));
    // Every placement member holds the real pre-crash data.
    storage::LsmEngine* engine = n->EngineFor(1, 0);
    ASSERT_NE(engine, nullptr);
    for (int i = 0; i < kKeys; i++) {
      auto r = engine->Get("k" + std::to_string(i));
      ASSERT_TRUE(r.ok()) << "node " << nid << " k" << i;
      EXPECT_EQ(r.value(), "v" + std::to_string(i));
    }
  }

  // The evicted node recovering later must NOT fail back into a
  // partition it no longer owns.
  cluster.RecoverNode(victim, 1);
  cluster.RunTicks(3);
  EXPECT_NE(cluster.meta().PrimaryFor(1, 0), victim);
  const node::DataNode* returned = cluster.sim().FindNode(victim);
  ASSERT_NE(returned, nullptr);
  EXPECT_FALSE(returned->IsPrimaryFor(1, 0));

  // Kill the interim primary too: the rebuilt replica carries the data,
  // so the partition promotes again and pre-crash keys stay readable.
  const NodeId interim = cluster.meta().PrimaryFor(1, 0);
  cluster.FailNode(interim);
  cluster.RunTicks(2);
  ASSERT_NE(cluster.meta().PrimaryFor(1, 0), interim);
  for (int i = 0; i < kKeys; i++) {
    auto r = client.Get("k" + std::to_string(i));
    ASSERT_TRUE(r.ok()) << "k" << i << " after double failure: "
                        << r.status().ToString();
  }
}

TEST(FailoverTest, ReReplicationCancelledWhenNodeRecoversInTime) {
  ClusterOptions copts;
  copts.sim.seed = 103;
  copts.sim.failover_detection_ticks = 0;
  copts.sim.re_replication_delay_ticks = 6;
  Cluster cluster(copts);
  PoolId pool = cluster.CreatePool(5);
  ASSERT_TRUE(cluster.CreateTenant(FailoverTenant(1), pool).ok());
  Client client = cluster.OpenClient(1);
  ASSERT_TRUE(client.Set("k", "v").ok());

  const NodeId victim = cluster.meta().PrimaryFor(1, 0);
  cluster.FailNode(victim);
  cluster.RunTicks(2);
  EXPECT_GT(cluster.sim().PendingRebuildCount(), 0u);

  cluster.RecoverNode(victim, 1);
  cluster.RunTicks(6);
  // Recovery beat the grace period: no copy was executed, the node took
  // its primary back.
  EXPECT_EQ(cluster.sim().ExecutedRebuildCount(), 0u);
  EXPECT_EQ(cluster.sim().PendingRebuildCount(), 0u);
  EXPECT_EQ(cluster.meta().PrimaryFor(1, 0), victim);
}

// ----------------------------------------------------------- Replica reads --

TEST(FailoverTest, EventualReadsBalanceAcrossReplicasAndSurviveOutage) {
  ClusterOptions copts;
  copts.sim.seed = 109;
  copts.sim.failover_detection_ticks = 1;
  copts.sim.replication_lag_ticks = 1;
  Cluster cluster(copts);
  PoolId pool = cluster.CreatePool(4);
  ASSERT_TRUE(
      cluster.CreateTenant(FailoverTenant(1, /*partitions=*/1), pool).ok());
  cluster.sim().SetProxyCacheEnabled(1, false);
  Client client = cluster.OpenClient(1);

  ASSERT_TRUE(client.Set("k", "v").ok());
  cluster.RunTicks(2);  // Let the stream catch the replicas up.

  // Eventual GETs round-robin over the three replicas: some land on
  // non-primary replicas and are counted (with staleness) in metrics.
  std::vector<Command> reads;
  for (int i = 0; i < 9; i++) reads.push_back(Command::GetEventual("k"));
  std::vector<Future<Reply>> futures = client.SubmitBatch(std::move(reads));
  cluster.Drain();
  for (const auto& f : futures) {
    ASSERT_TRUE(f.ready());
    EXPECT_TRUE(f->ok()) << f->status.ToString();
    EXPECT_EQ(f->value, "v");
  }
  uint64_t replica_reads = 0;
  for (const auto& m : cluster.sim().History(1)) {
    replica_reads += m.replica_reads;
  }
  EXPECT_GT(replica_reads, 0u);

  // During the primary outage — before the failure detector promotes —
  // primary reads fail but eventual reads keep serving off replicas.
  // Both reads land in the tick the crash does: the routing table still
  // points at the dead primary.
  const NodeId primary = cluster.meta().PrimaryFor(1, 0);
  cluster.FailNode(primary);
  auto primary_read = client.Submit(Command::Get("k"));
  auto eventual_read = client.Submit(Command::GetEventual("k"));
  cluster.Step();  // Crash lands; detection countdown still running.
  cluster.Drain();
  ASSERT_TRUE(primary_read.ready());
  ASSERT_TRUE(eventual_read.ready());
  EXPECT_TRUE(primary_read->status.IsUnavailable());
  EXPECT_TRUE(eventual_read->ok()) << eventual_read->status.ToString();
  EXPECT_EQ(eventual_read->value, "v");
}

TEST(FailoverTest, StrandedInflightRequestsResolveUnavailable) {
  ClusterOptions copts;
  copts.sim.seed = 17;
  // Tiny CPU budget so most of a burst defers across tick boundaries and
  // is genuinely in flight when the crash lands.
  copts.sim.node.wfq.cpu_budget_ru = 25;
  copts.sim.failover_detection_ticks = 1;
  Cluster cluster(copts);
  PoolId pool = cluster.CreatePool(3);
  ASSERT_TRUE(cluster.CreateTenant(FailoverTenant(1), pool).ok());
  cluster.sim().PreloadKeys(1, 64, 64);
  Client client = cluster.OpenClient(1);

  std::vector<Command> cmds;
  for (int i = 0; i < 200; i++) {
    cmds.push_back(Command::Get("t1:k" + std::to_string(i % 64)));
  }
  std::vector<Future<Reply>> futures = client.SubmitBatch(std::move(cmds));

  cluster.Step();
  ASSERT_GT(cluster.sim().InflightCount(), 0u)
      << "burst did not back up; the test would not exercise stranding";

  const NodeId primary = cluster.meta().PrimaryFor(1, 0);
  cluster.FailNode(primary);
  cluster.Step();  // Fault stage drops the node; stranded ids resolve.
  EXPECT_EQ(cluster.sim().InflightCount(), 0u);

  cluster.Drain();
  EXPECT_EQ(cluster.PendingCommands(), 0u);
  EXPECT_EQ(cluster.sim().OutcomeSubscriptionCount(), 0u);

  size_t ok = 0, unavailable = 0, other = 0;
  for (const auto& f : futures) {
    ASSERT_TRUE(f.ready());
    if (f->ok() || f->status.IsNotFound()) {
      ok++;
    } else if (f->status.IsUnavailable()) {
      unavailable++;
    } else {
      other++;
    }
  }
  EXPECT_GT(ok, 0u);           // The pre-crash tick served some.
  EXPECT_GT(unavailable, 0u);  // The stranded remainder all resolved.
  EXPECT_EQ(ok + unavailable + other, futures.size());
}

TEST(FailoverTest, OverlappingFailuresFailBackToOldestPrimary) {
  // A (original primary, holds the data) fails -> B promoted. B fails
  // while interim primary -> C promoted. Whichever order A and B recover
  // in, A must end up leading again: B's engine only holds its brief
  // interim window, so letting it usurp A would flip pre-crash keys back
  // to NotFound.
  for (bool b_recovers_first : {false, true}) {
    ClusterOptions copts;
    copts.sim.seed = 47;
    copts.sim.failover_detection_ticks = 0;
    Cluster cluster(copts);
    PoolId pool = cluster.CreatePool(3);
    ASSERT_TRUE(cluster.CreateTenant(FailoverTenant(1), pool).ok());
    Client client = cluster.OpenClient(1);
    ASSERT_TRUE(client.Set("k", "pre-crash").ok());

    const NodeId a = cluster.meta().PrimaryFor(1, 0);
    cluster.FailNode(a);
    cluster.RunTicks(2);
    const NodeId b = cluster.meta().PrimaryFor(1, 0);
    ASSERT_NE(b, a);
    cluster.FailNode(b);
    cluster.RunTicks(2);
    ASSERT_NE(cluster.meta().PrimaryFor(1, 0), b);  // C leads.

    const NodeId first = b_recovers_first ? b : a;
    const NodeId second = b_recovers_first ? a : b;
    cluster.RecoverNode(first, 1);
    cluster.RunTicks(3);
    cluster.RecoverNode(second, 1);
    cluster.RunTicks(3);

    EXPECT_EQ(cluster.meta().PrimaryFor(1, 0), a)
        << "b_recovers_first=" << b_recovers_first;
    auto r = client.Get("k");
    ASSERT_TRUE(r.ok()) << "b_recovers_first=" << b_recovers_first << ": "
                        << r.status().ToString();
    EXPECT_EQ(r.value(), "pre-crash");
  }
}

TEST(FailoverTest, SingleReplicaPartitionStaysUnavailableUntilRecovery) {
  ClusterOptions copts;
  copts.sim.seed = 23;
  copts.sim.failover_detection_ticks = 0;
  Cluster cluster(copts);
  PoolId pool = cluster.CreatePool(3);
  ASSERT_TRUE(
      cluster.CreateTenant(FailoverTenant(1, 1, /*replicas=*/1), pool).ok());
  Client client = cluster.OpenClient(1);
  ASSERT_TRUE(client.Set("k", "v").ok());

  const NodeId primary = cluster.meta().PrimaryFor(1, 0);
  cluster.FailNode(primary);
  cluster.RunTicks(2);

  // No surviving replica to promote: the partition keeps its dead
  // primary and requests resolve Unavailable.
  EXPECT_EQ(cluster.meta().PrimaryFor(1, 0), primary);
  auto during = client.Get("k");
  EXPECT_TRUE(during.status().IsUnavailable());

  cluster.RecoverNode(primary, 1);
  cluster.RunTicks(3);
  auto after = client.Get("k");
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after.value(), "v");
}

/// Every replica of a partition lost in one tick. No survivor can be
/// promoted, so the partition keeps its dead primary, and the rebuilds
/// of its other two slots have no source: they park on the primary-slot
/// node instead of retrying a copy nothing can serve, and the failover
/// report names the partition as unserved. If that node comes back, both
/// parked copies run as soon as it serves again.
struct SameTickLossRun {
  std::vector<NodeId> before;  ///< Placement before the loss.
  std::vector<NodeId> after;   ///< Placement at the end of the run.
  size_t pending_after_loss = 0;
  size_t parked_after_loss = 0;
  uint64_t executed_after_loss = 0;
  std::vector<std::pair<TenantId, PartitionId>> unserved;
  size_t pending = 0;
  size_t parked = 0;
  uint64_t executed = 0;
  size_t keys_matching = 0;
};

SameTickLossRun RunSameTickLoss(bool recover_primary_slot) {
  ClusterOptions copts;
  copts.sim.seed = 101;
  Cluster cluster(copts);
  PoolId pool = cluster.CreatePool(6);
  EXPECT_TRUE(cluster.CreateTenant(FailoverTenant(1), pool).ok());
  cluster.sim().SetProxyCacheEnabled(1, false);  // Reads hit the nodes.
  constexpr int kKeys = 200;
  cluster.sim().PreloadKeys(1, kKeys, /*value_bytes=*/64, /*value_sigma=*/0);
  auto read_all = [&cluster]() {
    std::vector<Command> cmds;
    for (int i = 0; i < kKeys; i++) {
      cmds.push_back(Command::Get("t1:k" + std::to_string(i)));
    }
    auto futures = cluster.OpenClient(1).SubmitBatch(std::move(cmds));
    cluster.Drain();
    std::vector<std::string> values;
    for (const auto& f : futures) {
      values.push_back(f.ready() && f->ok() ? f->value : "<missing>");
    }
    return values;
  };
  const std::vector<std::string> preloaded = read_all();

  SameTickLossRun run;
  run.before = cluster.meta().GetTenant(1)->partitions[0].replicas;
  for (NodeId n : run.before) cluster.FailNode(n);  // All in one tick.
  cluster.RunTicks(300);
  run.pending_after_loss = cluster.sim().PendingRebuildCount();
  run.parked_after_loss = cluster.sim().ParkedRebuildCount();
  run.executed_after_loss = cluster.sim().ExecutedRebuildCount();
  if (cluster.sim().LastFailoverReport().has_value()) {
    run.unserved = cluster.sim().LastFailoverReport()->unserved_partitions;
  }
  if (recover_primary_slot) {
    cluster.RecoverNode(run.before[0]);
    cluster.RunTicks(50);
  }
  run.after = cluster.meta().GetTenant(1)->partitions[0].replicas;
  run.pending = cluster.sim().PendingRebuildCount();
  run.parked = cluster.sim().ParkedRebuildCount();
  run.executed = cluster.sim().ExecutedRebuildCount();
  const std::vector<std::string> values = read_all();
  for (int i = 0; i < kKeys; i++) {
    if (values[i] == preloaded[i] && values[i] != "<missing>") {
      run.keys_matching++;
    }
  }
  return run;
}

TEST(FailoverTest, SameTickLossOfEveryReplicaParksItsRebuilds) {
  const SameTickLossRun lost = RunSameTickLoss(/*recover_primary_slot=*/false);
  ASSERT_EQ(lost.before.size(), 3u);
  // Both source-less copies are still pending, and both are parked on
  // the dead primary slot: neither counts down or retries.
  EXPECT_EQ(lost.pending_after_loss, 2u);
  EXPECT_EQ(lost.parked_after_loss, 2u);
  EXPECT_EQ(lost.executed_after_loss, 0u);
  EXPECT_EQ(lost.unserved,
            (std::vector<std::pair<TenantId, PartitionId>>{{1, 0}}));
  EXPECT_EQ(lost.after, lost.before);
  EXPECT_EQ(lost.keys_matching, 0u);  // Nothing serves the partition.

  const SameTickLossRun back = RunSameTickLoss(/*recover_primary_slot=*/true);
  ASSERT_EQ(back.before, lost.before);
  EXPECT_EQ(back.pending_after_loss, 2u);
  EXPECT_EQ(back.parked_after_loss, 2u);
  // The primary-slot node recovered: both parked copies ran from it onto
  // two nodes outside the lost placement, and every key reads back.
  EXPECT_EQ(back.pending, 0u);
  EXPECT_EQ(back.parked, 0u);
  EXPECT_EQ(back.executed, 2u);
  ASSERT_EQ(back.after.size(), 3u);
  EXPECT_EQ(back.after[0], back.before[0]);
  for (size_t r = 1; r < back.after.size(); r++) {
    EXPECT_EQ(std::find(back.before.begin(), back.before.end(),
                        back.after[r]),
              back.before.end())
        << back.after[r];
  }
  EXPECT_EQ(back.keys_matching, 200u);
}

/// RecoverNode(node) without a duration sizes the catch-up from the
/// bytes each hosted replica must transfer, by class: a clean cursor
/// replays the primary's retained log delta; a demoted ex-primary and a
/// cursor behind the truncated log both take the primary's whole data.
TEST(FailoverTest, CatchUpBytesFollowEachReplicaClass) {
  ClusterOptions copts;
  copts.sim.seed = 71;
  copts.sim.failover_detection_ticks = 1;
  copts.sim.replication_lag_ticks = 2;
  copts.sim.re_replication_delay_ticks = 64;  // No rebuild moves a slot.
  Cluster cluster(copts);
  PoolId pool = cluster.CreatePool(4);
  ASSERT_TRUE(cluster.CreateTenant(FailoverTenant(1), pool).ok());
  Client client = cluster.OpenClient(1);
  sim::ClusterSim& sim = cluster.sim();
  auto write = [&client](const std::string& prefix, int n) {
    for (int i = 0; i < n; i++) {
      ASSERT_TRUE(client.Set(prefix + std::to_string(i),
                             std::string(100, 'v')).ok());
    }
  };
  auto engine = [&sim](NodeId n) { return sim.FindNode(n)->EngineFor(1, 0); };
  write("a", 10);
  cluster.RunTicks(3);  // The lag window drains: every cursor at the head.

  // Clean log delta: a replica down while the primary acknowledges ten
  // 2-byte keys with 100-byte values owes exactly their log records.
  const NodeId primary = cluster.meta().PrimaryFor(1, 0);
  const NodeId replica = cluster.meta().GetTenant(1)->partitions[0].replicas[1];
  cluster.FailNode(replica);
  cluster.Step();
  EXPECT_EQ(sim::ClusterSimTestPeer::CatchUpBytes(sim, replica), 0u);
  write("b", 10);
  EXPECT_EQ(sim::ClusterSimTestPeer::CatchUpBytes(sim, replica),
            10u * (2 + 100));

  // Behind the truncated log: once the primary drops the records the
  // replica still needs, only a snapshot of the primary's data will do.
  node::DataNode* pn = sim::ClusterSimTestPeer::Node(sim, primary);
  pn->EngineFor(1, 0)->TruncateReplLogThrough(engine(primary)->applied_seq());
  ASSERT_FALSE(engine(primary)->repl_log().Covers(
      engine(replica)->applied_seq()));
  EXPECT_EQ(sim::ClusterSimTestPeer::CatchUpBytes(sim, replica),
            engine(primary)->ApproximateDataBytes());
  cluster.RecoverNode(replica);
  cluster.RunTicks(4);
  ASSERT_TRUE(sim.FindNode(replica)->CanServe());

  // Demoted ex-primary: it dies holding writes the lag kept from the
  // replicas, and the promoted replica's history then runs past its
  // cursor. The overlap is divergent, so a delta would be wrong.
  write("c", 4);
  cluster.FailNode(primary);
  cluster.RunTicks(2);
  const NodeId promoted = cluster.meta().PrimaryFor(1, 0);
  ASSERT_NE(promoted, primary);
  ASSERT_TRUE(cluster.meta().HasDemotionClaim(primary, 1, 0));
  ASSERT_GT(sim.LastFailoverReport()->lost_acked_writes, 0u);
  write("d", 10);
  const uint64_t cursor = engine(primary)->applied_seq();
  ASSERT_LT(cursor, engine(promoted)->applied_seq());
  ASSERT_TRUE(engine(promoted)->repl_log().Covers(cursor));
  EXPECT_EQ(sim::ClusterSimTestPeer::CatchUpBytes(sim, primary),
            engine(promoted)->ApproximateDataBytes());
  EXPECT_NE(engine(promoted)->ApproximateDataBytes(),
            engine(promoted)->repl_log().BytesAfter(cursor));
}

TEST(FailoverTest, PermanentLossForfeitsFailbackClaims) {
  // A fails live -> B promoted (A holds a failback claim). A never comes
  // back, so its rebuild runs to completion and evicts it from the
  // placement. A's ghost claim must not block B's own failback after B
  // later fails and recovers.
  ClusterOptions copts;
  copts.sim.seed = 61;
  copts.sim.failover_detection_ticks = 0;
  Cluster cluster(copts);
  PoolId pool = cluster.CreatePool(4);
  ASSERT_TRUE(cluster.CreateTenant(FailoverTenant(1), pool).ok());
  Client client = cluster.OpenClient(1);
  ASSERT_TRUE(client.Set("k", "v").ok());

  const NodeId a = cluster.meta().PrimaryFor(1, 0);
  cluster.FailNode(a);
  cluster.RunTicks(2);
  const NodeId b = cluster.meta().PrimaryFor(1, 0);
  ASSERT_NE(b, a);
  ASSERT_TRUE(cluster.meta().HasDemotionClaim(a, 1, 0));
  for (int i = 0; i < 64 && cluster.sim().PendingRebuildCount() > 0; i++) {
    cluster.Step();
  }
  ASSERT_EQ(cluster.sim().PendingRebuildCount(), 0u);
  ASSERT_EQ(cluster.sim().ExecutedRebuildCount(), 1u);
  EXPECT_FALSE(cluster.meta().HasDemotionClaim(a, 1, 0));

  cluster.FailNode(b);
  cluster.RunTicks(2);
  ASSERT_NE(cluster.meta().PrimaryFor(1, 0), b);
  cluster.RecoverNode(b, 1);
  cluster.RunTicks(3);
  EXPECT_EQ(cluster.meta().PrimaryFor(1, 0), b);
}

TEST(FailoverTest, DownNodesInvisibleToReschedulingAndMigration) {
  ClusterOptions copts;
  copts.sim.seed = 53;
  Cluster cluster(copts);
  PoolId pool = cluster.CreatePool(4);
  ASSERT_TRUE(
      cluster.CreateTenant(FailoverTenant(1, /*partitions=*/4), pool).ok());

  const NodeId victim = cluster.meta().PrimaryFor(1, 0);
  cluster.FailNode(victim);
  cluster.RunTicks(2);

  // The pool model omits the dead node entirely — its zeroed load must
  // not make it the pool's most attractive migration destination.
  resched::PoolModel model = cluster.sim().BuildPoolModel(pool);
  EXPECT_EQ(model.nodes().size(), 3u);
  for (const auto& nm : model.nodes()) {
    EXPECT_NE(nm.id(), victim);
  }

  // And a direct migration onto it is rejected.
  resched::Migration m;
  m.tenant = 1;
  m.partition = 1;
  m.from = cluster.meta().PrimaryFor(1, 1);
  m.to = victim;
  auto outcomes = cluster.sim().ApplyMigrations({m});
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_TRUE(outcomes[0].status.IsUnavailable())
      << outcomes[0].status.ToString();
}

// --------------------------------------------------------- Permanent loss --

/// A node that fails and never recovers, on a 16-node pool over 3 AZs:
/// the Fault stage promotes the survivors and then rebuilds every
/// replica the node hosted on other nodes (Section 3.3). Reads-only
/// traffic keeps the data plane busy throughout. Everything observable
/// is folded into `digest` so runs at different worker counts compare
/// bit for bit.
struct PermanentLossRun {
  std::vector<uint64_t> digest;
  NodeId victim = kInvalidNode;
  size_t victim_replicas = 0;  ///< Still hosted by the victim at the end.
  size_t placements_naming_victim = 0;
  size_t distinct_targets = 0;
  size_t rebuilt = 0;
  size_t executed = 0;
  size_t keys_read = 0;
  size_t keys_matching = 0;  ///< Read back with their pre-failure value.
};

PermanentLossRun RunPermanentLoss(int workers) {
  ClusterOptions copts;
  copts.sim.seed = 211;
  copts.sim.data_plane_workers = workers;
  copts.sim.replication_lag_ticks = 0;
  copts.sim.re_replication_delay_ticks = 2;
  Cluster cluster(copts);
  PoolId pool = cluster.CreatePool(16);

  constexpr TenantId kTenants = 20;
  constexpr int kKeys = 40;
  for (TenantId t = 1; t <= kTenants; t++) {
    EXPECT_TRUE(cluster.CreateTenant(FailoverTenant(t, /*partitions=*/4), pool)
                    .ok());
    cluster.sim().SetProxyCacheEnabled(t, false);
    cluster.sim().PreloadKeys(t, kKeys, /*value_bytes=*/256);
    sim::WorkloadProfile profile;
    profile.base_qps = 40;
    profile.read_ratio = 1.0;  // The preloaded values stay put.
    profile.num_keys = kKeys;
    profile.value_bytes = 256;
    profile.eventual_read_fraction = 0.5;  // Rebuilt replicas serve too.
    cluster.AttachWorkload(t, profile);
  }

  auto read_all = [&cluster]() {
    std::vector<std::vector<Future<Reply>>> futures;
    for (TenantId t = 1; t <= kTenants; t++) {
      std::vector<Command> cmds;
      for (int i = 0; i < kKeys; i++) {
        cmds.push_back(Command::Get("t" + std::to_string(t) + ":k" +
                                    std::to_string(i)));
      }
      futures.push_back(cluster.OpenClient(t).SubmitBatch(std::move(cmds)));
    }
    cluster.Drain();
    std::vector<std::string> values;
    for (const auto& tenant_futures : futures) {
      for (const auto& f : tenant_futures) {
        values.push_back(f.ready() && f->ok() ? f->value : "<missing>");
      }
    }
    return values;
  };

  PermanentLossRun run;
  cluster.RunTicks(3);
  const std::vector<std::string> before = read_all();

  run.victim = cluster.meta().PrimaryFor(1, 0);
  cluster.FailNode(run.victim);
  cluster.Step();
  for (int i = 0; i < 64 && (!cluster.sim().LastFailoverReport() ||
                             cluster.sim().PendingRebuildCount() > 0);
       i++) {
    cluster.Step();
  }
  EXPECT_EQ(cluster.sim().PendingRebuildCount(), 0u);

  const auto& report = cluster.sim().LastFailoverReport();
  if (report.has_value()) {
    run.rebuilt = report->replicas_rebuilt;
    run.executed = report->replicas_rebuilt_executed;
    run.digest.insert(run.digest.end(),
                      {report->replicas_rebuilt, report->bytes_rebuilt,
                       report->parallel_sources, report->primaries_promoted,
                       report->lost_acked_writes,
                       report->replicas_rebuilt_executed});
    std::set<NodeId> targets;
    for (const meta::ReReplicationTarget& t :
         report->re_replication_targets) {
      targets.insert(t.target);
      run.digest.insert(run.digest.end(),
                        {t.tenant, t.partition, t.target, t.bytes});
    }
    run.distinct_targets = targets.size();
  }
  run.victim_replicas = cluster.sim().FindNode(run.victim)->replica_count();
  for (TenantId t = 1; t <= kTenants; t++) {
    for (const auto& placement : cluster.meta().GetTenant(t)->partitions) {
      for (NodeId nid : placement.replicas) {
        run.digest.push_back(nid);
        if (nid == run.victim) run.placements_naming_victim++;
      }
    }
  }

  const std::vector<std::string> after = read_all();
  run.keys_read = after.size();
  for (size_t i = 0; i < after.size() && i < before.size(); i++) {
    if (after[i] != "<missing>" && after[i] == before[i]) {
      run.keys_matching++;
    }
    run.digest.push_back(after[i].size());
  }
  for (TenantId t = 1; t <= kTenants; t++) {
    for (const sim::TenantTickMetrics& m : cluster.sim().History(t)) {
      run.digest.insert(run.digest.end(),
                        {m.issued, m.ok, m.errors, m.throttled, m.unavailable,
                         m.redirects, m.replica_reads, m.replica_lag_sum,
                         m.disk_reads, m.latency_count,
                         static_cast<uint64_t>(m.latency_sum),
                         static_cast<uint64_t>(m.ru_charged * 1e6)});
    }
  }
  return run;
}

TEST(FailoverTest, PermanentLossRebuildsInParallelThroughTheFaultStage) {
  const PermanentLossRun serial = RunPermanentLoss(/*workers=*/1);
  ASSERT_NE(serial.victim, kInvalidNode);
  EXPECT_GT(serial.rebuilt, 0u);
  EXPECT_EQ(serial.executed, serial.rebuilt);
  // The victim is out of every placement and holds nothing.
  EXPECT_EQ(serial.victim_replicas, 0u);
  EXPECT_EQ(serial.placements_naming_victim, 0u);
  // The lost replicas spread over many survivors, not one.
  EXPECT_GE(serial.distinct_targets, 5u);
  // Every preloaded key reads back with its pre-failure value.
  EXPECT_EQ(serial.keys_read, 20u * 40u);
  EXPECT_EQ(serial.keys_matching, serial.keys_read);

  for (int workers : {2, 4}) {
    const PermanentLossRun parallel = RunPermanentLoss(workers);
    EXPECT_EQ(parallel.digest, serial.digest) << workers << " workers";
  }
}

/// A node that holds a staged split child's primary fails for good while
/// the child data is still streaming. The Fault stage must fail the
/// staged child over like a committed partition: promote a surviving
/// child replica and rebuild the lost one, so the split commits with a
/// live primary and a full replica set. Everything observable is folded
/// into `digest` so runs at different worker counts compare bit for bit.
struct StagedChildLossRun {
  std::vector<uint64_t> digest;
  NodeId victim = kInvalidNode;
  uint64_t cutovers = 0;
  size_t pending_rebuilds = 0;
  size_t placements_naming_victim = 0;
  size_t keys_read = 0;
  size_t keys_unavailable = 0;
  size_t keys_matching = 0;  ///< Read back with the pre-split value.
};

StagedChildLossRun RunStagedChildLoss(int workers) {
  ClusterOptions copts;
  copts.sim.seed = 223;
  copts.sim.data_plane_workers = workers;
  copts.sim.split_bytes_per_tick = 4096;  // Streaming outlasts the rebuild.
  Cluster cluster(copts);
  PoolId pool = cluster.CreatePool(6);
  meta::TenantConfig cfg = FailoverTenant(1, /*partitions=*/2);
  cfg.tenant_quota_ru = 2000;
  cfg.partition_quota_upper = 5000;
  EXPECT_TRUE(cluster.CreateTenant(cfg, pool).ok());
  cluster.sim().SetProxyCacheEnabled(1, false);  // Reads hit the nodes.
  constexpr int kKeys = 2000;
  cluster.sim().PreloadKeys(1, kKeys, /*value_bytes=*/64, /*value_sigma=*/0);
  auto read_all = [&cluster]() {
    std::vector<Command> cmds;
    for (int i = 0; i < kKeys; i++) {
      cmds.push_back(Command::Get("t1:k" + std::to_string(i)));
    }
    auto futures = cluster.OpenClient(1).SubmitBatch(std::move(cmds));
    cluster.Drain();
    return futures;
  };
  std::vector<std::string> before;
  for (const auto& f : read_all()) {
    before.push_back(f.ready() && f->ok() ? f->value : "<missing>");
  }

  StagedChildLossRun run;
  // Raising the quota past UP stages a split: the children are placed
  // dark and stream from the parents over the next ticks.
  EXPECT_TRUE(cluster.sim().SetTenantQuota(1, 40000).ok());
  const meta::MetaServer::PendingSplit* pending =
      cluster.meta().GetPendingSplit(1);
  if (pending == nullptr) {
    ADD_FAILURE() << "quota past UP staged no split";
    return run;
  }
  run.victim = pending->children[0].primary();
  cluster.FailNode(run.victim);  // Never recovered.
  for (int i = 0; i < 400 && (cluster.sim().SplitCutovers() == 0 ||
                              cluster.sim().PendingRebuildCount() > 0);
       i++) {
    cluster.Step();
  }
  run.cutovers = cluster.sim().SplitCutovers();
  run.pending_rebuilds = cluster.sim().PendingRebuildCount();

  // Parent and child placements alike: the staged split is committed,
  // so every child is in the partition table.
  EXPECT_EQ(cluster.meta().GetPendingSplit(1), nullptr);
  for (const auto& placement : cluster.meta().GetTenant(1)->partitions) {
    for (NodeId nid : placement.replicas) {
      run.digest.push_back(nid);
      if (nid == run.victim) run.placements_naming_victim++;
    }
  }

  const auto after = read_all();
  for (size_t i = 0; i < after.size(); i++) {
    const auto& f = after[i];
    run.keys_read++;
    if (!f.ready()) continue;
    if (f->status.IsUnavailable()) run.keys_unavailable++;
    if (f->ok() && f->value == before[i]) run.keys_matching++;
    run.digest.insert(run.digest.end(),
                      {static_cast<uint64_t>(f->status.code()),
                       f->value.size()});
  }
  for (const sim::TenantTickMetrics& m : cluster.sim().History(1)) {
    run.digest.insert(run.digest.end(),
                      {m.issued, m.ok, m.errors, m.throttled, m.unavailable,
                       m.redirects, m.replica_lag_sum, m.disk_reads,
                       static_cast<uint64_t>(m.ru_charged * 1e6)});
  }
  return run;
}

TEST(FailoverTest, LostStagedSplitChildCommitsWithLivePrimary) {
  const StagedChildLossRun serial = RunStagedChildLoss(/*workers=*/1);
  ASSERT_NE(serial.victim, kInvalidNode);
  EXPECT_EQ(serial.cutovers, 1u);
  EXPECT_EQ(serial.pending_rebuilds, 0u);
  // The victim is out of every parent and child placement.
  EXPECT_EQ(serial.placements_naming_victim, 0u);
  // Every preloaded key reads back with its value.
  EXPECT_EQ(serial.keys_read, 2000u);
  EXPECT_EQ(serial.keys_unavailable, 0u);
  EXPECT_EQ(serial.keys_matching, serial.keys_read);

  for (int workers : {2, 4}) {
    const StagedChildLossRun parallel = RunStagedChildLoss(workers);
    EXPECT_EQ(parallel.digest, serial.digest) << workers << " workers";
  }
}

/// Every replica of both staged split children lands on the same three
/// nodes, and all three fail for good while the children stream. A child
/// with no serving replica must never cut over: the split is unstaged,
/// the parents keep serving every key, and the next quota raise past UP
/// stages the split again on serving nodes and cuts it over there.
/// Everything observable is folded into `digest` so runs at different
/// worker counts compare bit for bit.
struct DeadSplitChildrenRun {
  std::vector<uint64_t> digest;
  std::set<NodeId> victims;
  uint64_t cutovers_after_loss = 0;
  bool unstaged = false;  ///< No staged split, no split in progress.
  size_t pending_rebuilds = 0;
  /// Committed partitions with no replica on a serving node, summed over
  /// the check after the loss and the one after the second split.
  size_t dead_only_partitions = 0;
  bool restaged_on_live_nodes = false;
  uint64_t cutovers = 0;
  size_t partitions = 0;
  size_t keys_matching_after_loss = 0;
  size_t keys_matching_after_split = 0;
};

DeadSplitChildrenRun RunDeadSplitChildren(int workers) {
  ClusterOptions copts;
  copts.sim.seed = 223;
  copts.sim.data_plane_workers = workers;
  copts.sim.split_bytes_per_tick = 4096;  // Streaming outlasts detection.
  Cluster cluster(copts);
  PoolId pool = cluster.CreatePool(9);
  meta::TenantConfig cfg = FailoverTenant(1, /*partitions=*/2);
  cfg.tenant_quota_ru = 2000;
  cfg.partition_quota_upper = 5000;
  EXPECT_TRUE(cluster.CreateTenant(cfg, pool).ok());
  cluster.sim().SetProxyCacheEnabled(1, false);  // Reads hit the nodes.
  constexpr int kKeys = 2000;
  cluster.sim().PreloadKeys(1, kKeys, /*value_bytes=*/64, /*value_sigma=*/0);
  DeadSplitChildrenRun run;
  std::vector<std::string> before;
  // Reads every key, folds the outcomes into the digest, and returns how
  // many read back with their preloaded value.
  auto read_all = [&]() {
    std::vector<Command> cmds;
    for (int i = 0; i < kKeys; i++) {
      cmds.push_back(Command::Get("t1:k" + std::to_string(i)));
    }
    auto futures = cluster.OpenClient(1).SubmitBatch(std::move(cmds));
    cluster.Drain();
    size_t matching = 0;
    for (size_t i = 0; i < futures.size(); i++) {
      const auto& f = futures[i];
      const std::string value =
          f.ready() && f->ok() ? f->value : "<missing>";
      if (before.size() < futures.size()) before.push_back(value);
      if (value == before[i]) matching++;
      run.digest.insert(
          run.digest.end(),
          {f.ready() ? static_cast<uint64_t>(f->status.code()) : ~0ull,
           value.size()});
    }
    return matching;
  };
  auto count_dead_only = [&]() {
    for (const auto& placement : cluster.meta().GetTenant(1)->partitions) {
      bool serving = false;
      for (NodeId nid : placement.replicas) {
        run.digest.push_back(nid);
        serving = serving || cluster.sim().FindNode(nid)->CanServe();
      }
      if (!serving) run.dead_only_partitions++;
    }
  };
  read_all();  // The preloaded values.

  // Raising the quota past UP stages a split; on 9 nodes both children
  // are placed on the three nodes the parents leave free.
  EXPECT_TRUE(cluster.sim().SetTenantQuota(1, 40000).ok());
  const meta::MetaServer::PendingSplit* pending =
      cluster.meta().GetPendingSplit(1);
  if (pending == nullptr) {
    ADD_FAILURE() << "quota past UP staged no split";
    return run;
  }
  for (const auto& child : pending->children) {
    run.victims.insert(child.replicas.begin(), child.replicas.end());
  }
  for (NodeId victim : run.victims) cluster.FailNode(victim);  // For good.
  for (int i = 0; i < 200; i++) cluster.Step();
  run.cutovers_after_loss = cluster.sim().SplitCutovers();
  run.unstaged = cluster.meta().GetPendingSplit(1) == nullptr &&
                 !cluster.sim().SplitInProgress(1);
  run.pending_rebuilds = cluster.sim().PendingRebuildCount();
  count_dead_only();
  run.keys_matching_after_loss = read_all();

  // The next raise past UP stages the split again, on serving nodes.
  EXPECT_TRUE(cluster.sim().SetTenantQuota(1, 40000).ok());
  pending = cluster.meta().GetPendingSplit(1);
  run.restaged_on_live_nodes = pending != nullptr;
  if (pending != nullptr) {
    for (const auto& child : pending->children) {
      for (NodeId nid : child.replicas) {
        if (run.victims.count(nid) > 0) run.restaged_on_live_nodes = false;
      }
    }
  }
  for (int i = 0; i < 400 && cluster.sim().SplitsCompleted() == 0; i++) {
    cluster.Step();
  }
  run.cutovers = cluster.sim().SplitCutovers();
  run.partitions = cluster.meta().GetTenant(1)->partitions.size();
  count_dead_only();
  run.keys_matching_after_split = read_all();
  for (const sim::TenantTickMetrics& m : cluster.sim().History(1)) {
    run.digest.insert(run.digest.end(),
                      {m.issued, m.ok, m.errors, m.throttled, m.unavailable,
                       m.redirects, m.replica_lag_sum, m.disk_reads,
                       static_cast<uint64_t>(m.ru_charged * 1e6)});
  }
  return run;
}

TEST(FailoverTest, DeadSplitChildrenUnstageInsteadOfCuttingOver) {
  const DeadSplitChildrenRun serial = RunDeadSplitChildren(/*workers=*/1);
  ASSERT_EQ(serial.victims.size(), 3u);
  // The split never cut over onto the dead children: it was unstaged,
  // and no source-less child rebuild is left retrying.
  EXPECT_EQ(serial.cutovers_after_loss, 0u);
  EXPECT_TRUE(serial.unstaged);
  EXPECT_EQ(serial.pending_rebuilds, 0u);
  EXPECT_EQ(serial.dead_only_partitions, 0u);
  EXPECT_EQ(serial.keys_matching_after_loss, 2000u);
  // The second raise splits on serving nodes.
  EXPECT_TRUE(serial.restaged_on_live_nodes);
  EXPECT_EQ(serial.cutovers, 1u);
  EXPECT_EQ(serial.partitions, 4u);
  EXPECT_EQ(serial.keys_matching_after_split, 2000u);

  for (int workers : {2, 4}) {
    const DeadSplitChildrenRun parallel = RunDeadSplitChildren(workers);
    EXPECT_EQ(parallel.digest, serial.digest) << workers << " workers";
  }
}

// ------------------------------------------------------------- Determinism --

/// The pipeline_test determinism scenario with a mid-run primary failure
/// and recovery spliced in at fixed ticks.
std::vector<std::vector<sim::TenantTickMetrics>> RunFailoverScenario(
    int workers, size_t ticks) {
  sim::SimOptions opt;
  opt.seed = 4321;
  opt.data_plane_workers = workers;
  sim::ClusterSim sim(opt);
  PoolId pool = sim.AddPool(16);

  constexpr TenantId kTenants = 8;
  for (TenantId t = 1; t <= kTenants; t++) {
    meta::TenantConfig c = FailoverTenant(t, /*partitions=*/4);
    c.tenant_quota_ru = 20000 + 1000.0 * t;
    c.num_proxies = 2;
    EXPECT_TRUE(sim.AddTenant(c, pool).ok());
    sim.PreloadKeys(t, /*num_keys=*/200, /*value_bytes=*/256);

    sim::WorkloadProfile profile;
    profile.base_qps = 150 + 30.0 * t;
    profile.read_ratio = (t % 2 == 0) ? 0.95 : 0.6;
    profile.num_keys = 200;
    profile.value_bytes = 256;
    // Replica reads must stay deterministic through the failover too.
    profile.eventual_read_fraction = (t % 2 == 0) ? 0.4 : 0.0;
    sim.SetWorkload(t, profile);
  }

  const NodeId victim = sim.meta().PrimaryFor(1, 0);
  for (size_t tick = 0; tick < ticks; tick++) {
    if (tick == 6) sim.FailNode(victim);
    if (tick == 13) sim.RecoverNode(victim, 2);
    sim.Tick();
  }

  std::vector<std::vector<sim::TenantTickMetrics>> histories;
  for (TenantId t = 1; t <= kTenants; t++) {
    histories.push_back(sim.History(t));
  }
  return histories;
}

TEST(FailoverTest, MidRunFailoverBitIdenticalAcrossWorkers) {
  constexpr size_t kTicks = 24;
  auto serial = RunFailoverScenario(/*workers=*/1, kTicks);
  ASSERT_FALSE(serial.empty());

  // The scenario must actually exercise the failure domain.
  uint64_t unavailable = 0, redirects = 0;
  for (const auto& history : serial) {
    for (const auto& m : history) {
      unavailable += m.unavailable;
      redirects += m.redirects;
    }
  }
  EXPECT_GT(unavailable, 0u);
  EXPECT_GT(redirects, 0u);

  for (int workers : {2, 4}) {
    auto parallel = RunFailoverScenario(workers, kTicks);
    ASSERT_EQ(parallel.size(), serial.size()) << workers << " workers";
    for (size_t t = 0; t < serial.size(); t++) {
      ASSERT_EQ(parallel[t].size(), serial[t].size())
          << workers << " workers, tenant " << t + 1;
      for (size_t tick = 0; tick < serial[t].size(); tick++) {
        const auto& a = serial[t][tick];
        const auto& b = parallel[t][tick];
        ASSERT_TRUE(a.issued == b.issued && a.ok == b.ok &&
                    a.errors == b.errors && a.throttled == b.throttled &&
                    a.unavailable == b.unavailable &&
                    a.redirects == b.redirects &&
                    a.replica_reads == b.replica_reads &&
                    a.replica_lag_sum == b.replica_lag_sum &&
                    a.proxy_hits == b.proxy_hits &&
                    a.node_cache_hits == b.node_cache_hits &&
                    a.disk_reads == b.disk_reads &&
                    a.reads_completed == b.reads_completed &&
                    a.ru_charged == b.ru_charged &&
                    a.latency_sum == b.latency_sum &&
                    a.latency_max == b.latency_max &&
                    a.latency_count == b.latency_count)
            << workers << " workers, tenant " << t + 1 << ", tick " << tick;
      }
    }
  }
}

}  // namespace
}  // namespace abase
