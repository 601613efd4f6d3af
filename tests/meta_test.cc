// Tests for the MetaServer (Section 3.2 control plane, Section 3.3
// recovery): placement, routing, scaling with partition split, replica
// migration, and parallel failure recovery.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <type_traits>
#include <utility>

#include "common/clock.h"
#include "core/abase.h"
#include "meta/meta_server.h"
#include "sim/cluster_sim.h"
#include "storage/replication_log.h"

namespace abase {
namespace meta {

/// Test-only access to MetaServer's metadata-only quota update, which
/// outside code reaches only through ClusterSim::SetTenantQuota.
class MetaServerTestPeer {
 public:
  static Status SetTenantQuota(MetaServer& meta, TenantId tenant,
                               double quota_ru) {
    return meta.SetTenantQuota(tenant, quota_ru);
  }
};

namespace {

template <typename T, typename = void>
struct CanSetTenantQuota : std::false_type {};
template <typename T>
struct CanSetTenantQuota<
    T, std::void_t<decltype(std::declval<T&>().SetTenantQuota(TenantId{},
                                                               0.0))>>
    : std::true_type {};
// A quota applied straight to the metadata would skip the proxy re-base
// and the split staging; outside code must not be able to call it. The
// actuator that does both stays callable.
static_assert(!CanSetTenantQuota<MetaServer>::value,
              "MetaServer::SetTenantQuota must stay private");
static_assert(CanSetTenantQuota<sim::ClusterSim>::value,
              "ClusterSim::SetTenantQuota is the quota actuator");

template <typename T, typename = void>
struct MetaAccessorIsReadOnly : std::false_type {};
template <typename T>
struct MetaAccessorIsReadOnly<T,
                              std::void_t<decltype(std::declval<T&>().meta())>>
    : std::is_same<decltype(std::declval<T&>().meta()), const MetaServer&> {};
// Placement changes go through the simulator's fault, migration, quota
// and split paths; the metadata view it hands out cannot mutate.
static_assert(MetaAccessorIsReadOnly<sim::ClusterSim>::value,
              "ClusterSim::meta() must return const MetaServer&");
static_assert(MetaAccessorIsReadOnly<Cluster>::value,
              "Cluster::meta() must return const MetaServer&");

// Nodes and time change only through the pipeline: every node handle
// ClusterSim hands out, even from a mutable simulator, is read-only.
template <typename T, typename = void>
struct FindNodeIsReadOnly : std::false_type {};
template <typename T>
struct FindNodeIsReadOnly<
    T, std::void_t<decltype(std::declval<T&>().FindNode(NodeId{}))>>
    : std::is_same<decltype(std::declval<T&>().FindNode(NodeId{})),
                   const node::DataNode*> {};
static_assert(FindNodeIsReadOnly<sim::ClusterSim>::value,
              "ClusterSim::FindNode must return const node::DataNode*");

// `&**it` is what an element's `->` reaches.
template <typename T, typename = void>
struct NodesAreReadOnly : std::false_type {};
template <typename T>
struct NodesAreReadOnly<
    T, std::void_t<decltype(&**std::declval<T&>().nodes().begin())>>
    : std::is_same<decltype(&**std::declval<T&>().nodes().begin()),
                   const node::DataNode*> {};
static_assert(NodesAreReadOnly<sim::ClusterSim>::value,
              "ClusterSim::nodes() elements must be const node::DataNode*");

template <typename T, typename = void>
struct ClockIsReadOnly : std::false_type {};
template <typename T>
struct ClockIsReadOnly<T, std::void_t<decltype(std::declval<T&>().clock())>>
    : std::is_same<decltype(std::declval<T&>().clock()), const SimClock&> {};
static_assert(ClockIsReadOnly<sim::ClusterSim>::value,
              "ClusterSim::clock() must return const SimClock&");

template <typename T, typename = void>
struct CanReadPoolNodes : std::false_type {};
template <typename T>
struct CanReadPoolNodes<
    T, std::void_t<decltype(std::declval<const T&>().PoolNodes(PoolId{}))>>
    : std::true_type {};
static_assert(!CanReadPoolNodes<MetaServer>::value,
              "MetaServer::PoolNodes must stay private to ClusterSim");

class MetaTest : public ::testing::Test {
 protected:
  /// Rebuild copy rate the recovery reports are priced at.
  static constexpr double kRebuildBytesPerSec = 200.0 * 1024 * 1024;

  MetaTest() : clock_(0), meta_(&clock_) {
    for (NodeId i = 0; i < 6; i++) {
      nodes_.push_back(std::make_unique<node::DataNode>(
          i, node::DataNodeOptions{}, &clock_));
    }
    std::vector<node::DataNode*> raw;
    for (auto& n : nodes_) raw.push_back(n.get());
    pool_ = meta_.CreatePool(raw);
  }

  TenantConfig Config(TenantId id, uint32_t partitions = 4,
                      int replicas = 3) {
    TenantConfig c;
    c.id = id;
    c.name = "tenant" + std::to_string(id);
    c.tenant_quota_ru = 8000;
    c.num_partitions = partitions;
    c.replicas = replicas;
    return c;
  }

  SimClock clock_;
  MetaServer meta_;
  std::vector<std::unique_ptr<node::DataNode>> nodes_;
  PoolId pool_ = 0;
};

TEST_F(MetaTest, CreateTenantPlacesAllReplicas) {
  ASSERT_TRUE(meta_.CreateTenant(Config(1), pool_).ok());
  const TenantMeta* t = meta_.GetTenant(1);
  ASSERT_NE(t, nullptr);
  EXPECT_EQ(t->partitions.size(), 4u);
  size_t total = 0;
  for (const auto& p : t->partitions) {
    EXPECT_EQ(p.replicas.size(), 3u);
    // Replica safety: three distinct nodes per partition.
    std::set<NodeId> uniq(p.replicas.begin(), p.replicas.end());
    EXPECT_EQ(uniq.size(), 3u);
    total += p.replicas.size();
  }
  // All replicas physically exist on nodes.
  size_t hosted = 0;
  for (auto& n : nodes_) hosted += n->replica_count();
  EXPECT_EQ(hosted, total);
}

TEST_F(MetaTest, DuplicateTenantRejected) {
  ASSERT_TRUE(meta_.CreateTenant(Config(1), pool_).ok());
  EXPECT_FALSE(meta_.CreateTenant(Config(1), pool_).ok());
}

TEST_F(MetaTest, PoolSmallerThanReplicasRejected) {
  std::vector<std::unique_ptr<node::DataNode>> tiny;
  std::vector<node::DataNode*> raw;
  for (NodeId i = 100; i < 102; i++) {
    tiny.push_back(std::make_unique<node::DataNode>(
        i, node::DataNodeOptions{}, &clock_));
    raw.push_back(tiny.back().get());
  }
  PoolId small_pool = meta_.CreatePool(raw);
  EXPECT_TRUE(meta_.CreateTenant(Config(9, 2, 3), small_pool)
                  .IsResourceExhausted());
}

TEST_F(MetaTest, ReplicasSpreadAcrossAvailabilityZones) {
  // 6 nodes in 3 AZs (2 each): every partition's 3 replicas must land in
  // 3 distinct AZs (paper Section 3.1).
  for (size_t i = 0; i < nodes_.size(); i++) {
    nodes_[i]->set_az(static_cast<uint32_t>(i % 3));
  }
  ASSERT_TRUE(meta_.CreateTenant(Config(1), pool_).ok());
  for (const auto& placement : meta_.GetTenant(1)->partitions) {
    std::set<uint32_t> azs;
    for (NodeId nid : placement.replicas) {
      for (auto& n : nodes_) {
        if (n->id() == nid) azs.insert(n->az());
      }
    }
    EXPECT_EQ(azs.size(), 3u);
  }
}

TEST_F(MetaTest, AzPreferenceFallsBackWhenZonesExhausted) {
  // All nodes in ONE AZ: placement still succeeds (replica safety only).
  for (auto& n : nodes_) n->set_az(7);
  ASSERT_TRUE(meta_.CreateTenant(Config(1), pool_).ok());
  EXPECT_EQ(meta_.GetTenant(1)->partitions.size(), 4u);
}

TEST_F(MetaTest, PlacementBalancesQuota) {
  ASSERT_TRUE(meta_.CreateTenant(Config(1, 6, 3), pool_).ok());
  // 18 replicas over 6 nodes: least-loaded placement keeps counts even.
  size_t min_count = 99, max_count = 0;
  for (auto& n : nodes_) {
    min_count = std::min(min_count, n->replica_count());
    max_count = std::max(max_count, n->replica_count());
  }
  EXPECT_LE(max_count - min_count, 1u);
}

TEST_F(MetaTest, KeyRoutingStableAndInRange) {
  ASSERT_TRUE(meta_.CreateTenant(Config(1), pool_).ok());
  PartitionId p1 = meta_.PartitionFor(1, "user:12345");
  EXPECT_EQ(p1, meta_.PartitionFor(1, "user:12345"));
  EXPECT_LT(p1, 4u);
  NodeId primary = meta_.PrimaryFor(1, p1);
  EXPECT_NE(primary, kInvalidNode);
  EXPECT_EQ(meta_.PrimaryFor(1, 99), kInvalidNode);
  EXPECT_EQ(meta_.PrimaryFor(42, 0), kInvalidNode);
}

TEST_F(MetaTest, SetTenantQuotaPropagatesPartitionQuotas) {
  ASSERT_TRUE(meta_.CreateTenant(Config(1), pool_).ok());
  ASSERT_TRUE(MetaServerTestPeer::SetTenantQuota(meta_, 1, 16000).ok());
  const TenantMeta* t = meta_.GetTenant(1);
  EXPECT_DOUBLE_EQ(t->tenant_quota_ru, 16000);
  EXPECT_DOUBLE_EQ(t->PartitionQuota(), 4000);
}

TEST_F(MetaTest, PrepareSplitRollsBackOnPlacementFailure) {
  // Regression: a mid-loop placement failure used to return early with
  // the failing child's replicas already added to nodes — node replica
  // sets and the partitions vector disagreed forever after. Staging a
  // split must be all-or-nothing.
  ASSERT_TRUE(meta_.CreateTenant(Config(1, 2, 3), pool_).ok());
  const size_t old_partitions = meta_.GetTenant(1)->partitions.size();
  std::vector<size_t> replica_counts;
  for (auto& n : nodes_) replica_counts.push_back(n->replica_count());

  // Leave only two serveable nodes: a 3-replica child cannot be placed.
  for (size_t i = 2; i < nodes_.size(); i++) nodes_[i]->Fail();
  EXPECT_TRUE(meta_.PrepareSplit(1).IsResourceExhausted());

  // Nothing changed: no split is staged, no child partition exists
  // anywhere, node replica sets are exactly as before the failed attempt.
  EXPECT_EQ(meta_.GetPendingSplit(1), nullptr);
  EXPECT_EQ(meta_.GetTenant(1)->partitions.size(), old_partitions);
  for (size_t i = 0; i < nodes_.size(); i++) {
    EXPECT_EQ(nodes_[i]->replica_count(), replica_counts[i]) << "node " << i;
    for (PartitionId child = static_cast<PartitionId>(old_partitions);
         child < 2 * old_partitions; child++) {
      EXPECT_FALSE(nodes_[i]->HasReplica(1, child))
          << "node " << i << " kept stale child " << child;
    }
  }
}

TEST_F(MetaTest, StagedSplitPrepareCommitLifecycle) {
  ASSERT_TRUE(meta_.CreateTenant(Config(1, 2, 3), pool_).ok());
  const uint64_t epoch_before = meta_.routing_epoch();

  // Prepare: children placed on nodes but invisible to routing.
  ASSERT_TRUE(meta_.PrepareSplit(1).ok());
  const MetaServer::PendingSplit* pending = meta_.GetPendingSplit(1);
  ASSERT_NE(pending, nullptr);
  EXPECT_EQ(pending->old_count, 2u);
  ASSERT_EQ(pending->children.size(), 2u);
  EXPECT_EQ(meta_.GetTenant(1)->partitions.size(), 2u);
  EXPECT_EQ(meta_.routing_epoch(), epoch_before);
  size_t staged_hosted = 0;
  for (auto& n : nodes_) {
    for (PartitionId child = 2; child < 4; child++) {
      if (n->HasReplica(1, child)) staged_hosted++;
    }
  }
  EXPECT_EQ(staged_hosted, 6u);
  // No double staging.
  EXPECT_FALSE(meta_.PrepareSplit(1).ok());
  // A quota change never changes the partition count.
  ASSERT_TRUE(MetaServerTestPeer::SetTenantQuota(meta_, 1, 1e9).ok());
  EXPECT_EQ(meta_.GetTenant(1)->partitions.size(), 2u);

  // Commit: children join the table atomically, epoch bumps.
  ASSERT_TRUE(meta_.CommitSplit(1).ok());
  EXPECT_EQ(meta_.GetTenant(1)->partitions.size(), 4u);
  EXPECT_GT(meta_.routing_epoch(), epoch_before);
  EXPECT_EQ(meta_.GetPendingSplit(1), nullptr);
  EXPECT_FALSE(meta_.CommitSplit(1).ok());  // Nothing staged anymore.
}

TEST_F(MetaTest, ScaleDownRecordsTimestamp) {
  ASSERT_TRUE(meta_.CreateTenant(Config(1), pool_).ok());
  clock_.Advance(kMicrosPerDay);
  ASSERT_TRUE(MetaServerTestPeer::SetTenantQuota(meta_, 1, 4000).ok());
  EXPECT_EQ(meta_.GetTenant(1)->last_scale_down, kMicrosPerDay);
}

TEST_F(MetaTest, InvalidQuotaRejected) {
  ASSERT_TRUE(meta_.CreateTenant(Config(1), pool_).ok());
  EXPECT_FALSE(MetaServerTestPeer::SetTenantQuota(meta_, 1, -5).ok());
  EXPECT_TRUE(
      MetaServerTestPeer::SetTenantQuota(meta_, 77, 100).IsNotFound());
}

TEST_F(MetaTest, MigrateReplicaMovesDataAndMetadata) {
  ASSERT_TRUE(meta_.CreateTenant(Config(1), pool_).ok());
  const TenantMeta* t = meta_.GetTenant(1);
  NodeId from = t->partitions[0].replicas[0];
  // Find a node not hosting partition 0.
  NodeId to = kInvalidNode;
  for (auto& n : nodes_) {
    if (!n->HasReplica(1, 0)) {
      to = n->id();
      break;
    }
  }
  ASSERT_NE(to, kInvalidNode);
  ASSERT_TRUE(meta_.MigrateReplica(1, 0, from, to).ok());
  EXPECT_EQ(meta_.GetTenant(1)->partitions[0].replicas[0], to);
  // Double-migration to an occupied node fails.
  EXPECT_FALSE(meta_.MigrateReplica(1, 0, to, to).ok());
}

TEST_F(MetaTest, MigrateReplicaCarriesRealEngineState) {
  ASSERT_TRUE(meta_.CreateTenant(Config(1, 1, 3), pool_).ok());
  NodeId from = meta_.GetTenant(1)->partitions[0].replicas[0];
  node::DataNode* src = nullptr;
  for (auto& n : nodes_) {
    if (n->id() == from) src = n.get();
  }
  ASSERT_NE(src, nullptr);
  ASSERT_TRUE(src->EngineFor(1, 0)->Put("migrated-key", "payload").ok());

  NodeId to = kInvalidNode;
  for (auto& n : nodes_) {
    if (!n->HasReplica(1, 0)) to = n->id();
  }
  ASSERT_NE(to, kInvalidNode);
  ASSERT_TRUE(meta_.MigrateReplica(1, 0, from, to).ok());

  // The moved replica holds the source's real state and stream cursor —
  // not an empty engine.
  node::DataNode* dst = nullptr;
  for (auto& n : nodes_) {
    if (n->id() == to) dst = n.get();
  }
  ASSERT_NE(dst, nullptr);
  ASSERT_TRUE(dst->HasReplica(1, 0));
  auto r = dst->EngineFor(1, 0)->Get("migrated-key");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), "payload");
  EXPECT_EQ(dst->EngineFor(1, 0)->applied_seq(), 1u);
}

TEST_F(MetaTest, ExecuteReReplicationReplacesDeadSlotWithRealCopy) {
  ASSERT_TRUE(meta_.CreateTenant(Config(1, 1, 3), pool_).ok());
  const TenantMeta* t = meta_.GetTenant(1);
  const NodeId victim = t->partitions[0].replicas[0];
  node::DataNode* primary = nullptr;
  for (auto& n : nodes_) {
    if (n->id() == victim) primary = n.get();
  }
  ASSERT_NE(primary, nullptr);
  auto* engine = primary->EngineFor(1, 0);
  ASSERT_TRUE(engine->Put("k", "v").ok());
  // Stream the write to the surviving replicas so the promoted one has it.
  for (size_t r = 1; r < t->partitions[0].replicas.size(); r++) {
    for (auto& n : nodes_) {
      if (n->id() != t->partitions[0].replicas[r]) continue;
      engine->repl_log().ForEachDelta(
          0, engine->applied_seq(),
          [&](const storage::ReplRecordPtr& rec) {
            EXPECT_TRUE(n->ApplyReplicated(1, 0, rec));
            return true;
          });
    }
  }

  primary->Fail();
  auto report = meta_.PromoteFailover(victim, kRebuildBytesPerSec);
  ASSERT_TRUE(report.ok());
  ASSERT_EQ(report.value().primaries_promoted, 1u);
  ASSERT_FALSE(report.value().re_replication_targets.empty());
  ASSERT_TRUE(meta_.HasDemotionClaim(victim, 1, 0));

  const ReReplicationTarget& target = report.value().re_replication_targets[0];
  ASSERT_TRUE(
      meta_.ExecuteReReplication(1, 0, victim, target.target).ok());

  // The target joined the placement with the real data; the dead node
  // left it and forfeited its failback claim.
  const auto& reps = meta_.GetTenant(1)->partitions[0].replicas;
  EXPECT_NE(std::find(reps.begin(), reps.end(), target.target), reps.end());
  EXPECT_EQ(std::find(reps.begin(), reps.end(), victim), reps.end());
  EXPECT_FALSE(meta_.HasDemotionClaim(victim, 1, 0));
  node::DataNode* dst = nullptr;
  for (auto& n : nodes_) {
    if (n->id() == target.target) dst = n.get();
  }
  ASSERT_NE(dst, nullptr);
  auto r = dst->EngineFor(1, 0)->Get("k");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), "v");

  // Executing the same plan twice is refused (the slot moved on).
  EXPECT_FALSE(
      meta_.ExecuteReReplication(1, 0, victim, target.target).ok());
}

TEST_F(MetaTest, ParallelRecoveryFasterThanSingleNode) {
  ASSERT_TRUE(meta_.CreateTenant(Config(1, 6, 3), pool_).ok());
  // Write some data so replicas have bytes.
  for (auto& n : nodes_) {
    for (const node::PartitionReplica* rep : n->Replicas()) {
      auto* engine = n->EngineFor(rep->tenant, rep->partition);
      for (int i = 0; i < 20; i++) {
        ASSERT_TRUE(
            engine->Put("key" + std::to_string(i), std::string(1024, 'x'))
                .ok());
      }
    }
  }
  nodes_[0]->Fail();
  auto report = meta_.PromoteFailover(nodes_[0]->id(), kRebuildBytesPerSec);
  ASSERT_TRUE(report.ok());
  // Section 3.3: multi-node parallel rebuild beats the single-replacement
  // rebuild whenever the lost replicas spread over >1 target.
  EXPECT_GT(report.value().parallel_sources, 1u);
  EXPECT_LT(report.value().parallel_recovery_seconds,
            report.value().single_node_recovery_seconds);
}

TEST_F(MetaTest, FailoverSpreadsPlannedRebuildsOverSurvivors) {
  // 16 partitions x 3 replicas on 6 nodes: the victim hosts 8. Each
  // planned target counts the quota of the targets planned before it,
  // so the copies spread 3/3/2 instead of all landing on one node.
  ASSERT_TRUE(meta_.CreateTenant(Config(1, 16, 3), pool_).ok());
  const NodeId victim = nodes_[0]->id();
  const size_t lost = nodes_[0]->replica_count();
  ASSERT_EQ(lost, 8u);
  nodes_[0]->Fail();
  auto report = meta_.PromoteFailover(victim, kRebuildBytesPerSec);
  ASSERT_TRUE(report.ok());
  ASSERT_EQ(report.value().re_replication_targets.size(), lost);
  std::map<NodeId, size_t> per_target;
  for (const ReReplicationTarget& t : report.value().re_replication_targets) {
    EXPECT_NE(t.target, victim);
    per_target[t.target]++;
  }
  std::vector<size_t> counts;
  for (const auto& [nid, count] : per_target) counts.push_back(count);
  std::sort(counts.rbegin(), counts.rend());
  EXPECT_EQ(counts, (std::vector<size_t>{3, 3, 2}));
  EXPECT_EQ(report.value().parallel_sources, 3u);
}

TEST_F(MetaTest, ProxyTrafficClampLoop) {
  ASSERT_TRUE(meta_.CreateTenant(Config(1), pool_).ok());
  EXPECT_FALSE(meta_.ReportProxyTraffic(1, 7000));  // Below 8000 quota.
  EXPECT_FALSE(meta_.IsClamped(1));
  EXPECT_TRUE(meta_.ReportProxyTraffic(1, 9000));
  EXPECT_TRUE(meta_.IsClamped(1));
  EXPECT_FALSE(meta_.ReportProxyTraffic(1, 3000));  // Recovers.
}

TEST_F(MetaTest, PlacementChangesAreScopedToTheTenantsThatMoved) {
  std::vector<TenantId> changed;
  for (TenantId t = 1; t <= 3; t++) {
    ASSERT_TRUE(meta_.CreateTenant(Config(t, 2, 2), pool_).ok());
  }
  EXPECT_TRUE(meta_.TakePlacementChanges(&changed));
  EXPECT_EQ(changed, (std::vector<TenantId>{1, 2, 3}));

  // A drained log stays empty until the next placement change.
  changed.clear();
  const uint64_t version = meta_.PoolPlacementVersion(pool_);
  EXPECT_TRUE(meta_.TakePlacementChanges(&changed));
  EXPECT_TRUE(changed.empty());

  // Staging a split moves the pool version but not routing.
  const uint64_t epoch = meta_.routing_epoch();
  ASSERT_TRUE(meta_.PrepareSplit(2).ok());
  EXPECT_EQ(meta_.routing_epoch(), epoch);
  EXPECT_GT(meta_.PoolPlacementVersion(pool_), version);
  EXPECT_TRUE(meta_.TakePlacementChanges(&changed));
  EXPECT_TRUE(changed.empty());

  // Tenant-scoped bumps log exactly the tenant that moved.
  ASSERT_TRUE(meta_.CommitSplit(2).ok());
  NodeId to = kInvalidNode;
  for (auto& n : nodes_) {
    if (!n->HasReplica(3, 0)) to = n->id();
  }
  ASSERT_TRUE(meta_.MigrateReplica(
                       3, 0, meta_.GetTenant(3)->partitions[0].replicas[1], to)
                  .ok());
  EXPECT_TRUE(meta_.TakePlacementChanges(&changed));
  EXPECT_EQ(changed, (std::vector<TenantId>{2, 3}));

  // A node-level event does not record its tenant set.
  changed.clear();
  const NodeId victim = meta_.PrimaryFor(1, 0);
  nodes_[victim]->Fail();
  ASSERT_GT(meta_.PromoteFailover(victim, kRebuildBytesPerSec)
                .value()
                .primaries_promoted,
            0u);
  EXPECT_FALSE(meta_.TakePlacementChanges(&changed));
  EXPECT_TRUE(changed.empty());
  EXPECT_TRUE(meta_.TakePlacementChanges(&changed));
}

}  // namespace
}  // namespace meta
}  // namespace abase
