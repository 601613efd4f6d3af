// MetaServer — paper Section 3.2 (Control Plane) and Section 3.3
// (Recovery and Robustness).
//
// The centralized management component: global metadata (tenants,
// partitions, replica placement), key routing, pool health, parallel
// replica reconstruction after node failure, tenant quota scaling with
// partition split, and the asynchronous proxy-traffic clamp loop.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "common/hash.h"
#include "common/status.h"
#include "common/types.h"
#include "node/data_node.h"
#include "quota/quota.h"

namespace abase {
namespace sim {
class ClusterSim;
class FailureDomain;
}  // namespace sim
namespace meta {

class MetaServerTestPeer;

/// Static description of a tenant at creation time.
struct TenantConfig {
  TenantId id = 0;
  std::string name;
  double tenant_quota_ru = 10000;
  uint64_t storage_quota_bytes = 1ull << 30;
  uint32_t num_partitions = 4;
  uint32_t num_proxies = 4;
  uint32_t num_proxy_groups = 2;
  int replicas = 3;
  /// Partition quota upper bound: exceeding it triggers a split
  /// (Algorithm 1's UP).
  double partition_quota_upper = 50000;
  /// Partition quota floor kept after down-scaling (Algorithm 1's LOWER).
  double partition_quota_lower = 200;
  /// Per-tenant latency SLO target in micros: a settled client latency
  /// above it counts one violation toward the tenant's SLO burn rate
  /// (latency subsystem). 0 = use the cluster default
  /// (LatencyOptions::slo_target_micros).
  int64_t slo_target_micros = 0;
};

/// Placement of one partition: replica nodes; index 0 is the primary.
struct PartitionPlacement {
  std::vector<NodeId> replicas;
  NodeId primary() const {
    return replicas.empty() ? kInvalidNode : replicas[0];
  }
};

/// Live tenant metadata.
struct TenantMeta {
  TenantConfig config;
  PoolId pool = 0;
  double tenant_quota_ru = 0;  ///< Current (scaled) quota.
  std::vector<PartitionPlacement> partitions;
  quota::TenantTrafficMonitor monitor{0};
  Micros last_scale_down = -1;

  double PartitionQuota() const {
    return partitions.empty()
               ? tenant_quota_ru
               : tenant_quota_ru / static_cast<double>(partitions.size());
  }
};

/// One planned (or executed) replica rebuild after a node failure.
struct ReReplicationTarget {
  TenantId tenant = 0;
  PartitionId partition = 0;
  NodeId target = kInvalidNode;  ///< Surviving node receiving the copy.
  uint64_t bytes = 0;  ///< Partition state to copy (sizes the rebuild ticks).
};

/// Outcome of a node-failure recovery, contrasting the multi-tenant
/// parallel rebuild with a single-replacement-node rebuild (Section 3.3).
struct RecoveryReport {
  size_t replicas_rebuilt = 0;
  uint64_t bytes_rebuilt = 0;
  size_t parallel_sources = 0;
  double parallel_recovery_seconds = 0;  ///< N-node parallel rebuild.
  double single_node_recovery_seconds = 0;  ///< Classic replacement node.
  /// Partitions whose primary moved to a surviving replica (live
  /// failover path).
  size_t primaries_promoted = 0;
  /// Acknowledged writes the promoted replicas had not yet applied at
  /// promotion time (summed over promoted partitions): the lost-write
  /// window of an asynchronous-replication failover. 0 when the
  /// replication lag is 0.
  uint64_t lost_acked_writes = 0;
  /// Planned re-replication targets the Fault stage has executed so far
  /// (real partition state copied; incremented as rebuilds complete).
  size_t replicas_rebuilt_executed = 0;
  /// Where each lost replica is to be rebuilt: planned placements (the
  /// node may yet come back and catch up instead); the Fault stage
  /// executes them once the grace period passes with the node still
  /// down.
  std::vector<ReReplicationTarget> re_replication_targets;
  /// Partitions (and staged split children) of the failed node left
  /// with no replica on a serving node once this promotion ran: every
  /// copy is down, so nothing serves them, and their rebuilds park until
  /// one of those nodes recovers. Ordered by (tenant, partition).
  std::vector<std::pair<TenantId, PartitionId>> unserved_partitions;
};

/// Centralized control plane over a set of resource pools.
class MetaServer {
 public:
  explicit MetaServer(const Clock* clock);

  // -- Topology ---------------------------------------------------------------

  /// Registers a pool of DataNodes (non-owning pointers). Membership is
  /// fixed: a permanently lost node stays in its pool as kFailed, and
  /// placement skips it.
  PoolId CreatePool(std::vector<node::DataNode*> nodes);

  /// Number of registered pools (pool ids are dense: 0..count-1).
  size_t PoolCount() const { return pools_.size(); }

  /// Placement version of `pool`: bumped by every change to the
  /// partition table of a tenant placed in it — wherever the routing
  /// epoch moves, plus staged split children being placed. Equal
  /// versions mean an identical partition table for every tenant of the
  /// pool.
  uint64_t PoolPlacementVersion(PoolId pool) const {
    return pool < pool_versions_.size() ? pool_versions_[pool] : 0;
  }

  // -- Tenants ----------------------------------------------------------------

  /// Creates a tenant: places num_partitions x replicas across the pool
  /// (least-loaded placement, one replica per node per partition) and
  /// installs partition quotas on the hosting nodes.
  Status CreateTenant(const TenantConfig& config, PoolId pool);

  /// Striped O(replicas) initial placement for bulk tenant registration:
  /// CreateTenant puts replica r of partition p at pool index
  /// (tenant + p*replicas + r) mod pool size, advancing past nodes that
  /// are down or already host the partition, instead of scanning the
  /// whole pool for the least-loaded node. Million-tenant registration
  /// is quadratic without this. Splits, migrations, and failure
  /// recovery keep the least-loaded scan either way.
  void SetStripedPlacement(bool striped) { striped_placement_ = striped; }

  const TenantMeta* GetTenant(TenantId tenant) const;

  /// Hash-routes a key to its partition.
  PartitionId PartitionFor(TenantId tenant, std::string_view key) const;

  /// PartitionFor with a caller-computed Fnv1a64(key): the hot path
  /// hashes each key once at generate time and reuses it here.
  PartitionId PartitionForHashed(TenantId tenant, uint64_t key_hash) const;

  /// Primary node currently serving (tenant, partition).
  NodeId PrimaryFor(TenantId tenant, PartitionId partition) const;

  /// Monotonically increasing routing-table version. Bumped by every
  /// placement mutation (tenant creation, split commit, migration,
  /// failover promotion, executed re-replication, failback). Proxies
  /// cache routing tables stamped with this epoch and chase a redirect —
  /// refresh and retry — when a forward observes a stale one; they never
  /// consult the MetaServer per request.
  uint64_t routing_epoch() const { return routing_epoch_; }

  /// Drains the tenants whose placement moved the routing epoch since
  /// the previous call, appending them to `out` in bump order (a tenant
  /// may repeat). Returns false instead when the changed set was not
  /// recorded — a node-level event (PromoteFailover or RestorePrimary
  /// moving a primary) moved it, or the log outgrew the tenant count —
  /// and the caller must treat every tenant as changed.
  bool TakePlacementChanges(std::vector<TenantId>* out);

  // -- Staged (online) partition split -----------------------------------------
  //
  // The live split is a three-step state machine driven by the
  // simulator's Control stage:
  //
  //   PrepareSplit   children staged kPreparing: replicas placed on
  //       |          nodes (empty engines), NOT in the routing table —
  //       |          PartitionFor keeps hashing mod N, every request
  //       |          still reaches the parents
  //   (streaming)    the re-hashed key range is copied out of the parent
  //       |          primaries at a configured bytes-per-tick rate
  //   CommitSplit    cutover: the staged placements are appended to the
  //                  partition table atomically, quotas halve, and the
  //                  routing epoch bumps — the next forward re-hashes
  //                  mod 2N and chases one redirect to the children

  /// Child placements staged by PrepareSplit, not yet routable.
  struct PendingSplit {
    uint32_t old_count = 0;  ///< Partition count before the split.
    /// children[i] serves partition old_count + i after the commit.
    std::vector<PartitionPlacement> children;
  };

  /// Stages the child placements of a split, doubling the partition
  /// count once committed: child p + old_count of each partition p is
  /// placed on the least-loaded live pool node, but not installed.
  /// All-or-nothing: if any child replica cannot be placed
  /// (ResourceExhausted), every replica staged by this call is removed
  /// again and the pool is left exactly as it was. InvalidArgument if a
  /// split is already staged for the tenant.
  Status PrepareSplit(TenantId tenant);

  /// The tenant's staged split, or nullptr.
  const PendingSplit* GetPendingSplit(TenantId tenant) const;

  /// Installs a staged split: children join the partition table, the
  /// per-partition quota halves and is pushed to every hosting node, and
  /// the routing epoch bumps. The caller (Control stage) must have
  /// finished streaming the child data first.
  Status CommitSplit(TenantId tenant);

  /// Moves one replica of (tenant, partition) from node `from` to node
  /// `to`, updating placement metadata (used by the rescheduler bridge).
  Status MigrateReplica(TenantId tenant, PartitionId partition, NodeId from,
                        NodeId to);

  // -- Failure recovery ---------------------------------------------------------

  /// Live failover after `node` crashed: for every partition whose
  /// primary it was, the alive replica with the *highest applied
  /// replication sequence* (ties broken in placement order) is promoted
  /// to primary and serves its actually-applied state; acknowledged
  /// writes it had not yet applied are counted in
  /// RecoveryReport::lost_acked_writes (zero under replication lag 0).
  /// `node` stays in the placement as a stale replica so it can resync
  /// and fail back later. Every replica the node hosted also gets a
  /// *planned* re-replication target, picked in (tenant, partition)
  /// order as sequential placement would: the dead node's AZ counts as
  /// free, and each pick adds the quota of the targets already planned
  /// to the candidates' load, so the copies spread over many survivors
  /// (Section 3.3's parallel rebuild). The Fault stage executes the copy
  /// after a grace period unless the node starts recovering first: a
  /// node that never recovers is a permanent loss, rebuilt in full.
  /// Bumps the routing epoch when any primary moved. Partitions with no
  /// surviving replica keep their dead primary and stay unavailable
  /// until recovery. Staged split children are failed over and planned
  /// like partitions. The report's recovery seconds divide the copied
  /// bytes by `rebuild_bandwidth_bytes_per_sec`, the rate the caller's
  /// copies actually run at.
  Result<RecoveryReport> PromoteFailover(
      NodeId node, double rebuild_bandwidth_bytes_per_sec);

  /// Executes one planned re-replication: copies the partition's (or
  /// staged split child's) state from its (alive) primary onto
  /// `target`, which takes over `dead`'s placement slot; `dead` drops
  /// the replica and forfeits any failback claim on the partition (it
  /// no longer owns it). Fails when the dead
  /// node still holds the primary slot (no alive source to copy from),
  /// when the target is down or already hosts the partition, or when
  /// `dead` left the placement. Bumps the routing epoch on success.
  Status ExecuteReReplication(TenantId tenant, PartitionId partition,
                              NodeId dead, NodeId target);

  /// Whether `node` holds an outstanding failback claim for (tenant,
  /// partition) — i.e. it was this partition's primary when it failed
  /// and its engine may hold an unreplicated (divergent) write suffix.
  bool HasDemotionClaim(NodeId node, TenantId tenant,
                        PartitionId partition) const;

  /// Failback after `node` recovered and caught up: re-promotes it to
  /// primary for every partition PromoteFailover demoted it from (the
  /// simulator resyncs its engines from the interim primaries first, so
  /// it rejoins with the authoritative history), bumping the routing
  /// epoch.
  /// Under overlapping failures only the *oldest* outstanding demotion
  /// claim for a partition wins the failback — an interim primary that
  /// itself failed and recovered must not usurp the original (its engine
  /// only holds its brief interim window). Returns the number of
  /// primaries restored.
  size_t RestorePrimary(NodeId node);

  // -- Asynchronous proxy traffic control ---------------------------------------

  /// Ingests one monitoring interval's aggregate proxy RU/s for a tenant;
  /// returns the clamp directive the proxies should apply.
  bool ReportProxyTraffic(TenantId tenant, double aggregate_ru_per_sec);

  bool IsClamped(TenantId tenant) const;

 private:
  // The quota actuator (ClusterSim::SetTenantQuota) is the only caller
  // of SetTenantQuota: it also re-bases the proxies and stages the
  // split, which a direct metadata update would skip. ClusterSim, which
  // owns the nodes, is also the only reader of PoolNodes.
  friend class sim::ClusterSim;
  friend class sim::FailureDomain;  // PlacementOf of a staged split child.
  friend class MetaServerTestPeer;

  /// Applies a new tenant quota and pushes the new per-partition quota
  /// to every hosting node. Never changes the partition count: a
  /// partition quota above UP (Algorithm 1 lines 4-6) is the caller's
  /// cue to stage an online split (PrepareSplit / CommitSplit), which
  /// ClusterSim::SetTenantQuota does.
  Status SetTenantQuota(TenantId tenant, double new_quota_ru);

  const std::vector<node::DataNode*>& PoolNodes(PoolId pool) const;

  node::DataNode* FindNode(PoolId pool, NodeId id) const;

  /// Placement of (meta's tenant, partition): a committed partition or a
  /// staged split child. nullptr when neither exists.
  const PartitionPlacement* PlacementOf(const TenantMeta& meta,
                                        PartitionId partition) const;
  PartitionPlacement* PlacementOf(TenantMeta& meta, PartitionId partition) {
    return const_cast<PartitionPlacement*>(
        std::as_const(*this).PlacementOf(std::as_const(meta), partition));
  }

  /// Drops the tenant's staged split: every staged child replica leaves
  /// its node and the pool's placement version moves. The split
  /// orchestrator's exit when a child has no serving replica left to
  /// cut over onto. No-op when nothing is staged.
  void UnstageSplit(TenantId tenant);

  /// Least-loaded placement: picks the pool node with the smallest total
  /// partition quota that does not already hold a replica of (tenant,
  /// partition). A rebuild passes the dead node as `replacing` (its AZ
  /// counts as free) and the quota that earlier picks of the same
  /// failover already planned onto each node (added to that node's
  /// load). Returns nullptr if none qualifies.
  node::DataNode* PickNodeForReplica(
      PoolId pool, TenantId tenant, PartitionId partition,
      NodeId replacing = kInvalidNode,
      const std::map<NodeId, double>* planned_quota = nullptr) const;

  /// Striped creation-time placement (SetStripedPlacement). Returns
  /// nullptr if no pool node can take the replica.
  node::DataNode* PickNodeStriped(PoolId pool, TenantId tenant,
                                  PartitionId partition, int replica) const;

  /// Removes every staged replica of `children` (child i = partition
  /// first_child + i) from its hosting node — PrepareSplit's rollback
  /// when a child replica cannot be placed, and UnstageSplit.
  void UnstagePlacements(const TenantMeta& meta, uint32_t first_child,
                         const std::vector<PartitionPlacement>& children);

  void PushPartitionQuotas(TenantMeta& meta);

  /// Pool containing `node`, or kInvalidNode-equivalent failure (pool
  /// count) when absent from every pool.
  PoolId PoolOf(NodeId node) const;

  /// Records one placement change of `meta`'s tenant: bumps the routing
  /// epoch and the pool's placement version, and logs the tenant.
  void TenantPlacementChanged(const TenantMeta& meta);

  /// Records a node-level placement change in `pool` whose tenant set is
  /// not logged: bumps the epoch and the pool's placement version.
  void PoolPlacementChanged(PoolId pool);

  const Clock* clock_;
  std::vector<std::vector<node::DataNode*>> pools_;
  std::map<TenantId, TenantMeta> tenants_;
  /// Staged-but-uncommitted split placements (PrepareSplit).
  std::map<TenantId, PendingSplit> pending_splits_;
  uint64_t routing_epoch_ = 1;
  std::vector<uint64_t> pool_versions_;  ///< Parallel to pools_.
  /// TakePlacementChanges' log; `all` when the set was not recorded.
  std::vector<TenantId> placement_log_;
  bool placement_log_all_ = false;
  /// One partition a failed node was demoted from, stamped with a
  /// monotonic sequence so overlapping failures fail back in demotion
  /// order (oldest claim wins).
  struct DemotionClaim {
    TenantId tenant = 0;
    PartitionId partition = 0;
    uint64_t seq = 0;
  };
  /// Partitions PromoteFailover demoted each failed node from, so
  /// RestorePrimary can fail back exactly those.
  std::map<NodeId, std::vector<DemotionClaim>> demoted_;
  uint64_t demotion_seq_ = 0;
  bool striped_placement_ = false;
};

}  // namespace meta
}  // namespace abase
