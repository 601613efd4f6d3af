#include "meta/meta_server.h"

#include <algorithm>
#include <cassert>
#include <set>

namespace abase {
namespace meta {
namespace {

/// Quota of one replica of (meta's tenant, partition): a staged split
/// child carries the post-split share PrepareSplit gave it.
double PlacementQuota(const TenantMeta& meta, PartitionId partition) {
  return partition < meta.partitions.size()
             ? meta.PartitionQuota()
             : meta.tenant_quota_ru /
                   static_cast<double>(meta.partitions.size() * 2);
}

}  // namespace

MetaServer::MetaServer(const Clock* clock) : clock_(clock) {
  assert(clock_ != nullptr);
}

// ---------------------------------------------------------------------------
// Topology
// ---------------------------------------------------------------------------

PoolId MetaServer::CreatePool(std::vector<node::DataNode*> nodes) {
  pools_.push_back(std::move(nodes));
  pool_versions_.push_back(0);
  return static_cast<PoolId>(pools_.size() - 1);
}

const std::vector<node::DataNode*>& MetaServer::PoolNodes(
    PoolId pool) const {
  static const std::vector<node::DataNode*> kEmpty;
  return pool < pools_.size() ? pools_[pool] : kEmpty;
}

node::DataNode* MetaServer::FindNode(PoolId pool, NodeId id) const {
  if (pool >= pools_.size()) return nullptr;
  for (node::DataNode* n : pools_[pool]) {
    if (n->id() == id) return n;
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// Tenants
// ---------------------------------------------------------------------------

node::DataNode* MetaServer::PickNodeForReplica(
    PoolId pool, TenantId tenant, PartitionId partition, NodeId replacing,
    const std::map<NodeId, double>* planned_quota) const {
  // AZs already used by this partition's replicas: placing in a fresh AZ
  // is strictly preferred (Section 3.1), falling back to AZ reuse only
  // when no conflict-free node exists. The replica being replaced no
  // longer counts: its AZ is free again.
  std::set<uint32_t> used_azs;
  for (node::DataNode* n : pools_[pool]) {
    if (n->id() == replacing) continue;
    if (n->HasReplica(tenant, partition)) used_azs.insert(n->az());
  }

  node::DataNode* best = nullptr;
  bool best_fresh_az = false;
  double best_quota = 0;
  for (node::DataNode* n : pools_[pool]) {
    if (!n->CanServe()) continue;  // Never place onto a down node.
    if (n->HasReplica(tenant, partition)) continue;  // Replica safety.
    bool fresh = used_azs.count(n->az()) == 0;
    double q = n->TotalPartitionQuota();
    if (planned_quota != nullptr) {
      auto pit = planned_quota->find(n->id());
      if (pit != planned_quota->end()) q += pit->second;
    }
    if (best == nullptr || (fresh && !best_fresh_az) ||
        (fresh == best_fresh_az && q < best_quota)) {
      best = n;
      best_fresh_az = fresh;
      best_quota = q;
    }
  }
  return best;
}

node::DataNode* MetaServer::PickNodeStriped(PoolId pool, TenantId tenant,
                                            PartitionId partition,
                                            int replica) const {
  const auto& nodes = pools_[pool];
  if (nodes.empty()) return nullptr;
  // Deterministic stripe: replicas of a partition start at consecutive
  // pool slots offset by the tenant id, so bulk registration spreads
  // evenly without consulting per-node load; the advance loop below
  // resolves conflicts (down node, replica already placed).
  const size_t start = (static_cast<size_t>(tenant) +
                        static_cast<size_t>(partition) +
                        static_cast<size_t>(replica)) %
                       nodes.size();
  for (size_t off = 0; off < nodes.size(); off++) {
    node::DataNode* n = nodes[(start + off) % nodes.size()];
    if (!n->CanServe()) continue;
    if (n->HasReplica(tenant, partition)) continue;
    return n;
  }
  return nullptr;
}

Status MetaServer::CreateTenant(const TenantConfig& config, PoolId pool) {
  if (pool >= pools_.size()) return Status::InvalidArgument("no such pool");
  if (tenants_.count(config.id) > 0) {
    return Status::InvalidArgument("tenant id already exists");
  }
  if (config.num_partitions == 0 || config.replicas < 1) {
    return Status::InvalidArgument("bad partition/replica count");
  }
  if (pools_[pool].size() < static_cast<size_t>(config.replicas)) {
    return Status::ResourceExhausted("pool smaller than replica count");
  }

  TenantMeta meta;
  meta.config = config;
  meta.pool = pool;
  meta.tenant_quota_ru = config.tenant_quota_ru;
  meta.monitor.SetTenantQuota(config.tenant_quota_ru);
  double partition_quota =
      config.tenant_quota_ru / static_cast<double>(config.num_partitions);

  for (PartitionId p = 0; p < config.num_partitions; p++) {
    PartitionPlacement placement;
    for (int r = 0; r < config.replicas; r++) {
      node::DataNode* n = striped_placement_
                              ? PickNodeStriped(pool, config.id, p, r)
                              : PickNodeForReplica(pool, config.id, p);
      if (n == nullptr) {
        return Status::ResourceExhausted("no placeable node for replica");
      }
      n->AddReplica(config.id, p, partition_quota, /*is_primary=*/r == 0);
      placement.replicas.push_back(n->id());
    }
    meta.partitions.push_back(std::move(placement));
  }
  TenantPlacementChanged(tenants_.emplace(config.id, std::move(meta))
                             .first->second);
  return Status::OK();
}

const TenantMeta* MetaServer::GetTenant(TenantId tenant) const {
  auto it = tenants_.find(tenant);
  return it == tenants_.end() ? nullptr : &it->second;
}

PartitionId MetaServer::PartitionFor(TenantId tenant,
                                     std::string_view key) const {
  return PartitionForHashed(tenant, Fnv1a64(key));
}

PartitionId MetaServer::PartitionForHashed(TenantId tenant,
                                           uint64_t key_hash) const {
  auto it = tenants_.find(tenant);
  if (it == tenants_.end() || it->second.partitions.empty()) return 0;
  return static_cast<PartitionId>(key_hash % it->second.partitions.size());
}

NodeId MetaServer::PrimaryFor(TenantId tenant, PartitionId partition) const {
  auto it = tenants_.find(tenant);
  if (it == tenants_.end()) return kInvalidNode;
  if (partition >= it->second.partitions.size()) return kInvalidNode;
  return it->second.partitions[partition].primary();
}

// ---------------------------------------------------------------------------
// Scaling
// ---------------------------------------------------------------------------

void MetaServer::PushPartitionQuotas(TenantMeta& meta) {
  double pq = meta.PartitionQuota();
  for (PartitionId p = 0; p < meta.partitions.size(); p++) {
    for (NodeId nid : meta.partitions[p].replicas) {
      node::DataNode* n = FindNode(meta.pool, nid);
      if (n != nullptr) n->SetPartitionQuota(meta.config.id, p, pq);
    }
  }
}

Status MetaServer::SetTenantQuota(TenantId tenant, double new_quota_ru) {
  auto it = tenants_.find(tenant);
  if (it == tenants_.end()) return Status::NotFound("no such tenant");
  TenantMeta& meta = it->second;
  if (new_quota_ru <= 0) return Status::InvalidArgument("quota must be > 0");

  if (new_quota_ru < meta.tenant_quota_ru) {
    meta.last_scale_down = clock_->NowMicros();
  }
  meta.tenant_quota_ru = new_quota_ru;
  meta.monitor.SetTenantQuota(new_quota_ru);
  PushPartitionQuotas(meta);
  return Status::OK();
}

void MetaServer::UnstagePlacements(
    const TenantMeta& meta, uint32_t first_child,
    const std::vector<PartitionPlacement>& children) {
  for (size_t c = 0; c < children.size(); c++) {
    PartitionId child = static_cast<PartitionId>(first_child + c);
    for (NodeId nid : children[c].replicas) {
      if (node::DataNode* n = FindNode(meta.pool, nid)) {
        n->RemoveReplica(meta.config.id, child);
      }
    }
  }
}

Status MetaServer::PrepareSplit(TenantId tenant) {
  auto it = tenants_.find(tenant);
  if (it == tenants_.end()) return Status::NotFound("no such tenant");
  if (pending_splits_.count(tenant) > 0) {
    return Status::InvalidArgument("split already staged");
  }
  TenantMeta& meta = it->second;
  // Each partition p spawns a sibling p' = p + old_count, placed fresh
  // (least-loaded). Any failure rolls back every replica this call
  // already placed, so the pool and the placement metadata never
  // disagree about a half-born split.
  const size_t old_count = meta.partitions.size();
  const double new_pq =
      meta.tenant_quota_ru / static_cast<double>(old_count * 2);
  PendingSplit pending;
  pending.old_count = static_cast<uint32_t>(old_count);
  for (size_t p = 0; p < old_count; p++) {
    PartitionId child = static_cast<PartitionId>(old_count + p);
    PartitionPlacement placement;
    for (int r = 0; r < meta.config.replicas; r++) {
      node::DataNode* n =
          PickNodeForReplica(meta.pool, meta.config.id, child);
      if (n == nullptr) {
        // Unwind the partial child too: one more (possibly incomplete)
        // entry in the staged list, then one shared removal pass.
        pending.children.push_back(std::move(placement));
        UnstagePlacements(meta, pending.old_count, pending.children);
        return Status::ResourceExhausted("no placeable node for split");
      }
      n->AddReplica(meta.config.id, child, new_pq, r == 0);
      placement.replicas.push_back(n->id());
    }
    pending.children.push_back(std::move(placement));
  }
  pending_splits_.emplace(tenant, std::move(pending));
  // No epoch bump and no partition-table change: the children are
  // invisible to routing until CommitSplit. They do load their nodes
  // (pinned in the rescheduler's model), so the pool version moves.
  pool_versions_[meta.pool]++;
  return Status::OK();
}

const PartitionPlacement* MetaServer::PlacementOf(
    const TenantMeta& meta, PartitionId partition) const {
  if (partition < meta.partitions.size()) return &meta.partitions[partition];
  auto it = pending_splits_.find(meta.config.id);
  if (it == pending_splits_.end()) return nullptr;
  // Staged children number on from the committed partitions (old_count
  // equals the partition count until CommitSplit).
  const size_t child = partition - meta.partitions.size();
  auto& children = it->second.children;
  return child < children.size() ? &children[child] : nullptr;
}

void MetaServer::UnstageSplit(TenantId tenant) {
  auto it = tenants_.find(tenant);
  auto pit = pending_splits_.find(tenant);
  if (it == tenants_.end() || pit == pending_splits_.end()) return;
  UnstagePlacements(it->second, pit->second.old_count, pit->second.children);
  pending_splits_.erase(pit);
  // Like PrepareSplit: the children never reached routing, but their
  // replicas left the nodes' load.
  pool_versions_[it->second.pool]++;
}

const MetaServer::PendingSplit* MetaServer::GetPendingSplit(
    TenantId tenant) const {
  auto it = pending_splits_.find(tenant);
  return it == pending_splits_.end() ? nullptr : &it->second;
}

Status MetaServer::CommitSplit(TenantId tenant) {
  auto it = tenants_.find(tenant);
  auto pit = pending_splits_.find(tenant);
  if (it == tenants_.end()) return Status::NotFound("no such tenant");
  if (pit == pending_splits_.end()) {
    return Status::NotFound("no staged split");
  }
  TenantMeta& meta = it->second;
  for (PartitionPlacement& placement : pit->second.children) {
    meta.partitions.push_back(std::move(placement));
  }
  pending_splits_.erase(pit);
  PushPartitionQuotas(meta);
  TenantPlacementChanged(meta);
  return Status::OK();
}

Status MetaServer::MigrateReplica(TenantId tenant, PartitionId partition,
                                  NodeId from, NodeId to) {
  auto it = tenants_.find(tenant);
  if (it == tenants_.end()) return Status::NotFound("no such tenant");
  TenantMeta& meta = it->second;
  if (partition >= meta.partitions.size()) {
    return Status::InvalidArgument("no such partition");
  }
  node::DataNode* src = FindNode(meta.pool, from);
  node::DataNode* dst = FindNode(meta.pool, to);
  if (src == nullptr || dst == nullptr) {
    return Status::NotFound("node not in tenant pool");
  }
  if (!dst->CanServe()) {
    return Status::Unavailable("destination node is down");
  }
  if (!src->HasReplica(tenant, partition)) {
    return Status::NotFound("source does not host replica");
  }
  if (dst->HasReplica(tenant, partition)) {
    return Status::InvalidArgument("destination already hosts replica");
  }
  auto& reps = meta.partitions[partition].replicas;
  auto rit = std::find(reps.begin(), reps.end(), from);
  if (rit == reps.end()) return Status::Internal("placement out of sync");
  bool was_primary = rit == reps.begin();

  double pq = meta.PartitionQuota();
  dst->AddReplica(tenant, partition, pq, was_primary);
  // The migration carries the replica's real state: clone the source
  // engine before dropping it (SSTable runs are shared, so the clone is
  // cheap; a migrated non-primary then catches the stream up from its
  // cloned cursor at the next Replicate step).
  if (storage::LsmEngine* src_engine = src->EngineFor(tenant, partition)) {
    dst->ResyncReplica(tenant, partition, *src_engine);
  }
  src->RemoveReplica(tenant, partition);
  *rit = to;
  TenantPlacementChanged(meta);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Failure recovery
// ---------------------------------------------------------------------------

void MetaServer::TenantPlacementChanged(const TenantMeta& meta) {
  routing_epoch_++;
  pool_versions_[meta.pool]++;
  if (placement_log_all_) return;
  if (placement_log_.size() >= tenants_.size()) {
    // Bounded: past one entry per tenant the log says nothing a full
    // rebuild would not, and an undrained log must not grow forever.
    placement_log_.clear();
    placement_log_all_ = true;
    return;
  }
  placement_log_.push_back(meta.config.id);
}

void MetaServer::PoolPlacementChanged(PoolId pool) {
  routing_epoch_++;
  if (pool < pool_versions_.size()) pool_versions_[pool]++;
  placement_log_.clear();
  placement_log_all_ = true;
}

bool MetaServer::TakePlacementChanges(std::vector<TenantId>* out) {
  const bool recorded = !placement_log_all_;
  if (recorded) out->insert(out->end(), placement_log_.begin(),
                            placement_log_.end());
  placement_log_.clear();
  placement_log_all_ = false;
  return recorded;
}

PoolId MetaServer::PoolOf(NodeId node) const {
  for (PoolId p = 0; p < pools_.size(); p++) {
    for (node::DataNode* n : pools_[p]) {
      if (n->id() == node) return p;
    }
  }
  return static_cast<PoolId>(pools_.size());
}

Result<RecoveryReport> MetaServer::PromoteFailover(
    NodeId node, double rebuild_bandwidth_bytes_per_sec) {
  PoolId pool = PoolOf(node);
  if (pool >= pools_.size()) return Status::NotFound("node not in any pool");
  node::DataNode* failed = FindNode(pool, node);

  RecoveryReport report;
  bool placement_changed = false;
  std::map<NodeId, uint64_t> bytes_per_target;
  // Partition quota of the targets planned so far: each pick sees the
  // load the earlier rebuilds will add, so the copies spread over many
  // survivors instead of all landing on the one least-loaded node.
  std::map<NodeId, double> planned_quota;
  // tenants_ is ordered, so promotions and planned targets come out in a
  // fixed (tenant, partition) order — the fault path runs from serial
  // pipeline sections and must stay deterministic.
  // A staged split child is failed over like a committed partition, so
  // it commits with a live primary and a full replica set.
  for (auto& [tid, meta] : tenants_) {
    if (meta.pool != pool) continue;
    for (PartitionId p = 0;
         PartitionPlacement* placement = PlacementOf(meta, p); p++) {
      auto& reps = placement->replicas;
      auto rit = std::find(reps.begin(), reps.end(), node);
      if (rit == reps.end()) continue;

      if (rit == reps.begin()) {
        // Promote the alive replica whose engine applied the most of the
        // dead primary's replication stream (ties break in placement
        // order): it serves its actually-applied state, so picking the
        // freshest replica minimizes the lost-write window.
        size_t best = 0;
        uint64_t best_applied = 0;
        for (size_t r = 1; r < reps.size(); r++) {
          node::DataNode* candidate = FindNode(pool, reps[r]);
          if (candidate == nullptr || !candidate->CanServe()) continue;
          storage::LsmEngine* engine = candidate->EngineFor(tid, p);
          uint64_t applied = engine != nullptr ? engine->applied_seq() : 0;
          if (best == 0 || applied > best_applied) {
            best = r;
            best_applied = applied;
          }
        }
        if (best != 0) {
          node::DataNode* candidate = FindNode(pool, reps[best]);
          std::swap(reps[0], reps[best]);
          candidate->SetReplicaPrimary(tid, p, true);
          if (failed != nullptr) {
            failed->SetReplicaPrimary(tid, p, false);
            // Acknowledged writes beyond the promoted replica's cursor
            // were never shipped: they are lost to clients until (and
            // unless) the dead node resyncs and fails back — and the
            // resync discards them, so they are lost for good.
            if (storage::LsmEngine* dead_engine = failed->EngineFor(tid, p)) {
              uint64_t dead_applied = dead_engine->applied_seq();
              if (dead_applied > best_applied) {
                report.lost_acked_writes += dead_applied - best_applied;
              }
            }
          }
          demoted_[node].push_back(DemotionClaim{tid, p, ++demotion_seq_});
          report.primaries_promoted++;
          placement_changed = true;
        }
        // No survivor: the partition keeps its dead primary and stays
        // unavailable until the node recovers and fails back.
      }
      const bool served =
          std::any_of(reps.begin(), reps.end(), [&](NodeId r) {
            const node::DataNode* n = FindNode(pool, r);
            return n != nullptr && n->CanServe();
          });
      if (!served) report.unserved_partitions.emplace_back(tid, p);

      // Plan (but do not execute) the re-replication that would restore
      // the replication factor if the node never came back.
      uint64_t bytes = 0;
      if (failed != nullptr) {
        if (storage::LsmEngine* engine = failed->EngineFor(tid, p)) {
          bytes = engine->ApproximateDataBytes();
        }
      }
      if (node::DataNode* target =
              PickNodeForReplica(pool, tid, p, node, &planned_quota)) {
        report.re_replication_targets.push_back(
            ReReplicationTarget{tid, p, target->id(), bytes});
        bytes_per_target[target->id()] += bytes;
        planned_quota[target->id()] += PlacementQuota(meta, p);
      }
      report.replicas_rebuilt++;
      report.bytes_rebuilt += bytes;
    }
  }

  report.parallel_sources = bytes_per_target.size();
  uint64_t max_target_bytes = 0;
  for (const auto& [nid, b] : bytes_per_target) {
    max_target_bytes = std::max(max_target_bytes, b);
  }
  report.parallel_recovery_seconds =
      static_cast<double>(max_target_bytes) / rebuild_bandwidth_bytes_per_sec;
  report.single_node_recovery_seconds =
      static_cast<double>(report.bytes_rebuilt) /
      rebuild_bandwidth_bytes_per_sec;
  if (placement_changed) PoolPlacementChanged(pool);
  return report;
}

Status MetaServer::ExecuteReReplication(TenantId tenant, PartitionId partition,
                                        NodeId dead, NodeId target) {
  auto it = tenants_.find(tenant);
  if (it == tenants_.end()) return Status::NotFound("no such tenant");
  TenantMeta& meta = it->second;
  PartitionPlacement* placement = PlacementOf(meta, partition);
  if (placement == nullptr) {
    return Status::InvalidArgument("no such partition");
  }
  auto& reps = placement->replicas;
  auto rit = std::find(reps.begin(), reps.end(), dead);
  if (rit == reps.end()) {
    return Status::NotFound("dead node left the placement");
  }
  if (rit == reps.begin()) {
    // The dead node still holds the primary slot: no alive replica was
    // promotable, so there is no source to copy from.
    return Status::Unavailable("no surviving source replica");
  }
  if (std::find(reps.begin(), reps.end(), target) != reps.end()) {
    return Status::InvalidArgument("target already in placement");
  }
  node::DataNode* dst = FindNode(meta.pool, target);
  if (dst == nullptr || !dst->CanServe()) {
    return Status::Unavailable("target node is down");
  }
  node::DataNode* primary = FindNode(meta.pool, reps[0]);
  storage::LsmEngine* src =
      primary != nullptr && primary->CanServe()
          ? primary->EngineFor(tenant, partition)
          : nullptr;
  if (src == nullptr) return Status::Unavailable("primary source is down");

  dst->AddReplica(tenant, partition, PlacementQuota(meta, partition),
                  /*is_primary=*/false);
  dst->ResyncReplica(tenant, partition, *src);
  if (node::DataNode* dn = FindNode(meta.pool, dead)) {
    dn->RemoveReplica(tenant, partition);
  }
  *rit = target;
  // The dead node no longer owns the partition: its failback claim (if
  // any) must not fail it back to primary over state it never resynced.
  auto dit = demoted_.find(dead);
  if (dit != demoted_.end()) {
    auto& claims = dit->second;
    claims.erase(std::remove_if(claims.begin(), claims.end(),
                                [&](const DemotionClaim& c) {
                                  return c.tenant == tenant &&
                                         c.partition == partition;
                                }),
                 claims.end());
    if (claims.empty()) demoted_.erase(dit);
  }
  TenantPlacementChanged(meta);
  return Status::OK();
}

bool MetaServer::HasDemotionClaim(NodeId node, TenantId tenant,
                                  PartitionId partition) const {
  auto it = demoted_.find(node);
  if (it == demoted_.end()) return false;
  for (const DemotionClaim& c : it->second) {
    if (c.tenant == tenant && c.partition == partition) return true;
  }
  return false;
}

size_t MetaServer::RestorePrimary(NodeId node) {
  auto dit = demoted_.find(node);
  if (dit == demoted_.end()) return 0;
  // Consume this node's claims up front: a claim that loses the failback
  // (below) must not linger and usurp a better-placed leader later.
  std::vector<DemotionClaim> claims = std::move(dit->second);
  demoted_.erase(dit);
  PoolId pool = PoolOf(node);
  node::DataNode* restored =
      pool < pools_.size() ? FindNode(pool, node) : nullptr;

  size_t count = 0;
  for (const DemotionClaim& claim : claims) {
    const TenantId tid = claim.tenant;
    const PartitionId p = claim.partition;
    // Overlapping failures: an older outstanding claim means a
    // yet-to-recover node led the partition before this one did and
    // holds the fuller state — this node stays a replica.
    bool older_claim = false;
    for (const auto& [other, other_claims] : demoted_) {
      for (const DemotionClaim& oc : other_claims) {
        if (oc.tenant == tid && oc.partition == p && oc.seq < claim.seq) {
          older_claim = true;
          break;
        }
      }
      if (older_claim) break;
    }
    if (older_claim) continue;

    auto tit = tenants_.find(tid);
    if (tit == tenants_.end() || p >= tit->second.partitions.size()) continue;
    auto& reps = tit->second.partitions[p].replicas;
    auto rit = std::find(reps.begin(), reps.end(), node);
    if (rit == reps.end() || rit == reps.begin()) continue;
    // Demote whichever replica led during the outage, then put the
    // recovered node (fullest state after WAL replay) back in front.
    if (node::DataNode* leader = FindNode(pool, reps[0])) {
      leader->SetReplicaPrimary(tid, p, false);
    }
    std::swap(reps[0], *rit);
    if (restored != nullptr) restored->SetReplicaPrimary(tid, p, true);
    count++;
    // The restored leader supersedes every younger claim on the
    // partition: without this, a later-failed interim primary would
    // reclaim it on recovery and flip reads back to its thin state.
    for (auto& [other, other_claims] : demoted_) {
      other_claims.erase(
          std::remove_if(other_claims.begin(), other_claims.end(),
                         [&](const DemotionClaim& oc) {
                           return oc.tenant == tid && oc.partition == p;
                         }),
          other_claims.end());
    }
  }
  if (count > 0) PoolPlacementChanged(pool);
  return count;
}

// ---------------------------------------------------------------------------
// Asynchronous proxy traffic control
// ---------------------------------------------------------------------------

bool MetaServer::ReportProxyTraffic(TenantId tenant,
                                    double aggregate_ru_per_sec) {
  auto it = tenants_.find(tenant);
  if (it == tenants_.end()) return false;
  return it->second.monitor.ObserveAggregateRuPerSec(aggregate_ru_per_sec);
}

bool MetaServer::IsClamped(TenantId tenant) const {
  auto it = tenants_.find(tenant);
  return it != tenants_.end() && it->second.monitor.clamped();
}

}  // namespace meta
}  // namespace abase
