#include "sim/failure_domain.h"

#include <algorithm>
#include <utility>

#include "sim/cluster_sim.h"

namespace abase {
namespace sim {

namespace {

/// Catch-up floor of a recovering node whose RecoverNode call left the
/// duration to the simulator: ticks spent replaying before it rejoins.
constexpr int kRecoveryCatchUpTicks = 2;
/// Modeled catch-up bandwidth of a recovering node replaying the
/// primaries' log deltas.
constexpr uint64_t kCatchUpBytesPerTick = 64ull << 20;
/// Modeled copy bandwidth of an executed re-replication: bytes of
/// partition state per tick (sets a rebuild's duration, at least one
/// tick, and the promotion report's recovery times).
constexpr uint64_t kReReplicationBytesPerTick = 64ull << 20;

}  // namespace

size_t FailureDomain::parked_rebuilds() const {
  return static_cast<size_t>(
      std::count_if(pending_rebuilds_.begin(), pending_rebuilds_.end(),
                    [](const PendingRebuild& rb) {
                      return rb.ticks_remaining <= 0;
                    }));
}

NodeId FailureDomain::PrimarySlotOf(TenantId tenant,
                                    PartitionId partition) const {
  const meta::TenantMeta* tm = meta_.GetTenant(tenant);
  const meta::PartitionPlacement* placement =
      tm != nullptr ? meta_.PlacementOf(*tm, partition) : nullptr;
  return placement != nullptr ? placement->primary() : kInvalidNode;
}

uint64_t FailureDomain::CatchUp(NodeId node, bool resync) {
  node::DataNode* n = Node(node);
  if (n == nullptr) return 0;
  uint64_t bytes = 0;
  for (const node::PartitionReplica* rep : n->Replicas()) {
    if (resync) hooks_.replica_resynced(rep->tenant);
    const NodeId primary = meta_.PrimaryFor(rep->tenant, rep->partition);
    // Still this node's own partition (no survivor was promoted): its
    // WAL replay at StartRecovery already restored every acked write.
    if (primary == node || primary == kInvalidNode) continue;
    const node::DataNode* pn = Node(primary);
    if (pn == nullptr || !pn->CanServe()) continue;  // Both down: stale.
    const storage::LsmEngine* src = pn->EngineFor(rep->tenant, rep->partition);
    if (src == nullptr) continue;
    // A snapshot for a demoted ex-primary, whose acknowledged but
    // unreplicated suffix diverged from the interim primary's
    // authoritative history (discarding it is the measured lost-write
    // window), and for a cursor ahead of the primary or behind its
    // retained log; a clean cursor replays the delta.
    const uint64_t cursor = rep->engine->applied_seq();
    const bool snapshot =
        meta_.HasDemotionClaim(node, rep->tenant, rep->partition) ||
        cursor > src->applied_seq() || !src->repl_log().Covers(cursor);
    if (!resync) {
      bytes += snapshot ? src->ApproximateDataBytes()
                        : src->repl_log().BytesAfter(cursor);
    } else if (snapshot) {
      n->ResyncReplica(rep->tenant, rep->partition, *src);
    } else {
      n->ApplyLogDelta(rep->tenant, rep->partition, *src, cursor,
                       src->applied_seq());
    }
  }
  return bytes;
}

void FailureDomain::Run() {
  // 1. Queued fault events land, in injection order.
  for (const FaultEvent& ev : pending_faults_) {
    node::DataNode* n = Node(ev.node);
    if (n == nullptr) continue;
    if (ev.fail) {
      if (n->state() == node::NodeState::kFailed) continue;
      recovery_countdown_.erase(ev.node);  // A crash aborts catch-up.
      n->Fail();
      hooks_.node_failed(ev.node);
      failover_countdown_[ev.node] = options_.failover_detection_ticks;
    } else {
      if (n->state() != node::NodeState::kFailed) continue;
      // Recovery cancels a not-yet-run promotion (the node beat the
      // failure detector); an already-promoted node fails back below.
      failover_countdown_.erase(ev.node);
      n->StartRecovery();
      // Catch-up duration: an explicit request wins; otherwise it is
      // sized from the bytes the resync would move now.
      recovery_countdown_[ev.node] =
          ev.catch_up_ticks >= 0
              ? ev.catch_up_ticks
              : std::max(kRecoveryCatchUpTicks,
                         static_cast<int>((CatchUp(ev.node, /*resync=*/false) +
                                           kCatchUpBytesPerTick - 1) /
                                          kCatchUpBytesPerTick));
      // A node that starts recovering cancels its pending re-replication
      // copies: catching its own replicas up is cheaper than full
      // rebuilds on third nodes.
      pending_rebuilds_.erase(
          std::remove_if(pending_rebuilds_.begin(), pending_rebuilds_.end(),
                         [&](const PendingRebuild& rb) {
                           return rb.dead == ev.node;
                         }),
          pending_rebuilds_.end());
    }
  }
  pending_faults_.clear();

  // 2. Failure detection: promote surviving replicas when the countdown
  //    expires (node-id order — std::map), and schedule the planned
  //    re-replication copies behind their grace period.
  const uint64_t bw = kReReplicationBytesPerTick;
  for (auto it = failover_countdown_.begin();
       it != failover_countdown_.end();) {
    if (it->second <= 0) {
      auto report = meta_.PromoteFailover(
          it->first, static_cast<double>(bw) *
                         static_cast<double>(kMicrosPerSecond) /
                         static_cast<double>(options_.tick));
      if (report.ok()) {
        for (const meta::ReReplicationTarget& t :
             report.value().re_replication_targets) {
          // A partition or staged split child whose dead node still
          // holds the primary slot had no promotable survivor: the copy
          // has no source and only the node's own recovery (which
          // cancels rebuilds) can change that, so scheduling it would
          // retry a doomed plan forever.
          if (PrimarySlotOf(t.tenant, t.partition) == it->first) continue;
          pending_rebuilds_.push_back(PendingRebuild{
              t.tenant, t.partition, /*dead=*/it->first, t.target,
              options_.re_replication_delay_ticks +
                  std::max<int>(1, static_cast<int>((t.bytes + bw - 1) / bw))});
        }
        last_failover_report_ = std::move(report).value();
        last_failover_node_ = it->first;
      }
      it = failover_countdown_.erase(it);
    } else {
      it->second--;
      ++it;
    }
  }

  // 3. Catch-up: a recovering node resyncs every hosted replica from the
  //    current primaries, then rejoins and takes its primaries back.
  for (auto it = recovery_countdown_.begin();
       it != recovery_countdown_.end();) {
    if (it->second <= 0) {
      if (node::DataNode* n = Node(it->first)) {
        CatchUp(it->first, /*resync=*/true);
        n->CompleteRecovery();
      }
      meta_.RestorePrimary(it->first);
      it = recovery_countdown_.erase(it);
    } else {
      it->second--;
      ++it;
    }
  }

  // 4. Executed re-replication: planned copies whose grace period and
  //    modeled transfer time elapsed place real partition state on their
  //    targets (the dead node's slot moves over). A copy is cancelled if
  //    the dead node came back, or its target died or picked the
  //    partition up some other way (migration, split).
  for (auto it = pending_rebuilds_.begin(); it != pending_rebuilds_.end();) {
    const node::DataNode* dead = Node(it->dead);
    const node::DataNode* target = Node(it->target);
    const bool cancel =
        dead == nullptr || dead->state() != node::NodeState::kFailed ||
        target == nullptr || !target->CanServe() ||
        target->HasReplica(it->tenant, it->partition);
    if (cancel) {
      it = pending_rebuilds_.erase(it);
      continue;
    }
    if (it->ticks_remaining > 0 && --it->ticks_remaining > 0) {
      ++it;
      continue;
    }
    // Due. While the copy's source — the primary slot's node — cannot
    // serve (its interim primary failed too, or every replica was lost in
    // one tick), the copy is parked: it stays due and untried, and runs
    // on the first tick that node serves again or a promotion moves the
    // slot to a survivor.
    const node::DataNode* source =
        Node(PrimarySlotOf(it->tenant, it->partition));
    if (source != nullptr && !source->CanServe()) {
      ++it;
      continue;
    }
    Status executed = meta_.ExecuteReReplication(it->tenant, it->partition,
                                                 it->dead, it->target);
    if (executed.ok()) {
      executed_rebuilds_++;
      if (last_failover_report_.has_value() &&
          last_failover_node_ == it->dead) {
        last_failover_report_->replicas_rebuilt_executed++;
      }
    } else if (executed.IsUnavailable()) {
      // Transient: the source serves but the copy could not run this tick.
      // Keep it pending and retry next tick — erasing it would leave the
      // partition under-replicated for good.
      it->ticks_remaining = 1;
      ++it;
      continue;
    }
    it = pending_rebuilds_.erase(it);
  }
}

}  // namespace sim
}  // namespace abase
