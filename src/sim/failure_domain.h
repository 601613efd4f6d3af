// FailureDomain — the one owner of node loss and recovery: the queued
// crash/recover events, the failure-detection and catch-up countdowns,
// the last failover report and the pending re-replication copies. Run()
// is the Fault stage (DESIGN.md "Failure domain"), the only place node
// lifecycle changes. Serial sections only.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "common/types.h"
#include "meta/meta_server.h"
#include "node/data_node.h"

namespace abase {
namespace sim {

struct SimOptions;

class FailureDomain {
 public:
  /// Data-plane cleanup the simulator owns, called back inline so
  /// outcomes publish in event order.
  struct Hooks {
    /// A crash landed: resolve every request stranded on the node.
    std::function<void(NodeId)> node_failed;
    /// A recovering replica of the tenant resyncs: its cursor may move
    /// without an epoch bump, so the Replicate walk must revisit it.
    std::function<void(TenantId)> replica_resynced;
  };

  /// `options`, `meta` and `nodes` are the simulator's and outlive this.
  FailureDomain(const SimOptions& options, meta::MetaServer& meta,
                const std::vector<std::unique_ptr<node::DataNode>>& nodes,
                Hooks hooks)
      : options_(options), meta_(meta), nodes_(nodes),
        hooks_(std::move(hooks)) {}

  /// ClusterSim::FailNode / RecoverNode: queued for the next Run.
  void FailNode(NodeId node) { pending_faults_.push_back({true, node, -1}); }
  void RecoverNode(NodeId node, int catch_up_ticks) {
    pending_faults_.push_back({false, node, catch_up_ticks});
  }

  void Run();

  const std::optional<meta::RecoveryReport>& last_failover_report() const {
    return last_failover_report_;
  }
  uint64_t executed_rebuilds() const { return executed_rebuilds_; }
  size_t pending_rebuilds() const { return pending_rebuilds_.size(); }
  size_t parked_rebuilds() const;  ///< Due copies whose source is down.

  /// The one catch-up walk over `node`'s replicas: each takes a snapshot
  /// of its primary's data or replays the primary's log delta. Returns
  /// the bytes that would move, or with `resync` moves them (returns 0).
  uint64_t CatchUp(NodeId node, bool resync);

 private:
  struct FaultEvent {
    bool fail = true;  ///< false = recover.
    NodeId node = kInvalidNode;
    int catch_up_ticks = -1;  ///< Recover only; < 0 = sized by CatchUp.
  };

  /// A planned re-replication copy counting down.
  struct PendingRebuild {
    TenantId tenant = 0;
    PartitionId partition = 0;
    NodeId dead = kInvalidNode;    ///< Node whose slot is being replaced.
    NodeId target = kInvalidNode;  ///< Node receiving the copy.
    /// Grace period + modeled copy time; 0 once due (a due copy still
    /// pending is parked on a source that cannot serve).
    int ticks_remaining = 0;
  };

  /// Primary slot of a committed partition or a staged split child
  /// (MetaServer::PrimaryFor sees committed partitions only);
  /// kInvalidNode when neither exists.
  NodeId PrimarySlotOf(TenantId tenant, PartitionId partition) const;

  node::DataNode* Node(NodeId id) const {  // Dense ids: nodes_[id].
    return id < nodes_.size() ? nodes_[id].get() : nullptr;
  }

  const SimOptions& options_;
  meta::MetaServer& meta_;
  const std::vector<std::unique_ptr<node::DataNode>>& nodes_;
  Hooks hooks_;

  std::vector<FaultEvent> pending_faults_;
  /// Failed nodes awaiting failover promotion (failure detection), and
  /// recovering nodes replaying their WALs; values are ticks remaining.
  std::map<NodeId, int> failover_countdown_;
  std::map<NodeId, int> recovery_countdown_;
  std::optional<meta::RecoveryReport> last_failover_report_;
  /// Node whose failover produced last_failover_report_: executed-copy
  /// completions are credited only to the report that planned them
  /// (overlapping failovers must not inflate a newer node's report).
  NodeId last_failover_node_ = kInvalidNode;
  std::vector<PendingRebuild> pending_rebuilds_;
  uint64_t executed_rebuilds_ = 0;
};

}  // namespace sim
}  // namespace abase
