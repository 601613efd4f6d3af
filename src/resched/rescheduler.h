// Multi-resource rescheduling — paper Section 5.3, Algorithm 2.
//
// Intra-pool: two phases. Phase 1 balances each tenant's replica count
// across nodes (elasticity / failure robustness); phase 2 balances RU and
// storage utilization, migrating replicas from high-load nodes (S_H) to
// low-load nodes (S_L) whenever the migration gain
//   G = max[L(src), L(dst)] - max[L(src - RE), L(dst + RE)]
// is positive, where L is the node's L2 deviation from the pool optimal
// <R, S>.
//
// Inter-pool: vacates low-utilization nodes from the lightly-loaded pool
// (migrating their replicas to pool siblings), reassigns the vacated
// nodes to the heavily-loaded pool, and re-runs intra-pool on both.
#pragma once

#include <cstddef>
#include <vector>

#include "resched/pool_model.h"

namespace abase {
namespace resched {

/// Tuning knobs.
struct ReschedOptions {
  /// Division threshold theta: S_L below R - theta, S_M in (R - theta, R],
  /// S_H above (paper suggests 5%).
  double theta = 0.05;
  /// Tenant replica-count slack tolerated by CanPlace: a node may hold at
  /// most ceil(tenant replicas / nodes) + slack replicas of one tenant.
  size_t tenant_balance_slack = 1;
};

/// One planned replica move.
struct Migration {
  TenantId tenant = 0;
  PartitionId partition = 0;
  uint32_t replica_index = 0;
  NodeId from = 0;
  NodeId to = 0;
  double gain = 0;
  Resource driving_resource = Resource::kRu;
};

/// The S_L / S_M / S_H division of a pool for one resource.
struct NodeDivision {
  std::vector<NodeId> low, medium, high;
};

/// Divides pool nodes by load level relative to the optimal (paper's
/// "DataNode Division").
NodeDivision DivideNodes(const PoolModel& pool, Resource resource,
                         double theta);

/// Intra-pool rescheduler (Algorithm 2). Mutates the model in place and
/// returns the executed migrations.
class IntraPoolRescheduler {
 public:
  explicit IntraPoolRescheduler(ReschedOptions options = {})
      : options_(options) {}

  /// Phase 1: balance each tenant's replica count across nodes.
  std::vector<Migration> BalanceReplicaCounts(PoolModel* pool) const;

  /// Phase 2: Algorithm 2 over [RU, Storage]. One call = one scheduling
  /// round (migration flags are cleared at entry, set by each move).
  std::vector<Migration> Run(PoolModel* pool) const;

  /// Runs Run() repeatedly until no migration is found or `max_rounds`
  /// rounds elapse. Returns all migrations (offline mode, Figure 9).
  std::vector<Migration> RunToConvergence(PoolModel* pool,
                                          size_t max_rounds = 200) const;

  const ReschedOptions& options() const { return options_; }

 private:
  /// Paper's CanPlace: no duplicate replica of the same partition,
  /// tenant-count balance preserved, and the destination must not be
  /// pushed into S_H.
  bool CanPlace(const PoolModel& pool, const NodeModel& dst,
                const ReplicaLoad& replica, double optimal_ru,
                double optimal_storage) const;

  ReschedOptions options_;
};

/// Result of one inter-pool rebalancing step.
struct InterPoolResult {
  std::vector<NodeId> reassigned_nodes;  ///< Moved from donor to receiver.
  std::vector<Migration> vacate_migrations;  ///< Within the donor pool.
  std::vector<Migration> rebalance_migrations;  ///< Post-move, both pools.
};

/// Inter-pool rescheduler: moves whole nodes from the lightly-loaded pool
/// to the heavily-loaded one (paper's extension of Algorithm 2).
class InterPoolRescheduler {
 public:
  explicit InterPoolRescheduler(ReschedOptions options = {})
      : options_(options), intra_(options) {}

  /// Rebalances `donor` (lower load) against `receiver` (higher load),
  /// moving up to `max_nodes` vacated nodes. Pool identities are the
  /// caller's; this only mutates the two models.
  InterPoolResult Run(PoolModel* donor, PoolModel* receiver,
                      size_t max_nodes = 1) const;

 private:
  ReschedOptions options_;
  IntraPoolRescheduler intra_;
};

}  // namespace resched
}  // namespace abase
