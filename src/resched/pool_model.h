// Abstract load model the rescheduler operates on — paper Section 5.3
// "Load Indicator" and "Optimal Load".
//
// Replica loads are 24-slot hour-of-day vectors (hourly averages over the
// past 7 days, aggregated by max within each hour-of-day). A node's load
// is the max over hours of the sum of its replicas' vectors; a pool's
// optimal load <R, S> is its total load divided by its total capacity,
// per resource dimension.
//
// The model is deliberately decoupled from live DataNodes so the same
// algorithm runs offline (Figure 9: 1000 synthetic nodes) and online
// (Figure 10: applied to the simulator every 10 minutes).
#pragma once

#include <cstdint>
#include <vector>

#include "common/time_series.h"
#include "common/types.h"

namespace abase {
namespace resched {

/// The two balanced resource dimensions.
enum class Resource { kRu = 0, kStorage = 1 };

/// One replica's load contribution.
struct ReplicaLoad {
  TenantId tenant = 0;
  PartitionId partition = 0;
  uint32_t replica_index = 0;
  /// Pinned replicas contribute load but must not be migrated (e.g. a
  /// staged split child still receiving its stream): the reschedulers
  /// never select them as move candidates, and a node hosting one
  /// cannot be vacated.
  bool pinned = false;
  LoadVector ru;       ///< RU load (already cache-hit weighted).
  LoadVector storage;  ///< Storage footprint per hour-of-day.
};

/// A node in the rescheduling model.
class NodeModel {
 public:
  NodeModel(NodeId id, double ru_capacity, double storage_capacity)
      : id_(id), ru_capacity_(ru_capacity), storage_capacity_(storage_capacity) {}

  NodeId id() const { return id_; }
  double capacity(Resource r) const {
    return r == Resource::kRu ? ru_capacity_ : storage_capacity_;
  }

  void AddReplica(ReplicaLoad replica);
  /// Reserves room for `n` replicas (model builds know the count).
  void Reserve(size_t n) { replicas_.reserve(n); }
  /// Removes by (tenant, partition, replica_index); returns the removed
  /// load or NotFound.
  Result<ReplicaLoad> RemoveReplica(TenantId tenant, PartitionId partition,
                                    uint32_t replica_index);

  bool HasReplicaOf(TenantId tenant, PartitionId partition) const;
  size_t ReplicaCountOfTenant(TenantId tenant) const;

  const std::vector<ReplicaLoad>& replicas() const { return replicas_; }

  /// Node load for one resource: max over hours of summed replica loads.
  double Load(Resource r) const {
    return (r == Resource::kRu ? ru_sum_ : storage_sum_).MaxLoad();
  }
  /// Normalized load (utilization) in [0, 1+].
  double Utilization(Resource r) const { return Load(r) / capacity(r); }

  /// Utilization if `replica` were added / removed (no mutation).
  double UtilizationWith(Resource r, const ReplicaLoad& replica) const;
  double UtilizationWithout(Resource r, const ReplicaLoad& replica) const;

  /// L2 deviation from the pool optimal (paper's L(DN)), over both dims.
  double Deviation(double optimal_ru, double optimal_storage) const;
  /// Deviation after a hypothetical add / remove of `replica`.
  double DeviationWith(const ReplicaLoad& replica, double optimal_ru,
                       double optimal_storage) const;
  double DeviationWithout(const ReplicaLoad& replica, double optimal_ru,
                          double optimal_storage) const;

  bool is_migrating = false;  ///< Algorithm 2's IsMigrating flag.

 private:
  NodeId id_;
  double ru_capacity_;
  double storage_capacity_;
  std::vector<ReplicaLoad> replicas_;
  LoadVector ru_sum_;
  LoadVector storage_sum_;
};

/// A resource pool of NodeModels.
class PoolModel {
 public:
  PoolModel() = default;

  NodeModel& AddNode(NodeId id, double ru_capacity, double storage_capacity) {
    nodes_.emplace_back(id, ru_capacity, storage_capacity);
    return nodes_.back();
  }

  std::vector<NodeModel>& nodes() { return nodes_; }
  const std::vector<NodeModel>& nodes() const { return nodes_; }

  NodeModel* FindNode(NodeId id);

  /// Pool optimal load <R, S>: total load / total capacity per dimension.
  double OptimalLoad(Resource r) const;

  /// Stddev of per-node utilization for one resource (Figure 9 metric).
  double UtilizationStddev(Resource r) const;

  /// Max and mean node utilization (Figure 10 metrics).
  double MaxUtilization(Resource r) const;
  double MeanUtilization(Resource r) const;

  size_t TotalReplicaCount() const;
  /// Total replicas of one tenant across the pool.
  size_t TenantReplicaCount(TenantId tenant) const;

  void ClearMigrationFlags();

 private:
  std::vector<NodeModel> nodes_;
};

}  // namespace resched
}  // namespace abase
