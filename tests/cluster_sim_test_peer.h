// Test-only write access to ClusterSim internals. Outside code reaches
// nodes and metadata only through ClusterSim's read-only views; tests
// that must write around the pipeline (a direct engine write, the
// MetaServer's split steps, an engine read that bumps its counters) go
// through this peer, so every such write is visible at its call site.
#pragma once

#include "meta/meta_server.h"
#include "node/data_node.h"
#include "sim/cluster_sim.h"

namespace abase {
namespace sim {

class ClusterSimTestPeer {
 public:
  static meta::MetaServer& Meta(ClusterSim& sim) { return *sim.meta_; }
  static node::DataNode* Node(ClusterSim& sim, NodeId id) {
    return sim.MutableNode(id);
  }
  /// Bytes node `id` would transfer to catch up if it recovered now.
  static uint64_t CatchUpBytes(ClusterSim& sim, NodeId id) {
    return sim.faults_.CatchUp(id, /*resync=*/false);
  }
  /// Tenant `t`'s workload generator (nullptr if none is attached).
  static const WorkloadGenerator* Generator(ClusterSim& sim, TenantId t) {
    const TenantRuntime* rt = sim.MutableTenant(t);
    return rt != nullptr ? rt->workload.get() : nullptr;
  }
};

}  // namespace sim
}  // namespace abase
