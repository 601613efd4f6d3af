// Shared definitions of the perf ledger: the workload shapes and the
// metric record both the end-to-end driver (ledger.cc) and the standalone
// layer kernels (kernels.cc) use.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/abase.h"
#include "meta/meta_server.h"
#include "sim/workload.h"

namespace ledger {

/// One named, unit-tagged measurement of the result line.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Everything that defines one workload. All of it is derived from the
/// workload name and the seed, so a (workload, seed) pair always builds
/// the same cluster and drives the same traffic.
struct Shape {
  std::string name;
  abase::ClusterOptions cluster;
  size_t nodes = 8;
  /// Tenants registered (ids 1..registered) and the prefix of them that
  /// carries traffic (ids 1..active).
  size_t registered = 0;
  size_t active = 0;
  /// When nonzero, the registered-but-idle tenants live in a second pool
  /// of this many nodes, so rescheduling plans over the active pool.
  size_t parked_nodes = 0;
  /// Template for every registered tenant (id and name filled per tenant).
  abase::meta::TenantConfig tenant;
  /// Template for every active tenant's synthetic open-loop traffic.
  abase::sim::WorkloadProfile profile;
  /// Tenant driven past its quota (0 = none) and the quota it gets.
  abase::TenantId throttled_tenant = 0;
  double throttled_quota_ru = 0;
  /// Dataset bulk-loaded into every active tenant before warm-up.
  uint64_t preload_keys = 0;
  uint64_t value_bytes = 256;
  /// Control loop: active tenants 1..predictive run the predictive
  /// autoscaler over a seeded 30-day history, the rest of the active
  /// tenants the reactive one. Off when !autoscale.
  bool autoscale = false;
  size_t predictive = 0;
  /// Fixed tick counts: the simulator's per-tick cost drifts with run
  /// length (logs and runs grow), so every repetition measures the same
  /// ticks of the same run.
  size_t warmup_ticks = 0;
  size_t timed_ticks = 0;
  /// Cadence of every periodic job (meta reports, control rounds,
  /// rescheduling): one tick in `period` is a spike tick.
  int period = 4;
  /// Closed-loop probe sessions (abase::Client) on `probe_tenant`, each
  /// keeping `probe_depth` commands in flight. 0 sessions = no probes.
  int probe_sessions = 0;
  int probe_depth = 0;
  abase::TenantId probe_tenant = 0;
};

/// Builds the named workload's shape; false for an unknown name.
bool MakeShape(const std::string& workload, uint64_t seed, Shape* out);

/// Times each layer's public API standalone on state shaped like the
/// workload's engines, stores and queues, fed by the workload's own key
/// stream. Appends kernel.* metrics.
void RunKernels(const Shape& shape, uint64_t seed, std::vector<Metric>* out);

}  // namespace ledger
