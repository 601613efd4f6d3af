// The per-tick request pipeline.
//
// ClusterSim::Tick() used to be one monolithic loop that interleaved
// workload generation, proxy admission, routing, node scheduling, and
// response settlement inline. It is now an explicit eight-stage pipeline:
//
//   Fault        FailureDomain::Run (serial): node faults land;
//       |        failover, catch-up + failback, and rebuilds advance
//   Generate     active-set reconcile: one traffic slot per unparked
//       |        generator (tenant-id order) + injected client requests
//       |        -> TickContext::traffic / injected
//   ProxyAdmit   per tenant (parallel): run the tenant's generator into
//       |        a per-worker scratch and admit each request in
//       |        generation order — cache / quota / forward decision per
//       |        proxy (each tenant owns its generator, proxies, router
//       |        RNG stream, and metrics); then injected requests and
//       |        AU-LRU refresh fetches
//       |        -> TickContext::forwards (PendingForward)
//   Route        partition -> DataNode resolution against the tenant's
//       |        epoch-stamped routing cache (primary for writes and
//       |        kPrimary reads; round-robin over alive replicas for
//       |        kEventual reads), with a redirect chase on stale
//       |        entries, and in-flight registration (serial), then
//       |        per-node submission (parallel per node)
//   NodeSchedule every DataNode runs its WFQ tick (parallel per node)
//       |        -> TickContext::responses (merged in node-id order)
//   Replicate    each partition's primary ships its acknowledged write
//       |        stream — delayed by SimOptions::replication_lag_ticks —
//       |        to the replica engines: shipping floors and batches are
//       |        computed serially in (tenant, partition) order, then
//       |        each node applies only the streams addressed to it
//       |        (parallel per node)
//   Settle       response delivery to proxies / metrics / client
//       |        outcomes (replica-read staleness sampled against the
//       |        primaries' cursors), MetaServer traffic report, clock
//       |        advance (serial barrier stage)
//   Control      the closed serverless loop (serial): hourly usage
//                roll-up -> per-tenant autoscaler -> quota application;
//                online split streaming / cutover / purge at
//                split_bytes_per_tick; throttled background migration
//                copies at migration_bytes_per_tick
//
// Parallel stages fan out over the simulator's Executor
// (SimOptions::data_plane_workers); every unit of parallel work is
// tenant- or node-private and all merges happen in fixed id order, so
// serial and parallel runs are bit-identical (the determinism contract
// in DESIGN.md; enforced by tests/pipeline_test.cc).
//
// Each stage is a named component with explicit inputs and outputs in
// the TickContext; tests can drive a request through one boundary at a
// time.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/arena.h"
#include "common/flat_map.h"
#include "common/trace.h"
#include "common/types.h"
#include "node/request.h"
#include "sim/request_context.h"

namespace abase {
namespace storage {
class LsmEngine;
}  // namespace storage

namespace sim {

class ClusterSim;
class FailureDomain;
struct TenantRuntime;
struct TenantTickMetrics;

/// Everything produced and consumed within one tick. Owned by the
/// TickPipeline and REUSED across ticks: Reset() clears the logical
/// contents but keeps every buffer's capacity (including the key and
/// field strings inside the forward slots), so the steady-state data
/// plane makes no heap allocations. Stage N's outputs are stage N+1's
/// inputs.
struct TickContext {
  /// One generating tenant's slot for this tick. The per-tenant split is
  /// what lets ProxyAdmit run tenants concurrently; `forwards` is that
  /// stage's tenant-private output buffer, walked in tenant-id order by
  /// Route. The generated requests themselves never land here: ProxyAdmit
  /// admits each one straight out of its worker's scratch.
  struct TenantTraffic {
    TenantId tenant = 0;
    std::vector<PendingForward> forwards;  ///< ProxyAdmit -> Route.
  };

  /// Generate -> ProxyAdmit. Tenants in id order. Slots are reconciled
  /// (not rebuilt) by the Generate stage each tick so the forward
  /// buffers keep their capacity.
  std::vector<TenantTraffic> traffic;
  /// Generate -> ProxyAdmit. Externally injected requests (tests, the
  /// synchronous abase::Client facade), in injection order. Handled
  /// after the bulk per-tenant traffic.
  std::vector<ClientRequest> injected;
  /// ProxyAdmit -> Route: injected forwards then background refresh
  /// fetches. Generated forwards stay in their tenant's traffic slot
  /// (TenantTraffic::forwards) — Route walks the slots in tenant-id
  /// order first, then this buffer, so the overall routing order is
  /// unchanged while the per-tick move-merge of every generated forward
  /// into one flat vector is gone.
  std::vector<PendingForward> forwards;
  /// Route scratch: per-node batch spans into `forwards` (outer index =
  /// dense node id). Pointers are only valid within the tick.
  std::vector<std::vector<NodeRequest*>> node_batches;
  /// NodeSchedule -> Settle. Per-node response buffers (outer index =
  /// dense node id), swapped O(1) with each node's accumulation buffer
  /// and consumed in node-id order.
  std::vector<std::vector<NodeResponse>> responses;

  /// Clears the tick's logical contents while keeping every buffer
  /// (and nested string) capacity for the next tick.
  void Reset() {
    // traffic slots are reconciled by GenerateStage; their forward
    // buffers must survive so string capacity is reused.
    injected.clear();
    forwards.clear();
    for (auto& batch : node_batches) batch.clear();
    for (auto& r : responses) r.clear();
  }
};

/// One pipeline stage. Stages hold no per-tick state of their own; all
/// dataflow goes through the TickContext (simulator-owned state such as
/// caches and quotas is reached through the ClusterSim).
class Stage {
 public:
  virtual ~Stage() = default;
  virtual const char* name() const = 0;
  virtual void Run(TickContext& ctx) = 0;
};

/// Runs the FailureDomain: serial, and first in the tick, so a fault is
/// effective at a tick boundary no matter when it was injected.
class FaultStage final : public Stage {
 public:
  explicit FaultStage(FailureDomain* faults) : faults_(faults) {}
  const char* name() const override { return "Fault"; }
  void Run(TickContext& ctx) override;

 private:
  FailureDomain* faults_;
};

/// Decides which tenants generate this tick: reconciles the traffic slots
/// against the active generator set (parking tenants whose rate cell is
/// 0), touches each generating tenant, and takes the externally injected
/// requests. The generators run inside ProxyAdmit.
class GenerateStage final : public Stage {
 public:
  explicit GenerateStage(ClusterSim* sim) : sim_(sim) {}
  const char* name() const override { return "Generate"; }
  void Run(TickContext& ctx) override;

 private:
  ClusterSim* sim_;
  /// Active-set mode: tenants whose rate-schedule cell hit exactly 0
  /// this tick, parked and removed from the active set after the walk.
  std::vector<TenantId> parked_scratch_;
};

/// Generates each traffic slot's requests (the tenant's workload
/// generator, into a per-worker scratch) and runs every client request
/// through its tenant's proxy plane: write invalidation broadcast,
/// limited fan-out routing, then the proxy's cache -> quota -> forward
/// decision. Local outcomes (cache hits,
/// throttles) settle into tenant metrics immediately; forwards — plus
/// the proxies' background refresh fetches — move on as
/// PendingForwards. Tenant traffic is processed concurrently (tenants
/// share no proxy-plane state). Injected requests (clients, tests) are
/// admitted in batches too: grouped by tenant and fanned out across the
/// executor, with tracked outcomes collected into tenant-private buffers
/// and published serially in tenant-id order afterwards — this is what
/// lets hundreds of async clients keep thousands of commands in flight
/// without serializing the proxy plane. Refresh-id allocation stays
/// serial.
class ProxyAdmitStage final : public Stage {
 public:
  explicit ProxyAdmitStage(ClusterSim* sim) : sim_(sim) {}
  const char* name() const override { return "ProxyAdmit"; }
  void Run(TickContext& ctx) override;

 private:
  /// Handles one client request against its tenant's proxy plane. On
  /// forward the request is materialized into out[out_count++] — a
  /// recycled PendingForward slot whose string capacity is reused
  /// (callers resize(out_count) after the batch; slots past the cursor
  /// hold stale-but-capacitated strings). Locally settled tracked
  /// outcomes append to `deferred`. Metric increments land in `m`: the
  /// caller passes rt.current (injected batches, preserving the legacy
  /// accumulation order) or a per-worker scratch merged once per batch
  /// (generated morsels). Non-scan forwards admitted before any scan
  /// this tick are also *routed* here (ClusterSim::RoutePoint),
  /// fusing the admit and route walks. Safe to run tenant-concurrently:
  /// every touched buffer is tenant-private.
  void AdmitOne(TenantRuntime& rt, const ClientRequest& req,
                std::vector<PendingForward>& out, size_t& out_count,
                std::vector<std::pair<uint64_t, ClientOutcome>>& deferred,
                TenantTickMetrics& m);

  /// One tenant's slice of this tick's injected requests. The pointer
  /// array lives in the stage arena (trivially destructible, dies at the
  /// tick boundary); the descriptors themselves recycle their vector.
  struct InjectedBatch {
    TenantId tenant = 0;
    TenantRuntime* rt = nullptr;
    const ClientRequest** requests = nullptr;  ///< Arena-backed.
    uint32_t count = 0;   ///< Sized in the counting pass.
    uint32_t filled = 0;  ///< Fill cursor for the second pass.
  };
  /// Tenant-private output buffers for one injected batch. PendingForward
  /// and ClientOutcome carry strings — non-trivial types the arena never
  /// destroys — so these recycle as ordinary vectors instead.
  struct InjectedBuffers {
    std::vector<PendingForward> forwards;
    std::vector<std::pair<uint64_t, ClientOutcome>> deferred;
  };

  ClusterSim* sim_;
  /// Per-worker generation scratch (index = executor worker): one
  /// tenant's tick of requests at a time, recycled so key and field
  /// strings keep their capacity. Payload handles are dropped as each
  /// request is admitted.
  std::vector<std::vector<ClientRequest>> generated_;
  /// Tick-scoped scratch for injected-request grouping (async clients
  /// keep this path hot every tick): tenant -> batch slot, the arena
  /// behind the request-pointer arrays, and the recycled outputs.
  FlatMap64<uint32_t> injected_index_;
  Arena injected_arena_;
  std::vector<InjectedBatch> injected_batches_;
  std::vector<InjectedBuffers> injected_buffers_;
};

/// Resolves each forward's partition to a primary DataNode against its
/// tenant's epoch-stamped routing cache — NOT the MetaServer oracle. A
/// forward whose cached entry is unroutable (failed node, demoted or
/// absent replica) under a stale epoch chases one redirect: the table
/// refreshes and the resolve retries (counted per forward in
/// TenantTickMetrics::redirects). Still-unroutable forwards settle as
/// Unavailable through PublishOutcome. Registration is serial; each
/// node's batch is then submitted in parallel (partition-quota admission
/// and WFQ enqueue touch only that node's state).
class RouteStage final : public Stage {
 public:
  explicit RouteStage(ClusterSim* sim) : sim_(sim) {}
  const char* name() const override { return "Route"; }
  void Run(TickContext& ctx) override;

 private:
  ClusterSim* sim_;
};

/// Runs every DataNode's scheduling tick through the simulator's
/// executor. Nodes are mutually independent between Submit() and the
/// SwapResponses() drain, so this is the heaviest parallel stage;
/// responses are drained and merged in node-id order afterwards so
/// downstream settlement is independent of worker count.
class NodeScheduleStage final : public Stage {
 public:
  explicit NodeScheduleStage(ClusterSim* sim) : sim_(sim) {}
  const char* name() const override { return "NodeSchedule"; }
  void Run(TickContext& ctx) override;

 private:
  ClusterSim* sim_;
};

/// Ships every partition's acknowledged primary writes to its replica
/// engines, `SimOptions::replication_lag_ticks` ticks behind the
/// acknowledgements. The serial pass walks partitions in (tenant,
/// partition) order: it advances each stream's acked-seq history, picks
/// the shipping floor, batches the per-replica log deltas by destination
/// node, and truncates the primary's log below the slowest cursor. The
/// parallel pass then lets each node apply the batches addressed to it —
/// a node only ever mutates its own replica engines, and the source
/// primary logs are read-only during the fan-out, so runs stay
/// bit-identical across worker counts. A replica whose cursor fell
/// behind a truncated log is re-seeded with a snapshot resync instead.
class ReplicateStage final : public Stage {
 public:
  explicit ReplicateStage(ClusterSim* sim) : sim_(sim) {}
  const char* name() const override { return "Replicate"; }
  void Run(TickContext& ctx) override;

 private:
  /// One stream segment addressed to a replica node: records
  /// (after, through] of the source primary's log, or a snapshot resync
  /// when the log no longer covers the replica's cursor.
  struct Shipment {
    TenantId tenant = 0;
    PartitionId partition = 0;
    const storage::LsmEngine* src = nullptr;
    uint64_t after = 0;
    uint64_t through = 0;
    bool snapshot = false;
  };

  /// Serial per-tenant pass: advances every partition stream of `tid`
  /// (acked-seq history, shipping floor, per-node shipment batches, log
  /// truncation). Returns true when every stream is quiescent — a
  /// revisit with unchanged inputs would be a state no-op — so the
  /// active-set walk can drop the tenant until a response, a placement
  /// change, or a preload/resync/split hook re-activates it.
  bool ShipTenantStreams(ClusterSim& sim, TenantId tid, int lag);

  ClusterSim* sim_;
  /// Per-node shipment batches (outer index = dense node id). Cleared,
  /// not freed, every tick.
  std::vector<std::vector<Shipment>> batches_;
};

/// Delivers responses back through the forwarding proxies (quota
/// settlement, cache fill) into tenant metrics and tracked client
/// outcomes; then runs the periodic MetaServer traffic report, seals the
/// tick's metrics, and advances the simulated clock. The pipeline's
/// serial barrier stage.
class SettleStage final : public Stage {
 public:
  explicit SettleStage(ClusterSim* sim) : sim_(sim) {}
  const char* name() const override { return "Settle"; }
  void Run(TickContext& ctx) override;

 private:
  ClusterSim* sim_;
};

/// The closed serverless control loop, after the tick has fully settled
/// (entirely serial). Every tick it advances the in-flight background
/// work: online partition splits stream their re-hashed key ranges out
/// of the parent primaries at SimOptions::split_bytes_per_tick (with an
/// atomic, epoch-bumped cutover once the snapshot and the held
/// replication-log window have been replayed into the staged children),
/// and queued rescheduler migrations copy at migration_bytes_per_tick
/// before MetaServer::MigrateReplica installs them. Every
/// control_interval_ticks it rolls the settled RU into each tenant's
/// hourly usage series and runs the per-tenant autoscaler (predictive
/// Algorithm 1 forecast or the reactive baseline), applying decisions
/// through ClusterSim::SetTenantQuota; every resched_interval_ticks it
/// snapshots the pools into the rescheduler and enqueues the planned
/// moves.
class ControlStage final : public Stage {
 public:
  explicit ControlStage(ClusterSim* sim) : sim_(sim) {}
  const char* name() const override { return "Control"; }
  void Run(TickContext& ctx) override;

 private:
  ClusterSim* sim_;
};

/// The eight stages, in order. Owned by the ClusterSim; tests may run
/// stages one at a time against their own TickContext.
class TickPipeline {
 public:
  TickPipeline(ClusterSim* sim, FailureDomain* faults);

  /// Runs the pipeline's persistent TickContext through all stages (one
  /// full tick). The context is Reset() — cleared, capacity kept — not
  /// reconstructed, so steady-state ticks reuse every buffer.
  void RunTick();

  /// Routes one trace slice per stage per tick to `t` (nullptr
  /// detaches; the untraced path costs one branch per stage).
  void SetTrace(TraceWriter* t) { trace_ = t; }

  /// Wall-clock per-stage cost attribution (bench instrumentation):
  /// when enabled, RunTick wraps every stage in a steady_clock pair and
  /// accumulates the elapsed nanoseconds per stage index. Timing is an
  /// observation only — it never feeds back into the simulation, so
  /// determinism is untouched. Off by default (two clock reads per
  /// stage per tick are measurable at millions of ticks).
  void SetStageTiming(bool enabled) { stage_timing_ = enabled; }

  /// Accumulated nanoseconds spent in stage `i` since the last reset
  /// (0 when timing was never enabled).
  uint64_t stage_nanos(size_t i) const {
    return i < stage_nanos_.size() ? stage_nanos_[i] : 0;
  }
  void ResetStageNanos() {
    for (uint64_t& n : stage_nanos_) n = 0;
  }

  size_t num_stages() const { return stages_.size(); }
  Stage& stage(size_t i) { return *stages_[i]; }

 private:
  std::vector<std::unique_ptr<Stage>> stages_;
  TickContext ctx_;
  TraceWriter* trace_ = nullptr;
  bool stage_timing_ = false;
  std::vector<uint64_t> stage_nanos_;
};

}  // namespace sim
}  // namespace abase
