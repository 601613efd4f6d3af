// DataNode — paper Section 3.2 (Data Plane) and Figure 2.
//
// One DataNode owns a disk (DiskModel), a size-aware cache (SA-LRU), a
// four-class dual-layer WFQ, and a set of partition replicas, each backed
// by its own LSM engine and guarded by a partition quota at the request
// queue entry point. The node runs in discrete one-second ticks driven by
// the cluster simulator: requests submitted during a tick are admitted (or
// rejected) immediately, scheduled by the WFQ when the tick runs, and
// their responses drained by the caller afterwards.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "cache/sa_lru.h"
#include "common/clock.h"
#include "common/flat_map.h"
#include "common/histogram.h"
#include "common/types.h"
#include "latency/service_time.h"
#include "node/request.h"
#include "quota/quota.h"
#include "ru/request_unit.h"
#include "sched/dual_layer_wfq.h"
#include "storage/disk_model.h"
#include "storage/lsm_engine.h"

namespace abase {
namespace node {

/// Per-node configuration. CPU per-tick budget lives in `wfq`
/// (cpu_budget_ru) and cache sizing in `cache` (capacity_bytes).
struct DataNodeOptions {
  double ru_capacity = 12000;  ///< Nominal RU capacity (rescheduler denominator).
  uint64_t storage_capacity = 64ull << 30;
  /// CPU RU burned rejecting one over-quota request at the request queue.
  /// This is why unthrottled bursts hurt co-tenants (Figure 6): the node
  /// pays to say "no".
  double reject_cpu_ru = 0.25;
  /// Requests still queued after this many ticks fail with a queue
  /// deadline error instead of waiting forever (bounded backlog).
  int queue_timeout_ticks = 2;
  Micros cpu_service_micros = 150;  ///< Base CPU service time per request.
  /// Sampled per-request service-time distribution (latency subsystem).
  /// Disabled = the fixed cpu_service_micros base above, bit-identical
  /// to the seed. When enabled, the sampled draw REPLACES the fixed base
  /// while the WFQ-backlog, queueing-factor, and disk terms still add on
  /// top; mean_micros defaults to cpu_service_micros scale.
  latency::ServiceTimeOptions service_time;
  sched::DualWfqOptions wfq;
  storage::DiskOptions disk;
  storage::LsmOptions lsm;
  cache::SaLruOptions cache;
};

/// Lifecycle of a DataNode within the live cluster (DESIGN.md "Failure
/// domain"). Transitions are driven from serial pipeline sections only:
///   kAlive --Fail()--> kFailed --StartRecovery()--> kRecovering
///   kRecovering --CompleteRecovery()--> kAlive
enum class NodeState {
  kAlive,       ///< Serving: accepts submissions, runs scheduling ticks.
  kFailed,      ///< Crashed: rejects submissions; queue and in-flight work
                ///< were dropped when the failure landed.
  kRecovering,  ///< WAL replay done, catching up; not yet serving.
};

const char* NodeStateName(NodeState state);

/// A partition replica hosted on this node. Fields are ordered to pack:
/// every registered tenant's replicas hold one of these per node.
struct PartitionReplica {
  TenantId tenant = 0;
  PartitionId partition = 0;
  double partition_quota_ru = 1000;  ///< Fair share (tenant quota / #parts).
  std::unique_ptr<storage::LsmEngine> engine;
  /// The partition-quota bucket, built on first use: while null the
  /// bucket is exactly full at `partition_quota_ru` (a fresh bucket, or
  /// one that only ever saw its rate lowered), which is every idle
  /// replica's state (DataNode::MutableQuota).
  std::unique_ptr<quota::PartitionQuota> quota;
  double ru_this_tick = 0;  ///< RU served in the current tick.
  double ru_rate = 0;       ///< EWMA of RU/s (rescheduler load input).
  /// FNV-1a state of the node-cache key prefix "<tenant>|<partition>|"
  /// (computed once at AddReplica). Continuing it over the client key
  /// (Fnv1a64Continue) equals HashString(CacheKeyFor(req)) without
  /// materializing the prefixed string — the per-request cache-key hash
  /// becomes O(|key|) with no buffer build.
  uint64_t cache_prefix_hash = 0;
  bool is_primary = true;
  /// On the node's EWMA active list (DataNode::ewma_active_): set when the
  /// replica serves RU, cleared when its rate decays back to exactly 0.
  bool ewma_listed = false;
};

/// Node-level counters for one tick (drained with TakeTickStats).
struct NodeTickStats {
  uint64_t submitted = 0;
  uint64_t rejected_quota = 0;  ///< Partition-quota rejections.
  uint64_t completed = 0;
  uint64_t cache_hits = 0;
  uint64_t disk_served = 0;
  uint64_t repl_applied = 0;    ///< Replication records applied this tick.
  double cpu_ru_used = 0;
  double reject_cpu_ru = 0;
  sched::TickStats wfq;
};

/// A single simulated DataNode.
class DataNode {
 public:
  DataNode(NodeId id, DataNodeOptions options, const Clock* clock);
  // Hosted engines point at load_version_: the node never moves.
  DataNode(const DataNode&) = delete;
  DataNode& operator=(const DataNode&) = delete;

  // -- Topology -------------------------------------------------------------

  /// Places a replica of (tenant, partition) on this node.
  void AddReplica(TenantId tenant, PartitionId partition,
                  double partition_quota_ru, bool is_primary);

  /// Drops a replica; returns false if not hosted here.
  bool RemoveReplica(TenantId tenant, PartitionId partition);

  bool HasReplica(TenantId tenant, PartitionId partition) const;

  /// Whether this node hosts (tenant, partition) as its primary. The
  /// routing layer asks the destination node this at resolve time — the
  /// simulator's analogue of a production node answering MOVED.
  bool IsPrimaryFor(TenantId tenant, PartitionId partition) const;

  /// Primary/replica role flip, driven by the MetaServer during failover
  /// promotion and post-recovery failback.
  void SetReplicaPrimary(TenantId tenant, PartitionId partition,
                         bool is_primary);

  /// Updates the partition quota after tenant scaling.
  void SetPartitionQuota(TenantId tenant, PartitionId partition,
                         double partition_quota_ru);

  /// Enables/disables partition-quota admission (Figure 7 ablation).
  void SetPartitionQuotaEnforcement(bool enabled);

  // -- Lifecycle ------------------------------------------------------------

  NodeState state() const { return state_; }

  /// True when the node accepts and schedules work (kAlive).
  bool CanServe() const { return state_ == NodeState::kAlive; }

  /// Crashes the node: every queued WFQ entry and in-flight pending
  /// request is dropped on the floor (their completions never fire — the
  /// simulator resolves the stranded ids as Unavailable), and subsequent
  /// Submit() calls are rejected. Engines keep their durable state for
  /// recovery. Returns the number of dropped in-flight
  /// requests. No-op (returns 0) if already failed.
  size_t Fail();

  /// Begins recovery of a failed node: each replica engine restarts
  /// (LsmEngine::CrashAndRecover) with its unflushed writes intact, as a
  /// write-ahead-log replay would restore them, so every acknowledged
  /// write survives. The node stays non-serving (kRecovering)
  /// until CompleteRecovery() — the simulator holds it there for the
  /// configured number of catch-up ticks. No-op unless kFailed.
  void StartRecovery();

  /// Rejoins the cluster (kRecovering -> kAlive). No-op unless
  /// kRecovering.
  void CompleteRecovery();

  // -- Request path ---------------------------------------------------------

  /// Admits `req` into the request queue. Over-quota requests are rejected
  /// here (burning reject_cpu_ru of the node's CPU) and produce an
  /// immediate Throttled response. Taken by const reference: the request
  /// is field-assigned into a recycled slab slot whose string capacity is
  /// reused, and the caller's buffer keeps ITS capacity too — both sides
  /// of the hop recycle instead of trading allocations via moves.
  void Submit(const NodeRequest& req);

  /// Runs one scheduling tick: WFQ over everything admitted so far.
  void Tick();

  // -- Replication ----------------------------------------------------------

  /// Applies one record of a primary's replication stream to the hosted
  /// replica of (tenant, partition). Called from the Replicate pipeline
  /// step — possibly concurrently across nodes, never concurrently on one
  /// node (per-node batches), and only with streams addressed to this
  /// node. Returns false if the replica is absent or the stream gapped
  /// (the shipper then falls back to a snapshot resync).
  bool ApplyReplicated(TenantId tenant, PartitionId partition,
                       const storage::ReplRecordPtr& rec);

  /// Re-seeds the hosted replica of (tenant, partition) with a full
  /// snapshot of `src` (a primary engine). Returns false if not hosted.
  bool ResyncReplica(TenantId tenant, PartitionId partition,
                     const storage::LsmEngine& src);

  /// Replays `src`'s replication log records in (after, through] into
  /// the hosted replica of (tenant, partition), falling back to a
  /// snapshot resync if the stream gaps. The one catch-up loop of both
  /// the Replicate step and a recovering node; same concurrency rules
  /// as ApplyReplicated.
  void ApplyLogDelta(TenantId tenant, PartitionId partition,
                     const storage::LsmEngine& src, uint64_t after,
                     uint64_t through);

  /// Responses completed since the last drain, in a fresh vector (a
  /// convenience for single-node tests; the pipeline uses
  /// SwapResponses).
  std::vector<NodeResponse> TakeResponses();

  /// The pipeline's O(1) drain: swaps the filled response buffer with
  /// `buf` (which must be empty; its capacity becomes the node's next
  /// accumulation buffer), so no response is moved or copied.
  void SwapResponses(std::vector<NodeResponse>& buf) {
    buf.swap(responses_);
  }

  /// Stats of the last tick.
  NodeTickStats TakeTickStats();

  // -- Introspection --------------------------------------------------------

  NodeId id() const { return id_; }
  const DataNodeOptions& options() const { return options_; }

  /// Availability zone this node lives in (paper Section 3.1: partition
  /// replicas spread across AZs). Assigned by the deployment.
  uint32_t az() const { return az_; }
  void set_az(uint32_t az) { az_ = az; }

  /// Gray-failure injection: every served request's latency is
  /// multiplied by `factor` (1.0 = healthy). The node stays kAlive and
  /// keeps serving — this is the slow-but-not-dead failure mode the
  /// gray detector exists to catch. Call between ticks (serial).
  void SetServiceDegradation(double factor) {
    service_degradation_ = factor < 0 ? 0 : factor;
  }
  double service_degradation() const { return service_degradation_; }

  /// One stateless service-time draw as this node would charge tenant
  /// `tenant` for request `req_id`, degradation included. Used by the
  /// Settle stage to price the alternate leg of a hedged read without
  /// executing it. Falls back to cpu_service_micros when the sampled
  /// model is disabled.
  Micros SampleServiceMicros(TenantId tenant, uint64_t req_id) const;

  size_t replica_count() const { return replicas_.size(); }
  const cache::SaLruCache& data_cache() const { return cache_; }

  /// Bytes of data stored across all replicas on this node.
  uint64_t StoredBytes() const;

  /// Sum of hosted partition quotas (denominator of wPartition).
  double TotalPartitionQuota() const;

  /// Version of everything the rescheduler's load model reads from this
  /// node: bumped by replica add/remove and role flips, lifecycle
  /// transitions, nonzero EWMA folds, and every data mutation of a
  /// hosted engine (direct engine writes included — each engine counts
  /// into this version). Equal versions mean an identical model view.
  uint64_t load_version() const { return load_version_; }

  /// All replicas hosted (for the rescheduler).
  std::vector<const PartitionReplica*> Replicas() const;

  storage::LsmEngine* EngineFor(TenantId tenant, PartitionId partition);
  const storage::LsmEngine* EngineFor(TenantId tenant,
                                      PartitionId partition) const {
    const PartitionReplica* rep = FindReplica(tenant, partition);
    return rep == nullptr ? nullptr : rep->engine.get();
  }

  /// Per-tenant RU served in the last completed tick (for load metrics).
  /// Sorted by tenant id; the backing buffers are reused across ticks.
  const std::vector<std::pair<TenantId, double>>& LastTickTenantRu() const {
    return last_tick_tenant_ru_;
  }

 private:
  struct PendingContext {
    NodeRequest req;
    Micros admitted_at = 0;
    int wait_ticks = 0;
    bool active = false;  ///< Slab slot is live (not on the free list).
    // Engine read outcome captured at probe time so the completion stage
    // does not re-execute (and double-count) the read.
    bool probed = false;
    Status probe_status;
    /// Payload handle: the engine record's bytes for GET (and the
    /// node-cache entry's on a hit), an aliased field for HGET, one
    /// built buffer for HLEN, HGETALL (serialized) and SCAN (scan-codec
    /// framed). Null until the probe finds a value.
    SharedValue probe_value;
    uint64_t probe_hash_fields = 0;
    uint64_t probe_scan_entries = 0;  ///< Entries a SCAN probe emitted.
    storage::ReadIo probe_io;
  };

  static uint64_t ReplicaKey(TenantId tenant, PartitionId partition) {
    return (static_cast<uint64_t>(tenant) << 32) | partition;
  }

  /// Probe of a write (served at the CPU layer) or a scan (runs its
  /// merge iterator now and frames the result into the slab slot).
  sched::CacheProbe ProbeWriteOrScan(PendingContext& ctx);

  /// The scheduler's probe (DualLayerWfq::ProbeBatchFn) and the one code
  /// path that resolves a point read: node-cache lookups in pop order,
  /// then one LsmEngine::MultiFind per replica over the misses, with the
  /// same status, value and I/O footprint as LsmEngine::Get / HGet / HLen
  /// / HGetAll on that engine. Writes and scans go to ProbeWriteOrScan.
  void ProbeBatch(const sched::SchedRequest* reqs, size_t n,
                  sched::CacheProbe* out);
  void CompleteRequest(const sched::SchedRequest& sreq,
                       sched::SchedOutcome outcome);

  /// Resolves a scheduler entry to its pending slab slot, or nullptr if
  /// the request was already released (queue-deadline expiry): slots are
  /// recycled, so the req_id must still match.
  PendingContext* PendingAt(const sched::SchedRequest& sreq) {
    if (sreq.pending_slot >= pending_pool_.size()) return nullptr;
    PendingContext& ctx = pending_pool_[sreq.pending_slot];
    if (!ctx.active || ctx.req.req_id != sreq.req_id) return nullptr;
    return &ctx;
  }

  /// Returns a slab slot to the free list. The slot's strings keep their
  /// capacity for the next request that lands on it; its payload handles
  /// are dropped, so a request that dies queued (deadline expiry) pins
  /// no write payload, engine record or cache payload while the slot
  /// sits free.
  void ReleasePending(uint32_t slot) {
    pending_pool_[slot].active = false;
    pending_pool_[slot].req.value = nullptr;
    pending_pool_[slot].probe_value = nullptr;
    pending_free_.push_back(slot);
    pending_live_--;
  }
  NodeResponse ExecuteOnEngine(PendingContext& ctx, PartitionReplica& rep,
                               ServedBy served_by, Micros extra_latency);

  /// Rebuilds `cache_key_` for `req` and returns it. The scratch buffer
  /// is valid until the next CacheKeyFor call; node request paths run
  /// single-threaded per node, so one scratch suffices.
  const std::string& CacheKeyFor(const NodeRequest& req) const;
  /// Same key from its parts (the replicated-apply invalidation has no
  /// request to hand).
  const std::string& CacheKeyFor(TenantId tenant, PartitionId partition,
                                 std::string_view client_key) const;

  /// The replica's partition-quota bucket, built full at its current
  /// rate on first use (see PartitionReplica::quota).
  quota::PartitionQuota& MutableQuota(PartitionReplica& rep) {
    if (!rep.quota) {
      rep.quota = std::make_unique<quota::PartitionQuota>(
          rep.partition_quota_ru, clock_);
      rep.quota->SetEnabled(quota_enforcement_);
    }
    return *rep.quota;
  }

  /// Hot-path replica lookup through the flat side index.
  PartitionReplica* FindReplica(TenantId tenant, PartitionId partition) {
    PartitionReplica** slot =
        replica_index_.Find(ReplicaKey(tenant, partition));
    return slot ? *slot : nullptr;
  }
  const PartitionReplica* FindReplica(TenantId tenant,
                                      PartitionId partition) const {
    return const_cast<DataNode*>(this)->FindReplica(tenant, partition);
  }

  /// Recomputes the cached quota denominator with the same ordered sum
  /// the pre-cache code used, so float results stay bit-identical.
  void RecomputeTotalQuota();

  /// Accumulates actual RU into the per-tick tenant ledger.
  void AddTenantRu(TenantId tenant, double ru);

  NodeId id_;
  uint32_t az_ = 0;
  NodeState state_ = NodeState::kAlive;
  DataNodeOptions options_;
  const Clock* clock_;
  cache::SaLruCache cache_;
  storage::DiskModel disk_;
  sched::DualLayerWfq wfq_;
  /// Ordered owner of hosted replicas: control-plane walks (EWMA fold,
  /// StoredBytes, Replicas) depend on tenant/partition iteration order.
  std::map<uint64_t, PartitionReplica> replicas_;
  /// Open-addressed mirror of replicas_ for request-path lookups;
  /// std::map guarantees the cached pointers stay stable.
  FlatMap64<PartitionReplica*> replica_index_;
  double total_partition_quota_ = 0;  ///< Cached wPartition denominator.
  uint64_t load_version_ = 0;         ///< See load_version().
  ru::RuEstimator ru_model_;
  bool quota_enforcement_ = true;
  /// Stateless sampled service-time model (latency subsystem); inert
  /// unless options_.service_time.enabled.
  latency::ServiceTimeModel service_model_;
  double service_degradation_ = 1.0;  ///< Gray-failure multiplier.
  /// In-flight requests live in a slab; the scheduler carries the slot
  /// index (SchedRequest::pending_slot), so the probe/complete hot path
  /// is a vector index instead of a hash lookup, and recycled slots keep
  /// their string capacity across requests.
  std::vector<PendingContext> pending_pool_;
  std::vector<uint32_t> pending_free_;  ///< Recyclable slab slots.
  size_t pending_live_ = 0;             ///< Active slab entries.
  std::vector<NodeResponse> responses_;
  NodeTickStats tick_stats_;
  /// Per-tick tenant RU ledger: dense append-only pairs plus a flat
  /// index, cleared (capacity kept) every tick instead of rebuilding
  /// node-based maps — the steady state makes zero allocations.
  std::vector<std::pair<TenantId, double>> tenant_ru_this_tick_;
  std::vector<std::pair<TenantId, double>> last_tick_tenant_ru_;
  FlatMap64<uint32_t> tenant_ru_slot_;  ///< tenant -> ledger index.
  mutable std::string cache_key_;       ///< CacheKeyFor scratch.
  /// Tick() deadline sweep: (req_id, slab slot) of expired requests.
  std::vector<std::pair<uint64_t, uint32_t>> expired_scratch_;
  double pending_reject_ru_ = 0;  ///< CPU burned on rejections this tick.
  /// Replica keys with nonzero (ru_this_tick, ru_rate) state: the tick's
  /// EWMA fold walks only these — for every other replica the fold is
  /// 0.2*0 + 0.8*0 == 0 exactly, so skipping it is bit-identical.
  std::vector<uint64_t> ewma_active_;
  std::vector<uint32_t> batch_miss_;  ///< ProbeBatch cache-miss scratch.
  /// SCAN probe scratch: the merge iterator fills it, the probe frames
  /// it into the slab slot. Cleared (capacity and per-slot string
  /// capacity kept) per scan — zero allocations in the steady state.
  storage::ScanBuffer scan_buffer_;
};

}  // namespace node
}  // namespace abase
