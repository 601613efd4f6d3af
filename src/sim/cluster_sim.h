// ClusterSim — the deterministic discrete-time cluster that stands in for
// ByteDance's production fleet (DESIGN.md substitution table).
//
// Each one-second tick runs the eight-stage request pipeline
// (sim/pipeline.h):
//
//   Fault -> Generate -> ProxyAdmit -> Route -> NodeSchedule
//         -> Replicate -> Settle -> Control
//
//   1. Fault: the FailureDomain lands queued FailNode/RecoverNode
//      events and advances failover, catch-up and rebuilds;
//   2. Generate: every tenant's workload generator emits client requests
//      (plus externally injected ones);
//   3. ProxyAdmit: the limited fan-out router picks a proxy; the proxy
//      serves from its AU-LRU cache, throttles against its quota, or
//      forwards (background cache-refresh fetches ride along);
//   4. Route: forwarded requests reach the primary DataNode of their
//      partition (eventual-consistency reads round-robin across alive
//      replicas) and pass partition-quota admission into the dual-layer
//      WFQ;
//   5. NodeSchedule: every DataNode runs its scheduling tick — through
//      the data-plane executor, which may fan nodes out across worker
//      threads (SimOptions::data_plane_workers); responses merge back in
//      node-id order so results are bit-identical to a serial run;
//   6. Replicate: each partition's primary ships its acknowledged write
//      stream (delayed by SimOptions::replication_lag_ticks) to the
//      replica engines, per-node batches applied in node-id order;
//   7. Settle: responses flow back to the proxies (cache fill + quota
//      settlement) and into tenant metrics; every `meta_report_interval`
//      ticks, aggregate proxy traffic is reported to the MetaServer,
//      which issues clamp directives;
//   8. Control: the closed serverless loop — settled RU rolls into
//      hourly usage series, the per-tenant autoscalers (predictive
//      Algorithm 1 or the reactive baseline) scale quotas through the
//      MetaServer, online partition splits stream real key ranges out of
//      the parent primaries and cut over atomically, and the
//      rescheduler's planned migrations execute as throttled background
//      copies.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "autoscale/autoscaler.h"
#include "common/clock.h"
#include "common/event_wheel.h"
#include "common/executor.h"
#include "common/flat_map.h"
#include "common/histogram.h"
#include "common/rng.h"
#include "common/scan_codec.h"
#include "common/shared_value.h"
#include "common/smallvec.h"
#include "common/time_series.h"
#include "common/trace.h"
#include "common/types.h"
#include "latency/gray_detector.h"
#include "latency/hedge.h"
#include "latency/options.h"
#include "meta/meta_server.h"
#include "node/data_node.h"
#include "proxy/fanout_router.h"
#include "proxy/proxy.h"
#include "resched/pool_model.h"
#include "resched/rescheduler.h"
#include "sim/failure_domain.h"
#include "sim/pipeline.h"
#include "sim/request_context.h"
#include "sim/workload.h"

namespace abase {
namespace sim {

/// What a split cutover does to the tenant's proxy content stores. A
/// cutover changes the partition set a cached scan was merged across;
/// production systems invalidate conservatively. The prefix-tree store
/// makes the surgical option cheap: scans drop in O(scan-bearing
/// subtree) while point entries — whose key->value mapping a split never
/// changes — keep serving.
enum class ProxyInvalidationMode {
  /// Seed behavior: no cutover invalidation (golden digests unchanged).
  kNone = 0,
  /// Conservative baseline: drop the whole content store at cutover.
  kFullFlush,
  /// Scan-only invalidation: InvalidateScans() — point entries survive.
  kPrefixSubtree,
};

/// Cluster-wide simulation options.
struct SimOptions {
  uint64_t seed = 42;
  node::DataNodeOptions node;
  proxy::ProxyOptions proxy;
  Micros tick = kMicrosPerSecond;
  int meta_report_interval_ticks = 5;
  /// Worker threads for the parallel pipeline stages. 1 = the serial
  /// reference executor; N > 1 = a work-stealing MorselExecutor pool of
  /// N (results are bit-identical either way).
  int data_plane_workers = 1;
  /// When non-empty, the simulator writes a Chrome-trace-format JSON
  /// profile of every tick here (per-stage and per-morsel slices; open
  /// in ui.perfetto.dev). Tracing is off when empty — the hot path pays
  /// one branch.
  std::string trace_path;
  /// Tracked outcomes that no caller collects (via TakeOutcome or a
  /// subscription) are dropped after this many ticks, so abandoned
  /// requests cannot grow the outcome table forever during long async
  /// runs. 0 keeps them indefinitely.
  int outcome_ttl_ticks = 256;
  /// Failure-detection delay: ticks between a FailNode taking effect and
  /// the MetaServer promoting surviving replicas to primary. 0 promotes
  /// within the same tick the failure lands.
  int failover_detection_ticks = 1;
  /// Asynchronous replication lag of the per-partition primary->replica
  /// streams, in ticks: each tick's Replicate step ships the writes the
  /// primary acknowledged this many ticks ago (0 = replicas apply every
  /// acknowledged write within the tick it was acknowledged, so a
  /// primary kill loses zero acked writes). The lost-write window at
  /// failover grows with this lag.
  int replication_lag_ticks = 0;
  /// Grace period before a planned re-replication target (from
  /// PromoteFailover) starts copying: if the failed node begins
  /// recovering within this many ticks the rebuild is cancelled — its
  /// own log catch-up is cheaper than a full copy.
  int re_replication_delay_ticks = 8;
  /// Closed-loop control plane (the Control pipeline stage). Every this
  /// many ticks the per-tenant autoscalers run over the rolled-up usage
  /// history and apply their decisions through ClusterSim::
  /// SetTenantQuota. 0 disables the autoscaling loop (usage is not
  /// accumulated either); staged splits and queued migrations still
  /// advance every tick.
  int control_interval_ticks = 0;
  /// Sim ticks per control-plane "hour": the roll-up granularity of the
  /// usage TimeSeries the forecaster consumes, and the timebase of the
  /// scale-down cooldown. 3600 matches wall-clock (1 s ticks);
  /// experiments compress it so 30-day histories fit a short run.
  int control_ticks_per_hour = 3600;
  /// Every this many ticks the Control stage snapshots each pool into
  /// the rescheduler's load model and enqueues the planned migrations as
  /// throttled background copies. 0 disables background rescheduling.
  int resched_interval_ticks = 0;
  /// Modeled copy bandwidth of a background migration: a queued
  /// replica move transfers this many bytes of engine state per tick
  /// before MetaServer::MigrateReplica installs it.
  uint64_t migration_bytes_per_tick = 32ull << 20;
  /// Modeled streaming bandwidth of an online partition split: bytes of
  /// re-hashed key range exported from each parent primary per tick.
  uint64_t split_bytes_per_tick = 32ull << 20;
  /// Sub-tick latency subsystem (latency/options.h): AZ/RTT classes,
  /// hedged replica reads, gray-failure detection, SLO accounting.
  /// Disabled by default — the data plane then settles exactly as the
  /// seed did (golden digests unchanged). Enable together with
  /// node.service_time for non-degenerate service times.
  latency::LatencyOptions latency;
  /// Proxy content-store treatment at online split cutovers (the scan
  /// cache benchmark's A/B switch). kNone by default.
  ProxyInvalidationMode split_invalidation = ProxyInvalidationMode::kNone;
  /// Striped O(replicas) initial placement in the MetaServer: replica r
  /// of partition p lands at pool index (tenant + p*replicas + r) mod
  /// pool size (advancing past unplaceable nodes) instead of the
  /// O(pool) least-loaded scan. Registration of a million tenants is
  /// quadratic without it. Off by default — placement quality matters
  /// more than registration speed at normal scale.
  bool striped_placement = false;
};

/// Per-tenant autoscaling mode for the closed control loop.
enum class AutoscaleMode {
  kDisabled = 0,
  /// Figure 8b baseline: scale up only after current usage crosses the
  /// threshold (users already felt the pressure).
  kReactive,
  /// Algorithm 1: forecast the horizon from the rolled-up history and
  /// scale ahead of predicted demand.
  kPredictive,
};

/// Per-tenant metrics for one tick.
struct TenantTickMetrics {
  uint64_t issued = 0;
  uint64_t ok = 0;
  uint64_t errors = 0;      ///< Data-plane errors + proxy throttles.
  uint64_t throttled = 0;   ///< Subset of errors: quota rejections.
  uint64_t unavailable = 0; ///< Subset of errors: failed/absent primaries.
  /// Forwards that observed a stale routing epoch and chased a redirect
  /// (refresh + retry). Failover cost made visible: without the cached
  /// tables this was hidden by omniscient per-request routing.
  uint64_t redirects = 0;
  /// Reads served by a non-primary replica (Consistency::kEventual).
  uint64_t replica_reads = 0;
  /// Summed staleness of those replica reads: how many applied writes
  /// the serving replica trailed the partition's primary by at execution
  /// time. replica_lag_sum / replica_reads = mean staleness in writes.
  uint64_t replica_lag_sum = 0;
  uint64_t proxy_hits = 0;
  uint64_t node_cache_hits = 0;
  uint64_t disk_reads = 0;
  uint64_t reads_completed = 0;
  double ru_charged = 0;
  double latency_sum = 0;  ///< Micros, over ok responses.
  Micros latency_max = 0;
  uint64_t latency_count = 0;
  // -- Latency subsystem (all zero while SimOptions::latency is off) --------
  uint64_t hedged_reads = 0;  ///< Eventual reads whose hedge was armed.
  uint64_t hedge_wins = 0;    ///< Hedges where the alternate won the race.
  /// Settled requests whose client latency exceeded the tenant's SLO
  /// target this tick (the burn counter).
  uint64_t slo_violations = 0;
  /// Client-latency percentiles of this tick, in micros, from the
  /// per-tick histogram (0 when the subsystem is off or the tick served
  /// nothing).
  double latency_p50 = 0;
  double latency_p95 = 0;
  double latency_p99 = 0;

  double SuccessQps(double tick_seconds) const {
    return static_cast<double>(ok) / tick_seconds;
  }
  double ErrorQps(double tick_seconds) const {
    return static_cast<double>(errors) / tick_seconds;
  }
  double MeanLatency() const {
    return latency_count == 0 ? 0 : latency_sum /
                                        static_cast<double>(latency_count);
  }
  /// Combined cache hit ratio over completed reads (proxy + DataNode), the
  /// quantity the paper plots in Figure 5.
  double CacheHitRatio() const {
    uint64_t reads = proxy_hits + reads_completed;
    return reads == 0 ? 0
                      : static_cast<double>(proxy_hits + node_cache_hits) /
                            static_cast<double>(reads);
  }

  /// Folds a per-worker admission scratch into this row. Bit-exactness
  /// contract: the merge is only FP-exact when `this` holds +0.0 in the
  /// double fields the scratch populated (latency_sum) — the admission
  /// pass merges before any settle-path double lands, so the sum
  /// scratch + 0.0 reproduces the serial accumulation bit for bit.
  /// Percentile fields are seal-time outputs, never accumulated.
  void MergeFrom(const TenantTickMetrics& o) {
    issued += o.issued;
    ok += o.ok;
    errors += o.errors;
    throttled += o.throttled;
    unavailable += o.unavailable;
    redirects += o.redirects;
    replica_reads += o.replica_reads;
    replica_lag_sum += o.replica_lag_sum;
    proxy_hits += o.proxy_hits;
    node_cache_hits += o.node_cache_hits;
    disk_reads += o.disk_reads;
    reads_completed += o.reads_completed;
    ru_charged += o.ru_charged;
    latency_sum += o.latency_sum;
    if (o.latency_max > latency_max) latency_max = o.latency_max;
    latency_count += o.latency_count;
    hedged_reads += o.hedged_reads;
    hedge_wins += o.hedge_wins;
    slo_violations += o.slo_violations;
  }
};

/// One simulated tenant: proxies + router + workload + metrics.
struct TenantRuntime {
  /// Per-tick metrics, latency and closed-loop control state: only a
  /// tenant that carries traffic or runs the control fold needs it, so
  /// it is built on first use (ClusterSim::MutableLazy) and a registered
  /// tenant that never does holds none of it.
  struct Lazy {
    explicit Lazy(const latency::HedgePolicy& hedge) : hedger(hedge) {}
    Lazy() = default;

    /// This tick's metrics row, pushed onto `history` and reset by
    /// FinalizeTickMetrics (ClusterSim::Current).
    TenantTickMetrics current;

    /// Per-tick client-latency histogram (latency subsystem): filled by
    /// the timed Settle path, folded into latency_p50/p95/p99 and reset
    /// by FinalizeTickMetrics.
    Histogram tick_latency_hist{1e9};
    /// Per-tenant hedged-read state (threshold histogram + frozen
    /// threshold); policy copied from SimOptions::latency.hedge.
    latency::Hedger hedger;

    // -- Closed-loop control state (the Control stage) -----------------------

    AutoscaleMode autoscale_mode = AutoscaleMode::kDisabled;
    autoscale::ScalingPolicy scaling_policy;
    forecast::EnsembleOptions forecast_options;
    autoscale::ReactiveScaler reactive_scaler;
    /// Hourly settled RU/s history the forecaster consumes (seeded points
    /// + one appended per completed control-plane hour).
    TimeSeries usage_history;
    /// Matching hourly tenant-quota records (denoising input).
    TimeSeries quota_history;
    double hour_ru_accum = 0;  ///< Settled RU since the hour opened.
    int hour_ticks = 0;        ///< Ticks into the current hour.
    /// EWMA of settled RU/s — the reactive baseline's "current usage".
    double ru_rate_ewma = 0;
    /// Control-plane-time stamp of the last applied scale-down (-1 =
    /// never). Kept in the compressed-hour timebase so the 7-day
    /// cooldown means 7 control-plane days regardless of tick
    /// compression.
    Micros last_scale_down_control = -1;
  };

  /// `lazy`, or a shared default-valued block before it is built (every
  /// field then reads as it would in a freshly built one, the hedger's
  /// threshold included: 0 until it observes a sample).
  const Lazy& lazy_or_default() const {
    static const Lazy kDefault;
    return lazy ? *lazy : kDefault;
  }

  /// The tenant's id; its configuration lives in the MetaServer's
  /// TenantMeta (no per-runtime copy).
  TenantId id = 0;
  proxy::RoutingMode routing_mode = proxy::RoutingMode::kLimitedFanout;
  std::unique_ptr<proxy::LimitedFanoutRouter> router;
  /// Private RNG stream for this tenant's fan-out router, seeded
  /// `MixSeed(sim seed, 1<<32 | tenant id)`. Tenants admit traffic
  /// concurrently under the parallel executor, so they must not share
  /// the sim-wide RNG. Built on the tenant's first routed request
  /// (ProxyAdmitStage::AdmitOne): the generator state is ~2.5 KB, and a
  /// registered tenant that never carries traffic holds none of it.
  std::unique_ptr<Rng> router_rng;
  std::vector<std::unique_ptr<proxy::Proxy>> proxies;
  /// Epoch-stamped routing cache: the replica set per partition (index 0
  /// = primary), refreshed only when a forward proves unroutable under a
  /// stale epoch (the redirect chase in RouteStage). The proxy plane
  /// never consults the MetaServer per request. Primary reads and writes
  /// resolve entry 0; eventual reads round-robin over the alive entries.
  uint64_t route_epoch = 0;
  std::vector<std::vector<NodeId>> route_table;
  /// Round-robin cursor for eventual-consistency replica reads (advanced
  /// only in RouteStage's serial resolve pass).
  uint64_t replica_read_rr = 0;
  /// Eventual reads resolved while gray demotion is active; drives the
  /// canary-probe cadence (GrayDetectorOptions::probe_interval).
  uint64_t eventual_read_seq = 0;
  std::unique_ptr<WorkloadGenerator> workload;
  std::vector<TenantTickMetrics> history;
  Histogram latency_hist{1e9};  ///< Cumulative client latency (us).
  std::unique_ptr<Lazy> lazy;   ///< See Lazy; null until first use.
  /// Resolved SLO target: TenantConfig override or the cluster default.
  Micros slo_target = 0;
  uint64_t value_bytes_sum = 0;
  uint64_t value_bytes_count = 0;

  // -- Closed-loop control counters (the rest of the state is in Lazy) -----

  uint64_t scale_ups = 0;    ///< Applied scale-up decisions.
  uint64_t scale_downs = 0;  ///< Applied scale-down decisions.
  /// Splits staged by SetTenantQuota or a control round (not by direct
  /// StartPartitionSplit calls).
  uint64_t splits_started = 0;

  // -- Active-set bookkeeping (DESIGN.md "Active-set ticking") ---------------

  /// tick_count_ at AddTenant: `history` logically starts here, so the
  /// invariant is history.size() == tick_count_ - created_at_tick
  /// once lazily backfilled with all-zero entries for untouched ticks.
  uint64_t created_at_tick = 0;
  /// Generator parked: the workload's rate-schedule cell is exactly 0
  /// at the current tick, so Generate skips it entirely (a zero-rate
  /// WorkloadGenerator::Tick consumes no RNG and emits nothing — the
  /// skip is bit-identical). Woken by the generator wheel at the next
  /// schedule boundary, or by SetWorkload/MutableWorkload.
  bool gen_parked = false;
  /// Park generation: a wheel wake-up whose recorded seq no longer
  /// matches is stale (the tenant unparked and re-parked meanwhile).
  uint64_t wake_seq = 0;
  /// Touch stamps against ClusterSim::touch_epoch_ / report_epoch_:
  /// dedupe membership in the per-tick / per-report-interval touched
  /// ledgers without per-tenant set lookups.
  uint64_t touch_stamp = 0;
  uint64_t report_stamp = 0;
  /// Fused admit/route cutoff for the current tick: stamped with
  /// ClusterSim::touch_epoch_ when a scan is admitted. Forwards admitted
  /// after a scan (in this tenant's generated batch *or* its injected
  /// batch) must route in the serial walk — a scan's fan-out can refresh
  /// the routing table and advance cursors mid-stream, and fusing a
  /// later forward would resolve it against pre-scan state.
  uint64_t route_fuse_stop_stamp = 0;
  /// Control-plane fold cursor: the tick_count_ through which this
  /// tenant's hour accumulator / RU EWMA have been folded. Untouched
  /// ticks fold as ru=0 (their metrics rows are all-zero), so catch-up
  /// is exact.
  uint64_t ctrl_synced_tick = 0;
};

/// The cluster.
class ClusterSim {
 public:
  explicit ClusterSim(SimOptions options = {});
  ClusterSim(const ClusterSim&) = delete;  // Stages and hooks hold `this`.

  // -- Topology ---------------------------------------------------------------

  /// Creates `num_nodes` DataNodes and registers them as a pool.
  PoolId AddPool(size_t num_nodes);
  PoolId AddPool(size_t num_nodes, const node::DataNodeOptions& node_options);

  /// Creates a tenant (metadata + replicas + proxy fleet).
  Status AddTenant(const meta::TenantConfig& config, PoolId pool,
                   proxy::RoutingMode mode =
                       proxy::RoutingMode::kLimitedFanout);

  /// Attaches a workload generator to a tenant.
  void SetWorkload(TenantId tenant, const WorkloadProfile& profile);

  /// Bulk-loads `num_keys` values straight into the tenant's primary
  /// engines — the dataset an onboarded production tenant already has.
  /// Keys are named "t<tenant>:k<index>", which matches WorkloadGenerator
  /// only for profiles with `scan_prefix_groups == 0`; with prefix
  /// groups the generator names keys "t<tenant>:g<group>:k<index>", so
  /// its traffic never reads, overwrites or scans a preloaded key.
  void PreloadKeys(TenantId tenant, uint64_t num_keys, uint64_t value_bytes,
                   double value_sigma = 0.3);

  /// Mutable workload profile for scenario scripting mid-run.
  WorkloadProfile* MutableWorkload(TenantId tenant);

  // -- Execution ----------------------------------------------------------------

  void Tick();
  void RunTicks(size_t n);

  /// Injects one client request ahead of the next tick (tests and the
  /// synchronous abase::Client facade).
  void InjectRequest(const ClientRequest& req);

  /// Final outcome of a tracked request (see ClientRequest::track_outcome).
  /// Defined in request_context.h; aliased here for existing callers.
  using ClientOutcome = sim::ClientOutcome;

  /// Retrieves (and removes) the outcome of a tracked request, if it has
  /// completed.
  std::optional<ClientOutcome> TakeOutcome(uint64_t req_id);

  /// Invoked when a subscribed request's outcome settles, from the serial
  /// sections of the tick (the injected-admission tail of ProxyAdmit for
  /// proxy-local results, Route for routing failures, Settle for
  /// data-plane responses) — never from a parallel region.
  using OutcomeCallback =
      std::function<void(uint64_t req_id, ClientOutcome outcome)>;

  /// One-shot completion subscription for a tracked request: instead of
  /// parking the outcome in the table for TakeOutcome, the simulator
  /// hands it to `cb` the moment it settles. If the outcome already
  /// settled, `cb` fires immediately. This is the push half of the
  /// completion model behind abase::Cluster::Step()/Drain().
  void SubscribeOutcome(uint64_t req_id, OutcomeCallback cb);

  /// Cancels a pending subscription. Returns false if `req_id` had none
  /// (already delivered or never subscribed).
  bool UnsubscribeOutcome(uint64_t req_id);

  /// Uncollected tracked outcomes currently parked for TakeOutcome.
  size_t TrackedOutcomeCount() const { return outcomes_.size(); }

  /// Pending outcome subscriptions (requests submitted but not settled).
  size_t OutcomeSubscriptionCount() const { return subscriptions_.size(); }

  /// Swaps the data-plane executor: 1 worker = serial reference
  /// executor, N > 1 = work-stealing MorselExecutor pool. Safe between
  /// ticks.
  void SetDataPlaneWorkers(int workers);

  // -- Fault injection ------------------------------------------------------------

  /// Crashes a node, effective at the next tick boundary (the Fault
  /// stage): its queued and in-flight work is dropped and every stranded
  /// request resolves Unavailable through the normal outcome path; after
  /// SimOptions::failover_detection_ticks the MetaServer promotes
  /// surviving replicas and bumps the routing epoch.
  void FailNode(NodeId node) { faults_.FailNode(node); }

  /// Starts recovery of a failed node at the next tick boundary: its
  /// engines replay their WALs, then the node spends `catch_up_ticks`
  /// catching up before it rejoins and fails back to primary for the
  /// partitions it led. < 0 sizes the catch-up from the real log deltas
  /// its replicas must replay.
  void RecoverNode(NodeId node, int catch_up_ticks = -1) {
    faults_.RecoverNode(node, catch_up_ticks);
  }

  /// Nodes currently not serving (failed or recovering).
  size_t DownNodeCount() const;

  // -- Gray failures (latency subsystem) -----------------------------------

  /// Injects a gray failure: the node stays alive and keeps answering,
  /// but every served request is `factor` times slower. 1.0 restores
  /// full health. Effective immediately (call between ticks); the gray
  /// detector notices through the latency signal alone — there is no
  /// crash event for the failure detector to see.
  void DegradeNode(NodeId node, double factor);

  /// Whether the gray detector currently flags `node` as slow.
  bool IsNodeGray(NodeId node) const { return gray_detector_.IsGray(node); }

  /// Nodes currently flagged gray.
  size_t GrayNodeCount() const { return gray_detector_.GrayCount(); }

  /// The gray detector (EWMAs, fleet median — for tests and benches).
  const latency::GrayFailureDetector& gray_detector() const {
    return gray_detector_;
  }

  /// SLO burn rate of the tenant over the last `window_ticks` ticks of
  /// settled history: (violations / settled) / (1 - slo_objective).
  /// 1.0 = burning error budget exactly at the objective's rate; above
  /// 1.0 the tenant will exhaust its budget early. 0 when idle.
  double SloBurnRate(TenantId tenant, size_t window_ticks) const;

  /// Report of the most recent failover promotion (re-replication plan,
  /// promoted-primary count, lost-write window), if any has happened.
  /// `replicas_rebuilt_executed` is updated in place as the Fault stage
  /// completes the planned copies.
  const std::optional<meta::RecoveryReport>& LastFailoverReport() const {
    return faults_.last_failover_report();
  }

  /// Re-replication copies executed so far (planned targets whose
  /// partition state the Fault stage actually placed).
  uint64_t ExecutedRebuildCount() const {
    return faults_.executed_rebuilds();
  }

  /// Re-replication copies currently pending in the Fault stage:
  /// counting down, or parked (ParkedRebuildCount).
  size_t PendingRebuildCount() const { return faults_.pending_rebuilds(); }

  /// Pending copies that are due but parked because their source — the
  /// partition's primary slot — cannot serve: every replica was lost, or
  /// the interim primary failed too. Each runs once its source serves
  /// again (the node recovers, or a promotion moves the primary slot to
  /// a survivor).
  size_t ParkedRebuildCount() const { return faults_.parked_rebuilds(); }

  /// Current apply lag of (tenant, partition)'s replication stream, in
  /// records: primary applied sequence minus the slowest alive replica's
  /// applied sequence (0 when fully caught up or unreplicated).
  uint64_t ReplicationLag(TenantId tenant, PartitionId partition) const;

  // -- Closed-loop control plane ----------------------------------------------
  //
  // The Control pipeline stage closes the paper's serverless loop every
  // SimOptions::control_interval_ticks: settled RU rolls into an hourly
  // TimeSeries per tenant, the per-tenant scaler (Algorithm 1 predictive
  // forecast, or the reactive threshold baseline) applies its decision
  // through SetTenantQuota, an over-UP partition quota stages an
  // *online* split (children prepared dark, re-hashed keys streamed out
  // of the parent primaries at split_bytes_per_tick, one atomic
  // epoch-bumped cutover), and every resched_interval_ticks the
  // rescheduler's planned migrations execute as background copies
  // throttled at migration_bytes_per_tick.

  /// Selects the tenant's autoscaling mode and policy for the control
  /// loop (no-op for unknown tenants).
  void EnableAutoscale(TenantId tenant, AutoscaleMode mode,
                       autoscale::ScalingPolicy policy = {},
                       forecast::EnsembleOptions forecast_options = {});

  /// Seeds the tenant's hourly usage history (e.g. a 30-day synthetic
  /// series from GenerateSeries) so the predictive scaler has a past to
  /// forecast from at sim start; the quota history is back-filled with
  /// the current quota.
  void SeedUsageHistory(TenantId tenant, const TimeSeries& usage);

  /// The tenant's rolled-up hourly usage history (nullptr if unknown).
  const TimeSeries* UsageHistory(TenantId tenant) const;

  /// Applies a tenant quota — the one actuator behind the control loop,
  /// abase::Cluster::RunAutoscaler and any direct quota change. Sets it
  /// through MetaServer::SetTenantQuota (partition quotas follow),
  /// re-bases every proxy to quota / proxies, and stages an online split
  /// when the partition quota exceeds UP and none is staged or
  /// streaming. One call splits at most once: each cutover halves the
  /// partition quota, and a later call or control round stages the next
  /// split if it is still above UP. A split that cannot be staged yet (a
  /// parent primary not serving) is not an error. NotFound for unknown
  /// tenants, InvalidArgument for a quota <= 0.
  Status SetTenantQuota(TenantId tenant, double quota_ru);

  /// Manually stages an online split for the tenant (the same staged
  /// path the control loop takes): children placed dark, streaming
  /// starts next tick. InvalidArgument if one is already in progress.
  Status StartPartitionSplit(TenantId tenant);

  /// Whether an online split (streaming or purging) is active.
  bool SplitInProgress(TenantId tenant) const {
    return active_splits_.count(tenant) > 0;
  }

  /// Online splits fully completed (cutover + parent purge done).
  uint64_t SplitsCompleted() const { return splits_completed_; }

  /// Online split cutovers performed (children installed and routable;
  /// the parent purge may still be draining).
  uint64_t SplitCutovers() const { return split_cutovers_; }

  /// Cumulative disposition of replica migrations (immediate and
  /// background), including why skipped ones were skipped.
  struct MigrationStats {
    uint64_t planned = 0;  ///< Enqueued or directly attempted.
    uint64_t applied = 0;
    uint64_t skipped = 0;
    /// Failed attempts bucketed by status code (deterministic order).
    std::map<StatusCode, uint64_t> skip_reasons;
  };
  const MigrationStats& migration_stats() const { return migration_stats_; }

  /// Background migration copies still streaming or queued.
  size_t PendingMigrationCount() const { return migration_queue_.size(); }

  /// Pool models built by background rescheduling so far (pools skipped
  /// by the plan memo do not count).
  uint64_t ReschedulingPlansBuilt() const { return resched_plans_built_; }

  // -- Experiment switches --------------------------------------------------------

  void SetProxyQuotaEnabled(TenantId tenant, bool enabled);
  void SetProxyCacheEnabled(TenantId tenant, bool enabled);
  void SetPartitionQuotaEnabled(bool enabled);  ///< All nodes.

  // -- Metrics -----------------------------------------------------------------

  const std::vector<TenantTickMetrics>& History(TenantId tenant) const;
  const TenantRuntime* Tenant(TenantId tenant) const;
  TenantRuntime* MutableTenant(TenantId tenant);

  // -- Active-set introspection (tests and benches) ---------------------------

  /// Tenants whose generators are not parked (the Generate walk's size).
  size_t ActiveGeneratorCount() const { return gen_active_.size(); }
  /// Tenants on the Replicate stage's active work list.
  size_t ReplActiveCount() const { return repl_active_.size(); }
  /// Pending generator wheel wake-ups (parked schedule boundaries).
  size_t PendingGeneratorWakes() const { return gen_wheel_.size(); }

  // -- Component access -----------------------------------------------------------

  // Read-only views: node state, placement and time change only through
  // the pipeline and ClusterSim's own fault, migration, quota and split
  // paths, never through a handle handed out here.
  const SimClock& clock() const { return clock_; }
  const meta::MetaServer& meta() const { return *meta_; }
  /// The node with id `id`, or nullptr.
  const node::DataNode* FindNode(NodeId id) const;
  /// Every node, in id order.
  const std::vector<const node::DataNode*>& nodes() const {
    return node_views_;
  }
  const SimOptions& options() const { return options_; }

  /// The per-tick stage pipeline (tests drive stages individually).
  TickPipeline& pipeline() { return *pipeline_; }

  /// Requests currently between Route and Settle (forwarded to a
  /// DataNode, response not yet delivered).
  size_t InflightCount() const { return inflight_.size(); }

  // -- Rescheduler bridge -----------------------------------------------------------

  /// Snapshots the pool into the rescheduler's load model, using each
  /// replica's RU EWMA and engine footprint as (flat) load vectors.
  resched::PoolModel BuildPoolModel(PoolId pool) const;

  /// Disposition of one attempted replica migration.
  struct MigrationOutcome {
    resched::Migration migration;
    Status status;
  };

  /// Applies planned migrations to the live topology via the MetaServer,
  /// immediately (no copy throttling — the offline/bench bridge).
  /// Returns one outcome per input migration, in order, so callers see
  /// *why* a migration was skipped instead of a silent success count;
  /// dispositions also accumulate into migration_stats().
  std::vector<MigrationOutcome> ApplyMigrations(
      const std::vector<resched::Migration>& migrations);

 private:
  friend class ClusterSimTestPeer;
  friend class GenerateStage;
  friend class ProxyAdmitStage;
  friend class RouteStage;
  friend class NodeScheduleStage;
  friend class ReplicateStage;
  friend class SettleStage;
  friend class ControlStage;

  /// Mutable form of FindNode, for ClusterSim and its stages only.
  node::DataNode* MutableNode(NodeId id) {
    return const_cast<node::DataNode*>(std::as_const(*this).FindNode(id));
  }

  /// Settles one client request that the proxy plane resolved locally
  /// (cache hit or throttle) without touching the data plane. Counter /
  /// latency-sum updates land in `m` — either rt.current directly
  /// (injected admission) or a per-worker scratch merged once per tick
  /// (generated morsels); histogram and value-size accumulators stay on
  /// `rt` (tenant-private either way). If the request tracks its
  /// outcome, the outcome is appended to `deferred` for serial
  /// publication instead of being published inline — admission may run
  /// tenant-concurrently.
  void SettleLocalProxyResult(
      TenantRuntime& rt, const ClientRequest& req,
      const proxy::ProxyHandleResult& res,
      std::vector<std::pair<uint64_t, ClientOutcome>>* deferred,
      TenantTickMetrics& m);

  /// Resolves a point (non-scan) forward's destination and writes it
  /// into fwd.ctx: node / hedge_node on success, route_failed on failure
  /// (ctx.node stays kInvalidNode). The destination must be alive and
  /// acknowledge itself primary for the partition, except that eventual
  /// reads take any alive replica. Failure *settlement* is left to the
  /// Route walk, at the forward's position, so quota refunds and outcome
  /// publication keep admission order. Called from ProxyAdmit's
  /// per-tenant morsels for forwards admitted before any scan this tick,
  /// and from Route for the rest. Touches only tenant-private state
  /// (cached route table, RR cursors, `m`) plus read-only node / meta
  /// state; placement is frozen between the Fault and Control stages, so
  /// both call sites see the same placement.
  void RoutePoint(TenantRuntime& rt, PendingForward& fwd,
                  TenantTickMetrics& m);

  /// Delivers a settled outcome: to its subscription callback if one is
  /// pending, otherwise into the table for TakeOutcome. Serial sections
  /// only.
  void PublishOutcome(uint64_t req_id, ClientOutcome outcome);

  /// Drops parked outcomes older than SimOptions::outcome_ttl_ticks.
  void SweepExpiredOutcomes();

  /// Timing attached to a response by the timed Settle path (nullptr on
  /// the legacy path — the latency subsystem disabled).
  struct ResponseTiming {
    Micros client_latency = 0;  ///< Virtual time incl. RTT and hedging.
    bool hedged = false;
    bool hedge_won = false;
    double extra_ru = 0;  ///< The cancelled hedge leg's RU charge.
  };

  void DeliverResponse(const NodeResponse& resp,
                       const ResponseTiming* timing = nullptr);

  /// The timed Settle path (SimOptions::latency.enabled): computes each
  /// response's virtual completion time (node service + WFQ backlog +
  /// disk + cross-AZ RTT, hedge-adjusted), delivers in (virtual_time,
  /// req_id) order, feeds the hedger/SLO/gray-detector signals, and
  /// advances the per-tenant hedge thresholds. Serial barrier section.
  /// Defined in sim/latency_settle.cc.
  void SettleWithTiming(TickContext& ctx);

  /// Alternate replica for a hedged read: the first alive, non-gray
  /// replica of the partition other than `primary_leg`. Does not advance
  /// the round-robin cursor. nullptr when the placement has no second
  /// servable copy.
  node::DataNode* PickHedgeReplica(const TenantRuntime& rt, TenantId tenant,
                                   PartitionId partition,
                                   NodeId primary_leg);

  /// AZ of the proxy forwarding `ctx` (0 for unknown forwards).
  uint32_t ProxyAzOf(const RequestContext& ctx) const;

  void FinalizeTickMetrics();

  // -- Active-set machinery (DESIGN.md "Active-set ticking") ------------------

  /// Opens a tick: advances the touch epoch (rolling the touched ledger
  /// into prev_touched_) and pops the generator wheel for tenants whose
  /// parked workloads reach a rate-schedule boundary this tick.
  void BeginTick();

  /// Marks the tenant as touched this tick (and this report interval).
  /// Serial pipeline sections only. Idempotent per tick via the stamp.
  void TouchTenant(TenantId tenant, TenantRuntime& rt) {
    if (rt.touch_stamp != touch_epoch_) {
      rt.touch_stamp = touch_epoch_;
      touched_.push_back(tenant);
    }
    if (rt.report_stamp != report_epoch_) {
      rt.report_stamp = report_epoch_;
      report_touched_.push_back(tenant);
    }
  }

  /// Appends all-zero metrics rows for the tenant's untouched ticks
  /// until history.size() == `target` (an untouched tick's row is
  /// exactly TenantTickMetrics{}).
  static void BackfillHistoryTo(TenantRuntime& rt, uint64_t target) {
    while (rt.history.size() < target) {
      rt.history.push_back(TenantTickMetrics{});
    }
  }

  /// Backfills through the last completed tick (accessor-facing form).
  void SyncHistory(TenantRuntime& rt) const {
    BackfillHistoryTo(rt, tick_count_ - rt.created_at_tick);
  }

  /// Parks the tenant's generator (rate-schedule cell is exactly 0 at
  /// `now`): removal from gen_active_ is the caller's job (the slot
  /// build iterates the set); this schedules the wheel wake-up at the
  /// next schedule boundary, if the schedule has one.
  void ParkGenerator(TenantId tenant, TenantRuntime& rt, Micros now);

  /// Re-activates a parked (or never-activated) generator — workload
  /// (re)attachment and profile mutation hooks.
  void UnparkGenerator(TenantId tenant, TenantRuntime& rt) {
    rt.gen_parked = false;
    rt.wake_seq++;
    if (rt.workload != nullptr) gen_active_.insert(tenant);
  }

  /// Folds the tenant's control-plane usage forward through
  /// tick_count_ (catch-up over untouched ticks reads the backfilled
  /// all-zero rows, so the EWMA / hour roll-up match a tick-by-tick
  /// fold; see the definition for the quota sample).
  void SyncControlUsage(TenantId tenant, TenantRuntime& rt);

  /// The tenant's metrics/latency/control block, built on first use
  /// with the cluster's hedge policy. Tenant-private: safe from the
  /// tenant-concurrent admission stages.
  TenantRuntime::Lazy& MutableLazy(TenantRuntime& rt) {
    if (!rt.lazy) {
      rt.lazy = std::make_unique<TenantRuntime::Lazy>(options_.latency.hedge);
    }
    return *rt.lazy;
  }
  /// The tenant's metrics row for the current tick.
  TenantTickMetrics& Current(TenantRuntime& rt) {
    return MutableLazy(rt).current;
  }

  /// Builds visit_scratch_ as the ascending-id union of the given
  /// ledgers (walks over the union visit tenants in ascending id).
  const std::vector<TenantId>& SortedUnion(
      const std::vector<TenantId>& a, const std::vector<TenantId>& b);

  /// Rebuilds a tenant's cached routing table from the MetaServer and
  /// stamps it with the current epoch (the redirect chase; serial
  /// sections only).
  void RefreshRoutingTable(TenantRuntime& rt);

  /// Primary for `partition` according to the tenant's cached table
  /// (kInvalidNode when the table predates the partition).
  NodeId CachedPrimary(const TenantRuntime& rt, PartitionId partition) const;

  /// Resolves an eventual-consistency read against the cached table:
  /// round-robins over the partition's alive replica-hosting nodes
  /// (primary included). nullptr when no replica is routable. Serial
  /// resolve pass only (advances the tenant's round-robin cursor).
  node::DataNode* PickReplicaForRead(TenantRuntime& rt, TenantId tenant,
                                     PartitionId partition);

  /// Key of the per-partition replication-stream state.
  static uint64_t PartitionKey(TenantId tenant, PartitionId partition) {
    return (static_cast<uint64_t>(tenant) << 32) | partition;
  }

  /// Resolves every in-flight request stranded on `node` as Unavailable
  /// — proxy quota refund, tenant error metrics, PublishOutcome — in
  /// req-id order. The failure domain's node_failed hook.
  void ResolveStrandedOnNode(NodeId node);

  /// Sim-wide id space for proxy cache-refresh fetches (above all client
  /// and workload id spaces; unique across every proxy of every tenant).
  uint64_t AllocateRefreshId() { return next_refresh_id_++; }

  // -- Scan fan-out (serial sections only) ------------------------------------
  //
  // A kScan forward targets a key RANGE, not a key: hash partitioning
  // scatters a contiguous range across every partition, so the Route
  // stage expands the forward into one sub-request per partition (each
  // carrying the full limit — any single partition might hold the whole
  // answer). The legs settle independently through the normal response
  // path into a ScanFanout accumulator; when the last leg lands, the
  // parts merge into one key-ordered, deduplicated, globally-limited
  // response that settles under the base request id. All mutation
  // happens in serial pipeline sections (Route, Settle, Fault), so the
  // merge is bit-identical across worker counts.

  /// One per-partition leg's settled result.
  struct ScanPart {
    PartitionId partition = 0;
    bool arrived = false;
    Status status;
    /// Framed entries (common/scan_codec.h): the leg response's handle,
    /// shared, not copied.
    SharedValue value;
    uint64_t scan_entries = 0;
    double actual_ru = 0;
    Micros latency = 0;         ///< Data-plane latency (legacy path).
    Micros client_latency = 0;  ///< Virtual time (timed path).
    ServedBy served_by = ServedBy::kNodeCpu;
  };

  /// Accumulator for one fanned-out scan, keyed by the base request id.
  struct ScanFanout {
    TenantId tenant = 0;
    size_t proxy_index = 0;
    std::string start;    ///< Inclusive range start (the client key).
    std::string end;      ///< Exclusive range end.
    uint32_t limit = 0;
    bool timed = false;   ///< Any leg settled through the timed path.
    size_t arrived = 0;
    std::vector<ScanPart> parts;  ///< Partition-id ascending.
  };

  /// Leg id -> owning accumulator (base id + slot in `parts`).
  struct ScanPartRef {
    uint64_t base_id = 0;
    uint32_t part_index = 0;
  };

  /// Expands one admitted kScan forward into per-partition sub-requests
  /// (registered in inflight_ and batched per destination node like any
  /// forward); partitions with no routable primary pre-fail their leg.
  /// If every leg pre-failed, the fan-out completes — and settles —
  /// immediately. Route stage's serial pass only.
  void RouteScanFanout(PendingForward& fwd, TenantRuntime& rt,
                       std::vector<std::vector<NodeRequest*>>& batches);

  /// Settles one leg's data-plane response into its accumulator,
  /// completing the fan-out if it was the last. Serial sections only.
  void AbsorbScanPart(const ScanPartRef& ref, const NodeResponse& resp,
                      const ResponseTiming* timing);

  /// Fails one leg without a response (stranded on a failed node).
  void FailScanPart(const ScanPartRef& ref, Status status);

  /// Merges a completed fan-out's legs — k-way by key, duplicates
  /// resolved to the larger partition id (the post-split child is
  /// authoritative while the parent purge drains), the client limit
  /// re-applied globally — and delivers the result as one synthesized
  /// response under the base id. Prefix-shaped results fill the
  /// forwarding proxy's scan cache.
  void CompleteScanFanout(uint64_t base_id);

  // -- Control stage internals (serial sections only) -------------------------

  /// Rolls the just-settled tick's RU into each tenant's hour
  /// accumulator and closes the hour on the control_ticks_per_hour
  /// boundary (appends to usage_history / quota_history).
  void AccumulateControlUsage();

  /// Runs each autoscale-enabled tenant's scaler over its history and
  /// applies the decision through SetTenantQuota.
  void RunAutoscalers();

  /// One tenant's scaler pass. A round without a quota change still
  /// retries staging an over-UP split.
  void RunAutoscalerFor(TenantId tid, TenantRuntime& rt);

  /// Stages an online split when the tenant's partition quota exceeds UP
  /// and no split is staged or streaming (Algorithm 1 lines 4-6).
  void StageSplitIfOverUpper(TenantId tid, TenantRuntime& rt);

  /// Current control-plane time for the tenant: completed hours (seeded
  /// + rolled) in micros, plus the fraction of the open hour.
  Micros ControlNow(const TenantRuntime& rt) const;

  /// Advances every active online split by one tick: streams up to
  /// split_bytes_per_tick of the re-hashed range out of each parent
  /// primary into the staged child engines; when every parent's
  /// snapshot is done, replays the parents' replication-log window and
  /// commits the cutover (or unstages the split when a child has no
  /// serving replica); then purges the moved keys out of the parents at
  /// the same rate.
  void AdvanceSplits();

  /// Streams one tick of budget through the background migration queue;
  /// a copy that finishes its modeled transfer is installed via
  /// MetaServer::MigrateReplica (disposition recorded in
  /// migration_stats_).
  void AdvanceMigrations();

  /// Snapshots every pool into the rescheduler's model and enqueues the
  /// planned moves as background copies. Skipped while copies are still
  /// queued (the model would re-plan the same moves). A pool whose last
  /// plan was empty and whose model inputs are unchanged (PlanMemo) is
  /// skipped too: the plan is a pure function of the model.
  void PlanRescheduling();

  /// Records one migration disposition into migration_stats_.
  void RecordMigrationOutcome(const Status& status);

  SimOptions options_;
  SimClock clock_;
  std::unique_ptr<meta::MetaServer> meta_;
  /// Node ids are dense (assigned in creation order), so nodes_[id] IS
  /// the id lookup — FindNode indexes this vector directly.
  std::vector<std::unique_ptr<node::DataNode>> nodes_;
  std::vector<const node::DataNode*> node_views_;  ///< nodes_, read-only.
  std::map<TenantId, TenantRuntime> tenants_;  ///< Ordered: stages iterate.
  /// Open-addressed mirror of tenants_ for per-request lookups on the
  /// tick path; std::map guarantees the cached pointers stay stable.
  FlatMap64<TenantRuntime*> tenant_index_;
  std::vector<ClientRequest> injected_;
  /// Data-plane req_id -> context for response settlement
  /// (open-addressed: the hottest sim-wide table on the tick path).
  FlatMap64<RequestContext> inflight_;
  std::vector<uint64_t> stranded_scratch_;  ///< ResolveStrandedOnNode.
  /// In-flight scan fan-outs by base request id (ordered: deterministic
  /// iteration is never needed, but cheap insurance costs nothing at
  /// scan volumes).
  std::map<uint64_t, ScanFanout> scan_fanouts_;
  /// Leg req_id -> accumulator slot (open-addressed: DeliverResponse
  /// probes it on every response while a scan is in flight). Lookup/
  /// erase only — never iterated, so table order cannot perturb
  /// determinism.
  FlatMap64<ScanPartRef> scan_part_index_;
  /// Backing storage for this tick's scan sub-requests: node batches
  /// hold pointers into it, so addresses must be stable (deque) until
  /// RouteSubmit copies them into the nodes. Cleared each Route pass.
  std::deque<NodeRequest> scan_sub_scratch_;
  /// CompleteScanFanout's merge: views of the surviving entries, framed
  /// into the merged payload once its exact size is known.
  std::vector<ScanEntryView> scan_merge_scratch_;
  /// Sub-request id space: below refresh ids (1<<62), above client ids.
  uint64_t next_scan_sub_id_ = (1ull << 61);
  /// A parked outcome awaiting TakeOutcome, stamped for the TTL sweep.
  struct TrackedOutcome {
    ClientOutcome outcome;
    uint64_t recorded_tick = 0;
  };
  std::unordered_map<uint64_t, TrackedOutcome> outcomes_;
  /// One-shot completion callbacks by request id (SubscribeOutcome).
  std::unordered_map<uint64_t, OutcomeCallback> subscriptions_;
  FailureDomain faults_;  ///< Refers to options_, meta_, nodes_ (above).
  /// Per-partition replication shipping state, keyed by PartitionKey.
  struct ReplState {
    /// Primary applied seq at the end of each of the last lag+1
    /// Replicate steps; the front is the shipping floor — what was
    /// acknowledged `replication_lag_ticks` ticks ago. Never longer than
    /// lag+1, so it stays inline for the lags anyone configures.
    SmallVec<uint64_t, 4> acked_history;
    /// Node serving the stream; a change (promotion/failback) reseeds
    /// acked_history — the dead primary's acked seqs must not let the
    /// new primary's reused sequence numbers ship with collapsed lag.
    NodeId primary = kInvalidNode;
    /// Primary applied seq as of the last Replicate step.
    uint64_t primary_applied = 0;
    /// Primary applied seq as of the *previous* Replicate step: the
    /// newest state a replica read executed this tick could possibly
    /// have observed, and therefore the staleness reference (with lag 0
    /// it equals what every replica holds, so replica_lag_sum stays 0).
    uint64_t prev_primary_applied = 0;
  };
  std::map<uint64_t, ReplState> repl_state_;
  /// Per-parent progress of an active online split; parents[p] is
  /// partition p.
  struct SplitParent {
    /// Parent stream position when the split started: while the split
    /// streams, the Replicate stage holds the parent's replication logs
    /// at this floor so the cutover can replay every write acknowledged
    /// during the streaming window.
    uint64_t hold_seq = 0;
    /// Last key the current phase's export examined (the stream, then
    /// the purge after the cutover resets it).
    std::string cursor;
    bool done = false;  ///< The current phase covered the moved range.
  };
  /// The one record of an online split: staged children streaming
  /// (cut_over = false), then parents purging their moved keys
  /// (cut_over = true). Erasing it releases the log holds.
  struct SplitOp {
    uint32_t old_count = 0;
    bool cut_over = false;
    std::vector<SplitParent> parents;
  };
  std::map<TenantId, SplitOp> active_splits_;  ///< Ordered: deterministic.
  uint64_t splits_completed_ = 0;
  uint64_t split_cutovers_ = 0;

  /// Engine of (tenant, partition)'s primary while that primary can
  /// serve; nullptr while it is dark.
  storage::LsmEngine* ServingPrimaryEngine(TenantId tenant,
                                           PartitionId partition);

  /// A planned background migration streaming its modeled copy.
  struct PendingMigration {
    resched::Migration migration;
    uint64_t bytes_total = 0;
    uint64_t bytes_copied = 0;
  };
  std::deque<PendingMigration> migration_queue_;
  MigrationStats migration_stats_;
  /// Per-pool memo of the last empty rescheduling plan: the pool's
  /// placement version (membership, partition tables) and each member
  /// node's load version (replicas, roles, state, RU EWMA, engine
  /// bytes) that BuildPoolModel read. While all of them still match, a
  /// rebuilt model would be identical and plan nothing again.
  struct PlanMemo {
    bool idle = false;  ///< Last plan was empty; the versions are valid.
    uint64_t placement_version = 0;
    std::vector<uint64_t> node_versions;  ///< In PoolNodes() order.
  };
  std::vector<PlanMemo> plan_memo_;
  uint64_t resched_plans_built_ = 0;
  // -- Latency subsystem state ----------------------------------------------
  latency::GrayFailureDetector gray_detector_;
  /// One settled response awaiting ordered delivery in the timed Settle
  /// path. Indices into TickContext::responses stay valid for the whole
  /// stage (the buffers are not mutated until the next tick's Reset).
  struct TimedResponse {
    Micros virtual_time = 0;
    uint64_t req_id = 0;
    uint32_t node_index = 0;   ///< Outer index into ctx.responses.
    uint32_t resp_index = 0;   ///< Inner index.
    ResponseTiming timing;
  };
  std::vector<TimedResponse> timed_scratch_;  ///< Cleared per tick.
  /// Per-node served-latency sums for the gray detector (dense node-id
  /// index; integer micros so accumulation order cannot matter).
  std::vector<uint64_t> gray_latency_sum_;
  std::vector<uint64_t> gray_latency_count_;
  /// Non-null when SimOptions::trace_path is set; shared by the
  /// executor (morsel slices) and the pipeline (stage slices).
  std::unique_ptr<TraceWriter> trace_;
  std::unique_ptr<Executor> executor_;
  std::unique_ptr<TickPipeline> pipeline_;
  NodeId next_node_id_ = 0;
  uint64_t next_refresh_id_ = (1ull << 62);
  uint64_t tick_count_ = 0;

  // -- Active-set state (all serial-section-only; see BeginTick) -------------

  /// Tenants whose generators are not parked: the Generate stage builds
  /// its slots from this set alone. Ordered: slots fill in ascending
  /// tenant id.
  std::set<TenantId> gen_active_;
  /// Wake-up wheel for parked generators (next rate-schedule boundary).
  struct GenWake {
    TenantId tenant = 0;
    uint64_t seq = 0;  ///< TenantRuntime::wake_seq at park time.
  };
  EventWheel<GenWake> gen_wheel_;
  /// Expiry wheel for abandoned tracked outcomes: the TTL sweep pops
  /// due entries instead of scanning the outcome table.
  struct OutcomeExpiry {
    uint64_t req_id = 0;
    uint64_t recorded_tick = 0;  ///< Skip if the entry was re-recorded.
  };
  EventWheel<OutcomeExpiry> outcome_wheel_;
  /// Tenants touched this tick / last tick, deduped by touch_stamp.
  /// prev_touched_ matters to the refresh-fetch walk: a fetch created
  /// in last tick's Settle is drained this tick.
  uint64_t touch_epoch_ = 1;
  std::vector<TenantId> touched_;
  std::vector<TenantId> prev_touched_;
  /// Tenants touched since the last MetaServer traffic report, deduped
  /// by report_stamp; cleared (epoch bump) at each report.
  uint64_t report_epoch_ = 1;
  std::vector<TenantId> report_touched_;
  /// Tenants whose last traffic report came back clamped: they must
  /// keep reporting (a zero report is what un-clamps them). Sorted,
  /// rebuilt at each report.
  std::vector<TenantId> clamped_tenants_;
  /// Tenants with possibly non-quiescent replication streams. Extended
  /// by the tenants whose placement moved the routing epoch (the whole
  /// tenant map after a node-level event), by every DataNode response,
  /// and by the preload/resync/split hooks; the Replicate walk erases a
  /// tenant once all its partitions are quiescent.
  std::set<TenantId> repl_active_;
  uint64_t repl_seen_epoch_ = ~0ull;
  /// Tenants with a non-disabled autoscale mode (the control loop's
  /// standing work list; these never catch up — they fold every tick).
  std::set<TenantId> autoscale_enabled_;
  /// Tenants whose hedger ever observed a sample: the per-tick
  /// threshold advance (Hedger::EndTick) only matters to them — a
  /// never-observed hedger's threshold stays at its initial value.
  std::set<TenantId> hedge_observed_;
  std::vector<TenantId> visit_scratch_;  ///< SortedUnion output.
};

}  // namespace sim
}  // namespace abase
