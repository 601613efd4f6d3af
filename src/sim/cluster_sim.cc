#include "sim/cluster_sim.h"

#include <algorithm>
#include <cassert>

#include "common/hash.h"
#include "common/keyspace.h"
#include "common/scan_codec.h"
#include "common/smallvec.h"

namespace abase {
namespace sim {

namespace {

std::unique_ptr<Executor> MakeExecutor(int workers) {
  if (workers > 1) return std::make_unique<MorselExecutor>(workers);
  return std::make_unique<SerialExecutor>();
}

}  // namespace

ClusterSim::ClusterSim(SimOptions options)
    : options_(options),
      clock_(0),
      meta_(std::make_unique<meta::MetaServer>(&clock_)),
      faults_(options_, *meta_, nodes_,
              FailureDomain::Hooks{
                  [this](NodeId node) { ResolveStrandedOnNode(node); },
                  [this](TenantId tenant) { repl_active_.insert(tenant); }}),
      gray_detector_(options.latency.gray) {
  meta_->SetStripedPlacement(options_.striped_placement);
  if (!options_.trace_path.empty()) {
    trace_ = std::make_unique<TraceWriter>(options_.trace_path);
  }
  executor_ = MakeExecutor(options_.data_plane_workers);
  executor_->SetTrace(trace_.get());
  pipeline_ = std::make_unique<TickPipeline>(this, &faults_);
  pipeline_->SetTrace(trace_.get());
}

void ClusterSim::SetDataPlaneWorkers(int workers) {
  options_.data_plane_workers = std::max(1, workers);
  executor_ = MakeExecutor(options_.data_plane_workers);
  executor_->SetTrace(trace_.get());
}

// ---------------------------------------------------------------------------
// Topology
// ---------------------------------------------------------------------------

PoolId ClusterSim::AddPool(size_t num_nodes) {
  return AddPool(num_nodes, options_.node);
}

PoolId ClusterSim::AddPool(size_t num_nodes,
                           const node::DataNodeOptions& node_options) {
  std::vector<node::DataNode*> raw;
  const uint32_t kAvailabilityZones = std::max(1u, options_.latency.num_azs);
  for (size_t i = 0; i < num_nodes; i++) {
    nodes_.push_back(std::make_unique<node::DataNode>(
        next_node_id_++, node_options, &clock_));
    nodes_.back()->set_az(static_cast<uint32_t>(i) % kAvailabilityZones);
    // FindNode indexes nodes_ by id directly; ids must stay dense.
    assert(static_cast<size_t>(nodes_.back()->id()) == nodes_.size() - 1);
    raw.push_back(nodes_.back().get());
    node_views_.push_back(nodes_.back().get());
  }
  return meta_->CreatePool(std::move(raw));
}

Status ClusterSim::AddTenant(const meta::TenantConfig& config, PoolId pool,
                             proxy::RoutingMode mode) {
  ABASE_RETURN_IF_ERROR(meta_->CreateTenant(config, pool));

  TenantRuntime rt;
  rt.id = config.id;
  rt.routing_mode = mode;
  rt.router = std::make_unique<proxy::LimitedFanoutRouter>(
      config.num_proxies, config.num_proxy_groups, mode);
  double proxy_quota =
      config.tenant_quota_ru / static_cast<double>(config.num_proxies);
  TenantId tid = config.id;
  for (uint32_t p = 0; p < config.num_proxies; p++) {
    proxy::ProxyOptions popt = options_.proxy;
    popt.replicas = config.replicas;
    // Requests carry Fnv1a64(key) computed once at generate / inject
    // time; partition routing reuses it instead of re-hashing.
    rt.proxies.push_back(std::make_unique<proxy::Proxy>(
        p, tid, proxy_quota, popt, &clock_, [this, tid](uint64_t h) {
          return meta_->PartitionForHashed(tid, h);
        }));
    // Refresh-fetch ids must be unique across every proxy of every
    // tenant (they key the sim-wide in-flight table).
    rt.proxies.back()->set_refresh_id_allocator(
        [this] { return AllocateRefreshId(); });
    // Proxies stripe across AZs like nodes do; the node<->proxy hop pays
    // the cross-AZ RTT class when the zones differ (latency subsystem).
    rt.proxies.back()->set_az(p % std::max(1u, options_.latency.num_azs));
  }
  // Latency-subsystem SLO target from the tenant config (cluster default
  // when 0); the hedger is built with the rest of rt.lazy on first use.
  rt.slo_target = config.slo_target_micros > 0
                      ? config.slo_target_micros
                      : options_.latency.slo_target_micros;
  // Seed the tenant's epoch-stamped routing cache. From here on the
  // proxy plane routes from this table; it refreshes only by chasing a
  // redirect after a placement change makes a cached entry unroutable.
  RefreshRoutingTable(rt);
  // Active-set bookkeeping: history (and the control fold) logically
  // start at the current tick, so backfill never reaches before the
  // tenant existed.
  rt.created_at_tick = tick_count_;
  rt.ctrl_synced_tick = tick_count_;
  auto [it, inserted] = tenants_.emplace(config.id, std::move(rt));
  if (inserted) tenant_index_.Insert(config.id, &it->second);
  return Status::OK();
}

void ClusterSim::SetWorkload(TenantId tenant, const WorkloadProfile& profile) {
  auto it = tenants_.find(tenant);
  if (it == tenants_.end()) return;
  it->second.workload = std::make_unique<WorkloadGenerator>(
      tenant, profile, options_.seed ^ (0x9e3779b9ull * (tenant + 1)));
  // A (re)attached workload joins the active generator set; the next
  // Generate slot build re-evaluates (and may re-park) it.
  UnparkGenerator(tenant, it->second);
}

void ClusterSim::PreloadKeys(TenantId tenant, uint64_t num_keys,
                             uint64_t value_bytes, double value_sigma) {
  // Direct engine writes advance the primaries' streams outside the
  // response path: make sure the Replicate walk visits this tenant.
  repl_active_.insert(tenant);
  Rng rng(977 * (static_cast<uint64_t>(tenant) + 1));
  std::string value;  // Reused: Put copies the bytes into its record.
  for (uint64_t i = 0; i < num_keys; i++) {
    std::string key =
        "t" + std::to_string(tenant) + ":k" + std::to_string(i);
    PartitionId part = meta_->PartitionFor(tenant, key);
    node::DataNode* n = MutableNode(meta_->PrimaryFor(tenant, part));
    if (n == nullptr) continue;
    storage::LsmEngine* engine = n->EngineFor(tenant, part);
    if (engine == nullptr) continue;
    double bytes = rng.NextLogNormal(
        std::log(static_cast<double>(std::max<uint64_t>(1, value_bytes))),
        value_sigma);
    size_t len = static_cast<size_t>(
        std::min(std::max(bytes, 1.0), 1024.0 * 1024));
    value.assign(len, 'v');
    (void)engine->Put(key, value);
  }

  // An onboarded tenant's replicas already hold the dataset: seed each
  // replica engine with a snapshot of its primary so the fleet starts
  // fully caught up (lag applies to traffic, not to onboarding). A
  // snapshot shares the immutable runs — O(runs), not a per-record
  // replay of the whole preload.
  const meta::TenantMeta* tm = meta_->GetTenant(tenant);
  if (tm == nullptr) return;
  for (PartitionId p = 0;
       p < static_cast<PartitionId>(tm->partitions.size()); p++) {
    const auto& reps = tm->partitions[p].replicas;
    if (reps.size() < 2) continue;
    node::DataNode* pn = MutableNode(reps[0]);
    storage::LsmEngine* src = pn != nullptr ? pn->EngineFor(tenant, p)
                                            : nullptr;
    if (src == nullptr) continue;
    for (size_t r = 1; r < reps.size(); r++) {
      node::DataNode* rn = MutableNode(reps[r]);
      if (rn == nullptr) continue;
      storage::LsmEngine* re = rn->EngineFor(tenant, p);
      if (re == nullptr || re->applied_seq() == src->applied_seq()) continue;
      rn->ResyncReplica(tenant, p, *src);
    }
  }
}

WorkloadProfile* ClusterSim::MutableWorkload(TenantId tenant) {
  auto it = tenants_.find(tenant);
  if (it == tenants_.end() || it->second.workload == nullptr) return nullptr;
  // The caller may raise a zero rate: wake the generator so the next
  // slot build re-evaluates the mutated profile. (Mutating the profile
  // through MutableTenant() directly bypasses this hook — use
  // MutableWorkload for scenario scripting, as every in-repo caller
  // does.)
  UnparkGenerator(tenant, it->second);
  return &it->second.workload->profile();
}

const node::DataNode* ClusterSim::FindNode(NodeId id) const {
  // Dense id space: the id is the vector index (kInvalidNode and
  // out-of-range ids fall through to null).
  return static_cast<size_t>(id) < nodes_.size()
             ? nodes_[static_cast<size_t>(id)].get()
             : nullptr;
}

// ---------------------------------------------------------------------------
// Fault injection
// ---------------------------------------------------------------------------

size_t ClusterSim::DownNodeCount() const {
  size_t down = 0;
  for (const auto& n : nodes_) {
    if (!n->CanServe()) down++;
  }
  return down;
}

// ---------------------------------------------------------------------------
// Replication
// ---------------------------------------------------------------------------

uint64_t ClusterSim::ReplicationLag(TenantId tenant,
                                    PartitionId partition) const {
  const meta::TenantMeta* tm = meta_->GetTenant(tenant);
  if (tm == nullptr || partition >= tm->partitions.size()) return 0;
  const auto& reps = tm->partitions[partition].replicas;
  if (reps.size() < 2) return 0;
  const node::DataNode* pn = FindNode(reps[0]);
  const storage::LsmEngine* src =
      pn != nullptr ? pn->EngineFor(tenant, partition) : nullptr;
  if (src == nullptr) return 0;
  uint64_t lag = 0;
  for (size_t r = 1; r < reps.size(); r++) {
    const node::DataNode* rn = FindNode(reps[r]);
    if (rn == nullptr || !rn->CanServe()) continue;
    const storage::LsmEngine* re = rn->EngineFor(tenant, partition);
    if (re == nullptr) continue;
    uint64_t applied = re->applied_seq();
    if (src->applied_seq() > applied) {
      lag = std::max(lag, src->applied_seq() - applied);
    }
  }
  return lag;
}

// ---------------------------------------------------------------------------
// Routing cache
// ---------------------------------------------------------------------------

void ClusterSim::RefreshRoutingTable(TenantRuntime& rt) {
  const meta::TenantMeta* tm = meta_->GetTenant(rt.id);
  rt.route_table.clear();
  if (tm != nullptr) {
    rt.route_table.reserve(tm->partitions.size());
    for (const meta::PartitionPlacement& p : tm->partitions) {
      rt.route_table.push_back(p.replicas);
    }
  }
  rt.route_epoch = meta_->routing_epoch();
}

NodeId ClusterSim::CachedPrimary(const TenantRuntime& rt,
                                 PartitionId partition) const {
  if (partition >= rt.route_table.size() ||
      rt.route_table[partition].empty()) {
    return kInvalidNode;
  }
  return rt.route_table[partition][0];
}

node::DataNode* ClusterSim::PickReplicaForRead(TenantRuntime& rt,
                                               TenantId tenant,
                                               PartitionId partition) {
  if (partition >= rt.route_table.size()) return nullptr;
  // Probe the cached placement from the round-robin cursor and take the
  // first alive node actually hosting the replica (the simulator's
  // stand-in for a replica-aware client SDK). No temporaries: this runs
  // per eventual read inside the serial Route pass.
  const std::vector<NodeId>& reps = rt.route_table[partition];
  const size_t count = reps.size();
  if (count == 0) return nullptr;
  const uint64_t start = rt.replica_read_rr;
  // Gray demotion (latency subsystem): a node the detector flagged slow
  // is skipped as long as a healthy replica exists — the fallback pass
  // below still takes a gray replica over Unavailable. With the
  // subsystem off the gray set is empty and this is the seed behavior.
  bool demote = options_.latency.enabled &&
                options_.latency.gray.demote_routing &&
                gray_detector_.GrayCount() > 0;
  // Canary probe: every Nth eventual read ignores the demotion so a
  // flagged node keeps producing latency samples — the only way its
  // recovery can ever be observed.
  if (demote && options_.latency.gray.probe_interval > 0) {
    if (rt.eventual_read_seq++ %
            static_cast<uint64_t>(options_.latency.gray.probe_interval) ==
        0) {
      demote = false;
    }
  } else if (demote) {
    rt.eventual_read_seq++;
  }
  node::DataNode* gray_fallback = nullptr;
  uint64_t gray_fallback_advance = 0;
  for (size_t i = 0; i < count; i++) {
    node::DataNode* n =
        MutableNode(reps[static_cast<size_t>((start + i) % count)]);
    if (n != nullptr && n->CanServe() && n->HasReplica(tenant, partition)) {
      if (demote && gray_detector_.IsGray(n->id())) {
        if (gray_fallback == nullptr) {
          gray_fallback = n;
          gray_fallback_advance = start + i + 1;
        }
        continue;
      }
      rt.replica_read_rr = start + i + 1;
      return n;
    }
  }
  if (gray_fallback != nullptr) {
    rt.replica_read_rr = gray_fallback_advance;
    return gray_fallback;
  }
  return nullptr;
}

void ClusterSim::RoutePoint(TenantRuntime& rt, PendingForward& fwd,
                            TenantTickMetrics& m) {
  // The redirect chase mutates only the tenant's cached table, and
  // refreshing it is idempotent within a tick: placement is frozen until
  // Control. So a chase at admit time and one at Route time leave
  // identical state.
  NodeRequest& req = fwd.request;
  node::DataNode* n = nullptr;
  const bool eventual_read = req.consistency == Consistency::kEventual &&
                             IsReadOp(req.op) && !req.background_refresh;
  if (eventual_read) {
    // Any alive replica serves an eventual read, stale ones included,
    // picked by the tenant's round-robin cursor.
    n = PickReplicaForRead(rt, req.tenant, req.partition);
    if (n == nullptr && rt.route_epoch != meta_->routing_epoch()) {
      RefreshRoutingTable(rt);
      m.redirects++;
      n = PickReplicaForRead(rt, req.tenant, req.partition);
    }
    // Arm a hedge replica; Settle fires it only past the hedge threshold.
    if (n != nullptr && options_.latency.enabled &&
        options_.latency.hedge.enabled) {
      if (node::DataNode* alt =
              PickHedgeReplica(rt, req.tenant, req.partition, n->id())) {
        fwd.ctx.hedge_node = alt->id();
      }
    }
  } else {
    auto routable = [&](node::DataNode* dest) {
      return dest != nullptr && dest->CanServe() &&
             dest->IsPrimaryFor(req.tenant, req.partition);
    };
    n = MutableNode(CachedPrimary(rt, req.partition));
    if (!routable(n) && rt.route_epoch != meta_->routing_epoch()) {
      // Stale epoch: refresh the cached table and retry once (the
      // redirect chase).
      RefreshRoutingTable(rt);
      if (!req.background_refresh) m.redirects++;
      n = MutableNode(CachedPrimary(rt, req.partition));
    }
    if (!routable(n)) n = nullptr;
  }
  if (n == nullptr) {
    // Failure settlement (error counters, quota refund, outcome
    // publication) happens in the Route walk, at this forward's position
    // — quota refunds reorder FP state otherwise.
    fwd.ctx.route_failed = true;
    return;
  }
  fwd.ctx.node = n->id();
}

void ClusterSim::ResolveStrandedOnNode(NodeId node) {
  // inflight_ iterates in table order: resolve in req-id order so
  // stranded outcomes publish identically on every platform and worker
  // count.
  std::vector<uint64_t>& stranded = stranded_scratch_;
  stranded.clear();
  inflight_.ForEach([&](uint64_t req_id, RequestContext& ctx) {
    if (ctx.node == node) stranded.push_back(req_id);
  });
  std::sort(stranded.begin(), stranded.end());
  for (uint64_t req_id : stranded) {
    RequestContext ctx = *inflight_.Find(req_id);
    inflight_.Erase(req_id);
    if (ctx.scan_part) {
      // A stranded scan leg fails just its slot in the accumulator; the
      // merged scan settles (with this leg's error) under the base id
      // once every other leg lands. No per-leg proxy refund: the quota
      // estimate is held against the base request alone.
      if (const ScanPartRef* slot = scan_part_index_.Find(req_id)) {
        ScanPartRef ref = *slot;
        scan_part_index_.Erase(req_id);
        FailScanPart(ref, Status::Unavailable("node failed"));
      }
      continue;
    }
    auto tit = tenants_.find(ctx.tenant);
    if (tit != tenants_.end()) {
      TenantRuntime& rt = tit->second;
      TouchTenant(ctx.tenant, rt);
      if (ctx.proxy_index < rt.proxies.size()) {
        rt.proxies[ctx.proxy_index]->AbandonForward(req_id);
      }
      if (!ctx.background) {
        TenantTickMetrics& cur = Current(rt);
        cur.errors++;
        cur.unavailable++;
      }
    }
    if (ctx.track_outcome) {
      PublishOutcome(req_id,
                     ClientOutcome{Status::Unavailable("node failed"), ""});
    }
  }
}

// ---------------------------------------------------------------------------
// Experiment switches
// ---------------------------------------------------------------------------

void ClusterSim::SetProxyQuotaEnabled(TenantId tenant, bool enabled) {
  auto it = tenants_.find(tenant);
  if (it == tenants_.end()) return;
  for (auto& p : it->second.proxies) p->set_quota_enabled(enabled);
}

void ClusterSim::SetProxyCacheEnabled(TenantId tenant, bool enabled) {
  auto it = tenants_.find(tenant);
  if (it == tenants_.end()) return;
  for (auto& p : it->second.proxies) p->set_cache_enabled(enabled);
}

void ClusterSim::SetPartitionQuotaEnabled(bool enabled) {
  for (auto& n : nodes_) n->SetPartitionQuotaEnforcement(enabled);
}

// ---------------------------------------------------------------------------
// Request settlement
// ---------------------------------------------------------------------------

void ClusterSim::InjectRequest(const ClientRequest& req) {
  injected_.push_back(req);
  // Callers (clients, tests) build requests by hand; stamp the key hash
  // here so the whole pipeline can rely on it being present.
  injected_.back().key_hash = Fnv1a64(injected_.back().key);
}

void ClusterSim::SettleLocalProxyResult(
    TenantRuntime& rt, const ClientRequest& req,
    const proxy::ProxyHandleResult& res,
    std::vector<std::pair<uint64_t, ClientOutcome>>* deferred,
    TenantTickMetrics& m) {
  switch (res.action) {
    case proxy::ProxyHandleResult::Action::kServedFromCache:
      m.ok++;
      m.proxy_hits++;
      m.latency_sum += static_cast<double>(res.latency);
      m.latency_max = std::max(m.latency_max, res.latency);
      m.latency_count++;
      rt.latency_hist.Add(static_cast<double>(res.latency));
      rt.value_bytes_sum += res.value_bytes;
      rt.value_bytes_count++;
      if (req.track_outcome) {
        deferred->emplace_back(req.req_id,
                               ClientOutcome{Status::OK(), res.value});
      }
      break;
    case proxy::ProxyHandleResult::Action::kThrottled:
      m.errors++;
      m.throttled++;
      if (req.track_outcome) {
        deferred->emplace_back(
            req.req_id, ClientOutcome{Status::Throttled("proxy quota"), ""});
      }
      break;
    case proxy::ProxyHandleResult::Action::kForward:
      assert(false && "forwards are settled via DeliverResponse");
      break;
  }
}

std::optional<ClusterSim::ClientOutcome> ClusterSim::TakeOutcome(
    uint64_t req_id) {
  auto it = outcomes_.find(req_id);
  if (it == outcomes_.end()) return std::nullopt;
  ClientOutcome out = std::move(it->second.outcome);
  outcomes_.erase(it);
  return out;
}

void ClusterSim::SubscribeOutcome(uint64_t req_id, OutcomeCallback cb) {
  // Already settled (e.g. subscribing after a tick ran): deliver now.
  auto it = outcomes_.find(req_id);
  if (it != outcomes_.end()) {
    ClientOutcome out = std::move(it->second.outcome);
    outcomes_.erase(it);
    cb(req_id, std::move(out));
    return;
  }
  subscriptions_[req_id] = std::move(cb);
}

bool ClusterSim::UnsubscribeOutcome(uint64_t req_id) {
  return subscriptions_.erase(req_id) > 0;
}

void ClusterSim::PublishOutcome(uint64_t req_id, ClientOutcome outcome) {
  auto it = subscriptions_.find(req_id);
  if (it != subscriptions_.end()) {
    OutcomeCallback cb = std::move(it->second);
    subscriptions_.erase(it);
    cb(req_id, std::move(outcome));
    return;
  }
  outcomes_[req_id] = TrackedOutcome{std::move(outcome), tick_count_};
  if (options_.outcome_ttl_ticks > 0) {
    // The expiry tick is known at park time, so the sweep pops exactly
    // the due entries instead of scanning the table. An outcome expires
    // once tick_count_ - recorded > ttl. Strict: outcomes are stamped
    // before the tick counter increments in Settle, so `>=` would make
    // ttl=1 sweep an outcome within the very tick it settled. The counter
    // increments before the sweep runs, so the first matching sweep is
    // at tick_count_ == recorded + ttl + 1.
    outcome_wheel_.ScheduleAt(
        tick_count_ + static_cast<uint64_t>(options_.outcome_ttl_ticks) + 1,
        OutcomeExpiry{req_id, tick_count_});
  }
}

void ClusterSim::SweepExpiredOutcomes() {
  if (options_.outcome_ttl_ticks <= 0) return;
  outcome_wheel_.PopDue(tick_count_, [&](const OutcomeExpiry& e) {
    auto it = outcomes_.find(e.req_id);
    // Collected (TakeOutcome erased it) or re-recorded since: skip.
    if (it != outcomes_.end() &&
        it->second.recorded_tick == e.recorded_tick) {
      outcomes_.erase(it);
    }
  });
}

void ClusterSim::DeliverResponse(const NodeResponse& resp,
                                 const ResponseTiming* timing) {
  // Scan legs detour into their accumulator; the merged scan re-enters
  // here under the base id once the last leg lands. The empty-map guard
  // keeps the non-scan hot path at one branch.
  if (!scan_part_index_.empty()) {
    if (const ScanPartRef* slot = scan_part_index_.Find(resp.req_id)) {
      ScanPartRef ref = *slot;
      scan_part_index_.Erase(resp.req_id);
      AbsorbScanPart(ref, resp, timing);
      return;
    }
  }
  TenantId tenant = resp.tenant;
  size_t proxy_index = 0;
  bool known_forward = false;
  bool track_outcome = false;
  if (RequestContext* inf = inflight_.Find(resp.req_id)) {
    tenant = inf->tenant;
    proxy_index = inf->proxy_index;
    track_outcome = inf->track_outcome;
    known_forward = true;
    inflight_.Erase(resp.req_id);
  }
  TenantRuntime* rtp = MutableTenant(tenant);
  if (rtp == nullptr) return;
  TenantRuntime& rt = *rtp;
  TouchTenant(tenant, rt);

  if (known_forward || resp.background_refresh) {
    if (proxy_index < rt.proxies.size()) {
      rt.proxies[proxy_index]->OnResponse(resp);
    }
  }
  if (resp.background_refresh) return;  // Not client-visible.
  TenantTickMetrics& cur = Current(rt);

  // Legacy path: node latency + the flat forward hop. Timed path: the
  // precomputed virtual time (RTT class + hedge adjustment included).
  Micros client_latency =
      timing != nullptr ? timing->client_latency
                        : resp.latency + options_.proxy.forward_hop_latency;

  if (track_outcome) {
    // The one copy of a read payload on the way out: into the client's
    // reply, for tracked requests only.
    PublishOutcome(resp.req_id,
                   ClientOutcome{resp.status,
                                 std::string(ValueView(resp.value)),
                                 client_latency});
  }

  // NotFound is a successfully-served answer, not a failure.
  if (resp.status.ok() || resp.status.IsNotFound()) {
    cur.ok++;
    cur.latency_sum += static_cast<double>(client_latency);
    cur.latency_max = std::max(cur.latency_max, client_latency);
    cur.latency_count++;
    rt.latency_hist.Add(static_cast<double>(client_latency));
    if (timing != nullptr) {
      TenantRuntime::Lazy& lz = MutableLazy(rt);
      lz.tick_latency_hist.Add(static_cast<double>(client_latency));
      lz.hedger.Observe(client_latency);
      // First observation enrolls the tenant in the per-tick hedger
      // EndTick walk (a never-observed hedger's threshold never moves).
      hedge_observed_.insert(tenant);
      if (rt.slo_target > 0 && client_latency > rt.slo_target) {
        cur.slo_violations++;
      }
      if (timing->hedged) {
        cur.hedged_reads++;
        if (timing->hedge_won) cur.hedge_wins++;
      }
    }
    if (IsReadOp(resp.op)) {
      cur.reads_completed++;
      if (resp.served_by == ServedBy::kNodeCache) {
        cur.node_cache_hits++;
      } else if (resp.served_by == ServedBy::kDisk) {
        cur.disk_reads++;
      }
      if (!resp.from_primary) {
        // Replica read: surface how far the serving replica trailed the
        // primary's stream at execution time. The reference is the
        // primary cursor as of the *previous* Replicate step — the
        // newest state the read could have observed — so a lag-0
        // configuration reports zero staleness, as documented.
        cur.replica_reads++;
        auto rs = repl_state_.find(PartitionKey(resp.tenant, resp.partition));
        if (rs != repl_state_.end() &&
            rs->second.prev_primary_applied > resp.replica_applied_seq) {
          cur.replica_lag_sum +=
              rs->second.prev_primary_applied - resp.replica_applied_seq;
        }
      }
      rt.value_bytes_sum += resp.value_bytes;
      rt.value_bytes_count++;
    } else {
      rt.value_bytes_sum += resp.value_bytes;
      rt.value_bytes_count++;
    }
  } else {
    cur.errors++;
    if (resp.status.IsThrottled()) cur.throttled++;
    if (resp.status.IsUnavailable()) cur.unavailable++;
  }
  cur.ru_charged += resp.actual_ru;
  // The cancelled hedge leg did real work before the cancel landed; its
  // RU charge is the price of the tail cut (bench-gated at <= +10%).
  if (timing != nullptr && timing->extra_ru > 0) {
    cur.ru_charged += timing->extra_ru;
  }
}

// ---------------------------------------------------------------------------
// Scan fan-out
// ---------------------------------------------------------------------------

void ClusterSim::RouteScanFanout(
    PendingForward& fwd, TenantRuntime& rt,
    std::vector<std::vector<NodeRequest*>>& batches) {
  NodeRequest& req = fwd.request;
  // The partition SET must be current, not merely routable: a stale
  // table after a split cutover would scan only the parents, whose
  // moved keys the post-cutover purge is already deleting. One epoch
  // compare per scan; the refresh itself runs only on an actual move.
  if (rt.route_epoch != meta_->routing_epoch()) {
    RefreshRoutingTable(rt);
    Current(rt).redirects++;
  }
  const size_t parts = rt.route_table.size();
  if (parts == 0) {
    TenantTickMetrics& cur = Current(rt);
    cur.errors++;
    cur.unavailable++;
    if (fwd.ctx.proxy_index < rt.proxies.size()) {
      rt.proxies[fwd.ctx.proxy_index]->AbandonForward(req.req_id);
    }
    if (fwd.ctx.track_outcome) {
      PublishOutcome(req.req_id,
                     ClientOutcome{Status::Unavailable("no partitions"), ""});
    }
    return;
  }

  const uint64_t base_id = req.req_id;
  ScanFanout& fo = scan_fanouts_[base_id];
  fo.tenant = fwd.ctx.tenant;
  fo.proxy_index = fwd.ctx.proxy_index;
  fo.start = req.key;
  fo.end = req.field;
  fo.limit = req.scan_limit;
  fo.parts.resize(parts);
  // The base context settles the merged response. It carries no node
  // binding — the legs do, and the fault path resolves them leg by leg.
  inflight_[base_id] = fwd.ctx;
  // The admission estimate is held against the base id at the proxy;
  // splitting it across the legs keeps the nodes' partition-quota and
  // WFQ view of the scan at the same total cost.
  const double leg_estimate = req.estimated_ru / static_cast<double>(parts);

  for (size_t p = 0; p < parts; p++) {
    ScanPart& part = fo.parts[p];
    part.partition = static_cast<PartitionId>(p);
    node::DataNode* n =
        MutableNode(CachedPrimary(rt, static_cast<PartitionId>(p)));
    const bool routable = n != nullptr && n->CanServe() &&
                          n->IsPrimaryFor(req.tenant,
                                          static_cast<PartitionId>(p));
    if (!routable) {
      // Pre-failed leg: no routable primary even under the fresh table.
      part.arrived = true;
      part.status = Status::Unavailable("no primary");
      fo.arrived++;
      continue;
    }
    scan_sub_scratch_.emplace_back();
    NodeRequest& sub = scan_sub_scratch_.back();
    sub.req_id = next_scan_sub_id_++;
    sub.tenant = req.tenant;
    sub.partition = static_cast<PartitionId>(p);
    sub.op = OpType::kScan;
    sub.key = req.key;
    sub.field = req.field;
    sub.scan_limit = req.scan_limit;  // Full limit; see request.h.
    sub.issued_at = req.issued_at;
    sub.estimated_ru = leg_estimate;
    sub.value_size_hint = req.value_size_hint;
    sub.replicas = req.replicas;
    sub.consistency = Consistency::kPrimary;
    RequestContext leg_ctx;
    leg_ctx.tenant = fwd.ctx.tenant;
    leg_ctx.proxy_index = fwd.ctx.proxy_index;
    leg_ctx.scan_part = true;
    leg_ctx.node = n->id();
    inflight_[sub.req_id] = leg_ctx;
    scan_part_index_.Insert(sub.req_id,
                            ScanPartRef{base_id, static_cast<uint32_t>(p)});
    assert(static_cast<size_t>(n->id()) < batches.size());
    batches[static_cast<size_t>(n->id())].push_back(&sub);
  }
  if (fo.arrived == fo.parts.size()) CompleteScanFanout(base_id);
}

void ClusterSim::AbsorbScanPart(const ScanPartRef& ref,
                                const NodeResponse& resp,
                                const ResponseTiming* timing) {
  inflight_.Erase(resp.req_id);
  auto it = scan_fanouts_.find(ref.base_id);
  if (it == scan_fanouts_.end()) return;
  ScanFanout& fo = it->second;
  ScanPart& part = fo.parts[ref.part_index];
  if (part.arrived) return;  // Defensive: legs settle exactly once.
  part.arrived = true;
  part.status = resp.status;
  part.value = resp.value;  // Shares the leg's framed payload.
  part.scan_entries = resp.scan_entries;
  part.actual_ru = resp.actual_ru;
  part.latency = resp.latency;
  part.served_by = resp.served_by;
  if (timing != nullptr) {
    fo.timed = true;
    part.client_latency = timing->client_latency;
    part.actual_ru += timing->extra_ru;
  }
  fo.arrived++;
  if (fo.arrived == fo.parts.size()) CompleteScanFanout(ref.base_id);
}

void ClusterSim::FailScanPart(const ScanPartRef& ref, Status status) {
  auto it = scan_fanouts_.find(ref.base_id);
  if (it == scan_fanouts_.end()) return;
  ScanFanout& fo = it->second;
  ScanPart& part = fo.parts[ref.part_index];
  if (part.arrived) return;
  part.arrived = true;
  part.status = std::move(status);
  fo.arrived++;
  if (fo.arrived == fo.parts.size()) CompleteScanFanout(ref.base_id);
}

void ClusterSim::CompleteScanFanout(uint64_t base_id) {
  auto it = scan_fanouts_.find(base_id);
  if (it == scan_fanouts_.end()) return;
  // Move the accumulator out before settling: DeliverResponse re-enters
  // sim state, and the map entry must not outlive the fan-out.
  ScanFanout fo = std::move(it->second);
  scan_fanouts_.erase(it);

  NodeResponse merged;
  merged.req_id = base_id;
  merged.tenant = fo.tenant;
  merged.partition = 0;
  merged.op = OpType::kScan;
  merged.key = fo.start;
  merged.from_primary = true;  // Scans always read primaries.
  Micros max_client_latency = 0;
  for (const ScanPart& part : fo.parts) {
    merged.actual_ru += part.actual_ru;
    // Legs ran concurrently; the slowest bounds the scan.
    merged.latency = std::max(merged.latency, part.latency);
    max_client_latency = std::max(max_client_latency, part.client_latency);
    if (part.served_by == ServedBy::kDisk) {
      merged.served_by = ServedBy::kDisk;
    }
    if (merged.status.ok() && !part.status.ok() &&
        !part.status.IsNotFound()) {
      // Strict merge: a range missing one partition's contribution is
      // not a smaller answer, it is a wrong one. The first failing leg
      // in partition order names the failure.
      merged.status = part.status;
    }
  }

  if (merged.status.ok()) {
    // K-way merge of the legs' framed payloads: ascending key order,
    // equal keys resolved to the highest partition id (while a
    // post-split purge drains, parent and child both hold a moved key —
    // the child's copy is the surviving one), and the client limit
    // re-applied globally. Legs are few, so a linear min-scan beats a
    // heap's bookkeeping.
    const size_t n = fo.parts.size();
    SmallVec<std::string_view, 8> cursors;
    SmallVec<ScanEntryView, 8> heads;
    SmallVec<bool, 8> has;
    for (size_t i = 0; i < n; i++) {
      cursors.push_back(ValueView(fo.parts[i].value));
      heads.push_back(ScanEntryView{});
      has.push_back(NextScanEntry(cursors[i], heads[i]));
    }
    // The surviving entries are collected as views first, so the framed
    // result is written once, in place, into a payload block of its
    // exact size: the content store may keep this very block
    // (FillScanCache below).
    std::vector<ScanEntryView>& picked = scan_merge_scratch_;
    picked.clear();
    uint64_t framed_bytes = 0;
    while (fo.limit == 0 || picked.size() < fo.limit) {
      int best = -1;
      for (size_t i = 0; i < n; i++) {
        if (!has[i]) continue;
        // <= : the last (highest-partition) leg holding the minimal key
        // wins the tie.
        if (best < 0 || heads[i].key <= heads[best].key) {
          best = static_cast<int>(i);
        }
      }
      if (best < 0) break;
      // The views stay valid while duplicates advance: leg payload
      // buffers are never mutated during the merge.
      picked.push_back(heads[best]);
      framed_bytes += 8 + heads[best].key.size() + heads[best].value.size();
      const std::string_view key = heads[best].key;
      for (size_t i = 0; i < n; i++) {
        while (has[i] && heads[i].key == key) {
          has[i] = NextScanEntry(cursors[i], heads[i]);
        }
      }
    }
    merged.value = MakeSharedValue(framed_bytes, [&picked](char* dst) {
      for (const ScanEntryView& e : picked) {
        dst = WriteScanEntry(dst, e.key, e.value);
      }
    });
    merged.scan_entries = picked.size();
    merged.value_bytes = framed_bytes;
  }

  if (fo.timed) {
    ResponseTiming timing;
    timing.client_latency = max_client_latency;
    DeliverResponse(merged, &timing);
  } else {
    DeliverResponse(merged, nullptr);
  }

  // Content-store fill. Proxy::OnResponse cannot do this — a
  // NodeResponse carries neither the range shape nor the limit — so the
  // merge, which does, hands the framed result over. Only prefix-shaped
  // scans are cacheable (the tree addresses results by prefix).
  if (merged.status.ok() && fo.end == PrefixUpperBound(fo.start)) {
    if (TenantRuntime* rt = MutableTenant(fo.tenant)) {
      if (fo.proxy_index < rt->proxies.size()) {
        rt->proxies[fo.proxy_index]->FillScanCache(fo.start, fo.limit,
                                                   merged.value);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Tick loop
// ---------------------------------------------------------------------------

void ClusterSim::Tick() {
  BeginTick();
  pipeline_->RunTick();
}

void ClusterSim::RunTicks(size_t n) {
  for (size_t i = 0; i < n; i++) Tick();
}

void ClusterSim::BeginTick() {
  // Roll the touched ledger: last tick's set stays visible (the
  // refresh-fetch walk drains fetches created in last tick's Settle).
  touch_epoch_++;
  prev_touched_.swap(touched_);
  touched_.clear();
  // Wake parked generators whose rate schedule reaches a boundary this
  // tick. Stale wake-ups (the tenant unparked and re-parked since) are
  // recognized by their park generation and dropped.
  gen_wheel_.PopDue(tick_count_, [&](const GenWake& w) {
    TenantRuntime** slot = tenant_index_.Find(w.tenant);
    if (slot == nullptr) return;
    TenantRuntime& rt = **slot;
    if (rt.gen_parked && rt.wake_seq == w.seq && rt.workload != nullptr) {
      rt.gen_parked = false;
      gen_active_.insert(w.tenant);
    }
  });
}

void ClusterSim::ParkGenerator(TenantId tenant, TenantRuntime& rt,
                               Micros now) {
  rt.gen_parked = true;
  rt.wake_seq++;
  const WorkloadProfile& prof = rt.workload->profile();
  if (prof.rate_schedule.empty() || prof.rate_schedule_step <= 0) {
    // Flat zero rate: parked until SetWorkload/MutableWorkload wakes it.
    return;
  }
  // Wake at the first tick at or past the next schedule boundary; the
  // slot build re-evaluates the cell there (and re-parks if still 0).
  const Micros next = (now / prof.rate_schedule_step + 1) *
                      prof.rate_schedule_step;
  const uint64_t ticks_until =
      (static_cast<uint64_t>(next - now) +
       static_cast<uint64_t>(options_.tick) - 1) /
      static_cast<uint64_t>(options_.tick);
  gen_wheel_.ScheduleAt(tick_count_ + std::max<uint64_t>(1, ticks_until),
                        GenWake{tenant, rt.wake_seq});
}

const std::vector<TenantId>& ClusterSim::SortedUnion(
    const std::vector<TenantId>& a, const std::vector<TenantId>& b) {
  visit_scratch_.clear();
  visit_scratch_.reserve(a.size() + b.size());
  visit_scratch_.insert(visit_scratch_.end(), a.begin(), a.end());
  visit_scratch_.insert(visit_scratch_.end(), b.begin(), b.end());
  std::sort(visit_scratch_.begin(), visit_scratch_.end());
  visit_scratch_.erase(
      std::unique(visit_scratch_.begin(), visit_scratch_.end()),
      visit_scratch_.end());
  return visit_scratch_;
}

void ClusterSim::FinalizeTickMetrics() {
  const bool timed = options_.latency.enabled;
  // Only touched tenants can differ from an all-zero row; everyone
  // else's row materializes lazily as TenantTickMetrics{} on next access
  // (an untouched tenant's tick_latency_hist is empty or unbuilt, so it
  // has no percentiles to fold either).
  for (TenantId tid : touched_) {
    TenantRuntime** slot = tenant_index_.Find(tid);
    if (slot == nullptr) continue;
    TenantRuntime& rt = **slot;
    if (timed && rt.lazy && rt.lazy->tick_latency_hist.count() > 0) {
      Histogram& hist = rt.lazy->tick_latency_hist;
      rt.lazy->current.latency_p50 = hist.P50();
      rt.lazy->current.latency_p95 = hist.Percentile(95);
      rt.lazy->current.latency_p99 = hist.P99();
      hist.Reset();
    }
    // tick_count_ already incremented in Settle: the row being pushed
    // is for tick (tick_count_ - 1).
    BackfillHistoryTo(rt, tick_count_ - rt.created_at_tick - 1);
    if (rt.lazy) {
      rt.history.push_back(rt.lazy->current);
      rt.lazy->current = TenantTickMetrics{};
    } else {
      rt.history.emplace_back();
    }
  }
}

const std::vector<TenantTickMetrics>& ClusterSim::History(
    TenantId tenant) const {
  static const std::vector<TenantTickMetrics> kEmpty;
  ClusterSim* self = const_cast<ClusterSim*>(this);
  auto it = self->tenants_.find(tenant);
  if (it == self->tenants_.end()) return kEmpty;
  SyncHistory(it->second);
  return it->second.history;
}

const TenantRuntime* ClusterSim::Tenant(TenantId tenant) const {
  return const_cast<ClusterSim*>(this)->MutableTenant(tenant);
}

TenantRuntime* ClusterSim::MutableTenant(TenantId tenant) {
  TenantRuntime** slot = tenant_index_.Find(tenant);
  return slot == nullptr ? nullptr : *slot;
}

// ---------------------------------------------------------------------------
// Rescheduler bridge
// ---------------------------------------------------------------------------

resched::PoolModel ClusterSim::BuildPoolModel(PoolId pool) const {
  resched::PoolModel model;
  for (node::DataNode* n : meta_->PoolNodes(pool)) {
    // A failed/recovering node is invisible to the rescheduler: its
    // zeroed load would otherwise make it the most attractive migration
    // destination in the pool.
    if (!n->CanServe()) continue;
    resched::NodeModel& nm = model.AddNode(
        n->id(), n->options().ru_capacity,
        static_cast<double>(n->options().storage_capacity));
    nm.Reserve(n->replica_count());
    for (const node::PartitionReplica* rep : n->Replicas()) {
      const meta::TenantMeta* tm = meta_->GetTenant(rep->tenant);
      if (tm == nullptr) continue;
      resched::ReplicaLoad rl;
      rl.tenant = rep->tenant;
      rl.partition = rep->partition;
      // The replica's actual placement index (0 = primary), so the
      // rescheduler's load model distinguishes second from third
      // replicas instead of flattening every non-primary to 1.
      rl.replica_index = rep->is_primary ? 0 : 1;
      if (rep->partition >= tm->partitions.size()) {
        // A staged split child (not yet in the partition table): its
        // growing footprint still loads this node, but it is mid-stream
        // and must not be migrated out from under the split — pinned
        // until the cutover installs it.
        rl.pinned = true;
      } else {
        const auto& reps = tm->partitions[rep->partition].replicas;
        auto rit = std::find(reps.begin(), reps.end(), n->id());
        if (rit != reps.end()) {
          rl.replica_index =
              static_cast<uint32_t>(std::distance(reps.begin(), rit));
        }
      }
      rl.ru = LoadVector::Constant(rep->ru_rate);
      rl.storage = LoadVector::Constant(
          static_cast<double>(rep->engine->ApproximateDataBytes()));
      nm.AddReplica(std::move(rl));
    }
  }
  return model;
}

void ClusterSim::RecordMigrationOutcome(const Status& status) {
  if (status.ok()) {
    migration_stats_.applied++;
  } else {
    migration_stats_.skipped++;
    migration_stats_.skip_reasons[status.code()]++;
  }
}

std::vector<ClusterSim::MigrationOutcome> ClusterSim::ApplyMigrations(
    const std::vector<resched::Migration>& migrations) {
  std::vector<MigrationOutcome> outcomes;
  outcomes.reserve(migrations.size());
  for (const resched::Migration& m : migrations) {
    migration_stats_.planned++;
    Status s = meta_->MigrateReplica(m.tenant, m.partition, m.from, m.to);
    RecordMigrationOutcome(s);
    outcomes.push_back(MigrationOutcome{m, std::move(s)});
  }
  return outcomes;
}

// ---------------------------------------------------------------------------
// Closed-loop control plane (the Control stage; serial sections only)
// ---------------------------------------------------------------------------

void ClusterSim::EnableAutoscale(TenantId tenant, AutoscaleMode mode,
                                 autoscale::ScalingPolicy policy,
                                 forecast::EnsembleOptions forecast_options) {
  auto it = tenants_.find(tenant);
  if (it == tenants_.end()) return;
  TenantRuntime& rt = it->second;
  if (mode == AutoscaleMode::kDisabled) {
    autoscale_enabled_.erase(tenant);
  } else {
    // Fold any outstanding idle gap before the tenant joins the
    // standing control work list (enabled tenants fold every tick and
    // never fall behind again).
    SyncControlUsage(tenant, rt);
    autoscale_enabled_.insert(tenant);
  }
  TenantRuntime::Lazy& lz = MutableLazy(rt);
  lz.autoscale_mode = mode;
  lz.scaling_policy = policy;
  lz.forecast_options = forecast_options;
}

void ClusterSim::SeedUsageHistory(TenantId tenant, const TimeSeries& usage) {
  auto it = tenants_.find(tenant);
  if (it == tenants_.end()) return;
  TenantRuntime& rt = it->second;
  SyncControlUsage(tenant, rt);
  TenantRuntime::Lazy& lz = MutableLazy(rt);
  lz.usage_history = usage;
  const double quota = meta_->GetTenant(tenant)->tenant_quota_ru;
  lz.quota_history = TimeSeries(std::vector<double>(usage.size(), quota));
}

const TimeSeries* ClusterSim::UsageHistory(TenantId tenant) const {
  ClusterSim* self = const_cast<ClusterSim*>(this);
  auto it = self->tenants_.find(tenant);
  if (it == self->tenants_.end()) return nullptr;
  self->SyncControlUsage(tenant, it->second);
  return &it->second.lazy_or_default().usage_history;
}

Micros ClusterSim::ControlNow(const TenantRuntime& rt) const {
  const int tph = std::max(1, options_.control_ticks_per_hour);
  const TenantRuntime::Lazy& lz = rt.lazy_or_default();
  return static_cast<Micros>(lz.usage_history.size()) * kMicrosPerHour +
         static_cast<Micros>(lz.hour_ticks) * kMicrosPerHour / tph;
}

void ClusterSim::SyncControlUsage(TenantId tenant, TenantRuntime& rt) {
  (void)tenant;
  if (options_.control_interval_ticks <= 0) return;
  if (rt.ctrl_synced_tick >= tick_count_) return;
  // Folds every tick since the last sync, in tick order. Untouched ticks
  // have all-zero metrics rows: materialize them, then fold each one —
  // a zero tick folds the EWMA as 0.7*ewma + 0.0 and advances the hour
  // counter, so a lazily folded gap equals folding it tick by tick. The
  // exception is the hour-boundary quota sample: it reads the quota in
  // force when the gap is folded, not when the hour ended, so a
  // disabled idle tenant whose quota changed mid-gap records the new
  // quota for the earlier hours too.
  SyncHistory(rt);
  TenantRuntime::Lazy& lz = MutableLazy(rt);
  const double tick_seconds = static_cast<double>(options_.tick) /
                              static_cast<double>(kMicrosPerSecond);
  const int tph = std::max(1, options_.control_ticks_per_hour);
  for (uint64_t t = rt.ctrl_synced_tick; t < tick_count_; t++) {
    const double tick_ru =
        rt.history[static_cast<size_t>(t - rt.created_at_tick)].ru_charged;
    lz.hour_ru_accum += tick_ru;
    lz.hour_ticks++;
    // Reactive "current usage": a light EWMA over the settled RU rate so
    // one Poisson-quiet tick does not mask a live burst.
    constexpr double kEwmaAlpha = 0.3;
    lz.ru_rate_ewma = (1.0 - kEwmaAlpha) * lz.ru_rate_ewma +
                      kEwmaAlpha * (tick_ru / tick_seconds);
    if (lz.hour_ticks >= tph) {
      const double hour_seconds = static_cast<double>(tph) * tick_seconds;
      lz.usage_history.Append(lz.hour_ru_accum / hour_seconds);
      lz.quota_history.Append(meta_->GetTenant(rt.id)->tenant_quota_ru);
      lz.hour_ru_accum = 0;
      lz.hour_ticks = 0;
    }
  }
  rt.ctrl_synced_tick = tick_count_;
}

void ClusterSim::AccumulateControlUsage() {
  // Standing work list (autoscale-enabled tenants fold every tick so
  // their scaler inputs are always current) plus this tick's touched
  // tenants (the only ones whose row is not all-zero). Everyone else
  // catches up lazily — the gap folds as zeros, which is exact.
  for (TenantId tid : autoscale_enabled_) {
    if (TenantRuntime** slot = tenant_index_.Find(tid)) {
      SyncControlUsage(tid, **slot);
    }
  }
  for (TenantId tid : touched_) {
    if (TenantRuntime** slot = tenant_index_.Find(tid)) {
      SyncControlUsage(tid, **slot);
    }
  }
}

void ClusterSim::RunAutoscalers() {
  // The enabled set iterates in ascending tenant id, which matters
  // because scaling decisions mutate shared MetaServer placement state.
  for (TenantId tid : autoscale_enabled_) {
    TenantRuntime** slot = tenant_index_.Find(tid);
    if (slot == nullptr) continue;
    RunAutoscalerFor(tid, **slot);
  }
}

void ClusterSim::RunAutoscalerFor(TenantId tid, TenantRuntime& rt) {
  if (!rt.lazy || rt.lazy->autoscale_mode == AutoscaleMode::kDisabled) {
    return;
  }
  TenantRuntime::Lazy& lz = *rt.lazy;
  const meta::TenantMeta* tm = meta_->GetTenant(tid);
  if (tm == nullptr || tm->partitions.empty()) return;
  const double quota = tm->tenant_quota_ru;
  const Micros now_control = ControlNow(rt);

  autoscale::ScalingDecision decision;
  if (lz.autoscale_mode == AutoscaleMode::kPredictive) {
    autoscale::Autoscaler scaler(lz.scaling_policy, lz.forecast_options);
    auto d = scaler.Decide(
        lz.usage_history, lz.quota_history, quota,
        static_cast<uint32_t>(tm->partitions.size()),
        tm->config.partition_quota_upper, tm->config.partition_quota_lower,
        lz.last_scale_down_control, now_control);
    if (!d.ok()) return;  // E.g. history still below min_history.
    decision = std::move(d).value();
  } else {
    decision = lz.reactive_scaler.Decide(lz.ru_rate_ewma, quota);
  }

  if (decision.action != autoscale::ScalingDecision::Action::kNone &&
      decision.new_quota != quota) {
    if (!SetTenantQuota(tid, decision.new_quota).ok()) return;
    if (decision.action == autoscale::ScalingDecision::Action::kScaleUp) {
      rt.scale_ups++;
    } else {
      rt.scale_downs++;
      lz.last_scale_down_control = now_control;
    }
  } else {
    // No quota change, but a split that could not be staged earlier
    // (a parent primary not serving) is retried every round.
    StageSplitIfOverUpper(tid, rt);
  }
}

Status ClusterSim::SetTenantQuota(TenantId tenant, double quota_ru) {
  TenantRuntime* rt = MutableTenant(tenant);
  if (rt == nullptr) return Status::NotFound("no such tenant");
  ABASE_RETURN_IF_ERROR(meta_->SetTenantQuota(tenant, quota_ru));
  // The proxy fleet's autonomous quota follows the tenant quota.
  const double proxy_quota =
      quota_ru / static_cast<double>(rt->proxies.size());
  for (auto& p : rt->proxies) p->SetBaseQuota(proxy_quota);
  StageSplitIfOverUpper(tenant, *rt);
  return Status::OK();
}

void ClusterSim::StageSplitIfOverUpper(TenantId tid, TenantRuntime& rt) {
  // Algorithm 1 lines 4-6, online: partition quota above UP starts a
  // staged split (unless one is already streaming).
  const meta::TenantMeta* tm = meta_->GetTenant(tid);
  if (tm->PartitionQuota() > tm->config.partition_quota_upper &&
      !SplitInProgress(tid)) {
    if (StartPartitionSplit(tid).ok()) rt.splits_started++;
  }
}

storage::LsmEngine* ClusterSim::ServingPrimaryEngine(TenantId tenant,
                                                     PartitionId partition) {
  node::DataNode* pn = MutableNode(meta_->PrimaryFor(tenant, partition));
  return pn != nullptr && pn->CanServe() ? pn->EngineFor(tenant, partition)
                                         : nullptr;
}

Status ClusterSim::StartPartitionSplit(TenantId tenant) {
  if (SplitInProgress(tenant)) {
    return Status::InvalidArgument("split already in progress");
  }
  const meta::TenantMeta* tm = meta_->GetTenant(tenant);
  if (tm == nullptr) return Status::NotFound("no such tenant");
  // Every parent primary must be resolvable *now*: the streaming window
  // opens at its current stream head, and a hold recorded against a
  // dark primary would be unreplayable at cutover (silent lost writes).
  // The caller (control loop, tests) simply retries later.
  SplitOp op;
  op.old_count = static_cast<uint32_t>(tm->partitions.size());
  for (PartitionId p = 0; p < op.old_count; p++) {
    storage::LsmEngine* src = ServingPrimaryEngine(tenant, p);
    if (src == nullptr) {
      return Status::Unavailable("parent primary not serving");
    }
    // The streaming window opens at the parent's current stream head;
    // the replication logs are held here so every write acknowledged
    // while the snapshot streams can be replayed at cutover.
    SplitParent sp;
    sp.hold_seq = src->applied_seq();
    op.parents.push_back(std::move(sp));
  }
  ABASE_RETURN_IF_ERROR(meta_->PrepareSplit(tenant));
  active_splits_.emplace(tenant, std::move(op));
  // The split holds the parents' replication logs at the window floor;
  // the Replicate walk must keep visiting this tenant to honor them.
  repl_active_.insert(tenant);
  return Status::OK();
}

void ClusterSim::AdvanceSplits() {
  const uint64_t budget = std::max<uint64_t>(1, options_.split_bytes_per_tick);
  // One budget step of the current phase's walk over a split's parents:
  // each unfinished parent whose primary serves exports the next batch
  // of its moved hash range from its cursor, hands it to
  // on_batch(parent, engine, batch), and advances. Returns whether every
  // parent is done.
  auto walk_parents = [&](TenantId tid, SplitOp& op, auto&& on_batch) {
    const uint64_t modulus = static_cast<uint64_t>(op.old_count) * 2;
    bool all_done = true;
    for (PartitionId p = 0; p < op.old_count; p++) {
      SplitParent& sp = op.parents[p];
      if (sp.done) continue;
      storage::LsmEngine* src = ServingPrimaryEngine(tid, p);
      if (src == nullptr) {
        all_done = false;  // Primary dark: resume when it is back.
        continue;
      }
      auto batch =
          src->ExportHashRange(modulus, op.old_count + p, sp.cursor, budget);
      on_batch(p, *src, batch);
      sp.cursor = std::move(batch.next_cursor);
      sp.done = batch.done;
      all_done = all_done && batch.done;
    }
    return all_done;
  };
  // Ingests the moved versions, in order, into every staged replica of
  // a split child, then truncates that replica's own log: nothing ships
  // from a staged child yet, so it must not mirror the whole streamed
  // dataset. The replicas ingest one stream from the same (empty) start,
  // so each moved version becomes one child record the first replica
  // builds and the others share; a replica whose sequence diverged
  // builds its own copy (LsmEngine::Ingest).
  auto ingest_into_child =
      [&](TenantId tid, PartitionId child,
          const meta::PartitionPlacement& placement,
          const std::vector<storage::ReplRecordPtr>& moved) {
        std::vector<storage::ReplRecordPtr> child_recs(moved.size());
        for (NodeId nid : placement.replicas) {
          node::DataNode* cn = MutableNode(nid);
          storage::LsmEngine* ce =
              cn != nullptr ? cn->EngineFor(tid, child) : nullptr;
          if (ce == nullptr) continue;
          for (size_t i = 0; i < moved.size(); i++) {
            storage::ReplRecordPtr rec = ce->Ingest(*moved[i], child_recs[i]);
            if (child_recs[i] == nullptr) child_recs[i] = std::move(rec);
          }
          ce->TruncateReplLogThrough(ce->applied_seq());
        }
      };

  for (auto it = active_splits_.begin(); it != active_splits_.end();) {
    const TenantId tid = it->first;
    SplitOp& op = it->second;

    if (op.cut_over) {
      // Phase 3 — post-cutover purge: the moved keys are deleted out of
      // the parent primaries at the streaming rate (tombstones replicate
      // to the parent replicas through the normal Replicate stage).
      const bool purged = walk_parents(
          tid, op,
          [&](PartitionId, storage::LsmEngine& src, const auto& batch) {
            for (const storage::ReplRecordPtr& rec : batch.entries) {
              (void)src.Delete(rec->key());
            }
            // Direct engine writes outside the response path: the
            // tombstones ship through the Replicate walk, which must
            // visit the tenant.
            if (!batch.entries.empty()) repl_active_.insert(tid);
          });
      if (purged) {
        splits_completed_++;
        it = active_splits_.erase(it);
      } else {
        ++it;
      }
      continue;
    }

    // Only this walk ends a staged split (CommitSplit or UnstageSplit
    // below), and either ends this phase.
    const meta::MetaServer::PendingSplit* pending =
        meta_->GetPendingSplit(tid);
    assert(pending != nullptr);
    // Phase 1 — snapshot streaming: each parent primary exports up to
    // the per-tick budget of its re-hashed half into the staged child
    // replicas (identical serial ingest => identical child engines).
    const bool streamed = walk_parents(
        tid, op, [&](PartitionId p, storage::LsmEngine&, const auto& batch) {
          ingest_into_child(tid, op.old_count + p, pending->children[p],
                            batch.entries);
        });
    if (!streamed) {
      ++it;
      continue;
    }

    // A child with no serving replica must never cut over: it would
    // commit a partition placed on dead nodes only. Deferring instead
    // would hold the parents' logs for as long as the nodes stay down,
    // so the split is unstaged (releasing the holds with its record);
    // the next over-UP quota or control round stages it again on
    // serving nodes.
    const bool children_serving = std::all_of(
        pending->children.begin(), pending->children.end(),
        [this](const meta::PartitionPlacement& child) {
          return std::any_of(child.replicas.begin(), child.replicas.end(),
                             [this](NodeId nid) {
                               const node::DataNode* n = FindNode(nid);
                               return n != nullptr && n->CanServe();
                             });
        });
    if (!children_serving) {
      meta_->UnstageSplit(tid);
      it = active_splits_.erase(it);
      continue;
    }

    // Phase 2 — cutover, atomically within this serial stage: replay
    // every write acknowledged during the streaming window (the held
    // replication-log suffix) into the children, then install the
    // children and bump the routing epoch. Requests of this tick were
    // fully settled before Control runs, so no acknowledged write can
    // land on a parent after its window replays: zero acked writes are
    // lost.
    //
    // The cutover is all-or-nothing: if ANY parent's window cannot be
    // replayed right now — its primary is dark, or the held log
    // suffix somehow fell out of retention — committing would
    // silently lose the writes acknowledged during streaming, so the
    // whole cutover defers to a later tick instead.
    bool replayable = true;
    for (PartitionId p = 0; p < op.old_count && replayable; p++) {
      const uint64_t hold = op.parents[p].hold_seq;
      const storage::LsmEngine* src = ServingPrimaryEngine(tid, p);
      // A promotion may have rewound the stream head below the hold
      // (the failover's measured lost-write window, not the split's);
      // only a head *beyond* the hold needs a coverable log suffix.
      replayable = src != nullptr && (src->applied_seq() <= hold ||
                                      src->repl_log().Covers(hold));
    }
    if (!replayable) {
      ++it;
      continue;
    }
    const uint64_t modulus = static_cast<uint64_t>(op.old_count) * 2;
    for (PartitionId p = 0; p < op.old_count; p++) {
      const uint64_t hold = op.parents[p].hold_seq;
      const storage::LsmEngine* src = ServingPrimaryEngine(tid, p);
      if (src->applied_seq() <= hold) continue;
      const PartitionId child = op.old_count + p;  // Its hash residue too.
      // Ordered replay of the window's moved keys: the last record per
      // key wins, including tombstones — deletes in the window are not
      // resurrected.
      std::vector<storage::ReplRecordPtr> moved;
      src->repl_log().ForEachDelta(
          hold, src->applied_seq(), [&](const storage::ReplRecordPtr& rec) {
            if (Fnv1a64(rec->key()) % modulus == child) moved.push_back(rec);
            return true;
          });
      ingest_into_child(tid, child, pending->children[p], moved);
    }
    const Status committed = meta_->CommitSplit(tid);
    assert(committed.ok());
    (void)committed;
    split_cutovers_++;
    // The purge walks the same parents from the start again.
    op.cut_over = true;
    for (SplitParent& sp : op.parents) {
      sp.cursor.clear();
      sp.done = false;
    }
    // Content-store treatment of the cutover: the partition set a
    // cached scan was merged across just changed. kPrefixSubtree
    // drops only the scan payloads (point entries' key->value
    // mapping is split-invariant and keeps serving); kFullFlush is
    // the conservative baseline the bench compares against; kNone
    // preserves the seed's behavior bit-for-bit.
    if (options_.split_invalidation != ProxyInvalidationMode::kNone) {
      if (TenantRuntime* rt = MutableTenant(tid)) {
        for (auto& p : rt->proxies) {
          if (options_.split_invalidation ==
              ProxyInvalidationMode::kFullFlush) {
            p->FlushCache();
          } else {
            p->InvalidateCachedScans();
          }
        }
      }
    }
    ++it;
  }
}

void ClusterSim::AdvanceMigrations() {
  uint64_t budget = std::max<uint64_t>(1, options_.migration_bytes_per_tick);
  while (budget > 0 && !migration_queue_.empty()) {
    PendingMigration& pm = migration_queue_.front();
    const uint64_t remaining = pm.bytes_total - pm.bytes_copied;
    const uint64_t step = std::min(budget, remaining);
    pm.bytes_copied += step;
    budget -= step;
    if (pm.bytes_copied < pm.bytes_total) return;
    // Modeled copy finished: install the move (it re-validates against
    // the live topology — the source may have failed, the destination
    // may have picked the partition up some other way since planning).
    const resched::Migration& m = pm.migration;
    Status s = meta_->MigrateReplica(m.tenant, m.partition, m.from, m.to);
    RecordMigrationOutcome(s);
    migration_queue_.pop_front();
  }
}

void ClusterSim::PlanRescheduling() {
  // Re-planning while copies are still streaming would schedule the same
  // imbalance twice; one wave drains before the next is planned.
  if (!migration_queue_.empty()) return;
  resched::IntraPoolRescheduler rescheduler;
  plan_memo_.resize(meta_->PoolCount());
  for (PoolId pool = 0; pool < static_cast<PoolId>(meta_->PoolCount());
       pool++) {
    PlanMemo& memo = plan_memo_[pool];
    const auto& members = meta_->PoolNodes(pool);
    const uint64_t placement = meta_->PoolPlacementVersion(pool);
    if (memo.idle && memo.placement_version == placement &&
        memo.node_versions.size() == members.size() &&
        std::equal(members.begin(), members.end(),
                   memo.node_versions.begin(),
                   [](const node::DataNode* n, uint64_t v) {
                     return n->load_version() == v;
                   })) {
      continue;
    }
    resched::PoolModel model = BuildPoolModel(pool);
    resched_plans_built_++;
    const std::vector<resched::Migration> plan = rescheduler.Run(&model);
    memo.idle = plan.empty();
    if (memo.idle) {
      memo.placement_version = placement;
      memo.node_versions.clear();
      for (const node::DataNode* n : members) {
        memo.node_versions.push_back(n->load_version());
      }
    }
    for (const resched::Migration& m : plan) {
      PendingMigration pm;
      pm.migration = m;
      node::DataNode* src = MutableNode(m.from);
      storage::LsmEngine* engine =
          src != nullptr ? src->EngineFor(m.tenant, m.partition) : nullptr;
      pm.bytes_total = std::max<uint64_t>(
          1, engine != nullptr ? engine->ApproximateDataBytes() : 1);
      migration_stats_.planned++;
      migration_queue_.push_back(std::move(pm));
    }
  }
}

}  // namespace sim
}  // namespace abase
