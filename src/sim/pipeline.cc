#include "sim/pipeline.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <utility>

#include "common/smallvec.h"
#include "sim/cluster_sim.h"

namespace abase {
namespace sim {

// ---------------------------------------------------------------------------
// Fault
// ---------------------------------------------------------------------------

void FaultStage::Run(TickContext&) { faults_->Run(); }

// ---------------------------------------------------------------------------
// Generate
// ---------------------------------------------------------------------------

void GenerateStage::Run(TickContext& ctx) {
  ClusterSim& sim = *sim_;
  // Reconcile the persistent traffic slots against the unparked
  // generators in ascending tenant id (gen_active_ is ordered):
  // surviving slots keep their request buffers — and the strings inside
  // them — so steady-state generation reuses capacity instead of
  // reallocating per tick. Generators then fill the slots concurrently
  // — each owns a private RNG stream.
  //
  // A generator whose effective rate cell is exactly 0 emits nothing and
  // consumes no RNG (NextPoisson(0) is draw-free), so parking it — until
  // the next rate-schedule boundary via the wheel, or forever for a flat
  // zero profile — is bit-identical to giving it an empty slot.
  runtimes_.clear();
  size_t slots = 0;
  const Micros now = sim.clock_.NowMicros();
  parked_scratch_.clear();
  for (TenantId tid : sim.gen_active_) {
    TenantRuntime** slot = sim.tenant_index_.Find(tid);
    if (slot == nullptr) {
      parked_scratch_.push_back(tid);
      continue;
    }
    TenantRuntime& rt = **slot;
    if (rt.workload == nullptr) {
      parked_scratch_.push_back(tid);
      continue;
    }
    const WorkloadProfile& prof = rt.workload->profile();
    double cell = prof.base_qps;
    if (!prof.rate_schedule.empty() && prof.rate_schedule_step > 0) {
      const size_t idx = static_cast<size_t>(
          (now / prof.rate_schedule_step) %
          static_cast<Micros>(prof.rate_schedule.size()));
      cell = prof.rate_schedule[idx];
    }
    if (cell == 0.0) {
      sim.ParkGenerator(tid, rt, now);
      parked_scratch_.push_back(tid);
      continue;
    }
    sim.TouchTenant(tid, rt);
    if (slots == ctx.traffic.size()) ctx.traffic.emplace_back();
    ctx.traffic[slots].tenant = tid;
    runtimes_.push_back(&rt);
    slots++;
  }
  for (TenantId tid : parked_scratch_) sim.gen_active_.erase(tid);
  ctx.traffic.resize(slots);
  const Micros tick_len = sim.options_.tick;
  auto& runtimes = runtimes_;
  sim.executor_->MorselFor(
      "Generate", runtimes.size(), 1,
      [&runtimes, &ctx, now, tick_len](size_t begin, size_t end, int) {
        for (size_t i = begin; i < end; i++) {
          runtimes[i]->workload->Tick(now, tick_len, ctx.traffic[i].requests);
        }
      });

  // Swap, not move-assign: the sim-side buffer keeps ctx.injected's old
  // (cleared) storage for the next batch of injections.
  ctx.injected.swap(sim.injected_);
  sim.injected_.clear();
}

// ---------------------------------------------------------------------------
// ProxyAdmit
// ---------------------------------------------------------------------------

void ProxyAdmitStage::AdmitOne(
    TenantRuntime& rt, const ClientRequest& req,
    std::vector<PendingForward>& out, size_t& out_count,
    std::vector<std::pair<uint64_t, ClientOutcome>>& deferred,
    TenantTickMetrics& m) {
  m.issued++;

  // Writes invalidate the key across the tenant's proxy caches (a
  // write-through invalidation broadcast; keeps the synchronous client
  // API read-your-writes while the paper's model remains eventually
  // consistent under races). req.key_hash is Fnv1a64(key) == HashString,
  // computed once at generate/inject time.
  if (!IsReadOp(req.op)) {
    for (auto& p : rt.proxies) p->InvalidateCacheHashed(req.key_hash, req.key);
  }

  if (rt.router_rng == nullptr) {
    // Stream ids: nodes use their (small, dense) node ids, tenants sit
    // in a disjoint range.
    rt.router_rng = std::make_unique<Rng>(
        MixSeed(sim_->options_.seed, (1ull << 32) | rt.id));
  }
  size_t proxy_index = rt.router->RouteHashed(req.key_hash, *rt.router_rng);
  proxy::Proxy& px = *rt.proxies[proxy_index];
  // Recycle the next forward slot: HandleInto assigns every NodeRequest
  // field, so the slot's string capacity is reused and the hot path
  // neither constructs nor moves a PendingForward.
  if (out_count == out.size()) out.emplace_back();
  PendingForward& fwd = out[out_count];
  proxy::ProxyHandleResult local;
  local.action = px.HandleInto(req, req.key_hash, fwd.request, local);
  if (local.action == proxy::ProxyHandleResult::Action::kForward) {
    fwd.ctx = RequestContext{};
    fwd.ctx.tenant = req.tenant;
    fwd.ctx.proxy_index = proxy_index;
    fwd.ctx.track_outcome = req.track_outcome;
    if (req.op == OpType::kScan) {
      // A scan's fan-out (serial Route walk) may refresh the routing
      // table and advance cursors; anything admitted after it this tick
      // must resolve serially, in order, to stay bit-identical.
      rt.route_fuse_stop_stamp = sim_->touch_epoch_;
    } else if (rt.route_fuse_stop_stamp != sim_->touch_epoch_) {
      sim_->RoutePoint(rt, fwd, m);
    }
    out_count++;
  } else {
    sim_->SettleLocalProxyResult(rt, req, local, &deferred, m);
  }
}

void ProxyAdmitStage::Run(TickContext& ctx) {
  ClusterSim& sim = *sim_;

  // Bulk per-tenant traffic, tenants concurrently: every touched piece
  // of state — proxies, router RNG stream, routing cache (the fused
  // resolve), scratch metrics — is private to the tenant, and generated
  // requests never track outcomes, so nothing sim-wide is written. Each
  // tenant's forwards stay in its traffic slot (recycled in place);
  // Route walks the slots directly, so there is no merge copy. Metric
  // increments go through a per-slot scratch folded into the tenant's
  // current row once — its doubles are still +0.0 here (the settle path
  // runs later), so the fold is bit-exact against serial accumulation.
  sim.executor_->MorselFor(
      "ProxyAdmit", ctx.traffic.size(), 1,
      [this, &sim, &ctx](size_t begin, size_t end, int) {
        for (size_t i = begin; i < end; i++) {
          TickContext::TenantTraffic& tt = ctx.traffic[i];
          auto it = sim.tenants_.find(tt.tenant);
          if (it == sim.tenants_.end()) {
            // A stale slot would make Route re-walk last tick's forwards.
            tt.forwards.clear();
            continue;
          }
          std::vector<std::pair<uint64_t, ClientOutcome>> unused;
          TenantTickMetrics scratch;
          size_t fwd_count = 0;
          for (const ClientRequest& req : tt.requests) {
            // Generated traffic never tracks outcomes; nothing defers.
            assert(!req.track_outcome);
            AdmitOne(it->second, req, tt.forwards, fwd_count, unused,
                     scratch);
          }
          tt.forwards.resize(fwd_count);
          sim.Current(it->second).MergeFrom(scratch);
        }
      });

  // Injected requests (async clients, tests) are admitted in batches:
  // grouped by tenant (injection order preserved within a tenant) and
  // fanned out across the executor like bulk traffic. Tracked outcomes
  // settle into tenant-private buffers and are published serially in
  // tenant-id order below, so callback invocation order is deterministic
  // regardless of worker count. The grouping is allocation-free in
  // steady state: a counting pass sizes exact request-pointer arrays
  // out of the stage arena, and the non-trivial output buffers recycle.
  // Generated-only workloads skip the whole block.
  if (!ctx.injected.empty()) {
    injected_arena_.Reset();
    injected_index_.Clear();
    injected_batches_.clear();
    // Pass 1: count per tenant (and answer unknown-tenant submitters —
    // a tracked request dropped silently would strand its subscription,
    // and any future waiting on it, forever).
    for (const ClientRequest& req : ctx.injected) {
      TenantRuntime* rt = sim.MutableTenant(req.tenant);
      if (rt == nullptr) {
        if (req.track_outcome) {
          sim.PublishOutcome(
              req.req_id, ClientOutcome{Status::Unavailable("no such tenant"),
                                        ""});
        }
        continue;
      }
      sim.TouchTenant(req.tenant, *rt);
      uint32_t* slot = injected_index_.Find(req.tenant);
      if (slot == nullptr) {
        injected_index_.Insert(
            req.tenant, static_cast<uint32_t>(injected_batches_.size()));
        InjectedBatch b;
        b.tenant = req.tenant;
        b.rt = rt;
        b.count = 1;
        injected_batches_.push_back(b);
      } else {
        injected_batches_[*slot].count++;
      }
    }
    // Batches fan out and publish in tenant-id order. First-appearance
    // order depends on submission interleaving, so sort, then re-point
    // the index at the new slots for the fill pass.
    std::sort(injected_batches_.begin(), injected_batches_.end(),
              [](const InjectedBatch& a, const InjectedBatch& b) {
                return a.tenant < b.tenant;
              });
    for (uint32_t i = 0; i < injected_batches_.size(); i++) {
      *injected_index_.Find(injected_batches_[i].tenant) = i;
    }
    if (injected_buffers_.size() < injected_batches_.size()) {
      injected_buffers_.resize(injected_batches_.size());
    }
    // Pass 2: exact-size arena arrays, filled in injection order.
    for (InjectedBatch& b : injected_batches_) {
      b.requests = injected_arena_.AllocateArray<const ClientRequest*>(b.count);
    }
    for (const ClientRequest& req : ctx.injected) {
      uint32_t* slot = injected_index_.Find(req.tenant);
      if (slot == nullptr) continue;  // Unknown tenant, answered above.
      InjectedBatch& b = injected_batches_[*slot];
      b.requests[b.filled++] = &req;
    }
    sim.executor_->MorselFor(
        "AdmitInjected", injected_batches_.size(), 1,
        [this](size_t begin, size_t end, int) {
          for (size_t i = begin; i < end; i++) {
            InjectedBatch& b = injected_batches_[i];
            InjectedBuffers& buf = injected_buffers_[i];
            // Injected batches write the current row directly (tenant-private
            // here), preserving the legacy accumulation order exactly.
            size_t fwd_count = 0;
            for (uint32_t r = 0; r < b.count; r++) {
              AdmitOne(*b.rt, *b.requests[r], buf.forwards, fwd_count,
                       buf.deferred, sim_->Current(*b.rt));
            }
            buf.forwards.resize(fwd_count);
          }
        });
    for (size_t i = 0; i < injected_batches_.size(); i++) {
      InjectedBuffers& buf = injected_buffers_[i];
      for (PendingForward& fwd : buf.forwards) {
        ctx.forwards.push_back(std::move(fwd));
      }
      for (auto& [req_id, outcome] : buf.deferred) {
        sim.PublishOutcome(req_id, std::move(outcome));
      }
      buf.forwards.clear();
      buf.deferred.clear();
    }
  }

  // AU-LRU active-update refresh fetches (background traffic) enter the
  // data plane behind all client traffic. Serial: refresh ids come from
  // the sim-wide allocator in ascending tenant id (SortedUnion's order).
  // Only tenants touched this tick (admission above queues fetches via
  // Proxy::Handle) or last tick (response cache fills queue them in
  // Settle, drained here one tick later) are walked — an untouched
  // tenant's proxies cannot hold a pending fetch.
  for (TenantId tid : sim.SortedUnion(sim.touched_, sim.prev_touched_)) {
    TenantRuntime** slot = sim.tenant_index_.Find(tid);
    if (slot == nullptr) continue;
    TenantRuntime& rt = **slot;
    for (size_t p = 0; p < rt.proxies.size(); p++) {
      for (NodeRequest& req : rt.proxies[p]->TakeRefreshFetches()) {
        PendingForward fwd;
        fwd.request = std::move(req);
        fwd.ctx.tenant = tid;
        fwd.ctx.proxy_index = p;
        fwd.ctx.track_outcome = false;
        fwd.ctx.background = true;
        ctx.forwards.push_back(std::move(fwd));
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Route
// ---------------------------------------------------------------------------

void RouteStage::Run(TickContext& ctx) {
  ClusterSim& sim = *sim_;

  // Serial pass: resolve destinations against each tenant's cached
  // routing table (ClusterSim::RoutePoint), register the in-flight
  // contexts (sim-wide table), and batch forwards per destination node.
  // Most point forwards arrive already resolved by the same RoutePoint
  // call in ProxyAdmit; the walk then only registers them. Scans, fused
  // failures, and unfused stragglers (anything admitted after a scan,
  // plus background refresh fetches) resolve or settle here, in
  // admission order.
  if (ctx.node_batches.size() < sim.nodes_.size()) {
    ctx.node_batches.resize(sim.nodes_.size());
  }
  auto& batches = ctx.node_batches;
  // Last tick's scan sub-requests were moved into the nodes by its
  // RouteSubmit pass; reclaim the slots.
  sim.scan_sub_scratch_.clear();
  // Forwards arrive in per-tenant runs (traffic slots are tenant-id
  // ordered; injected forwards are batched per tenant), so memoizing the
  // last runtime lookup turns the per-forward map find into a branch.
  TenantId memo_tid = 0;
  TenantRuntime* memo_rt = nullptr;
  auto route_one = [&](PendingForward& fwd) {
    NodeRequest& req = fwd.request;
    TenantRuntime* rt;
    if (memo_rt != nullptr && fwd.ctx.tenant == memo_tid) {
      rt = memo_rt;
    } else {
      auto tit = sim.tenants_.find(fwd.ctx.tenant);
      rt = tit != sim.tenants_.end() ? &tit->second : nullptr;
      memo_tid = fwd.ctx.tenant;
      memo_rt = rt;
      // Serial pass: mark the tenant touched — redirects and routing
      // errors below mutate its tick metrics, and the active-set
      // Finalize only seals touched tenants. Idempotent per tick.
      if (rt != nullptr) sim.TouchTenant(fwd.ctx.tenant, *rt);
    }
    // Scans target a key RANGE: hash partitioning scatters any range
    // across every partition, so the forward expands into one leg per
    // partition (sim.RouteScanFanout) instead of resolving one primary.
    if (req.op == OpType::kScan) {
      if (rt == nullptr) {
        if (fwd.ctx.track_outcome) {
          sim.PublishOutcome(
              req.req_id,
              ClientOutcome{Status::Unavailable("no such tenant"), ""});
        }
        return;
      }
      sim.RouteScanFanout(fwd, *rt, batches);
      return;
    }
    // Point forwards the admit pass left unresolved (background refresh
    // fetches, anything admitted after a scan) resolve now; a fused
    // failure is not retried.
    if (fwd.ctx.node == kInvalidNode && rt != nullptr &&
        !fwd.ctx.route_failed) {
      sim.RoutePoint(*rt, fwd, sim.Current(*rt));
    }
    if (fwd.ctx.node == kInvalidNode) {
      // Settlement of a failed resolve (fused or here) happens at the
      // forward's position in admission order.
      if (req.background_refresh) return;  // Refresh silently dropped.
      if (rt != nullptr) {
        TenantTickMetrics& cur = sim.Current(*rt);
        cur.errors++;
        cur.unavailable++;
        // The proxy admitted this forward; refund its quota estimate.
        if (fwd.ctx.proxy_index < rt->proxies.size()) {
          rt->proxies[fwd.ctx.proxy_index]->AbandonForward(req.req_id);
        }
      }
      if (fwd.ctx.track_outcome) {
        sim.PublishOutcome(req.req_id,
                           ClientOutcome{Status::Unavailable("no primary"), ""});
      }
      return;
    }
    sim.inflight_[req.req_id] = fwd.ctx;
    // Node ids are dense (assigned by the sim in creation order), so the
    // id indexes the batch table directly.
    assert(static_cast<size_t>(fwd.ctx.node) < batches.size());
    batches[static_cast<size_t>(fwd.ctx.node)].push_back(&req);
  };
  // Generated forwards live in their traffic slots (tenant-id order —
  // the legacy merge order), then injected forwards and background
  // refresh fetches in ctx.forwards.
  for (TickContext::TenantTraffic& tt : ctx.traffic) {
    for (PendingForward& fwd : tt.forwards) route_one(fwd);
  }
  for (PendingForward& fwd : ctx.forwards) route_one(fwd);

  // Parallel pass: submission — partition-quota admission and WFQ
  // enqueue — touches only the destination node's state. Each node sees
  // its requests in the same order as a serial walk of ctx.forwards.
  // DataNode::Submit copy-assigns each request's fields into a recycled
  // slab slot (reusing the slot's string capacity); the forward keeps
  // its own buffers for reuse next tick.
  sim.executor_->MorselFor(
      "RouteSubmit", batches.size(), 1,
      [&sim, &batches](size_t begin, size_t end, int) {
        for (size_t i = begin; i < end; i++) {
          node::DataNode* n = sim.nodes_[i].get();
          assert(static_cast<size_t>(n->id()) == i);
          for (NodeRequest* req : batches[i]) {
            n->Submit(*req);
          }
        }
      });
}

// ---------------------------------------------------------------------------
// NodeSchedule
// ---------------------------------------------------------------------------

void NodeScheduleStage::Run(TickContext& ctx) {
  ClusterSim& sim = *sim_;
  auto& nodes = sim.nodes_;
  // DataNodes share no mutable state between Submit() and SwapResponses()
  // (each owns its cache, disk, WFQ, and engines; the clock is read-only
  // within a tick), so their ticks run concurrently.
  sim.executor_->MorselFor(
      "NodeTick", nodes.size(), 1, [&nodes](size_t begin, size_t end, int) {
        for (size_t i = begin; i < end; i++) nodes[i]->Tick();
      });
  // Deterministic merge: responses drain in node-id order, so downstream
  // settlement — and every floating-point metric sum — is independent of
  // worker count and scheduling. Each node's buffer is swapped out O(1);
  // the (cleared) per-node context buffer it gets back carries last
  // tick's capacity forward.
  if (ctx.responses.size() < nodes.size()) ctx.responses.resize(nodes.size());
  for (size_t i = 0; i < nodes.size(); i++) {
    nodes[i]->SwapResponses(ctx.responses[i]);
  }
}

// ---------------------------------------------------------------------------
// Replicate
// ---------------------------------------------------------------------------

bool ReplicateStage::ShipTenantStreams(ClusterSim& sim, TenantId tid,
                                       int lag) {
  auto& batches = batches_;
  const meta::TenantMeta* tm = sim.meta_->GetTenant(tid);
  if (tm == nullptr) return true;
  // An online split that has not cut over yet holds each parent p's
  // logs at parents[p].hold_seq; erasing the split releases them all.
  auto split = sim.active_splits_.find(tid);
  const ClusterSim::SplitOp* holding =
      split != sim.active_splits_.end() && !split->second.cut_over
          ? &split->second
          : nullptr;
  bool all_quiescent = true;
  for (PartitionId p = 0;
       p < static_cast<PartitionId>(tm->partitions.size()); p++) {
    const auto& reps = tm->partitions[p].replicas;
    node::DataNode* pn =
        reps.empty() ? nullptr : sim.MutableNode(reps[0]);
    if (pn == nullptr || !pn->CanServe() || !pn->IsPrimaryFor(tid, p)) {
      // Primary dark: the stream head is frozen. Quiescent for the
      // active-set walk too — every path out of darkness re-activates
      // the tenant: promotion and failback are node-level epoch bumps
      // (the whole registry re-enters), and recovery's resync hook
      // re-enters every tenant the node hosts.
      continue;
    }
    storage::LsmEngine* src = pn->EngineFor(tid, p);
    if (src == nullptr) continue;
    const uint64_t cur = src->applied_seq();
    // Until the cutover the committed partitions are the split's parents.
    assert(holding == nullptr || p < holding->parents.size());
    const bool held = holding != nullptr;
    if (held) all_quiescent = false;  // Split windows move under the walk.
    const uint64_t hold = held ? holding->parents[p].hold_seq : UINT64_MAX;
    if (reps.size() < 2) {
      // No replica will ever pull this stream; keep the log empty so a
      // replicas=1 tenant does not grow memory with every write. A
      // replica added later is seeded by snapshot anyway. An active
      // online split still holds the log at its window start — the
      // cutover replays it.
      src->TruncateReplLogThrough(std::min(cur, hold));
      continue;
    }

    // Replica cursors first: they seed a freshly tracked stream's
    // history and bound the log truncation below.
    struct ReplicaCursor {
      node::DataNode* node = nullptr;
      storage::LsmEngine* engine = nullptr;
      uint64_t applied = 0;
    };
    // Replication factors are small (2-3); inline storage keeps the
    // per-partition pass off the heap.
    SmallVec<ReplicaCursor, 8> cursors;
    uint64_t min_cursor = cur;
    for (size_t r = 1; r < reps.size(); r++) {
      node::DataNode* rn = sim.MutableNode(reps[r]);
      if (rn == nullptr) continue;
      storage::LsmEngine* re = rn->EngineFor(tid, p);
      if (re == nullptr) continue;
      cursors.push_back(ReplicaCursor{rn, re, re->applied_seq()});
      min_cursor = std::min(min_cursor, cursors.back().applied);
    }

    ClusterSim::ReplState& st =
        sim.repl_state_[ClusterSim::PartitionKey(tid, p)];
    const bool primary_stable = st.primary == reps[0];
    if (st.primary != reps[0]) {
      // Promotion or failback moved the stream head: the old
      // primary's acked-seq history must not gate the new primary's
      // (reused) sequence numbers, or its fresh writes would ship
      // with collapsed lag. Reseed below as for a new stream.
      st.acked_history.clear();
      st.primary = reps[0];
    }
    if (st.acked_history.empty()) {
      // First sighting of this stream (or a fresh primary): what the
      // replicas already hold counts as shipped; everything
      // acknowledged from here on waits the full configured lag.
      // Without this seeding the not-yet-full history would ship a
      // young stream's writes with effectively zero lag.
      for (int i = 0; i < lag; i++) st.acked_history.push_back(min_cursor);
    }
    st.acked_history.push_back(cur);
    while (st.acked_history.size() > static_cast<size_t>(lag) + 1) {
      std::move(st.acked_history.begin() + 1, st.acked_history.end(),
                st.acked_history.begin());
      st.acked_history.pop_back();
    }
    // A promotion can rewind the stream head (the new primary applied
    // less than the old one acknowledged); clamp the floor to it.
    const uint64_t floor = std::min(st.acked_history[0], cur);
    st.prev_primary_applied = st.primary_applied;
    st.primary_applied = cur;

    SmallVec<storage::LsmEngine*, 8> replica_engines;
    for (const ReplicaCursor& rc : cursors) {
      replica_engines.push_back(rc.engine);
      // Down replicas hold the log open (min_cursor above) and catch
      // up through the recovery resync path instead.
      if (!rc.node->CanServe() || rc.applied >= floor) continue;
      Shipment sh;
      sh.tenant = tid;
      sh.partition = p;
      sh.src = src;
      sh.after = rc.applied;
      sh.through = floor;
      sh.snapshot = !src->repl_log().Covers(rc.applied);
      assert(static_cast<size_t>(rc.node->id()) < batches.size());
      batches[static_cast<size_t>(rc.node->id())].push_back(sh);
    }
    // Every retained record above min(min_cursor, floor) may still be
    // needed by this tick's shipments or a recovering replica. The
    // same bound truncates the replicas' own logs (they re-append
    // every applied record so a promoted replica can serve the
    // stream): records the whole placement has applied are dead
    // weight on every copy. An active online split additionally holds
    // every copy's log at its streaming-window start, so the cutover
    // can replay the window no matter which replica is primary by
    // then. Serial pass: safe to mutate here.
    const uint64_t trunc = std::min({min_cursor, floor, hold});
    src->TruncateReplLogThrough(trunc);
    for (storage::LsmEngine* re : replica_engines) {
      re->TruncateReplLogThrough(trunc);
    }

    // Quiescence: a revisit is a state no-op only when the stream head
    // did not just move under us (stable primary), every configured
    // replica is tracked and fully caught up, and the whole acked
    // history already sits at the head (so push/trim/floor/truncate all
    // repeat verbatim). Any later write reaches this walk as a node
    // response before it runs; everything else bumps the epoch.
    bool settled = primary_stable && !held &&
                   cursors.size() == reps.size() - 1 && min_cursor == cur;
    if (settled) {
      for (uint64_t acked : st.acked_history) {
        if (acked != cur) {
          settled = false;
          break;
        }
      }
    }
    if (!settled) all_quiescent = false;
  }
  return all_quiescent;
}

void ReplicateStage::Run(TickContext& ctx) {
  ClusterSim& sim = *sim_;
  const int lag = std::max(0, sim.options_.replication_lag_ticks);

  if (batches_.size() < sim.nodes_.size()) batches_.resize(sim.nodes_.size());
  for (auto& b : batches_) b.clear();
  auto& batches = batches_;

  // Serial pass, (tenant, partition) order: advance each stream's
  // acked-seq history, derive the shipping floor under the configured
  // lag, batch per destination node, and truncate the primary's log
  // below the slowest replica cursor.
  //
  // Only the work list repl_active_ (ascending tenant id) is walked. It
  // is conservative: whenever the routing epoch moved it gains every
  // tenant whose placement changed (creation, migration, split,
  // re-replication) — or the full tenant map after a node-level event
  // (failure, promotion, failback), whose tenant set the MetaServer does
  // not record — and it gains every tenant with a data-plane response
  // this tick (NodeSchedule already ran, so a write that advanced a
  // primary's applied seq has its response in ctx.responses here). A
  // proven-quiescent tenant whose placement did not change would revisit
  // as a state no-op. Tenants drain from the list once every stream
  // proves quiescent.
  if (sim.repl_seen_epoch_ != sim.meta_->routing_epoch()) {
    sim.repl_seen_epoch_ = sim.meta_->routing_epoch();
    std::vector<TenantId> changed;
    if (sim.meta_->TakePlacementChanges(&changed)) {
      for (TenantId tid : changed) {
        if (sim.tenant_index_.Find(tid) != nullptr) {
          sim.repl_active_.insert(tid);
        }
      }
    } else {
      for (const auto& [tid, rt] : sim.tenants_) {
        (void)rt;
        sim.repl_active_.insert(tid);
      }
    }
  }
  for (const auto& node_responses : ctx.responses) {
    for (const NodeResponse& resp : node_responses) {
      sim.repl_active_.insert(resp.tenant);
    }
  }
  for (auto it = sim.repl_active_.begin(); it != sim.repl_active_.end();) {
    if (ShipTenantStreams(sim, *it, lag)) {
      it = sim.repl_active_.erase(it);
    } else {
      ++it;
    }
  }

  // Parallel pass: each node applies only the streams addressed to it
  // (its own replica engines); the source primary logs are read-only
  // here, so the fan-out is race-free and node-id-ordered batches keep
  // it bit-identical across worker counts.
  sim.executor_->MorselFor(
      "ReplApply", batches.size(), 1,
      [&sim, &batches](size_t begin, size_t end, int) {
        for (size_t i = begin; i < end; i++) {
          node::DataNode* n = sim.nodes_[i].get();
          for (const Shipment& sh : batches[i]) {
            if (sh.snapshot) {
              n->ResyncReplica(sh.tenant, sh.partition, *sh.src);
              continue;
            }
            n->ApplyLogDelta(sh.tenant, sh.partition, *sh.src, sh.after,
                             sh.through);
          }
        }
      });
}

// ---------------------------------------------------------------------------
// Settle
// ---------------------------------------------------------------------------

void SettleStage::Run(TickContext& ctx) {
  ClusterSim& sim = *sim_;
  if (sim.options_.latency.enabled) {
    // Timed path: virtual completion times, (virtual_time, req_id)
    // delivery order, hedging, gray/SLO signals.
    sim.SettleWithTiming(ctx);
  } else {
    // Legacy path: node-id drain order, bit-identical to the seed.
    for (const auto& node_responses : ctx.responses) {
      for (const NodeResponse& resp : node_responses) {
        sim.DeliverResponse(resp);
      }
    }
  }

  // Asynchronous proxy traffic control.
  sim.tick_count_++;
  if (sim.options_.meta_report_interval_ticks > 0 &&
      sim.tick_count_ % static_cast<uint64_t>(
                            sim.options_.meta_report_interval_ticks) ==
          0) {
    double interval_sec =
        static_cast<double>(sim.options_.meta_report_interval_ticks) *
        static_cast<double>(sim.options_.tick) /
        static_cast<double>(kMicrosPerSecond);
    // Active-set report: tenants untouched since the last report
    // admitted nothing, so their report would be 0 RU/s — a no-op for
    // an unclamped tenant (the MetaServer's traffic monitor is
    // stateless per report and SetClamped(false) on an unclamped
    // proxy is idempotent). Clamped tenants must keep reporting: the
    // zero report is exactly what un-clamps them. The union iterates
    // in ascending tenant id, the MetaServer's report order.
    const std::vector<TenantId>& visit =
        sim.SortedUnion(sim.report_touched_, sim.clamped_tenants_);
    sim.clamped_tenants_.clear();
    for (TenantId tid : visit) {
      TenantRuntime** slot = sim.tenant_index_.Find(tid);
      if (slot == nullptr) continue;
      TenantRuntime& rt = **slot;
      double total = 0;
      for (auto& p : rt.proxies) total += p->ReportAndResetAdmittedRu();
      bool clamp = sim.meta_->ReportProxyTraffic(tid, total / interval_sec);
      for (auto& p : rt.proxies) p->SetClamped(clamp);
      if (clamp) sim.clamped_tenants_.push_back(tid);
    }
    sim.report_touched_.clear();
    sim.report_epoch_++;
  }

  sim.SweepExpiredOutcomes();
  sim.FinalizeTickMetrics();
  sim.clock_.Advance(sim.options_.tick);
}

// ---------------------------------------------------------------------------
// Control
// ---------------------------------------------------------------------------

void ControlStage::Run(TickContext&) {
  ClusterSim& sim = *sim_;
  const SimOptions& opt = sim.options_;

  // In-flight background data movement advances every tick, whatever
  // the decision cadence: split streaming / cutover / purge, then the
  // queued migration copies.
  if (!sim.active_splits_.empty()) sim.AdvanceSplits();
  if (!sim.migration_queue_.empty()) sim.AdvanceMigrations();

  // Decision loops. tick_count_ was already advanced by Settle, so an
  // interval of N fires first at the Nth tick.
  if (opt.control_interval_ticks > 0) {
    sim.AccumulateControlUsage();
    if (sim.tick_count_ %
            static_cast<uint64_t>(opt.control_interval_ticks) ==
        0) {
      sim.RunAutoscalers();
    }
  }
  if (opt.resched_interval_ticks > 0 &&
      sim.tick_count_ % static_cast<uint64_t>(opt.resched_interval_ticks) ==
          0) {
    sim.PlanRescheduling();
  }
}

// ---------------------------------------------------------------------------
// TickPipeline
// ---------------------------------------------------------------------------

TickPipeline::TickPipeline(ClusterSim* sim, FailureDomain* faults) {
  stages_.push_back(std::make_unique<FaultStage>(faults));
  stages_.push_back(std::make_unique<GenerateStage>(sim));
  stages_.push_back(std::make_unique<ProxyAdmitStage>(sim));
  stages_.push_back(std::make_unique<RouteStage>(sim));
  stages_.push_back(std::make_unique<NodeScheduleStage>(sim));
  stages_.push_back(std::make_unique<ReplicateStage>(sim));
  stages_.push_back(std::make_unique<SettleStage>(sim));
  stages_.push_back(std::make_unique<ControlStage>(sim));
}

void TickPipeline::RunTick() {
  ctx_.Reset();
  if (stage_timing_) {
    if (stage_nanos_.size() < stages_.size()) {
      stage_nanos_.resize(stages_.size(), 0);
    }
    for (size_t i = 0; i < stages_.size(); i++) {
      TraceSpan span(trace_, stages_[i]->name(), 0);
      auto t0 = std::chrono::steady_clock::now();
      stages_[i]->Run(ctx_);
      auto t1 = std::chrono::steady_clock::now();
      stage_nanos_[i] += static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
              .count());
    }
    return;
  }
  for (auto& stage : stages_) {
    TraceSpan span(trace_, stage->name(), 0);
    stage->Run(ctx_);
  }
}

}  // namespace sim
}  // namespace abase
