// The timed half of the Settle stage (latency subsystem) plus the gray-
// failure application path and the latency-facing public API. Split out
// of cluster_sim.cc: everything here is inert unless
// SimOptions::latency.enabled.
//
// Virtual-time composition per response (DESIGN.md "Sub-tick timing
// model"):
//
//   vt = node service latency                 (sampled base + WFQ
//        (NodeResponse::latency)               queueing factor + whole
//                                              backlog ticks + disk)
//      + RTT(proxy AZ, node AZ)               (same-AZ or cross-AZ class)
//      hedge-adjusted: min(vt, threshold + alt service + alt RTT)
//
// Delivery happens in ascending (vt, req_id) order — a total order that
// does not depend on node iteration, so the same tick settles
// identically at 1, 2, or 4 data-plane workers (golden-digest enforced).
#include <algorithm>

#include "latency/options.h"
#include "sim/cluster_sim.h"

namespace abase {
namespace sim {

uint32_t ClusterSim::ProxyAzOf(const RequestContext& ctx) const {
  const TenantRuntime* rt = Tenant(ctx.tenant);
  if (rt == nullptr || ctx.proxy_index >= rt->proxies.size()) return 0;
  return rt->proxies[ctx.proxy_index]->az();
}

node::DataNode* ClusterSim::PickHedgeReplica(const TenantRuntime& rt,
                                             TenantId tenant,
                                             PartitionId partition,
                                             NodeId primary_leg) {
  if (partition >= rt.route_table.size()) return nullptr;
  const std::vector<NodeId>& reps = rt.route_table[partition];
  node::DataNode* gray_fallback = nullptr;
  for (NodeId id : reps) {
    if (id == primary_leg) continue;
    node::DataNode* n = MutableNode(id);
    if (n == nullptr || !n->CanServe() || !n->HasReplica(tenant, partition)) {
      continue;
    }
    // Hedging exists to dodge slow nodes; prefer a healthy alternate and
    // fall back to a gray one only when nothing else can serve.
    if (gray_detector_.IsGray(id)) {
      if (gray_fallback == nullptr) gray_fallback = n;
      continue;
    }
    return n;
  }
  return gray_fallback;
}

void ClusterSim::SettleWithTiming(TickContext& ctx) {
  const latency::LatencyOptions& lopt = options_.latency;
  timed_scratch_.clear();
  if (gray_latency_sum_.size() < nodes_.size()) {
    gray_latency_sum_.resize(nodes_.size(), 0);
    gray_latency_count_.resize(nodes_.size(), 0);
  }
  std::fill(gray_latency_sum_.begin(), gray_latency_sum_.end(), 0);
  std::fill(gray_latency_count_.begin(), gray_latency_count_.end(), 0);

  // Pass 1 (node-id order): stamp every response with its virtual
  // completion time and evaluate hedges against the tenant thresholds
  // frozen at the last tick boundary. inflight_ is only peeked here —
  // DeliverResponse below still owns the erase.
  for (uint32_t ni = 0; ni < ctx.responses.size(); ni++) {
    const std::vector<NodeResponse>& node_responses = ctx.responses[ni];
    if (node_responses.empty()) continue;
    const node::DataNode* serving =
        ni < nodes_.size() ? nodes_[ni].get() : nullptr;
    const uint32_t node_az = serving != nullptr ? serving->az() : 0;
    for (uint32_t ri = 0; ri < node_responses.size(); ri++) {
      const NodeResponse& resp = node_responses[ri];
      TimedResponse tr;
      tr.req_id = resp.req_id;
      tr.node_index = ni;
      tr.resp_index = ri;

      TenantId tenant = resp.tenant;
      uint32_t proxy_az = 0;
      NodeId hedge_node = kInvalidNode;
      if (const RequestContext* inf = inflight_.Find(resp.req_id)) {
        tenant = inf->tenant;
        proxy_az = ProxyAzOf(*inf);
        hedge_node = inf->hedge_node;
      }
      const bool served_ok = resp.status.ok() || resp.status.IsNotFound();
      tr.timing.client_latency =
          resp.latency + latency::RttBetween(lopt.rtt, proxy_az, node_az);

      // Gray signal: node-side served latency of client-visible
      // completions (integer sums — accumulation order free).
      if (serving != nullptr && served_ok && !resp.background_refresh) {
        gray_latency_sum_[ni] += static_cast<uint64_t>(resp.latency);
        gray_latency_count_[ni]++;
      }

      // Hedge: armed by Route (hedge_node), fired when the primary leg's
      // virtual time crosses the tenant's frozen threshold. The
      // alternate leg is priced analytically — the same stateless draw
      // the alternate node would have charged for this req_id — so the
      // race resolves without a second trip through the data plane.
      if (hedge_node != kInvalidNode && served_ok) {
        if (TenantRuntime* rt = MutableTenant(tenant)) {
          const Micros threshold =
              rt->lazy_or_default().hedger.threshold();
          if (threshold > 0 && tr.timing.client_latency > threshold) {
            node::DataNode* alt = MutableNode(hedge_node);
            const bool alt_ok = alt != nullptr && alt->CanServe() &&
                                alt->HasReplica(tenant, resp.partition);
            Micros alt_vt = 0;
            if (alt_ok) {
              alt_vt = alt->SampleServiceMicros(tenant, resp.req_id) +
                       latency::RttBetween(lopt.rtt, proxy_az, alt->az());
            }
            const latency::HedgeDecision d = latency::EvaluateHedge(
                threshold, tr.timing.client_latency, alt_ok, alt_vt,
                resp.actual_ru);
            tr.timing.hedged = d.hedged;
            tr.timing.hedge_won = d.hedge_won;
            tr.timing.extra_ru = d.extra_ru;
            tr.timing.client_latency = d.effective_micros;
          }
        }
      }
      tr.virtual_time = tr.timing.client_latency;
      timed_scratch_.push_back(tr);
    }
  }

  // Pass 2: deliver in (virtual_time, req_id) order — the sub-tick
  // completion order. req_id breaks ties totally (ids are unique), so
  // the sort needs no stability guarantee.
  std::sort(timed_scratch_.begin(), timed_scratch_.end(),
            [](const TimedResponse& a, const TimedResponse& b) {
              if (a.virtual_time != b.virtual_time) {
                return a.virtual_time < b.virtual_time;
              }
              return a.req_id < b.req_id;
            });
  for (const TimedResponse& tr : timed_scratch_) {
    DeliverResponse(ctx.responses[tr.node_index][tr.resp_index], &tr.timing);
  }

  // Tick boundary: feed the gray detector (replica selection reads its
  // gray set from the next tick on) and refreeze each tenant's hedge
  // threshold.
  if (lopt.gray.enabled) {
    for (size_t i = 0; i < nodes_.size(); i++) {
      gray_detector_.ObserveTick(static_cast<NodeId>(i),
                                 gray_latency_sum_[i],
                                 gray_latency_count_[i]);
    }
    gray_detector_.Evaluate();
  }
  // Hedge-threshold refreeze. A hedger that never observed a sample has
  // an all-zero histogram (Decay is a fixpoint) and a threshold pinned
  // at 0, so only tenants that ever fed one are visited — once
  // observed, a tenant decays forever (the set never shrinks).
  for (TenantId tid : hedge_observed_) {
    if (TenantRuntime** slot = tenant_index_.Find(tid)) {
      MutableLazy(**slot).hedger.EndTick();
    }
  }
}

void ClusterSim::DegradeNode(NodeId node, double factor) {
  if (node::DataNode* n = MutableNode(node)) n->SetServiceDegradation(factor);
}

double ClusterSim::SloBurnRate(TenantId tenant, size_t window_ticks) const {
  const TenantRuntime* rt = Tenant(tenant);
  if (rt == nullptr) return 0;
  // Histories backfill lazily; materialize the untouched ticks' all-zero
  // rows so the window ends at the current tick.
  SyncHistory(const_cast<TenantRuntime&>(*rt));
  if (rt->history.empty() || window_ticks == 0) return 0;
  const size_t begin =
      rt->history.size() > window_ticks ? rt->history.size() - window_ticks
                                        : 0;
  uint64_t violations = 0;
  uint64_t settled = 0;
  for (size_t i = begin; i < rt->history.size(); i++) {
    violations += rt->history[i].slo_violations;
    settled += rt->history[i].latency_count;
  }
  if (settled == 0) return 0;
  const double budget = 1.0 - options_.latency.slo_objective;
  if (budget <= 0) return 0;
  return (static_cast<double>(violations) / static_cast<double>(settled)) /
         budget;
}

}  // namespace sim
}  // namespace abase
