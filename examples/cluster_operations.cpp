// Operator's tour (paper Sections 3.3, 5.3, 7): capacity planning with
// the Section 7 rules, a live mid-run primary failure (kill -> observe
// the Unavailable/redirect window -> recover -> steady state), permanent
// node loss with parallel rebuild, a live rescheduling round, and a
// pipelined multi-client session through the asynchronous command API —
// the day-2 operations of an ABase deployment.
#include <cstdio>
#include <vector>

#include "core/abase.h"
#include "meta/capacity_planner.h"
#include "resched/rescheduler.h"

using namespace abase;

int main() {
  std::printf("=== Cluster operations demo ===\n\n");

  // --- 1. Capacity planning (Section 7 lessons) ---------------------------
  meta::CapacityPlanner planner;
  std::vector<double> tenant_quotas = {40000, 25000, 25000, 10000, 8000};
  double node_ru = 12000;
  auto nodes_needed = planner.RequiredNodes(tenant_quotas, node_ru);
  if (!nodes_needed.ok()) return 1;
  std::printf("Capacity plan for 5 tenants (largest quota 40k RU/s):\n");
  std::printf("  nodes required: %zu x %.0f RU/s\n", nodes_needed.value(),
              node_ru);
  std::printf("  rules enforced: pool >= 10x largest tenant; >= 20%% idle; "
              "burst headroom >= largest tenant\n\n");

  // --- 2. Deploy and onboard ----------------------------------------------
  ClusterOptions copts;
  copts.sim.node.wfq.cpu_budget_ru = node_ru;
  copts.sim.node.ru_capacity = node_ru;
  // Replicas apply each primary's write stream two ticks behind the
  // acknowledgements (section 7 reads through that staleness window).
  copts.sim.replication_lag_ticks = 2;
  Cluster cluster(copts);
  PoolId pool = cluster.CreatePool(nodes_needed.value());

  for (size_t i = 0; i < tenant_quotas.size(); i++) {
    meta::TenantConfig cfg;
    cfg.id = static_cast<TenantId>(i + 1);
    cfg.name = "prod-tenant" + std::to_string(i + 1);
    cfg.tenant_quota_ru = tenant_quotas[i];
    cfg.num_partitions = 6;
    cfg.num_proxies = 4;
    cfg.num_proxy_groups = 2;
    if (!cluster.CreateTenant(cfg, pool).ok()) return 1;
    sim::WorkloadProfile p;
    p.base_qps = tenant_quotas[i] / 20.0;
    p.read_ratio = 0.7;
    p.zipf_theta = 0.95;
    p.num_keys = 4000;
    cluster.AttachWorkload(cfg.id, p);
  }
  cluster.RunTicks(15);
  std::printf("Cluster serving %zu tenants across %zu nodes.\n\n",
              tenant_quotas.size(),
              cluster.sim().nodes().size());

  // Audit the live pool against the rules.
  meta::PoolSnapshot snapshot;
  snapshot.node_count = cluster.sim().nodes().size();
  snapshot.node_capacity_ru = node_ru;
  snapshot.tenant_quotas_ru = tenant_quotas;
  auto violations = planner.Audit(snapshot);
  std::printf("Capacity audit: %s\n",
              violations.empty() ? "HEALTHY (all Section-7 rules hold)"
                                 : "VIOLATIONS FOUND");
  for (const auto& v : violations) {
    std::printf("  [%s] %s\n", meta::CapacityRuleName(v.rule),
                v.detail.c_str());
  }
  std::printf("Max admissible new-tenant quota right now: %.0f RU/s\n\n",
              planner.MaxAdmissibleTenantQuota(snapshot));

  // --- 3. Live failover: kill a primary mid-run (Section 3.3) -------------
  // The fault API crashes the node at the next tick boundary: stranded
  // requests resolve Unavailable, the failure detector promotes surviving
  // replicas (routing epoch bump -> proxies chase redirects), and after
  // WAL catch-up the node rejoins and takes its primaries back.
  TenantId watched = 1;
  NodeId live_victim = cluster.meta().PrimaryFor(watched, 0);
  size_t mark = cluster.sim().History(watched).size();
  uint64_t epoch0 = cluster.RoutingEpoch();

  std::printf("Killing node %u (primary of tenant %u / partition 0) "
              "mid-run...\n", live_victim, watched);
  cluster.FailNode(live_victim);
  cluster.RunTicks(4);  // Failure lands, detector fires, replicas promote.
  std::printf("  routing epoch %llu -> %llu; %zu primaries promoted, "
              "%zu re-replication targets planned\n",
              static_cast<unsigned long long>(epoch0),
              static_cast<unsigned long long>(cluster.RoutingEpoch()),
              cluster.sim().LastFailoverReport()
                  ? cluster.sim().LastFailoverReport()->primaries_promoted
                  : 0,
              cluster.sim().LastFailoverReport()
                  ? cluster.sim()
                        .LastFailoverReport()->re_replication_targets.size()
                  : 0);

  cluster.RecoverNode(live_victim, /*catch_up_ticks=*/2);
  cluster.RunTicks(1);  // Recovery lands: WAL replayed, catch-up begins.
  std::printf("  node %u mid catch-up: state=%s\n", live_victim,
              node::NodeStateName(cluster.sim().FindNode(live_victim)->state()));
  cluster.RunTicks(5);  // Catch-up completes, failback, steady state.

  std::printf("  tenant %u per-tick view across the event "
              "(ok / unavailable / redirects):\n", watched);
  const auto& hist = cluster.sim().History(watched);
  for (size_t i = mark; i < hist.size(); i++) {
    std::printf("    tick %2zu: %5llu ok  %4llu unavailable  %3llu "
                "redirects\n", i - mark,
                static_cast<unsigned long long>(hist[i].ok),
                static_cast<unsigned long long>(hist[i].unavailable),
                static_cast<unsigned long long>(hist[i].redirects));
  }
  std::printf("  node %u recovered and leads partition 0 again: %s\n\n",
              live_victim,
              cluster.meta().PrimaryFor(watched, 0) == live_victim ? "yes"
                                                                   : "no");

  // --- 4. Node loss: permanent failure + parallel rebuild -----------------
  // A node that fails and never recovers: after the detection delay the
  // survivors are promoted, and after the grace period every replica it
  // hosted is rebuilt on the surviving nodes, many in parallel.
  NodeId victim = cluster.sim().nodes()[0]->id();
  cluster.FailNode(victim);
  // The crash lands at the next tick; the detector promotes the
  // survivors and plans the rebuild failover_detection_ticks later.
  cluster.RunTicks(
      static_cast<size_t>(cluster.sim().options().failover_detection_ticks) +
      1);
  for (int i = 0; i < 200 && cluster.sim().PendingRebuildCount() > 0; i++) {
    cluster.Step();  // Service continues on the survivors meanwhile.
  }
  if (const auto& report = cluster.sim().LastFailoverReport()) {
    std::printf("Node %u lost for good. Recovery report:\n", victim);
    std::printf("  replicas rebuilt: %zu of %zu (%.1f MB) across %zu target "
                "nodes in parallel\n",
                report->replicas_rebuilt_executed, report->replicas_rebuilt,
                report->bytes_rebuilt / 1e6, report->parallel_sources);
    std::printf("  parallel rebuild: %.2f ms vs single replacement node: "
                "%.2f ms (%.1fx faster)\n\n",
                report->parallel_recovery_seconds * 1e3,
                report->single_node_recovery_seconds * 1e3,
                report->single_node_recovery_seconds /
                    std::max(1e-9, report->parallel_recovery_seconds));
  }

  // --- 5. A rescheduling round (Section 5.3) ------------------------------
  resched::PoolModel model = cluster.sim().BuildPoolModel(pool);
  std::printf("Pool load before rescheduling: RU stddev=%.4f max=%.3f\n",
              model.UtilizationStddev(resched::Resource::kRu),
              model.MaxUtilization(resched::Resource::kRu));
  size_t applied = cluster.RunRescheduling(pool);
  resched::PoolModel after = cluster.sim().BuildPoolModel(pool);
  std::printf("After one round (%zu migrations):  RU stddev=%.4f max=%.3f\n",
              applied, after.UtilizationStddev(resched::Resource::kRu),
              after.MaxUtilization(resched::Resource::kRu));

  // --- 6. Pipelined multi-client session (async command API) --------------
  // Eight sessions of tenant 1 each keep 32 commands in flight: Submit
  // enqueues without advancing time, Step()/Drain() resolve futures as
  // ticks settle. A lock-step client would need one tick per request;
  // the pipelined fleet completes hundreds per tick.
  constexpr int kSessions = 8;
  constexpr int kDepth = 32;
  std::vector<Client> sessions;
  for (int s = 0; s < kSessions; s++) sessions.push_back(cluster.OpenClient(1));

  // Seed a small working set, then read it back at full pipeline depth.
  std::vector<Command> seed;
  for (int i = 0; i < kDepth; i++) {
    seed.push_back(Command::Set("op:k" + std::to_string(i),
                                "v" + std::to_string(i)));
  }
  std::vector<Future<Reply>> writes = sessions[0].SubmitBatch(std::move(seed));
  cluster.Drain();
  for (const auto& w : writes) {
    if (!w.ready() || !w->ok()) return 1;
  }

  std::vector<Future<Reply>> reads;
  for (int s = 0; s < kSessions; s++) {
    std::vector<Command> batch;
    for (int d = 0; d < kDepth; d++) {
      batch.push_back(Command::Get("op:k" + std::to_string(d)));
    }
    for (auto& f : sessions[s].SubmitBatch(std::move(batch))) {
      reads.push_back(std::move(f));
    }
  }
  size_t ticks_used = cluster.Drain();
  size_t ok = 0;
  uint64_t max_latency_ticks = 0;
  for (const auto& f : reads) {
    if (f.ready() && f->ok()) {
      ok++;
      if (f->LatencyTicks() > max_latency_ticks) {
        max_latency_ticks = f->LatencyTicks();
      }
    }
  }
  std::printf(
      "\nPipelined session: %d clients x %d commands in flight -> %zu/%zu "
      "reads served in %zu tick(s) (max latency %llu tick(s));\n"
      "a lock-step loop would have taken %d ticks.\n",
      kSessions, kDepth, ok, reads.size(), ticks_used,
      static_cast<unsigned long long>(max_latency_ticks),
      kSessions * kDepth);

  // --- 7. Eventual-consistency replica reads ------------------------------
  // GETs carrying Consistency::kEventual round-robin across the
  // partition's alive replicas instead of pinning the primary: the
  // primary sheds read load, and replies may trail the primary by up to
  // replication_lag_ticks of writes. Proxy caching is disabled for the
  // demo so every read shows true engine state.
  std::printf("\n=== Eventual-consistency replica reads (lag = %d ticks) "
              "===\n", copts.sim.replication_lag_ticks);
  cluster.sim().SetProxyCacheEnabled(1, false);
  Client ec = cluster.OpenClient(1);
  {
    auto seed_write = ec.Submit(Command::Set("ec:k", "v0"));
    cluster.Drain();
    if (!seed_write.ready() || !seed_write->ok()) return 1;
  }
  cluster.RunTicks(3);  // Let the seed value replicate everywhere.

  std::printf("  overwriting ec:k every tick while reading it both ways:\n");
  for (int t = 1; t <= 4; t++) {
    auto write = ec.Submit(Command::Set("ec:k", "v" + std::to_string(t)));
    cluster.Step();
    auto primary_read = ec.Submit(Command::Get("ec:k"));
    auto replica_read = ec.Submit(Command::GetEventual("ec:k"));
    cluster.Drain();
    if (!write.ready() || !primary_read.ready() || !replica_read.ready()) {
      return 1;
    }
    bool stale = replica_read->ok() && primary_read->ok() &&
                 replica_read->value != primary_read->value;
    std::printf("    wrote v%d | primary read: %-3s | eventual read: %-3s%s\n",
                t, primary_read->ok() ? primary_read->value.c_str() : "ERR",
                replica_read->ok() ? replica_read->value.c_str() : "ERR",
                stale ? "  <- stale (inside the lag window)" : "");
  }

  // Offload: a read burst spread across the replicas leaves the primary
  // serving only its round-robin share.
  size_t hist_mark = cluster.sim().History(1).size();
  std::vector<Command> burst;
  for (int i = 0; i < 60; i++) burst.push_back(Command::GetEventual("ec:k"));
  std::vector<Future<Reply>> burst_futures = ec.SubmitBatch(std::move(burst));
  cluster.Drain();
  size_t burst_ok = 0;
  for (const auto& f : burst_futures) {
    if (f.ready() && f->ok()) burst_ok++;
  }
  uint64_t replica_reads = 0, replica_lag_sum = 0, reads_completed = 0;
  const auto& ec_hist = cluster.sim().History(1);
  for (size_t i = hist_mark; i < ec_hist.size(); i++) {
    replica_reads += ec_hist[i].replica_reads;
    replica_lag_sum += ec_hist[i].replica_lag_sum;
    reads_completed += ec_hist[i].reads_completed;
  }
  std::printf("  burst of 60 eventual GETs: %zu ok; %llu of %llu completed "
              "data-plane reads served by non-primary replicas\n",
              burst_ok, static_cast<unsigned long long>(replica_reads),
              static_cast<unsigned long long>(reads_completed));
  std::printf("  mean replica staleness over the burst window: %.2f "
              "writes\n",
              replica_reads == 0
                  ? 0.0
                  : static_cast<double>(replica_lag_sum) /
                        static_cast<double>(replica_reads));

  // --- 8. Gray failure: a slow-but-alive node vs hedged reads -------------
  // Crash-stop failures (section 3) are the easy case: the detector sees
  // a dead node and promotes around it. The hard case is the node that
  // still answers — just 8x slower (degraded disk, noisy neighbor). Two
  // identical clusters run the same seed and workload; one gets the
  // latency subsystem's defenses (p95 hedged reads + gray-failure
  // demotion), the other takes the tail on the chin.
  std::printf("\n=== Gray failure: one node turns 8x slow at tick 10 ===\n");
  auto make_timed = [&](bool defended) {
    ClusterOptions topts;
    topts.sim.seed = 1234;
    topts.sim.node.service_time.enabled = true;
    topts.sim.node.service_time.dist = latency::DistKind::kLognormal;
    topts.sim.node.service_time.mean_micros = 150;
    topts.sim.node.service_time.sigma = 1.2;
    topts.sim.latency.enabled = true;
    topts.sim.latency.num_azs = 1;
    topts.sim.latency.hedge.enabled = defended;
    topts.sim.latency.hedge.min_observations = 32;
    topts.sim.latency.gray.enabled = defended;
    topts.sim.latency.gray.min_samples = 2;
    topts.sim.latency.slo_target_micros = 2500;
    return Cluster(topts);
  };
  Cluster naked = make_timed(false);
  Cluster defended = make_timed(true);
  for (Cluster* c : {&naked, &defended}) {
    PoolId gp = c->CreatePool(6);
    meta::TenantConfig cfg;
    cfg.id = 1;
    cfg.name = "gray-demo";
    cfg.tenant_quota_ru = 200000;
    cfg.num_partitions = 8;
    cfg.num_proxies = 4;
    cfg.num_proxy_groups = 2;
    cfg.replicas = 3;
    if (!c->CreateTenant(cfg, gp).ok()) return 1;
    c->sim().SetProxyCacheEnabled(1, false);  // Reads must hit the data plane.
    c->sim().PreloadKeys(1, 500, 256);
    sim::WorkloadProfile w;
    w.base_qps = 300;
    w.read_ratio = 1.0;
    w.eventual_read_fraction = 1.0;
    w.num_keys = 500;
    w.value_bytes = 256;
    c->AttachWorkload(1, w);
  }

  const NodeId slow = naked.meta().PrimaryFor(1, 0);
  std::printf("  tick | p99 undefended | p99 hedged+gray | hedged | gray?\n");
  for (int t = 0; t < 30; t++) {
    if (t == 10) {
      naked.sim().DegradeNode(slow, 8.0);
      defended.sim().DegradeNode(slow, 8.0);
    }
    naked.RunTicks(1);
    defended.RunTicks(1);
    if (t % 3 != 2) continue;  // Every third tick keeps the table short.
    const auto& nm = naked.sim().History(1).back();
    const auto& dm = defended.sim().History(1).back();
    std::printf("  %4d | %11.0fus | %12.0fus | %6llu | %s\n", t,
                nm.latency_p99, dm.latency_p99,
                static_cast<unsigned long long>(dm.hedged_reads),
                defended.sim().IsNodeGray(slow) ? "GRAY (demoted)" : "-");
  }
  std::printf("  node %u stayed 'alive' throughout — no crash, no failover; "
              "the tail was the only symptom.\n"
              "  tenant SLO burn rate (last 10 ticks): undefended %.2f, "
              "defended %.2f (1.0 = burning exactly the error budget)\n",
              slow, naked.sim().SloBurnRate(1, 10),
              defended.sim().SloBurnRate(1, 10));

  std::printf("\ncluster_operations finished.\n");
  return 0;
}
