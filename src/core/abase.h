// Public entry point of the ABase library.
//
// abase::Cluster assembles the full system — control plane (MetaServer,
// Autoscaler, Rescheduler), data plane (resource pools of DataNodes), and
// proxy plane (per-tenant proxy fleets with limited fan-out routing) — on
// top of the deterministic simulator substrate.
//
// The client surface is asynchronous at its core: abase::Client turns
// typed Commands into Future<Reply> handles without advancing simulated
// time, and Cluster::Step() / Drain() run ticks and resolve futures as
// outcomes settle. Any number of clients can keep any number of commands
// in flight across the one shared simulation; the classic synchronous
// Redis-style methods (Get, Set, MGet, ...) remain as thin
// submit-then-drain adapters on top.
//
//   Client a = cluster.OpenClient(1), b = cluster.OpenClient(2);
//   auto f1 = a.Submit(Command::Set("k", "v"));
//   auto batch = b.SubmitBatch({Command::Get("x"), Command::Get("y")});
//   cluster.Drain();              // ticks until every future resolves
//   if (f1.ready() && f1->ok()) { ... }
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "autoscale/autoscaler.h"
#include "common/status.h"
#include "common/types.h"
#include "core/command.h"
#include "core/future.h"
#include "meta/meta_server.h"
#include "sim/cluster_sim.h"

namespace abase {

/// Cluster construction options.
struct ClusterOptions {
  sim::SimOptions sim;
};

class Client;

/// A full ABase deployment.
///
/// Completion model: submitted commands resolve only while simulated time
/// advances — through Step()/Drain() (or RunTicks, which also settles
/// outcomes). All resolution happens on the calling thread, in
/// deterministic order (see DESIGN.md "Asynchronous command API").
class Cluster {
 public:
  explicit Cluster(ClusterOptions options = {});

  /// Outcome subscriptions capture `this`; moving the cluster would
  /// dangle them.
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  /// Creates a resource pool of `num_nodes` DataNodes.
  PoolId CreatePool(size_t num_nodes);

  /// Creates a tenant in `pool`; its proxies use limited fan-out routing.
  Status CreateTenant(const meta::TenantConfig& config, PoolId pool,
                      proxy::RoutingMode mode =
                          proxy::RoutingMode::kLimitedFanout);

  /// Opens a client session bound to one tenant. Each session draws its
  /// request ids from a cluster-allocated sub-space, so any number of
  /// concurrent sessions (up to 2^11 per tenant before slots wrap) share
  /// the in-flight tables without collision.
  Client OpenClient(TenantId tenant);

  /// Attaches a synthetic workload (for load experiments alongside
  /// client usage).
  void AttachWorkload(TenantId tenant, const sim::WorkloadProfile& profile);

  // -- Completion model ------------------------------------------------------

  /// Advances one tick and resolves the futures whose outcomes settled
  /// during it. Returns the number of futures resolved.
  size_t Step();

  /// Steps until every submitted command has resolved, up to `max_ticks`.
  /// Returns the number of ticks run. Commands still pending afterwards
  /// (wedged beyond any sane backlog) remain pending; PendingCommands()
  /// tells how many.
  size_t Drain(size_t max_ticks = 1024);

  /// Commands submitted whose futures have not yet resolved.
  size_t PendingCommands() const { return pending_commands_; }

  /// Advances simulated time by `n` one-second ticks (also resolves
  /// pending futures, like Step, without reporting counts).
  void RunTicks(size_t n) { sim_.RunTicks(n); }

  // -- Fault injection --------------------------------------------------------

  /// Crashes a DataNode, effective at the next tick boundary: queued and
  /// in-flight work on it resolves Unavailable, and after the configured
  /// failure-detection delay surviving replicas are promoted to primary
  /// (clients see a redirect-and-retry blip in TenantTickMetrics).
  void FailNode(NodeId node) { sim_.FailNode(node); }

  /// Starts WAL-replay recovery of a failed node. It spends
  /// `catch_up_ticks` catching up (< 0 sizes it from the log deltas its
  /// replicas must replay, at least 2 ticks), then rejoins and takes
  /// back the primaries it led.
  void RecoverNode(NodeId node, int catch_up_ticks = -1) {
    sim_.RecoverNode(node, catch_up_ticks);
  }

  /// Current routing-table version (bumped by every placement change).
  uint64_t RoutingEpoch() { return sim_.meta().routing_epoch(); }

  // -- Operations ------------------------------------------------------------

  /// Runs one intra-pool rescheduling round (default ReschedOptions)
  /// against live node loads and applies the resulting migrations.
  /// Returns the number applied.
  size_t RunRescheduling(PoolId pool);

  /// Runs the predictive autoscaler for one tenant given an hourly usage
  /// history (RU/s), with the tenant's own scaling policy and forecast
  /// options (ClusterSim::EnableAutoscale; defaults otherwise), and
  /// applies any quota change through ClusterSim::SetTenantQuota. A
  /// partition quota above UP stages an online split, which completes
  /// as ticks run; call again after its cutover to split further.
  Result<autoscale::ScalingDecision> RunAutoscaler(
      TenantId tenant, const TimeSeries& usage_history);

  sim::ClusterSim& sim() { return sim_; }
  const meta::MetaServer& meta() const { return sim_.meta(); }

 private:
  friend class Client;

  /// Registers a completion subscription for `req` and injects it ahead
  /// of the next tick. The shared async core under Client::Submit.
  Future<Reply> SubmitRequest(ClientRequest req);

  /// Abandons a still-pending command (sync adapters time out after a
  /// bounded number of ticks). No-op if it already resolved.
  void AbandonPending(uint64_t req_id);

  sim::ClusterSim sim_;
  /// Next client-session slot per tenant (id sub-space allocation).
  std::map<TenantId, uint64_t> next_client_slot_;
  size_t pending_commands_ = 0;
  size_t resolved_in_step_ = 0;
};

/// A client session bound to one tenant.
///
/// The core is asynchronous: Submit/SubmitBatch enqueue typed Commands
/// and return Future<Reply> handles without advancing time; the cluster's
/// Step()/Drain() resolve them. The synchronous Redis-style methods are
/// adapters that submit and then drain until their own futures resolve —
/// each such call advances the shared simulation by at least one tick,
/// exactly like the historical lock-step client.
///
/// Sessions are movable but not copyable: a copy would clone the id
/// cursor and two cursors over one sub-space collide in the shared
/// in-flight tables. Use OpenClient for independent sessions.
class Client {
 public:
  Client(Cluster* cluster, TenantId tenant, uint64_t session_slot);

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;
  Client(Client&&) = default;
  Client& operator=(Client&&) = default;

  // -- Asynchronous core -----------------------------------------------------

  /// Enqueues one command for the next tick; never advances time.
  Future<Reply> Submit(Command cmd);

  /// Enqueues a batch (the paper's "list of requests" path): all commands
  /// are injected together, so the limited fan-out router spreads them
  /// across proxy groups within one round. Futures in input order.
  std::vector<Future<Reply>> SubmitBatch(std::vector<Command> cmds);

  // -- Synchronous adapters --------------------------------------------------

  Status Set(const std::string& key, const std::string& value,
             Micros ttl = 0);
  Result<std::string> Get(const std::string& key);

  /// Batched GET; per-key results in input order. One batched
  /// submission: every key is injected before any tick runs, so the
  /// whole batch lands in one ProxyAdmit pass and the destination nodes
  /// probe the grouped point reads through the MultiFind morsel path
  /// instead of N independent lookups.
  std::vector<Result<std::string>> MGet(const std::vector<std::string>& keys);

  /// Batched SET; per-key statuses in input order. One batched
  /// submission, like MGet: the whole batch is admitted in a single
  /// ProxyAdmit pass.
  std::vector<Status> MSet(
      const std::vector<std::pair<std::string, std::string>>& pairs);
  Status Del(const std::string& key);
  /// Batched DEL; per-key statuses in input order. Same batched
  /// submission path as MSet.
  std::vector<Status> MDel(const std::vector<std::string>& keys);
  Status HSet(const std::string& key, const std::string& field,
              const std::string& value);
  Result<std::string> HGet(const std::string& key, const std::string& field);
  Result<std::string> HGetAll(const std::string& key);
  Result<uint64_t> HLen(const std::string& key);
  Status Expire(const std::string& key, Micros ttl);

  /// SCAN over [start, end): up to `limit` entries in key order, merged
  /// across every partition (empty `end` = to the last key). Decoded
  /// (key, value) pairs; async callers use Submit(Command::Scan(...))
  /// and Reply::ScanEntries() instead.
  Result<std::vector<std::pair<std::string, std::string>>> Scan(
      const std::string& start, const std::string& end, uint32_t limit = 100);

  /// SCAN of every key starting with `prefix`. Prefix-shaped scans are
  /// the cacheable form: repeats can be served from the proxy's
  /// prefix-tree content store without touching the data plane.
  Result<std::vector<std::pair<std::string, std::string>>> ScanPrefix(
      const std::string& prefix, uint32_t limit = 100);

  TenantId tenant() const { return tenant_; }

 private:
  /// A submitted command: its id (for abandonment) plus its future.
  struct Pending {
    uint64_t req_id = 0;
    Future<Reply> future;
  };

  /// Allocates the next id in this session's sub-space.
  uint64_t NextRequestId();

  Pending SubmitPending(Command cmd);

  /// The batched-submission core under SubmitBatch, MGet, MSet and
  /// MDel: all commands are injected before any tick can run, so the
  /// batch is admitted in one ProxyAdmit pass and point reads reach
  /// the nodes' MultiFind grouped probe together.
  std::vector<Pending> SubmitPendingBatch(std::vector<Command> cmds);

  /// Drains until `p` resolves (bounded); Internal error on timeout.
  Reply Await(const Pending& p);

  /// Drains until all of `pending` resolve (bounded); unresolved entries
  /// get an Internal-error Reply.
  std::vector<Reply> AwaitAll(const std::vector<Pending>& pending);

  Cluster* cluster_;
  TenantId tenant_;
  uint64_t id_base_;  ///< This session's id sub-space (see DESIGN.md).
  uint64_t next_seq_;
};

}  // namespace abase
