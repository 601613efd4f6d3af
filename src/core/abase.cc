#include "core/abase.h"

#include "resched/rescheduler.h"

namespace abase {

Cluster::Cluster(ClusterOptions options) : sim_(options.sim) {}

PoolId Cluster::CreatePool(size_t num_nodes) {
  return sim_.AddPool(num_nodes);
}

Status Cluster::CreateTenant(const meta::TenantConfig& config, PoolId pool,
                             proxy::RoutingMode mode) {
  return sim_.AddTenant(config, pool, mode);
}

Client Cluster::OpenClient(TenantId tenant) {
  return Client(this, tenant, next_client_slot_[tenant]++);
}

void Cluster::AttachWorkload(TenantId tenant,
                             const sim::WorkloadProfile& profile) {
  sim_.SetWorkload(tenant, profile);
}

// ---------------------------------------------------------------------------
// Completion model
// ---------------------------------------------------------------------------

Future<Reply> Cluster::SubmitRequest(ClientRequest req) {
  req.track_outcome = true;
  req.issued_at = sim_.clock().NowMicros();
  const Micros issued = req.issued_at;

  Promise<Reply> promise;
  Future<Reply> future = promise.future();
  pending_commands_++;
  sim_.SubscribeOutcome(
      req.req_id,
      [this, promise, issued](uint64_t, sim::ClientOutcome out) mutable {
        Reply reply;
        reply.status = std::move(out.status);
        reply.value = std::move(out.value);
        reply.latency_micros = out.latency_micros;
        reply.issued_at = issued;
        // The clock advances after outcomes settle, so this is the start
        // time of the tick that completed the command.
        reply.completed_at = sim_.clock().NowMicros();
        const Micros tick_len = sim_.options().tick;
        reply.latency_ticks =
            tick_len <= 0 ? 0
                          : static_cast<uint64_t>(reply.latency() / tick_len) +
                                1;
        promise.Set(std::move(reply));
        pending_commands_--;
        resolved_in_step_++;
      });
  sim_.InjectRequest(req);
  return future;
}

void Cluster::AbandonPending(uint64_t req_id) {
  if (sim_.UnsubscribeOutcome(req_id)) pending_commands_--;
}

size_t Cluster::Step() {
  resolved_in_step_ = 0;
  sim_.Tick();
  return resolved_in_step_;
}

size_t Cluster::Drain(size_t max_ticks) {
  size_t ticks = 0;
  while (pending_commands_ > 0 && ticks < max_ticks) {
    Step();
    ticks++;
  }
  return ticks;
}

// ---------------------------------------------------------------------------
// Operations
// ---------------------------------------------------------------------------

size_t Cluster::RunRescheduling(PoolId pool) {
  resched::PoolModel model = sim_.BuildPoolModel(pool);
  auto migrations = resched::IntraPoolRescheduler().Run(&model);
  size_t applied = 0;
  for (const auto& outcome : sim_.ApplyMigrations(migrations)) {
    if (outcome.status.ok()) applied++;
  }
  return applied;
}

Result<autoscale::ScalingDecision> Cluster::RunAutoscaler(
    TenantId tenant, const TimeSeries& usage_history) {
  const meta::TenantMeta* meta = sim_.meta().GetTenant(tenant);
  const sim::TenantRuntime* rt = sim_.Tenant(tenant);
  if (meta == nullptr || rt == nullptr) {
    return Status::NotFound("no such tenant");
  }
  const sim::TenantRuntime::Lazy& lz = rt->lazy_or_default();
  autoscale::Autoscaler scaler(lz.scaling_policy, lz.forecast_options);
  auto decision = scaler.Decide(
      usage_history, TimeSeries(), meta->tenant_quota_ru,
      static_cast<uint32_t>(meta->partitions.size()),
      meta->config.partition_quota_upper, meta->config.partition_quota_lower,
      meta->last_scale_down, sim_.clock().NowMicros());
  ABASE_RETURN_IF_ERROR(decision.status());
  if (decision.value().action != autoscale::ScalingDecision::Action::kNone) {
    ABASE_RETURN_IF_ERROR(
        sim_.SetTenantQuota(tenant, decision.value().new_quota));
  }
  return decision;
}

// ---------------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------------

namespace {

// Session request-id sub-space layout (DESIGN.md "Request id spaces"):
// bits [40..) tenant, bit 39 the client-space flag, bits [28..39) the
// cluster-allocated session slot, bits [0..28) the per-session sequence.
constexpr int kClientSeqBits = 28;
constexpr int kClientSlotBits = 11;
constexpr uint64_t kClientSpaceFlag = 1ull << 39;

/// A synchronous adapter gives up after this many ticks; a request
/// completes within a few unless the node defers it under load, so this
/// is far beyond any sane backlog.
constexpr int kSyncDrainTicks = 64;

}  // namespace

Client::Client(Cluster* cluster, TenantId tenant, uint64_t session_slot)
    : cluster_(cluster), tenant_(tenant), next_seq_(1) {
  const uint64_t slot = session_slot & ((1ull << kClientSlotBits) - 1);
  id_base_ = (static_cast<uint64_t>(tenant) << 40) | kClientSpaceFlag |
             (slot << kClientSeqBits);
}

uint64_t Client::NextRequestId() {
  return id_base_ | (next_seq_++ & ((1ull << kClientSeqBits) - 1));
}

Client::Pending Client::SubmitPending(Command cmd) {
  ClientRequest req;
  req.req_id = NextRequestId();
  req.tenant = tenant_;
  req.op = cmd.op;
  req.key = std::move(cmd.key);
  req.field = std::move(cmd.field);
  req.value = std::move(cmd.value);
  req.ttl = cmd.ttl;
  req.scan_limit = cmd.scan_limit;
  req.consistency = cmd.consistency;

  Pending p;
  p.req_id = req.req_id;
  p.future = cluster_->SubmitRequest(std::move(req));
  return p;
}

std::vector<Client::Pending> Client::SubmitPendingBatch(
    std::vector<Command> cmds) {
  std::vector<Pending> pending;
  pending.reserve(cmds.size());
  for (Command& cmd : cmds) {
    pending.push_back(SubmitPending(std::move(cmd)));
  }
  return pending;
}

Future<Reply> Client::Submit(Command cmd) {
  return SubmitPending(std::move(cmd)).future;
}

std::vector<Future<Reply>> Client::SubmitBatch(std::vector<Command> cmds) {
  std::vector<Pending> pending = SubmitPendingBatch(std::move(cmds));
  std::vector<Future<Reply>> futures;
  futures.reserve(pending.size());
  for (Pending& p : pending) futures.push_back(std::move(p.future));
  return futures;
}

Reply Client::Await(const Pending& p) {
  for (int i = 0; i < kSyncDrainTicks && !p.future.ready(); i++) {
    cluster_->Step();
  }
  if (p.future.ready()) return p.future.value();
  cluster_->AbandonPending(p.req_id);
  Reply reply;
  reply.status = Status::Internal("request lost in simulation");
  return reply;
}

std::vector<Reply> Client::AwaitAll(const std::vector<Pending>& pending) {
  auto any_unresolved = [&pending] {
    for (const Pending& p : pending) {
      if (!p.future.ready()) return true;
    }
    return false;
  };
  for (int i = 0; i < kSyncDrainTicks && any_unresolved(); i++) {
    cluster_->Step();
  }
  std::vector<Reply> replies;
  replies.reserve(pending.size());
  for (const Pending& p : pending) {
    if (p.future.ready()) {
      replies.push_back(p.future.value());
    } else {
      cluster_->AbandonPending(p.req_id);
      Reply reply;
      reply.status = Status::Internal("request lost in simulation");
      replies.push_back(std::move(reply));
    }
  }
  return replies;
}

// ---------------------------------------------------------------------------
// Synchronous adapters
// ---------------------------------------------------------------------------

Status Client::Set(const std::string& key, const std::string& value,
                   Micros ttl) {
  return Await(SubmitPending(Command::Set(key, value, ttl))).status;
}

Result<std::string> Client::Get(const std::string& key) {
  Reply r = Await(SubmitPending(Command::Get(key)));
  if (!r.ok()) return r.status;
  return std::move(r.value);
}

std::vector<Result<std::string>> Client::MGet(
    const std::vector<std::string>& keys) {
  // One batched submission (see header): the whole batch is admitted
  // together and probes the nodes through the MultiFind grouped path.
  std::vector<Command> cmds;
  cmds.reserve(keys.size());
  for (const std::string& key : keys) cmds.push_back(Command::Get(key));
  std::vector<Pending> pending = SubmitPendingBatch(std::move(cmds));
  std::vector<Reply> replies = AwaitAll(pending);
  std::vector<Result<std::string>> results;
  results.reserve(replies.size());
  for (Reply& r : replies) {
    results.push_back(r.ok() ? Result<std::string>(std::move(r.value))
                             : Result<std::string>(r.status));
  }
  return results;
}

std::vector<Status> Client::MSet(
    const std::vector<std::pair<std::string, std::string>>& pairs) {
  // Same batched-submission path as MGet: every write is injected
  // before any tick runs, so the batch is admitted in one ProxyAdmit
  // pass (one write-invalidation broadcast per key, one quota pass)
  // instead of interleaving submissions with drains.
  std::vector<Command> cmds;
  cmds.reserve(pairs.size());
  for (const auto& [key, value] : pairs) {
    cmds.push_back(Command::Set(key, value));
  }
  std::vector<Pending> pending = SubmitPendingBatch(std::move(cmds));
  std::vector<Reply> replies = AwaitAll(pending);
  std::vector<Status> results;
  results.reserve(replies.size());
  for (Reply& r : replies) results.push_back(std::move(r.status));
  return results;
}

Status Client::Del(const std::string& key) {
  return Await(SubmitPending(Command::Del(key))).status;
}

std::vector<Status> Client::MDel(const std::vector<std::string>& keys) {
  std::vector<Command> cmds;
  cmds.reserve(keys.size());
  for (const std::string& key : keys) cmds.push_back(Command::Del(key));
  std::vector<Pending> pending = SubmitPendingBatch(std::move(cmds));
  std::vector<Reply> replies = AwaitAll(pending);
  std::vector<Status> results;
  results.reserve(replies.size());
  for (Reply& r : replies) results.push_back(std::move(r.status));
  return results;
}

Status Client::HSet(const std::string& key, const std::string& field,
                    const std::string& value) {
  return Await(SubmitPending(Command::HSet(key, field, value))).status;
}

Result<std::string> Client::HGet(const std::string& key,
                                 const std::string& field) {
  Reply r = Await(SubmitPending(Command::HGet(key, field)));
  if (!r.ok()) return r.status;
  return std::move(r.value);
}

Result<std::string> Client::HGetAll(const std::string& key) {
  Reply r = Await(SubmitPending(Command::HGetAll(key)));
  if (!r.ok()) return r.status;
  return std::move(r.value);
}

Result<uint64_t> Client::HLen(const std::string& key) {
  Reply r = Await(SubmitPending(Command::HLen(key)));
  if (!r.ok()) return r.status;
  return static_cast<uint64_t>(std::stoull(r.value));
}

Status Client::Expire(const std::string& key, Micros ttl) {
  return Await(SubmitPending(Command::Expire(key, ttl))).status;
}

Result<std::vector<std::pair<std::string, std::string>>> Client::Scan(
    const std::string& start, const std::string& end, uint32_t limit) {
  Reply r = Await(SubmitPending(Command::Scan(start, end, limit)));
  if (!r.ok()) return r.status;
  return r.ScanEntries();
}

Result<std::vector<std::pair<std::string, std::string>>> Client::ScanPrefix(
    const std::string& prefix, uint32_t limit) {
  Reply r = Await(SubmitPending(Command::ScanPrefix(prefix, limit)));
  if (!r.ok()) return r.status;
  return r.ScanEntries();
}

}  // namespace abase
