#include "node/data_node.h"

#include <algorithm>
#include <cassert>
#include <charconv>

#include "common/hash.h"
#include "common/rng.h"
#include "common/scan_codec.h"

namespace abase {
namespace node {

namespace {

/// Serializes a hash record the way HGETALL returns it over the wire
/// ("field=value\n" per field), built in place in the payload's block.
SharedValue SerializeHash(const storage::ReplRecord& rec) {
  size_t len = 0;
  rec.ForEachField([&len](std::string_view f, std::string_view v) {
    len += f.size() + v.size() + 2;
  });
  return MakeSharedValue(len, [&rec](char* dst) {
    rec.ForEachField([&dst](std::string_view f, std::string_view v) {
      dst = std::copy(f.begin(), f.end(), dst);
      *dst++ = '=';
      dst = std::copy(v.begin(), v.end(), dst);
      *dst++ = '\n';
    });
  });
}

constexpr uint64_t kDiskBlockBytes = 4096;

}  // namespace

const char* NodeStateName(NodeState state) {
  switch (state) {
    case NodeState::kAlive:
      return "ALIVE";
    case NodeState::kFailed:
      return "FAILED";
    case NodeState::kRecovering:
      return "RECOVERING";
  }
  return "UNKNOWN";
}

DataNode::DataNode(NodeId id, DataNodeOptions options, const Clock* clock)
    : id_(id),
      options_(options),
      clock_(clock),
      cache_(options.cache, clock),
      disk_(options.disk),
      wfq_(options.wfq),
      service_model_(options.service_time) {
  assert(clock_ != nullptr);
}

Micros DataNode::SampleServiceMicros(TenantId tenant, uint64_t req_id) const {
  // Stream per (node, tenant): draws are independent across both axes.
  Micros micros =
      service_model_.enabled()
          ? service_model_.Sample(
                MixSeed(static_cast<uint64_t>(id_), tenant), req_id)
          : options_.cpu_service_micros;
  if (service_degradation_ != 1.0) {
    micros = static_cast<Micros>(
        static_cast<double>(micros) * service_degradation_);
  }
  return micros;
}

// ---------------------------------------------------------------------------
// Topology
// ---------------------------------------------------------------------------

void DataNode::AddReplica(TenantId tenant, PartitionId partition,
                          double partition_quota_ru, bool is_primary) {
  PartitionReplica rep;
  rep.tenant = tenant;
  rep.partition = partition;
  rep.partition_quota_ru = partition_quota_ru;
  rep.is_primary = is_primary;
  // Hosted replicas always carry the replication stream: any of them
  // may serve as (or be promoted to) a shipping primary, and the
  // Replicate step truncates the logs behind the slowest cursor.
  storage::LsmOptions lsm_options = options_.lsm;
  lsm_options.enable_repl_log = true;
  rep.engine = std::make_unique<storage::LsmEngine>(lsm_options, clock_);
  {
    // Precompute the FNV-1a state of this replica's cache-key prefix
    // ("<tenant>|<partition>|"); the request path continues it over the
    // client key instead of building the prefixed string per request.
    char buf[32];
    // 32-bit ids are at most 10 digits; leave the compiler provable
    // headroom for the two '|' separators.
    auto p = std::to_chars(buf, buf + 12, tenant).ptr;
    *p++ = '|';
    p = std::to_chars(p, p + 12, partition).ptr;
    *p++ = '|';
    rep.cache_prefix_hash =
        Fnv1a64(std::string_view(buf, static_cast<size_t>(p - buf)));
  }
  rep.engine->SetMutationCounter(&load_version_);
  uint64_t key = ReplicaKey(tenant, partition);
  // A key past every hosted key extends the ordered fold by exactly one
  // step, so `+=` equals the fresh recompute bit for bit. Registration
  // adds keys in ascending order per node: O(log n) per add instead of
  // a walk of every hosted replica.
  const bool appends = replicas_.empty() || replicas_.rbegin()->first < key;
  PartitionReplica& stored = replicas_[key] = std::move(rep);
  replica_index_[key] = &stored;
  if (appends) {
    total_partition_quota_ += partition_quota_ru;
  } else {
    RecomputeTotalQuota();
  }
  load_version_++;
}

bool DataNode::RemoveReplica(TenantId tenant, PartitionId partition) {
  uint64_t key = ReplicaKey(tenant, partition);
  auto it = replicas_.find(key);
  if (it == replicas_.end()) return false;
  if (it->second.ewma_listed) {
    // Purge eagerly: a same-keyed replica re-added before the next tick's
    // fold must not inherit a stale list entry (it would fold twice).
    ewma_active_.erase(
        std::remove(ewma_active_.begin(), ewma_active_.end(), key),
        ewma_active_.end());
  }
  replicas_.erase(it);
  replica_index_.Erase(key);
  RecomputeTotalQuota();
  load_version_++;
  return true;
}

bool DataNode::HasReplica(TenantId tenant, PartitionId partition) const {
  return FindReplica(tenant, partition) != nullptr;
}

bool DataNode::IsPrimaryFor(TenantId tenant, PartitionId partition) const {
  const PartitionReplica* rep = FindReplica(tenant, partition);
  return rep != nullptr && rep->is_primary;
}

void DataNode::SetReplicaPrimary(TenantId tenant, PartitionId partition,
                                 bool is_primary) {
  if (PartitionReplica* rep = FindReplica(tenant, partition)) {
    rep->is_primary = is_primary;
    load_version_++;
  }
}

void DataNode::SetPartitionQuota(TenantId tenant, PartitionId partition,
                                 double partition_quota_ru) {
  PartitionReplica* rep = FindReplica(tenant, partition);
  if (rep == nullptr) return;
  // An unbuilt bucket is full at the old rate. Lowering the rate keeps
  // it full at the new one; raising it leaves it short of the new depth,
  // so the bucket is built (full at the old rate) before the raise.
  if (rep->quota || partition_quota_ru > rep->partition_quota_ru) {
    MutableQuota(*rep).SetBaseQuota(partition_quota_ru);
  }
  rep->partition_quota_ru = partition_quota_ru;
  RecomputeTotalQuota();
}

void DataNode::SetPartitionQuotaEnforcement(bool enabled) {
  quota_enforcement_ = enabled;
  for (auto& [key, rep] : replicas_) {
    if (rep.quota) rep.quota->SetEnabled(enabled);
  }
}

uint64_t DataNode::StoredBytes() const {
  uint64_t total = 0;
  for (const auto& [key, rep] : replicas_) {
    total += rep.engine->ApproximateDataBytes();
  }
  return total;
}

double DataNode::TotalPartitionQuota() const { return total_partition_quota_; }

void DataNode::RecomputeTotalQuota() {
  // Fresh ordered sum (not an incremental +=/-=): float addition is not
  // associative, and the cached value must equal what a from-scratch walk
  // of the ordered map would produce on every platform. The one exception
  // is AddReplica's append past the last key, which is the fold's next
  // step and so needs no walk.
  double total = 0;
  for (const auto& [key, rep] : replicas_) total += rep.partition_quota_ru;
  total_partition_quota_ = total;
}

std::vector<const PartitionReplica*> DataNode::Replicas() const {
  std::vector<const PartitionReplica*> out;
  out.reserve(replicas_.size());
  for (const auto& [key, rep] : replicas_) out.push_back(&rep);
  return out;
}

storage::LsmEngine* DataNode::EngineFor(TenantId tenant,
                                        PartitionId partition) {
  PartitionReplica* rep = FindReplica(tenant, partition);
  return rep == nullptr ? nullptr : rep->engine.get();
}

// ---------------------------------------------------------------------------
// Lifecycle
// ---------------------------------------------------------------------------

size_t DataNode::Fail() {
  if (state_ == NodeState::kFailed) return 0;
  state_ = NodeState::kFailed;
  load_version_++;
  // The crash takes the request queue and every in-flight request with
  // it. The stranded ids live on in the simulator's in-flight table; it
  // resolves them as Unavailable from a serial section.
  size_t dropped = pending_live_;
  pending_pool_.clear();
  pending_free_.clear();
  pending_live_ = 0;
  responses_.clear();
  wfq_.Clear();
  tick_stats_ = NodeTickStats{};
  pending_reject_ru_ = 0;
  tenant_ru_this_tick_.clear();
  tenant_ru_slot_.Clear();
  last_tick_tenant_ru_.clear();
  // A dead replica serves no RU; zero the EWMA so the rescheduler's load
  // model does not keep planning around ghost load.
  for (auto& [key, rep] : replicas_) {
    rep.ru_this_tick = 0;
    rep.ru_rate = 0;
    rep.ewma_listed = false;
  }
  ewma_active_.clear();
  return dropped;
}

void DataNode::StartRecovery() {
  if (state_ != NodeState::kFailed) return;
  state_ = NodeState::kRecovering;
  load_version_++;
  for (auto& [key, rep] : replicas_) {
    rep.engine->CrashAndRecover();
  }
  // The crash also cost the node its in-memory cache.
  cache_.Clear();
}

void DataNode::CompleteRecovery() {
  if (state_ != NodeState::kRecovering) return;
  state_ = NodeState::kAlive;
  load_version_++;
}

// ---------------------------------------------------------------------------
// Replication
// ---------------------------------------------------------------------------

bool DataNode::ApplyReplicated(TenantId tenant, PartitionId partition,
                               const storage::ReplRecordPtr& rec) {
  PartitionReplica* rep = FindReplica(tenant, partition);
  if (rep == nullptr) return false;
  if (!rep->engine->ApplyReplicated(rec).ok()) return false;
  tick_stats_.repl_applied++;
  // The replica serves reads from its engine; drop any node-cached value
  // the shipped write supersedes (same write-invalidation the primary
  // performs synchronously in ExecuteOnEngine).
  cache_.EraseHashed(Fnv1a64Continue(rep->cache_prefix_hash, rec->key()),
                     CacheKeyFor(tenant, partition, rec->key()));
  return true;
}

bool DataNode::ResyncReplica(TenantId tenant, PartitionId partition,
                             const storage::LsmEngine& src) {
  PartitionReplica* rep = FindReplica(tenant, partition);
  if (rep == nullptr) return false;
  rep->engine->ResyncFrom(src);
  // A snapshot bypasses the per-record invalidation ApplyReplicated
  // performs, so any cached value for this partition may now be stale —
  // including entries surviving from an earlier hosting of the same
  // partition. Resyncs are rare (failover, migration, rebuild); dropping
  // the whole node cache is the proportionate correctness fix.
  cache_.Clear();
  return true;
}

void DataNode::ApplyLogDelta(TenantId tenant, PartitionId partition,
                             const storage::LsmEngine& src, uint64_t after,
                             uint64_t through) {
  bool gapped = false;
  src.repl_log().ForEachDelta(
      after, through, [&](const storage::ReplRecordPtr& rec) {
        if (!ApplyReplicated(tenant, partition, rec)) {
          gapped = true;
          return false;
        }
        return true;
      });
  // Unexpected gap: fall back to a full re-seed.
  if (gapped) ResyncReplica(tenant, partition, src);
}

// ---------------------------------------------------------------------------
// Request path
// ---------------------------------------------------------------------------

const std::string& DataNode::CacheKeyFor(TenantId tenant,
                                        PartitionId partition,
                                        std::string_view client_key) const {
  std::string& key = cache_key_;
  key.clear();
  char buf[24];
  auto tenant_end = std::to_chars(buf, buf + sizeof(buf), tenant).ptr;
  key.append(buf, tenant_end);
  key += '|';
  auto part_end = std::to_chars(buf, buf + sizeof(buf), partition).ptr;
  key.append(buf, part_end);
  key += '|';
  key += client_key;
  return key;
}

const std::string& DataNode::CacheKeyFor(const NodeRequest& req) const {
  return CacheKeyFor(req.tenant, req.partition, req.key);
}

namespace {

/// A rejection response (dead node, unhosted partition, quota, queue
/// deadline): echoes the request's routing fields, ServedBy::kRejected.
NodeResponse MakeRejection(const NodeRequest& req, Status status,
                           Micros latency) {
  NodeResponse resp;
  resp.req_id = req.req_id;
  resp.tenant = req.tenant;
  resp.partition = req.partition;
  resp.op = req.op;
  resp.key = req.key;
  resp.status = std::move(status);
  resp.served_by = ServedBy::kRejected;
  resp.latency = latency;
  resp.background_refresh = req.background_refresh;
  return resp;
}

}  // namespace

void DataNode::Submit(const NodeRequest& req) {
  tick_stats_.submitted++;
  if (state_ != NodeState::kAlive) {
    // Defensive: the routing layer avoids non-serving nodes, but a direct
    // caller still gets a clean answer instead of silently queued work.
    responses_.push_back(MakeRejection(
        req,
        Status::Unavailable(state_ == NodeState::kFailed ? "node failed"
                                                         : "node recovering"),
        /*latency=*/0));
    return;
  }
  PartitionReplica* rep = FindReplica(req.tenant, req.partition);
  if (rep == nullptr) {
    responses_.push_back(MakeRejection(
        req, Status::Unavailable("partition not hosted"), /*latency=*/0));
    return;
  }

  // Partition-quota admission at the request-queue entry point. Rejecting
  // is not free: the node burns CPU to produce the error (Figure 6).
  // Unenforced, admission leaves the bucket untouched (so unbuilt).
  if (quota_enforcement_ && !MutableQuota(*rep).TryAdmit(req.estimated_ru)) {
    pending_reject_ru_ += options_.reject_cpu_ru;
    tick_stats_.rejected_quota++;
    responses_.push_back(
        MakeRejection(req, Status::Throttled("partition quota exceeded"),
                      options_.cpu_service_micros));
    return;
  }

  sched::SchedRequest sreq;
  sreq.req_id = req.req_id;
  sreq.tenant = req.tenant;
  sreq.partition = req.partition;
  sreq.is_read = IsReadOp(req.op);
  sreq.cls = ClassifyRequest(sreq.is_read, req.value_size_hint);
  sreq.cpu_cost_ru = std::max(0.1, req.estimated_ru);
  double total_quota = total_partition_quota_;
  sreq.quota_share =
      total_quota > 0 ? rep->partition_quota_ru / total_quota : 1.0;
  sreq.quota_share = std::max(sreq.quota_share, 1e-6);
  // Cache-key hash for the scheduler's flush-on-repeated-key
  // rule and the node-cache probes; writes flush unconditionally, so
  // only reads need it. Continuing the replica's precomputed prefix
  // state over the client key equals HashString(CacheKeyFor(req)).
  if (sreq.is_read) {
    sreq.key_hash = Fnv1a64Continue(rep->cache_prefix_hash, req.key);
  }

  uint32_t slot;
  if (!pending_free_.empty()) {
    slot = pending_free_.back();
    pending_free_.pop_back();
  } else {
    slot = static_cast<uint32_t>(pending_pool_.size());
    pending_pool_.emplace_back();
  }
  PendingContext& ctx = pending_pool_[slot];
  ctx.active = true;
  // Field-assign into the recycled slot: string copy-assignment reuses
  // the slot's capacity, and the write payload is one more reference to
  // the caller's block, not a copy.
  ctx.req.req_id = req.req_id;
  ctx.req.tenant = req.tenant;
  ctx.req.partition = req.partition;
  ctx.req.op = req.op;
  ctx.req.key = req.key;
  ctx.req.field = req.field;
  ctx.req.value = req.value;
  ctx.req.ttl = req.ttl;
  ctx.req.scan_limit = req.scan_limit;
  ctx.req.issued_at = req.issued_at;
  ctx.req.estimated_ru = req.estimated_ru;
  ctx.req.value_size_hint = req.value_size_hint;
  ctx.req.background_refresh = req.background_refresh;
  ctx.req.replicas = req.replicas;
  ctx.req.consistency = req.consistency;
  ctx.admitted_at = clock_->NowMicros();
  ctx.wait_ticks = 0;
  ctx.probed = false;
  ctx.probe_status = Status::OK();
  ctx.probe_hash_fields = 0;
  ctx.probe_scan_entries = 0;
  ctx.probe_io = storage::ReadIo{};
  pending_live_++;
  sreq.pending_slot = slot;
  wfq_.Enqueue(sreq);
}

sched::CacheProbe DataNode::ProbeWriteOrScan(PendingContext& ctx) {
  sched::CacheProbe probe;
  const NodeRequest& req = ctx.req;

  if (!IsReadOp(req.op)) {
    // Writes are absorbed by the WAL + memtable (CPU layer); flush and
    // compaction I/O is charged to the disk as background load below, in
    // ExecuteOnEngine.
    probe.needs_io = false;
    return probe;
  }

  // SCAN: run the merge iterator now (probe-at-schedule time, like point
  // reads) and frame the result into the slab slot. Scans bypass the
  // node's point cache — a range result is not addressable by one cache
  // key, and the proxy's prefix-tree store is the scan-caching layer.
  PartitionReplica& rep = *FindReplica(req.tenant, req.partition);
  scan_buffer_.Clear();
  storage::ScanResult res = rep.engine->ScanRange(
      req.key, req.field, req.scan_limit, scan_buffer_);
  ctx.probe_status = Status::OK();
  // Framed in place, sized exactly: an 8-byte frame header per entry
  // plus its key and payload bytes.
  ctx.probe_value =
      MakeSharedValue(res.bytes + 8 * res.entries, [this](char* dst) {
        for (size_t k = 0; k < scan_buffer_.size(); k++) {
          dst = WriteScanEntry(dst, scan_buffer_[k].key,
                               scan_buffer_[k].value);
        }
      });
  ctx.probe_scan_entries = res.entries;
  ctx.probed = true;
  ctx.probe_io = storage::ReadIo{};
  ctx.probe_io.block_reads = res.block_reads;
  probe.needs_io = res.block_reads > 0;
  probe.io_blocks = std::max(res.block_reads, 0);
  return probe;
}

void DataNode::ProbeBatch(const sched::SchedRequest* reqs, size_t n,
                          sched::CacheProbe* out) {
  // Pass 1 in pop order: node-cache probes (a cache read observes every
  // completion that precedes it in pop order); misses queue for the
  // engine pass.
  batch_miss_.clear();
  for (size_t i = 0; i < n; i++) {
    out[i] = sched::CacheProbe{};
    PendingContext* pit = PendingAt(reqs[i]);
    if (pit == nullptr) {
      // The scheduler cancel-checks at pop time, so a released slot never
      // gets here; if one did, it would complete as a no-op at the CPU
      // layer (CompleteRequest ignores released slots).
      out[i].needs_io = false;
      continue;
    }
    PendingContext& ctx = *pit;
    const NodeRequest& req = ctx.req;
    if (!IsReadOp(req.op) || req.op == OpType::kScan) {
      // Writes arrive as one-request batches; scans run their merge
      // iterator — MultiFind's point-key grouping below does not apply to
      // a range.
      out[i] = ProbeWriteOrScan(ctx);
      continue;
    }
    // Reads: DataNode cache first (GET and HGETALL payloads are cached).
    // The hit's payload handle and TTL are retained so completion reuses
    // them; the key_hash was prefix-continued at Submit, so the probe
    // skips re-hashing the cache key and only builds it for collision
    // compare.
    if (req.op == OpType::kGet || req.op == OpType::kHGetAll) {
      Micros expire_at = 0;
      if (const SharedValue* v = cache_.GetRefHashed(
              reqs[i].key_hash, CacheKeyFor(req), &expire_at)) {
        ctx.probed = true;
        ctx.probe_status = Status::OK();
        ctx.probe_value = *v;
        ctx.probe_io.expire_at = expire_at;
        out[i].hit = true;
        out[i].needs_io = false;
        continue;
      }
    }
    batch_miss_.push_back(static_cast<uint32_t>(i));
  }
  if (batch_miss_.empty()) return;

  // Pass 2: cache misses execute the engine read now to learn the I/O
  // footprint, and retain the outcome so completion does not re-execute
  // it; the I/O-WFQ then models the disk service for the blocks read.
  // Misses group by hosting replica and each group resolves with one
  // MultiFind. Ordering within the pass is immaterial — engine reads
  // mutate no data state and each request only touches its own slab
  // slot — but grouping by replica key keeps the walk deterministic.
  std::stable_sort(batch_miss_.begin(), batch_miss_.end(),
                   [&](uint32_t a, uint32_t b) {
                     return ReplicaKey(reqs[a].tenant, reqs[a].partition) <
                            ReplicaKey(reqs[b].tenant, reqs[b].partition);
                   });
  constexpr size_t kMaxBatch = 64;  // WFQ flushes reads well below this.
  std::string_view keys[kMaxBatch];
  const storage::ReplRecordPtr* recs[kMaxBatch];
  storage::ReadIo ios[kMaxBatch];
  size_t g = 0;
  while (g < batch_miss_.size()) {
    const uint64_t gkey =
        ReplicaKey(reqs[batch_miss_[g]].tenant, reqs[batch_miss_[g]].partition);
    size_t ge = g + 1;
    while (ge < batch_miss_.size() &&
           ReplicaKey(reqs[batch_miss_[ge]].tenant,
                      reqs[batch_miss_[ge]].partition) == gkey &&
           ge - g < kMaxBatch) {
      ge++;
    }
    PartitionReplica& rep = *FindReplica(reqs[batch_miss_[g]].tenant,
                                         reqs[batch_miss_[g]].partition);
    for (size_t k = g; k < ge; k++) {
      keys[k - g] = PendingAt(reqs[batch_miss_[k]])->req.key;
    }
    rep.engine->MultiFind(keys, ge - g, recs, ios);
    for (size_t k = g; k < ge; k++) {
      const uint32_t i = batch_miss_[k];
      PendingContext& ctx = *PendingAt(reqs[i]);
      const NodeRequest& req = ctx.req;
      const storage::ReplRecord* e =
          recs[k - g] != nullptr ? recs[k - g]->get() : nullptr;
      // Per-op extraction mirroring the engine's Get/HGet/HLen/HGetAll
      // wrappers around FindEntry (same Status messages included). GET
      // and HGET payloads alias the record itself: no allocation, no
      // copy, and the handle keeps the record alive past any later
      // flush or compaction of this engine.
      switch (req.op) {
        case OpType::kGet:
          if (e == nullptr || e->type() != storage::ValueType::kString) {
            ctx.probe_status = Status::NotFound("key absent");
          } else {
            ctx.probe_status = Status::OK();
            ctx.probe_value = SharedValue(*e, e->str());
          }
          break;
        case OpType::kHGet: {
          std::string_view v;
          if (e == nullptr || e->type() != storage::ValueType::kHash) {
            ctx.probe_status = Status::NotFound("hash absent");
          } else if (e->FindField(req.field, &v)) {
            ctx.probe_status = Status::OK();
            ctx.probe_value = SharedValue(*e, v);
          } else {
            ctx.probe_status = Status::NotFound("field absent");
          }
          break;
        }
        case OpType::kHLen:
          if (e == nullptr || e->type() != storage::ValueType::kHash) {
            ctx.probe_status = Status::NotFound("hash absent");
          } else {
            ctx.probe_status = Status::OK();
            ctx.probe_value = MakeSharedValue(std::to_string(e->hash_size()));
            ctx.probe_hash_fields = e->hash_size();
          }
          break;
        case OpType::kHGetAll:
          if (e == nullptr || e->type() != storage::ValueType::kHash) {
            ctx.probe_status = Status::NotFound("hash absent");
          } else {
            ctx.probe_status = Status::OK();
            ctx.probe_hash_fields = e->hash_size();
            ctx.probe_value = SerializeHash(*e);
          }
          break;
        default:
          break;
      }
      ctx.probed = true;
      ctx.probe_io = ios[k - g];
      out[i].hit = false;
      out[i].needs_io = ios[k - g].block_reads > 0;
      out[i].io_blocks = std::max(ios[k - g].block_reads, 0);
    }
    g = ge;
  }
}

NodeResponse DataNode::ExecuteOnEngine(PendingContext& ctx,
                                       PartitionReplica& rep,
                                       ServedBy served_by,
                                       Micros extra_latency) {
  const NodeRequest& req = ctx.req;
  NodeResponse resp;
  resp.req_id = req.req_id;
  resp.tenant = req.tenant;
  resp.partition = req.partition;
  resp.op = req.op;
  resp.key = req.key;
  resp.background_refresh = req.background_refresh;
  resp.from_primary = rep.is_primary;
  resp.replica_applied_seq = rep.engine->applied_seq();

  // Scratch-backed: nothing below re-enters CacheKeyFor, so the
  // reference stays valid across the cache_ calls. The hash continues
  // the replica's precomputed prefix state == HashString(cache_key).
  const std::string& cache_key = CacheKeyFor(req);
  const uint64_t ck_hash = Fnv1a64Continue(rep.cache_prefix_hash, req.key);
  uint64_t flushed_before = rep.engine->stats().flushed_bytes +
                            rep.engine->stats().compaction_write_bytes;

  bool cache_hit = served_by == ServedBy::kNodeCache;
  switch (req.op) {
    case OpType::kGet: {
      resp.status = ctx.probe_status;
      resp.value = std::move(ctx.probe_value);
      resp.value_bytes = ValueView(resp.value).size();
      // The cache entry shares the response's handle: for a GET that is
      // the engine record itself, so the fill copies nothing.
      if (!cache_hit && resp.status.ok()) {
        cache_.PutHashed(ck_hash, cache_key, resp.value, resp.value_bytes + 32,
                         ctx.probe_io.expire_at);
      }
      resp.actual_ru =
          ru::ActualReadCharge(resp.value_bytes, cache_hit, ru_model_.options());
      break;
    }
    case OpType::kHGet: {
      resp.status = ctx.probe_status;
      resp.value = std::move(ctx.probe_value);
      resp.value_bytes = ValueView(resp.value).size();
      resp.actual_ru =
          ru::ActualReadCharge(resp.value_bytes, cache_hit, ru_model_.options());
      break;
    }
    case OpType::kHLen: {
      resp.status = ctx.probe_status;
      resp.value = std::move(ctx.probe_value);
      resp.value_bytes = 8;
      resp.actual_ru = 1.0;  // Metadata-only cost (Section 4.1).
      break;
    }
    case OpType::kHGetAll: {
      resp.status = ctx.probe_status;
      resp.value = std::move(ctx.probe_value);
      resp.value_bytes = ValueView(resp.value).size();
      if (!cache_hit && resp.status.ok()) {
        cache_.PutHashed(ck_hash, cache_key, resp.value, resp.value_bytes + 32,
                         ctx.probe_io.expire_at);
        ru_model_.RecordHashShape(ctx.probe_hash_fields, resp.value_bytes);
      }
      // HGETALL = HLen stage + scan stage.
      resp.actual_ru = 1.0 + ru::ActualReadCharge(resp.value_bytes, cache_hit,
                                                  ru_model_.options());
      break;
    }
    case OpType::kSet: {
      storage::ReplRecordPtr rec;
      resp.status = rep.engine->Put(req.key, req.value.view(), req.ttl, &rec);
      resp.value_bytes = req.value.size();
      resp.actual_ru = ru::ActualWriteCharge(resp.value_bytes,
                                             req.replicas,
                                             ru_model_.options());
      // Write-through: the node cache carries the new value so hot
      // read-after-write keys keep hitting. It aliases the record the
      // write just built, as a GET fill does (no second copy), and
      // expires with it.
      if (resp.status.ok()) {
        cache_.PutHashed(ck_hash, cache_key, SharedValue(*rec, rec->str()),
                         req.value.size() + 32, rec->expire_at());
      } else {
        cache_.EraseHashed(ck_hash, cache_key);
      }
      break;
    }
    case OpType::kDel: {
      resp.status = rep.engine->Delete(req.key);
      resp.value_bytes = req.key.size();
      resp.actual_ru = ru::ActualWriteCharge(resp.value_bytes,
                                             req.replicas,
                                             ru_model_.options());
      cache_.EraseHashed(ck_hash, cache_key);
      break;
    }
    case OpType::kHSet: {
      resp.status = rep.engine->HSet(req.key, req.field, req.value.view());
      resp.value_bytes = req.field.size() + req.value.size();
      resp.actual_ru = ru::ActualWriteCharge(resp.value_bytes,
                                             req.replicas,
                                             ru_model_.options());
      cache_.EraseHashed(ck_hash, cache_key);
      break;
    }
    case OpType::kExpire: {
      resp.status = rep.engine->Expire(req.key, req.ttl);
      resp.value_bytes = 8;
      resp.actual_ru = 1.0;
      break;
    }
    case OpType::kScan: {
      // The probe already ran the merge iterator and framed the result.
      resp.status = ctx.probe_status;
      resp.value = std::move(ctx.probe_value);
      resp.value_bytes = ValueView(resp.value).size();
      resp.scan_entries = ctx.probe_scan_entries;
      resp.actual_ru = ru::ActualScanCharge(
          ctx.probe_scan_entries, resp.value_bytes, ru_model_.options());
      break;
    }
  }

  // Background flush/compaction writes triggered by this operation are
  // charged to the disk (they congest it) but not to this request's
  // latency.
  uint64_t flushed_after = rep.engine->stats().flushed_bytes +
                           rep.engine->stats().compaction_write_bytes;
  if (flushed_after > flushed_before) {
    int blocks = static_cast<int>(
        (flushed_after - flushed_before + kDiskBlockBytes - 1) /
        kDiskBlockBytes);
    disk_.ChargeWrite(blocks);
  }

  resp.served_by = cache_hit ? ServedBy::kNodeCache : served_by;
  if (IsReadOp(req.op) && ctx.probed && ctx.probe_io.expire_at > 0) {
    Micros remaining = ctx.probe_io.expire_at - clock_->NowMicros();
    resp.ttl_remaining = remaining > 0 ? remaining : 1;
  }

  // Settle the difference between the admission estimate and the actual
  // charge against the partition's bucket.
  if (quota_enforcement_) {
    MutableQuota(rep).SettleActual(req.estimated_ru, resp.actual_ru);
  }
  AddTenantRu(req.tenant, resp.actual_ru);
  rep.ru_this_tick += resp.actual_ru;
  if (!rep.ewma_listed) {
    rep.ewma_listed = true;
    ewma_active_.push_back(ReplicaKey(req.tenant, req.partition));
  }

  // Latency: base CPU service inflated by an M/M/1-style queueing factor
  // at high CPU utilization, plus whole ticks spent deferred (backlog)
  // and any disk service time. Sub-millisecond at light load; tens of
  // milliseconds near saturation; seconds only once the node is
  // genuinely backlogged across ticks.
  //
  // With the sampled service-time model enabled (latency subsystem), the
  // fixed base is replaced by a stateless per-request draw — a pure hash
  // of (seed, node, tenant, req_id), so the value is identical whichever
  // worker runs this node's tick — and the whole node-side latency is
  // scaled by the gray-failure degradation factor.
  double util = std::min(0.98, tick_stats_.wfq.cpu_ru_used /
                                   std::max(1.0, options_.wfq.cpu_budget_ru));
  Micros queueing = static_cast<Micros>(
      static_cast<double>(options_.cpu_service_micros) * 2.0 * util /
      (1.0 - util));
  Micros base = options_.cpu_service_micros;
  if (service_model_.enabled()) {
    base = service_model_.Sample(
        MixSeed(static_cast<uint64_t>(id_), req.tenant), req.req_id);
  }
  Micros latency = base + queueing +
                   static_cast<Micros>(ctx.wait_ticks) * kMicrosPerSecond +
                   extra_latency;
  if (service_degradation_ != 1.0) {
    latency = static_cast<Micros>(
        static_cast<double>(latency) * service_degradation_);
  }
  resp.latency = latency;
  return resp;
}

void DataNode::CompleteRequest(const sched::SchedRequest& sreq,
                               sched::SchedOutcome outcome) {
  PendingContext* pit = PendingAt(sreq);
  if (pit == nullptr) return;
  PendingContext& ctx = *pit;
  PartitionReplica& rep = *FindReplica(ctx.req.tenant, ctx.req.partition);

  ServedBy served_by = ServedBy::kNodeCpu;
  Micros extra_latency = 0;
  switch (outcome) {
    case sched::SchedOutcome::kServedFromCache:
      served_by = ServedBy::kNodeCache;
      tick_stats_.cache_hits++;
      break;
    case sched::SchedOutcome::kServedFromCpu:
      served_by = ServedBy::kNodeCpu;
      break;
    case sched::SchedOutcome::kServedFromDisk:
      served_by = ServedBy::kDisk;
      extra_latency = disk_.ChargeRead(std::max(1, sreq.io_blocks));
      tick_stats_.disk_served++;
      break;
    case sched::SchedOutcome::kDeferred:
      return;  // Still queued; not completed this tick.
  }

  NodeResponse resp = ExecuteOnEngine(ctx, rep, served_by, extra_latency);
  tick_stats_.completed++;
  tick_stats_.cpu_ru_used += resp.actual_ru;
  responses_.push_back(std::move(resp));
  ReleasePending(sreq.pending_slot);
}

void DataNode::Tick() {
  if (state_ != NodeState::kAlive) {
    // A dead (or still catching-up) node schedules nothing. Submit-path
    // rejections already sit in responses_ for the caller to drain.
    last_tick_tenant_ru_.clear();
    return;
  }
  disk_.ResetWindow();

  // CPU burned on rejections shrinks the WFQ's budget this tick.
  sched::DualWfqOptions wfq_opts = options_.wfq;
  wfq_opts.cpu_budget_ru = std::max(
      options_.wfq.cpu_budget_ru * 0.05,
      options_.wfq.cpu_budget_ru - pending_reject_ru_);
  tick_stats_.reject_cpu_ru = pending_reject_ru_;
  pending_reject_ru_ = 0;
  wfq_.set_options(wfq_opts);

  tick_stats_.wfq = wfq_.RunTick(
      [this](const sched::SchedRequest* reqs, size_t n,
             sched::CacheProbe* out) { ProbeBatch(reqs, n, out); },
      [this](const sched::SchedRequest& r) { return PendingAt(r) == nullptr; },
      [this](const sched::SchedRequest& r, sched::SchedOutcome o) {
        CompleteRequest(r, o);
      });

  // Anything still pending waited a full tick; requests beyond the queue
  // deadline fail now (their WFQ entries are lazily discarded when the
  // scheduler reaches them). Expired ids are emitted in req_id order:
  // slab order depends on free-list recycling, and response order feeds
  // downstream metric accumulation — sorting keeps same-seed runs
  // bit-identical regardless of slot reuse history. With nothing live the
  // whole sweep is a no-op — skip the slab walk (the slab keeps its
  // high-water capacity long after a burst drains).
  if (pending_live_ > 0) {
    auto& expired = expired_scratch_;
    expired.clear();
    for (uint32_t i = 0; i < pending_pool_.size(); ++i) {
      PendingContext& ctx = pending_pool_[i];
      if (!ctx.active) continue;
      ctx.wait_ticks++;
      if (ctx.wait_ticks > options_.queue_timeout_ticks) {
        expired.emplace_back(ctx.req.req_id, i);
      }
    }
    std::sort(expired.begin(), expired.end());
    for (auto [req_id, slot] : expired) {
      PendingContext& ctx = pending_pool_[slot];
      responses_.push_back(MakeRejection(
          ctx.req, Status::ResourceExhausted("queue deadline exceeded"),
          static_cast<Micros>(ctx.wait_ticks) * kMicrosPerSecond));
      ReleasePending(slot);
    }
  }

  // Fold per-replica tick RU into the EWMA the rescheduler reads. Only
  // replicas with nonzero state are listed; for every other replica the
  // fold is 0.2*0 + 0.8*0 == 0 exactly, so skipping it is bit-identical.
  // A decaying rate underflows to exactly 0 after a few thousand idle
  // ticks and the replica drops off the list. Fold order across replicas
  // does not matter: each fold touches only its own replica.
  constexpr double kRuEwmaAlpha = 0.2;
  if (!ewma_active_.empty()) load_version_++;  // Rates move (or may).
  size_t kept = 0;
  for (size_t i = 0; i < ewma_active_.size(); ++i) {
    PartitionReplica** slot = replica_index_.Find(ewma_active_[i]);
    if (slot == nullptr) continue;  // Replica removed while listed.
    PartitionReplica& rep = **slot;
    rep.ru_rate = kRuEwmaAlpha * rep.ru_this_tick +
                  (1 - kRuEwmaAlpha) * rep.ru_rate;
    rep.ru_this_tick = 0;
    if (rep.ru_rate != 0) {
      ewma_active_[kept++] = ewma_active_[i];
    } else {
      rep.ewma_listed = false;
    }
  }
  ewma_active_.resize(kept);

  // Publish the tick's tenant ledger sorted by tenant (the order the old
  // std::map exposed) and recycle the buffers for the next tick.
  last_tick_tenant_ru_.swap(tenant_ru_this_tick_);
  std::sort(last_tick_tenant_ru_.begin(), last_tick_tenant_ru_.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  tenant_ru_this_tick_.clear();
  tenant_ru_slot_.Clear();
}

void DataNode::AddTenantRu(TenantId tenant, double ru) {
  uint32_t* slot = tenant_ru_slot_.Find(tenant);
  if (slot == nullptr) {
    uint32_t idx = static_cast<uint32_t>(tenant_ru_this_tick_.size());
    tenant_ru_this_tick_.emplace_back(tenant, 0.0);
    tenant_ru_slot_[tenant] = idx;
    tenant_ru_this_tick_[idx].second += ru;
    return;
  }
  tenant_ru_this_tick_[*slot].second += ru;
}

std::vector<NodeResponse> DataNode::TakeResponses() {
  std::vector<NodeResponse> out;
  out.swap(responses_);
  return out;
}

NodeTickStats DataNode::TakeTickStats() {
  NodeTickStats out = tick_stats_;
  tick_stats_ = NodeTickStats{};
  return out;
}

}  // namespace node
}  // namespace abase
