// Tests for the DataNode (Section 3.2 data plane): admission, WFQ
// integration, cache behaviour, rejection cost, replica management, and
// point-read resolution alone and in batches.
#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "common/rng.h"
#include "node/data_node.h"

namespace abase {
namespace node {
namespace {

DataNodeOptions SmallNodeOptions() {
  DataNodeOptions o;
  o.wfq.cpu_budget_ru = 1000;
  o.cache.capacity_bytes = 1 << 20;
  return o;
}

NodeRequest MakeSet(uint64_t id, TenantId t, PartitionId p,
                    const std::string& key, const std::string& value) {
  NodeRequest r;
  r.req_id = id;
  r.tenant = t;
  r.partition = p;
  r.op = OpType::kSet;
  r.key = key;
  r.value = MakeSharedValue(value);
  r.estimated_ru = 1.0;
  r.value_size_hint = value.size();
  return r;
}

NodeRequest MakeGet(uint64_t id, TenantId t, PartitionId p,
                    const std::string& key) {
  NodeRequest r;
  r.req_id = id;
  r.tenant = t;
  r.partition = p;
  r.op = OpType::kGet;
  r.key = key;
  r.estimated_ru = 1.0;
  r.value_size_hint = 64;
  return r;
}

class DataNodeTest : public ::testing::Test {
 protected:
  DataNodeTest() : clock_(0), node_(1, SmallNodeOptions(), &clock_) {
    node_.AddReplica(/*tenant=*/1, /*partition=*/0,
                     /*partition_quota_ru=*/1000, /*is_primary=*/true);
  }

  std::vector<NodeResponse> TickAndDrain() {
    node_.Tick();
    clock_.Advance(kMicrosPerSecond);
    return node_.TakeResponses();
  }

  SimClock clock_;
  DataNode node_;
};

TEST_F(DataNodeTest, SetThenGetRoundTrip) {
  node_.Submit(MakeSet(1, 1, 0, "k", "hello"));
  auto r1 = TickAndDrain();
  ASSERT_EQ(r1.size(), 1u);
  EXPECT_TRUE(r1[0].status.ok());
  EXPECT_EQ(r1[0].served_by, ServedBy::kNodeCpu);

  node_.Submit(MakeGet(2, 1, 0, "k"));
  auto r2 = TickAndDrain();
  ASSERT_EQ(r2.size(), 1u);
  EXPECT_TRUE(r2[0].status.ok());
  EXPECT_EQ(ValueView(r2[0].value), "hello");
}

TEST_F(DataNodeTest, SecondGetHitsNodeCache) {
  node_.Submit(MakeSet(1, 1, 0, "k", "v"));
  TickAndDrain();
  node_.Submit(MakeGet(2, 1, 0, "k"));
  auto r1 = TickAndDrain();
  ASSERT_EQ(r1.size(), 1u);

  node_.Submit(MakeGet(3, 1, 0, "k"));
  auto r2 = TickAndDrain();
  ASSERT_EQ(r2.size(), 1u);
  EXPECT_EQ(r2[0].served_by, ServedBy::kNodeCache);
  // Cache hit charges only the CPU fraction.
  EXPECT_LT(r2[0].actual_ru, r1[0].actual_ru + 1e-9);
}

TEST_F(DataNodeTest, WriteThroughCacheServesNewValue) {
  node_.Submit(MakeSet(1, 1, 0, "k", "v1"));
  TickAndDrain();
  node_.Submit(MakeGet(2, 1, 0, "k"));
  TickAndDrain();  // Cache filled.
  node_.Submit(MakeSet(3, 1, 0, "k", "v2"));
  TickAndDrain();  // Write-through updates the cached value.
  node_.Submit(MakeGet(4, 1, 0, "k"));
  auto r = TickAndDrain();
  ASSERT_EQ(r.size(), 1u);
  EXPECT_EQ(ValueView(r[0].value), "v2");  // Never the stale v1.
  EXPECT_EQ(r[0].served_by, ServedBy::kNodeCache);
}

TEST_F(DataNodeTest, UnknownPartitionUnavailable) {
  node_.Submit(MakeGet(1, 9, 5, "k"));
  auto r = TickAndDrain();
  ASSERT_EQ(r.size(), 1u);
  EXPECT_TRUE(r[0].status.IsUnavailable());
}

TEST_F(DataNodeTest, PartitionQuotaRejectsBeyondTriple) {
  // Partition quota 1000 -> 3000 burst tokens. Estimated 1 RU each.
  int rejected = 0;
  for (uint64_t i = 0; i < 5000; i++) {
    node_.Submit(MakeGet(10 + i, 1, 0, "k" + std::to_string(i)));
  }
  auto responses = TickAndDrain();
  for (const auto& resp : responses) {
    if (resp.status.IsThrottled()) rejected++;
  }
  EXPECT_GT(rejected, 1500);  // ~2000 rejected (5000 - 3000 admitted).
  NodeTickStats stats = node_.TakeTickStats();
  EXPECT_GT(stats.rejected_quota, 0u);
  EXPECT_GT(stats.reject_cpu_ru, 0.0);
}

TEST_F(DataNodeTest, DisablingQuotaAdmitsEverything) {
  node_.SetPartitionQuotaEnforcement(false);
  for (uint64_t i = 0; i < 5000; i++) {
    node_.Submit(MakeGet(10 + i, 1, 0, "k"));
  }
  node_.Tick();
  NodeTickStats stats = node_.TakeTickStats();
  EXPECT_EQ(stats.rejected_quota, 0u);
}

TEST_F(DataNodeTest, HashOpsThroughNode) {
  NodeRequest hset = MakeSet(1, 1, 0, "h", "v");
  hset.op = OpType::kHSet;
  hset.field = "f1";
  node_.Submit(hset);
  TickAndDrain();

  NodeRequest hlen = MakeGet(2, 1, 0, "h");
  hlen.op = OpType::kHLen;
  node_.Submit(hlen);
  auto r = TickAndDrain();
  ASSERT_EQ(r.size(), 1u);
  ASSERT_TRUE(r[0].status.ok());
  EXPECT_EQ(ValueView(r[0].value), "1");

  NodeRequest hga = MakeGet(3, 1, 0, "h");
  hga.op = OpType::kHGetAll;
  node_.Submit(hga);
  auto r2 = TickAndDrain();
  ASSERT_EQ(r2.size(), 1u);
  EXPECT_EQ(ValueView(r2[0].value), "f1=v\n");
}

TEST_F(DataNodeTest, ReplicaManagement) {
  EXPECT_TRUE(node_.HasReplica(1, 0));
  node_.AddReplica(2, 3, 500, false);
  EXPECT_EQ(node_.replica_count(), 2u);
  EXPECT_DOUBLE_EQ(node_.TotalPartitionQuota(), 1500.0);
  EXPECT_TRUE(node_.RemoveReplica(2, 3));
  EXPECT_FALSE(node_.RemoveReplica(2, 3));
  EXPECT_EQ(node_.replica_count(), 1u);
}

TEST_F(DataNodeTest, SetPartitionQuotaPropagates) {
  node_.SetPartitionQuota(1, 0, 2500);
  EXPECT_DOUBLE_EQ(node_.TotalPartitionQuota(), 2500.0);
}

TEST_F(DataNodeTest, TenantRuTracked) {
  node_.Submit(MakeSet(1, 1, 0, "k", std::string(2048, 'x')));
  node_.Tick();
  const auto& ru = node_.LastTickTenantRu();
  ASSERT_EQ(ru.size(), 1u);
  EXPECT_EQ(ru[0].first, 1u);
  EXPECT_GT(ru[0].second, 0.0);
}

TEST_F(DataNodeTest, RejectionBurnsCpuBudget) {
  // A flood of rejected traffic must shrink the next tick's CPU budget —
  // the Figure 6 co-tenant damage mechanism.
  for (uint64_t i = 0; i < 50000; i++) {
    node_.Submit(MakeGet(10 + i, 1, 0, "k"));
  }
  node_.Tick();
  NodeTickStats stats = node_.TakeTickStats();
  // Rejections happened and consumed meaningful CPU.
  EXPECT_GT(stats.rejected_quota, 40000u);
  EXPECT_GT(stats.reject_cpu_ru, 1000.0);
}

TEST_F(DataNodeTest, StoredBytesGrowWithWrites) {
  uint64_t before = node_.StoredBytes();
  for (uint64_t i = 0; i < 50; i++) {
    node_.Submit(MakeSet(10 + i, 1, 0, "k" + std::to_string(i),
                         std::string(1024, 'd')));
  }
  TickAndDrain();
  EXPECT_GT(node_.StoredBytes(), before + 40 * 1024);
}

TEST_F(DataNodeTest, ReplicaRuEwmaUpdates) {
  for (uint64_t i = 0; i < 100; i++) {
    node_.Submit(MakeSet(10 + i, 1, 0, "k" + std::to_string(i), "v"));
  }
  node_.Tick();
  auto replicas = node_.Replicas();
  ASSERT_EQ(replicas.size(), 1u);
  EXPECT_GT(replicas[0]->ru_rate, 0.0);
}

uint64_t Bits(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

/// The from-scratch ordered left fold TotalPartitionQuota must equal.
double FreshOrderedTotal(const DataNode& node) {
  double total = 0;
  for (const PartitionReplica* rep : node.Replicas()) {
    total += rep->partition_quota_ru;
  }
  return total;
}

TEST(DataNodeQuotaTotalTest, MatchesFreshOrderedRecomputeBitForBit) {
  SimClock clock(0);
  DataNode node(7, SmallNodeOptions(), &clock);
  Rng rng(20250607);
  // Quotas spanning many magnitudes make float addition visibly
  // non-associative: any reordered or incremental -= would drift.
  auto quota = [&rng]() {
    const double scales[] = {1e-3, 0.1, 1.0, 333.3, 1e6, 1e12};
    return scales[rng.NextUint64(6)] * (1.0 + rng.NextDouble());
  };
  std::vector<std::pair<TenantId, PartitionId>> hosted;
  TenantId next_tenant = 1;
  for (int step = 0; step < 4000; step++) {
    const uint64_t op = rng.NextUint64(10);
    if (op < 4 || hosted.empty()) {
      // Ascending: past every hosted key (the append path).
      node.AddReplica(next_tenant, 0, quota(), true);
      hosted.emplace_back(next_tenant, 0);
      next_tenant += 1 + static_cast<TenantId>(rng.NextUint64(3));
    } else if (op < 6) {
      // Out of order: a key below the current maximum.
      const auto [t, p] = hosted[rng.NextUint64(hosted.size())];
      const PartitionId part = p + 1 + static_cast<PartitionId>(
                                           rng.NextUint64(4));
      if (!node.HasReplica(t, part)) hosted.emplace_back(t, part);
      node.AddReplica(t, part, quota(), false);
    } else if (op < 7) {
      // Re-added key: replaces the hosted replica's quota.
      const auto [t, p] = hosted[rng.NextUint64(hosted.size())];
      node.AddReplica(t, p, quota(), true);
    } else if (op < 9) {
      const size_t i = rng.NextUint64(hosted.size());
      EXPECT_TRUE(node.RemoveReplica(hosted[i].first, hosted[i].second));
      hosted.erase(hosted.begin() + static_cast<long>(i));
    } else {
      const auto [t, p] = hosted[rng.NextUint64(hosted.size())];
      node.SetPartitionQuota(t, p, quota());
    }
    ASSERT_EQ(node.replica_count(), hosted.size()) << "step " << step;
    ASSERT_EQ(Bits(node.TotalPartitionQuota()),
              Bits(FreshOrderedTotal(node)))
        << "step " << step;
  }
}

TEST_F(DataNodeTest, LoadVersionTracksRescheduleModelInputs) {
  uint64_t v = node_.load_version();
  auto moved = [&]() {
    const bool changed = node_.load_version() != v;
    v = node_.load_version();
    return changed;
  };
  // Reads and empty ticks change nothing the model reads.
  ASSERT_TRUE(node_.EngineFor(1, 0)->Get("k").status().IsNotFound());
  node_.Tick();
  EXPECT_FALSE(moved());
  // Direct engine writes bypass the node, and still count.
  ASSERT_TRUE(node_.EngineFor(1, 0)->Put("k", "v").ok());
  EXPECT_TRUE(moved());
  node_.EngineFor(1, 0)->Flush();
  EXPECT_TRUE(moved());
  node_.AddReplica(2, 0, 100, false);
  EXPECT_TRUE(moved());
  node_.SetReplicaPrimary(2, 0, true);
  EXPECT_TRUE(moved());
  // A served request folds a nonzero RU rate.
  node_.Submit(MakeGet(1, 1, 0, "k"));
  TickAndDrain();
  EXPECT_TRUE(moved());
  node_.Fail();
  EXPECT_TRUE(moved());
  node_.StartRecovery();
  EXPECT_TRUE(moved());
  node_.CompleteRecovery();
  EXPECT_TRUE(moved());
  EXPECT_TRUE(node_.RemoveReplica(2, 0));
  EXPECT_TRUE(moved());
  // Quota changes are not a model input.
  node_.SetPartitionQuota(1, 0, 1234);
  EXPECT_FALSE(moved());
}

// ----------------------------------------------- Point-read resolution --

// A node whose replica (1, 0) holds a string and a two-field hash in
// SSTables ("f:" keys) and a string and a one-field hash in the memtable
// ("m:" keys).
std::unique_ptr<DataNode> MakeSeededNode(SimClock* clock) {
  auto node = std::make_unique<DataNode>(1, SmallNodeOptions(), clock);
  node->AddReplica(1, 0, 1000, true);
  storage::LsmEngine& e = *node->EngineFor(1, 0);
  EXPECT_TRUE(e.Put("f:s", "flushed-string").ok());
  EXPECT_TRUE(e.HSet("f:h", "a", "1").ok());
  EXPECT_TRUE(e.HSet("f:h", "b", "2").ok());
  e.Flush();
  EXPECT_TRUE(e.Put("m:s", "mem-string").ok());
  EXPECT_TRUE(e.HSet("m:h", "x", "9").ok());
  return node;
}

NodeRequest MakeRead(uint64_t id, OpType op, const std::string& key,
                     const std::string& field = "") {
  NodeRequest r = MakeGet(id, 1, 0, key);
  r.op = op;
  r.field = field;
  return r;
}

// What the engine's own read API returns for `req`, as (status, value).
std::pair<Status, std::string> EngineRead(storage::LsmEngine& e,
                                          const NodeRequest& req) {
  switch (req.op) {
    case OpType::kGet: {
      auto r = e.Get(req.key);
      return {r.status(), r.ok() ? r.value() : ""};
    }
    case OpType::kHGet: {
      auto r = e.HGet(req.key, req.field);
      return {r.status(), r.ok() ? r.value() : ""};
    }
    case OpType::kHLen: {
      auto r = e.HLen(req.key);
      return {r.status(), r.ok() ? std::to_string(r.value()) : ""};
    }
    case OpType::kHGetAll: {
      auto r = e.HGetAll(req.key);
      std::string wire;
      if (r.ok()) {
        for (const auto& [f, v] : r.value()) wire += f + "=" + v + "\n";
      }
      return {r.status(), wire};
    }
    default:
      return {Status::Internal("not a point read"), ""};
  }
}

TEST(DataNodePointReadTest, LoneAndBatchedReadsMatchTheEngine) {
  // Every op on both residencies, with all three NotFound causes: key
  // absent (GET of a missing or hash key), hash absent (hash ops on a
  // missing or string key) and field absent. GET and HGETALL fill the
  // node cache under the bare key, so each key's HGETALL comes last.
  std::vector<NodeRequest> reqs;
  uint64_t id = 1;
  for (const std::string r : {"f:", "m:"}) {
    const std::string hash_field = r == "f:" ? "b" : "x";
    reqs.push_back(MakeRead(id++, OpType::kGet, r + "s"));
    reqs.push_back(MakeRead(id++, OpType::kGet, r + "h"));
    reqs.push_back(MakeRead(id++, OpType::kGet, r + "none"));
    reqs.push_back(MakeRead(id++, OpType::kHGet, r + "h", hash_field));
    reqs.push_back(MakeRead(id++, OpType::kHGet, r + "s", "a"));
    reqs.push_back(MakeRead(id++, OpType::kHGet, r + "none", "a"));
    reqs.push_back(MakeRead(id++, OpType::kHGet, r + "h", "zz"));
    reqs.push_back(MakeRead(id++, OpType::kHLen, r + "h"));
    reqs.push_back(MakeRead(id++, OpType::kHLen, r + "s"));
    reqs.push_back(MakeRead(id++, OpType::kHLen, r + "none"));
    reqs.push_back(MakeRead(id++, OpType::kHGetAll, r + "none"));
    reqs.push_back(MakeRead(id++, OpType::kHGetAll, r + "h"));
  }

  SimClock lone_clock(0);
  std::unique_ptr<DataNode> lone = MakeSeededNode(&lone_clock);
  std::vector<NodeResponse> alone;
  for (const NodeRequest& req : reqs) {
    lone->Submit(req);
    lone->Tick();
    lone_clock.Advance(kMicrosPerSecond);
    std::vector<NodeResponse> out = lone->TakeResponses();
    ASSERT_EQ(out.size(), 1u);
    alone.push_back(std::move(out[0]));
  }

  SimClock batch_clock(0);
  std::unique_ptr<DataNode> batched = MakeSeededNode(&batch_clock);
  for (const NodeRequest& req : reqs) batched->Submit(req);
  batched->Tick();
  std::vector<NodeResponse> together = batched->TakeResponses();
  ASSERT_EQ(together.size(), reqs.size());
  std::map<uint64_t, const NodeResponse*> by_id;
  for (const NodeResponse& resp : together) by_id[resp.req_id] = &resp;

  int not_found[3] = {0, 0, 0};  // key / hash / field absent.
  int from_disk = 0;
  for (size_t i = 0; i < reqs.size(); i++) {
    const NodeRequest& req = reqs[i];
    SCOPED_TRACE("req " + std::to_string(req.req_id) + " key " + req.key);
    const NodeResponse& a = alone[i];
    ASSERT_TRUE(by_id.count(req.req_id));
    const NodeResponse& t = *by_id[req.req_id];
    const auto [status, value] = EngineRead(*lone->EngineFor(1, 0), req);
    EXPECT_EQ(a.status.ToString(), status.ToString());
    EXPECT_EQ(ValueView(a.value), value);
    EXPECT_EQ(t.status.ToString(), a.status.ToString());
    EXPECT_EQ(ValueView(t.value), ValueView(a.value));
    EXPECT_EQ(t.served_by, a.served_by);
    from_disk += a.served_by == ServedBy::kDisk;
    if (status.IsNotFound()) {
      not_found[0] += status.message() == "key absent";
      not_found[1] += status.message() == "hash absent";
      not_found[2] += status.message() == "field absent";
    }
  }
  EXPECT_GT(not_found[0], 0);
  EXPECT_GT(not_found[1], 0);
  EXPECT_GT(not_found[2], 0);
  EXPECT_GT(from_disk, 0);  // The flushed keys were read from SSTables.
}

// ------------------------------------------------ Shared read payloads --

// The newest record the engine holds for `key` (nullptr if none).
storage::ReplRecordPtr EngineRecord(storage::LsmEngine& e,
                                    std::string_view key) {
  const storage::ReplRecordPtr* slot = nullptr;
  storage::ReadIo io;
  e.MultiFind(&key, 1, &slot, &io);
  return slot != nullptr ? *slot : nullptr;
}

// One copy per value on the read path: a GET miss hands out the engine
// record's own bytes, the node-cache entry it fills holds that same
// handle, and a later cache hit serves it again — never a copy.
TEST_F(DataNodeTest, GetMissCacheFillAndHitShareTheEngineRecord) {
  storage::LsmEngine& e = *node_.EngineFor(1, 0);
  ASSERT_TRUE(e.Put("k", "hello").ok());  // Direct: no write-through.
  const storage::ReplRecordPtr rec = EngineRecord(e, "k");
  ASSERT_NE(rec, nullptr);
  const long holders = rec.use_count();

  node_.Submit(MakeGet(1, 1, 0, "k"));
  std::vector<NodeResponse> miss = TickAndDrain();
  ASSERT_EQ(miss.size(), 1u);
  EXPECT_NE(miss[0].served_by, ServedBy::kNodeCache);
  EXPECT_EQ(ValueView(miss[0].value).data(), rec->str().data());
  // The response and the node-cache entry: two more holders, no copy.
  EXPECT_EQ(rec.use_count(), holders + 2);
  miss.clear();
  EXPECT_EQ(rec.use_count(), holders + 1);  // The cache entry alone.

  node_.Submit(MakeGet(2, 1, 0, "k"));
  std::vector<NodeResponse> hit = TickAndDrain();
  ASSERT_EQ(hit.size(), 1u);
  EXPECT_EQ(hit[0].served_by, ServedBy::kNodeCache);
  EXPECT_EQ(ValueView(hit[0].value).data(), rec->str().data());
  EXPECT_EQ(ValueView(hit[0].value), "hello");
}

// The SET write-through caches the record the write built, not a copy:
// the node-cache entry is one more holder of the engine's record, a hit
// serves `rec->str()`'s bytes, and an overwrite releases the old record
// from the cache along with its memtable row.
TEST_F(DataNodeTest, SetWriteThroughSharesTheEngineRecord) {
  storage::LsmEngine& e = *node_.EngineFor(1, 0);
  node_.Submit(MakeSet(1, 1, 0, "k", "hello"));
  ASSERT_EQ(TickAndDrain().size(), 1u);
  const storage::ReplRecordPtr rec = EngineRecord(e, "k");
  ASSERT_NE(rec, nullptr);
  // A direct engine write has every holder but the cache entry.
  ASSERT_TRUE(e.Put("d", "hello").ok());
  const storage::ReplRecordPtr direct = EngineRecord(e, "d");
  ASSERT_NE(direct, nullptr);
  EXPECT_EQ(rec.use_count(), direct.use_count() + 1);

  node_.Submit(MakeGet(2, 1, 0, "k"));
  std::vector<NodeResponse> hit = TickAndDrain();
  ASSERT_EQ(hit.size(), 1u);
  EXPECT_EQ(hit[0].served_by, ServedBy::kNodeCache);
  EXPECT_EQ(ValueView(hit[0].value).data(), rec->str().data());
  EXPECT_EQ(rec.use_count(), direct.use_count() + 2);  // + the response.
  hit.clear();

  // Overwrite both keys: the node write re-points its cache entry at the
  // new record, so the old one keeps exactly the direct write's holders.
  node_.Submit(MakeSet(3, 1, 0, "k", "world"));
  ASSERT_EQ(TickAndDrain().size(), 1u);
  ASSERT_TRUE(e.Put("d", "world").ok());
  EXPECT_EQ(rec.use_count(), direct.use_count());
  EXPECT_EQ(rec->str(), "hello");  // Immutable: the old bytes stay.

  const storage::ReplRecordPtr fresh = EngineRecord(e, "k");
  ASSERT_NE(fresh, rec);
  node_.Submit(MakeGet(4, 1, 0, "k"));
  std::vector<NodeResponse> again = TickAndDrain();
  ASSERT_EQ(again.size(), 1u);
  EXPECT_EQ(again[0].served_by, ServedBy::kNodeCache);
  EXPECT_EQ(ValueView(again[0].value).data(), fresh->str().data());
  EXPECT_EQ(ValueView(again[0].value), "world");
}

// Records are immutable, so a cached handle is stale-but-valid: after
// the engine overwrites the key, flushes, compacts the old version away
// and truncates its log, the node cache keeps serving the old bytes —
// from the very record it was filled with — until a node write
// invalidates it. The handle then is the record's last owner.
TEST(DataNodeSharedValueTest, CachedHandleOutlivesOverwriteFlushCompaction) {
  SimClock clock(0);
  DataNodeOptions o = SmallNodeOptions();
  o.lsm.runs_per_level_trigger = 1;  // Two level-0 runs merge.
  DataNode node(1, o, &clock);
  node.AddReplica(1, 0, 1000, true);
  storage::LsmEngine& e = *node.EngineFor(1, 0);
  auto tick = [&] {
    node.Tick();
    clock.Advance(kMicrosPerSecond);
    return node.TakeResponses();
  };

  ASSERT_TRUE(e.Put("k", "v1").ok());
  e.Flush();
  node.Submit(MakeGet(1, 1, 0, "k"));
  std::vector<NodeResponse> first = tick();
  ASSERT_EQ(first.size(), 1u);
  EXPECT_EQ(first[0].served_by, ServedBy::kDisk);
  const SharedValue held = first[0].value;
  first.clear();
  ASSERT_NE(held, nullptr);

  ASSERT_TRUE(e.Put("k", "v2").ok());
  e.Flush();  // Second run: the trigger merges both, dropping v1.
  ASSERT_GE(e.stats().compaction_count, 1u);
  e.TruncateReplLogThrough(e.applied_seq());
  EXPECT_EQ(e.Get("k").value(), "v2");
  EXPECT_EQ(ValueView(held), "v1");
  EXPECT_EQ(held.use_count(), 2);  // The test and the node cache.

  node.Submit(MakeGet(2, 1, 0, "k"));
  std::vector<NodeResponse> stale = tick();
  ASSERT_EQ(stale.size(), 1u);
  EXPECT_EQ(stale[0].served_by, ServedBy::kNodeCache);
  EXPECT_EQ(ValueView(stale[0].value).data(), ValueView(held).data());
  stale.clear();

  // A write through the node lands the invalidation (write-through).
  node.Submit(MakeSet(3, 1, 0, "k", "v3"));
  tick();
  EXPECT_EQ(held.use_count(), 1);
  EXPECT_EQ(ValueView(held), "v1");
  node.Submit(MakeGet(4, 1, 0, "k"));
  std::vector<NodeResponse> fresh = tick();
  ASSERT_EQ(fresh.size(), 1u);
  EXPECT_EQ(ValueView(fresh[0].value), "v3");
}

// A read that dies queued (deadline expiry) drops its payload handle
// with its slab slot: it must not pin the engine record.
TEST(DataNodeSharedValueTest, ExpiredRequestReleasesItsPayload) {
  SimClock clock(0);
  DataNodeOptions o = SmallNodeOptions();
  o.wfq.io_basic_threads = 0;  // Disk reads queue and never run.
  o.wfq.io_extra_threads = 0;
  DataNode node(1, o, &clock);
  node.AddReplica(1, 0, 1000, true);
  storage::LsmEngine& e = *node.EngineFor(1, 0);
  ASSERT_TRUE(e.Put("k", "v").ok());
  e.Flush();
  e.TruncateReplLogThrough(e.applied_seq());
  const storage::ReplRecordPtr rec = EngineRecord(e, "k");
  ASSERT_NE(rec, nullptr);
  const long holders = rec.use_count();

  node.Submit(MakeGet(1, 1, 0, "k"));
  node.Tick();  // Probed (the payload is captured), then parked on disk.
  EXPECT_TRUE(node.TakeResponses().empty());
  EXPECT_EQ(rec.use_count(), holders + 1);

  std::vector<NodeResponse> out;
  for (int i = 0; i <= o.queue_timeout_ticks && out.empty(); i++) {
    clock.Advance(kMicrosPerSecond);
    node.Tick();
    out = node.TakeResponses();
  }
  ASSERT_EQ(out.size(), 1u);
  EXPECT_TRUE(out[0].status.IsResourceExhausted());
  EXPECT_EQ(out[0].value, nullptr);
  EXPECT_EQ(rec.use_count(), holders);
}

// The stale-but-valid rule holds for hash payloads too: an HGET handle
// views its field's value inside the hash record itself, so it keeps
// reading the old bytes after an HSET overwrites the field, a flush
// moves the record into a run and a compaction drops that version —
// and the record dies with its last holder.
TEST(DataNodeSharedValueTest, HashFieldHandleOutlivesOverwriteFlushCompaction) {
  SimClock clock(0);
  DataNodeOptions o = SmallNodeOptions();
  o.lsm.runs_per_level_trigger = 1;  // Two level-0 runs merge.
  DataNode node(1, o, &clock);
  node.AddReplica(1, 0, 1000, true);
  storage::LsmEngine& e = *node.EngineFor(1, 0);
  auto hash_op = [&](uint64_t id, OpType op, const std::string& field) {
    NodeRequest r = MakeGet(id, 1, 0, "h");
    r.op = op;
    r.field = field;
    node.Submit(r);
    node.Tick();
    clock.Advance(kMicrosPerSecond);
    return node.TakeResponses();
  };

  ASSERT_TRUE(e.HSet("h", "a", "old-a").ok());
  ASSERT_TRUE(e.HSet("h", "b", "old-b").ok());
  e.TruncateReplLogThrough(e.applied_seq());
  storage::ReplRecordPtr rec = EngineRecord(e, "h");
  ASSERT_NE(rec, nullptr);
  std::string_view in_record;
  ASSERT_TRUE(rec->FindField("b", &in_record));
  const long holders = rec.use_count();  // The memtable and this test.

  std::vector<NodeResponse> first = hash_op(1, OpType::kHGet, "b");
  ASSERT_EQ(first.size(), 1u);
  ASSERT_TRUE(first[0].status.ok());
  SharedValue held = first[0].value;
  first.clear();
  EXPECT_EQ(ValueView(held).data(), in_record.data());  // No copy.
  EXPECT_EQ(rec.use_count(), holders + 1);

  ASSERT_TRUE(e.HSet("h", "b", "new-b").ok());
  e.Flush();
  ASSERT_TRUE(e.HSet("h", "a", "new-a").ok());
  e.Flush();  // Second run: the trigger merges both, dropping `rec`.
  ASSERT_GE(e.stats().compaction_count, 1u);
  e.TruncateReplLogThrough(e.applied_seq());
  EXPECT_EQ(e.HGet("h", "b").value(), "new-b");
  EXPECT_EQ(ValueView(held), "old-b");
  EXPECT_EQ(rec.use_count(), 2);  // This test and the handle.

  std::vector<NodeResponse> fresh = hash_op(2, OpType::kHGet, "b");
  ASSERT_EQ(fresh.size(), 1u);
  EXPECT_EQ(ValueView(fresh[0].value), "new-b");
  std::vector<NodeResponse> all = hash_op(3, OpType::kHGetAll, "");
  ASSERT_EQ(all.size(), 1u);
  EXPECT_EQ(ValueView(all[0].value), "a=new-a\nb=new-b\n");

  rec = nullptr;
  EXPECT_EQ(held.use_count(), 1);  // The handle is the last holder.
  EXPECT_EQ(ValueView(held), "old-b");
  held = nullptr;  // Frees the record (LeakSanitizer checks the rest).
}

}  // namespace
}  // namespace node
}  // namespace abase
