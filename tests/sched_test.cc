// Tests for the dual-layer WFQ scheduler (Section 4.3): VFT math,
// per-tenant fairness, the four class queues, Rules 1-4, and the CPU
// layer's read batching and cancellation.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "sched/dual_layer_wfq.h"
#include "sched/wfq_queue.h"

namespace abase {
namespace sched {
namespace {

SchedRequest MakeReq(uint64_t id, TenantId tenant, double cost,
                     double quota_share, bool is_read = true,
                     RequestClass cls = RequestClass::kSmallRead) {
  SchedRequest r;
  r.req_id = id;
  r.tenant = tenant;
  r.cls = cls;
  r.is_read = is_read;
  r.cpu_cost_ru = cost;
  r.quota_share = quota_share;
  return r;
}

// -------------------------------------------------------------- WfqQueue --

TEST(WfqQueueTest, FifoForSingleTenant) {
  WfqQueue q;
  q.Push(MakeReq(1, 1, 1.0, 0.5), 1.0);
  q.Push(MakeReq(2, 1, 1.0, 0.5), 1.0);
  q.Push(MakeReq(3, 1, 1.0, 0.5), 1.0);
  EXPECT_EQ(q.Pop().req_id, 1u);
  EXPECT_EQ(q.Pop().req_id, 2u);
  EXPECT_EQ(q.Pop().req_id, 3u);
}

TEST(WfqQueueTest, HigherQuotaShareServedMoreOften) {
  WfqQueue q;
  // Tenant 1 has 3x the quota share of tenant 2; equal request costs.
  for (uint64_t i = 0; i < 40; i++) {
    q.Push(MakeReq(100 + i, 1, 1.0, 0.75), 1.0);
    q.Push(MakeReq(200 + i, 2, 1.0, 0.25), 1.0);
  }
  std::map<TenantId, int> served;
  for (int i = 0; i < 40; i++) served[q.Pop().tenant]++;
  // Tenant 1 should get ~3x the service of tenant 2 in the first 40 pops.
  EXPECT_GT(served[1], served[2]);
  EXPECT_NEAR(static_cast<double>(served[1]) / served[2], 3.0, 1.0);
}

TEST(WfqQueueTest, CheapRequestsDoNotStarveExpensiveTenant) {
  WfqQueue q;
  // Tenant 1: many cheap requests; tenant 2: few expensive ones. Equal
  // shares: tenant 2 must still be served at cost parity, not count
  // parity.
  for (uint64_t i = 0; i < 100; i++) q.Push(MakeReq(i, 1, 1.0, 0.5), 1.0);
  for (uint64_t i = 0; i < 10; i++) {
    q.Push(MakeReq(1000 + i, 2, 10.0, 0.5), 10.0);
  }
  double t1_cost = 0, t2_cost = 0;
  for (int i = 0; i < 60; i++) {
    SchedRequest r = q.Pop();
    (r.tenant == 1 ? t1_cost : t2_cost) += r.cpu_cost_ru;
  }
  EXPECT_NEAR(t1_cost, t2_cost, 11.0);  // Within one large request.
}

TEST(WfqQueueTest, CumulativeVftPreventsPriorityLock) {
  // Paper: "the VFT for all requests from the same tenant is cumulative,
  // preventing scenarios where a single tenant's requests are consistently
  // prioritized, even with a larger partition quota".
  WfqQueue q;
  for (uint64_t i = 0; i < 50; i++) q.Push(MakeReq(i, 1, 1.0, 0.9), 1.0);
  q.Push(MakeReq(999, 2, 1.0, 0.1), 1.0);
  // Tenant 2's single request must be served well before tenant 1 drains.
  bool t2_served = false;
  for (int i = 0; i < 15 && !t2_served; i++) {
    t2_served = q.Pop().tenant == 2;
  }
  EXPECT_TRUE(t2_served);
}

TEST(WfqQueueTest, IdleTenantResumesAtVirtualTime) {
  WfqQueue q;
  // Tenant 1 works for a while, advancing virtual time.
  for (uint64_t i = 0; i < 20; i++) q.Push(MakeReq(i, 1, 1.0, 0.5), 1.0);
  for (int i = 0; i < 20; i++) q.Pop();
  double vt = q.VirtualTime();
  EXPECT_GT(vt, 0);
  // Tenant 2 was idle the whole time. Its first request starts at the
  // current virtual time, not at zero — no unfair catch-up burst.
  q.Push(MakeReq(100, 2, 1.0, 0.5), 1.0);
  q.Push(MakeReq(101, 1, 1.0, 0.5), 1.0);
  EXPECT_GE(q.PeekVft(), vt);
}

TEST(WfqQueueTest, ReinsertPreservesVft) {
  WfqQueue q;
  q.Push(MakeReq(1, 1, 1.0, 0.5), 1.0);
  q.Push(MakeReq(2, 2, 5.0, 0.5), 5.0);
  double vft;
  SchedRequest r = q.PopWithVft(&vft);
  EXPECT_EQ(r.req_id, 1u);
  q.Reinsert(r, vft);
  // Reinserted request keeps its place at the head.
  EXPECT_EQ(q.Pop().req_id, 1u);
}

// ---------------------------------------------------------- DualLayerWfq --

DualWfqOptions SmallWfqOptions() {
  DualWfqOptions o;
  o.cpu_budget_ru = 100;
  o.read_concurrency = 1000;
  o.write_concurrency = 1000;
  o.write_ru_ceiling = 50;
  o.io_basic_threads = 2;
  o.io_extra_threads = 1;
  o.io_blocks_per_thread = 10;
  return o;
}

// Runs one tick in which every probe answers `probe` and nothing is
// canceled.
TickStats RunTickWith(DualLayerWfq& wfq, CacheProbe probe,
                      const DualLayerWfq::CompleteFn& complete) {
  return wfq.RunTick(
      [probe](const SchedRequest*, size_t n, CacheProbe* out) {
        std::fill(out, out + n, probe);
      },
      [](const SchedRequest&) { return false; }, complete);
}

struct Recorder {
  std::map<uint64_t, SchedOutcome> outcomes;
  DualLayerWfq::CompleteFn Fn() {
    return [this](const SchedRequest& r, SchedOutcome o) {
      outcomes[r.req_id] = o;
    };
  }
};

TEST(DualLayerWfqTest, CacheHitCompletesAtCpuLayer) {
  DualLayerWfq wfq(SmallWfqOptions());
  wfq.Enqueue(MakeReq(1, 1, 1.0, 1.0));
  Recorder rec;
  TickStats stats = RunTickWith(
      wfq, CacheProbe{/*hit=*/true, /*needs_io=*/false, 0}, rec.Fn());
  EXPECT_EQ(rec.outcomes[1], SchedOutcome::kServedFromCache);
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_EQ(stats.io_scheduled, 0u);
}

TEST(DualLayerWfqTest, MissGoesThroughIoLayer) {
  DualLayerWfq wfq(SmallWfqOptions());
  wfq.Enqueue(MakeReq(1, 1, 1.0, 1.0));
  Recorder rec;
  TickStats stats = RunTickWith(wfq, CacheProbe{false, true, 3}, rec.Fn());
  EXPECT_EQ(rec.outcomes[1], SchedOutcome::kServedFromDisk);
  EXPECT_EQ(stats.io_scheduled, 1u);
  EXPECT_EQ(stats.io_blocks_used, 3u);
}

TEST(DualLayerWfqTest, WriteCompletesAtCpuWithoutIo) {
  DualLayerWfq wfq(SmallWfqOptions());
  wfq.Enqueue(MakeReq(1, 1, 1.0, 1.0, /*is_read=*/false,
                      RequestClass::kSmallWrite));
  Recorder rec;
  RunTickWith(wfq, CacheProbe{false, false, 0}, rec.Fn());
  EXPECT_EQ(rec.outcomes[1], SchedOutcome::kServedFromCpu);
}

TEST(DualLayerWfqTest, CpuBudgetDefersExcess) {
  DualLayerWfq wfq(SmallWfqOptions());  // Budget 100 RU.
  for (uint64_t i = 0; i < 30; i++) {
    wfq.Enqueue(MakeReq(i, 1, 10.0, 1.0));  // 300 RU total.
  }
  Recorder rec;
  RunTickWith(wfq, CacheProbe{true, false, 0}, rec.Fn());
  // ~10 requests fit in the 100-RU budget; the rest stay queued.
  EXPECT_LE(rec.outcomes.size(), 11u);
  EXPECT_GT(wfq.PendingCount(), 0u);
  // Next tick serves more.
  RunTickWith(wfq, CacheProbe{true, false, 0}, rec.Fn());
  EXPECT_GT(rec.outcomes.size(), 11u);
}

TEST(DualLayerWfqTest, Rule2WriteRuCeiling) {
  DualWfqOptions o = SmallWfqOptions();
  o.write_ru_ceiling = 20;
  DualLayerWfq wfq(o);
  for (uint64_t i = 0; i < 10; i++) {
    wfq.Enqueue(MakeReq(i, 1, 10.0, 1.0, false, RequestClass::kSmallWrite));
  }
  Recorder rec;
  RunTickWith(wfq, CacheProbe{false, false, 0}, rec.Fn());
  // Only ceiling/cost = 2 writes may run this tick despite CPU headroom.
  EXPECT_LE(rec.outcomes.size(), 2u);
}

TEST(DualLayerWfqTest, Rule2ConcurrencyLimits) {
  DualWfqOptions o = SmallWfqOptions();
  o.read_concurrency = 5;
  DualLayerWfq wfq(o);
  for (uint64_t i = 0; i < 20; i++) wfq.Enqueue(MakeReq(i, 1, 1.0, 1.0));
  Recorder rec;
  RunTickWith(wfq, CacheProbe{true, false, 0}, rec.Fn());
  EXPECT_EQ(rec.outcomes.size(), 5u);
}

TEST(DualLayerWfqTest, Rule3SingleTenantCpuCap) {
  DualWfqOptions o = SmallWfqOptions();
  o.cpu_budget_ru = 100;
  o.single_tenant_cpu_cap = 0.9;
  DualLayerWfq wfq(o);
  // Tenant 1 floods; tenant 2 sends a little.
  for (uint64_t i = 0; i < 30; i++) wfq.Enqueue(MakeReq(i, 1, 10.0, 0.95));
  for (uint64_t i = 0; i < 2; i++) {
    wfq.Enqueue(MakeReq(100 + i, 2, 1.0, 0.05));
  }
  Recorder rec;
  TickStats stats = RunTickWith(wfq, CacheProbe{true, false, 0}, rec.Fn());
  // Tenant 1 capped at 90 RU (9 requests); tenant 2 fully served.
  double t1_ru = 0;
  int t2_served = 0;
  for (const auto& [id, o2] : rec.outcomes) {
    if (id >= 100) {
      t2_served++;
    } else {
      t1_ru += 10.0;
    }
  }
  EXPECT_LE(t1_ru, 90.0);
  EXPECT_EQ(t2_served, 2);
  EXPECT_GT(stats.rule3_deferrals, 0u);
}

TEST(DualLayerWfqTest, Rule4ExtraThreadsServeOtherTenants) {
  DualWfqOptions o = SmallWfqOptions();
  o.io_basic_threads = 1;
  o.io_blocks_per_thread = 10;  // Basic budget: 10 blocks.
  o.io_extra_threads = 1;       // Extra budget: 10 blocks.
  DualLayerWfq wfq(o);
  // Tenant 1 monopolizes: 20 x 1-block IO requests with a dominant quota
  // share, so the whole basic budget goes to it in VFT order; tenant 2's
  // two requests land beyond the basic budget.
  for (uint64_t i = 0; i < 20; i++) wfq.Enqueue(MakeReq(i, 1, 1.0, 0.99));
  for (uint64_t i = 0; i < 2; i++) {
    wfq.Enqueue(MakeReq(100 + i, 2, 1.0, 0.01));
  }
  Recorder rec;
  TickStats stats = RunTickWith(wfq, CacheProbe{false, true, 1}, rec.Fn());
  // Tenant 2's requests are served via extra threads even though tenant 1
  // consumed the whole basic budget.
  EXPECT_TRUE(stats.extra_threads_active);
  EXPECT_TRUE(rec.outcomes.count(100));
  EXPECT_TRUE(rec.outcomes.count(101));
  EXPECT_GT(stats.rule4_extra_served, 0u);
}

TEST(DualLayerWfqTest, NoMonopolyNoExtraThreads) {
  DualWfqOptions o = SmallWfqOptions();
  o.io_basic_threads = 1;
  o.io_blocks_per_thread = 10;
  DualLayerWfq wfq(o);
  // Two tenants split the IO load evenly: extra threads must stay idle.
  for (uint64_t i = 0; i < 10; i++) {
    wfq.Enqueue(MakeReq(i, 1, 1.0, 0.5));
    wfq.Enqueue(MakeReq(100 + i, 2, 1.0, 0.5));
  }
  Recorder rec;
  TickStats stats = RunTickWith(wfq, CacheProbe{false, true, 1}, rec.Fn());
  EXPECT_FALSE(stats.extra_threads_active);
}

TEST(DualLayerWfqTest, FourClassesIsolateSizes) {
  DualWfqOptions o = SmallWfqOptions();
  o.cpu_budget_ru = 1000;
  DualLayerWfq wfq(o);
  // A huge large-read backlog must not delay small reads: each class has
  // its own queue and the round-robin visits all of them.
  for (uint64_t i = 0; i < 50; i++) {
    wfq.Enqueue(MakeReq(i, 1, 10.0, 0.5, true, RequestClass::kLargeRead));
  }
  wfq.Enqueue(MakeReq(500, 2, 1.0, 0.5, true, RequestClass::kSmallRead));
  Recorder rec;
  RunTickWith(wfq, CacheProbe{true, false, 0}, rec.Fn());
  EXPECT_TRUE(rec.outcomes.count(500));
}

// ------------------------------------------------------- Read batching --

SchedRequest KeyedReq(uint64_t id, uint64_t key_hash, double cost = 1.0,
                      bool is_read = true,
                      RequestClass cls = RequestClass::kSmallRead) {
  SchedRequest r = MakeReq(id, 1, cost, 1.0, is_read, cls);
  r.key_hash = key_hash;
  return r;
}

// Records the tick as a sequence of events: "probe:<ids>" per probe call
// and "done:<id>" per completion. Every probe answers "served at the CPU
// layer", so every completion happens within its batch's flush.
struct BatchLog {
  std::vector<std::string> events;
  std::vector<size_t> sizes;
  std::set<uint64_t> canceled_ids;

  TickStats Run(DualLayerWfq& wfq) {
    return wfq.RunTick(
        [this](const SchedRequest* reqs, size_t n, CacheProbe* out) {
          std::string e = "probe:";
          for (size_t i = 0; i < n; i++) {
            e += (i > 0 ? "," : "") + std::to_string(reqs[i].req_id);
            out[i] = CacheProbe{false, false, 0};
          }
          events.push_back(e);
          sizes.push_back(n);
        },
        [this](const SchedRequest& r) {
          return canceled_ids.count(r.req_id) > 0;
        },
        [this](const SchedRequest& r, SchedOutcome) {
          events.push_back("done:" + std::to_string(r.req_id));
        });
  }
};

TEST(DualLayerWfqBatchTest, RepeatedKeyFlushesBeforeTheRepeat) {
  DualLayerWfq wfq(SmallWfqOptions());
  // Pop order is id order (one tenant, one class). Request 4 repeats
  // request 2's key, so it must be probed only after 2 completed.
  const uint64_t keys[] = {11, 12, 13, 12, 14};
  for (uint64_t i = 0; i < 5; i++) wfq.Enqueue(KeyedReq(i + 1, keys[i]));
  BatchLog log;
  log.Run(wfq);
  EXPECT_EQ(log.sizes, (std::vector<size_t>{3, 2}));
  EXPECT_EQ(log.events,
            (std::vector<std::string>{"probe:1,2,3", "done:1", "done:2",
                                      "done:3", "probe:4,5", "done:4",
                                      "done:5"}));
}

TEST(DualLayerWfqBatchTest, WriteIsProbedAloneAfterPriorReadsFlush) {
  DualLayerWfq wfq(SmallWfqOptions());
  // Reads at VFT 1, 2, 3, 4; the write (its own class queue) at VFT 2.5,
  // so the pop order is 1, 2, 9, 3, 4.
  for (uint64_t i = 1; i <= 4; i++) wfq.Enqueue(KeyedReq(i, 100 + i));
  wfq.Enqueue(KeyedReq(9, 200, 2.5, /*is_read=*/false,
                       RequestClass::kSmallWrite));
  BatchLog log;
  log.Run(wfq);
  EXPECT_EQ(log.sizes, (std::vector<size_t>{2, 1, 2}));
  EXPECT_EQ(log.events,
            (std::vector<std::string>{"probe:1,2", "done:1", "done:2",
                                      "probe:9", "done:9", "probe:3,4",
                                      "done:3", "done:4"}));
}

TEST(DualLayerWfqBatchTest, SeventeenDistinctReadsArriveAsSixteenPlusOne) {
  DualLayerWfq wfq(SmallWfqOptions());
  for (uint64_t i = 1; i <= 17; i++) wfq.Enqueue(KeyedReq(i, 100 + i));
  BatchLog log;
  TickStats stats = log.Run(wfq);
  EXPECT_EQ(log.sizes, (std::vector<size_t>{16, 1}));
  EXPECT_EQ(stats.cpu_scheduled, 17u);
}

TEST(DualLayerWfqBatchTest, CanceledPopsConsumeNothing) {
  // Budget and read concurrency fit exactly four 10-RU reads. Of six
  // queued reads, 2 and 4 are canceled: the four live ones must all run,
  // which they can only if the canceled pops were never charged.
  DualWfqOptions o = SmallWfqOptions();
  o.cpu_budget_ru = 40;
  o.read_concurrency = 4;
  o.single_tenant_cpu_cap = 1.0;
  DualLayerWfq wfq(o);
  for (uint64_t i = 1; i <= 6; i++) wfq.Enqueue(KeyedReq(i, 100 + i, 10.0));
  BatchLog log;
  log.canceled_ids = {2, 4};
  TickStats stats = log.Run(wfq);
  EXPECT_EQ(log.events,
            (std::vector<std::string>{"probe:1,3,5,6", "done:1", "done:3",
                                      "done:5", "done:6"}));
  EXPECT_EQ(stats.cpu_scheduled, 4u);
  EXPECT_DOUBLE_EQ(stats.cpu_ru_used, 40.0);
  EXPECT_EQ(wfq.PendingCount(), 0u);
}

// Property sweep: with two tenants at a quota ratio r and saturated
// demand, served RU must approximate the ratio r.
class WfqFairnessTest
    : public ::testing::TestWithParam<std::pair<double, double>> {};

TEST_P(WfqFairnessTest, ServedRuMatchesQuotaRatio) {
  auto [share1, share2] = GetParam();
  DualWfqOptions o = SmallWfqOptions();
  o.cpu_budget_ru = 200;
  o.single_tenant_cpu_cap = 1.0;  // Isolate pure WFQ behaviour.
  DualLayerWfq wfq(o);

  double served1 = 0, served2 = 0;
  auto complete = [&](const SchedRequest& r, SchedOutcome) {
    (r.tenant == 1 ? served1 : served2) += r.cpu_cost_ru;
  };
  for (int tick = 0; tick < 20; tick++) {
    // Both tenants stay saturated: per-tenant arrivals exceed what WFQ can
    // serve them, so the service ratio reflects pure quota weighting.
    for (uint64_t i = 0; i < 250; i++) {
      wfq.Enqueue(MakeReq(tick * 10000 + i, 1, 1.0, share1));
      wfq.Enqueue(
          MakeReq(tick * 10000 + 5000 + i, 2, 1.0, share2));
    }
    RunTickWith(wfq, CacheProbe{true, false, 0}, complete);
  }
  double expected_ratio = share1 / share2;
  EXPECT_NEAR(served1 / served2, expected_ratio, expected_ratio * 0.15);
}

INSTANTIATE_TEST_SUITE_P(
    QuotaRatios, WfqFairnessTest,
    ::testing::Values(std::make_pair(0.5, 0.5), std::make_pair(0.6, 0.3),
                      std::make_pair(0.8, 0.2), std::make_pair(0.75, 0.25)));

}  // namespace
}  // namespace sched
}  // namespace abase
