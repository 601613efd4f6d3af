// Tests for the proxy plane: limited fan-out routing (Section 4.4) and
// the proxy itself (cache, quota, refresh, settlement).
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "common/clock.h"
#include "proxy/fanout_router.h"
#include "proxy/proxy.h"

namespace abase {
namespace proxy {
namespace {

// ----------------------------------------------------------- FanoutRouter --

TEST(FanoutRouterTest, KeyAffinityWithinGroup) {
  LimitedFanoutRouter router(12, 4);
  Rng rng(1);
  // All routes for one key land in the same group (proxies striped mod 4).
  std::set<uint32_t> groups;
  for (int i = 0; i < 200; i++) {
    groups.insert(router.Route("some-key", rng) % 4);
  }
  EXPECT_EQ(groups.size(), 1u);
}

TEST(FanoutRouterTest, FanoutPerKeyEqualsGroupSize) {
  LimitedFanoutRouter router(12, 4);
  EXPECT_EQ(router.FanoutPerKey(), 3u);  // 12 proxies / 4 groups.
  Rng rng(2);
  std::set<ProxyId> proxies;
  for (int i = 0; i < 500; i++) proxies.insert(router.Route("hotkey", rng));
  EXPECT_EQ(proxies.size(), 3u);
}

TEST(FanoutRouterTest, RandomModeSpreadsEverywhere) {
  LimitedFanoutRouter router(10, 5, RoutingMode::kRandom);
  EXPECT_EQ(router.FanoutPerKey(), 10u);
  Rng rng(3);
  std::set<ProxyId> proxies;
  for (int i = 0; i < 1000; i++) proxies.insert(router.Route("k", rng));
  EXPECT_EQ(proxies.size(), 10u);
}

TEST(FanoutRouterTest, FullHashPinsKeyToOneProxy) {
  LimitedFanoutRouter router(10, 3, RoutingMode::kFullHash);
  EXPECT_EQ(router.num_groups(), 10u);
  Rng rng(4);
  std::set<ProxyId> proxies;
  for (int i = 0; i < 100; i++) proxies.insert(router.Route("k", rng));
  EXPECT_EQ(proxies.size(), 1u);
}

TEST(FanoutRouterTest, GroupsClampedToProxyCount) {
  LimitedFanoutRouter router(4, 100);
  EXPECT_EQ(router.num_groups(), 4u);
  LimitedFanoutRouter router2(4, 0);
  EXPECT_EQ(router2.num_groups(), 1u);
}

TEST(FanoutRouterTest, DifferentKeysUseManyGroups) {
  LimitedFanoutRouter router(16, 8);
  Rng rng(5);
  std::set<uint32_t> groups;
  for (int i = 0; i < 500; i++) {
    groups.insert(router.Route("key" + std::to_string(i), rng) % 8);
  }
  EXPECT_GE(groups.size(), 7u);  // Nearly all groups exercised.
}

TEST(FanoutRouterTest, UnevenGroupsDifferByAtMostOne) {
  // 10 proxies, 4 groups -> sizes {3,3,2,2}. Sample heavily and verify
  // each group's observed member set matches the striped layout.
  LimitedFanoutRouter router(10, 4);
  Rng rng(6);
  std::map<uint32_t, std::set<ProxyId>> members;
  for (int k = 0; k < 200; k++) {
    std::string key = "k" + std::to_string(k);
    uint32_t group =
        static_cast<uint32_t>(router.Route(key, rng)) % 4;
    for (int i = 0; i < 50; i++) {
      members[group].insert(router.Route(key, rng));
    }
  }
  size_t min_size = 99, max_size = 0;
  for (auto& [g, m] : members) {
    min_size = std::min(min_size, m.size());
    max_size = std::max(max_size, m.size());
  }
  EXPECT_LE(max_size - min_size, 1u);
}

// ------------------------------------------------------------------ Proxy --

ProxyOptions SmallProxyOptions() {
  ProxyOptions o;
  o.cache.capacity_bytes = 64 * 1024;
  o.cache.default_ttl = 60 * kMicrosPerSecond;
  return o;
}

ClientRequest MakeGet(uint64_t id, const std::string& key) {
  ClientRequest r;
  r.req_id = id;
  r.tenant = 1;
  r.op = OpType::kGet;
  r.key = key;
  // Unit tests inspect cache-hit payloads; the proxy materializes them
  // only for tracked requests.
  r.track_outcome = true;
  return r;
}

ClientRequest MakeSet(uint64_t id, const std::string& key,
                      const std::string& value) {
  ClientRequest r;
  r.req_id = id;
  r.tenant = 1;
  r.op = OpType::kSet;
  r.key = key;
  r.value = MakeSharedValue(value);
  return r;
}

NodeResponse OkReadResponse(uint64_t id, const std::string& key,
                            const std::string& value, ServedBy served) {
  NodeResponse resp;
  resp.req_id = id;
  resp.tenant = 1;
  resp.op = OpType::kGet;
  resp.key = key;
  resp.value = MakeSharedValue(value);
  resp.value_bytes = value.size();
  resp.actual_ru = 1.0;
  resp.served_by = served;
  resp.status = Status::OK();
  return resp;
}

class ProxyTest : public ::testing::Test {
 protected:
  ProxyTest()
      : clock_(0),
        proxy_(0, 1, /*proxy_quota_ru=*/100, SmallProxyOptions(), &clock_,
               [](uint64_t) { return PartitionId{0}; }) {}
  SimClock clock_;
  Proxy proxy_;
};

TEST_F(ProxyTest, MissForwardsThenHitServesLocally) {
  auto r1 = proxy_.Handle(MakeGet(1, "k"));
  EXPECT_EQ(r1.action, ProxyHandleResult::Action::kForward);
  EXPECT_EQ(r1.forward.key, "k");

  proxy_.OnResponse(OkReadResponse(1, "k", "value", ServedBy::kDisk));

  auto r2 = proxy_.Handle(MakeGet(2, "k"));
  EXPECT_EQ(r2.action, ProxyHandleResult::Action::kServedFromCache);
  EXPECT_EQ(r2.value, "value");
  EXPECT_EQ(proxy_.stats().cache_hits, 1u);
}

TEST_F(ProxyTest, QuotaThrottlesExcess) {
  // 100 RU/s fair share => 200 autonomous. Read estimate starts >= CPU
  // floor; drive demand far beyond it.
  int throttled = 0, forwarded = 0;
  for (uint64_t i = 0; i < 3000; i++) {
    auto r = proxy_.Handle(MakeGet(i, "key" + std::to_string(i)));
    if (r.action == ProxyHandleResult::Action::kThrottled) throttled++;
    if (r.action == ProxyHandleResult::Action::kForward) forwarded++;
  }
  EXPECT_GT(throttled, 0);
  EXPECT_GT(forwarded, 0);
  EXPECT_EQ(proxy_.stats().throttled, static_cast<uint64_t>(throttled));
}

TEST_F(ProxyTest, CacheHitsBypassQuota) {
  proxy_.Handle(MakeGet(1, "hot"));
  proxy_.OnResponse(OkReadResponse(1, "hot", "v", ServedBy::kDisk));
  // Exhaust the quota entirely.
  for (uint64_t i = 0; i < 5000; i++) {
    proxy_.Handle(MakeGet(10 + i, "cold" + std::to_string(i)));
  }
  // Hot key still served despite the quota being gone.
  auto r = proxy_.Handle(MakeGet(99999, "hot"));
  EXPECT_EQ(r.action, ProxyHandleResult::Action::kServedFromCache);
}

TEST_F(ProxyTest, ClampHalvesAdmission) {
  clock_.Advance(10 * kMicrosPerSecond);
  proxy_.SetClamped(true);
  int admitted_clamped = 0;
  for (uint64_t i = 0; i < 3000; i++) {
    if (proxy_.Handle(MakeGet(i, "k" + std::to_string(i))).action ==
        ProxyHandleResult::Action::kForward) {
      admitted_clamped++;
    }
  }
  proxy_.SetClamped(false);
  // Refill happens at the restored 2x rate after unclamping.
  clock_.Advance(100 * kMicrosPerSecond);
  int admitted_free = 0;
  for (uint64_t i = 0; i < 3000; i++) {
    if (proxy_.Handle(MakeGet(40000 + i, "x" + std::to_string(i))).action ==
        ProxyHandleResult::Action::kForward) {
      admitted_free++;
    }
  }
  EXPECT_GT(admitted_free, admitted_clamped);
}

TEST_F(ProxyTest, WritesForwardWithReplicatedEstimate) {
  auto r = proxy_.Handle(MakeSet(1, "k", std::string(2048, 'x')));
  ASSERT_EQ(r.action, ProxyHandleResult::Action::kForward);
  // 1 RU x 3 replicas.
  EXPECT_DOUBLE_EQ(r.forward.estimated_ru, 3.0);
}

TEST_F(ProxyTest, RefreshFetchesGeneratedForHotExpiringKeys) {
  ProxyOptions o = SmallProxyOptions();
  o.cache.refresh_window = 20 * kMicrosPerSecond;
  o.cache.refresh_min_hits = 2;
  Proxy p(0, 1, 1000, o, &clock_,
          [](uint64_t) { return PartitionId{3}; });

  p.Handle(MakeGet(1, "hot"));
  p.OnResponse(OkReadResponse(1, "hot", "v", ServedBy::kDisk));
  p.Handle(MakeGet(2, "hot"));                // Hit 1.
  clock_.Advance(45 * kMicrosPerSecond);      // 15s to expiry.
  p.Handle(MakeGet(3, "hot"));                // Hit 2: flags refresh.
  auto fetches = p.TakeRefreshFetches();
  ASSERT_EQ(fetches.size(), 1u);
  EXPECT_EQ(fetches[0].key, "hot");
  EXPECT_EQ(fetches[0].partition, 3u);
  EXPECT_TRUE(fetches[0].background_refresh);
  // Response re-fills the cache with a fresh TTL.
  NodeResponse refresh = OkReadResponse(fetches[0].req_id, "hot", "v2",
                                        ServedBy::kDisk);
  refresh.background_refresh = true;
  p.OnResponse(refresh);
  clock_.Advance(30 * kMicrosPerSecond);  // Old TTL would have lapsed.
  auto r = p.Handle(MakeGet(4, "hot"));
  EXPECT_EQ(r.action, ProxyHandleResult::Action::kServedFromCache);
  EXPECT_EQ(r.value, "v2");
}

TEST_F(ProxyTest, SettlementRefundsOverestimate) {
  auto r1 = proxy_.Handle(MakeGet(1, "k"));
  ASSERT_EQ(r1.action, ProxyHandleResult::Action::kForward);
  NodeResponse resp = OkReadResponse(1, "k", "v", ServedBy::kNodeCache);
  resp.actual_ru = 0.1;  // Much cheaper than estimated.
  proxy_.OnResponse(resp);
  EXPECT_DOUBLE_EQ(proxy_.stats().charged_ru, 0.1);
}

TEST_F(ProxyTest, EstimatorLearnsHitRatioFromResponses) {
  for (uint64_t i = 0; i < 200; i++) {
    auto r = proxy_.Handle(MakeGet(i, "unique" + std::to_string(i)));
    if (r.action != ProxyHandleResult::Action::kForward) continue;
    proxy_.OnResponse(OkReadResponse(i, r.forward.key, "v",
                                     ServedBy::kNodeCache));
  }
  EXPECT_GT(proxy_.ru_estimator().ExpectedHitRatio(), 0.9);
}

TEST_F(ProxyTest, ReportAndResetAdmittedRu) {
  proxy_.Handle(MakeGet(1, "a"));
  double first = proxy_.ReportAndResetAdmittedRu();
  EXPECT_GT(first, 0.0);
  EXPECT_DOUBLE_EQ(proxy_.ReportAndResetAdmittedRu(), 0.0);
}

TEST_F(ProxyTest, DisabledCacheAlwaysForwards) {
  proxy_.set_cache_enabled(false);
  proxy_.Handle(MakeGet(1, "k"));
  proxy_.OnResponse(OkReadResponse(1, "k", "v", ServedBy::kDisk));
  auto r = proxy_.Handle(MakeGet(2, "k"));
  EXPECT_EQ(r.action, ProxyHandleResult::Action::kForward);
}

}  // namespace
}  // namespace proxy
}  // namespace abase
