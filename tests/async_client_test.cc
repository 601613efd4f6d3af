// Tests for the asynchronous command API (core/abase.h):
//  * Submit returns an unresolved Future that Step()/Drain() resolve;
//  * SubmitBatch agrees with the synchronous MGet adapter;
//  * concurrent client sessions of one tenant draw from disjoint
//    request-id sub-spaces (the historical collision bug);
//  * sync adapters keep their lock-step observable behavior;
//  * abandoned tracked outcomes are swept after SimOptions::outcome_ttl_ticks.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/abase.h"
#include "sim/cluster_sim.h"

namespace abase {
namespace {

meta::TenantConfig AsyncTenant(TenantId id, double quota = 100000) {
  meta::TenantConfig c;
  c.id = id;
  c.name = "async-t" + std::to_string(id);
  c.tenant_quota_ru = quota;
  c.num_partitions = 4;
  c.num_proxies = 4;
  c.num_proxy_groups = 2;
  return c;
}

TEST(AsyncClientTest, SubmitResolvesThroughStep) {
  Cluster cluster;
  PoolId pool = cluster.CreatePool(3);
  ASSERT_TRUE(cluster.CreateTenant(AsyncTenant(1), pool).ok());
  Client client = cluster.OpenClient(1);

  Future<Reply> set = client.Submit(Command::Set("alpha", "one"));
  EXPECT_TRUE(set.valid());
  EXPECT_FALSE(set.ready());  // Submit never advances time.
  EXPECT_EQ(cluster.PendingCommands(), 1u);
  EXPECT_EQ(cluster.sim().clock().NowMicros(), 0);
  cluster.Drain();
  ASSERT_TRUE(set.ready());

  // Reads issued after the write settled; both ride the same ticks.
  Future<Reply> get = client.Submit(Command::Get("alpha"));
  Future<Reply> missing = client.Submit(Command::Get("nope"));
  EXPECT_EQ(cluster.PendingCommands(), 2u);
  size_t ticks = cluster.Drain();
  EXPECT_GT(ticks, 0u);
  EXPECT_EQ(cluster.PendingCommands(), 0u);
  ASSERT_TRUE(set.ready());
  ASSERT_TRUE(get.ready());
  ASSERT_TRUE(missing.ready());
  EXPECT_TRUE(set->ok());
  EXPECT_TRUE(get->ok());
  EXPECT_EQ(get->value, "one");
  EXPECT_TRUE(missing->status.IsNotFound());
  // Both commands spent at least one tick in flight.
  EXPECT_GE(get->LatencyTicks(), 1u);
  EXPECT_LE(get->issued_at, get->completed_at);
}

TEST(AsyncClientTest, SubmitBatchMatchesSyncMGet) {
  Cluster cluster;
  PoolId pool = cluster.CreatePool(3);
  ASSERT_TRUE(cluster.CreateTenant(AsyncTenant(1), pool).ok());
  Client client = cluster.OpenClient(1);

  std::vector<std::pair<std::string, std::string>> pairs;
  for (int i = 0; i < 8; i++) {
    pairs.emplace_back("b:" + std::to_string(i), "v" + std::to_string(i));
  }
  for (const Status& st : client.MSet(pairs)) ASSERT_TRUE(st.ok());

  std::vector<std::string> keys;
  std::vector<Command> cmds;
  for (int i = 0; i < 8; i++) {
    keys.push_back("b:" + std::to_string(i));
    cmds.push_back(Command::Get("b:" + std::to_string(i)));
  }
  keys.push_back("b:missing");
  cmds.push_back(Command::Get("b:missing"));

  std::vector<Future<Reply>> futures = client.SubmitBatch(std::move(cmds));
  ASSERT_EQ(futures.size(), 9u);
  cluster.Drain();
  std::vector<Result<std::string>> sync = client.MGet(keys);
  ASSERT_EQ(sync.size(), futures.size());
  for (size_t i = 0; i < futures.size(); i++) {
    ASSERT_TRUE(futures[i].ready()) << i;
    EXPECT_EQ(futures[i]->status.code(), sync[i].status().code()) << i;
    if (futures[i]->ok()) {
      EXPECT_EQ(futures[i]->value, sync[i].value()) << i;
    }
  }
  EXPECT_TRUE(futures[8]->status.IsNotFound());
}

TEST(AsyncClientTest, MSetAndMDelBatchRoundTrip) {
  // MSet and MDel ride the same batched-submission core as MGet: the
  // whole batch is injected before any tick runs. Statuses come back
  // in input order, and the deletes are observable afterwards.
  Cluster cluster;
  PoolId pool = cluster.CreatePool(3);
  ASSERT_TRUE(cluster.CreateTenant(AsyncTenant(1), pool).ok());
  Client client = cluster.OpenClient(1);

  std::vector<std::pair<std::string, std::string>> pairs;
  std::vector<std::string> keys;
  for (int i = 0; i < 6; i++) {
    keys.push_back("md:" + std::to_string(i));
    pairs.emplace_back(keys.back(), "v" + std::to_string(i));
  }
  std::vector<Status> set_status = client.MSet(pairs);
  ASSERT_EQ(set_status.size(), pairs.size());
  for (const Status& st : set_status) EXPECT_TRUE(st.ok());

  std::vector<Status> del_status = client.MDel(keys);
  ASSERT_EQ(del_status.size(), keys.size());
  for (const Status& st : del_status) EXPECT_TRUE(st.ok());
  for (const std::string& key : keys) {
    EXPECT_TRUE(client.Get(key).status().IsNotFound()) << key;
  }
}

// A command's value is copied once, into a block that the proxy forward,
// the node's pending slot and the engine's write then share, so the bytes
// must come back exactly as sent: embedded NULs, every byte value, and
// a 1 MiB payload, through Set and the batched MSet.
TEST(AsyncClientTest, ArbitraryValueBytesRoundTripExactly) {
  Cluster cluster;
  PoolId pool = cluster.CreatePool(3);
  ASSERT_TRUE(cluster.CreateTenant(AsyncTenant(1), pool).ok());
  Client client = cluster.OpenClient(1);

  const std::string with_nul("a\0b\0\0c\0", 7);
  std::string every_byte;
  for (int b = 255; b >= 0; b--) every_byte.push_back(static_cast<char>(b));
  std::string mib(1 << 20, '\0');
  for (size_t i = 0; i < mib.size(); i++) {
    mib[i] = static_cast<char>((i * 131 + i / 4096) & 0xff);
  }
  const std::vector<std::pair<std::string, std::string>> values = {
      {"nul", with_nul}, {"bytes", every_byte}, {"mib", mib}};

  std::vector<std::pair<std::string, std::string>> batch;
  for (const auto& [key, value] : values) {
    ASSERT_TRUE(client.Set("set:" + key, value).ok()) << key;
    batch.emplace_back("mset:" + key, value);
  }
  for (const Status& st : client.MSet(batch)) ASSERT_TRUE(st.ok());

  for (const auto& [key, value] : values) {
    for (const char* prefix : {"set:", "mset:"}) {
      Result<std::string> got = client.Get(prefix + key);
      ASSERT_TRUE(got.ok()) << prefix << key;
      EXPECT_EQ(got->size(), value.size()) << prefix << key;
      EXPECT_TRUE(*got == value) << prefix << key << " bytes differ";
    }
  }
}

TEST(AsyncClientTest, ConcurrentSessionsUseDisjointIdSubSpaces) {
  // Historically both OpenClient(tenant) sessions started their request
  // ids at the same value, so two sessions with commands in flight
  // corrupted each other's entries in the shared in-flight table. Each
  // session now gets a cluster-allocated id sub-space.
  Cluster cluster;
  PoolId pool = cluster.CreatePool(3);
  ASSERT_TRUE(cluster.CreateTenant(AsyncTenant(1), pool).ok());
  Client a = cluster.OpenClient(1);
  Client b = cluster.OpenClient(1);

  // Both sessions submit their very first commands together — with the
  // old scheme each pair below would have shared one request id.
  Future<Reply> a_set = a.Submit(Command::Set("from:a", "aaa"));
  Future<Reply> b_set = b.Submit(Command::Set("from:b", "bbb"));
  EXPECT_EQ(cluster.PendingCommands(), 2u);
  cluster.Drain();
  ASSERT_TRUE(a_set.ready());
  ASSERT_TRUE(b_set.ready());
  EXPECT_TRUE(a_set->ok());
  EXPECT_TRUE(b_set->ok());

  Future<Reply> a_get = a.Submit(Command::Get("from:a"));
  Future<Reply> b_get = b.Submit(Command::Get("from:b"));
  cluster.Drain();
  ASSERT_TRUE(a_get.ready());
  ASSERT_TRUE(b_get.ready());
  ASSERT_TRUE(a_get->ok());
  ASSERT_TRUE(b_get->ok());
  EXPECT_EQ(a_get->value, "aaa");
  EXPECT_EQ(b_get->value, "bbb");
}

TEST(AsyncClientTest, SyncAdaptersKeepLockStepBehavior) {
  // The synchronous methods are submit-then-drain adapters; their
  // observable contract is unchanged: each call advances the simulation
  // and returns the settled result.
  Cluster cluster;
  PoolId pool = cluster.CreatePool(3);
  ASSERT_TRUE(cluster.CreateTenant(AsyncTenant(1), pool).ok());
  Client client = cluster.OpenClient(1);

  Micros before = cluster.sim().clock().NowMicros();
  ASSERT_TRUE(client.Set("user:1", "alice").ok());
  EXPECT_GT(cluster.sim().clock().NowMicros(), before);  // Time advanced.
  auto v = client.Get("user:1");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v.value(), "alice");
  EXPECT_TRUE(client.Get("user:none").status().IsNotFound());
  ASSERT_TRUE(client.HSet("h", "f", "x").ok());
  auto len = client.HLen("h");
  ASSERT_TRUE(len.ok());
  EXPECT_EQ(len.value(), 1u);
  ASSERT_TRUE(client.Del("user:1").ok());
  EXPECT_TRUE(client.Get("user:1").status().IsNotFound());
  // No stragglers left behind by the adapters.
  EXPECT_EQ(cluster.PendingCommands(), 0u);
  EXPECT_EQ(cluster.sim().OutcomeSubscriptionCount(), 0u);
}

TEST(AsyncClientTest, HundredsOfCommandsInFlightAcrossManyClients) {
  Cluster cluster;
  PoolId pool = cluster.CreatePool(4);
  ASSERT_TRUE(cluster.CreateTenant(AsyncTenant(1, 500000), pool).ok());
  cluster.sim().PreloadKeys(1, 256, 64);

  constexpr int kClients = 32;
  constexpr int kDepth = 8;
  std::vector<Client> clients;
  for (int c = 0; c < kClients; c++) clients.push_back(cluster.OpenClient(1));

  std::vector<Future<Reply>> futures;
  for (int c = 0; c < kClients; c++) {
    std::vector<Command> cmds;
    for (int d = 0; d < kDepth; d++) {
      cmds.push_back(
          Command::Get("t1:k" + std::to_string((c * kDepth + d) % 256)));
    }
    for (auto& f : clients[c].SubmitBatch(std::move(cmds))) {
      futures.push_back(std::move(f));
    }
  }
  EXPECT_EQ(cluster.PendingCommands(),
            static_cast<size_t>(kClients * kDepth));
  cluster.Drain();
  EXPECT_EQ(cluster.PendingCommands(), 0u);
  for (const auto& f : futures) {
    ASSERT_TRUE(f.ready());
    EXPECT_TRUE(f->ok());
    EXPECT_FALSE(f->value.empty());
  }
}

TEST(AsyncClientTest, UnknownTenantResolvesInsteadOfStranding) {
  // A command for a tenant that was never created must still resolve its
  // future (Unavailable), not strand the subscription and pending count.
  Cluster cluster;
  PoolId pool = cluster.CreatePool(3);
  ASSERT_TRUE(cluster.CreateTenant(AsyncTenant(1), pool).ok());
  Client ghost = cluster.OpenClient(99);  // No such tenant.

  Future<Reply> f = ghost.Submit(Command::Get("k"));
  cluster.Drain();
  ASSERT_TRUE(f.ready());
  EXPECT_TRUE(f->status.IsUnavailable());
  EXPECT_EQ(cluster.PendingCommands(), 0u);
  EXPECT_EQ(cluster.sim().OutcomeSubscriptionCount(), 0u);
}

// ------------------------------------------------------ Outcome TTL sweep --

TEST(OutcomeSweepTest, AbandonedOutcomesAreSweptAfterTtl) {
  sim::SimOptions opt;
  opt.outcome_ttl_ticks = 8;
  sim::ClusterSim sim(opt);
  PoolId pool = sim.AddPool(3);
  ASSERT_TRUE(sim.AddTenant(AsyncTenant(1), pool).ok());

  ClientRequest req;
  req.req_id = 777;
  req.tenant = 1;
  req.op = OpType::kSet;
  req.key = "leak";
  req.value = MakeSharedValue("v");
  req.track_outcome = true;
  sim.InjectRequest(req);
  sim.RunTicks(2);
  // Settled but never collected: parked in the outcome table.
  EXPECT_EQ(sim.TrackedOutcomeCount(), 1u);

  // Still collectable before the TTL...
  sim.RunTicks(2);
  EXPECT_EQ(sim.TrackedOutcomeCount(), 1u);

  // ...and dropped once it has sat uncollected for outcome_ttl_ticks.
  sim.RunTicks(10);
  EXPECT_EQ(sim.TrackedOutcomeCount(), 0u);
  EXPECT_FALSE(sim.TakeOutcome(777).has_value());
}

TEST(OutcomeSweepTest, CollectedBeforeTtlStillWorks) {
  sim::SimOptions opt;
  opt.outcome_ttl_ticks = 8;
  sim::ClusterSim sim(opt);
  PoolId pool = sim.AddPool(3);
  ASSERT_TRUE(sim.AddTenant(AsyncTenant(1), pool).ok());

  ClientRequest req;
  req.req_id = 778;
  req.tenant = 1;
  req.op = OpType::kSet;
  req.key = "kept";
  req.value = MakeSharedValue("v");
  req.track_outcome = true;
  sim.InjectRequest(req);
  sim.RunTicks(3);
  auto out = sim.TakeOutcome(778);
  ASSERT_TRUE(out.has_value());
  EXPECT_TRUE(out->status.ok());
  EXPECT_EQ(sim.TrackedOutcomeCount(), 0u);
}

TEST(OutcomeSweepTest, ZeroTtlKeepsOutcomesForever) {
  sim::SimOptions opt;
  opt.outcome_ttl_ticks = 0;
  sim::ClusterSim sim(opt);
  PoolId pool = sim.AddPool(3);
  ASSERT_TRUE(sim.AddTenant(AsyncTenant(1), pool).ok());

  ClientRequest req;
  req.req_id = 779;
  req.tenant = 1;
  req.op = OpType::kSet;
  req.key = "pinned";
  req.value = MakeSharedValue("v");
  req.track_outcome = true;
  sim.InjectRequest(req);
  sim.RunTicks(40);
  EXPECT_EQ(sim.TrackedOutcomeCount(), 1u);
  EXPECT_TRUE(sim.TakeOutcome(779).has_value());
}

}  // namespace
}  // namespace abase
