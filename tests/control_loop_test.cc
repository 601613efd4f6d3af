// Tests for the closed-loop serverless control plane (the Control
// pipeline stage): hourly usage roll-up, predictive/reactive autoscaling
// applied live through the MetaServer, online partition splits that move
// real data (staged children, throttled streaming, window replay, atomic
// cutover, parent purge), and throttled background rescheduling.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "cluster_sim_test_peer.h"
#include "common/hash.h"
#include "common/rng.h"
#include "meta/meta_server.h"
#include "sim/cluster_sim.h"
#include "sim/workload.h"
#include "storage/lsm_engine.h"

namespace abase {
namespace {

meta::TenantConfig ControlTenant(TenantId id, double quota,
                                 uint32_t partitions = 4,
                                 double upper = 1e9) {
  meta::TenantConfig c;
  c.id = id;
  c.name = "t" + std::to_string(id);
  c.tenant_quota_ru = quota;
  c.num_partitions = partitions;
  c.num_proxies = 2;
  c.num_proxy_groups = 1;
  c.partition_quota_upper = upper;
  c.partition_quota_lower = 1;
  return c;
}

// --------------------------------------------------------- Usage roll-up --

TEST(ControlLoopTest, HourlyUsageRollupMatchesSettledRu) {
  sim::SimOptions opt;
  opt.seed = 41;
  opt.control_interval_ticks = 4;
  opt.control_ticks_per_hour = 5;
  sim::ClusterSim sim(opt);
  PoolId pool = sim.AddPool(3);
  ASSERT_TRUE(sim.AddTenant(ControlTenant(1, 50000), pool).ok());
  sim.PreloadKeys(1, 200, 64);
  sim::WorkloadProfile profile;
  profile.base_qps = 200;
  profile.read_ratio = 0.8;
  profile.num_keys = 200;
  profile.value_bytes = 64;
  sim.SetWorkload(1, profile);

  sim.RunTicks(23);  // 4 complete control-plane hours + 3 ticks.

  const TimeSeries* usage = sim.UsageHistory(1);
  ASSERT_NE(usage, nullptr);
  ASSERT_EQ(usage->size(), 4u);
  const auto& history = sim.History(1);
  ASSERT_EQ(history.size(), 23u);
  for (size_t hour = 0; hour < 4; hour++) {
    double ru = 0;
    for (size_t t = hour * 5; t < hour * 5 + 5; t++) {
      ru += history[t].ru_charged;
    }
    // Hour point = mean settled RU/s over the hour's ticks (1 s ticks).
    EXPECT_DOUBLE_EQ((*usage)[hour], ru / 5.0) << "hour " << hour;
  }
}

// -------------------------------------------- Reactive scale-up + split --

TEST(ControlLoopTest, ReactiveBurstScalesUpAndSplitsOnline) {
  sim::SimOptions opt;
  opt.seed = 99;
  opt.control_interval_ticks = 5;
  opt.control_ticks_per_hour = 10;
  opt.split_bytes_per_tick = 16 << 10;
  sim::ClusterSim sim(opt);
  PoolId pool = sim.AddPool(6);
  // Quota 600 RU/s over 4 partitions; a partition quota above 200 stages
  // an online split.
  ASSERT_TRUE(
      sim.AddTenant(ControlTenant(1, 600, 4, /*upper=*/200), pool).ok());
  sim.PreloadKeys(1, 1000, 64);
  // Write-heavy: writes always reach the data plane at full RU charge
  // (3x replica fan-out), so settled usage tracks demand.
  sim::WorkloadProfile profile;
  profile.base_qps = 100;
  profile.read_ratio = 0.3;
  profile.num_keys = 1000;
  profile.value_bytes = 64;
  profile.bursts.push_back({20 * kMicrosPerSecond, 120 * kMicrosPerSecond,
                            /*multiplier=*/6.0});
  sim.SetWorkload(1, profile);
  sim.EnableAutoscale(1, sim::AutoscaleMode::kReactive);

  sim.RunTicks(170);

  const sim::TenantRuntime* rt = sim.Tenant(1);
  ASSERT_NE(rt, nullptr);
  EXPECT_GE(rt->scale_ups, 1u);
  EXPECT_EQ(rt->scale_downs, 0u);  // Reactive never scales down.
  const meta::TenantMeta* tm = sim.meta().GetTenant(1);
  ASSERT_NE(tm, nullptr);
  EXPECT_GT(tm->tenant_quota_ru, 600.0);
  // The scale-up pushed the partition quota over UP: the loop staged an
  // online split that has fully completed (cutover + purge).
  EXPECT_GE(rt->splits_started, 1u);
  EXPECT_GE(sim.SplitCutovers(), 1u);
  EXPECT_GE(sim.SplitsCompleted(), 1u);
  EXPECT_FALSE(sim.SplitInProgress(1));
  EXPECT_GE(tm->partitions.size(), 8u);

  // Every preloaded key is still readable through normal routing after
  // the re-hash (children serve the moved half, parents the rest).
  for (uint64_t k = 0; k < 1000; k += 37) {
    ClientRequest req;
    req.req_id = 9000000 + k;
    req.tenant = 1;
    req.op = OpType::kGet;
    req.key = "t1:k" + std::to_string(k);
    req.track_outcome = true;
    sim.InjectRequest(req);
    sim.RunTicks(3);
    auto outcome = sim.TakeOutcome(req.req_id);
    ASSERT_TRUE(outcome.has_value()) << req.key;
    EXPECT_TRUE(outcome->status.ok()) << req.key << ": "
                                      << outcome->status.ToString();
    EXPECT_FALSE(outcome->value.empty()) << req.key;
  }
}

// ------------------------------------- Predictive vs reactive ablation --

struct AblationRun {
  uint64_t first_scale_up_tick = 0;  ///< 0 = never scaled.
  uint64_t throttled_total = 0;
  double final_quota = 0;
};

AblationRun RunDiurnalAblation(sim::AutoscaleMode mode) {
  sim::SimOptions opt;
  opt.seed = 7;
  opt.control_interval_ticks = 3;
  opt.control_ticks_per_hour = 3;  // 1 control hour = 3 ticks.
  sim::ClusterSim sim(opt);
  PoolId pool = sim.AddPool(6);
  const double kInitialQuota = 700;
  EXPECT_TRUE(sim.AddTenant(ControlTenant(1, kInitialQuota), pool).ok());
  sim.PreloadKeys(1, 500, 1024);

  // A repeating diurnal day (trough ~50 qps, peak ~350 qps at hour 6)
  // with a sharp 4x business burst over hours 5-8 — the same every-day
  // pattern the seeded history below records. Write-heavy (70% writes
  // at 3 RU each), so demand in RU/s swings from ~120 to ~3000 against
  // the 700 RU/s quota: only a scaler that moves *before* the burst
  // avoids throttling it.
  sim::SeriesSpec day;
  day.hours = 24;
  day.base = 200;
  day.seasons.push_back({24, 150});
  Rng schedule_rng(5);
  TimeSeries schedule = sim::GenerateSeries(day, schedule_rng);

  sim::WorkloadProfile profile;
  profile.read_ratio = 0.3;
  profile.num_keys = 500;
  profile.value_bytes = 1024;
  profile.rate_schedule = schedule;
  profile.rate_schedule_step = 3 * kMicrosPerSecond;  // 1 control hour.
  // The burst: hours 5-8 of the simulated day = ticks 15..27.
  profile.bursts.push_back({15 * kMicrosPerSecond, 27 * kMicrosPerSecond,
                            /*multiplier=*/4.0});
  sim.SetWorkload(1, profile);

  // 30 days of matching history (in RU/s: ~2.4 RU per request),
  // including the daily hour-5 burst, so the forecaster knows both the
  // diurnal shape and the spike.
  sim::SeriesSpec past;
  past.hours = 30 * 24;
  past.base = 480;
  past.seasons.push_back({24, 360});
  past.noise_sigma = 10;
  for (size_t d = 0; d < 30; d++) {
    past.bursts.push_back({d * 24 + 5, /*duration_hours=*/3, /*add=*/2400});
  }
  Rng history_rng(17);
  sim.SeedUsageHistory(1, sim::GenerateSeries(past, history_rng));
  sim.EnableAutoscale(1, mode);

  AblationRun run;
  // One simulated day around the burst: 45 ticks = 15 control hours.
  for (uint64_t tick = 1; tick <= 45; tick++) {
    sim.Tick();
    const meta::TenantMeta* tm = sim.meta().GetTenant(1);
    if (run.first_scale_up_tick == 0 &&
        tm->tenant_quota_ru > kInitialQuota) {
      run.first_scale_up_tick = tick;
    }
  }
  for (const auto& m : sim.History(1)) run.throttled_total += m.throttled;
  run.final_quota = sim.meta().GetTenant(1)->tenant_quota_ru;
  return run;
}

TEST(ControlLoopTest, PredictiveScalesBeforePeakAndThrottlesLess) {
  AblationRun predictive = RunDiurnalAblation(sim::AutoscaleMode::kPredictive);
  AblationRun reactive = RunDiurnalAblation(sim::AutoscaleMode::kReactive);

  // Predictive: the forecast sees the coming spike while load is still
  // in the trough — quota rises before the burst even starts (tick 15).
  ASSERT_GT(predictive.first_scale_up_tick, 0u);
  EXPECT_LT(predictive.first_scale_up_tick, 15u);
  EXPECT_GT(predictive.final_quota, 700.0);

  // Reactive scales only after users already pushed usage into the
  // threshold — later than predictive (or never).
  if (reactive.first_scale_up_tick != 0) {
    EXPECT_GT(reactive.first_scale_up_tick,
              predictive.first_scale_up_tick);
  }

  // The oncall ablation's headline: fewer throttled requests under
  // predictive scaling.
  EXPECT_LT(predictive.throttled_total, reactive.throttled_total);
  EXPECT_GT(reactive.throttled_total, 0u);
}

// ----------------------------------------------------- Scale-down cooldown --

TEST(ControlLoopTest, ScaleDownRespectsSevenDayCooldown) {
  sim::SimOptions opt;
  opt.seed = 3;
  opt.control_interval_ticks = 6;
  opt.control_ticks_per_hour = 1;  // 1 tick = 1 control hour.
  sim::ClusterSim sim(opt);
  PoolId pool = sim.AddPool(3);
  ASSERT_TRUE(sim.AddTenant(ControlTenant(1, 700), pool).ok());
  sim.PreloadKeys(1, 200, 64);

  // Usage in slow decline: after the first scale-down the forecast keeps
  // undershooting the band, so only the cooldown separates consecutive
  // down-scales.
  std::vector<double> declining;
  for (int i = 0; i < 600; i++) {
    declining.push_back(200.0 - 150.0 * i / 600.0);
  }
  sim::WorkloadProfile profile;
  profile.read_ratio = 0.9;
  profile.num_keys = 200;
  profile.value_bytes = 64;
  profile.rate_schedule = TimeSeries(declining);
  profile.rate_schedule_step = kMicrosPerSecond;  // 1 tick per point.
  sim.SetWorkload(1, profile);

  std::vector<double> seeded;
  for (int i = 0; i < 360; i++) {
    seeded.push_back(290.0 - 90.0 * i / 360.0);  // Ends at ~200 RU/s.
  }
  sim.SeedUsageHistory(1, TimeSeries(seeded));
  sim.EnableAutoscale(1, sim::AutoscaleMode::kPredictive);

  // Run until the first scale-down lands.
  uint64_t first_down_tick = 0;
  for (uint64_t tick = 1; tick <= 120 && first_down_tick == 0; tick++) {
    sim.Tick();
    if (sim.Tenant(1)->scale_downs == 1) first_down_tick = tick;
  }
  ASSERT_GT(first_down_tick, 0u) << "first scale-down never fired";

  // 7 days = 168 control hours = 168 ticks here. Inside the cooldown the
  // loop keeps evaluating (usage keeps declining) but must not scale
  // down again.
  const uint64_t cooldown_ticks = 168;
  sim.RunTicks(cooldown_ticks - opt.control_interval_ticks);
  EXPECT_EQ(sim.Tenant(1)->scale_downs, 1u)
      << "scale-down fired inside the 7-day cooldown";

  // Once the cooldown elapses the next decision may scale down again.
  sim.RunTicks(3 * opt.control_interval_ticks);
  EXPECT_EQ(sim.Tenant(1)->scale_downs, 2u);
}

// -------------------------------------------------- Online split, 1 worker --

/// Streams, cuts over and purges one online split under continuous
/// reads and writes. With one replica nothing pulls the parents' logs,
/// so only the split's hold keeps the streaming window replayable.
void RunOnlineSplitUnderTraffic(int replicas) {
  sim::SimOptions opt;
  opt.seed = 23;
  opt.split_bytes_per_tick = 8 << 10;  // Force multi-tick streaming.
  sim::ClusterSim sim(opt);
  PoolId pool = sim.AddPool(6);
  meta::TenantConfig cfg = ControlTenant(1, 50000);
  cfg.replicas = replicas;
  ASSERT_TRUE(sim.AddTenant(cfg, pool).ok());
  const uint64_t kKeys = 300;
  sim.PreloadKeys(1, kKeys, 128);

  uint64_t next_req = 5000000;
  uint64_t write_counter = 0;
  std::map<uint64_t, std::string> pending_reads;   // req_id -> key
  std::map<uint64_t, std::pair<std::string, std::string>> pending_writes;
  std::map<std::string, std::string> acked;        // key -> value
  uint64_t get_ok = 0, get_failed = 0;

  auto inject_get = [&](const std::string& key) {
    ClientRequest req;
    req.req_id = next_req++;
    req.tenant = 1;
    req.op = OpType::kGet;
    req.key = key;
    req.track_outcome = true;
    pending_reads[req.req_id] = key;
    sim.InjectRequest(req);
  };
  auto inject_set = [&]() {
    ClientRequest req;
    req.req_id = next_req++;
    req.tenant = 1;
    req.op = OpType::kSet;
    req.key = "t1:kw" + std::to_string(write_counter);
    req.value = MakeSharedValue("v" + std::to_string(write_counter));
    write_counter++;
    req.track_outcome = true;
    pending_writes[req.req_id] = {req.key, std::string(req.value.view())};
    sim.InjectRequest(req);
  };
  auto harvest = [&]() {
    for (auto it = pending_reads.begin(); it != pending_reads.end();) {
      auto outcome = sim.TakeOutcome(it->first);
      if (!outcome.has_value()) {
        ++it;
        continue;
      }
      if (outcome->status.ok() && !outcome->value.empty()) {
        get_ok++;
      } else {
        get_failed++;
        ADD_FAILURE() << "read of " << it->second
                      << " failed: " << outcome->status.ToString();
      }
      it = pending_reads.erase(it);
    }
    for (auto it = pending_writes.begin(); it != pending_writes.end();) {
      auto outcome = sim.TakeOutcome(it->first);
      if (!outcome.has_value()) {
        ++it;
        continue;
      }
      if (outcome->status.ok()) {
        acked[it->second.first] = it->second.second;  // Acked write.
      }
      it = pending_writes.erase(it);
    }
  };

  ASSERT_TRUE(sim.StartPartitionSplit(1).ok());
  ASSERT_TRUE(sim.SplitInProgress(1));

  // Reads + writes flow continuously through streaming, cutover, and
  // purge. Reads cover the preloaded keyspace round-robin.
  uint64_t probe = 0;
  size_t completed_at = 0;
  for (size_t tick = 0; tick < 120; tick++) {
    for (int i = 0; i < 4; i++) {
      inject_get("t1:k" + std::to_string(probe % kKeys));
      probe += 41;
    }
    inject_set();
    sim.Tick();
    harvest();
    if (completed_at == 0 && sim.SplitsCompleted() == 1) {
      completed_at = tick;
    }
  }
  // Let stragglers settle.
  sim.RunTicks(4);
  harvest();

  EXPECT_EQ(sim.SplitCutovers(), 1u);
  EXPECT_EQ(sim.SplitsCompleted(), 1u);
  ASSERT_GT(completed_at, 0u);
  EXPECT_EQ(sim.meta().GetTenant(1)->partitions.size(), 8u);
  EXPECT_EQ(get_failed, 0u);
  EXPECT_GT(get_ok, 0u);
  EXPECT_GT(acked.size(), 50u);

  // Zero lost acked writes: every acknowledged pre/mid/post-cutover
  // write reads back with its exact value through the re-hashed routing.
  for (const auto& [key, value] : acked) {
    ClientRequest req;
    req.req_id = next_req++;
    req.tenant = 1;
    req.op = OpType::kGet;
    req.key = key;
    req.track_outcome = true;
    sim.InjectRequest(req);
    sim.RunTicks(3);
    auto outcome = sim.TakeOutcome(req.req_id);
    ASSERT_TRUE(outcome.has_value()) << key;
    ASSERT_TRUE(outcome->status.ok())
        << key << ": " << outcome->status.ToString();
    EXPECT_EQ(outcome->value, value) << key;
  }

  // The purge actually drained the moved keys out of the parents: no
  // parent primary still stores a key that re-hashes to its child.
  const meta::TenantMeta* tm = sim.meta().GetTenant(1);
  for (PartitionId parent = 0; parent < 4; parent++) {
    const node::DataNode* pn = sim.FindNode(tm->partitions[parent].primary());
    ASSERT_NE(pn, nullptr);
    const storage::LsmEngine* engine = pn->EngineFor(1, parent);
    ASSERT_NE(engine, nullptr);
    auto leftovers = engine->ExportHashRange(8, parent + 4, "", 1u << 30);
    EXPECT_TRUE(leftovers.entries.empty())
        << leftovers.entries.size() << " moved keys left in parent "
        << parent;
  }
}

TEST(ControlLoopTest, OnlineSplitLosesNoAckedWritesAndStaysReadable) {
  for (int replicas : {3, 1}) {
    SCOPED_TRACE(testing::Message() << replicas << " replicas");
    RunOnlineSplitUnderTraffic(replicas);
  }
}

// ----------------------------------------- Split child record sharing --

/// The replicas' engines of tenant 1's partition `partition` (staged
/// or committed), in placement order.
std::vector<storage::LsmEngine*> ReplicaEngines(
    sim::ClusterSim& sim, const meta::PartitionPlacement& placement,
    PartitionId partition) {
  std::vector<storage::LsmEngine*> out;
  for (NodeId nid : placement.replicas) {
    node::DataNode* n = sim::ClusterSimTestPeer::Node(sim, nid);
    if (n == nullptr) continue;
    if (storage::LsmEngine* e = n->EngineFor(1, partition)) out.push_back(e);
  }
  return out;
}

/// Every visible record of `engine`, in key order (the engine's own
/// handles).
std::vector<storage::ReplRecordPtr> AllRecords(
    const storage::LsmEngine& engine) {
  return engine.ExportHashRange(1, 0, "", 1ull << 40).entries;
}

/// Runs a 4 -> 8 split of 300 preloaded keys without traffic, calling
/// `mid_stream(sim)` once after the first streaming tick.
template <typename MidStream>
void RunQuietSplit(sim::ClusterSim& sim, MidStream&& mid_stream) {
  PoolId pool = sim.AddPool(6);
  ASSERT_TRUE(sim.AddTenant(ControlTenant(1, 50000), pool).ok());
  sim.PreloadKeys(1, 300, 128);
  ASSERT_TRUE(sim.StartPartitionSplit(1).ok());
  sim.Tick();
  ASSERT_TRUE(sim.SplitInProgress(1));
  ASSERT_EQ(sim.SplitCutovers(), 0u) << "streaming must span ticks";
  mid_stream(sim);
  for (int tick = 0; tick < 200 && sim.SplitInProgress(1); tick++) {
    sim.Tick();
  }
  ASSERT_FALSE(sim.SplitInProgress(1));
  ASSERT_EQ(sim.meta().GetTenant(1)->partitions.size(), 8u);
}

// The child replicas of a split ingest one stream from empty, so every
// moved version is one record they all hold: pointer-identical handles,
// not one copy per replica.
TEST(ControlLoopTest, SplitChildReplicasShareOneRecordPerMovedVersion) {
  sim::SimOptions opt;
  opt.seed = 31;
  opt.split_bytes_per_tick = 1 << 10;  // About 5 streaming ticks.
  sim::ClusterSim sim(opt);
  RunQuietSplit(sim, [](sim::ClusterSim&) {});
  const meta::TenantMeta* tm = sim.meta().GetTenant(1);
  size_t moved = 0;
  for (PartitionId child = 4; child < 8; child++) {
    auto engines = ReplicaEngines(sim, tm->partitions[child], child);
    ASSERT_EQ(engines.size(), 3u) << child;
    const auto first = AllRecords(*engines[0]);
    ASSERT_FALSE(first.empty()) << child;
    moved += first.size();
    for (size_t r = 1; r < engines.size(); r++) {
      const auto recs = AllRecords(*engines[r]);
      ASSERT_EQ(recs.size(), first.size()) << child;
      for (size_t i = 0; i < recs.size(); i++) {
        EXPECT_EQ(recs[i].get(), first[i].get())
            << "child " << child << " replica " << r << " key "
            << first[i]->key();
      }
    }
    // Nothing else holds a child's records: one per replica's memtable
    // (the staged children truncated their logs), one here, and `recs`
    // in the loop above is gone.
    EXPECT_EQ(first.front().use_count(), 4) << child;
  }
  EXPECT_GT(moved, 100u);  // About half of the 300 keys moved.
}

// A child replica that falls off the shared sequence mid-stream — here
// a stray local write on it — builds its own copy of every version it
// ingests afterwards and still ends with exactly its siblings' data,
// while the siblings keep sharing. A crash and recovery of a child
// replica's node mid-stream does not move its sequence (the WAL keeps
// its memtable), so that replica keeps sharing.
TEST(ControlLoopTest, SplitChildReplicaOffSequenceFallsBackToPrivateCopies) {
  sim::SimOptions opt;
  opt.seed = 31;
  opt.split_bytes_per_tick = 1 << 10;  // About 5 streaming ticks.
  sim::ClusterSim sim(opt);
  const PartitionId kChild = 4;
  NodeId crashed = kInvalidNode;
  RunQuietSplit(sim, [&](sim::ClusterSim& s) {
    const auto* pending =
        sim::ClusterSimTestPeer::Meta(s).GetPendingSplit(1);
    ASSERT_NE(pending, nullptr);
    const meta::PartitionPlacement& child = pending->children[0];
    ASSERT_EQ(child.replicas.size(), 3u);
    // Replica 1's node crashes and comes straight back.
    crashed = child.replicas[1];
    s.FailNode(crashed);
    s.Tick();
    s.RecoverNode(crashed, 0);
    s.Tick();
    // Replica 2 takes two local writes its siblings never see.
    storage::LsmEngine* stray =
        ReplicaEngines(s, child, kChild).back();
    ASSERT_TRUE(stray->Put("stray", "x").ok());
    ASSERT_TRUE(stray->Delete("stray").ok());
  });
  const meta::TenantMeta* tm = sim.meta().GetTenant(1);
  auto engines = ReplicaEngines(sim, tm->partitions[kChild], kChild);
  ASSERT_EQ(engines.size(), 3u);
  ASSERT_EQ(tm->partitions[kChild].replicas[1], crashed);
  const auto first = AllRecords(*engines[0]);
  const auto recovered = AllRecords(*engines[1]);
  const auto diverged = AllRecords(*engines[2]);
  ASSERT_FALSE(first.empty());
  ASSERT_EQ(recovered.size(), first.size());
  ASSERT_EQ(diverged.size(), first.size());
  size_t private_copies = 0;
  for (size_t i = 0; i < first.size(); i++) {
    EXPECT_EQ(recovered[i].get(), first[i].get()) << first[i]->key();
    // Byte-identical data whether shared or copied.
    EXPECT_EQ(diverged[i]->key(), first[i]->key());
    EXPECT_EQ(diverged[i]->type(), first[i]->type());
    EXPECT_EQ(diverged[i]->expire_at(), first[i]->expire_at());
    EXPECT_EQ(diverged[i]->str(), first[i]->str());
    if (diverged[i].get() != first[i].get()) {
      private_copies++;
      EXPECT_EQ(diverged[i]->seq(), first[i]->seq() + 2);
    }
  }
  // Versions streamed before the stray writes stay shared; every later
  // one is the diverged replica's own copy.
  EXPECT_GT(private_copies, 0u);
  EXPECT_LT(private_copies, first.size());
}

// ------------------------------------------------- One quota actuator --

// Injects one tracked request and ticks until its outcome settles.
std::optional<sim::ClientOutcome> RunTracked(sim::ClusterSim& sim,
                                             ClientRequest req) {
  req.track_outcome = true;
  sim.InjectRequest(req);
  for (int tick = 0; tick < 16; tick++) {
    sim.Tick();
    if (auto outcome = sim.TakeOutcome(req.req_id)) return outcome;
  }
  return std::nullopt;
}

TEST(ControlLoopTest, QuotaRaiseSplitsOnlineWithoutLosingKeys) {
  // A quota raise past UP splits by moving data, like the control loop:
  // an instant metadata-only split re-hashes keys to empty children.
  sim::SimOptions opt;
  opt.seed = 31;
  sim::ClusterSim sim(opt);
  PoolId pool = sim.AddPool(8);
  ASSERT_TRUE(
      sim.AddTenant(ControlTenant(1, 8000, 2, /*upper=*/10000), pool).ok());

  constexpr int kKeys = 40;
  uint64_t next_req = 7000000;
  for (int i = 0; i < kKeys; i++) {
    ClientRequest req;
    req.req_id = next_req++;
    req.tenant = 1;
    req.op = OpType::kSet;
    req.key = "pre:" + std::to_string(i);
    req.value = MakeSharedValue("v" + std::to_string(i));
    auto outcome = RunTracked(sim, req);
    ASSERT_TRUE(outcome.has_value() && outcome->status.ok()) << req.key;
  }

  // 100000 RU over 2 partitions is 5x UP. One call stages one split:
  // children are dark until cutover, so routing still sees 2.
  ASSERT_TRUE(sim.SetTenantQuota(1, 100000).ok());
  EXPECT_TRUE(sim.SplitInProgress(1));
  EXPECT_EQ(sim.meta().GetTenant(1)->partitions.size(), 2u);
  EXPECT_EQ(sim.Tenant(1)->splits_started, 1u);
  for (int tick = 0; tick < 200 && sim.SplitInProgress(1); tick++) {
    sim.Tick();
  }
  ASSERT_FALSE(sim.SplitInProgress(1));
  EXPECT_EQ(sim.meta().GetTenant(1)->partitions.size(), 4u);

  int lost = 0;
  for (int i = 0; i < kKeys; i++) {
    ClientRequest req;
    req.req_id = next_req++;
    req.tenant = 1;
    req.op = OpType::kGet;
    req.key = "pre:" + std::to_string(i);
    auto outcome = RunTracked(sim, req);
    if (!outcome.has_value() || !outcome->status.ok() ||
        outcome->value != "v" + std::to_string(i)) {
      lost++;
    }
  }
  EXPECT_EQ(lost, 0) << "of " << kKeys << " pre-split keys";
}

TEST(ControlLoopTest, QuotaRaiseRebasesProxyQuota) {
  // The proxies' autonomous quota must follow a quota change, or a
  // raised tenant stays throttled at the proxy layer.
  sim::SimOptions opt;
  opt.seed = 37;
  sim::ClusterSim sim(opt);
  PoolId pool = sim.AddPool(6);
  ASSERT_TRUE(sim.AddTenant(ControlTenant(1, 1000), pool).ok());
  sim::WorkloadProfile profile;
  profile.base_qps = 6000;
  profile.read_ratio = 0;  // Writes are never served by proxy caches.
  profile.num_keys = 1000;
  profile.value_bytes = 64;
  sim.SetWorkload(1, profile);

  auto throttled_share = [&sim](size_t ticks) {
    sim.RunTicks(ticks);
    const auto& h = sim.History(1);
    uint64_t throttled = 0, issued = 0;
    for (size_t i = h.size() - ticks; i < h.size(); i++) {
      throttled += h[i].throttled;
      issued += h[i].issued;
    }
    return static_cast<double>(throttled) /
           static_cast<double>(std::max<uint64_t>(issued, 1));
  };
  // Measured: 0.92 before the raise; 0.19 over the 5 ticks after it
  // (only the first is still throttled). Without the proxy re-base the
  // share stays at 0.95.
  const double before = throttled_share(5);
  EXPECT_GT(before, 0.8);
  ASSERT_TRUE(sim.SetTenantQuota(1, 50000).ok());
  const double after = throttled_share(5);
  EXPECT_LT(after, 0.4) << "before the raise: " << before;
}

// --------------------------------------- Split bit-identity across workers --

bool MetricsEqual(const sim::TenantTickMetrics& a,
                  const sim::TenantTickMetrics& b) {
  return a.issued == b.issued && a.ok == b.ok && a.errors == b.errors &&
         a.throttled == b.throttled && a.unavailable == b.unavailable &&
         a.redirects == b.redirects && a.replica_reads == b.replica_reads &&
         a.replica_lag_sum == b.replica_lag_sum &&
         a.proxy_hits == b.proxy_hits &&
         a.node_cache_hits == b.node_cache_hits &&
         a.disk_reads == b.disk_reads &&
         a.reads_completed == b.reads_completed &&
         a.ru_charged == b.ru_charged && a.latency_sum == b.latency_sum &&
         a.latency_max == b.latency_max &&
         a.latency_count == b.latency_count;
}

std::vector<sim::TenantTickMetrics> RunMidRunSplitScenario(int workers) {
  sim::SimOptions opt;
  opt.seed = 4242;
  opt.data_plane_workers = workers;
  opt.split_bytes_per_tick = 8 << 10;
  sim::ClusterSim sim(opt);
  PoolId pool = sim.AddPool(8);
  EXPECT_TRUE(sim.AddTenant(ControlTenant(1, 100000), pool).ok());
  sim.PreloadKeys(1, 400, 128);
  sim::WorkloadProfile profile;
  profile.base_qps = 250;
  profile.read_ratio = 0.7;
  profile.num_keys = 400;
  profile.value_bytes = 128;
  profile.eventual_read_fraction = 0.3;
  sim.SetWorkload(1, profile);

  sim.RunTicks(5);
  EXPECT_TRUE(sim.StartPartitionSplit(1).ok());
  sim.RunTicks(45);
  EXPECT_EQ(sim.SplitCutovers(), 1u);
  EXPECT_EQ(sim.SplitsCompleted(), 1u);
  EXPECT_EQ(sim.meta().GetTenant(1)->partitions.size(), 8u);
  return sim.History(1);
}

TEST(ControlLoopTest, MidRunSplitBitIdenticalAcrossWorkers) {
  auto serial = RunMidRunSplitScenario(1);
  ASSERT_EQ(serial.size(), 50u);
  for (int workers : {2, 4}) {
    auto parallel = RunMidRunSplitScenario(workers);
    ASSERT_EQ(parallel.size(), serial.size()) << workers << " workers";
    for (size_t tick = 0; tick < serial.size(); tick++) {
      ASSERT_TRUE(MetricsEqual(serial[tick], parallel[tick]))
          << workers << " workers, tick " << tick;
    }
  }
}

// ------------------------------------------------ Background rescheduling --

TEST(ControlLoopTest, BackgroundReschedulingThrottlesMigrationCopies) {
  sim::SimOptions opt;
  opt.seed = 11;
  opt.resched_interval_ticks = 10;
  opt.migration_bytes_per_tick = 4 << 10;  // Slow modeled copies.
  // Small nominal node capacity so the tenant's RU load is a visible
  // utilization imbalance to the rescheduler's divider.
  opt.node.ru_capacity = 500;
  sim::ClusterSim sim(opt);
  PoolId pool = sim.AddPool(6);
  // Single-replica tenant with many partitions under heavy zipf skew:
  // the hash-uneven per-partition load gives the rescheduler a real
  // utilization imbalance, and replicas fine-grained enough to move.
  meta::TenantConfig cfg = ControlTenant(1, 20000, /*partitions=*/16);
  cfg.replicas = 1;
  ASSERT_TRUE(sim.AddTenant(cfg, pool).ok());
  sim.PreloadKeys(1, 600, 512);
  sim::WorkloadProfile profile;
  profile.base_qps = 600;
  profile.read_ratio = 0.3;  // Write-heavy: full-RU data-plane load.
  profile.num_keys = 600;
  profile.value_bytes = 512;
  profile.zipf_theta = 0.99;
  sim.SetWorkload(1, profile);

  // Ticks 1..9: nothing planned yet.
  sim.RunTicks(9);
  EXPECT_EQ(sim.PendingMigrationCount(), 0u);
  // Tick 10: the resched interval fires and enqueues copies.
  sim.Tick();
  ASSERT_GT(sim.PendingMigrationCount(), 0u);
  EXPECT_GT(sim.migration_stats().planned, 0u);
  // Throttled: the copy is still streaming several ticks later instead
  // of landing instantaneously.
  sim.RunTicks(3);
  EXPECT_GT(sim.PendingMigrationCount(), 0u);
  EXPECT_EQ(sim.migration_stats().applied, 0u);

  sim.RunTicks(200);
  EXPECT_EQ(sim.PendingMigrationCount(), 0u);
  EXPECT_GT(sim.migration_stats().applied, 0u);
  // Every disposition is accounted for: applied + skipped = planned,
  // and each skip carries a reason.
  const auto& stats = sim.migration_stats();
  EXPECT_EQ(stats.applied + stats.skipped, stats.planned);
  uint64_t reasons = 0;
  for (const auto& [code, count] : stats.skip_reasons) {
    (void)code;
    reasons += count;
  }
  EXPECT_EQ(reasons, stats.skipped);

  // Service stayed healthy through the background copies.
  const auto& history = sim.History(1);
  uint64_t ok = 0;
  for (size_t i = history.size() - 20; i < history.size(); i++) {
    ok += history[i].ok;
  }
  EXPECT_GT(ok, 0u);
}

// ------------------------------------------------- Rescheduling plan memo --

TEST(ControlLoopTest, ReschedulingPlanMemoRebuildsOnlyOnChangedInputs) {
  sim::SimOptions opt;
  opt.seed = 23;
  opt.resched_interval_ticks = 1;  // A planning round every tick.
  sim::ClusterSim sim(opt);
  const PoolId pool = sim.AddPool(5);
  for (TenantId t = 1; t <= 4; t++) {
    meta::TenantConfig c = ControlTenant(t, 400, /*partitions=*/2);
    c.replicas = 2;
    ASSERT_TRUE(sim.AddTenant(c, pool).ok());
  }

  // An idle pool is planned once, then skipped round after round.
  sim.RunTicks(4);
  ASSERT_EQ(sim.PendingMigrationCount(), 0u);
  EXPECT_EQ(sim.ReschedulingPlansBuilt(), 1u);

  // Ticks until a round skips again (the memo re-armed); returns the
  // plan count at that point.
  auto settle = [&sim]() {
    for (int i = 0; i < 20; i++) {
      const uint64_t before = sim.ReschedulingPlansBuilt();
      sim.Tick();
      if (sim.ReschedulingPlansBuilt() == before) return before;
    }
    ADD_FAILURE() << "memo never re-armed";
    return sim.ReschedulingPlansBuilt();
  };
  // Each changed input must force a rebuild on the very next round.
  auto expect_rebuild = [&sim, &settle](const char* input, auto mutate) {
    const uint64_t before = settle();
    mutate();
    sim.Tick();
    EXPECT_GT(sim.ReschedulingPlansBuilt(), before) << input;
  };

  expect_rebuild("direct engine write", [&]() {
    node::DataNode* n =
        sim::ClusterSimTestPeer::Node(sim, sim.meta().PrimaryFor(1, 0));
    ASSERT_TRUE(n->EngineFor(1, 0)->Put("k", "v").ok());
  });
  expect_rebuild("migration", [&]() {
    const auto& reps = sim.meta().GetTenant(2)->partitions[0].replicas;
    NodeId to = kInvalidNode;
    for (const auto& n : sim.nodes()) {
      if (!n->HasReplica(2, 0)) to = n->id();
    }
    resched::Migration m;
    m.tenant = 2;
    m.partition = 0;
    m.from = reps[1];
    m.to = to;
    auto outcomes = sim.ApplyMigrations({m});
    ASSERT_TRUE(outcomes[0].status.ok()) << outcomes[0].status.ToString();
  });
  meta::MetaServer& meta = sim::ClusterSimTestPeer::Meta(sim);
  expect_rebuild("split stage",
                 [&]() { ASSERT_TRUE(meta.PrepareSplit(3).ok()); });
  expect_rebuild("split commit",
                 [&]() { ASSERT_TRUE(meta.CommitSplit(3).ok()); });
  const NodeId victim = sim.meta().PrimaryFor(4, 1);
  expect_rebuild("node failure", [&]() { sim.FailNode(victim); });
  expect_rebuild("node recovery", [&]() { sim.RecoverNode(victim, 1); });
  expect_rebuild("EWMA fold", [&]() {
    ClientRequest req;
    req.req_id = 99;
    req.tenant = 4;
    req.op = OpType::kGet;
    req.key = "absent";
    sim.InjectRequest(req);
  });
  // The served read's RU rate keeps decaying (nonzero) for many ticks:
  // every round re-plans although no engine or placement changed.
  const uint64_t before = sim.ReschedulingPlansBuilt();
  sim.Tick();
  EXPECT_EQ(sim.ReschedulingPlansBuilt(), before + 1);
}

}  // namespace
}  // namespace abase
