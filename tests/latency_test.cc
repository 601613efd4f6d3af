// Unit tests for the sub-tick latency subsystem: ServiceTimeModel
// distribution moments and determinism, DecayingHistogram decay and
// percentiles, the hedge state machine (cancel / RU-refund edges), the
// gray-failure detector's hysteresis, and the cluster-level wiring
// (timed Settle metrics, hedged reads, gray demotion, SLO burn rate).
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <string>
#include <vector>

#include "latency/decaying_histogram.h"
#include "latency/gray_detector.h"
#include "latency/hedge.h"
#include "latency/options.h"
#include "latency/service_time.h"
#include "meta/meta_server.h"
#include "node/data_node.h"
#include "sim/cluster_sim.h"

namespace abase {
namespace {

using latency::DistKind;
using latency::ServiceTimeModel;
using latency::ServiceTimeOptions;

// --------------------------------------------------------- ServiceTimeModel --

ServiceTimeOptions Opts(DistKind dist, double mean, double sigma = 1.2,
                        uint64_t seed = 42) {
  ServiceTimeOptions o;
  o.enabled = true;
  o.dist = dist;
  o.mean_micros = mean;
  o.sigma = sigma;
  o.seed = seed;
  return o;
}

TEST(ServiceTimeModelTest, FixedDistributionIsDegenerate) {
  ServiceTimeModel m(Opts(DistKind::kFixed, 150));
  for (uint64_t r = 0; r < 100; r++) {
    EXPECT_EQ(m.Sample(/*stream=*/7, r), 150);
  }
}

TEST(ServiceTimeModelTest, ExponentialMeanAtFixedSeed) {
  ServiceTimeModel m(Opts(DistKind::kExponential, 200));
  constexpr int kDraws = 20000;
  double sum = 0;
  for (uint64_t r = 0; r < kDraws; r++) {
    sum += static_cast<double>(m.Sample(1, r));
  }
  const double mean = sum / kDraws;
  // Law of large numbers at a fixed seed: within 5% of the configured
  // mean (the draw is floored at 1us and capped at 100x mean, both of
  // which move an exponential's mean by well under that).
  EXPECT_NEAR(mean, 200.0, 10.0);
}

TEST(ServiceTimeModelTest, LognormalMeanAndHeavyTail) {
  ServiceTimeModel m(Opts(DistKind::kLognormal, 150, /*sigma=*/1.2));
  constexpr int kDraws = 40000;
  std::vector<double> draws(kDraws);
  double sum = 0;
  for (uint64_t r = 0; r < kDraws; r++) {
    draws[r] = static_cast<double>(m.Sample(1, r));
    sum += draws[r];
  }
  // Mean-preserving parameterization: mu = ln(mean) - sigma^2/2.
  EXPECT_NEAR(sum / kDraws, 150.0, 15.0);
  std::sort(draws.begin(), draws.end());
  const double p50 = draws[kDraws / 2];
  const double p99 = draws[static_cast<size_t>(kDraws * 0.99)];
  // Median of a lognormal = exp(mu) = mean * exp(-sigma^2/2) ~ 73;
  // p99/p50 = exp(2.326 * sigma) ~ 16. The tail is the point.
  EXPECT_NEAR(p50, 150.0 * std::exp(-1.2 * 1.2 / 2), 8.0);
  EXPECT_GT(p99 / p50, 8.0);
}

TEST(ServiceTimeModelTest, SamplesAreDeterministicAcrossInstances) {
  ServiceTimeModel a(Opts(DistKind::kLognormal, 150));
  ServiceTimeModel b(Opts(DistKind::kLognormal, 150));
  for (uint64_t r = 0; r < 1000; r++) {
    ASSERT_EQ(a.Sample(3, r), b.Sample(3, r)) << "req " << r;
  }
}

TEST(ServiceTimeModelTest, StreamsAreIndependent) {
  // Different streams must decorrelate: same req_id, different stream
  // should almost never collide, and the uniform draws differ.
  ServiceTimeModel m(Opts(DistKind::kExponential, 150));
  int collisions = 0;
  for (uint64_t r = 0; r < 1000; r++) {
    if (m.Sample(1, r) == m.Sample(2, r)) collisions++;
  }
  EXPECT_LT(collisions, 20);
  EXPECT_NE(ServiceTimeModel::Uniform(42, 1, 0),
            ServiceTimeModel::Uniform(42, 2, 0));
  EXPECT_NE(ServiceTimeModel::Uniform(42, 1, 0),
            ServiceTimeModel::Uniform(43, 1, 0));
}

TEST(ServiceTimeModelTest, UniformIsInUnitInterval) {
  for (uint64_t d = 0; d < 10000; d++) {
    const double u = ServiceTimeModel::Uniform(7, 9, d);
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
  }
}

TEST(ServiceTimeModelTest, NodeSampleAppliesDegradation) {
  SimClock clock(0);
  node::DataNodeOptions opts;
  opts.service_time = Opts(DistKind::kLognormal, 150);
  node::DataNode node(3, opts, &clock);
  const Micros healthy = node.SampleServiceMicros(1, 77);
  node.SetServiceDegradation(8.0);
  EXPECT_EQ(node.SampleServiceMicros(1, 77), healthy * 8);
  node.SetServiceDegradation(1.0);
  EXPECT_EQ(node.SampleServiceMicros(1, 77), healthy);
}

// -------------------------------------------------------- DecayingHistogram --

TEST(DecayingHistogramTest, PercentileTracksMass) {
  latency::DecayingHistogram h(1e9, /*decay=*/0.9);
  for (int i = 0; i < 95; i++) h.Add(100);
  for (int i = 0; i < 5; i++) h.Add(10000);
  // p50 lands in the bucket containing 100; p99 in the 10000 one.
  EXPECT_LT(h.Percentile(50), 200.0);
  EXPECT_GT(h.Percentile(99), 5000.0);
  EXPECT_EQ(h.Percentile(50), h.Percentile(10));  // Same bucket.
}

TEST(DecayingHistogramTest, DecayForgetsOldMass) {
  latency::DecayingHistogram h(1e9, /*decay=*/0.5);
  for (int i = 0; i < 100; i++) h.Add(10000);  // Old slow regime.
  for (int t = 0; t < 10; t++) h.Decay();
  for (int i = 0; i < 100; i++) h.Add(100);  // New fast regime.
  // The old mass decayed to ~0.1 weight; the p95 now reflects the new
  // regime even though the raw count of old samples equals the new.
  EXPECT_LT(h.Percentile(95), 200.0);
}

TEST(DecayingHistogramTest, IdleHistogramSettlesToEmpty) {
  latency::DecayingHistogram h(1e9, /*decay=*/0.5);
  h.Add(500);
  for (int t = 0; t < 64; t++) h.Decay();
  EXPECT_EQ(h.total_weight(), 0.0);
  EXPECT_EQ(h.Percentile(99), 0.0);
}

// ------------------------------------------------------------- EvaluateHedge --

TEST(HedgeTest, BelowThresholdDoesNotHedge) {
  auto d = latency::EvaluateHedge(/*threshold=*/1000, /*primary_vt=*/800,
                                  /*alt_available=*/true, /*alt_vt=*/100,
                                  /*alt_ru=*/1.0);
  EXPECT_FALSE(d.hedged);
  EXPECT_EQ(d.effective_micros, 800);
  EXPECT_EQ(d.extra_ru, 0.0);
}

TEST(HedgeTest, UnwarmedThresholdDisablesHedging) {
  auto d = latency::EvaluateHedge(/*threshold=*/0, /*primary_vt=*/999999,
                                  true, 100, 1.0);
  EXPECT_FALSE(d.hedged);
  EXPECT_EQ(d.effective_micros, 999999);
}

TEST(HedgeTest, ArmedWithoutAlternateCostsNothing) {
  // The hedge fires but no replica can take it: no second execution, no
  // extra RU, primary latency stands.
  auto d = latency::EvaluateHedge(/*threshold=*/1000, /*primary_vt=*/5000,
                                  /*alt_available=*/false, 0, 1.0);
  EXPECT_TRUE(d.hedged);
  EXPECT_FALSE(d.hedge_won);
  EXPECT_FALSE(d.cancelled);
  EXPECT_EQ(d.effective_micros, 5000);
  EXPECT_EQ(d.extra_ru, 0.0);
}

TEST(HedgeTest, AlternateWinsAndLoserIsChargedRu) {
  // Alt completes at threshold + alt_vt = 1000 + 500 = 1500 < 5000: the
  // hedge wins, the primary leg is cancelled but already burned its RU —
  // both executions are charged.
  auto d = latency::EvaluateHedge(1000, 5000, true, 500, /*alt_ru=*/1.5);
  EXPECT_TRUE(d.hedged);
  EXPECT_TRUE(d.hedge_won);
  EXPECT_TRUE(d.cancelled);
  EXPECT_EQ(d.effective_micros, 1500);
  EXPECT_EQ(d.extra_ru, 1.5);
}

TEST(HedgeTest, SlowAlternateLosesButStillCharges) {
  // Alt would land at 1000 + 9000 = 10000 > 5000: the primary wins, the
  // cancelled alternate still did the work — RU charged for both legs.
  auto d = latency::EvaluateHedge(1000, 5000, true, 9000, 2.0);
  EXPECT_TRUE(d.hedged);
  EXPECT_FALSE(d.hedge_won);
  EXPECT_TRUE(d.cancelled);
  EXPECT_EQ(d.effective_micros, 5000);
  EXPECT_EQ(d.extra_ru, 2.0);
}

TEST(HedgeTest, HedgerFreezesThresholdAtTickBoundary) {
  latency::HedgePolicy policy;
  policy.enabled = true;
  policy.quantile = 95;
  policy.min_threshold_micros = 10;
  policy.min_observations = 32;
  latency::Hedger hedger(policy);
  EXPECT_EQ(hedger.threshold(), 0);  // Unwarmed.
  for (int i = 0; i < 100; i++) hedger.Observe(100);
  for (int i = 0; i < 5; i++) hedger.Observe(10000);
  EXPECT_EQ(hedger.threshold(), 0);  // Still frozen until the boundary.
  hedger.EndTick();
  EXPECT_GT(hedger.threshold(), 100);
  EXPECT_LE(hedger.threshold(), 20000);
}

TEST(HedgeTest, HedgerBelowMinObservationsStaysDisarmed) {
  latency::HedgePolicy policy;
  policy.enabled = true;
  policy.min_observations = 64;
  latency::Hedger hedger(policy);
  for (int i = 0; i < 10; i++) hedger.Observe(100);
  hedger.EndTick();
  EXPECT_EQ(hedger.threshold(), 0);
}

// ------------------------------------------------------- GrayFailureDetector --

latency::GrayDetectorOptions GrayOpts(int consecutive = 3) {
  latency::GrayDetectorOptions o;
  o.enabled = true;
  o.slow_factor = 3.0;
  o.recover_factor = 1.5;
  o.consecutive_ticks = consecutive;
  o.min_samples = 1;
  return o;
}

// Feeds one tick where every node serves mean `healthy` except `slow_id`
// at `slow_mean`, then evaluates.
std::vector<latency::GrayFailureDetector::Transition> FeedTick(
    latency::GrayFailureDetector& det, NodeId nodes, NodeId slow_id,
    uint64_t healthy, uint64_t slow_mean) {
  for (NodeId n = 0; n < nodes; n++) {
    const uint64_t mean = n == slow_id ? slow_mean : healthy;
    det.ObserveTick(n, mean * 10, 10);
  }
  return det.Evaluate();
}

TEST(GrayDetectorTest, FlagsSlowNodeAfterConsecutiveTicks) {
  latency::GrayFailureDetector det(GrayOpts(3));
  // Warm the EWMAs with healthy traffic first.
  for (int t = 0; t < 3; t++) FeedTick(det, 6, kInvalidNode, 200, 200);
  // Node 2 turns 10x slow. EWMA (alpha .3) needs a couple of ticks to
  // cross 3x median, then the 3-tick streak must fill before the flag.
  int flagged_at = -1;
  for (int t = 0; t < 12; t++) {
    auto trans = FeedTick(det, 6, 2, 200, 2000);
    if (!trans.empty()) {
      ASSERT_EQ(trans.size(), 1u);
      EXPECT_EQ(trans[0].node, 2);
      EXPECT_TRUE(trans[0].now_gray);
      flagged_at = t;
      break;
    }
  }
  // Hysteresis: the condition must hold consecutive_ticks=3 ticks
  // (indices 0..2) before the flag, so it can fire no earlier than t=2.
  ASSERT_GE(flagged_at, 2);
  EXPECT_TRUE(det.IsGray(2));
  EXPECT_EQ(det.GrayCount(), 1u);
  EXPECT_GT(det.Ewma(2), 3.0 * det.FleetMedian());
}

TEST(GrayDetectorTest, RecoversWithHysteresis) {
  latency::GrayFailureDetector det(GrayOpts(2));
  for (int t = 0; t < 3; t++) FeedTick(det, 4, kInvalidNode, 200, 200);
  for (int t = 0; t < 12 && !det.IsGray(1); t++) FeedTick(det, 4, 1, 200, 4000);
  ASSERT_TRUE(det.IsGray(1));
  // Back to healthy speed: the EWMA must sink below recover_factor x
  // median and hold for consecutive_ticks before the flag clears.
  int recovered_at = -1;
  for (int t = 0; t < 30; t++) {
    auto trans = FeedTick(det, 4, kInvalidNode, 200, 200);
    if (!trans.empty()) {
      EXPECT_EQ(trans[0].node, 1);
      EXPECT_FALSE(trans[0].now_gray);
      recovered_at = t;
      break;
    }
  }
  ASSERT_GE(recovered_at, 1);
  EXPECT_FALSE(det.IsGray(1));
  EXPECT_EQ(det.GrayCount(), 0u);
}

TEST(GrayDetectorTest, BriefSpikeDoesNotFlag) {
  latency::GrayFailureDetector det(GrayOpts(3));
  for (int t = 0; t < 3; t++) FeedTick(det, 4, kInvalidNode, 200, 200);
  // One moderately slow tick: the EWMA pokes above 3x median for a tick
  // or two while it decays back, but the streak never fills — a
  // transient must not flag.
  FeedTick(det, 4, 1, 200, 2500);
  for (int t = 0; t < 10; t++) {
    auto trans = FeedTick(det, 4, kInvalidNode, 200, 200);
    EXPECT_TRUE(trans.empty());
  }
  EXPECT_FALSE(det.IsGray(1));
}

TEST(GrayDetectorTest, LowSampleTicksDoNotMoveEwma) {
  auto opts = GrayOpts(1);
  opts.min_samples = 8;
  latency::GrayFailureDetector det(opts);
  det.ObserveTick(0, 200 * 10, 10);
  det.Evaluate();
  const double before = det.Ewma(0);
  det.ObserveTick(0, 99999, 2);  // Noise tick: 2 < min_samples.
  det.Evaluate();
  EXPECT_EQ(det.Ewma(0), before);
}

// ----------------------------------------------------------- Cluster wiring --

meta::TenantConfig LatencyTenant(TenantId id) {
  meta::TenantConfig c;
  c.id = id;
  c.name = "t" + std::to_string(id);
  c.tenant_quota_ru = 200000;
  c.num_partitions = 4;
  c.num_proxies = 2;
  c.num_proxy_groups = 1;
  c.replicas = 3;
  return c;
}

sim::SimOptions TimedSimOptions(bool hedging, bool gray) {
  sim::SimOptions o;
  o.seed = 11;
  o.node.service_time.enabled = true;
  o.node.service_time.dist = DistKind::kLognormal;
  o.node.service_time.mean_micros = 150;
  o.node.service_time.sigma = 1.2;
  o.latency.enabled = true;
  o.latency.hedge.enabled = hedging;
  o.latency.hedge.min_observations = 16;
  o.latency.hedge.min_threshold_micros = 100;
  o.latency.gray.enabled = gray;
  // Low enough that canary-probe ticks (a handful of reads) still update
  // a demoted node's EWMA, so recovery is observable.
  o.latency.gray.min_samples = 2;
  o.latency.slo_target_micros = 2500;
  return o;
}

sim::WorkloadProfile EventualReads(double qps) {
  sim::WorkloadProfile w;
  w.base_qps = qps;
  w.read_ratio = 1.0;
  w.eventual_read_fraction = 1.0;
  w.num_keys = 500;
  w.value_bytes = 256;
  return w;
}

TEST(TimedSettleTest, PercentilesSpreadAndSloViolationsCount) {
  sim::ClusterSim sim(TimedSimOptions(/*hedging=*/false, /*gray=*/false));
  PoolId pool = sim.AddPool(6);
  ASSERT_TRUE(sim.AddTenant(LatencyTenant(1), pool).ok());
  sim.SetProxyCacheEnabled(1, false);  // Every read hits the data plane.
  sim.PreloadKeys(1, 500, 256);
  sim.SetWorkload(1, EventualReads(300));
  sim.RunTicks(20);

  uint64_t ok = 0, violations = 0;
  double p50 = 0, p99 = 0;
  for (const auto& m : sim.History(1)) {
    ok += m.ok;
    violations += m.slo_violations;
    if (m.latency_p99 > 0) {
      p50 = m.latency_p50;
      p99 = m.latency_p99;
    }
  }
  ASSERT_GT(ok, 1000u);
  // Sampled lognormal service times: the per-tick percentiles must
  // spread (the seed's degenerate constant latency had p50 == p99).
  EXPECT_GT(p99, p50 * 1.5);
  // A 1.2-sigma lognormal around 150us pushes some mass past 4ms.
  EXPECT_GT(violations, 0u);
  EXPECT_GT(sim.SloBurnRate(1, 20), 0.0);
}

TEST(TimedSettleTest, HedgingFiresAndWins) {
  sim::ClusterSim sim(TimedSimOptions(/*hedging=*/true, /*gray=*/false));
  PoolId pool = sim.AddPool(6);
  ASSERT_TRUE(sim.AddTenant(LatencyTenant(1), pool).ok());
  sim.SetProxyCacheEnabled(1, false);  // Every read hits the data plane.
  sim.PreloadKeys(1, 500, 256);
  sim.SetWorkload(1, EventualReads(300));
  sim.RunTicks(25);

  uint64_t hedged = 0, wins = 0, ok = 0;
  for (const auto& m : sim.History(1)) {
    hedged += m.hedged_reads;
    wins += m.hedge_wins;
    ok += m.ok;
  }
  ASSERT_GT(ok, 1000u);
  // The p95 threshold arms the hedge on roughly the slowest 5% of reads
  // once the histogram warms, and most fired hedges beat a
  // threshold-crossing primary.
  EXPECT_GT(hedged, 0u);
  EXPECT_GT(wins, 0u);
  EXPECT_LE(wins, hedged);
  EXPECT_LT(hedged, ok / 4);  // Not hedging everything.
}

TEST(TimedSettleTest, GrayNodeIsFlaggedAndDemotedFromReads) {
  sim::ClusterSim sim(TimedSimOptions(/*hedging=*/false, /*gray=*/true));
  PoolId pool = sim.AddPool(6);
  ASSERT_TRUE(sim.AddTenant(LatencyTenant(1), pool).ok());
  sim.SetProxyCacheEnabled(1, false);  // Every read hits the data plane.
  sim.PreloadKeys(1, 500, 256);
  sim.SetWorkload(1, EventualReads(300));
  sim.RunTicks(8);  // Healthy warm-up.
  ASSERT_EQ(sim.GrayNodeCount(), 0u);
  auto primaries = [&sim]() {
    std::vector<NodeId> out;
    for (const auto& placement : sim.meta().GetTenant(1)->partitions) {
      out.push_back(placement.primary());
    }
    return out;
  };
  const uint64_t epoch_before = sim.meta().routing_epoch();
  const std::vector<NodeId> primaries_before = primaries();

  const NodeId slow = 2;
  sim.DegradeNode(slow, 10.0);
  sim.RunTicks(20);
  EXPECT_TRUE(sim.IsNodeGray(slow));
  EXPECT_EQ(sim.GrayNodeCount(), 1u);
  // The node is alive the whole time — this is the failure mode the
  // crash detector cannot see.
  EXPECT_EQ(sim.DownNodeCount(), 0u);
  // Gray detection only steers reads: placement never moves.
  EXPECT_EQ(sim.meta().routing_epoch(), epoch_before);
  EXPECT_EQ(primaries(), primaries_before);

  // Demotion: with the flag up, only the canary probes (every 16th
  // eventual read) still land on the slow node — its served share
  // collapses from ~1/6 of the fleet to a trickle.
  sim.RunTicks(1);
  double slow_ru = 0, fleet_ru = 0;
  for (const auto& node_ptr : sim.nodes()) {
    for (const auto& [tid, ru] : node_ptr->LastTickTenantRu()) {
      fleet_ru += ru;
      if (node_ptr->id() == slow) slow_ru += ru;
    }
  }
  ASSERT_GT(fleet_ru, 0.0);
  EXPECT_LT(slow_ru / fleet_ru, 0.05);

  // Restore: the detector un-flags after the hysteresis window.
  sim.DegradeNode(slow, 1.0);
  sim.RunTicks(30);
  EXPECT_FALSE(sim.IsNodeGray(slow));
}

TEST(TimedSettleTest, DisabledSubsystemLeavesMetricsDegenerate) {
  sim::SimOptions o;
  o.seed = 11;
  sim::ClusterSim sim(o);
  PoolId pool = sim.AddPool(6);
  ASSERT_TRUE(sim.AddTenant(LatencyTenant(1), pool).ok());
  sim.PreloadKeys(1, 500, 256);
  sim.SetWorkload(1, EventualReads(300));
  sim.RunTicks(10);
  for (const auto& m : sim.History(1)) {
    EXPECT_EQ(m.hedged_reads, 0u);
    EXPECT_EQ(m.slo_violations, 0u);
    EXPECT_EQ(m.latency_p99, 0.0);
  }
  EXPECT_EQ(sim.GrayNodeCount(), 0u);
}

}  // namespace
}  // namespace abase
