// Ablations for the isolation mechanism (Sections 4.1 and 4.3):
//  A. cache-aware RU estimation vs cache-blind estimation;
//  B. dual-layer WFQ vs FIFO under a heavyweight/lightweight tenant mix.
#include <algorithm>
#include <cstdio>
#include <deque>
#include <map>

#include "bench/bench_util.h"
#include "ru/request_unit.h"
#include "sched/dual_layer_wfq.h"

using namespace abase;

namespace {

// A: a hot-cached tenant is admission-controlled with both estimators.
// The cache-aware estimate tracks true consumption; the blind estimate
// over-throttles by the hit ratio factor.
void RunRuAblation() {
  std::printf("\nAblation A: cache-aware vs cache-blind RU estimation\n");
  std::printf("%12s | %14s %14s | %s\n", "hit ratio", "aware est. RU",
              "blind est. RU", "over-throttle factor");

  for (double hit : {0.0, 0.5, 0.9, 0.99}) {
    ru::RuEstimator est;
    // Teach the estimator the workload: 2KB reads at the given hit ratio.
    for (int i = 0; i < 500; i++) {
      bool was_hit = (i % 100) < static_cast<int>(hit * 100);
      est.ChargeRead(2048, was_hit ? ru::ReadServedBy::kDataNodeCache
                                   : ru::ReadServedBy::kDisk);
    }
    double aware = est.EstimateReadRu();
    double blind = est.EstimateReadRuCacheBlind();
    std::printf("%11.0f%% | %14.3f %14.3f | %17.1fx\n", hit * 100, aware,
                blind, blind / aware);
  }
  std::printf(
      " -> With a 99%%-hit workload the blind estimator reserves ~5x the "
      "RU actually consumed: under a fixed quota it throttles a tenant "
      "that the cache would have served nearly for free (Challenge 1).\n");
}

// B: FIFO vs the four-class dual-layer WFQ when a tenant of heavyweight
// requests shares the node with a lightweight-request tenant. The FIFO
// baseline drains a single arrival-ordered queue until the tick's RU
// budget is spent — exactly the "heavyweight requests sit in front of
// lightweight ones" failure 2DFQ describes.
void RunWfqVsFifo() {
  std::printf("\nAblation B: dual-layer WFQ vs FIFO (2DFQ-style mix)\n");

  constexpr double kBudget = 1000;
  constexpr int kTicks = 30;
  constexpr int kPerTick = 150;  // 150 x (10 + 0.5) RU >> budget.

  struct Item {
    TenantId tenant;
    double cost;
    int enq_tick;
  };

  // --- FIFO baseline -------------------------------------------------------
  std::deque<Item> fifo;
  double fifo_t2_served = 0, fifo_t2_wait = 0;
  uint64_t fifo_t2_done = 0;
  for (int tick = 0; tick < kTicks; tick++) {
    for (int i = 0; i < kPerTick; i++) {
      fifo.push_back(Item{1, 10.0, tick});
      fifo.push_back(Item{2, 0.5, tick});
    }
    double budget = kBudget;
    while (!fifo.empty() && budget >= fifo.front().cost) {
      Item it = fifo.front();
      fifo.pop_front();
      budget -= it.cost;
      if (it.tenant == 2) {
        fifo_t2_served += it.cost;
        fifo_t2_wait += tick - it.enq_tick;
        fifo_t2_done++;
      }
    }
  }

  // --- Dual-layer WFQ --------------------------------------------------------
  sched::DualWfqOptions o;
  o.cpu_budget_ru = kBudget;
  o.single_tenant_cpu_cap = 1.0;
  sched::DualLayerWfq wfq(o);
  double wfq_t2_served = 0, wfq_t2_wait = 0;
  uint64_t wfq_t2_done = 0;
  uint64_t id = 0;
  std::map<uint64_t, int> enq_tick;
  int tick_now = 0;
  for (int tick = 0; tick < kTicks; tick++) {
    tick_now = tick;
    for (int i = 0; i < kPerTick; i++) {
      sched::SchedRequest r1;
      r1.req_id = ++id;
      r1.tenant = 1;
      r1.cpu_cost_ru = 10;
      r1.cls = RequestClass::kLargeRead;
      r1.quota_share = 0.5;
      enq_tick[r1.req_id] = tick;
      wfq.Enqueue(r1);

      sched::SchedRequest r2;
      r2.req_id = ++id;
      r2.tenant = 2;
      r2.cpu_cost_ru = 0.5;
      r2.cls = RequestClass::kSmallRead;
      r2.quota_share = 0.5;
      enq_tick[r2.req_id] = tick;
      wfq.Enqueue(r2);
    }
    wfq.RunTick(
        [](const sched::SchedRequest*, size_t n, sched::CacheProbe* out) {
          std::fill(out, out + n, sched::CacheProbe{true, false, 0});
        },
        [](const sched::SchedRequest&) { return false; },
        [&](const sched::SchedRequest& r, sched::SchedOutcome) {
          if (r.tenant == 2) {
            wfq_t2_served += r.cpu_cost_ru;
            wfq_t2_wait += tick_now - enq_tick[r.req_id];
            wfq_t2_done++;
          }
        });
  }

  double fifo_mean_wait =
      fifo_t2_done == 0 ? 0 : fifo_t2_wait / static_cast<double>(fifo_t2_done);
  double wfq_mean_wait =
      wfq_t2_done == 0 ? 0 : wfq_t2_wait / static_cast<double>(wfq_t2_done);
  std::printf("  tenant-2 (lightweight) requests served: WFQ %llu vs FIFO "
              "%llu\n",
              static_cast<unsigned long long>(wfq_t2_done),
              static_cast<unsigned long long>(fifo_t2_done));
  std::printf("  tenant-2 RU served: WFQ %.0f vs FIFO %.0f\n", wfq_t2_served,
              fifo_t2_served);
  std::printf("  tenant-2 mean queueing delay (ticks): WFQ %.2f vs FIFO "
              "%.2f\n",
              wfq_mean_wait, fifo_mean_wait);
  std::printf(
      " -> Per-class queues + quota-weighted VFT keep lightweight "
      "requests from waiting behind heavyweight ones (paper cites 2DFQ "
      "[27]).\n");
}

}  // namespace

int main() {
  bench::PrintHeader("Ablations: RU model and dual-layer WFQ");
  RunRuAblation();
  RunWfqVsFifo();
  return 0;
}
