#include "sched/dual_layer_wfq.h"

#include <algorithm>

namespace abase {
namespace sched {

namespace {

/// Deferred item: popped this tick but pushed back for the next one.
struct Deferral {
  SchedRequest req;
  double vft;
  int queue_index;
};

bool IsReadClass(int cls) {
  return cls == static_cast<int>(RequestClass::kSmallRead) ||
         cls == static_cast<int>(RequestClass::kLargeRead);
}

}  // namespace

DualLayerWfq::DualLayerWfq(DualWfqOptions options) : options_(options) {}

void DualLayerWfq::Enqueue(const SchedRequest& req) {
  cpu_queues_[static_cast<int>(req.cls)].Push(req, req.cpu_cost_ru);
}

size_t DualLayerWfq::PendingCount() const {
  size_t n = 0;
  for (int c = 0; c < kNumRequestClasses; c++) {
    n += cpu_queues_[c].Size() + io_queues_[c].Size();
  }
  return n;
}

void DualLayerWfq::Clear() {
  for (int c = 0; c < kNumRequestClasses; c++) {
    cpu_queues_[c].Clear();
    io_queues_[c].Clear();
  }
}

TickStats DualLayerWfq::RunTick(const ProbeBatchFn& probe,
                                const CancelFn& canceled,
                                const CompleteFn& complete) {
  TickStats stats;
  // O(1) idle skip: with nothing queued in either layer, both drain
  // loops would break on their first class scan — return before paying
  // for their scratch state. A thousand-node cluster at million-tenant
  // scale runs mostly idle nodes every tick.
  if (PendingCount() == 0) return stats;
  RunCpuLayer(probe, canceled, complete, &stats);
  RunIoLayer(complete, &stats);
  return stats;
}

void DualLayerWfq::RunCpuLayer(const ProbeBatchFn& probe,
                               const CancelFn& canceled,
                               const CompleteFn& complete, TickStats* stats) {
  // Consecutive read pops defer their probe/completion into a batch. A
  // batch stays sound because nothing between its pops can change a
  // probe's answer — cache mutations happen only in completions, and the
  // flush triggers (write pop, repeated key hash, cap) put every
  // completion that a later probe could observe before that probe.
  double ru_left = options_.cpu_budget_ru;
  int reads_left = options_.read_concurrency;
  int writes_left = options_.write_concurrency;
  double write_ru_left = options_.write_ru_ceiling;
  const double tenant_cap =
      options_.single_tenant_cpu_cap * options_.cpu_budget_ru;
  constexpr size_t kReadBatchCap = 16;

  tenant_ru_.Clear();
  batch_reqs_.clear();
  batch_cls_.clear();
  std::vector<Deferral> deferred;

  auto flush = [&] {
    const size_t n = batch_reqs_.size();
    if (n == 0) return;
    batch_probes_.assign(n, CacheProbe{});
    probe(batch_reqs_.data(), n, batch_probes_.data());
    for (size_t i = 0; i < n; i++) {
      const SchedRequest& req = batch_reqs_[i];
      const CacheProbe& pr = batch_probes_[i];
      if (pr.hit) {
        stats->cache_hits++;
        complete(req, SchedOutcome::kServedFromCache);
      } else if (!pr.needs_io) {
        complete(req, SchedOutcome::kServedFromCpu);
      } else {
        SchedRequest io_req = req;
        io_req.io_blocks = std::max(1, pr.io_blocks);
        io_queues_[batch_cls_[i]].Push(io_req,
                                       static_cast<double>(io_req.io_blocks));
      }
    }
    batch_reqs_.clear();
    batch_cls_.clear();
  };
  auto batch_has_key = [&](uint64_t key_hash) {
    for (const SchedRequest& r : batch_reqs_) {
      if (r.key_hash == key_hash) return true;
    }
    return false;
  };

  // Serve the globally smallest VFT across the four class queues (the
  // class split exists so heavyweight requests never sit *in front of*
  // lightweight ones within a queue; the cross-queue pick must still be
  // work-fair, or a backlogged heavy class would starve light classes by
  // pop count).
  while (ru_left > 0) {
    int c = -1;
    double best_vft = 0;
    for (int cand = 0; cand < kNumRequestClasses; cand++) {
      WfqQueue& q = cpu_queues_[cand];
      if (q.Empty()) continue;
      // Rule 2: direction-level concurrency and write-RU ceilings.
      if (IsReadClass(cand)) {
        if (reads_left <= 0) continue;
      } else {
        if (writes_left <= 0 || write_ru_left <= 0) continue;
      }
      if (c < 0 || q.PeekVft() < best_vft) {
        c = cand;
        best_vft = q.PeekVft();
      }
    }
    if (c < 0) break;  // Everything empty or rule-blocked.
    WfqQueue& q = cpu_queues_[c];

    // Rule 3: a single tenant may claim at most 90% of the tick's CPU.
    // It is checked before cancellation, so even a canceled head defers
    // when its tenant is capped.
    TenantId head = q.PeekTenant();
    const double* used = tenant_ru_.Find(head);
    double head_used = used != nullptr ? *used : 0.0;
    double vft;
    if (head_used >= tenant_cap) {
      SchedRequest r = q.PopWithVft(&vft);
      deferred.push_back(Deferral{r, vft, c});
      stats->rule3_deferrals++;
      continue;
    }

    SchedRequest req = q.PopWithVft(&vft);
    // A canceled pop consumes no budget: it is dropped before any charge.
    if (canceled(req)) continue;

    ru_left -= req.cpu_cost_ru;
    tenant_ru_[req.tenant] += req.cpu_cost_ru;
    stats->cpu_scheduled++;
    stats->cpu_ru_used += req.cpu_cost_ru;
    if (IsReadClass(c)) {
      reads_left--;
      // A repeat of a key already in the batch must see that earlier
      // request's completion (its cache fill) — flush first.
      if (batch_has_key(req.key_hash)) flush();
      batch_reqs_.push_back(req);
      batch_cls_.push_back(c);
      if (batch_reqs_.size() >= kReadBatchCap) flush();
    } else {
      writes_left--;
      write_ru_left -= req.cpu_cost_ru;
      // Writes invalidate/fill cache state in their completion and their
      // probe can read what prior reads filled: keep strict order.
      flush();
      batch_reqs_.push_back(req);
      batch_cls_.push_back(c);
      flush();
    }
  }
  flush();

  // Deferred requests keep their original VFT and run next tick.
  for (const Deferral& d : deferred) {
    cpu_queues_[d.queue_index].Reinsert(d.req, d.vft);
  }
}

void DualLayerWfq::RunIoLayer(const CompleteFn& complete, TickStats* stats) {
  const int64_t basic_budget =
      static_cast<int64_t>(options_.io_basic_threads) *
      options_.io_blocks_per_thread;
  const int64_t extra_budget =
      static_cast<int64_t>(options_.io_extra_threads) *
      options_.io_blocks_per_thread;

  std::unordered_map<TenantId, int64_t> tenant_blocks;
  int64_t basic_used = 0;

  // Phase 1: basic threads serve everyone in global VFT order.
  while (basic_used < basic_budget) {
    int c = -1;
    double best_vft = 0;
    for (int cand = 0; cand < kNumRequestClasses; cand++) {
      if (io_queues_[cand].Empty()) continue;
      if (c < 0 || io_queues_[cand].PeekVft() < best_vft) {
        c = cand;
        best_vft = io_queues_[cand].PeekVft();
      }
    }
    if (c < 0) break;
    SchedRequest req = io_queues_[c].Pop();
    basic_used += req.io_blocks;
    tenant_blocks[req.tenant] += req.io_blocks;
    stats->io_scheduled++;
    stats->io_blocks_used += static_cast<uint64_t>(req.io_blocks);
    complete(req, SchedOutcome::kServedFromDisk);
  }

  // Rule 4: if the basic threads were (nearly) fully monopolized by one
  // tenant, recruit the extra threads — but only for *other* tenants.
  if (basic_used < basic_budget) return;  // Budget not exhausted: done.
  TenantId monopolist = 0;
  int64_t top_blocks = 0;
  for (const auto& [tenant, blocks] : tenant_blocks) {
    if (blocks > top_blocks) {
      top_blocks = blocks;
      monopolist = tenant;
    }
  }
  const bool monopolized =
      basic_used > 0 &&
      static_cast<double>(top_blocks) / static_cast<double>(basic_used) >=
          0.95;
  if (!monopolized) return;

  stats->extra_threads_active = true;
  int64_t extra_used = 0;
  bool progressed = true;
  std::vector<Deferral> skipped;
  while (progressed && extra_used < extra_budget) {
    progressed = false;
    for (int c = 0; c < kNumRequestClasses && extra_used < extra_budget;
         c++) {
      WfqQueue& q = io_queues_[c];
      // Skip over the monopolist's requests to reach other tenants.
      while (!q.Empty() && q.PeekTenant() == monopolist) {
        double vft;
        SchedRequest r = q.PopWithVft(&vft);
        skipped.push_back(Deferral{r, vft, c});
      }
      if (q.Empty()) continue;
      SchedRequest req = q.Pop();
      progressed = true;
      extra_used += req.io_blocks;
      stats->io_scheduled++;
      stats->rule4_extra_served++;
      stats->io_blocks_used += static_cast<uint64_t>(req.io_blocks);
      complete(req, SchedOutcome::kServedFromDisk);
    }
  }
  for (const Deferral& d : skipped) {
    io_queues_[d.queue_index].Reinsert(d.req, d.vft);
  }
}

}  // namespace sched
}  // namespace abase
