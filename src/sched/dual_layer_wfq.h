// Dual-Layer Weighted Fair Queueing — paper Section 4.3 + Figure 2.
//
// Requests are split into four independent dual-layer WFQs by
// (read/write) x (small/large) so heavyweight requests never queue in
// front of lightweight ones. Each dual-layer unit is a CPU-WFQ over an
// I/O-WFQ: a request is first scheduled by the CPU-WFQ, which probes the
// DataNode cache; on a hit it completes immediately, on a miss it drops
// into the I/O-WFQ to be served from disk by a pool of basic threads,
// with extra threads recruited when one tenant monopolizes the basics
// (Rule 4).
//
// Production rules reproduced here:
//   Rule 1 — CPU-WFQ cost is the request RU; I/O-WFQ cost is its IOPS.
//   Rule 2 — per-tick concurrency limits on reads and writes, plus a
//            total-RU ceiling on writes (stabilizes latency during
//            LSM compaction / GC).
//   Rule 3 — one tenant may use at most 90% of a tick's CPU budget.
//   Rule 4 — extra I/O threads serve only non-monopolizing tenants.
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "sched/wfq_queue.h"

namespace abase {
namespace sched {

/// Capacity and rule parameters, expressed per one-second scheduling tick.
/// Rule-2 limits are per-tick pop caps (the discrete-time analogue of the
/// paper's in-flight concurrency limits); the defaults are effectively
/// unbounded so the CPU budget is the binding constraint — deployments
/// that want Rule 2 set explicit caps (see the unit tests and Figure 7).
struct DualWfqOptions {
  double cpu_budget_ru = 12000;       ///< Total CPU RU per tick.
  int read_concurrency = 1 << 20;     ///< Rule 2: max read pops per tick.
  int write_concurrency = 1 << 19;    ///< Rule 2: max write pops per tick.
  double write_ru_ceiling = 1e9;      ///< Rule 2: max write RU per tick.
  double single_tenant_cpu_cap = 0.9; ///< Rule 3.
  int io_basic_threads = 8;
  int io_extra_threads = 2;
  int io_blocks_per_thread = 2500;    ///< Per-thread IOPS slots per tick.
};

/// Why the scheduler finished (or refused) a request.
enum class SchedOutcome {
  kServedFromCache,  ///< CPU layer: DataNode cache hit.
  kServedFromCpu,    ///< Completed at the CPU layer without disk I/O
                     ///< (e.g., a write absorbed by the memtable).
  kServedFromDisk,   ///< Went through the I/O layer.
  kDeferred,         ///< Still queued when the tick's budget ran out.
};

/// Result of the caller-provided cache probe for a scheduled request.
struct CacheProbe {
  bool hit = false;      ///< DataNode cache hit (reads only).
  bool needs_io = true;  ///< False when the CPU layer fully served it.
  int io_blocks = 1;     ///< Disk blocks needed when needs_io.
};

/// Per-tick scheduler statistics.
struct TickStats {
  uint64_t cpu_scheduled = 0;
  uint64_t cache_hits = 0;
  uint64_t io_scheduled = 0;
  double cpu_ru_used = 0;
  uint64_t io_blocks_used = 0;
  uint64_t rule3_deferrals = 0;  ///< Pops skipped due to the 90% cap.
  uint64_t rule4_extra_served = 0;
  bool extra_threads_active = false;
};

/// The four-class dual-layer WFQ engine.
class DualLayerWfq {
 public:
  /// `complete` is invoked exactly once per request that finishes this
  /// tick, with where it was served from.
  using CompleteFn = std::function<void(const SchedRequest&, SchedOutcome)>;
  /// Checks the DataNode cache for a batch of CPU-scheduled requests:
  /// fills `out[i]` for `reqs[i]`, i in [0, n). The batch is in pop
  /// order; none of its members are canceled (see CancelFn).
  using ProbeBatchFn =
      std::function<void(const SchedRequest* reqs, size_t n, CacheProbe* out)>;
  /// True if the request was canceled (deadline-expired) before the
  /// scheduler reached it. Checked at pop time, after Rule 3: a canceled
  /// pop never reaches the probe or `complete`, and consumes no CPU
  /// budget, tenant share or read/write concurrency.
  using CancelFn = std::function<bool(const SchedRequest&)>;

  explicit DualLayerWfq(DualWfqOptions options = {});

  /// Enqueues into the CPU-WFQ of the request's class.
  void Enqueue(const SchedRequest& req);

  /// Runs one scheduling tick: drains CPU-WFQs under Rules 2-3, then
  /// drains I/O-WFQs under Rules 1 and 4. Returns this tick's statistics.
  ///
  /// Consecutive read pops accumulate into a batch so the caller can
  /// amortize one storage-engine probe pass over it. A batch flushes on a
  /// write pop (the write is then probed alone), before a repeated key
  /// hash, at 16 reads, and at loop exit. Budget accounting follows pop
  /// order; completions follow probe order, and every completion a probe
  /// could observe precedes that probe in pop order.
  TickStats RunTick(const ProbeBatchFn& probe, const CancelFn& canceled,
                    const CompleteFn& complete);

  /// Requests still waiting (across both layers and all classes).
  size_t PendingCount() const;

  /// Discards all queued requests in every class and layer (node
  /// failure). Their completions never fire; the caller owns whatever
  /// bookkeeping referenced them.
  void Clear();

  const DualWfqOptions& options() const { return options_; }
  void set_options(const DualWfqOptions& o) { options_ = o; }

 private:
  void RunCpuLayer(const ProbeBatchFn& probe, const CancelFn& canceled,
                   const CompleteFn& complete, TickStats* stats);
  void RunIoLayer(const CompleteFn& complete, TickStats* stats);

  DualWfqOptions options_;
  WfqQueue cpu_queues_[kNumRequestClasses];
  WfqQueue io_queues_[kNumRequestClasses];
  /// Per-tick scratch (kept across ticks to avoid re-allocation; cleared
  /// at use). `tenant_ru_` is only point-queried, never iterated, so its
  /// layout cannot affect scheduling order.
  FlatMap64<double> tenant_ru_;
  std::vector<SchedRequest> batch_reqs_;
  std::vector<int> batch_cls_;
  std::vector<CacheProbe> batch_probes_;
};

}  // namespace sched
}  // namespace abase
