// Weighted Fair Queueing primitive — paper Section 4.3.
//
//   wReqCost(Q_i) = Cost(Q_i) / (Q_i / sum Q_p)        (partition-quota weight)
//   VFT(Q_i)      = preVFT_{T_i} + wReqCost(Q_i)
// The per-tenant preVFT accumulates, so a tenant with a large quota or
// cheap requests cannot be prioritized indefinitely; an idle tenant's
// preVFT is brought forward to the queue's virtual time when it becomes
// busy again (standard WFQ start-time rule).
//
// Representation: per-tenant FIFO rings plus a min-heap over the *active*
// tenants keyed by each ring's head-of-line (VFT, tie). Within one tenant
// the pushed (VFT, tie) sequence is non-decreasing — the start-time rule
// takes max(vtime, preVFT) and preVFT never runs behind the ring tail —
// so each ring is sorted by construction and its head is the tenant
// minimum; ties are globally unique, so the heap top is the global
// minimum and the dequeue order is bit-identical to the legacy
// one-item-per-heap-entry priority queue (pinned by the differential
// test). Enqueue for an already-active tenant is O(1); heap operations
// are O(log active-tenants), not O(log queued-requests). Ring and heap
// capacity is retained across ticks and Clear() — no steady-state
// allocation.
#pragma once

#include <cassert>
#include <cstdint>
#include <vector>

#include "common/flat_map.h"
#include "common/types.h"

namespace abase {
namespace sched {

/// A request as seen by the DataNode scheduler.
struct SchedRequest {
  uint64_t req_id = 0;         ///< Opaque handle owned by the caller.
  /// Caller-side slab index for the request's context (opaque to the
  /// scheduler; the DataNode uses it to skip a hash lookup per probe).
  uint32_t pending_slot = 0;
  TenantId tenant = 0;
  PartitionId partition = 0;
  RequestClass cls = RequestClass::kSmallRead;
  bool is_read = true;
  /// Hash of the storage key (FNV-1a of the cache-key string). The CPU
  /// layer flushes a read batch before a pop that repeats a hash already
  /// in it, so a cache fill from one completion is visible to the next
  /// probe of that key.
  uint64_t key_hash = 0;
  double cpu_cost_ru = 1.0;    ///< Rule 1: CPU-WFQ cost is the RU.
  int io_blocks = 1;           ///< Rule 1: I/O-WFQ cost is the IOPS count.
  /// wPartition: this request's partition-quota share of all partition
  /// quotas hosted on the node (in (0, 1]). Set by the DataNode.
  double quota_share = 1.0;
};

/// One WFQ queue. Not thread-safe; the DataNode serializes access.
class WfqQueue {
 public:
  /// Enqueues with the given cost (RU for CPU-WFQ, blocks for I/O-WFQ).
  void Push(const SchedRequest& req, double cost);

  bool Empty() const { return size_ == 0; }
  size_t Size() const { return size_; }

  /// Tenant of the minimum-VFT request (undefined when empty).
  TenantId PeekTenant() const { return Head(heap_[0]).req.tenant; }
  double PeekVft() const { return Head(heap_[0]).vft; }

  /// Pops the minimum-VFT request and advances the queue's virtual time.
  SchedRequest Pop();

  /// Pops and also reports the popped request's VFT (for deferral).
  SchedRequest PopWithVft(double* vft);

  /// Re-inserts a previously-popped request with its original VFT,
  /// without advancing the tenant's preVFT (used when a rule defers an
  /// already-scheduled request to the next tick).
  void Reinsert(const SchedRequest& req, double vft);

  /// Queue virtual time = VFT of the last popped request.
  double VirtualTime() const { return vtime_; }

  /// Discards everything queued and resets the virtual-time state (node
  /// failure: a crashed node's queue does not survive the crash). The
  /// queue afterwards behaves like a freshly constructed one; ring
  /// buffers keep their capacity.
  void Clear();

 private:
  struct Entry {
    SchedRequest req;
    double vft;
    uint64_t tie;  ///< FIFO among equal VFTs: smaller = earlier arrival.
  };

  static constexpr uint32_t kNotInHeap = ~0u;

  /// Circular FIFO of one tenant's queued entries, sorted by (vft, tie).
  /// Capacity is a power of two and only grows.
  struct Ring {
    std::vector<Entry> buf;
    uint32_t head = 0;
    uint32_t count = 0;
    uint32_t heap_pos = kNotInHeap;  ///< Position in heap_, or inactive.

    uint32_t Mask() const { return static_cast<uint32_t>(buf.size()) - 1; }
    Entry& At(uint32_t i) { return buf[(head + i) & Mask()]; }
    const Entry& At(uint32_t i) const { return buf[(head + i) & Mask()]; }
  };

  static bool Before(const Entry& a, const Entry& b) {
    if (a.vft != b.vft) return a.vft < b.vft;
    return a.tie < b.tie;
  }

  const Entry& Head(uint32_t ring) const { return rings_[ring].At(0); }
  uint32_t RingFor(TenantId tenant);
  void AppendTail(Ring& r, const Entry& e);
  void InsertSorted(Ring& r, const Entry& e, bool* new_head);
  static void Grow(Ring& r);
  void HeapInsert(uint32_t ring_index);
  void HeapRemoveTop();
  void SiftUp(uint32_t pos);
  void SiftDown(uint32_t pos);

  /// One ring per tenant ever seen; rings persist (empty) when a tenant
  /// goes idle so re-activation reuses the buffer.
  std::vector<Ring> rings_;
  FlatMap64<uint32_t> tenant_ring_;
  /// Min-heap of active (non-empty) ring indices keyed by head (vft, tie).
  std::vector<uint32_t> heap_;
  size_t size_ = 0;  ///< Total queued entries across all rings.
  /// Per-tenant preVFT, keyed by tenant id. Lazily pruned: once the queue
  /// drains, vtime_ dominates every retained preVFT (each pushed item
  /// pops with its original VFT and folds into vtime_), so the start-time
  /// rule `max(vtime_, preVFT)` gives the same answer with the map
  /// empty — clearing it is bit-identical and keeps the map at
  /// O(tenants busy this tick), not O(tenants ever seen).
  FlatMap64<double> pre_vft_;
  double vtime_ = 0;
  uint64_t tie_counter_ = 0;
};

}  // namespace sched
}  // namespace abase
