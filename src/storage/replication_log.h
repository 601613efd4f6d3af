// Per-partition replication stream: the sequenced write log a primary
// engine retains so its replicas can apply the exact same mutations in
// the exact same order. Every acknowledged engine write (local or
// applied from a primary's stream) appends one record; record sequence
// numbers are the engine's monotonic apply sequence, so the log is
// contiguous and a replica's `applied_seq` is its cursor into the
// primary's log. The log is truncated only up to the slowest replica's
// cursor (the Replicate pipeline step drives this); a replica whose
// cursor fell below the retained range is re-seeded with a full state
// snapshot instead of a delta replay.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <string_view>
#include <utility>
#include <vector>

#include "storage/record.h"
#include "storage/value.h"

namespace abase {
namespace storage {

/// Append-only, contiguously-sequenced mutation log with prefix
/// truncation. Records are indexed by stream sequence: record `seq`
/// lives at `records_[seq - first_seq()]`.
class ReplicationLog {
 public:
  /// Shares an already-materialized record: no key/value copy.
  void Append(ReplRecordPtr rec) {
    assert(records_.empty() || rec->seq() == last_seq() + 1);
    bytes_ += rec->key().size() + rec->PayloadBytes();
    records_.push_back(std::move(rec));
  }

  /// Convenience for callers (tests, mostly) holding a loose key/entry.
  void Append(std::string_view key, const ValueEntry& entry) {
    Append(MakeReplRecord(key, entry));
  }

  /// First retained sequence (first_seq() > 1 after truncation).
  uint64_t first_seq() const {
    return records_.empty() ? truncated_through_ + 1
                            : records_.front()->seq();
  }

  /// Last appended sequence (0 when nothing was ever appended).
  uint64_t last_seq() const {
    return records_.empty() ? truncated_through_
                            : records_.back()->seq();
  }

  /// Whether a replica whose cursor is `applied_seq` can be caught up by
  /// delta replay: every record in (applied_seq, last_seq()] is retained.
  bool Covers(uint64_t applied_seq) const {
    return applied_seq + 1 >= first_seq();
  }

  /// Records with sequence in (after_seq, through_seq], oldest first.
  /// Callers must check Covers(after_seq) beforehand.
  std::vector<ReplRecordPtr> Delta(uint64_t after_seq,
                                   uint64_t through_seq) const {
    std::vector<ReplRecordPtr> out;
    ForEachDelta(after_seq, through_seq, [&out](const ReplRecordPtr& rec) {
      out.push_back(rec);
      return true;
    });
    return out;
  }

  /// Zero-allocation form of Delta for the per-tick shipping loop:
  /// visits the same records in the same (oldest-first) order. `fn`
  /// receives the shared record handle (so a destination log can retain
  /// it without copying) and returns false to stop early.
  template <typename Fn>
  void ForEachDelta(uint64_t after_seq, uint64_t through_seq,
                    Fn&& fn) const {
    if (records_.empty() || through_seq <= after_seq) return;
    const uint64_t lo = first_seq();
    assert(after_seq + 1 >= lo);
    const uint64_t hi = std::min(through_seq, last_seq());
    for (uint64_t seq = after_seq + 1; seq <= hi; seq++) {
      if (!fn(records_[static_cast<size_t>(seq - lo)])) return;
    }
  }

  /// Payload bytes of the records after `after_seq` (catch-up sizing).
  uint64_t BytesAfter(uint64_t after_seq) const {
    uint64_t total = 0;
    const uint64_t lo = first_seq();
    for (uint64_t seq = std::max(after_seq + 1, lo); seq <= last_seq();
         seq++) {
      const ReplRecord& rec = *records_[static_cast<size_t>(seq - lo)];
      total += rec.key().size() + rec.PayloadBytes();
    }
    return total;
  }

  /// Drops records with sequence <= `seq` (every replica has applied
  /// them). No-op for sequences below the current floor.
  ///
  /// A burst (a preload, a catch-up window) grows the handle array far
  /// past what steady traffic needs, and erasing records keeps that
  /// capacity. So when the log, at its fullest since the last
  /// truncation, filled at most a quarter of an array of more than
  /// kKeptCapacity handles, the excess is given back. Steady traffic
  /// refills the array past that quarter between truncations (vector
  /// growth at most doubles it), and a small array is kept whatever its
  /// fill, so neither reallocates on every truncation.
  void TruncateThrough(uint64_t seq) {
    const size_t peak = records_.size();
    size_t keep_from = 0;
    while (keep_from < records_.size() &&
           records_[keep_from]->seq() <= seq) {
      bytes_ -= records_[keep_from]->key().size() +
                records_[keep_from]->PayloadBytes();
      keep_from++;
    }
    if (keep_from == 0) return;
    truncated_through_ =
        std::max(truncated_through_, records_[keep_from - 1]->seq());
    records_.erase(records_.begin(),
                   records_.begin() + static_cast<ptrdiff_t>(keep_from));
    if (records_.capacity() > kKeptCapacity &&
        peak <= records_.capacity() / 4) {
      records_.shrink_to_fit();
    }
  }

  size_t record_count() const { return records_.size(); }
  /// Handle slots allocated (retained-memory probes).
  size_t record_capacity() const { return records_.capacity(); }
  uint64_t bytes() const { return bytes_; }

 private:
  /// Handle arrays up to this size (2 KB) are never shrunk.
  static constexpr size_t kKeptCapacity = 256;

  std::vector<ReplRecordPtr> records_;
  uint64_t bytes_ = 0;
  uint64_t truncated_through_ = 0;  ///< Highest seq dropped by truncation.
};

}  // namespace storage
}  // namespace abase
