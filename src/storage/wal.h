// Minimal write-ahead log. Records are kept in memory; the engine replays
// them to rebuild the memtable after a simulated crash, which the recovery
// tests and the MetaServer failure experiments rely on.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "storage/replication_log.h"
#include "storage/value.h"

namespace abase {
namespace storage {

/// Append-only log with truncation at flush boundaries.
///
/// Storage is a list of fixed-size chunks rather than one flat vector:
/// appends never relocate earlier records (a flat vector's growth
/// reallocation moved the whole backlog, which showed up in profiles),
/// and flush-time truncation retires whole chunks in O(1).
///
/// Records are the shared immutable ReplRecord copies (see
/// replication_log.h): the WAL holds the same record as the memtable and
/// the replication log, and a replica's WAL append of a shipped record
/// is a refcount bump.
class WriteAheadLog {
 public:
  /// Shares an already-materialized record: no key/value copy.
  void Append(ReplRecordPtr rec) {
    bytes_ += rec->key.size() + rec->entry.PayloadBytes();
    if (chunks_.empty() || chunks_.back().size() == kChunk) {
      chunks_.emplace_back();
      chunks_.back().reserve(kChunk);
    }
    chunks_.back().push_back(std::move(rec));
    count_++;
  }

  /// Drops all records up to and including sequence `seq` (called after
  /// the memtable covering those records has been flushed). Records are
  /// appended in nondecreasing sequence order.
  void TruncateThrough(uint64_t seq) {
    while (!chunks_.empty()) {
      std::vector<ReplRecordPtr>& front = chunks_.front();
      if (!front.empty() && front.back()->entry.seq <= seq) {
        for (const ReplRecordPtr& rec : front) {
          bytes_ -= rec->key.size() + rec->entry.PayloadBytes();
        }
        count_ -= front.size();
        chunks_.pop_front();
        continue;
      }
      size_t keep_from = 0;
      while (keep_from < front.size() && front[keep_from]->entry.seq <= seq) {
        bytes_ -= front[keep_from]->key.size() +
                  front[keep_from]->entry.PayloadBytes();
        keep_from++;
      }
      if (keep_from > 0) {
        count_ -= keep_from;
        front.erase(front.begin(),
                    front.begin() + static_cast<ptrdiff_t>(keep_from));
      }
      break;
    }
    if (count_ == 0) chunks_.clear();
  }

  /// Visits every live record in append order; `fn` receives the
  /// shared handle so a recovering memtable can retain the record.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const auto& chunk : chunks_) {
      for (const ReplRecordPtr& rec : chunk) fn(rec);
    }
  }

  size_t record_count() const { return count_; }
  uint64_t bytes() const { return bytes_; }

  void Clear() {
    chunks_.clear();
    count_ = 0;
    bytes_ = 0;
  }

 private:
  static constexpr size_t kChunk = 1024;

  std::deque<std::vector<ReplRecordPtr>> chunks_;
  size_t count_ = 0;
  uint64_t bytes_ = 0;
};

}  // namespace storage
}  // namespace abase
