// Immutable sorted run with a bloom filter and block-granular I/O
// accounting. Data lives in memory (the simulator's "disk"), but every
// probe that reaches the run's data blocks counts as one disk read so the
// I/O-WFQ and DiskModel see realistic load. Rows are the shared write
// records (record.h): a flush or compaction moves record
// handles into the run instead of copying keys and values, while
// data_bytes() still charges every row to this run as its own storage.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/key_ref.h"
#include "storage/bloom.h"
#include "storage/record.h"

namespace abase {
namespace storage {

/// Result of probing one SSTable.
struct SstProbe {
  /// The run's row for the key — its record is `**rec` — or
  /// nullptr if absent. Valid while the run is.
  const ReplRecordPtr* rec = nullptr;
  int block_reads = 0;  ///< Data-block reads charged (0 if bloom-filtered).
};

/// An immutable sorted string table built from a flushed memtable or a
/// compaction merge.
class SsTable {
 public:
  /// Builds from records sorted by key, one per key. `id` is unique per
  /// engine.
  SsTable(uint64_t id, std::vector<ReplRecordPtr> rows);

  /// Point lookup. Bloom-negative probes cost no block reads; positive
  /// probes cost one block read (the sparse index is assumed resident).
  SstProbe Get(std::string_view key) const;

  /// Get with a resumable search hint for batched lookups over keys in
  /// ascending order: the binary search starts at `*hint` (the previous
  /// key's lower bound) instead of the run's start, and `*hint` advances
  /// to this key's lower bound. Identical result and block-read charge
  /// to the plain Get.
  SstProbe Get(std::string_view key, size_t* hint) const;

  /// Interned-key form: the engine hashes a key ONCE per lookup
  /// (KeyRef::From) and every run's bloom probe reuses key.hash instead
  /// of re-hashing — the old path paid one FNV pass per run per miss.
  /// Identical result and block-read charge to the string_view form.
  SstProbe Get(const KeyRef& key, size_t* hint) const;

  uint64_t id() const { return id_; }
  size_t entry_count() const { return rows_.size(); }
  uint64_t data_bytes() const { return data_bytes_; }
  /// Key bounds; views into the first and last rows (empty for an
  /// empty run).
  std::string_view min_key() const { return min_key_; }
  std::string_view max_key() const { return max_key_; }

  /// True if `key` falls in [min_key, max_key] (cheap pre-filter).
  bool KeyInRange(std::string_view key) const {
    return !rows_.empty() && key >= min_key_ && key <= max_key_;
  }

  const std::vector<ReplRecordPtr>& rows() const { return rows_; }

 private:
  uint64_t id_;
  std::vector<ReplRecordPtr> rows_;
  BloomFilter bloom_;
  uint64_t data_bytes_ = 0;
  std::string_view min_key_, max_key_;  ///< Into rows_' records.
};

using SsTablePtr = std::shared_ptr<const SsTable>;

}  // namespace storage
}  // namespace abase
