// LsmEngine: the local storage engine backing each DataNode — the repo's
// stand-in for ByteDance's LavaStore [43]. A real (memory-backed) LSM tree:
// memtable → size-tiered levels of bloom-filtered SSTables, with TTL
// expiry at read time and at compaction. Every data-block probe is counted
// so the scheduling layer can charge realistic disk I/O. Durability of
// unflushed writes (`enable_wal`) needs no log object of its own: a
// write-ahead log would hold exactly the memtable's records (see
// CrashAndRecover).
//
// One allocation per write version: every write builds a single
// immutable ReplRecord block (storage/record.h), and the replication
// log, the memtable, every replica's log and memtable (ApplyReplicated),
// and every SSTable run that flush or compaction produces share it by an
// 8-byte handle. The simulated byte accounting still charges each holder
// in full (each replica models its own storage); only host memory is
// shared.
//
// Lazy state: a registered tenant's replicas exist long before (and
// often without ever) serving a write, so the engine object is a thin
// handle — options, clock, mutation counter and one pointer — and
// everything a written engine holds (memtable, replication log, levels,
// sequence counters, LsmStats, MultiFind/scan scratch) is allocated by
// its first mutation. A never-written engine answers every query exactly
// as an empty engine does and allocates nothing doing so: reads find
// nothing, exports and scans are done at once, and stats() / repl_log()
// return shared static empties. Reads against it are not counted (there
// is no LsmStats to count into until the engine is written).
//
// Pointer lifetime: a raw pointer the engine hands out — MultiFind's
// `const ReplRecordPtr*` row slots, FindEntry's records — is valid until
// the next mutation of the same engine: a write, replicated apply,
// ingest, flush, compaction, resync or crash recovery may move or
// release the row it points into. Copying the ReplRecordPtr out of a
// slot (or aliasing it into a SharedValue) instead keeps the record alive
// past any of those: the read path's caches and responses hold records
// that way (common/shared_value.h).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/clock.h"
#include "common/key_ref.h"
#include "common/status.h"
#include "storage/memtable.h"
#include "storage/replication_log.h"
#include "storage/sstable.h"

namespace abase {
namespace storage {

/// Engine tuning knobs. Every engine copies them, so they pack into 16
/// bytes (an idle replica's engine is little more than this).
struct LsmOptions {
  /// Memtable flush threshold in bytes.
  uint64_t memtable_flush_bytes = 4ull << 20;
  /// A level holding this many runs triggers a merge into the next level.
  uint16_t runs_per_level_trigger = 4;
  /// Maximum number of levels (the last level compacts in place).
  uint16_t max_levels = 5;
  /// Whether unflushed writes survive a crash (CrashAndRecover).
  bool enable_wal = true;
  /// Whether mutations are retained in the replication log so replica
  /// engines can apply this engine's stream (DESIGN.md "Replication").
  /// Off by default: only a shipper (the Replicate pipeline step)
  /// truncates the log, so a standalone engine would grow it with every
  /// write. DataNode force-enables it for hosted partition replicas.
  bool enable_repl_log = false;
};

/// Cumulative engine counters (monotonic; diff across a window for rates).
struct LsmStats {
  uint64_t puts = 0;
  uint64_t gets = 0;
  uint64_t memtable_hits = 0;
  uint64_t block_reads = 0;          ///< Data-block reads across all gets.
  uint64_t bloom_filtered = 0;       ///< Probes answered "no" by bloom.
  uint64_t flush_count = 0;
  uint64_t flushed_bytes = 0;
  uint64_t compaction_count = 0;
  uint64_t compaction_read_bytes = 0;
  uint64_t compaction_write_bytes = 0;
  uint64_t expired_dropped = 0;      ///< TTL'd entries discarded.
  uint64_t repl_applied = 0;         ///< Records applied from a primary's stream.
  uint64_t resyncs = 0;              ///< Full snapshot re-seeds of this engine.
  uint64_t scans = 0;                ///< ScanRange calls.
  uint64_t scan_entries = 0;         ///< Visible entries emitted by scans.
};

/// One visible key/value in a scan result.
struct ScanEntry {
  std::string key;
  std::string value;  ///< String payload, or serialized hash fields.
};

/// Caller-reused scan output buffer: a slot-recycling vector of
/// ScanEntry. Clear() resets the logical size but keeps every slot (and
/// the strings inside it), so a steady-state scan loop appends into
/// existing string capacity instead of allocating per call — the whole
/// point of the resumable iterator over the legacy Scan() that built a
/// fresh vector of copied strings every time.
class ScanBuffer {
 public:
  void Clear() { count_ = 0; }
  size_t size() const { return count_; }
  bool empty() const { return count_ == 0; }
  const ScanEntry& operator[](size_t i) const { return entries_[i]; }

  /// Next recycled slot; key and value come back cleared but with their
  /// previous capacity.
  ScanEntry& Append() {
    if (count_ == entries_.size()) entries_.emplace_back();
    ScanEntry& e = entries_[count_++];
    e.key.clear();
    e.value.clear();
    return e;
  }

 private:
  std::vector<ScanEntry> entries_;
  size_t count_ = 0;
};

/// Outcome of one resumable scan batch (ScanRange).
struct ScanResult {
  size_t entries = 0;      ///< Visible entries appended to the buffer.
  uint64_t bytes = 0;      ///< Key + payload bytes of those entries.
  int block_reads = 0;     ///< Data-block reads charged to the scan.
  bool done = false;       ///< Range exhausted before the limit.
  /// Resume position when !done: the first key the scan did not
  /// examine. Passing it as the next batch's `start` continues the scan
  /// exactly where it stopped.
  std::string next_key;
};

/// Per-operation I/O outcome, consumed by the DataNode to decide whether a
/// request needs the I/O-WFQ layer and how many IOPS to charge.
struct ReadIo {
  bool memtable_hit = false;
  int block_reads = 0;
  bool found = false;
  Micros expire_at = 0;  ///< Found entry's TTL deadline (0 = none).
};

/// Single-partition LSM key-value engine. Not internally synchronized: the
/// DataNode serializes access per partition (matching the simulator's
/// deterministic execution).
class LsmEngine {
 public:
  LsmEngine(LsmOptions options, const Clock* clock);
  LsmEngine(const LsmEngine&) = delete;
  LsmEngine& operator=(const LsmEngine&) = delete;

  // -- String commands ----------------------------------------------------

  /// SET. `ttl` of 0 means no expiry; otherwise the value expires at
  /// now + ttl. The record is built straight from `key` and `value`: one
  /// allocation. A non-null `rec_out` receives that immutable record, so
  /// a caller can share its bytes (the node cache's write-through
  /// aliases `rec->str()`) instead of copying them.
  Status Put(std::string_view key, std::string_view value, Micros ttl = 0,
             ReplRecordPtr* rec_out = nullptr);

  /// GET. NotFound for absent, deleted, or expired keys. If `io` is
  /// non-null it receives the probe cost breakdown.
  Result<std::string> Get(std::string_view key, ReadIo* io = nullptr);

  /// DEL. OK even if the key did not exist (writes a tombstone).
  Status Delete(std::string_view key);

  // -- Hash commands -------------------------------------------------------

  /// HSET: sets one field of the hash at `key`, creating the hash if
  /// needed. Read-modify-write through the merged view.
  Status HSet(const std::string& key, const std::string& field,
              std::string value);

  /// HGET one field. NotFound if key or field absent.
  Result<std::string> HGet(std::string_view key, std::string_view field,
                           ReadIo* io = nullptr);

  /// HLEN: number of fields. NotFound if the key is absent.
  Result<uint64_t> HLen(std::string_view key, ReadIo* io = nullptr);

  /// HGETALL: all fields, sorted by field. NotFound if the key is absent.
  Result<HashFields> HGetAll(std::string_view key, ReadIo* io = nullptr);

  // -- Batched point lookup -------------------------------------------------

  /// Resolves `n` keys in one pass: `recs_out[i]` receives the slot of
  /// the holder (memtable row or run row) of the newest visible version
  /// of `keys[i]` — its record is `**recs_out[i]` — or nullptr if
  /// absent, tombstoned, or expired, and `ios_out[i]` its probe cost,
  /// exactly as n independent FindEntry-backed reads would produce them.
  /// The engine counters receive the same totals (they are
  /// order-independent sums). Cost is amortized: one memtable pass, then
  /// per run a single sweep over the still-unresolved keys in ascending
  /// key order with a resumable binary-search hint, so a batch shares
  /// each run's bloom/index work.
  /// Slots are valid until the next mutation of this engine (see the
  /// pointer-lifetime note above); the records they hold are shared, so
  /// a primary and a replica that applied the same write resolve to the
  /// same record.
  void MultiFind(const std::string_view* keys, size_t n,
                 const ReplRecordPtr** recs_out, ReadIo* ios_out);

  // -- Range scans ----------------------------------------------------------

  using ScanEntry = storage::ScanEntry;

  /// Resumable merged range scan over [start, end): a k-way merge of the
  /// memtable's sorted view and every SSTable run's row cursor (min-heap
  /// keyed by (key, source age); the newest source wins on equal keys),
  /// skipping tombstoned and expired versions at output. Appends at most
  /// `limit` visible entries in key order into the caller-reused buffer
  /// (`out` is NOT cleared — callers batch multiple partitions into one
  /// buffer). An empty `end` means "to the last key". Unlike the legacy
  /// Scan(), no merged intermediate map is built and no per-source
  /// over-collect cap applies, so a range buried under arbitrarily many
  /// tombstones still yields its first `limit` visible keys in one call.
  /// Entries remain valid until the buffer is cleared or appended past.
  ScanResult ScanRange(std::string_view start, std::string_view end,
                       size_t limit, ScanBuffer& out);

  /// Merged range scan over [start, end): newest version per key wins;
  /// tombstoned and expired keys are skipped. Returns at most `limit`
  /// entries in key order. An empty `end` means "to the last key".
  /// Allocating convenience wrapper over ScanRange().
  std::vector<ScanEntry> Scan(std::string_view start, std::string_view end,
                              size_t limit = 100);

  /// Prefix scan convenience wrapper over Scan(). The exclusive upper
  /// bound comes from PrefixUpperBound (common/keyspace.h), which drops
  /// trailing 0xff bytes before incrementing — a prefix ending in 0xff
  /// (or consisting only of 0xff) must not wrap around to a smaller key.
  std::vector<ScanEntry> ScanPrefix(std::string_view prefix,
                                    size_t limit = 100);

  // -- Hash-range export (online partition split) ---------------------------
  //
  // A split re-hashes the keyspace from mod N to mod 2N: the keys of
  // parent partition p whose hash lands on residue p + N move to the new
  // child. The exporter streams exactly that re-hashed half out of this
  // engine in bounded, resumable batches, so the control plane can move
  // real data at a configured bytes-per-tick rate while the parent keeps
  // serving.

  /// One resumable batch of a hash-residue export.
  struct HashRangeExport {
    /// Newest visible version per exported key, in key order: the
    /// engine's own records, shared by handle (no key or value copy).
    /// Tombstoned and expired keys are skipped (they simply do not move).
    std::vector<ReplRecordPtr> entries;
    uint64_t bytes = 0;        ///< Key + payload bytes in `entries`.
    std::string next_cursor;   ///< Resume point: last key examined.
    bool done = false;         ///< No matching keys remain past the cursor.
  };

  /// Exports the newest visible version of every key strictly after
  /// `start_after` (empty = from the first key) whose
  /// `Fnv1a64(key) % modulus == residue`, stopping once `max_bytes` of
  /// payload have been collected. Read-only; counters untouched.
  HashRangeExport ExportHashRange(uint64_t modulus, uint64_t residue,
                                  std::string_view start_after,
                                  uint64_t max_bytes) const;

  /// Ingests one externally streamed version (split data movement),
  /// applied exactly like a local write: this engine's next sequence,
  /// replication log as configured. The version keeps `src`'s key, type,
  /// TTL deadline and payload (tombstones too), so a window-delta replay
  /// converges the target to the source's newest visible state.
  ///
  /// Replicas that ingest one stream from the same state stamp every
  /// version with the same sequence, so they can share one record per
  /// version: when `shared` is the version built from `src` at exactly
  /// this engine's next sequence (a sibling replica's return value), it
  /// is committed as is. Otherwise — no sibling yet, or this replica's
  /// sequence diverged — the engine builds its own copy. Returns the
  /// committed record.
  ReplRecordPtr Ingest(const ReplRecord& src,
                       const ReplRecordPtr& shared = nullptr);

  // -- TTL ------------------------------------------------------------------

  /// EXPIRE: (re)sets the TTL of an existing key.
  Status Expire(const std::string& key, Micros ttl);

  // -- Maintenance ----------------------------------------------------------

  /// Flushes the memtable to a level-0 run (no-op when empty) and runs any
  /// triggered compactions.
  void Flush();

  /// Runs one round of size-tiered compaction if any level exceeds its
  /// run-count trigger. Returns true if a merge happened.
  bool MaybeCompact();

  /// Simulates a process crash and restart. With `enable_wal` the
  /// unflushed writes survive: a write-ahead log holds every record
  /// since the last flush, so its replay restores exactly the memtable,
  /// which is therefore kept. Without it, the memtable is discarded and
  /// unflushed writes are lost (by design). Flushed runs always survive.
  void CrashAndRecover();

  // -- Replication ----------------------------------------------------------
  //
  // Every local mutation is assigned a monotonic apply sequence and (when
  // enable_repl_log) appended to the replication log. A replica engine
  // applies the primary's stream in order via ApplyReplicated, preserving
  // sequences, so `applied_seq()` is its exact cursor into the primary's
  // log and byte-identical state follows from byte-identical streams.

  /// Sequence of the last applied mutation (local write or replicated
  /// record). 0 for a pristine engine.
  uint64_t applied_seq() const { return state().next_seq - 1; }

  /// Applies one record of a primary's replication stream. The stream is
  /// strictly ordered: `rec->seq()` must be exactly applied_seq() + 1,
  /// otherwise InvalidArgument (the shipper must fall back to a snapshot
  /// resync). Writes through this engine's own replication log, so a
  /// replica survives crashes and can itself be promoted. The memtable
  /// and the log retain the primary's record as-is — refcount bumps, no
  /// key/value copy — and so do the runs a later flush or compaction
  /// builds from it.
  Status ApplyReplicated(const ReplRecordPtr& rec);

  /// Re-seeds this engine with a full snapshot of `src`: memtable (rows,
  /// index and ordered view copied verbatim; the records are shared),
  /// runs (shared — SSTables are immutable), replication log, and apply
  /// sequence. Used when a delta replay is impossible: a freshly placed
  /// replica behind a truncated log, or a recovered ex-primary whose
  /// unreplicated suffix diverged from the promoted replica's history.
  void ResyncFrom(const LsmEngine& src);

  /// The retained replication stream (primary side of the shipper).
  const ReplicationLog& repl_log() const { return state().repl_log; }

  /// Drops replication-log records every replica has applied.
  void TruncateReplLogThrough(uint64_t seq) {
    if (s_) s_->repl_log.TruncateThrough(seq);
  }

  /// Points the engine at a counter it increments on every change to
  /// its data (writes, ingests, replicated applies, resync, crash
  /// recovery, flush, compaction) — whatever ApproximateDataBytes reads.
  /// The hosting DataNode passes its load version, so control-plane
  /// memos see direct engine writes too. nullptr (the default) = none.
  void SetMutationCounter(uint64_t* counter) { mutation_counter_ = counter; }

  // -- Introspection --------------------------------------------------------

  const LsmStats& stats() const { return state().stats; }
  uint64_t memtable_bytes() const { return state().mem.approximate_bytes(); }

  /// Approximate on-"disk" + in-memory data footprint. Counts duplicate
  /// versions across runs (like physical LSM space usage before GC).
  uint64_t ApproximateDataBytes() const;

  /// Number of runs per level, outermost index = level: `max_levels`
  /// entries once the engine has flushed, empty before.
  std::vector<size_t> LevelRunCounts() const;

  /// Write amplification so far: (flushed + compaction written) / flushed.
  double WriteAmplification() const;

 private:
  /// One merge source of a ScanRange call: the memtable's ordered view
  /// (row ids) or one SSTable run (record handles). Either
  /// way the cursor reads the shared records in place. `age` orders
  /// sources newest-first on equal keys (0 = memtable, then level order,
  /// within a level later runs first).
  struct ScanCursor {
    const MemTable::RowId* mem_it = nullptr;
    const MemTable::RowId* mem_end = nullptr;
    const ReplRecordPtr* sst_it = nullptr;
    const ReplRecordPtr* sst_end = nullptr;
    uint32_t age = 0;
    uint64_t sst_bytes = 0;  ///< Payload bytes consumed from this run.
  };

  /// Everything a written engine holds (see "Lazy state" above).
  struct State {
    MemTable mem;
    ReplicationLog repl_log;
    /// levels[0] is newest; within a level, later index = newer run.
    /// Empty until the first flush sizes it to `max_levels`.
    std::vector<std::vector<SsTablePtr>> levels;
    uint64_t next_seq = 1;
    uint64_t next_sst_id = 1;
    LsmStats stats;
    /// MultiFind scratch (kept across calls to avoid re-allocation).
    std::vector<uint32_t> mfind_pending;
    /// Per-key interned (view, hash) handles for the pending misses —
    /// hashed once per batch, reused by every run's bloom probe.
    std::vector<KeyRef> mfind_krefs;
    /// ScanRange scratch (kept across calls to avoid re-allocation).
    std::vector<ScanCursor> scan_cursors;
    std::vector<uint32_t> scan_heap;
  };

  /// The state, allocated on the first call (every mutation's entry).
  State& MutableState() {
    if (!s_) s_ = std::make_unique<State>();
    return *s_;
  }
  /// A never-written engine's state: one shared fresh State. Read-only
  /// (the reads that count or sort return before touching it).
  static const State& Blank();
  const State& state() const { return s_ ? *s_ : Blank(); }

  /// Merged lookup across memtable and all runs; returns the newest
  /// visible version or nullptr. Fills `io`.
  const ReplRecord* FindEntry(std::string_view key, ReadIo* io);

  /// The sequence of the next local write (and a mutation note).
  uint64_t NextSeq() {
    NoteMutation();
    return MutableState().next_seq++;
  }
  /// Hands a freshly built local version to the log and the memtable
  /// (and to `*rec_out` when non-null).
  void Commit(ReplRecordPtr rec, ReplRecordPtr* rec_out = nullptr);
  /// Stamps the next seq onto `entry`, builds its record and commits it.
  void WriteEntry(std::string_view key, ValueEntry entry);
  void NoteMutation() {
    if (mutation_counter_ != nullptr) ++*mutation_counter_;
  }
  void MaybeFlush();
  void CompactLevel(size_t level);

  /// Merges runs (newest first) into one sorted row set, dropping shadowed
  /// versions, and — when `drop_deletes` — tombstones and expired entries.
  /// A streaming k-way merge over the runs' cursors that emits the
  /// surviving input records themselves: a compaction bumps refcounts
  /// instead of copying keys and values.
  std::vector<ReplRecordPtr> MergeRuns(
      const std::vector<SsTablePtr>& runs_newest_first, bool drop_deletes);

  LsmOptions options_;
  const Clock* clock_;
  uint64_t* mutation_counter_ = nullptr;  ///< See SetMutationCounter().
  std::unique_ptr<State> s_;  ///< Null until the first mutation.
};

static_assert(sizeof(LsmOptions) == 16, "engine options pack");
static_assert(sizeof(LsmEngine) == sizeof(LsmOptions) + 3 * sizeof(void*),
              "an unwritten engine is a handle");

}  // namespace storage
}  // namespace abase
