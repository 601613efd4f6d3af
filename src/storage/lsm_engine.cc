#include "storage/lsm_engine.h"

#include <algorithm>
#include <cassert>
#include <map>

#include "common/hash.h"
#include "common/keyspace.h"

namespace abase {
namespace storage {

LsmEngine::LsmEngine(LsmOptions options, const Clock* clock)
    : options_(options), clock_(clock) {
  assert(clock_ != nullptr);
}

// ---------------------------------------------------------------------------
// Write path
// ---------------------------------------------------------------------------

void LsmEngine::Commit(ReplRecordPtr rec, ReplRecordPtr* rec_out) {
  // The version's one materialized copy: the replication log, the
  // memtable and — via the Replicate shipping path — every replica
  // share it.
  if (rec_out != nullptr) *rec_out = rec;
  if (options_.enable_repl_log) repl_log_.Append(rec);
  mem_.Put(std::move(rec));
  stats_.puts++;
  MaybeFlush();
}

void LsmEngine::WriteEntry(std::string_view key, ValueEntry entry) {
  entry.seq = NextSeq();
  Commit(MakeReplRecord(key, entry));
}

Status LsmEngine::Put(std::string_view key, std::string_view value,
                      Micros ttl, ReplRecordPtr* rec_out) {
  if (key.empty()) return Status::InvalidArgument("empty key");
  Micros expire_at = ttl > 0 ? clock_->NowMicros() + ttl : 0;
  Commit(MakeReplRecord(key, ValueType::kString, NextSeq(), expire_at, value),
         rec_out);
  return Status::OK();
}

Status LsmEngine::Delete(const std::string& key) {
  if (key.empty()) return Status::InvalidArgument("empty key");
  Commit(MakeReplRecord(key, ValueType::kTombstone, NextSeq(), 0, {}));
  return Status::OK();
}

Status LsmEngine::HSet(const std::string& key, const std::string& field,
                       std::string value) {
  if (key.empty()) return Status::InvalidArgument("empty key");
  // Read-modify-write on the merged view: the memtable stores whole-hash
  // versions, so an HSET rewrites the hash with one field changed.
  ReadIo io;
  const ReplRecord* cur = FindEntry(key, &io);
  ValueEntry next;
  next.type = ValueType::kHash;
  if (cur != nullptr && cur->type() == ValueType::kHash) {
    next.hash = cur->DecodeHash();
    next.expire_at = cur->expire_at();
  }
  SetField(next.hash, field, std::move(value));
  WriteEntry(key, std::move(next));
  return Status::OK();
}

Status LsmEngine::Expire(const std::string& key, Micros ttl) {
  ReadIo io;
  const ReplRecord* cur = FindEntry(key, &io);
  if (cur == nullptr) return Status::NotFound("EXPIRE on missing key");
  ValueEntry next = cur->ToEntry();
  next.expire_at = ttl > 0 ? clock_->NowMicros() + ttl : 0;
  WriteEntry(key, std::move(next));
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Read path
// ---------------------------------------------------------------------------

const ReplRecord* LsmEngine::FindEntry(std::string_view key, ReadIo* io) {
  stats_.gets++;
  if (const ReplRecordPtr* row = mem_.Get(key); row != nullptr) {
    const ReplRecord* e = row->get();
    stats_.memtable_hits++;
    if (io != nullptr) io->memtable_hit = true;
    if (e->IsTombstone()) return nullptr;
    if (e->IsExpiredAt(clock_->NowMicros())) {
      stats_.expired_dropped++;
      return nullptr;
    }
    if (io != nullptr) {
      io->found = true;
      io->expire_at = e->expire_at();
    }
    return e;
  }
  // Probe runs newest-to-oldest: level order, and within a level the
  // most recently added run first. The key is hashed once here; every
  // run's bloom probe reuses the interned hash.
  const KeyRef kref = KeyRef::From(key);
  for (const auto& level : levels_) {
    for (auto it = level.rbegin(); it != level.rend(); ++it) {
      size_t hint = 0;
      SstProbe probe = (*it)->Get(kref, &hint);
      if (probe.block_reads == 0) {
        stats_.bloom_filtered++;
        continue;
      }
      stats_.block_reads += static_cast<uint64_t>(probe.block_reads);
      if (io != nullptr) io->block_reads += probe.block_reads;
      if (probe.rec == nullptr) continue;  // Bloom false positive.
      const ReplRecord* e = probe.rec->get();
      if (e->IsTombstone()) return nullptr;
      if (e->IsExpiredAt(clock_->NowMicros())) {
        stats_.expired_dropped++;
        return nullptr;
      }
      if (io != nullptr) {
        io->found = true;
        io->expire_at = e->expire_at();
      }
      return e;
    }
  }
  return nullptr;
}

void LsmEngine::MultiFind(const std::string_view* keys, size_t n,
                          const ReplRecordPtr** recs_out, ReadIo* ios_out) {
  // clock_->NowMicros() is constant within a tick, so hoisting it out of
  // the per-key expiry checks matches FindEntry exactly.
  const Micros now = clock_->NowMicros();
  mfind_pending_.clear();
  for (size_t i = 0; i < n; i++) {
    recs_out[i] = nullptr;
    ios_out[i] = ReadIo{};
    stats_.gets++;
    if (const ReplRecordPtr* row = mem_.Get(keys[i]); row != nullptr) {
      const ReplRecord* e = row->get();
      stats_.memtable_hits++;
      ios_out[i].memtable_hit = true;
      if (e->IsTombstone()) continue;
      if (e->IsExpiredAt(now)) {
        stats_.expired_dropped++;
        continue;
      }
      ios_out[i].found = true;
      ios_out[i].expire_at = e->expire_at();
      recs_out[i] = row;
      continue;
    }
    mfind_pending_.push_back(static_cast<uint32_t>(i));
  }
  if (mfind_pending_.empty()) return;

  // Intern each missing key's hash once; every run probe below reuses it
  // instead of re-hashing per run (the batch's main repeated cost).
  if (mfind_krefs_.size() < n) mfind_krefs_.resize(n);
  for (uint32_t i : mfind_pending_) mfind_krefs_[i] = KeyRef::From(keys[i]);

  // Ascending key order lets each run's binary search resume from the
  // previous key's lower bound. Equal keys probe the same position twice,
  // matching two serial lookups.
  std::sort(mfind_pending_.begin(), mfind_pending_.end(),
            [&](uint32_t a, uint32_t b) { return keys[a] < keys[b]; });

  // Runs newest-to-oldest, exactly like FindEntry; a key resolved by a
  // newer run (found, tombstone, or expired) never probes older runs.
  for (const auto& level : levels_) {
    if (mfind_pending_.empty()) break;
    for (auto it = level.rbegin();
         it != level.rend() && !mfind_pending_.empty(); ++it) {
      const SsTable& run = **it;
      size_t hint = 0;
      size_t w = 0;
      for (uint32_t i : mfind_pending_) {
        SstProbe probe = run.Get(mfind_krefs_[i], &hint);
        if (probe.block_reads == 0) {
          stats_.bloom_filtered++;
          mfind_pending_[w++] = i;
          continue;
        }
        stats_.block_reads += static_cast<uint64_t>(probe.block_reads);
        ios_out[i].block_reads += probe.block_reads;
        if (probe.rec == nullptr) {  // Bloom false positive.
          mfind_pending_[w++] = i;
          continue;
        }
        const ReplRecord* e = probe.rec->get();
        if (e->IsTombstone()) continue;
        if (e->IsExpiredAt(now)) {
          stats_.expired_dropped++;
          continue;
        }
        ios_out[i].found = true;
        ios_out[i].expire_at = e->expire_at();
        recs_out[i] = probe.rec;
      }
      mfind_pending_.resize(w);
    }
  }
}

Result<std::string> LsmEngine::Get(std::string_view key, ReadIo* io) {
  ReadIo local;
  const ReplRecord* e = FindEntry(key, io != nullptr ? io : &local);
  if (e == nullptr || e->type() != ValueType::kString) {
    return Status::NotFound("key absent");
  }
  return std::string(e->str());
}

Result<std::string> LsmEngine::HGet(std::string_view key,
                                    std::string_view field, ReadIo* io) {
  ReadIo local;
  const ReplRecord* e = FindEntry(key, io != nullptr ? io : &local);
  if (e == nullptr || e->type() != ValueType::kHash) {
    return Status::NotFound("hash absent");
  }
  std::string_view v;
  if (!e->FindField(field, &v)) return Status::NotFound("field absent");
  return std::string(v);
}

Result<uint64_t> LsmEngine::HLen(std::string_view key, ReadIo* io) {
  ReadIo local;
  const ReplRecord* e = FindEntry(key, io != nullptr ? io : &local);
  if (e == nullptr || e->type() != ValueType::kHash) {
    return Status::NotFound("hash absent");
  }
  return static_cast<uint64_t>(e->hash_size());
}

Result<HashFields> LsmEngine::HGetAll(std::string_view key, ReadIo* io) {
  ReadIo local;
  const ReplRecord* e = FindEntry(key, io != nullptr ? io : &local);
  if (e == nullptr || e->type() != ValueType::kHash) {
    return Status::NotFound("hash absent");
  }
  return e->DecodeHash();
}

// ---------------------------------------------------------------------------
// Range scans
// ---------------------------------------------------------------------------

namespace {

/// "Disk" granularity of scan block accounting: one charged block read
/// per this many payload bytes consumed from an SSTable cursor (plus
/// one for the run's initial seek). Matches the DataNode's disk-block
/// size so scan I/O charges line up with point-read charges.
constexpr uint64_t kScanBlockBytes = 4096;

}  // namespace

ScanResult LsmEngine::ScanRange(std::string_view start, std::string_view end,
                                size_t limit, ScanBuffer& out) {
  ScanResult res;
  stats_.scans++;

  // Build one cursor per source, positioned at lower_bound(start). Ages:
  // 0 = memtable (newest), then levels top-down, within a level later
  // (newer) runs first — the exact probe order of FindEntry, so on equal
  // keys the min-heap pops the newest version first.
  scan_cursors_.clear();
  scan_heap_.clear();
  const auto& mem_rows = mem_.Sorted();
  {
    ScanCursor c;
    auto it = std::lower_bound(mem_rows.begin(), mem_rows.end(), start,
                               [this](MemTable::RowId r, std::string_view k) {
                                 return mem_.record(r).key() < k;
                               });
    c.mem_it = mem_rows.data() + (it - mem_rows.begin());
    c.mem_end = mem_rows.data() + mem_rows.size();
    c.age = 0;
    if (c.mem_it != c.mem_end) scan_cursors_.push_back(c);
  }
  uint32_t age = 1;
  for (const auto& level : levels_) {
    for (auto rit = level.rbegin(); rit != level.rend(); ++rit, ++age) {
      const auto& rows = (*rit)->rows();
      auto it = std::lower_bound(
          rows.begin(), rows.end(), start,
          [](const ReplRecordPtr& r, std::string_view k) {
            return r->key() < k;
          });
      if (it == rows.end()) continue;
      ScanCursor c;
      c.sst_it = rows.data() + (it - rows.begin());
      c.sst_end = rows.data() + rows.size();
      c.age = age;
      scan_cursors_.push_back(c);
    }
  }

  auto record_of = [&](uint32_t i) -> const ReplRecord& {
    const ScanCursor& c = scan_cursors_[i];
    return c.mem_it != nullptr ? mem_.record(*c.mem_it) : **c.sst_it;
  };
  auto key_of = [&](uint32_t i) { return record_of(i).key(); };
  // Min-heap on (key, age): std::push/pop_heap keep the *greatest*
  // element at the front, so the comparator orders by "later key, or
  // equal key from an older source, sorts first-er"… i.e. greater-than.
  auto heap_less = [&](uint32_t a, uint32_t b) {
    int cmp = key_of(a).compare(key_of(b));
    if (cmp != 0) return cmp > 0;
    return scan_cursors_[a].age > scan_cursors_[b].age;
  };
  for (uint32_t i = 0; i < scan_cursors_.size(); i++) scan_heap_.push_back(i);
  std::make_heap(scan_heap_.begin(), scan_heap_.end(), heap_less);

  auto advance = [&](uint32_t i) {
    ScanCursor& c = scan_cursors_[i];
    if (c.mem_it != nullptr) {
      ++c.mem_it;
      return c.mem_it != c.mem_end;
    }
    const ReplRecord& rec = **c.sst_it;
    c.sst_bytes += rec.key().size() + rec.PayloadBytes();
    ++c.sst_it;
    return c.sst_it != c.sst_end;
  };

  const Micros now = clock_->NowMicros();
  // Records are immutable and held by their source for the whole scan,
  // so a key view survives into the next iteration's duplicate check.
  std::string_view last_key;
  bool decided_any = false;
  res.done = true;
  while (!scan_heap_.empty()) {
    std::pop_heap(scan_heap_.begin(), scan_heap_.end(), heap_less);
    const uint32_t i = scan_heap_.back();
    const std::string_view key = key_of(i);
    if (!end.empty() && key >= end) {
      // Range exhausted: every remaining cursor is at or past `end`.
      break;
    }
    if (res.entries >= limit) {
      // Limit reached: resume at the first key not yet decided. An older
      // duplicate of the last decided key resumes just past that key
      // (key + '\0' is its immediate successor); resuming at the key
      // itself would emit it a second time. The duplicates stay
      // unconsumed, so the block charge is the same either way.
      res.done = false;
      res.next_key = key;
      if (decided_any && key == last_key) res.next_key += '\0';
      break;
    }
    if (decided_any && key == last_key) {
      // Older duplicate of an already-decided key.
      if (advance(i)) {
        std::push_heap(scan_heap_.begin(), scan_heap_.end(), heap_less);
      } else {
        scan_heap_.pop_back();
      }
      continue;
    }
    const ReplRecord& rec = record_of(i);
    const bool visible = !rec.IsTombstone() && !rec.IsExpiredAt(now);
    if (visible) {
      ScanEntry& se = out.Append();
      se.key = key;
      if (rec.type() == ValueType::kString) {
        se.value = rec.str();
      } else {
        rec.ForEachField([&se](std::string_view f, std::string_view v) {
          se.value += f;
          se.value += '=';
          se.value += v;
          se.value += '\n';
        });
      }
      res.entries++;
      res.bytes += se.key.size() + se.value.size();
      stats_.scan_entries++;
    } else if (rec.IsExpiredAt(now)) {
      stats_.expired_dropped++;
    }
    last_key = key;
    decided_any = true;
    if (advance(i)) {
      std::push_heap(scan_heap_.begin(), scan_heap_.end(), heap_less);
    } else {
      scan_heap_.pop_back();
    }
  }

  // Block accounting: one seek per touched run plus one read per
  // kScanBlockBytes of consumed payload — sequential I/O, so far cheaper
  // per entry than per-key point probes.
  for (const ScanCursor& c : scan_cursors_) {
    if (c.mem_it != nullptr || c.sst_bytes == 0) continue;
    res.block_reads +=
        1 + static_cast<int>(c.sst_bytes / kScanBlockBytes);
  }
  stats_.block_reads += static_cast<uint64_t>(res.block_reads);
  return res;
}

std::vector<LsmEngine::ScanEntry> LsmEngine::Scan(std::string_view start,
                                                  std::string_view end,
                                                  size_t limit) {
  ScanBuffer buf;
  ScanRange(start, end, limit, buf);
  std::vector<ScanEntry> out;
  out.reserve(buf.size());
  for (size_t i = 0; i < buf.size(); i++) out.push_back(buf[i]);
  return out;
}

std::vector<LsmEngine::ScanEntry> LsmEngine::ScanPrefix(
    std::string_view prefix, size_t limit) {
  return Scan(prefix, PrefixUpperBound(prefix), limit);
}

// ---------------------------------------------------------------------------
// Hash-range export (online partition split)
// ---------------------------------------------------------------------------

LsmEngine::HashRangeExport LsmEngine::ExportHashRange(
    uint64_t modulus, uint64_t residue, std::string_view start_after,
    uint64_t max_bytes) const {
  HashRangeExport out;
  if (modulus == 0) {
    out.done = true;
    return out;
  }
  // Bounded merged newest-wins view of the keys strictly after the
  // cursor: memtable first, then runs newest-to-oldest (emplace keeps
  // the first — newest — version, exactly like Scan/MergeRuns). Each
  // source contributes keys in order only until a payload cap, so one
  // throttled batch costs O(cap), not O(keys remaining): a source that
  // hit its cap bounds the *safe horizon* — the smallest last-collected
  // key across capped sources — below which the merged view is
  // complete. Keys beyond the horizon wait for the next batch.
  const uint64_t cap = max_bytes * 2 + (64ull << 10);
  // Keys view the shared records, which outlive this const call.
  std::map<std::string_view, const ReplRecord*> merged;
  bool bounded = false;
  std::string_view horizon;
  // `rec_of` unifies the two cursor shapes: the memtable's ordered view
  // iterates row ids, sstable runs iterate record handles.
  auto collect = [&](auto it, auto end_it, auto rec_of) {
    uint64_t taken = 0;
    std::string_view last;
    bool capped = false;
    for (; it != end_it; ++it) {
      const ReplRecord& rec = rec_of(it);
      if (taken > cap) {
        capped = true;
        break;
      }
      merged.emplace(rec.key(), &rec);
      taken += rec.key().size() + rec.PayloadBytes();
      last = rec.key();
    }
    if (capped) {
      bounded = true;
      if (horizon.empty() || last < horizon) horizon = last;
    }
  };
  auto mem_rec = [this](auto it) -> const ReplRecord& {
    return mem_.record(*it);
  };
  auto run_rec = [](auto it) -> const ReplRecord& { return **it; };
  const auto& mem_rows = mem_.Sorted();
  collect(start_after.empty()
              ? mem_rows.begin()
              : std::upper_bound(mem_rows.begin(), mem_rows.end(),
                                 start_after,
                                 [this](std::string_view k,
                                        MemTable::RowId r) {
                                   return k < mem_.record(r).key();
                                 }),
          mem_rows.end(), mem_rec);
  for (const auto& level : levels_) {
    for (auto rit = level.rbegin(); rit != level.rend(); ++rit) {
      const auto& rows = (*rit)->rows();
      collect(std::upper_bound(rows.begin(), rows.end(), start_after,
                               [](std::string_view k,
                                  const ReplRecordPtr& r) {
                                 return k < r->key();
                               }),
              rows.end(), run_rec);
    }
  }

  const Micros now = clock_->NowMicros();
  bool budget_hit = false;
  for (const auto& [key, rec] : merged) {
    if (bounded && key > horizon) break;
    if (out.bytes >= max_bytes && !out.entries.empty()) {
      budget_hit = true;  // Budget exhausted with keys left to examine.
      break;
    }
    out.next_cursor = key;  // Examined (matching or not): never revisit.
    if (Fnv1a64(key) % modulus != residue) continue;
    if (rec->IsTombstone() || rec->IsExpiredAt(now)) continue;
    out.entries.emplace_back(std::string(key), rec->ToEntry());
    out.bytes += key.size() + rec->PayloadBytes();
  }
  if (bounded && !budget_hit) {
    // Every key up to the horizon was examined; resume past it.
    out.next_cursor = horizon;
  }
  out.done = !bounded && !budget_hit;
  return out;
}

void LsmEngine::Ingest(std::string_view key, ValueEntry entry) {
  WriteEntry(key, std::move(entry));
}

// ---------------------------------------------------------------------------
// Flush & compaction
// ---------------------------------------------------------------------------

void LsmEngine::MaybeFlush() {
  if (mem_.approximate_bytes() >= options_.memtable_flush_bytes) Flush();
}

void LsmEngine::Flush() {
  NoteMutation();
  if (mem_.empty()) {
    MaybeCompact();
    return;
  }
  // The run takes over the memtable's record handles: no row is copied.
  std::vector<ReplRecordPtr> rows = mem_.TakeSorted();
  auto sst = std::make_shared<SsTable>(next_sst_id_++, std::move(rows));
  stats_.flush_count++;
  stats_.flushed_bytes += sst->data_bytes();
  if (levels_.empty()) {
    levels_.resize(static_cast<size_t>(options_.max_levels));
  }
  levels_[0].push_back(std::move(sst));
  while (MaybeCompact()) {
  }
}

bool LsmEngine::MaybeCompact() {
  for (size_t level = 0; level < levels_.size(); level++) {
    if (levels_[level].size() >
        static_cast<size_t>(options_.runs_per_level_trigger)) {
      CompactLevel(level);
      return true;
    }
  }
  return false;
}

void LsmEngine::CompactLevel(size_t level) {
  NoteMutation();
  const bool is_bottom = level + 1 >= levels_.size();
  const size_t target = is_bottom ? level : level + 1;

  // Newest-first ordering: within a level, later index = newer.
  std::vector<SsTablePtr> inputs;
  for (auto it = levels_[level].rbegin(); it != levels_[level].rend(); ++it) {
    inputs.push_back(*it);
  }
  if (!is_bottom) {
    // Fold the existing target-level runs in as the oldest inputs so the
    // target keeps a single merged run per compaction.
    for (auto it = levels_[target].rbegin(); it != levels_[target].rend();
         ++it) {
      inputs.push_back(*it);
    }
  }

  uint64_t read_bytes = 0;
  for (const auto& run : inputs) read_bytes += run->data_bytes();

  // Tombstones and expired entries may only be dropped when merging into
  // the bottom level (no older version can exist below it).
  const bool drop_deletes = target + 1 >= levels_.size();
  auto merged_rows = MergeRuns(inputs, drop_deletes);

  levels_[level].clear();
  if (!is_bottom) levels_[target].clear();
  if (!merged_rows.empty()) {
    auto merged =
        std::make_shared<SsTable>(next_sst_id_++, std::move(merged_rows));
    stats_.compaction_write_bytes += merged->data_bytes();
    levels_[target].push_back(std::move(merged));
  }
  stats_.compaction_count++;
  stats_.compaction_read_bytes += read_bytes;
}

std::vector<ReplRecordPtr> LsmEngine::MergeRuns(
    const std::vector<SsTablePtr>& runs_newest_first, bool drop_deletes) {
  // Streaming k-way merge: a min-heap of run cursors on (key, input
  // index), so each key's newest version (lowest index — the ScanRange
  // rule) pops first and its older duplicates are skipped.
  struct Cursor {
    const ReplRecordPtr* it;
    const ReplRecordPtr* end;
  };
  std::vector<Cursor> cursors;
  cursors.reserve(runs_newest_first.size());
  size_t upper = 0;
  for (const auto& run : runs_newest_first) {
    const auto& rows = run->rows();
    upper += rows.size();
    if (!rows.empty()) {
      cursors.push_back({rows.data(), rows.data() + rows.size()});
    }
  }
  // std heap keeps the greatest element at the front, so "less" here
  // means "later key, or equal key from an older run".
  auto heap_less = [&](uint32_t a, uint32_t b) {
    int cmp = (*cursors[a].it)->key().compare((*cursors[b].it)->key());
    return cmp != 0 ? cmp > 0 : a > b;
  };
  std::vector<uint32_t> heap(cursors.size());
  for (uint32_t i = 0; i < heap.size(); i++) heap[i] = i;
  std::make_heap(heap.begin(), heap.end(), heap_less);

  std::vector<ReplRecordPtr> rows;
  rows.reserve(upper);
  const Micros now = clock_->NowMicros();
  // The input runs hold every record for the merge, so a key view stays
  // valid while its older duplicates pop.
  std::string_view last_key;
  bool first = true;
  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), heap_less);
    Cursor& c = cursors[heap.back()];
    const ReplRecordPtr& rec = *c.it;
    if (first || rec->key() != last_key) {
      first = false;
      last_key = rec->key();
      if (drop_deletes && (rec->IsTombstone() || rec->IsExpiredAt(now))) {
        stats_.expired_dropped += rec->IsExpiredAt(now) ? 1 : 0;
      } else {
        rows.push_back(rec);
      }
    }
    if (++c.it != c.end) {
      std::push_heap(heap.begin(), heap.end(), heap_less);
    } else {
      heap.pop_back();
    }
  }
  // Shadowed and dropped versions leave slack; a run lives for many
  // compactions, so it should not keep it.
  rows.shrink_to_fit();
  return rows;
}

// ---------------------------------------------------------------------------
// Replication
// ---------------------------------------------------------------------------

Status LsmEngine::ApplyReplicated(const ReplRecordPtr& rec) {
  if (rec->seq() != next_seq_) {
    return Status::InvalidArgument("replication stream gap");
  }
  next_seq_ = rec->seq() + 1;
  NoteMutation();
  // The shipped record is the primary's materialized copy; this
  // replica's log and memtable retain it as-is (refcount bumps).
  if (options_.enable_repl_log) repl_log_.Append(rec);
  mem_.Put(rec);
  stats_.repl_applied++;
  MaybeFlush();
  return Status::OK();
}

void LsmEngine::ResyncFrom(const LsmEngine& src) {
  NoteMutation();
  mem_ = src.mem_;
  repl_log_ = src.repl_log_;
  // SSTables are immutable after construction; the runs are shared, so a
  // snapshot resync costs O(runs), not O(bytes) — the tick cost of the
  // transfer is modeled by the caller (catch-up / rebuild ticks).
  levels_ = src.levels_;
  next_seq_ = src.next_seq_;
  next_sst_id_ = src.next_sst_id_;
  stats_.resyncs++;
}

// ---------------------------------------------------------------------------
// Recovery & introspection
// ---------------------------------------------------------------------------

void LsmEngine::CrashAndRecover() {
  NoteMutation();
  // A write-ahead log holds every record since the last flush, and a
  // flush empties it along with the memtable, so replaying it rebuilds
  // exactly the memtable a crash discards: with logging on, the
  // memtable is the recovered state as is.
  if (!options_.enable_wal) mem_.clear();
}

uint64_t LsmEngine::ApproximateDataBytes() const {
  uint64_t total = mem_.approximate_bytes();
  for (const auto& level : levels_) {
    for (const auto& run : level) total += run->data_bytes();
  }
  return total;
}

std::vector<size_t> LsmEngine::LevelRunCounts() const {
  std::vector<size_t> counts;
  counts.reserve(levels_.size());
  for (const auto& level : levels_) counts.push_back(level.size());
  return counts;
}

double LsmEngine::WriteAmplification() const {
  if (stats_.flushed_bytes == 0) return 0;
  return static_cast<double>(stats_.flushed_bytes +
                             stats_.compaction_write_bytes) /
         static_cast<double>(stats_.flushed_bytes);
}

}  // namespace storage
}  // namespace abase
