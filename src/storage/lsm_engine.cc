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

const LsmEngine::State& LsmEngine::Blank() {
  static const State kBlank;
  return kBlank;
}

// ---------------------------------------------------------------------------
// Write path
// ---------------------------------------------------------------------------

void LsmEngine::Commit(ReplRecordPtr rec, ReplRecordPtr* rec_out) {
  // The version's one materialized copy: the replication log, the
  // memtable and — via the Replicate shipping path — every replica
  // share it.
  State& s = MutableState();
  if (rec_out != nullptr) *rec_out = rec;
  if (options_.enable_repl_log) s.repl_log.Append(rec);
  s.mem.Put(std::move(rec));
  s.stats.puts++;
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

Status LsmEngine::Delete(std::string_view key) {
  if (key.empty()) return Status::InvalidArgument("empty key");
  Commit(MakeReplRecord(key, ValueType::kTombstone, NextSeq(), 0, {}));
  return Status::OK();
}

Status LsmEngine::HSet(const std::string& key, const std::string& field,
                       std::string_view value) {
  if (key.empty()) return Status::InvalidArgument("empty key");
  // Read-modify-write on the merged view: the memtable stores whole-hash
  // versions, so an HSET rewrites the hash with one field changed. A
  // write command builds the state first, so its read is counted.
  MutableState();
  ReadIo io;
  const ReplRecord* cur = FindEntry(key, &io);
  ValueEntry next;
  next.type = ValueType::kHash;
  if (cur != nullptr && cur->type() == ValueType::kHash) {
    next.hash = cur->DecodeHash();
    next.expire_at = cur->expire_at();
  }
  SetField(next.hash, field, value);
  WriteEntry(key, std::move(next));
  return Status::OK();
}

Status LsmEngine::Expire(const std::string& key, Micros ttl) {
  MutableState();  // A write command: its read is counted, as in HSet.
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
  if (!s_) return nullptr;  // Never written: nothing to find.
  State& s = *s_;
  s.stats.gets++;
  if (const ReplRecordPtr* row = s.mem.Get(key); row != nullptr) {
    const ReplRecord* e = row->get();
    s.stats.memtable_hits++;
    if (io != nullptr) io->memtable_hit = true;
    if (e->IsTombstone()) return nullptr;
    if (e->IsExpiredAt(clock_->NowMicros())) {
      s.stats.expired_dropped++;
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
  for (const auto& level : s.levels) {
    for (auto it = level.rbegin(); it != level.rend(); ++it) {
      size_t hint = 0;
      SstProbe probe = (*it)->Get(kref, &hint);
      if (probe.block_reads == 0) {
        s.stats.bloom_filtered++;
        continue;
      }
      s.stats.block_reads += static_cast<uint64_t>(probe.block_reads);
      if (io != nullptr) io->block_reads += probe.block_reads;
      if (probe.rec == nullptr) continue;  // Bloom false positive.
      const ReplRecord* e = probe.rec->get();
      if (e->IsTombstone()) return nullptr;
      if (e->IsExpiredAt(clock_->NowMicros())) {
        s.stats.expired_dropped++;
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
  if (!s_) {  // Never written: every key is absent, nothing is probed.
    std::fill(recs_out, recs_out + n, nullptr);
    std::fill(ios_out, ios_out + n, ReadIo{});
    return;
  }
  State& s = *s_;
  const Micros now = clock_->NowMicros();
  s.mfind_pending.clear();
  for (size_t i = 0; i < n; i++) {
    recs_out[i] = nullptr;
    ios_out[i] = ReadIo{};
    s.stats.gets++;
    if (const ReplRecordPtr* row = s.mem.Get(keys[i]); row != nullptr) {
      const ReplRecord* e = row->get();
      s.stats.memtable_hits++;
      ios_out[i].memtable_hit = true;
      if (e->IsTombstone()) continue;
      if (e->IsExpiredAt(now)) {
        s.stats.expired_dropped++;
        continue;
      }
      ios_out[i].found = true;
      ios_out[i].expire_at = e->expire_at();
      recs_out[i] = row;
      continue;
    }
    s.mfind_pending.push_back(static_cast<uint32_t>(i));
  }
  if (s.mfind_pending.empty()) return;

  // Intern each missing key's hash once; every run probe below reuses it
  // instead of re-hashing per run (the batch's main repeated cost).
  if (s.mfind_krefs.size() < n) s.mfind_krefs.resize(n);
  for (uint32_t i : s.mfind_pending) s.mfind_krefs[i] = KeyRef::From(keys[i]);

  // Ascending key order lets each run's binary search resume from the
  // previous key's lower bound. Equal keys probe the same position twice,
  // matching two serial lookups.
  std::sort(s.mfind_pending.begin(), s.mfind_pending.end(),
            [&](uint32_t a, uint32_t b) { return keys[a] < keys[b]; });

  // Runs newest-to-oldest, exactly like FindEntry; a key resolved by a
  // newer run (found, tombstone, or expired) never probes older runs.
  for (const auto& level : s.levels) {
    if (s.mfind_pending.empty()) break;
    for (auto it = level.rbegin();
         it != level.rend() && !s.mfind_pending.empty(); ++it) {
      const SsTable& run = **it;
      size_t hint = 0;
      size_t w = 0;
      for (uint32_t i : s.mfind_pending) {
        SstProbe probe = run.Get(s.mfind_krefs[i], &hint);
        if (probe.block_reads == 0) {
          s.stats.bloom_filtered++;
          s.mfind_pending[w++] = i;
          continue;
        }
        s.stats.block_reads += static_cast<uint64_t>(probe.block_reads);
        ios_out[i].block_reads += probe.block_reads;
        if (probe.rec == nullptr) {  // Bloom false positive.
          s.mfind_pending[w++] = i;
          continue;
        }
        const ReplRecord* e = probe.rec->get();
        if (e->IsTombstone()) continue;
        if (e->IsExpiredAt(now)) {
          s.stats.expired_dropped++;
          continue;
        }
        ios_out[i].found = true;
        ios_out[i].expire_at = e->expire_at();
        recs_out[i] = probe.rec;
      }
      s.mfind_pending.resize(w);
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
  if (!s_) {  // Never written: the range is empty.
    res.done = true;
    return res;
  }
  State& s = *s_;
  s.stats.scans++;

  // Build one cursor per source, positioned at lower_bound(start). Ages:
  // 0 = memtable (newest), then levels top-down, within a level later
  // (newer) runs first — the exact probe order of FindEntry, so on equal
  // keys the min-heap pops the newest version first.
  s.scan_cursors.clear();
  s.scan_heap.clear();
  const auto& mem_rows = s.mem.Sorted();
  {
    ScanCursor c;
    auto it = std::lower_bound(mem_rows.begin(), mem_rows.end(), start,
                               [&s](MemTable::RowId r, std::string_view k) {
                                 return s.mem.record(r).key() < k;
                               });
    c.mem_it = mem_rows.data() + (it - mem_rows.begin());
    c.mem_end = mem_rows.data() + mem_rows.size();
    c.age = 0;
    if (c.mem_it != c.mem_end) s.scan_cursors.push_back(c);
  }
  uint32_t age = 1;
  for (const auto& level : s.levels) {
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
      s.scan_cursors.push_back(c);
    }
  }

  auto record_of = [&](uint32_t i) -> const ReplRecord& {
    const ScanCursor& c = s.scan_cursors[i];
    return c.mem_it != nullptr ? s.mem.record(*c.mem_it) : **c.sst_it;
  };
  auto key_of = [&](uint32_t i) { return record_of(i).key(); };
  // Min-heap on (key, age): std::push/pop_heap keep the *greatest*
  // element at the front, so the comparator orders by "later key, or
  // equal key from an older source, sorts first-er"… i.e. greater-than.
  auto heap_less = [&](uint32_t a, uint32_t b) {
    int cmp = key_of(a).compare(key_of(b));
    if (cmp != 0) return cmp > 0;
    return s.scan_cursors[a].age > s.scan_cursors[b].age;
  };
  for (uint32_t i = 0; i < s.scan_cursors.size(); i++) s.scan_heap.push_back(i);
  std::make_heap(s.scan_heap.begin(), s.scan_heap.end(), heap_less);

  auto advance = [&](uint32_t i) {
    ScanCursor& c = s.scan_cursors[i];
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
  while (!s.scan_heap.empty()) {
    std::pop_heap(s.scan_heap.begin(), s.scan_heap.end(), heap_less);
    const uint32_t i = s.scan_heap.back();
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
        std::push_heap(s.scan_heap.begin(), s.scan_heap.end(), heap_less);
      } else {
        s.scan_heap.pop_back();
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
      s.stats.scan_entries++;
    } else if (rec.IsExpiredAt(now)) {
      s.stats.expired_dropped++;
    }
    last_key = key;
    decided_any = true;
    if (advance(i)) {
      std::push_heap(s.scan_heap.begin(), s.scan_heap.end(), heap_less);
    } else {
      s.scan_heap.pop_back();
    }
  }

  // Block accounting: one seek per touched run plus one read per
  // kScanBlockBytes of consumed payload — sequential I/O, so far cheaper
  // per entry than per-key point probes.
  for (const ScanCursor& c : s.scan_cursors) {
    if (c.mem_it != nullptr || c.sst_bytes == 0) continue;
    res.block_reads +=
        1 + static_cast<int>(c.sst_bytes / kScanBlockBytes);
  }
  s.stats.block_reads += static_cast<uint64_t>(res.block_reads);
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
  if (modulus == 0 || !s_) {  // Nothing to export.
    out.done = true;
    return out;
  }
  const State& s = *s_;
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
  std::map<std::string_view, const ReplRecordPtr*> merged;
  bool bounded = false;
  std::string_view horizon;
  // `rec_of` unifies the two cursor shapes: the memtable's ordered view
  // iterates row ids, sstable runs iterate record handles.
  auto collect = [&](auto it, auto end_it, auto rec_of) {
    uint64_t taken = 0;
    std::string_view last;
    bool capped = false;
    for (; it != end_it; ++it) {
      const ReplRecordPtr& handle = rec_of(it);
      const ReplRecord& rec = *handle;
      if (taken > cap) {
        capped = true;
        break;
      }
      merged.emplace(rec.key(), &handle);
      taken += rec.key().size() + rec.PayloadBytes();
      last = rec.key();
    }
    if (capped) {
      bounded = true;
      if (horizon.empty() || last < horizon) horizon = last;
    }
  };
  auto mem_rec = [&s](auto it) -> const ReplRecordPtr& {
    return s.mem.row(*it);
  };
  auto run_rec = [](auto it) -> const ReplRecordPtr& { return *it; };
  const auto& mem_rows = s.mem.Sorted();
  collect(start_after.empty()
              ? mem_rows.begin()
              : std::upper_bound(mem_rows.begin(), mem_rows.end(),
                                 start_after,
                                 [&s](std::string_view k,
                                      MemTable::RowId r) {
                                   return k < s.mem.record(r).key();
                                 }),
          mem_rows.end(), mem_rec);
  for (const auto& level : s.levels) {
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
  for (const auto& [key, handle] : merged) {
    const ReplRecord* rec = handle->get();
    if (bounded && key > horizon) break;
    if (out.bytes >= max_bytes && !out.entries.empty()) {
      budget_hit = true;  // Budget exhausted with keys left to examine.
      break;
    }
    out.next_cursor = key;  // Examined (matching or not): never revisit.
    if (Fnv1a64(key) % modulus != residue) continue;
    if (rec->IsTombstone() || rec->IsExpiredAt(now)) continue;
    out.entries.push_back(*handle);
    out.bytes += key.size() + rec->PayloadBytes();
  }
  if (bounded && !budget_hit) {
    // Every key up to the horizon was examined; resume past it.
    out.next_cursor = horizon;
  }
  out.done = !bounded && !budget_hit;
  return out;
}

ReplRecordPtr LsmEngine::Ingest(const ReplRecord& src,
                                const ReplRecordPtr& shared) {
  const uint64_t seq = NextSeq();
  ReplRecordPtr rec = shared != nullptr && shared->seq() == seq
                          ? shared
                          : RestampReplRecord(src, seq);
  Commit(rec);
  return rec;
}

// ---------------------------------------------------------------------------
// Flush & compaction
// ---------------------------------------------------------------------------

void LsmEngine::MaybeFlush() {
  if (s_->mem.approximate_bytes() >= options_.memtable_flush_bytes) Flush();
}

void LsmEngine::Flush() {
  NoteMutation();
  if (!s_) return;  // Never written: no memtable, no runs.
  State& s = *s_;
  if (s.mem.empty()) {
    MaybeCompact();
    return;
  }
  // The run takes over the memtable's record handles: no row is copied.
  std::vector<ReplRecordPtr> rows = s.mem.TakeSorted();
  auto sst = std::make_shared<SsTable>(s.next_sst_id++, std::move(rows));
  s.stats.flush_count++;
  s.stats.flushed_bytes += sst->data_bytes();
  if (s.levels.empty()) {
    s.levels.resize(static_cast<size_t>(options_.max_levels));
  }
  s.levels[0].push_back(std::move(sst));
  while (MaybeCompact()) {
  }
}

bool LsmEngine::MaybeCompact() {
  if (!s_) return false;
  const auto& levels = s_->levels;
  for (size_t level = 0; level < levels.size(); level++) {
    if (levels[level].size() >
        static_cast<size_t>(options_.runs_per_level_trigger)) {
      CompactLevel(level);
      return true;
    }
  }
  return false;
}

void LsmEngine::CompactLevel(size_t level) {
  NoteMutation();
  State& s = *s_;
  const bool is_bottom = level + 1 >= s.levels.size();
  const size_t target = is_bottom ? level : level + 1;

  // Newest-first ordering: within a level, later index = newer.
  std::vector<SsTablePtr> inputs;
  for (auto it = s.levels[level].rbegin(); it != s.levels[level].rend();
       ++it) {
    inputs.push_back(*it);
  }
  if (!is_bottom) {
    // Fold the existing target-level runs in as the oldest inputs so the
    // target keeps a single merged run per compaction.
    for (auto it = s.levels[target].rbegin(); it != s.levels[target].rend();
         ++it) {
      inputs.push_back(*it);
    }
  }

  uint64_t read_bytes = 0;
  for (const auto& run : inputs) read_bytes += run->data_bytes();

  // Tombstones and expired entries may only be dropped when merging into
  // the bottom level (no older version can exist below it).
  const bool drop_deletes = target + 1 >= s.levels.size();
  auto merged_rows = MergeRuns(inputs, drop_deletes);

  s.levels[level].clear();
  if (!is_bottom) s.levels[target].clear();
  if (!merged_rows.empty()) {
    auto merged =
        std::make_shared<SsTable>(s.next_sst_id++, std::move(merged_rows));
    s.stats.compaction_write_bytes += merged->data_bytes();
    s.levels[target].push_back(std::move(merged));
  }
  s.stats.compaction_count++;
  s.stats.compaction_read_bytes += read_bytes;
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
        s_->stats.expired_dropped += rec->IsExpiredAt(now) ? 1 : 0;
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
  if (rec->seq() != applied_seq() + 1) {
    return Status::InvalidArgument("replication stream gap");
  }
  State& s = MutableState();
  s.next_seq = rec->seq() + 1;
  NoteMutation();
  // The shipped record is the primary's materialized copy; this
  // replica's log and memtable retain it as-is (refcount bumps).
  if (options_.enable_repl_log) s.repl_log.Append(rec);
  s.mem.Put(rec);
  s.stats.repl_applied++;
  MaybeFlush();
  return Status::OK();
}

void LsmEngine::ResyncFrom(const LsmEngine& src) {
  NoteMutation();
  State& s = MutableState();  // Counts the resync even from a blank src.
  const State& from = src.state();
  s.mem = from.mem;
  s.repl_log = from.repl_log;
  // SSTables are immutable after construction; the runs are shared, so a
  // snapshot resync costs O(runs), not O(bytes) — the tick cost of the
  // transfer is modeled by the caller (catch-up / rebuild ticks).
  s.levels = from.levels;
  s.next_seq = from.next_seq;
  s.next_sst_id = from.next_sst_id;
  s.stats.resyncs++;
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
  if (!options_.enable_wal && s_) s_->mem.clear();
}

uint64_t LsmEngine::ApproximateDataBytes() const {
  const State& s = state();
  uint64_t total = s.mem.approximate_bytes();
  for (const auto& level : s.levels) {
    for (const auto& run : level) total += run->data_bytes();
  }
  return total;
}

std::vector<size_t> LsmEngine::LevelRunCounts() const {
  std::vector<size_t> counts;
  counts.reserve(state().levels.size());
  for (const auto& level : state().levels) counts.push_back(level.size());
  return counts;
}

double LsmEngine::WriteAmplification() const {
  const LsmStats& st = stats();
  if (st.flushed_bytes == 0) return 0;
  return static_cast<double>(st.flushed_bytes + st.compaction_write_bytes) /
         static_cast<double>(st.flushed_bytes);
}

}  // namespace storage
}  // namespace abase
