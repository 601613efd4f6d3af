// Tests for src/storage: bloom filters, memtable, SSTables, the LSM
// engine (LavaStore stand-in), crash recovery, and the disk model.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/clock.h"
#include "common/hash.h"
#include "common/keyspace.h"
#include "common/rng.h"
#include "common/shared_value.h"
#include "counting_allocator.h"
#include "storage/bloom.h"
#include "storage/disk_model.h"
#include "storage/lsm_engine.h"
#include "storage/memtable.h"
#include "storage/sstable.h"

namespace abase {
namespace storage {
namespace {

// ----------------------------------------------------------------- Bloom --

TEST(BloomTest, NoFalseNegatives) {
  BloomFilter bf(1000);
  for (int i = 0; i < 1000; i++) bf.Add("key" + std::to_string(i));
  for (int i = 0; i < 1000; i++) {
    EXPECT_TRUE(bf.MayContain("key" + std::to_string(i)));
  }
}

class BloomFprTest : public ::testing::TestWithParam<int> {};

TEST_P(BloomFprTest, FalsePositiveRateBounded) {
  const int bits_per_key = GetParam();
  BloomFilter bf(2000, bits_per_key);
  for (int i = 0; i < 2000; i++) bf.Add("in" + std::to_string(i));
  int fp = 0;
  const int probes = 10000;
  for (int i = 0; i < probes; i++) {
    if (bf.MayContain("out" + std::to_string(i))) fp++;
  }
  double fpr = static_cast<double>(fp) / probes;
  // Theoretical FPR ~ 0.61^bits_per_key; allow generous slack.
  double bound = std::pow(0.6185, bits_per_key) * 2.5 + 0.002;
  EXPECT_LT(fpr, bound) << "bits_per_key=" << bits_per_key;
}

INSTANTIATE_TEST_SUITE_P(BitsSweep, BloomFprTest,
                         ::testing::Values(4, 8, 10, 16));

TEST(BloomTest, EmptyFilterRejectsEverything) {
  BloomFilter bf(100);
  EXPECT_FALSE(bf.MayContain("anything"));
}

// -------------------------------------------------------------- MemTable --

TEST(MemTableTest, PutGetReplace) {
  MemTable mt;
  mt.Put(MakeReplRecord("a", ValueEntry::String("1", 1)));
  mt.Put(MakeReplRecord("b", ValueEntry::String("2", 2)));
  ASSERT_NE(mt.Get("a"), nullptr);
  EXPECT_EQ((*mt.Get("a"))->str(), "1");
  mt.Put(MakeReplRecord("a", ValueEntry::String("updated", 3)));
  EXPECT_EQ((*mt.Get("a"))->str(), "updated");
  EXPECT_EQ(mt.entry_count(), 2u);
  EXPECT_EQ(mt.Get("zz"), nullptr);
}

TEST(MemTableTest, ByteAccountingTracksReplacement) {
  MemTable mt;
  mt.Put(MakeReplRecord("k", ValueEntry::String(std::string(100, 'x'), 1)));
  uint64_t b1 = mt.approximate_bytes();
  mt.Put(MakeReplRecord("k", ValueEntry::String(std::string(10, 'x'), 2)));
  uint64_t b2 = mt.approximate_bytes();
  EXPECT_EQ(b1 - b2, 90u);
}

TEST(MemTableTest, TombstonesStored) {
  MemTable mt;
  mt.Put(MakeReplRecord("k", ValueEntry::Tombstone(1)));
  ASSERT_NE(mt.Get("k"), nullptr);
  EXPECT_TRUE((*mt.Get("k"))->IsTombstone());
}

// Differential test of the memtable's index, chunked row store and
// ordered view against a std::map holding the same shared records.
// Sizes cross the row-store chunk and many index growths; every check
// compares lookups, the ordered view (order and record identity) and
// the byte accounting.
constexpr uint64_t kMemEntryOverhead = 48;
using RefTable = std::map<std::string, ReplRecordPtr>;

std::string RandomKey(Rng& rng) {
  // 1–40 bytes: short keys stay in the string's inline buffer (and
  // collide often, giving overwrites), long ones live on the heap.
  std::string key(rng.NextInt(1, 40), 'a');
  for (char& c : key) c = static_cast<char>('a' + rng.NextUint64(26));
  return key;
}

void PutBoth(MemTable& mt, RefTable& ref, const std::string& key, Rng& rng,
             uint64_t seq) {
  ReplRecordPtr rec = MakeReplRecord(
      key, rng.NextBool(0.1)
               ? ValueEntry::Tombstone(seq)
               : ValueEntry::String(std::string(rng.NextUint64(64), 'v'),
                                    seq));
  ref[key] = rec;
  mt.Put(std::move(rec));
}

void ExpectSameTable(const MemTable& mt, const RefTable& ref) {
  uint64_t bytes = 0;
  for (const auto& [key, rec] : ref) {
    bytes += key.size() + rec->PayloadBytes() + kMemEntryOverhead;
  }
  ASSERT_EQ(mt.entry_count(), ref.size());
  EXPECT_EQ(mt.empty(), ref.empty());
  EXPECT_EQ(mt.approximate_bytes(), bytes);
  const std::vector<MemTable::RowId>& view = mt.Sorted();
  ASSERT_EQ(view.size(), ref.size());
  size_t i = 0;
  for (const auto& [key, rec] : ref) {
    ASSERT_EQ(&mt.record(view[i]), rec.get()) << "view position " << i;
    const ReplRecordPtr* row = mt.Get(key);
    ASSERT_NE(row, nullptr) << key;
    EXPECT_EQ(row->get(), rec.get()) << key;
    i++;
  }
}

class MemTableDifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MemTableDifferentialTest, MatchesOrderedMapReference) {
  Rng rng(GetParam());
  MemTable mt;
  RefTable ref;
  std::vector<std::string> seen;
  size_t max_rows = 0;
  uint64_t seq = 1;
  for (int step = 0; step < 5000; step++) {
    const double action = rng.NextDouble();
    if (action < 0.6) {
      // New key (3 in 4) or an overwrite of a key seen before.
      if (seen.empty() || rng.NextBool(0.75)) {
        seen.push_back(RandomKey(rng));
        PutBoth(mt, ref, seen.back(), rng, seq++);
      } else {
        PutBoth(mt, ref, seen[rng.NextUint64(seen.size())], rng, seq++);
      }
    } else if (action < 0.9) {
      // Lookups: seen keys (hits, or misses after a clear) and fresh
      // random keys (almost always misses).
      const std::string key = rng.NextBool(0.5) && !seen.empty()
                                  ? seen[rng.NextUint64(seen.size())]
                                  : RandomKey(rng);
      auto it = ref.find(key);
      const ReplRecordPtr* row = mt.Get(key);
      EXPECT_EQ(row != nullptr ? row->get() : nullptr,
                it == ref.end() ? nullptr : it->second.get())
          << key << " step " << step;
    } else {
      ExpectSameTable(mt, ref);
    }
    max_rows = std::max(max_rows, mt.entry_count());

    if (step % 1000 == 500) {
      // Copy-assign over a non-empty table, then the copy and the source
      // must evolve independently.
      MemTable copy;
      copy.Put(MakeReplRecord("stale", ValueEntry::String("x", seq++)));
      copy = mt;
      RefTable copy_ref = ref;
      ExpectSameTable(copy, copy_ref);
      for (int j = 0; j < 50; j++) {
        PutBoth(copy, copy_ref, RandomKey(rng), rng, seq++);
        PutBoth(mt, ref, RandomKey(rng), rng, seq++);
      }
      ExpectSameTable(copy, copy_ref);
      ExpectSameTable(mt, ref);
    }
    if (step == 2499) {
      // Flush: every record in key order, pointer-identical, then empty.
      std::vector<ReplRecordPtr> rows = mt.TakeSorted();
      ASSERT_EQ(rows.size(), ref.size());
      size_t i = 0;
      for (const auto& [key, rec] : ref) EXPECT_EQ(rows[i++], rec);
      ref.clear();
      ExpectSameTable(mt, ref);
    }
    if (step == 3999) {
      mt.clear();
      ref.clear();
      ExpectSameTable(mt, ref);
    }
  }
  ExpectSameTable(mt, ref);
  EXPECT_GT(max_rows, 2 * MemTable::kChunkRows);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MemTableDifferentialTest,
                         ::testing::Values(1, 2, 3, 4));

// --------------------------------------------------------------- SsTable --

std::vector<ReplRecordPtr> MakeRows(int n) {
  std::vector<ReplRecordPtr> rows;
  for (int i = 0; i < n; i++) {
    char buf[16];
    snprintf(buf, sizeof(buf), "k%05d", i);
    rows.push_back(MakeReplRecord(
        buf, ValueEntry::String("v" + std::to_string(i),
                                static_cast<uint64_t>(i + 1))));
  }
  return rows;
}

TEST(SsTableTest, PointLookupChargesOneBlock) {
  SsTable sst(1, MakeRows(100));
  SstProbe p = sst.Get("k00042");
  ASSERT_NE(p.rec, nullptr);
  EXPECT_EQ((*p.rec)->str(), "v42");
  EXPECT_EQ(p.block_reads, 1);
}

TEST(SsTableTest, BloomFiltersOutOfRangeFree) {
  SsTable sst(1, MakeRows(100));
  SstProbe p = sst.Get("zzz");  // Out of key range entirely.
  EXPECT_EQ(p.rec, nullptr);
  EXPECT_EQ(p.block_reads, 0);
}

TEST(SsTableTest, MinMaxKeys) {
  SsTable sst(1, MakeRows(10));
  EXPECT_EQ(sst.min_key(), "k00000");
  EXPECT_EQ(sst.max_key(), "k00009");
  EXPECT_TRUE(sst.KeyInRange("k00005"));
  EXPECT_FALSE(sst.KeyInRange("a"));
}

// ------------------------------------------------------------- LsmEngine --

/// Engine options with the replication stream retained (what DataNode
/// uses for hosted replicas).
LsmOptions ReplicatedOptions() {
  LsmOptions opts;
  opts.enable_repl_log = true;
  return opts;
}

class LsmEngineTest : public ::testing::Test {
 protected:
  LsmEngineTest() : clock_(0) {
    LsmOptions opts;
    opts.memtable_flush_bytes = 4096;  // Tiny: force flushes quickly.
    opts.runs_per_level_trigger = 2;
    opts.max_levels = 3;
    engine_ = std::make_unique<LsmEngine>(opts, &clock_);
  }
  SimClock clock_;
  std::unique_ptr<LsmEngine> engine_;
};

// One allocation per write version: an overwrite that grows neither the
// memtable's row store nor its index allocates exactly the record block
// (header, key and value together), and a replica applying that record
// stores its 8-byte handle and allocates nothing.
TEST_F(LsmEngineTest, OneAllocationPerWriteVersion) {
  static_assert(sizeof(ReplRecordPtr) == 8, "8-byte record handles");
  static_assert(sizeof(SharedValue) <= 16, "16-byte payload handles");
  LsmEngine replica(LsmOptions{}, &clock_);
  const std::string value(256, 'v');
  ReplRecordPtr first;
  ASSERT_TRUE(engine_->Put("key", value, 0, &first).ok());
  ASSERT_TRUE(replica.ApplyReplicated(first).ok());

  ReplRecordPtr rec;
  g_allocs = 0;
  g_count_allocs = true;
  const bool put_ok = engine_->Put("key", value, 0, &rec).ok();
  g_count_allocs = false;
  ASSERT_TRUE(put_ok);
  EXPECT_EQ(g_allocs.load(), 1);

  g_allocs = 0;
  g_count_allocs = true;
  const bool apply_ok = replica.ApplyReplicated(rec).ok();
  g_count_allocs = false;
  ASSERT_TRUE(apply_ok);
  EXPECT_EQ(g_allocs.load(), 0);

  EXPECT_EQ(rec->key(), "key");
  EXPECT_EQ(rec->str(), value);
  EXPECT_EQ(rec.use_count(), 3);  // This test and both memtables.
  EXPECT_EQ(first.use_count(), 1);  // Both overwrites released it.
  EXPECT_EQ(replica.Get("key").value(), value);
}

// Every read a never-written engine must answer exactly as an empty one.
struct EmptyReadAnswers {
  bool get_found = true;
  bool hget_found = true;
  bool mfind_found[2] = {true, true};
  ReadIo mfind_io[2];
  ScanResult scan;
  size_t scan_buffered = 0;
  size_t export_entries[2] = {1, 1};
  uint64_t export_bytes[2] = {1, 1};
  bool export_done[2] = {false, false};
  std::string export_cursor[2];
  uint64_t applied_seq = 1;
  uint64_t data_bytes = 1;
  uint64_t memtable_bytes = 1;
  size_t log_records = 1;
  size_t levels = 1;
};

// Reads `e` without allocating anything itself (the buffer and the
// strings stay empty unless the engine hands back data).
void ReadEmptyAnswers(LsmEngine& e, ScanBuffer& buf, EmptyReadAnswers* a) {
  a->get_found = e.Get("k").ok();
  a->hget_found = e.HGet("h", "f").ok();
  const std::string_view keys[2] = {"k", "h"};
  const ReplRecordPtr* recs[2];
  e.MultiFind(keys, 2, recs, a->mfind_io);
  for (int i = 0; i < 2; i++) a->mfind_found[i] = recs[i] != nullptr;
  a->scan = e.ScanRange("", "", 16, buf);
  a->scan_buffered = buf.size();
  for (uint64_t r = 0; r < 2; r++) {
    auto x = e.ExportHashRange(2, r, "", 1 << 20);
    a->export_entries[r] = x.entries.size();
    a->export_bytes[r] = x.bytes;
    a->export_done[r] = x.done;
    a->export_cursor[r] = std::move(x.next_cursor);
  }
  a->applied_seq = e.applied_seq();
  a->data_bytes = e.ApproximateDataBytes();
  a->memtable_bytes = e.memtable_bytes();
  a->log_records = e.repl_log().record_count();
  a->levels = e.LevelRunCounts().size();
}

void ExpectEmptyAnswers(const EmptyReadAnswers& a) {
  EXPECT_FALSE(a.get_found);
  EXPECT_FALSE(a.hget_found);
  for (int i = 0; i < 2; i++) {
    EXPECT_FALSE(a.mfind_found[i]);
    EXPECT_FALSE(a.mfind_io[i].memtable_hit);
    EXPECT_FALSE(a.mfind_io[i].found);
    EXPECT_EQ(a.mfind_io[i].block_reads, 0);
    EXPECT_EQ(a.export_entries[i], 0u);
    EXPECT_EQ(a.export_bytes[i], 0u);
    EXPECT_TRUE(a.export_done[i]);
    EXPECT_EQ(a.export_cursor[i], "");
  }
  EXPECT_EQ(a.scan.entries, 0u);
  EXPECT_EQ(a.scan.bytes, 0u);
  EXPECT_EQ(a.scan.block_reads, 0);
  EXPECT_TRUE(a.scan.done);
  EXPECT_EQ(a.scan.next_key, "");
  EXPECT_EQ(a.scan_buffered, 0u);
  EXPECT_EQ(a.applied_seq, 0u);
  EXPECT_EQ(a.data_bytes, 0u);
  EXPECT_EQ(a.memtable_bytes, 0u);
  EXPECT_EQ(a.log_records, 0u);
  EXPECT_EQ(a.levels, 0u);
}

// A registered tenant's replicas are mostly never written: such an
// engine allocates nothing to answer any read, and answers each exactly
// as an empty engine (here, a written one re-seeded from a blank one)
// does. Resyncing works in both directions.
TEST_F(LsmEngineTest, NeverWrittenEngineAllocatesNothingAndReadsEmpty) {
  LsmEngine blank(ReplicatedOptions(), &clock_);
  ScanBuffer buf;
  EmptyReadAnswers answers;
  g_allocs = 0;
  g_count_allocs = true;
  ReadEmptyAnswers(blank, buf, &answers);
  blank.Flush();
  blank.TruncateReplLogThrough(5);
  blank.CrashAndRecover();
  const bool compacted = blank.MaybeCompact();
  g_count_allocs = false;
  EXPECT_EQ(g_allocs.load(), 0);
  EXPECT_FALSE(compacted);
  ExpectEmptyAnswers(answers);
  // Counters are one shared all-zero block until the first write.
  LsmEngine other(LsmOptions{}, &clock_);
  EXPECT_EQ(&blank.stats(), &other.stats());
  EXPECT_EQ(&blank.repl_log(), &other.repl_log());
  EXPECT_EQ(blank.stats().gets, 0u);
  EXPECT_EQ(blank.WriteAmplification(), 0.0);

  // Blank -> written: the written engine becomes an empty one.
  LsmEngine emptied(ReplicatedOptions(), &clock_);
  for (int i = 0; i < 50; i++) {
    ASSERT_TRUE(emptied.Put("k" + std::to_string(i), "v").ok());
  }
  ASSERT_TRUE(emptied.HSet("h", "f", "v").ok());
  emptied.Flush();
  ASSERT_TRUE(emptied.Put("k", "v").ok());
  emptied.ResyncFrom(blank);
  EmptyReadAnswers emptied_answers;
  ReadEmptyAnswers(emptied, buf, &emptied_answers);
  ExpectEmptyAnswers(emptied_answers);
  EXPECT_EQ(emptied.stats().resyncs, 1u);
  // Its stream restarts at 1, like a fresh engine's.
  ASSERT_TRUE(emptied.Put("k", "again").ok());
  EXPECT_EQ(emptied.applied_seq(), 1u);

  // Written -> blank: the blank engine becomes a full copy.
  LsmEngine source(ReplicatedOptions(), &clock_);
  ASSERT_TRUE(source.Put("k", "v1").ok());
  ASSERT_TRUE(source.HSet("h", "f", "hv").ok());
  LsmEngine seeded(ReplicatedOptions(), &clock_);
  seeded.ResyncFrom(source);
  EXPECT_EQ(seeded.Get("k").value(), "v1");
  EXPECT_EQ(seeded.HGet("h", "f").value(), "hv");
  EXPECT_EQ(seeded.applied_seq(), source.applied_seq());
  EXPECT_EQ(seeded.ApproximateDataBytes(), source.ApproximateDataBytes());
  EXPECT_EQ(seeded.repl_log().record_count(), 2u);
  EXPECT_EQ(seeded.stats().resyncs, 1u);
  // A blank engine re-seeded from a blank one counts the resync only.
  LsmEngine twice_blank(LsmOptions{}, &clock_);
  twice_blank.ResyncFrom(blank);
  EmptyReadAnswers twice_answers;
  ReadEmptyAnswers(twice_blank, buf, &twice_answers);
  ExpectEmptyAnswers(twice_answers);
  EXPECT_EQ(twice_blank.stats().resyncs, 1u);
}

TEST_F(LsmEngineTest, PutGetRoundTrip) {
  ASSERT_TRUE(engine_->Put("k1", "hello").ok());
  auto v = engine_->Get("k1");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v.value(), "hello");
}

TEST_F(LsmEngineTest, GetMissingIsNotFound) {
  EXPECT_TRUE(engine_->Get("missing").status().IsNotFound());
}

TEST_F(LsmEngineTest, EmptyKeyRejected) {
  EXPECT_FALSE(engine_->Put("", "v").ok());
  EXPECT_FALSE(engine_->Delete("").ok());
}

TEST_F(LsmEngineTest, DeleteHidesKeyAcrossFlush) {
  ASSERT_TRUE(engine_->Put("k", "v").ok());
  engine_->Flush();
  ASSERT_TRUE(engine_->Delete("k").ok());
  EXPECT_TRUE(engine_->Get("k").status().IsNotFound());
  engine_->Flush();
  EXPECT_TRUE(engine_->Get("k").status().IsNotFound());
}

TEST_F(LsmEngineTest, OverwriteLatestWinsAcrossRuns) {
  ASSERT_TRUE(engine_->Put("k", "v1").ok());
  engine_->Flush();
  ASSERT_TRUE(engine_->Put("k", "v2").ok());
  engine_->Flush();
  auto v = engine_->Get("k");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v.value(), "v2");
}

TEST_F(LsmEngineTest, TtlExpiresValues) {
  ASSERT_TRUE(engine_->Put("k", "v", 10 * kMicrosPerSecond).ok());
  EXPECT_TRUE(engine_->Get("k").ok());
  clock_.Advance(11 * kMicrosPerSecond);
  EXPECT_TRUE(engine_->Get("k").status().IsNotFound());
}

TEST_F(LsmEngineTest, ExpireCommandSetsAndClearsTtl) {
  ASSERT_TRUE(engine_->Put("k", "v").ok());
  ASSERT_TRUE(engine_->Expire("k", 5 * kMicrosPerSecond).ok());
  clock_.Advance(6 * kMicrosPerSecond);
  EXPECT_TRUE(engine_->Get("k").status().IsNotFound());
  EXPECT_TRUE(engine_->Expire("missing", 1).IsNotFound());
}

TEST_F(LsmEngineTest, HashCommands) {
  ASSERT_TRUE(engine_->HSet("h", "f1", "v1").ok());
  ASSERT_TRUE(engine_->HSet("h", "f2", "v2").ok());
  auto f1 = engine_->HGet("h", "f1");
  ASSERT_TRUE(f1.ok());
  EXPECT_EQ(f1.value(), "v1");
  auto len = engine_->HLen("h");
  ASSERT_TRUE(len.ok());
  EXPECT_EQ(len.value(), 2u);
  auto all = engine_->HGetAll("h");
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all.value().size(), 2u);
  EXPECT_EQ(all.value()[1].first, "f2");
  EXPECT_EQ(all.value()[1].second, "v2");
  EXPECT_TRUE(engine_->HGet("h", "zz").status().IsNotFound());
  EXPECT_TRUE(engine_->HLen("nope").status().IsNotFound());
}

TEST_F(LsmEngineTest, HashSurvivesFlushAndUpdates) {
  ASSERT_TRUE(engine_->HSet("h", "f1", "v1").ok());
  engine_->Flush();
  ASSERT_TRUE(engine_->HSet("h", "f2", "v2").ok());
  auto all = engine_->HGetAll("h");
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all.value().size(), 2u);  // f1 merged from the flushed run.
}

TEST_F(LsmEngineTest, ExportHashRangeStreamsResidueInBoundedBatches) {
  // 200 keys spread across memtable and flushed runs; export the keys
  // whose hash lands on residue 1 (mod 2) in throttled batches and
  // re-ingest them into a second engine (the online-split data path).
  std::map<std::string, std::string> expect;
  for (int i = 0; i < 200; i++) {
    std::string key = "split:k" + std::to_string(i);
    std::string value = "v" + std::to_string(i);
    ASSERT_TRUE(engine_->Put(key, value).ok());
    if (Fnv1a64(key) % 2 == 1) expect[key] = value;
  }
  // Deleted and expired residue keys must not move.
  for (int i = 0; i < 200; i += 9) {
    std::string key = "split:k" + std::to_string(i);
    ASSERT_TRUE(engine_->Delete(key).ok());
    expect.erase(key);
  }
  ASSERT_FALSE(expect.empty());

  LsmOptions child_opts;
  LsmEngine child(child_opts, &clock_);
  std::string cursor;
  size_t batches = 0;
  for (;; batches++) {
    ASSERT_LT(batches, 1000u) << "exporter failed to make progress";
    auto batch = engine_->ExportHashRange(2, 1, cursor, /*max_bytes=*/64);
    for (const ReplRecordPtr& rec : batch.entries) {
      EXPECT_EQ(Fnv1a64(rec->key()) % 2, 1u) << rec->key();
      child.Ingest(*rec);
    }
    cursor = batch.next_cursor;
    if (batch.done) break;
  }
  EXPECT_GT(batches, 1u);  // The byte budget actually throttled.

  // The child holds exactly the live residue-1 view, values intact.
  for (const auto& [key, value] : expect) {
    auto got = child.Get(key);
    ASSERT_TRUE(got.ok()) << key;
    EXPECT_EQ(got.value(), value) << key;
  }
  for (int i = 0; i < 200; i++) {
    std::string key = "split:k" + std::to_string(i);
    if (expect.count(key) > 0) continue;
    EXPECT_TRUE(child.Get(key).status().IsNotFound()) << key;
  }
}

TEST_F(LsmEngineTest, ExportHashRangeSeesNewestVersionAcrossSources) {
  ASSERT_TRUE(engine_->Put("k", "old").ok());
  engine_->Flush();
  ASSERT_TRUE(engine_->Put("k", "new").ok());  // Memtable shadows run.
  const uint64_t residue = Fnv1a64("k") % 2;
  auto batch = engine_->ExportHashRange(2, residue, "", 1 << 20);
  ASSERT_EQ(batch.entries.size(), 1u);
  EXPECT_EQ(batch.entries[0]->str(), "new");
  EXPECT_TRUE(batch.done);
}

TEST_F(LsmEngineTest, FlushAndCompactionProgress) {
  for (int i = 0; i < 500; i++) {
    ASSERT_TRUE(
        engine_->Put("key" + std::to_string(i), std::string(64, 'x')).ok());
  }
  EXPECT_GT(engine_->stats().flush_count, 0u);
  EXPECT_GT(engine_->stats().compaction_count, 0u);
  // All data still readable after compactions.
  for (int i = 0; i < 500; i += 37) {
    EXPECT_TRUE(engine_->Get("key" + std::to_string(i)).ok()) << i;
  }
  // Level run counts respect the trigger.
  for (size_t c : engine_->LevelRunCounts()) {
    EXPECT_LE(c, 3u);  // trigger(2) + 1 transient.
  }
}

TEST_F(LsmEngineTest, WriteAmplificationAtLeastOne) {
  for (int i = 0; i < 300; i++) {
    ASSERT_TRUE(engine_->Put("k" + std::to_string(i % 50),
                             std::string(128, 'a')).ok());
  }
  EXPECT_GE(engine_->WriteAmplification(), 1.0);
}

TEST_F(LsmEngineTest, CrashRecoveryReplaysWal) {
  ASSERT_TRUE(engine_->Put("durable", "yes").ok());
  engine_->CrashAndRecover();
  auto v = engine_->Get("durable");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v.value(), "yes");
}

TEST(LsmEngineNoWalTest, CrashLosesUnflushedWrites) {
  SimClock clock;
  LsmOptions opts;
  opts.enable_wal = false;
  LsmEngine engine(opts, &clock);
  ASSERT_TRUE(engine.Put("volatile", "gone").ok());
  engine.CrashAndRecover();
  EXPECT_TRUE(engine.Get("volatile").status().IsNotFound());
}

TEST(LsmEngineNoWalTest, CrashKeepsFlushedWrites) {
  SimClock clock;
  LsmOptions opts;
  opts.enable_wal = false;
  LsmEngine engine(opts, &clock);
  ASSERT_TRUE(engine.Put("flushed", "kept").ok());
  engine.Flush();
  ASSERT_TRUE(engine.Put("unflushed", "lost").ok());
  engine.CrashAndRecover();
  EXPECT_TRUE(engine.Get("flushed").ok());
  EXPECT_TRUE(engine.Get("unflushed").status().IsNotFound());
}

// With default options (enable_wal on), a crash must leave the engine
// reading exactly as before it: unflushed overwrites of flushed keys, a
// tombstone over a flushed key and unflushed first writes all survive.
TEST(LsmEngineCrashTest, DefaultOptionsRecoverUnflushedStateExactly) {
  SimClock clock(0);
  LsmEngine engine(LsmOptions{}, &clock);
  for (int i = 0; i < 20; i++) {
    ASSERT_TRUE(engine.Put("k" + std::to_string(i), "flushed").ok());
  }
  engine.Flush();  // The flush boundary: k0..k19 live in a run.
  for (int i = 0; i < 10; i++) {
    ASSERT_TRUE(engine.Put("k" + std::to_string(i), "overwrite").ok());
    ASSERT_TRUE(engine.Put("k" + std::to_string(i), "overwrite-2").ok());
  }
  ASSERT_TRUE(engine.Delete("k15").ok());
  ASSERT_TRUE(engine.Put("new", "unflushed").ok());
  ASSERT_GT(engine.memtable_bytes(), 0u);

  auto snapshot = [&engine] {
    std::vector<std::string> out;
    for (int i = 0; i < 20; i++) {
      auto v = engine.Get("k" + std::to_string(i));
      out.push_back(v.ok() ? v.value() : "<absent>");
    }
    auto v = engine.Get("new");
    out.push_back(v.ok() ? v.value() : "<absent>");
    ScanBuffer buf;
    const ScanResult res = engine.ScanRange("", "", 1000, buf);
    EXPECT_TRUE(res.done);
    for (size_t i = 0; i < buf.size(); i++) {
      out.push_back(buf[i].key + "=" + buf[i].value);
    }
    out.push_back(std::to_string(engine.memtable_bytes()));
    return out;
  };
  const std::vector<std::string> before = snapshot();
  EXPECT_EQ(before[0], "overwrite-2");
  EXPECT_EQ(before[15], "<absent>");
  EXPECT_EQ(before[19], "flushed");
  engine.CrashAndRecover();
  EXPECT_EQ(snapshot(), before);
}

TEST_F(LsmEngineTest, ReadIoReportsMemtableVsDisk) {
  ASSERT_TRUE(engine_->Put("hot", "v").ok());
  ReadIo io;
  ASSERT_TRUE(engine_->Get("hot", &io).ok());
  EXPECT_TRUE(io.memtable_hit);
  EXPECT_EQ(io.block_reads, 0);

  engine_->Flush();
  ReadIo io2;
  ASSERT_TRUE(engine_->Get("hot", &io2).ok());
  EXPECT_FALSE(io2.memtable_hit);
  EXPECT_GE(io2.block_reads, 1);
}

TEST_F(LsmEngineTest, BloomAvoidsBlockReadsForMisses) {
  for (int i = 0; i < 100; i++) {
    ASSERT_TRUE(engine_->Put("present" + std::to_string(i), "v").ok());
  }
  engine_->Flush();
  uint64_t before = engine_->stats().block_reads;
  for (int i = 0; i < 200; i++) {
    engine_->Get("absent" + std::to_string(i));
  }
  uint64_t blocks = engine_->stats().block_reads - before;
  // ~1% bloom FPR: 200 misses should cost only a handful of block reads.
  EXPECT_LT(blocks, 20u);
}

// An engine that never flushed holds no level vectors (most registered
// tenants' engines never do); the first run sizes all `max_levels`, so
// the compaction bottom test sees the configured depth from then on.
TEST_F(LsmEngineTest, LevelsSizedOnFirstFlush) {
  EXPECT_TRUE(engine_->LevelRunCounts().empty());
  engine_->Flush();  // Empty memtable: no run, nothing sized.
  EXPECT_TRUE(engine_->LevelRunCounts().empty());
  ASSERT_TRUE(engine_->Put("k", "v").ok());
  EXPECT_EQ(engine_->Get("k").value(), "v");
  EXPECT_TRUE(engine_->LevelRunCounts().empty());
  engine_->Flush();
  EXPECT_EQ(engine_->LevelRunCounts(), (std::vector<size_t>{1, 0, 0}));
  EXPECT_EQ(engine_->Get("k").value(), "v");
}

TEST_F(LsmEngineTest, TombstonesDroppedAtBottomCompaction) {
  for (int i = 0; i < 50; i++) {
    ASSERT_TRUE(engine_->Put("k" + std::to_string(i), std::string(64, 'v'))
                    .ok());
  }
  for (int i = 0; i < 50; i++) {
    ASSERT_TRUE(engine_->Delete("k" + std::to_string(i)).ok());
  }
  // Force everything down to the bottom level.
  for (int round = 0; round < 10; round++) engine_->Flush();
  while (engine_->MaybeCompact()) {
  }
  for (int i = 0; i < 50; i++) {
    EXPECT_TRUE(engine_->Get("k" + std::to_string(i)).status().IsNotFound());
  }
}

TEST_F(LsmEngineTest, ScanMergesAcrossLevels) {
  ASSERT_TRUE(engine_->Put("scan:a", "1").ok());
  ASSERT_TRUE(engine_->Put("scan:c", "3").ok());
  engine_->Flush();
  ASSERT_TRUE(engine_->Put("scan:b", "2").ok());
  ASSERT_TRUE(engine_->Put("scan:c", "3-updated").ok());  // Newer wins.
  auto rows = engine_->Scan("scan:", "scan;~");
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0].key, "scan:a");
  EXPECT_EQ(rows[1].key, "scan:b");
  EXPECT_EQ(rows[2].key, "scan:c");
  EXPECT_EQ(rows[2].value, "3-updated");
}

TEST_F(LsmEngineTest, ScanSkipsTombstonesAndExpired) {
  ASSERT_TRUE(engine_->Put("s:1", "a").ok());
  ASSERT_TRUE(engine_->Put("s:2", "b").ok());
  ASSERT_TRUE(engine_->Put("s:3", "c", 5 * kMicrosPerSecond).ok());
  engine_->Flush();
  ASSERT_TRUE(engine_->Delete("s:2").ok());
  clock_.Advance(6 * kMicrosPerSecond);  // s:3 expires.
  auto rows = engine_->ScanPrefix("s:");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].key, "s:1");
}

TEST_F(LsmEngineTest, ScanHonorsLimitAndOrder) {
  for (int i = 0; i < 50; i++) {
    char buf[16];
    snprintf(buf, sizeof(buf), "k%03d", i);
    ASSERT_TRUE(engine_->Put(buf, "v").ok());
    if (i % 7 == 0) engine_->Flush();
  }
  auto rows = engine_->Scan("k010", "k030", 10);
  ASSERT_EQ(rows.size(), 10u);
  EXPECT_EQ(rows.front().key, "k010");
  for (size_t i = 1; i < rows.size(); i++) {
    EXPECT_LT(rows[i - 1].key, rows[i].key);
  }
}

TEST_F(LsmEngineTest, ScanPrefixMatchesReferenceModel) {
  std::map<std::string, std::string> reference;
  Rng rng(55);
  for (int i = 0; i < 600; i++) {
    std::string key = "p" + std::to_string(rng.NextUint64(3)) + ":" +
                      std::to_string(rng.NextUint64(100));
    if (rng.NextBool(0.8)) {
      std::string value = "v" + std::to_string(i);
      ASSERT_TRUE(engine_->Put(key, value).ok());
      reference[key] = value;
    } else {
      ASSERT_TRUE(engine_->Delete(key).ok());
      reference.erase(key);
    }
  }
  for (const char* prefix : {"p0:", "p1:", "p2:"}) {
    auto rows = engine_->ScanPrefix(prefix, 1000);
    std::vector<std::pair<std::string, std::string>> expected;
    for (const auto& [k, v] : reference) {
      if (k.rfind(prefix, 0) == 0) expected.emplace_back(k, v);
    }
    ASSERT_EQ(rows.size(), expected.size()) << prefix;
    for (size_t i = 0; i < rows.size(); i++) {
      EXPECT_EQ(rows[i].key, expected[i].first);
      EXPECT_EQ(rows[i].value, expected[i].second);
    }
  }
}

TEST_F(LsmEngineTest, ScanEmptyRange) {
  ASSERT_TRUE(engine_->Put("x", "v").ok());
  EXPECT_TRUE(engine_->Scan("y", "z").empty());
  EXPECT_TRUE(engine_->ScanPrefix("nothing").empty());
}

// Regression: a prefix whose last byte is 0xff cannot form its exclusive
// upper bound by bumping that byte (0xff + 1 wraps to 0x00, turning the
// range into an empty or inverted one). PrefixUpperBound must drop the
// trailing 0xff bytes before incrementing, and an all-0xff prefix means
// "to the last key".
TEST_F(LsmEngineTest, ScanPrefixTrailing0xffUpperBound) {
  const std::string ff1 = std::string("p") + '\xff';
  const std::string ff2 = std::string("p") + '\xff' + '\xff';
  ASSERT_TRUE(engine_->Put(ff1 + "a", "1").ok());
  ASSERT_TRUE(engine_->Put(ff2, "2").ok());
  ASSERT_TRUE(engine_->Put("pz", "outside").ok());  // < "p\xff"
  ASSERT_TRUE(engine_->Put("q", "outside").ok());   // >= upper bound "q"
  engine_->Flush();

  EXPECT_EQ(PrefixUpperBound(ff1), "q");
  auto rows = engine_->ScanPrefix(ff1);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].key, ff1 + "a");
  EXPECT_EQ(rows[1].key, ff2);

  // All-0xff prefix: no finite upper bound — scans to the last key.
  const std::string all_ff = std::string("\xff\xff");
  ASSERT_TRUE(engine_->Put(all_ff + "tail", "3").ok());
  EXPECT_EQ(PrefixUpperBound(all_ff), "");
  auto tail = engine_->ScanPrefix(all_ff);
  ASSERT_EQ(tail.size(), 1u);
  EXPECT_EQ(tail[0].key, all_ff + "tail");
}

// ScanRange resumption: feeding `next_key` back as the next batch's
// start must walk the whole range exactly once, in order, regardless of
// batch size.
TEST_F(LsmEngineTest, ScanRangeResumesAcrossBatches) {
  for (int i = 0; i < 40; i++) {
    char buf[16];
    snprintf(buf, sizeof(buf), "r%03d", i);
    ASSERT_TRUE(engine_->Put(buf, "v" + std::to_string(i)).ok());
    if (i % 9 == 0) engine_->Flush();
  }
  ScanBuffer buf;
  std::vector<std::string> seen;
  std::string cursor = "r";
  for (int batches = 0; batches < 100; batches++) {
    buf.Clear();
    ScanResult r = engine_->ScanRange(cursor, "s", 7, buf);
    for (size_t i = 0; i < buf.size(); i++) seen.push_back(buf[i].key);
    if (r.done) break;
    ASSERT_FALSE(r.next_key.empty());
    cursor = r.next_key;
  }
  ASSERT_EQ(seen.size(), 40u);
  for (int i = 0; i < 40; i++) {
    char buf2[16];
    snprintf(buf2, sizeof(buf2), "r%03d", i);
    EXPECT_EQ(seen[static_cast<size_t>(i)], buf2);
  }
}

// Regression: a batch that fills its limit right before an older version
// of its last key (shadowed in another run) must not hand that key back
// as the resume point — the next batch would emit it a second time.
TEST_F(LsmEngineTest, ScanRangeResumeSkipsShadowedVersionsOfLastKey) {
  ASSERT_TRUE(engine_->Put("a", "old").ok());
  ASSERT_TRUE(engine_->Put("b", "v").ok());
  engine_->Flush();
  ASSERT_TRUE(engine_->Put("a", "new").ok());  // Memtable shadows the run.
  ScanBuffer buf;
  ScanResult r = engine_->ScanRange("a", "", 1, buf);
  ASSERT_EQ(buf.size(), 1u);
  EXPECT_EQ(buf[0].value, "new");
  ASSERT_FALSE(r.done);
  buf.Clear();
  r = engine_->ScanRange(r.next_key, "", 10, buf);
  ASSERT_EQ(buf.size(), 1u);
  EXPECT_EQ(buf[0].key, "b");
  EXPECT_TRUE(r.done);
}

// A range buried under arbitrarily many tombstones must still yield its
// visible keys in one call (the legacy Scan's per-source over-collect
// cap lost entries here).
TEST_F(LsmEngineTest, ScanRangeTombstoneHeavyStillFindsSurvivors) {
  for (int i = 0; i < 300; i++) {
    char buf[16];
    snprintf(buf, sizeof(buf), "t%04d", i);
    ASSERT_TRUE(engine_->Put(buf, "v").ok());
    if (i % 31 == 0) engine_->Flush();
  }
  // Delete everything except every 100th key: 297 tombstones in range.
  for (int i = 0; i < 300; i++) {
    if (i % 100 == 0) continue;
    char buf[16];
    snprintf(buf, sizeof(buf), "t%04d", i);
    ASSERT_TRUE(engine_->Delete(buf).ok());
  }
  auto rows = engine_->ScanPrefix("t", 10);
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0].key, "t0000");
  EXPECT_EQ(rows[1].key, "t0100");
  EXPECT_EQ(rows[2].key, "t0200");
}

// Property test: the engine must agree with an in-memory reference model
// under a randomized op stream, across flushes and compactions.
class LsmPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(LsmPropertyTest, MatchesReferenceModel) {
  SimClock clock;
  LsmOptions opts;
  opts.memtable_flush_bytes = 2048;
  opts.runs_per_level_trigger = 2;
  LsmEngine engine(opts, &clock);
  std::map<std::string, std::string> reference;
  Rng rng(GetParam());

  for (int step = 0; step < 2000; step++) {
    std::string key = "k" + std::to_string(rng.NextUint64(200));
    double action = rng.NextDouble();
    if (action < 0.5) {
      std::string value = "v" + std::to_string(rng.NextUint64(100000));
      ASSERT_TRUE(engine.Put(key, value).ok());
      reference[key] = value;
    } else if (action < 0.65) {
      ASSERT_TRUE(engine.Delete(key).ok());
      reference.erase(key);
    } else {
      auto got = engine.Get(key);
      auto ref = reference.find(key);
      if (ref == reference.end()) {
        EXPECT_TRUE(got.status().IsNotFound()) << key << " step " << step;
      } else {
        ASSERT_TRUE(got.ok()) << key << " step " << step;
        EXPECT_EQ(got.value(), ref->second);
      }
    }
    // Unflushed writes must survive (enable_wal defaults on).
    if (step % 500 == 499) engine.CrashAndRecover();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LsmPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5));

// ------------------------------------------------------------- DiskModel --

TEST(DiskModelTest, ChargesServiceTime) {
  DiskModel disk;
  Micros t = disk.ChargeRead(10);
  EXPECT_EQ(t, 10 * disk.options().read_service_micros);
  EXPECT_EQ(disk.total_reads(), 10u);
}

TEST(DiskModelTest, CongestionInflatesLatency) {
  DiskOptions opts;
  opts.read_iops_capacity = 1000;
  DiskModel disk(opts);
  Micros base = disk.ChargeRead(1);
  disk.ChargeRead(898);  // ~90% utilization.
  Micros loaded = disk.ChargeRead(1);
  EXPECT_GT(loaded, base);
}

TEST(DiskModelTest, WindowResetRestoresCapacity) {
  DiskOptions opts;
  opts.read_iops_capacity = 100;
  DiskModel disk(opts);
  disk.ChargeRead(100);
  EXPECT_FALSE(disk.CanRead(1));
  disk.ResetWindow();
  EXPECT_TRUE(disk.CanRead(100));
  EXPECT_EQ(disk.total_reads(), 100u);  // Totals persist.
}

TEST(DiskModelTest, ReadWriteIndependentBudgets) {
  DiskOptions opts;
  opts.read_iops_capacity = 10;
  opts.write_iops_capacity = 10;
  DiskModel disk(opts);
  disk.ChargeRead(10);
  EXPECT_FALSE(disk.CanRead(1));
  EXPECT_TRUE(disk.CanWrite(10));
}

// ------------------------------------------------------- Replication log --

TEST(ReplicationLogTest, AppendDeltaAndTruncate) {
  ReplicationLog log;
  for (uint64_t seq = 1; seq <= 5; seq++) {
    log.Append("k" + std::to_string(seq),
               ValueEntry::String("v" + std::to_string(seq), seq));
  }
  EXPECT_EQ(log.first_seq(), 1u);
  EXPECT_EQ(log.last_seq(), 5u);
  EXPECT_TRUE(log.Covers(0));

  auto delta = log.Delta(2, 4);  // (2, 4] -> seqs 3 and 4.
  ASSERT_EQ(delta.size(), 2u);
  EXPECT_EQ(delta[0]->seq(), 3u);
  EXPECT_EQ(delta[1]->seq(), 4u);

  log.TruncateThrough(3);
  EXPECT_EQ(log.first_seq(), 4u);
  EXPECT_EQ(log.last_seq(), 5u);
  EXPECT_FALSE(log.Covers(2));  // Seq 3 is gone; cursor 2 needs it.
  EXPECT_TRUE(log.Covers(3));   // Cursor 3 needs seq 4 onward: retained.
  EXPECT_EQ(log.Delta(3, 5).size(), 2u);

  // Truncating everything leaves a consistent empty log.
  log.TruncateThrough(5);
  EXPECT_EQ(log.record_count(), 0u);
  EXPECT_EQ(log.last_seq(), 5u);
  EXPECT_EQ(log.bytes(), 0u);
}

// A preload-sized burst leaves a large handle array behind; once the
// log's fullest point between truncations fills at most a quarter of
// it, truncation gives the excess back, and steady traffic then keeps
// one small array without reallocating.
TEST(ReplicationLogTest, TruncationReleasesBurstCapacity) {
  ReplicationLog log;
  uint64_t seq = 0;
  auto append = [&](int n) {
    for (int i = 0; i < n; i++) {
      seq++;
      log.Append(MakeReplRecord("key", ValueType::kString, seq, 0, "value"));
    }
  };
  append(4096);
  log.TruncateThrough(seq);
  const size_t burst = log.record_capacity();
  EXPECT_GE(burst, 4096u);  // Full at truncation: kept.
  append(3);
  log.TruncateThrough(seq - 1);  // One record retained.
  EXPECT_LT(log.record_capacity(), burst / 4);
  EXPECT_EQ(log.record_count(), 1u);
  EXPECT_EQ(log.first_seq(), seq);

  // Steady state, even with a volume that swings 10x between
  // truncations, settles on one array.
  append(100);
  log.TruncateThrough(seq);
  const size_t steady = log.record_capacity();
  for (int round = 0; round < 20; round++) {
    append(round % 2 == 0 ? 100 : 10);
    log.TruncateThrough(seq);
    EXPECT_EQ(log.record_capacity(), steady) << round;
  }
}

TEST(LsmEngineReplicationTest, ReplicaAppliesPrimaryStreamExactly) {
  SimClock clock(0);
  LsmEngine primary(ReplicatedOptions(), &clock);
  LsmEngine replica(ReplicatedOptions(), &clock);

  ASSERT_TRUE(primary.Put("a", "1").ok());
  ASSERT_TRUE(primary.Put("b", "2").ok());
  ASSERT_TRUE(primary.HSet("h", "f", "x").ok());
  ASSERT_TRUE(primary.Delete("a").ok());
  EXPECT_EQ(primary.applied_seq(), 4u);

  for (const ReplRecordPtr& rec :
       primary.repl_log().Delta(replica.applied_seq(),
                                primary.applied_seq())) {
    ASSERT_TRUE(replica.ApplyReplicated(rec).ok());
  }
  EXPECT_EQ(replica.applied_seq(), primary.applied_seq());
  EXPECT_TRUE(replica.Get("a").status().IsNotFound());  // Tombstone shipped.
  EXPECT_EQ(replica.Get("b").value(), "2");
  EXPECT_EQ(replica.HGet("h", "f").value(), "x");
  EXPECT_EQ(replica.stats().repl_applied, 4u);

  // Out-of-order application is refused (the shipper must resync).
  const ReplRecordPtr gap =
      MakeReplRecord("z", ValueEntry::String("v", primary.applied_seq() + 5));
  EXPECT_FALSE(replica.ApplyReplicated(gap).ok());
}

TEST(LsmEngineReplicationTest, ReplicaStreamSurvivesCrashRecovery) {
  SimClock clock(0);
  LsmEngine primary(ReplicatedOptions(), &clock);
  LsmEngine replica(ReplicatedOptions(), &clock);
  ASSERT_TRUE(primary.Put("k", "v").ok());
  for (const ReplRecordPtr& rec : primary.repl_log().Delta(0, 1)) {
    ASSERT_TRUE(replica.ApplyReplicated(rec).ok());
  }
  // Replicated records are unflushed writes of the replica: a crash
  // loses nothing and the stream cursor is preserved.
  replica.CrashAndRecover();
  EXPECT_EQ(replica.Get("k").value(), "v");
  EXPECT_EQ(replica.applied_seq(), 1u);
}

TEST(LsmEngineReplicationTest, ResyncFromClonesStateAndCursor) {
  SimClock clock(0);
  LsmOptions small = ReplicatedOptions();
  small.memtable_flush_bytes = 256;  // Force flushed runs into the clone.
  LsmEngine primary(small, &clock);
  LsmEngine replica(small, &clock);

  for (int i = 0; i < 50; i++) {
    ASSERT_TRUE(primary.Put("k" + std::to_string(i),
                            std::string(32, 'v')).ok());
  }
  // Diverge the replica, then resync: the snapshot wins wholesale.
  ASSERT_TRUE(replica.Put("divergent", "x").ok());
  replica.ResyncFrom(primary);
  EXPECT_EQ(replica.applied_seq(), primary.applied_seq());
  EXPECT_TRUE(replica.Get("divergent").status().IsNotFound());
  for (int i = 0; i < 50; i++) {
    EXPECT_TRUE(replica.Get("k" + std::to_string(i)).ok()) << i;
  }
  EXPECT_EQ(replica.stats().resyncs, 1u);

  // The clone keeps streaming: new primary writes apply as a delta.
  ASSERT_TRUE(primary.Put("after", "resync").ok());
  for (const ReplRecordPtr& rec :
       primary.repl_log().Delta(replica.applied_seq(),
                                primary.applied_seq())) {
    ASSERT_TRUE(replica.ApplyReplicated(rec).ok());
  }
  EXPECT_EQ(replica.Get("after").value(), "resync");
}

/// Ships every record the replica has not applied yet, as the Replicate
/// step does: the replica retains the primary's shared handles.
void Ship(const LsmEngine& primary, LsmEngine& replica) {
  primary.repl_log().ForEachDelta(
      replica.applied_seq(), primary.applied_seq(),
      [&replica](const ReplRecordPtr& rec) {
        EXPECT_TRUE(replica.ApplyReplicated(rec).ok());
        return true;
      });
}

/// MultiFind of one key: the newest visible record, or nullptr.
const ReplRecord* FindOne(LsmEngine& engine, std::string_view key,
                          ReadIo* io) {
  const ReplRecordPtr* rec = nullptr;
  engine.MultiFind(&key, 1, &rec, io);
  return rec != nullptr ? rec->get() : nullptr;
}

// One materialized copy per write version: the primary's memtable, the
// replica's memtable, and every run either engine flushes or compacts
// hold the very record the primary's WriteEntry built. A copy anywhere
// on that path shows up as a different entry address.
TEST(LsmEngineReplicationTest, ReplicaSharesPrimaryRecordsThroughCompaction) {
  SimClock clock(0);
  LsmOptions opts = ReplicatedOptions();
  opts.runs_per_level_trigger = 1;
  opts.max_levels = 3;
  LsmEngine primary(opts, &clock);
  LsmEngine replica(opts, &clock);

  ASSERT_TRUE(primary.Put("shared", "v").ok());
  // Holding the record keeps its address from being recycled, so an
  // equal address below really is this record.
  ReplRecordPtr rec;
  primary.repl_log().ForEachDelta(0, primary.applied_seq(),
                                  [&rec](const ReplRecordPtr& r) {
                                    rec = r;
                                    return true;
                                  });
  ASSERT_NE(rec, nullptr);
  Ship(primary, replica);

  ReadIo io;
  EXPECT_EQ(FindOne(primary, "shared", &io), rec.get());
  EXPECT_TRUE(io.memtable_hit);
  EXPECT_EQ(FindOne(replica, "shared", &io), rec.get());
  EXPECT_TRUE(io.memtable_hit);

  primary.Flush();
  replica.Flush();
  EXPECT_EQ(FindOne(primary, "shared", &io), rec.get());
  EXPECT_FALSE(io.memtable_hit);
  EXPECT_EQ(FindOne(replica, "shared", &io), rec.get());
  EXPECT_FALSE(io.memtable_hit);

  // Push the run through compactions down to the bottom level: every
  // merge output row must be its surviving input record.
  for (int i = 0; i < 8; i++) {
    ASSERT_TRUE(primary.Put("other" + std::to_string(i), "x").ok());
    Ship(primary, replica);
    primary.Flush();
    replica.Flush();
  }
  // Every second flush merges level 0 into level 1's single run, which
  // holds "shared" from the first merge on.
  ASSERT_GE(primary.stats().compaction_count, 4u);
  EXPECT_EQ(FindOne(primary, "shared", &io), rec.get());
  EXPECT_EQ(FindOne(replica, "shared", &io), rec.get());

  // Crash recovery keeps the memtable's shared records too.
  ASSERT_TRUE(primary.Put("late", "w").ok());
  Ship(primary, replica);
  const ReplRecord* late = FindOne(primary, "late", &io);
  ASSERT_NE(late, nullptr);
  replica.CrashAndRecover();
  EXPECT_EQ(FindOne(replica, "late", &io), late);
}

// Randomized differential test of the replicated write path: a primary
// engine and a replica fed by its stream (delta applies, occasionally a
// snapshot resync) must both equal a std::map shadow model after every
// step. A tiny memtable keeps flushes and compactions cycling down to
// the bottom level, where tombstones and expired versions are dropped;
// range scans interleaved with first-seen keys exercise the memtable's
// incrementally maintained key order.
class LsmReplicaDifferentialTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  struct Shadow {
    bool is_hash = false;
    std::string str;
    HashFields hash;
    Micros expire_at = 0;
  };

  /// Visible shadow version of `key` at `now`, or nullptr.
  const Shadow* Visible(const std::string& key, Micros now) const {
    auto it = model_.find(key);
    if (it == model_.end()) return nullptr;
    const Shadow& s = it->second;
    if (s.expire_at != 0 && now >= s.expire_at) return nullptr;
    return &s;
  }

  /// ScanEntry value serialization of a shadow version.
  static std::string ScanValue(const Shadow& s) {
    if (!s.is_hash) return s.str;
    std::string out;
    for (const auto& [f, v] : s.hash) out += f + "=" + v + "\n";
    return out;
  }

  /// Full resumable ScanRange walk over [start, end) in batches.
  static std::vector<std::pair<std::string, std::string>> ScanAll(
      LsmEngine& engine, const std::string& start, const std::string& end,
      size_t batch) {
    std::vector<std::pair<std::string, std::string>> out;
    ScanBuffer buf;
    std::string cursor = start;
    for (int guard = 0; guard < 10000; guard++) {
      buf.Clear();
      ScanResult r = engine.ScanRange(cursor, end, batch, buf);
      for (size_t i = 0; i < buf.size(); i++) {
        out.emplace_back(buf[i].key, buf[i].value);
      }
      if (r.done) break;
      cursor = r.next_key;
    }
    return out;
  }

  std::vector<std::pair<std::string, std::string>> ShadowRange(
      const std::string& start, const std::string& end, Micros now) const {
    std::vector<std::pair<std::string, std::string>> out;
    for (auto it = model_.lower_bound(start); it != model_.end(); ++it) {
      if (!end.empty() && it->first >= end) break;
      if (const Shadow* s = Visible(it->first, now)) {
        out.emplace_back(it->first, ScanValue(*s));
      }
    }
    return out;
  }

  void ExpectMatchesShadow(LsmEngine& engine, const char* who,
                           const std::vector<std::string>& keys,
                           Micros now, int step) {
    ASSERT_EQ(ScanAll(engine, "", "", 1 << 20), ShadowRange("", "", now))
        << who << " full scan, step " << step;
    std::vector<std::string_view> views(keys.begin(), keys.end());
    std::vector<const ReplRecordPtr*> found(keys.size());
    std::vector<ReadIo> ios(keys.size());
    engine.MultiFind(views.data(), views.size(), found.data(), ios.data());
    for (size_t i = 0; i < keys.size(); i++) {
      const Shadow* s = Visible(keys[i], now);
      const ReplRecord* e = found[i] != nullptr ? found[i]->get() : nullptr;
      ASSERT_EQ(e != nullptr, s != nullptr)
          << who << " MultiFind " << keys[i] << ", step " << step;
      if (e == nullptr) continue;
      EXPECT_EQ(e->type(), s->is_hash ? ValueType::kHash : ValueType::kString)
          << who << " " << keys[i] << ", step " << step;
      EXPECT_EQ(e->expire_at(), s->expire_at) << who << " " << keys[i];
      if (s->is_hash) {
        EXPECT_EQ(e->DecodeHash(), s->hash) << who << " " << keys[i];
      } else {
        EXPECT_EQ(e->str(), s->str) << who << " " << keys[i];
      }
    }
  }

  std::map<std::string, Shadow> model_;
};

TEST_P(LsmReplicaDifferentialTest, PrimaryAndReplicaMatchShadowModel) {
  SimClock clock(0);
  LsmOptions opts = ReplicatedOptions();
  opts.memtable_flush_bytes = 600;
  opts.runs_per_level_trigger = 2;
  opts.max_levels = 3;
  LsmEngine primary(opts, &clock);
  LsmEngine replica(opts, &clock);
  Rng rng(GetParam());

  std::vector<std::string> keys;  // Every key ever drawn, plus misses.
  for (int i = 0; i < 160; i++) {
    char buf[16];
    snprintf(buf, sizeof(buf), "k%03d", i);
    keys.emplace_back(buf);
  }
  auto ttl = [&rng]() -> Micros {
    return rng.NextBool(0.7) ? 0 : static_cast<Micros>(1 + rng.NextUint64(40));
  };

  for (int step = 0; step < 1500; step++) {
    clock.Advance(static_cast<Micros>(rng.NextUint64(3)));
    const Micros now = clock.NowMicros();
    // The drawn key range widens over the run, so first-seen keys keep
    // arriving between scans.
    const uint64_t span = std::min<uint64_t>(keys.size() - 10, 8 + step / 8);
    const std::string& key = keys[rng.NextUint64(span)];
    const double action = rng.NextDouble();
    if (action < 0.35) {
      const Micros t = ttl();
      std::string value = "v" + std::to_string(step) +
                          std::string(rng.NextUint64(24), 'x');
      ASSERT_TRUE(primary.Put(key, value, t).ok());
      model_[key] = Shadow{false, value, {}, t > 0 ? now + t : 0};
    } else if (action < 0.5) {
      ASSERT_TRUE(primary.Delete(key).ok());
      model_.erase(key);
    } else if (action < 0.65) {
      const std::string field = "f" + std::to_string(rng.NextUint64(4));
      const std::string value = "h" + std::to_string(step);
      ASSERT_TRUE(primary.HSet(key, field, value).ok());
      const Shadow* cur = Visible(key, now);
      Shadow next;
      next.is_hash = true;
      if (cur != nullptr && cur->is_hash) next = *cur;
      SetField(next.hash, field, value);
      model_[key] = next;
    } else if (action < 0.75) {
      const Micros t = ttl();
      const Status st = primary.Expire(key, t);
      auto it = model_.find(key);
      if (Visible(key, now) == nullptr) {
        EXPECT_TRUE(st.IsNotFound()) << key << ", step " << step;
      } else {
        ASSERT_TRUE(st.ok());
        it->second.expire_at = t > 0 ? now + t : 0;
      }
    } else if (action < 0.78) {
      (rng.NextBool(0.5) ? primary : replica).CrashAndRecover();
    } else {
      // Range scan with a random window and batch size, resumed until
      // done; both engines must return the shadow's visible range.
      std::string lo = keys[rng.NextUint64(keys.size())];
      std::string hi = rng.NextBool(0.2) ? std::string()
                                         : keys[rng.NextUint64(keys.size())];
      if (!hi.empty() && hi < lo) std::swap(lo, hi);
      const size_t batch = 1 + rng.NextUint64(12);
      const auto expected = ShadowRange(lo, hi, now);
      ASSERT_EQ(ScanAll(primary, lo, hi, batch), expected)
          << "primary [" << lo << ", " << hi << "), step " << step;
      ASSERT_EQ(ScanAll(replica, lo, hi, batch), expected)
          << "replica [" << lo << ", " << hi << "), step " << step;
    }

    // Ship the stream (or, rarely, re-seed the replica from a snapshot),
    // then truncate what the replica has applied.
    if (rng.NextBool(0.02)) {
      replica.ResyncFrom(primary);
    } else {
      Ship(primary, replica);
    }
    ASSERT_EQ(replica.applied_seq(), primary.applied_seq());
    primary.TruncateReplLogThrough(replica.applied_seq());
    replica.TruncateReplLogThrough(replica.applied_seq());

    ExpectMatchesShadow(primary, "primary", keys, now, step);
    ExpectMatchesShadow(replica, "replica", keys, now, step);
    if (HasFatalFailure()) return;
  }
  // The run must actually have cycled the LSM down to the bottom level.
  EXPECT_GT(primary.stats().flush_count, 20u);
  EXPECT_GT(primary.stats().compaction_count, 5u);
  EXPECT_GT(primary.stats().expired_dropped, 0u);
  EXPECT_GT(replica.stats().resyncs, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LsmReplicaDifferentialTest,
                         ::testing::Values(11, 12, 13, 14));

}  // namespace
}  // namespace storage
}  // namespace abase
