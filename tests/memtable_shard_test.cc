// Tests for the sharded, arena-backed memtable: scan/flush equivalence
// with a single-vector reference, shard sizes on either side of a block
// seal (the insert that fills a block sorts it), per-key sequence-order
// preservation through FlushTo, and — the reason the file exists —
// concurrent inserts and scans exercising the per-shard locking under
// TSan.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "storage/memtable.h"
#include "storage/segment.h"

namespace onion::storage {
namespace {

bool ByKeyThenSeq(const Entry& a, const Entry& b) {
  return a.key != b.key ? a.key < b.key : a.seq < b.seq;
}

/// Every entry of `reference` with lo <= key <= hi, sorted by (key, seq).
std::vector<Entry> ExpectedInRange(const std::vector<Entry>& reference, Key lo,
                                   Key hi) {
  std::vector<Entry> expected;
  for (const Entry& entry : reference) {
    if (entry.key >= lo && entry.key <= hi) expected.push_back(entry);
  }
  std::sort(expected.begin(), expected.end(), ByKeyThenSeq);
  return expected;
}

/// ScanRange's hits in delivery order.
std::vector<Entry> Scan(const MemTable& table, Key lo, Key hi) {
  std::vector<Entry> hits;
  table.ScanRange(lo, hi, [&](const Entry& entry) { hits.push_back(entry); });
  return hits;
}

/// Flushes `table` into a fresh segment and reads every entry back in
/// file order.
std::vector<Entry> FlushAndReadBack(const MemTable& table,
                                    const std::string& name) {
  const std::string path = ::testing::TempDir() + "/" + name + ".sfc";
  std::remove(path.c_str());
  SegmentWriter writer(path, 4);
  EXPECT_TRUE(table.FlushTo(&writer).ok());
  EXPECT_TRUE(writer.Finish().ok());
  auto opened = SegmentReader::Open(path);
  EXPECT_TRUE(opened.ok()) << opened.status().ToString();
  std::vector<Entry> flushed;
  if (!opened.ok()) return flushed;
  const auto reader = std::move(opened).value();
  for (uint64_t page = 0; page < reader->num_pages(); ++page) {
    std::vector<Entry> entries;
    EXPECT_TRUE(reader->ReadPage(page, &entries).ok());
    flushed.insert(flushed.end(), entries.begin(), entries.end());
  }
  return flushed;
}

TEST(MemTableShardTest, ScanMatchesReferenceAcrossShardBoundaries) {
  Rng rng(7);
  constexpr Key kSpan = 4096;  // shard width 512
  MemTable table(kSpan);
  std::vector<Entry> reference;
  for (uint64_t i = 0; i < 3000; ++i) {
    const Key key = rng.UniformInclusive(kSpan - 1);
    table.Insert(key, i, PackSeq(i + 1, false));
    reference.push_back({key, i, PackSeq(i + 1, false)});
  }
  EXPECT_EQ(table.size(), 3000u);
  EXPECT_EQ(table.max_sequence(), 3000u);
  for (int trial = 0; trial < 60; ++trial) {
    const Key lo = rng.UniformInclusive(kSpan - 1);
    const Key hi = lo + rng.UniformInclusive(700);
    // ScanRange orders hits only within a sealed block; compare the two
    // as multisets.
    std::vector<Entry> actual = Scan(table, lo, hi);
    std::sort(actual.begin(), actual.end(), ByKeyThenSeq);
    ASSERT_EQ(actual, ExpectedInRange(reference, lo, hi))
        << "[" << lo << ", " << hi << "]";
  }
}

// One shard filled to either side of a block seal and over several
// blocks. Keys repeat (32 distinct keys), so same-key entries straddle
// seals. Every scan must return the reference multiset, and the flush
// must emit key order with each key's entries in sequence order.
TEST(MemTableShardTest, ShardSizesAroundBlockSealsScanAndFlushExactly) {
  constexpr size_t kBlock = MemTable::kBlockEntries;
  constexpr Key kSpan = 8 * 64;  // shard width 64: keys < 32 stay in shard 0
  for (const size_t count :
       {kBlock - 1, kBlock, kBlock + 1, 3 * kBlock, 4 * kBlock + 77}) {
    SCOPED_TRACE(count);
    Rng rng(count);
    MemTable table(kSpan);
    std::vector<Entry> reference;
    for (uint64_t i = 0; i < count; ++i) {
      const Entry entry{rng.UniformInclusive(31), i,
                        PackSeq(i + 1, i % 7 == 0)};
      table.Insert(entry.key, entry.payload, entry.seq);
      reference.push_back(entry);
    }
    ASSERT_EQ(table.size(), count);
    for (const auto& [lo, hi] : std::vector<std::pair<Key, Key>>{
             {0, 31}, {0, 0}, {31, 31}, {5, 5}, {7, 19}, {32, 63}, {0, 1000}}) {
      std::vector<Entry> actual = Scan(table, lo, hi);
      std::sort(actual.begin(), actual.end(), ByKeyThenSeq);
      ASSERT_EQ(actual, ExpectedInRange(reference, lo, hi))
          << "[" << lo << ", " << hi << "]";
    }
    ASSERT_EQ(FlushAndReadBack(table, "memtable_seal_" + std::to_string(count)),
              ExpectedInRange(reference, 0, ~Key{0}));
  }
}

// A shard of exactly one sealed block: ScanRange delivers its hits in
// (key, sequence) order, the one order it promises.
TEST(MemTableShardTest, SealedBlockHitsArriveInKeyThenSequenceOrder) {
  MemTable table(/*key_span=*/8 * 1024);
  Rng rng(5);
  for (uint64_t i = 0; i < MemTable::kBlockEntries; ++i) {
    table.Insert(rng.UniformInclusive(99), i, PackSeq(i + 1, false));
  }
  const std::vector<Entry> hits = Scan(table, 10, 80);
  ASSERT_FALSE(hits.empty());
  EXPECT_TRUE(std::is_sorted(hits.begin(), hits.end(), ByKeyThenSeq));
}

// One key written across a seal (its entries are the last of block 0 and
// the first of block 1) and again in later blocks and the tail.
TEST(MemTableShardTest, OneKeyAcrossSealsAndBlocksKeepsEveryVersion) {
  constexpr size_t kBlock = MemTable::kBlockEntries;
  constexpr Key kKey = 17;
  MemTable table(/*key_span=*/8 * 64);
  std::vector<Entry> reference;
  Rng rng(11);
  const size_t total = 3 * kBlock + 40;
  for (uint64_t i = 0; i < total; ++i) {
    const bool at_seal = i == kBlock - 1 || i == kBlock;
    const Key key = at_seal || i % 97 == 3 ? kKey : rng.UniformInclusive(63);
    const Entry entry{key, i, PackSeq(i + 1, i % 5 == 0)};
    table.Insert(entry.key, entry.payload, entry.seq);
    reference.push_back(entry);
  }
  const std::vector<Entry> expected = ExpectedInRange(reference, kKey, kKey);
  ASSERT_GE(expected.size(), 6u);
  std::vector<Entry> actual = Scan(table, kKey, kKey);
  std::sort(actual.begin(), actual.end(), ByKeyThenSeq);
  EXPECT_EQ(actual, expected);

  const std::vector<Entry> flushed = FlushAndReadBack(table, "memtable_one_key");
  ASSERT_EQ(flushed, ExpectedInRange(reference, 0, ~Key{0}));
  std::vector<Entry> flushed_key;
  for (const Entry& entry : flushed) {
    if (entry.key == kKey) flushed_key.push_back(entry);
  }
  EXPECT_EQ(flushed_key, expected);  // sequence order, every version
}

TEST(MemTableShardTest, KeysAtOrPastSpanLandInTheLastShard) {
  MemTable table(/*key_span=*/100);
  table.Insert(99, 1, PackSeq(1, false));
  table.Insert(100, 2, PackSeq(2, false));   // at span
  table.Insert(~Key{0}, 3, PackSeq(3, false));  // far past span
  size_t seen = 0;
  table.ScanRange(0, ~Key{0}, [&](const Entry&) { ++seen; });
  EXPECT_EQ(seen, 3u);
  MemTable whole;  // span 0: the full 64-bit key space
  whole.Insert(~Key{0}, 1, PackSeq(1, false));
  whole.Insert(0, 2, PackSeq(2, false));
  seen = 0;
  whole.ScanRange(~Key{0}, ~Key{0}, [&](const Entry&) { ++seen; });
  EXPECT_EQ(seen, 1u);
}

TEST(MemTableShardTest, FlushKeepsPerKeySequenceOrder) {
  MemTable table(/*key_span=*/256);
  // Same-key updates across several shards, interleaved with other keys.
  uint64_t seq = 0;
  for (int round = 0; round < 5; ++round) {
    for (Key key : {Key{3}, Key{200}, Key{3}, Key{77}, Key{255}}) {
      ++seq;
      table.Insert(key, seq * 10, PackSeq(seq, round % 2 == 1));
    }
  }
  const std::vector<Entry> flushed = FlushAndReadBack(table, "memtable_flush");
  ASSERT_EQ(flushed.size(), table.size());
  for (size_t i = 1; i < flushed.size(); ++i) {
    ASSERT_LE(flushed[i - 1].key, flushed[i].key);
    if (flushed[i - 1].key == flushed[i].key) {
      // Same key: sequence order must survive the flush sort.
      ASSERT_LT(SequenceOf(flushed[i - 1].seq), SequenceOf(flushed[i].seq));
    }
  }
}

TEST(MemTableShardTest, ContainsSequenceSearchesEveryShard) {
  MemTable table(/*key_span=*/800);
  for (uint64_t i = 0; i < 64; ++i) {
    table.Insert(i * 12, i, PackSeq(100 + i, false));
  }
  EXPECT_TRUE(table.ContainsSequence(100));
  EXPECT_TRUE(table.ContainsSequence(163));
  EXPECT_FALSE(table.ContainsSequence(99));
  EXPECT_FALSE(table.ContainsSequence(164));
}

TEST(MemTableShardTest, MoveTransfersEntriesAndEmptiesSource) {
  MemTable table(/*key_span=*/64);
  for (uint64_t i = 0; i < 10; ++i) table.Insert(i, i, PackSeq(i + 1, false));
  MemTable moved = std::move(table);
  EXPECT_EQ(moved.size(), 10u);
  EXPECT_EQ(moved.max_sequence(), 10u);
  table = MemTable(/*key_span=*/64);
  EXPECT_TRUE(table.empty());
  size_t seen = 0;
  moved.ScanRange(0, 63, [&](const Entry&) { ++seen; });
  EXPECT_EQ(seen, 10u);
}

// The concurrency contract: inserts from many threads, scans racing them.
// Run under TSan (the storage sanitizer CI jobs include this binary) this
// proves the per-shard locking, the atomic counters, and the in-place
// block sort together: each shard receives about 2k entries, so every
// shard seals several blocks while scans run.
TEST(MemTableShardTest, ConcurrentInsertsAndScansAreSafe) {
  constexpr int kWriters = 4;
  constexpr uint64_t kPerWriter = 4096;
  constexpr Key kSpan = 1 << 14;
  MemTable table(kSpan);
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  threads.reserve(kWriters + 2);
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&table, w] {
      Rng rng(1000 + w);
      for (uint64_t i = 0; i < kPerWriter; ++i) {
        const uint64_t seq = w * kPerWriter + i + 1;
        table.Insert(rng.UniformInclusive(kSpan - 1), seq,
                     PackSeq(seq, false));
      }
    });
  }
  for (int r = 0; r < 2; ++r) {
    threads.emplace_back([&table, &stop, r] {
      Rng rng(2000 + r);
      while (!stop.load(std::memory_order_acquire)) {
        const Key lo = rng.UniformInclusive(kSpan - 1);
        const Key hi = lo + rng.UniformInclusive(kSpan / 4);
        uint64_t last_size = table.size();
        uint64_t seen = 0;
        table.ScanRange(lo, hi, [&](const Entry& entry) {
          ++seen;
          // Entries are fully written before becoming visible, and a
          // sealed block's search never strays out of [lo, hi].
          ASSERT_EQ(entry.payload, SequenceOf(entry.seq));
          ASSERT_GE(entry.key, lo);
          ASSERT_LE(entry.key, hi);
        });
        ASSERT_LE(seen, table.size());
        ASSERT_GE(table.size(), last_size);
      }
    });
  }
  for (int w = 0; w < kWriters; ++w) threads[w].join();
  stop.store(true, std::memory_order_release);
  for (size_t t = kWriters; t < threads.size(); ++t) threads[t].join();
  EXPECT_EQ(table.size(), kWriters * kPerWriter);
  EXPECT_EQ(table.max_sequence(), kWriters * kPerWriter);
  uint64_t total = 0;
  table.ScanRange(0, ~Key{0}, [&](const Entry&) { ++total; });
  EXPECT_EQ(total, kWriters * kPerWriter);
}

}  // namespace
}  // namespace onion::storage
