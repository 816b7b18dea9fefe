// Tests for the in-memory page source and the multi-source buffer pool:
// page geometry and the PageOf fence search, scans against a reference
// over disk-backed segments, LRU eviction across several sources,
// per-source sequential-vs-seek accounting, fence-only termination (no
// page I/O past the range), and Drop() of retired sources.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "storage/buffer_pool.h"
#include "storage/mem_source.h"
#include "storage/segment.h"

namespace onion::storage {
namespace {

std::unique_ptr<SegmentReader> MakeSegment(const std::string& name,
                                           const std::vector<Key>& keys,
                                           uint32_t entries_per_page) {
  const std::string path = ::testing::TempDir() + "/" + name;
  std::remove(path.c_str());
  SegmentWriter writer(path, entries_per_page);
  for (size_t i = 0; i < keys.size(); ++i) {
    EXPECT_TRUE(writer.Add(keys[i], i).ok());
  }
  EXPECT_TRUE(writer.Finish().ok());
  auto reader = SegmentReader::Open(path);
  EXPECT_TRUE(reader.ok()) << reader.status().ToString();
  return std::move(reader).value();
}

std::vector<Key> SequentialKeys(size_t n) {
  std::vector<Key> keys(n);
  for (size_t i = 0; i < n; ++i) keys[i] = i;
  return keys;
}

MemPageSource MakeMemSource(const std::vector<Key>& keys,
                            uint32_t entries_per_page) {
  std::vector<Entry> entries;
  entries.reserve(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) entries.push_back({keys[i], i});
  return MemPageSource(std::move(entries), entries_per_page);
}

TEST(MemPageSourceTest, PageGeometry) {
  const MemPageSource source = MakeMemSource({1, 2, 3, 4, 5, 6, 7}, 3);
  EXPECT_EQ(source.num_entries(), 7u);
  EXPECT_EQ(source.num_pages(), 3u);
  EXPECT_EQ(source.PageBegin(1), 3u);
  EXPECT_EQ(source.PageEnd(1), 6u);
  EXPECT_EQ(source.PageEnd(2), 7u);  // last page partially filled
  EXPECT_EQ(source.first_key(2), 7u);
  EXPECT_EQ(source.last_key(2), 7u);
}

TEST(MemPageSourceTest, PageOfFenceSearch) {
  // Pages: [10, 20, 30] [40, 50, 60] [70].
  const MemPageSource source =
      MakeMemSource({10, 20, 30, 40, 50, 60, 70}, 3);
  EXPECT_EQ(source.PageOf(5), 0u);  // before everything
  EXPECT_EQ(source.PageOf(10), 0u);
  EXPECT_EQ(source.PageOf(30), 0u);  // last entry of page 0
  EXPECT_EQ(source.PageOf(35), 1u);  // first entry >= 35 is 40, on page 1
  EXPECT_EQ(source.PageOf(40), 1u);
  EXPECT_EQ(source.PageOf(69), 2u);  // first entry >= 69 is 70
  EXPECT_EQ(source.PageOf(70), 2u);
  EXPECT_EQ(source.PageOf(1000), 3u);  // nothing qualifies
}

TEST(MemPageSourceTest, DuplicateKeysAcrossPages) {
  // Pages: [5, 5] [5, 5] [5, 8]. PageOf(5) must be the FIRST page whose
  // span can contain key 5.
  const MemPageSource source = MakeMemSource({5, 5, 5, 5, 5, 8}, 2);
  EXPECT_EQ(source.PageOf(5), 0u);
  EXPECT_EQ(source.PageOf(6), 2u);
  EXPECT_EQ(source.PageOf(8), 2u);
}

TEST(MemPageSourceTest, EmptySourceScansNothing) {
  const MemPageSource source = MakeMemSource({}, 4);
  EXPECT_EQ(source.num_pages(), 0u);
  EXPECT_EQ(source.PageOf(0), 0u);
  BufferPool pool(2);
  uint64_t visited = 0;
  pool.ScanRange(source, 0, 100, [&](Key, uint64_t) { ++visited; });
  EXPECT_EQ(visited, 0u);
  EXPECT_EQ(pool.stats().page_reads, 0u);
  EXPECT_EQ(pool.stats().seeks, 0u);
}

TEST(MemPageSourceTest, DisjointRangesCountOneSeekEach) {
  const MemPageSource source = MakeMemSource(SequentialKeys(100), 10);
  BufferPool pool(100);
  pool.ScanRange(source, 0, 9, [](Key, uint64_t) {});    // page 0
  pool.ScanRange(source, 50, 59, [](Key, uint64_t) {});  // page 5
  pool.ScanRange(source, 90, 99, [](Key, uint64_t) {});  // page 9
  EXPECT_EQ(pool.stats().page_reads, 3u);
  EXPECT_EQ(pool.stats().seeks, 3u);
  EXPECT_EQ(pool.stats().entries_read, 30u);
}

TEST(StoragePoolTest, DiskScanMatchesReference) {
  Rng rng(5);
  std::vector<Key> keys;
  for (int i = 0; i < 600; ++i) keys.push_back(rng.UniformInclusive(1999));
  std::sort(keys.begin(), keys.end());
  auto segment = MakeSegment("pool_ref.sfc", keys, 16);
  BufferPool pool(8);
  for (int trial = 0; trial < 50; ++trial) {
    const Key lo = rng.UniformInclusive(1999);
    const Key hi = lo + rng.UniformInclusive(300);
    std::vector<Key> expected;
    for (const Key key : keys) {
      if (key >= lo && key <= hi) expected.push_back(key);
    }
    std::vector<Key> actual;
    pool.ScanRange(*segment, lo, hi,
                   [&](Key key, uint64_t) { actual.push_back(key); });
    ASSERT_EQ(actual, expected) << "[" << lo << ", " << hi << "]";
  }
}

TEST(StoragePoolTest, CachesAcrossMultipleSources) {
  auto seg_a = MakeSegment("pool_a.sfc", SequentialKeys(40), 10);
  auto seg_b = MakeSegment("pool_b.sfc", SequentialKeys(40), 10);
  BufferPool pool(16);  // both segments fit
  pool.ScanRange(*seg_a, 0, 39, [](Key, uint64_t) {});
  pool.ScanRange(*seg_b, 0, 39, [](Key, uint64_t) {});
  EXPECT_EQ(pool.stats().page_reads, 8u);
  pool.ScanRange(*seg_a, 0, 39, [](Key, uint64_t) {});
  pool.ScanRange(*seg_b, 0, 39, [](Key, uint64_t) {});
  EXPECT_EQ(pool.stats().page_reads, 8u);  // all hits the second time
  EXPECT_EQ(pool.stats().cache_hits, 8u);
  EXPECT_EQ(pool.resident_pages(), 8u);
}

TEST(StoragePoolTest, LruEvictsAcrossSourcesUnderPressure) {
  auto seg_a = MakeSegment("pool_ev_a.sfc", SequentialKeys(40), 10);
  auto seg_b = MakeSegment("pool_ev_b.sfc", SequentialKeys(40), 10);
  BufferPool pool(3);  // 3 of the 8 total pages fit
  pool.ScanRange(*seg_a, 0, 39, [](Key, uint64_t) {});
  pool.ScanRange(*seg_b, 0, 39, [](Key, uint64_t) {});
  EXPECT_EQ(pool.resident_pages(), 3u);
  // A second full sweep misses everywhere again.
  pool.ScanRange(*seg_a, 0, 39, [](Key, uint64_t) {});
  pool.ScanRange(*seg_b, 0, 39, [](Key, uint64_t) {});
  EXPECT_EQ(pool.stats().page_reads, 16u);
  EXPECT_EQ(pool.stats().cache_hits, 0u);
}

TEST(StoragePoolTest, SwitchingSourcesCostsASeek) {
  auto seg_a = MakeSegment("pool_seek_a.sfc", SequentialKeys(40), 10);
  auto seg_b = MakeSegment("pool_seek_b.sfc", SequentialKeys(40), 10);
  BufferPool pool(16);
  pool.ScanRange(*seg_a, 0, 39, [](Key, uint64_t) {});  // 4 seq reads: 1 seek
  EXPECT_EQ(pool.stats().seeks, 1u);
  pool.ScanRange(*seg_b, 0, 39, [](Key, uint64_t) {});  // switch: +1 seek
  EXPECT_EQ(pool.stats().seeks, 2u);
  // Interleaving page-by-page seeks every time: pages alternate sources.
  pool.ResetStats();
  BufferPool cold(16);
  for (uint64_t page = 0; page < 4; ++page) {
    cold.Fetch(*seg_a, page);
    cold.Fetch(*seg_b, page);
  }
  EXPECT_EQ(cold.stats().page_reads, 8u);
  EXPECT_EQ(cold.stats().seeks, 8u);
}

TEST(StoragePoolTest, FenceIndexStopsScanWithoutExtraPageIo) {
  // Pages of 10: the range [0, 9] is exactly page 0; the fence of page 1
  // must terminate the scan without fetching page 1.
  auto segment = MakeSegment("pool_fence.sfc", SequentialKeys(100), 10);
  BufferPool pool(16);
  pool.ScanRange(*segment, 0, 9, [](Key, uint64_t) {});
  EXPECT_EQ(pool.stats().page_reads, 1u);
  EXPECT_EQ(pool.stats().entries_read, 10u);
  // Range starting past the last key reads nothing at all.
  pool.ResetStats();
  pool.ScanRange(*segment, 200, 300, [](Key, uint64_t) {});
  EXPECT_EQ(pool.stats().page_reads, 0u);
  EXPECT_EQ(pool.stats().entries_read, 0u);
}

TEST(StoragePoolTest, DropRemovesOnlyThatSource) {
  auto seg_a = MakeSegment("pool_drop_a.sfc", SequentialKeys(40), 10);
  auto seg_b = MakeSegment("pool_drop_b.sfc", SequentialKeys(40), 10);
  BufferPool pool(16);
  pool.ScanRange(*seg_a, 0, 39, [](Key, uint64_t) {});
  pool.ScanRange(*seg_b, 0, 39, [](Key, uint64_t) {});
  EXPECT_EQ(pool.resident_pages(), 8u);
  pool.Drop(seg_a.get());
  EXPECT_EQ(pool.resident_pages(), 4u);
  pool.ResetStats();
  pool.ScanRange(*seg_b, 0, 39, [](Key, uint64_t) {});  // still cached
  EXPECT_EQ(pool.stats().cache_hits, 4u);
  EXPECT_EQ(pool.stats().page_reads, 0u);
}

TEST(StoragePoolTest, MemAndDiskSourcesAreInterchangeable) {
  Rng rng(21);
  std::vector<Key> keys;
  for (int i = 0; i < 200; ++i) keys.push_back(rng.UniformInclusive(499));
  std::sort(keys.begin(), keys.end());
  std::vector<Entry> entries;
  for (size_t i = 0; i < keys.size(); ++i) entries.push_back({keys[i], i});
  const MemPageSource mem(entries, 16);
  auto disk = MakeSegment("pool_mixed.sfc", keys, 16);
  BufferPool mem_pool(8);
  BufferPool disk_pool(8);
  for (int trial = 0; trial < 30; ++trial) {
    const Key lo = rng.UniformInclusive(499);
    const Key hi = lo + rng.UniformInclusive(120);
    std::vector<Key> from_mem;
    std::vector<Key> from_disk;
    mem_pool.ScanRange(mem, lo, hi,
                       [&](Key key, uint64_t) { from_mem.push_back(key); });
    disk_pool.ScanRange(*disk, lo, hi,
                        [&](Key key, uint64_t) { from_disk.push_back(key); });
    ASSERT_EQ(from_mem, from_disk);
  }
  // Identical geometry implies identical physical accounting.
  EXPECT_EQ(mem_pool.stats().page_reads, disk_pool.stats().page_reads);
  EXPECT_EQ(mem_pool.stats().seeks, disk_pool.stats().seeks);
  EXPECT_EQ(mem_pool.stats().cache_hits, disk_pool.stats().cache_hits);
}

TEST(StoragePoolTest, ReadaheadBatchesASequentialScan) {
  // 8 pages, readahead budget 4: a cold sequential sweep costs two
  // physical transfers (pages 0-4, then 5-7) instead of eight.
  auto segment = MakeSegment("pool_ra.sfc", SequentialKeys(80), 10);
  BufferPool pool(16, /*readahead_pages=*/4);
  pool.ScanRange(*segment, 0, 79, [](Key, uint64_t) {});
  const IoStats stats = pool.stats();
  EXPECT_EQ(stats.page_reads, 8u);
  EXPECT_EQ(stats.readahead_batched_reads, 2u);
  EXPECT_EQ(stats.readahead_pages, 6u);
  EXPECT_EQ(stats.readahead_hits, 6u);  // every prefetched page was used
  EXPECT_EQ(stats.cache_hits, 6u);
  // The second transfer starts right after the first ends: one seek total.
  EXPECT_EQ(stats.seeks, 1u);
  EXPECT_EQ(stats.readahead_wasted, 0u);
}

TEST(StoragePoolTest, ReadaheadScanMatchesReference) {
  Rng rng(31);
  std::vector<Key> keys;
  for (int i = 0; i < 600; ++i) keys.push_back(rng.UniformInclusive(1999));
  std::sort(keys.begin(), keys.end());
  auto segment = MakeSegment("pool_ra_ref.sfc", keys, 16);
  BufferPool plain(8);
  BufferPool batched(8, /*readahead_pages=*/4);
  for (int trial = 0; trial < 50; ++trial) {
    const Key lo = rng.UniformInclusive(1999);
    const Key hi = lo + rng.UniformInclusive(300);
    std::vector<Key> expected;
    std::vector<Key> actual;
    plain.ScanRange(*segment, lo, hi,
                    [&](Key key, uint64_t) { expected.push_back(key); });
    batched.ScanRange(*segment, lo, hi,
                      [&](Key key, uint64_t) { actual.push_back(key); });
    ASSERT_EQ(actual, expected) << "[" << lo << ", " << hi << "]";
  }
  // Readahead changes how pages arrive, never how many entries do.
  EXPECT_EQ(batched.stats().entries_read, plain.stats().entries_read);
}

TEST(StoragePoolTest, ReadaheadStopsAtResidentPages) {
  auto segment = MakeSegment("pool_ra_stop.sfc", SequentialKeys(80), 10);
  BufferPool pool(16, /*readahead_pages=*/4);
  pool.Fetch(*segment, 4);  // resident: 4..7 (readahead stops at the end)
  EXPECT_EQ(pool.stats().page_reads, 4u);
  pool.Fetch(*segment, 3);  // the run must stop before resident page 4
  EXPECT_EQ(pool.stats().page_reads, 5u);
  EXPECT_EQ(pool.stats().readahead_batched_reads, 1u);
}

TEST(StoragePoolTest, ReadaheadCountsWaste) {
  auto segment = MakeSegment("pool_ra_waste.sfc", SequentialKeys(80), 10);
  // Drop of never-touched prefetched pages is counted.
  BufferPool pool(16, /*readahead_pages=*/4);
  pool.Fetch(*segment, 0);  // prefetches pages 1..4
  pool.Drop(segment.get());
  EXPECT_EQ(pool.stats().readahead_wasted, 4u);
  // Eviction of never-touched prefetched pages is counted too.
  BufferPool tight(3, /*readahead_pages=*/2);
  tight.Fetch(*segment, 0);  // resident: 0,1,2 (1 and 2 prefetched)
  tight.Fetch(*segment, 5);  // resident: 5,6,7 — evicts 0,1,2
  EXPECT_EQ(tight.stats().readahead_wasted, 2u);
  EXPECT_EQ(tight.evictions(), 3u);
}

// A memory source whose zone maps exclude a fixed page set — what a
// segment's per-page cell bounding boxes do, reduced to its essence.
class ZonedMemSource final : public MemPageSource {
 public:
  ZonedMemSource(std::vector<Entry> entries, uint32_t entries_per_page,
                 std::vector<uint64_t> excluded)
      : MemPageSource(std::move(entries), entries_per_page),
        excluded_(std::move(excluded)) {}

  bool PageMayIntersect(uint64_t page, const Box&) const override {
    return std::find(excluded_.begin(), excluded_.end(), page) ==
           excluded_.end();
  }

 private:
  std::vector<uint64_t> excluded_;
};

TEST(StoragePoolTest, ReadaheadNeverPrefetchesZoneExcludedPages) {
  std::vector<Entry> entries;
  for (uint64_t i = 0; i < 80; ++i) entries.push_back({i, i});
  const ZonedMemSource source(entries, 10, /*excluded=*/{2});
  const Box box(Cell(0, 0), Cell(7, 7));
  BufferPool pool(16, /*readahead_pages=*/4);
  Status status;
  // The run from page 0 must stop at excluded page 2: pages 0 and 1 only.
  pool.Fetch(source, 0, nullptr, &status, &box);
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(pool.stats().page_reads, 2u);
  EXPECT_EQ(pool.resident_pages(), 2u);
  // Without a box the zone map cannot apply and the full run is read.
  BufferPool unfiltered(16, /*readahead_pages=*/4);
  unfiltered.Fetch(source, 0, nullptr, &status);
  EXPECT_EQ(unfiltered.stats().page_reads, 5u);
}

}  // namespace
}  // namespace onion::storage
