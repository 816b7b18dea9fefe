// Tests for the in-memory page source and the multi-source buffer pool:
// page geometry and the PageOf fence search, scans against a reference
// over disk-backed segments, LRU eviction across several sources,
// per-source sequential-vs-seek accounting, fence-only termination (no
// page I/O past the range), Drop() of retired sources, and a corrupt page
// coming back as a Status instead of ending the process.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "pool_scan.h"
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
  ASSERT_TRUE(
      PoolScan(&pool, source, 0, 100, [&](Key, uint64_t) { ++visited; }).ok());
  EXPECT_EQ(visited, 0u);
  EXPECT_EQ(pool.stats().page_reads, 0u);
  EXPECT_EQ(pool.stats().seeks, 0u);
}

TEST(MemPageSourceTest, DisjointRangesCountOneSeekEach) {
  const MemPageSource source = MakeMemSource(SequentialKeys(100), 10);
  BufferPool pool(100);
  ASSERT_TRUE(PoolScan(&pool, source, 0, 9).ok());    // page 0
  ASSERT_TRUE(PoolScan(&pool, source, 50, 59).ok());  // page 5
  ASSERT_TRUE(PoolScan(&pool, source, 90, 99).ok());  // page 9
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
    ASSERT_TRUE(PoolScan(&pool, *segment, lo, hi, [&](Key key, uint64_t) {
                  actual.push_back(key);
                }).ok());
    ASSERT_EQ(actual, expected) << "[" << lo << ", " << hi << "]";
  }
}

TEST(StoragePoolTest, CachesAcrossMultipleSources) {
  auto seg_a = MakeSegment("pool_a.sfc", SequentialKeys(40), 10);
  auto seg_b = MakeSegment("pool_b.sfc", SequentialKeys(40), 10);
  BufferPool pool(16);  // both segments fit
  ASSERT_TRUE(PoolScan(&pool, *seg_a, 0, 39).ok());
  ASSERT_TRUE(PoolScan(&pool, *seg_b, 0, 39).ok());
  EXPECT_EQ(pool.stats().page_reads, 8u);
  ASSERT_TRUE(PoolScan(&pool, *seg_a, 0, 39).ok());
  ASSERT_TRUE(PoolScan(&pool, *seg_b, 0, 39).ok());
  EXPECT_EQ(pool.stats().page_reads, 8u);  // all hits the second time
  EXPECT_EQ(pool.stats().cache_hits, 8u);
  EXPECT_EQ(pool.resident_pages(), 8u);
}

TEST(StoragePoolTest, LruEvictsAcrossSourcesUnderPressure) {
  auto seg_a = MakeSegment("pool_ev_a.sfc", SequentialKeys(40), 10);
  auto seg_b = MakeSegment("pool_ev_b.sfc", SequentialKeys(40), 10);
  BufferPool pool(3);  // 3 of the 8 total pages fit
  ASSERT_TRUE(PoolScan(&pool, *seg_a, 0, 39).ok());
  ASSERT_TRUE(PoolScan(&pool, *seg_b, 0, 39).ok());
  EXPECT_EQ(pool.resident_pages(), 3u);
  // A second full sweep misses everywhere again.
  ASSERT_TRUE(PoolScan(&pool, *seg_a, 0, 39).ok());
  ASSERT_TRUE(PoolScan(&pool, *seg_b, 0, 39).ok());
  EXPECT_EQ(pool.stats().page_reads, 16u);
  EXPECT_EQ(pool.stats().cache_hits, 0u);
}

TEST(StoragePoolTest, SwitchingSourcesCostsASeek) {
  auto seg_a = MakeSegment("pool_seek_a.sfc", SequentialKeys(40), 10);
  auto seg_b = MakeSegment("pool_seek_b.sfc", SequentialKeys(40), 10);
  BufferPool pool(16);
  ASSERT_TRUE(PoolScan(&pool, *seg_a, 0, 39).ok());  // 4 seq reads: 1 seek
  EXPECT_EQ(pool.stats().seeks, 1u);
  ASSERT_TRUE(PoolScan(&pool, *seg_b, 0, 39).ok());  // switch: +1 seek
  EXPECT_EQ(pool.stats().seeks, 2u);
  // Interleaving page-by-page seeks every time: pages alternate sources.
  pool.ResetStats();
  BufferPool cold(16);
  Status status;
  for (uint64_t page = 0; page < 4; ++page) {
    ASSERT_NE(cold.Fetch(*seg_a, page, &status), nullptr);
    ASSERT_NE(cold.Fetch(*seg_b, page, &status), nullptr);
  }
  EXPECT_EQ(cold.stats().page_reads, 8u);
  EXPECT_EQ(cold.stats().seeks, 8u);
}

TEST(StoragePoolTest, FenceIndexStopsScanWithoutExtraPageIo) {
  // Pages of 10: the range [0, 9] is exactly page 0; the fence of page 1
  // must terminate the scan without fetching page 1.
  auto segment = MakeSegment("pool_fence.sfc", SequentialKeys(100), 10);
  BufferPool pool(16);
  ASSERT_TRUE(PoolScan(&pool, *segment, 0, 9).ok());
  EXPECT_EQ(pool.stats().page_reads, 1u);
  EXPECT_EQ(pool.stats().entries_read, 10u);
  // Range starting past the last key reads nothing at all.
  pool.ResetStats();
  ASSERT_TRUE(PoolScan(&pool, *segment, 200, 300).ok());
  EXPECT_EQ(pool.stats().page_reads, 0u);
  EXPECT_EQ(pool.stats().entries_read, 0u);
}

TEST(StoragePoolTest, DropRemovesOnlyThatSource) {
  auto seg_a = MakeSegment("pool_drop_a.sfc", SequentialKeys(40), 10);
  auto seg_b = MakeSegment("pool_drop_b.sfc", SequentialKeys(40), 10);
  BufferPool pool(16);
  ASSERT_TRUE(PoolScan(&pool, *seg_a, 0, 39).ok());
  ASSERT_TRUE(PoolScan(&pool, *seg_b, 0, 39).ok());
  EXPECT_EQ(pool.resident_pages(), 8u);
  pool.Drop(seg_a.get());
  EXPECT_EQ(pool.resident_pages(), 4u);
  pool.ResetStats();
  ASSERT_TRUE(PoolScan(&pool, *seg_b, 0, 39).ok());  // still cached
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
    ASSERT_TRUE(PoolScan(&mem_pool, mem, lo, hi, [&](Key key, uint64_t) {
                  from_mem.push_back(key);
                }).ok());
    ASSERT_TRUE(PoolScan(&disk_pool, *disk, lo, hi, [&](Key key, uint64_t) {
                  from_disk.push_back(key);
                }).ok());
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
  ASSERT_TRUE(PoolScan(&pool, *segment, 0, 79).ok());
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
    ASSERT_TRUE(PoolScan(&plain, *segment, lo, hi, [&](Key key, uint64_t) {
                  expected.push_back(key);
                }).ok());
    ASSERT_TRUE(PoolScan(&batched, *segment, lo, hi, [&](Key key, uint64_t) {
                  actual.push_back(key);
                }).ok());
    ASSERT_EQ(actual, expected) << "[" << lo << ", " << hi << "]";
  }
  // Readahead changes how pages arrive, never how many entries do.
  EXPECT_EQ(batched.stats().entries_read, plain.stats().entries_read);
}

TEST(StoragePoolTest, ReadaheadStopsAtResidentPages) {
  auto segment = MakeSegment("pool_ra_stop.sfc", SequentialKeys(80), 10);
  BufferPool pool(16, /*readahead_pages=*/4);
  Status status;
  // Resident: 4..7 (readahead stops at the end).
  ASSERT_NE(pool.Fetch(*segment, 4, &status), nullptr);
  EXPECT_EQ(pool.stats().page_reads, 4u);
  // The run must stop before resident page 4.
  ASSERT_NE(pool.Fetch(*segment, 3, &status), nullptr);
  EXPECT_EQ(pool.stats().page_reads, 5u);
  EXPECT_EQ(pool.stats().readahead_batched_reads, 1u);
}

TEST(StoragePoolTest, ReadaheadCountsWaste) {
  auto segment = MakeSegment("pool_ra_waste.sfc", SequentialKeys(80), 10);
  // Drop of never-touched prefetched pages is counted.
  BufferPool pool(16, /*readahead_pages=*/4);
  Status status;
  ASSERT_NE(pool.Fetch(*segment, 0, &status), nullptr);  // prefetches 1..4
  pool.Drop(segment.get());
  EXPECT_EQ(pool.stats().readahead_wasted, 4u);
  // Eviction of never-touched prefetched pages is counted too.
  BufferPool tight(3, /*readahead_pages=*/2);
  // Resident: 0,1,2 (1 and 2 prefetched), then 5,6,7, evicting 0,1,2.
  ASSERT_NE(tight.Fetch(*segment, 0, &status), nullptr);
  ASSERT_NE(tight.Fetch(*segment, 5, &status), nullptr);
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
  pool.Fetch(source, 0, &status, nullptr, &box);
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(pool.stats().page_reads, 2u);
  EXPECT_EQ(pool.resident_pages(), 2u);
  // Without a box the zone map cannot apply and the full run is read.
  BufferPool unfiltered(16, /*readahead_pages=*/4);
  unfiltered.Fetch(source, 0, &status);
  EXPECT_EQ(unfiltered.stats().page_reads, 5u);
}

TEST(StoragePoolTest, CorruptPageComesBackAsCorruption) {
  // Ten raw pages of 10 entries; flip one byte in the middle of page 2.
  auto segment = MakeSegment("pool_corrupt.sfc", SequentialKeys(100), 10);
  const uint64_t page_bytes = segment->PageDiskBytes(2);
  segment.reset();  // release the file before mutating it
  const std::string path = ::testing::TempDir() + "/pool_corrupt.sfc";
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  // Raw pages have equal sizes and follow the 96-byte header.
  const long offset = 96 + 2 * static_cast<long>(page_bytes) + 10;
  ASSERT_EQ(std::fseek(f, offset, SEEK_SET), 0);
  const int byte = std::fgetc(f);
  ASSERT_NE(byte, EOF);
  ASSERT_EQ(std::fseek(f, offset, SEEK_SET), 0);
  std::fputc(byte ^ 0x04, f);
  std::fclose(f);
  auto reopened = SegmentReader::Open(path);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  const SegmentReader& corrupt = *reopened.value();

  // Both read paths: a lone page read, and a readahead run that starts at
  // the bad page (the batch fails, the demanded page is re-read alone).
  for (const uint64_t readahead : {0u, 4u}) {
    BufferPool pool(16, readahead);
    AtomicIoStats attribution;
    Status status;
    EXPECT_EQ(pool.Fetch(corrupt, 2, &status, &attribution), nullptr);
    EXPECT_EQ(status.code(), StatusCode::kCorruption) << status.ToString();
    // The process survived, the bad page never became resident, and the
    // good pages around it still read.
    EXPECT_EQ(pool.resident_pages(), 0u);
    EXPECT_NE(pool.Fetch(corrupt, 1, &status), nullptr);
    EXPECT_TRUE(status.ok()) << status.ToString();
    EXPECT_NE(pool.Fetch(corrupt, 3, &status), nullptr);
    EXPECT_TRUE(status.ok()) << status.ToString();
    // A second attempt at the bad page fails the same way.
    EXPECT_EQ(pool.Fetch(corrupt, 2, &status), nullptr);
    EXPECT_EQ(status.code(), StatusCode::kCorruption);
  }
  // A scan over the bad page stops there with the same error.
  BufferPool pool(16);
  std::vector<Key> seen;
  const Status scan = PoolScan(&pool, corrupt, 0, 99,
                               [&](Key key, uint64_t) { seen.push_back(key); });
  EXPECT_EQ(scan.code(), StatusCode::kCorruption);
  EXPECT_EQ(seen.size(), 20u);  // pages 0 and 1
}

}  // namespace
}  // namespace onion::storage
