// Concurrency tests for the storage engine, designed to run under
// ThreadSanitizer (the CI tsan job builds with -DONION_SANITIZE=thread):
// readers querying while the background worker flushes and compacts,
// multiple writers, concurrent manual compaction, and a shared buffer
// pool hammered from several threads.

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "pool_scan.h"
#include "storage/buffer_pool.h"
#include "storage/cursor.h"
#include "storage/segment.h"
#include "storage/sfc_table.h"
#include "table_db.h"
#include "workloads/generators.h"

namespace onion::storage {
namespace {

std::string FreshDir(const std::string& name) {
  const std::string dir =
      ::testing::TempDir() + "/storage_concurrency_test/" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

// Drains a box query through the streaming cursor path. Deliberately free
// of gtest assertions: reader threads in these tests report failure through
// atomics, not EXPECTs (which are not thread-safe everywhere).
std::vector<SpatialEntry> CursorQuery(SfcTable& table, const Box& box) {
  auto cursor = table.NewBoxCursor(box);
  return DrainCursor(cursor.get());
}

// Readers run box queries nonstop while one writer inserts enough points
// to force several background flushes and at least one leveling round.
// Every result a reader sees must lie inside its box (no torn reads, no
// entries from retired segments double-counted against the box filter),
// and the final flushed state must hold exactly the inserted points.
TEST(StorageConcurrencyTest, ReadersProceedDuringFlushAndCompaction) {
  const Universe universe(2, 64);
  const auto points = RandomPoints(universe, 8000, 97);
  SfcTableOptions options;
  options.entries_per_page = 32;
  options.memtable_flush_entries = 400;  // ~20 background flushes
  options.l0_compaction_trigger = 3;
  auto table_result =
      CreateTableDb(FreshDir("read_during_flush"), "hilbert", universe,
                    options, /*pool_pages=*/16);
  ASSERT_TRUE(table_result.ok()) << table_result.status().ToString();
  auto& table = *table_result.value();

  std::atomic<bool> done{false};
  std::atomic<uint64_t> queries_run{0};
  std::atomic<bool> reader_failed{false};
  const auto boxes = RandomCubes(universe, 10, 30, 101);
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&, t] {
      size_t i = static_cast<size_t>(t);
      while (!done.load(std::memory_order_relaxed)) {
        const Box& box = boxes[i++ % boxes.size()];
        for (const SpatialEntry& entry : CursorQuery(table, box)) {
          if (!box.Contains(entry.cell)) {
            reader_failed.store(true);
            return;
          }
        }
        queries_run.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  for (size_t i = 0; i < points.size(); ++i) {
    ASSERT_TRUE(table.Insert(points[i], i).ok());
  }
  ASSERT_TRUE(table.Flush().ok());
  done.store(true);
  for (std::thread& reader : readers) reader.join();
  EXPECT_FALSE(reader_failed.load());
  EXPECT_GT(queries_run.load(), 0u);

  EXPECT_EQ(table.size(), points.size());
  const auto all = CursorQuery(table, Box(Cell(0, 0), Cell(63, 63)));
  EXPECT_EQ(all.size(), points.size());
}

// Several writer threads share one table; the total must come out exact
// and queryable. (Payloads are disjoint per thread so loss would show.)
TEST(StorageConcurrencyTest, ConcurrentWritersLoseNothing) {
  const Universe universe(2, 64);
  SfcTableOptions options;
  options.memtable_flush_entries = 300;
  options.l0_compaction_trigger = 3;
  auto table_result = CreateTableDb(FreshDir("concurrent_writers"),
                                    "zorder", universe, options);
  ASSERT_TRUE(table_result.ok());
  auto& table = *table_result.value();

  constexpr int kWriters = 4;
  constexpr uint64_t kPerWriter = 1500;
  std::atomic<bool> writer_failed{false};
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      Rng rng(1234 + w);
      for (uint64_t i = 0; i < kPerWriter; ++i) {
        const Cell cell(rng.UniformInclusive(63), rng.UniformInclusive(63));
        const uint64_t payload = static_cast<uint64_t>(w) * kPerWriter + i;
        if (!table.Insert(cell, payload).ok()) {
          writer_failed.store(true);
          return;
        }
      }
    });
  }
  for (std::thread& writer : writers) writer.join();
  ASSERT_FALSE(writer_failed.load());
  ASSERT_TRUE(table.Flush().ok());
  EXPECT_EQ(table.size(), kWriters * kPerWriter);

  std::vector<bool> seen(kWriters * kPerWriter, false);
  for (const SpatialEntry& entry :
       CursorQuery(table, Box(Cell(0, 0), Cell(63, 63)))) {
    ASSERT_LT(entry.payload, seen.size());
    EXPECT_FALSE(seen[entry.payload]) << "duplicated payload";
    seen[entry.payload] = true;
  }
  EXPECT_TRUE(std::all_of(seen.begin(), seen.end(),
                          [](bool b) { return b; }));
}

// Manual Compact() while readers are live: results stay correct before,
// during, and after, and the table ends at a single segment.
TEST(StorageConcurrencyTest, ManualCompactionUnderReaders) {
  const Universe universe(2, 64);
  const auto points = RandomPoints(universe, 5000, 103);
  SfcTableOptions options;
  options.memtable_flush_entries = 500;
  options.l0_compaction_trigger = 100;  // keep it fragmented until Compact
  auto table_result = CreateTableDb(FreshDir("manual_compact"), "onion",
                                    universe, options);
  ASSERT_TRUE(table_result.ok());
  auto& table = *table_result.value();
  for (size_t i = 0; i < points.size(); ++i) {
    ASSERT_TRUE(table.Insert(points[i], i).ok());
  }
  ASSERT_TRUE(table.Flush().ok());
  ASSERT_GT(table.num_segments(), 1u);

  const Box everything(Cell(0, 0), Cell(63, 63));
  const size_t expected = CursorQuery(table, everything).size();
  std::atomic<bool> done{false};
  std::atomic<bool> reader_failed{false};
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&] {
      while (!done.load(std::memory_order_relaxed)) {
        if (CursorQuery(table, everything).size() != expected) {
          reader_failed.store(true);
          return;
        }
      }
    });
  }
  ASSERT_TRUE(table.Compact().ok());
  done.store(true);
  for (std::thread& reader : readers) reader.join();
  EXPECT_FALSE(reader_failed.load());
  EXPECT_EQ(table.num_segments(), 1u);
  EXPECT_EQ(CursorQuery(table, everything).size(), expected);
}

// Close() racing a manual Compact(): Close must not report quiesced while
// the compaction is still installing manifests. Whatever interleaving
// happens, both calls return, the data survives intact, and the table is
// cleanly closed afterwards.
TEST(StorageConcurrencyTest, CloseDuringManualCompactionQuiesces) {
  const Universe universe(2, 64);
  const auto points = RandomPoints(universe, 4000, 107);
  SfcTableOptions options;
  options.memtable_flush_entries = 400;
  options.l0_compaction_trigger = 100;  // fragmented until Compact
  auto table_result = CreateTableDb(FreshDir("close_vs_compact"),
                                    "hilbert", universe, options);
  ASSERT_TRUE(table_result.ok());
  auto& table = *table_result.value();
  for (size_t i = 0; i < points.size(); ++i) {
    ASSERT_TRUE(table.Insert(points[i], i).ok());
  }
  ASSERT_TRUE(table.Flush().ok());
  ASSERT_GT(table.num_segments(), 1u);

  std::thread compactor([&] {
    const Status status = table.Compact();
    // Either it won the race and compacted, or Close() got there first.
    EXPECT_TRUE(status.ok() ||
                status.code() == StatusCode::kInvalidArgument)
        << status.ToString();
  });
  ASSERT_TRUE(table.Close().ok());
  compactor.join();
  EXPECT_TRUE(table.Close().ok());  // still idempotent after the race
  EXPECT_EQ(table.size(), points.size());
  EXPECT_EQ(CursorQuery(table, Box(Cell(0, 0), Cell(63, 63))).size(),
            points.size());
}

// The shared buffer pool itself: many threads scanning two segments with
// a pool too small to hold them, so fetches, evictions, and the stats
// counters race as hard as possible.
// Regression for the worker-registration lifecycle: worker_client_ is a
// table-lock-guarded field that StartWorker used to publish WITHOUT the
// lock, racing with the pool thread (which reads it under the lock to
// re-notify itself) and with StopWorker. Cycle tables fast enough that
// Close() routinely overlaps in-flight background flushes, with writer
// threads notifying the worker the whole time — under TSan (CI) the old
// unguarded publish is a reported race.
TEST(StorageConcurrencyTest, WorkerLifecycleUnderChurn) {
  const Universe universe(2, 64);
  const auto points = RandomPoints(universe, 600, 131);
  for (int round = 0; round < 8; ++round) {
    SfcTableOptions options;
    options.entries_per_page = 32;
    options.memtable_flush_entries = 50;  // background work every 50 inserts
    auto table_result = CreateTableDb(
        FreshDir("worker_churn_" + std::to_string(round)), "hilbert",
        universe, options, /*pool_pages=*/16);
    ASSERT_TRUE(table_result.ok()) << table_result.status().ToString();
    auto& table = *table_result.value();
    std::atomic<bool> writer_failed{false};
    std::vector<std::thread> writers;
    for (int t = 0; t < 2; ++t) {
      writers.emplace_back([&, t] {
        for (size_t i = static_cast<size_t>(t); i < points.size(); i += 2) {
          if (!table.Insert(points[i], i).ok()) {
            writer_failed.store(true);
            return;
          }
        }
      });
    }
    for (std::thread& writer : writers) writer.join();
    EXPECT_FALSE(writer_failed.load());
    // Close while the last rotation's flush may still be in flight: the
    // quiesce path reads worker_client_ under the lock and must agree
    // with StartWorker's publish.
    ASSERT_TRUE(table.Close().ok());
    EXPECT_EQ(table.size(), points.size());
  }
}

TEST(StorageConcurrencyTest, BufferPoolParallelScans) {
  const std::string dir = FreshDir("pool_parallel");
  std::filesystem::create_directories(dir);
  auto make_segment = [&](const std::string& name) {
    SegmentWriter writer(dir + "/" + name, 8);
    for (Key key = 0; key < 512; ++key) {
      EXPECT_TRUE(writer.Add(key, key * 3).ok());
    }
    EXPECT_TRUE(writer.Finish().ok());
    auto reader = SegmentReader::Open(dir + "/" + name);
    EXPECT_TRUE(reader.ok());
    return std::move(reader).value();
  };
  auto seg_a = make_segment("a.sfc");
  auto seg_b = make_segment("b.sfc");
  BufferPool pool(8);  // 128 pages total across both segments

  std::atomic<bool> failed{false};
  std::vector<std::thread> scanners;
  for (int t = 0; t < 4; ++t) {
    scanners.emplace_back([&, t] {
      Rng rng(7 + t);
      const SegmentReader& segment = (t % 2 == 0) ? *seg_a : *seg_b;
      for (int round = 0; round < 200; ++round) {
        const Key lo = rng.UniformInclusive(500);
        const Key hi = lo + rng.UniformInclusive(40);
        Key expect = lo;
        bool ok = true;
        const Status status =
            PoolScan(&pool, segment, lo, hi, [&](Key key, uint64_t payload) {
              if (key != expect || payload != key * 3) ok = false;
              ++expect;
            });
        if (!status.ok()) ok = false;
        const Key last = std::min<Key>(hi, 511);
        if (!ok || (lo <= 511 && expect != last + 1)) {
          failed.store(true);
          return;
        }
      }
    });
  }
  for (std::thread& scanner : scanners) scanner.join();
  EXPECT_FALSE(failed.load());
  const IoStats stats = pool.stats();
  EXPECT_GT(stats.page_reads, 0u);
  EXPECT_GT(stats.entries_read, 0u);
}

}  // namespace
}  // namespace onion::storage
