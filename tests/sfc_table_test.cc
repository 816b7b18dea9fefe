// End-to-end tests of the persistent SfcTable: equivalence with a
// brute-force filter for every registered curve in 2D and 3D, ranges per
// box query == clustering number, close -> reopen cycles, compaction,
// unflushed-memtable reads, and manifest/WAL/I/O failure modes.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/clustering.h"
#include "brute_force.h"
#include "sfc/registry.h"
#include "storage/codec.h"
#include "storage/sfc_table.h"
#include "table_db.h"
#include "workloads/generators.h"

namespace onion::storage {
namespace {

std::string FreshDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/sfc_table_test/" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

/// Materializes a box query through the streaming cursor path.
std::vector<SpatialEntry> CursorQuery(SfcTable& table, const Box& box) {
  auto cursor = table.NewBoxCursor(box);
  auto results = DrainCursor(cursor.get());
  EXPECT_TRUE(cursor->status().ok()) << cursor->status().ToString();
  return results;
}

/// Every registered curve over a 2D universe (side 64; peano needs a
/// power of three, 81) and again over a 3D one (side 16; peano 9).
std::vector<std::pair<std::string, Universe>> EveryCurveIn2DAnd3D() {
  std::vector<std::pair<std::string, Universe>> inputs;
  for (const std::string& name : KnownCurveNames()) {
    inputs.emplace_back(name, Universe(2, name == "peano" ? 81 : 64));
  }
  for (const std::string& name : KnownCurveNames()) {
    inputs.emplace_back(name, Universe(3, name == "peano" ? 9 : 16));
  }
  return inputs;
}

TEST(SfcTableTest, QueryMatchesBruteForceEveryCurve) {
  for (const auto& [name, universe] : EveryCurveIn2DAnd3D()) {
    const std::string label =
        name + "_" + std::to_string(universe.dims()) + "d";
    const Coord cube = std::max<Coord>(universe.side() / 5, 3);
    const auto points = RandomPoints(universe, 4000, 31);
    const auto cubes = RandomCubes(universe, cube, 25, 37);
    const auto rects = RandomCornerBoxes(universe, 25, 41);
    SfcTableOptions options;
    options.entries_per_page = 32;
    options.memtable_flush_entries = 1000;  // forces several segments
    auto table_result = CreateTableDb(FreshDir("equiv_" + label), name,
                                      universe, options, /*pool_pages=*/16);
    ASSERT_TRUE(table_result.ok())
        << label << ": " << table_result.status().ToString();
    auto& table = *table_result.value();
    for (size_t i = 0; i < points.size(); ++i) {
      ASSERT_TRUE(table.Insert(points[i], i).ok());
    }
    // First pass queries the mixed state: background-flushed segments plus
    // whatever is still in the memtable / pending flush queue.
    for (const auto& queries : {cubes, rects}) {
      for (const Box& query : queries) {
        ASSERT_EQ(Canonical(table.curve(), CursorQuery(table, query)),
                  BruteForce(table.curve(), points, query))
            << label << " " << query.ToString();
      }
    }
    ASSERT_TRUE(table.Flush().ok());
    EXPECT_GT(table.num_segments(), 1u) << label;  // auto-rotation kicked in
    EXPECT_EQ(table.memtable_entries(), 0u);
    // Second pass queries fully flushed segments only.
    for (const auto& queries : {cubes, rects}) {
      for (const Box& query : queries) {
        ASSERT_EQ(Canonical(table.curve(), CursorQuery(table, query)),
                  BruteForce(table.curve(), points, query))
            << label << " " << query.ToString();
      }
    }
  }
}

TEST(SfcTableTest, RangesPerBoxQueryEqualClusteringNumber) {
  // The paper's identity: a box query scans exactly as many key ranges as
  // its clustering number under the table's curve — whether or not any
  // data lies in the box (the first pass runs on an empty table).
  for (const auto& [name, universe] : EveryCurveIn2DAnd3D()) {
    const std::string label =
        name + "_" + std::to_string(universe.dims()) + "d";
    auto table_result = CreateTableDb(FreshDir("clusters_" + label), name,
                                      universe, SfcTableOptions{});
    ASSERT_TRUE(table_result.ok())
        << label << ": " << table_result.status().ToString();
    auto& table = *table_result.value();
    auto boxes = RandomCubes(universe, universe.side() / 3, 8, 43);
    for (const Box& box : RandomCornerBoxes(universe, 8, 47)) {
      boxes.push_back(box);
    }
    for (const bool populated : {false, true}) {
      if (populated) {
        const auto points = RandomPoints(universe, 500, 53);
        for (size_t i = 0; i < points.size(); ++i) {
          ASSERT_TRUE(table.Insert(points[i], i).ok());
        }
        ASSERT_TRUE(table.Flush().ok());
      }
      table.ResetStats();
      uint64_t queries = 0;
      for (const Box& box : boxes) {
        const uint64_t before = table.read_stats().ranges;
        const auto results = CursorQuery(table, box);
        EXPECT_TRUE(populated || results.empty());
        ++queries;
        EXPECT_EQ(table.read_stats().ranges - before,
                  ClusteringNumber(table.curve(), box))
            << label << " " << box.ToString();
      }
      EXPECT_EQ(table.read_stats().queries, queries) << label;
    }
  }
}

TEST(SfcTableTest, SurvivesCloseAndReopen) {
  const Universe universe(2, 64);
  const auto points = ClusteredPoints(universe, 3000, 5, 6, 51);
  const auto queries = RandomCubes(universe, 16, 30, 53);
  const std::string dir = FreshDir("reopen");

  std::vector<std::vector<std::pair<Key, uint64_t>>> before;
  {
    SfcTableOptions options;
    options.memtable_flush_entries = 700;
    auto table_result = CreateTableDb(dir, "hilbert", universe, options);
    ASSERT_TRUE(table_result.ok()) << table_result.status().ToString();
    auto& table = *table_result.value();
    for (size_t i = 0; i < points.size(); ++i) {
      ASSERT_TRUE(table.Insert(points[i], i).ok());
    }
    for (const Box& query : queries) {
      before.push_back(Canonical(table.curve(), CursorQuery(table, query)));
    }
    ASSERT_TRUE(table.Close().ok());
  }  // table destroyed: only the files remain

  auto reopened_result = OpenTableDb(dir);
  ASSERT_TRUE(reopened_result.ok()) << reopened_result.status().ToString();
  auto& reopened = *reopened_result.value();
  EXPECT_EQ(reopened.curve().name(), "hilbert");
  EXPECT_EQ(reopened.size(), points.size());
  EXPECT_EQ(reopened.memtable_entries(), 0u);
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(Canonical(reopened.curve(), CursorQuery(reopened, queries[i])),
              before[i])
        << queries[i].ToString();
  }
}

TEST(SfcTableTest, CompactionPreservesResultsAndReducesSeeks) {
  const Universe universe(2, 64);
  const auto points = RandomPoints(universe, 5000, 61);
  const auto queries = RandomCubes(universe, 20, 40, 67);
  SfcTableOptions options;
  options.entries_per_page = 64;
  options.memtable_flush_entries = 600;
  // Small pool: queries really hit the files.
  auto table_result = CreateTableDb(FreshDir("compact"), "onion", universe,
                                    options, /*pool_pages=*/8);
  ASSERT_TRUE(table_result.ok()) << table_result.status().ToString();
  auto& table = *table_result.value();
  for (size_t i = 0; i < points.size(); ++i) {
    ASSERT_TRUE(table.Insert(points[i], i).ok());
  }
  ASSERT_TRUE(table.Flush().ok());
  ASSERT_GT(table.num_segments(), 1u);

  std::vector<std::vector<std::pair<Key, uint64_t>>> before;
  for (const Box& query : queries) {
    before.push_back(Canonical(table.curve(), CursorQuery(table, query)));
  }
  table.ResetStats();
  for (const Box& query : queries) CursorQuery(table, query);
  const uint64_t seeks_fragmented = table.io_stats().seeks;

  ASSERT_TRUE(table.Compact().ok());
  EXPECT_EQ(table.num_segments(), 1u);
  EXPECT_EQ(table.size(), points.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(Canonical(table.curve(), CursorQuery(table, queries[i])), before[i]);
  }
  table.ResetStats();
  for (const Box& query : queries) CursorQuery(table, query);
  const uint64_t seeks_compacted = table.io_stats().seeks;
  EXPECT_LT(seeks_compacted, seeks_fragmented);
}

TEST(SfcTableTest, UnflushedMemtableEntriesAreVisible) {
  const Universe universe(2, 32);
  auto table_result = CreateTableDb(FreshDir("memtable"), "zorder",
                                    universe, SfcTableOptions{});
  ASSERT_TRUE(table_result.ok());
  auto& table = *table_result.value();
  ASSERT_TRUE(table.Insert(Cell(3, 4), 7).ok());
  ASSERT_TRUE(table.Insert(Cell(3, 4), 8).ok());
  ASSERT_TRUE(table.Insert(Cell(30, 30), 9).ok());
  EXPECT_EQ(table.num_segments(), 0u);  // nothing flushed yet
  const auto results = CursorQuery(table, Box(Cell(0, 0), Cell(8, 8)));
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].payload, 7u);
  EXPECT_EQ(results[1].payload, 8u);
  EXPECT_EQ(table.read_stats().memtable_entries, 2u);
  EXPECT_EQ(table.io_stats().page_reads, 0u);  // served without disk I/O
}

// Point Gets against a model while the memtable fills: empty, under one
// sealed block per shard, and many sealed blocks per shard, with Deletes
// mixed in, a snapshot pinned part-way, and a rotation that leaves a
// pending memtable behind the active one.
TEST(SfcTableTest, GetMatchesModelAsTheMemtableFills) {
  constexpr Coord kSide = 64;
  const Universe universe(2, kSide);
  SfcTableOptions options;
  options.memtable_flush_entries = 16384;  // ~4 sealed blocks per shard
  auto table_result =
      CreateTableDb(FreshDir("get_model"), "onion", universe, options);
  ASSERT_TRUE(table_result.ok()) << table_result.status().ToString();
  auto& table = *table_result.value();

  using Model = std::vector<std::vector<uint64_t>>;  // by cell id, sorted
  Model model(kSide * kSide);
  const auto cell_of = [](size_t id) {
    return Cell(static_cast<Coord>(id % kSide), static_cast<Coord>(id / kSide));
  };
  uint64_t next_payload = 0;
  // `count` ops on seeded random cells; every `delete_every`-th is a
  // Delete (0: none).
  const auto apply = [&](size_t count, uint64_t seed, size_t delete_every) {
    const std::vector<Cell> cells = RandomPoints(universe, count, seed);
    for (size_t i = 0; i < cells.size(); ++i) {
      const size_t id = cells[i][1] * kSide + cells[i][0];
      if (delete_every != 0 && i % delete_every == delete_every - 1) {
        ASSERT_TRUE(table.Delete(cells[i]).ok());
        model[id].clear();
      } else {
        ASSERT_TRUE(table.Insert(cells[i], next_payload).ok());
        model[id].push_back(next_payload++);
      }
    }
  };
  const auto expect_gets = [&](const Model& expected,
                               const ReadOptions& read_options,
                               const std::string& stage) {
    for (size_t id = 0; id < expected.size(); ++id) {
      auto got = table.Get(cell_of(id), read_options);
      ASSERT_TRUE(got.ok()) << stage << ": " << got.status().ToString();
      std::sort(got.value().begin(), got.value().end());
      ASSERT_EQ(got.value(), expected[id]) << stage << ", cell " << id;
    }
  };

  apply(3000, 1, 0);
  ASSERT_TRUE(table.Flush().ok());
  expect_gets(model, ReadOptions{}, "0 unflushed");

  apply(300, 2, 10);  // under 512 per shard: no block sealed yet
  expect_gets(model, ReadOptions{}, "under one block");
  const auto snapshot = table.GetSnapshot();
  const Model at_snapshot = model;
  ReadOptions at_pin;
  at_pin.snapshot = snapshot.get();

  apply(options.memtable_flush_entries - 300, 3, 7);  // fills to the flush size
  ASSERT_EQ(table.pending_memtables(), 0u);
  expect_gets(model, ReadOptions{}, "many blocks");
  expect_gets(at_snapshot, at_pin, "snapshot over many blocks");

  // The next write rotates the full memtable into the flush queue. The
  // Gets right after it merge the pending memtable (until the background
  // flush installs its segment) with the new active one.
  apply(1, 4, 0);
  expect_gets(model, ReadOptions{}, "right after rotation");
  apply(2000, 5, 5);
  expect_gets(model, ReadOptions{}, "after rotation");
  expect_gets(at_snapshot, at_pin, "snapshot after rotation");
  ASSERT_TRUE(table.Flush().ok());
  expect_gets(model, ReadOptions{}, "flushed");
  expect_gets(at_snapshot, at_pin, "snapshot flushed");
}

TEST(SfcTableTest, InsertOutsideUniverseFails) {
  const Universe universe(2, 32);
  auto table_result = CreateTableDb(FreshDir("outside"), "hilbert",
                                    universe, SfcTableOptions{});
  ASSERT_TRUE(table_result.ok());
  const Status status = table_result.value()->Insert(Cell(32, 0), 1);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kOutOfRange);
}

TEST(SfcTableTest, CreateRefusesExistingTable) {
  const Universe universe(2, 32);
  const std::string dir = FreshDir("exists");
  ASSERT_TRUE(CreateTableDb(dir, "onion", universe).ok());
  auto second = CreateTableDb(dir, "onion", universe);
  EXPECT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), StatusCode::kInvalidArgument);
}

TEST(SfcTableTest, OpenMissingDirectoryFails) {
  auto result = OpenTableDb(FreshDir("never_created"));
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

TEST(SfcTableTest, CrashBeforeFlushRecoversFromWal) {
  // Destroying the table without Close() stops the background worker
  // without flushing — exactly the state a crash leaves behind. Reopen
  // must replay every insert from the WAL.
  const Universe universe(2, 64);
  const auto points = RandomPoints(universe, 1000, 71);
  const std::string dir = FreshDir("wal_recovery");
  {
    auto table = CreateTableDb(dir, "hilbert", universe);
    ASSERT_TRUE(table.ok());
    for (size_t i = 0; i < points.size(); ++i) {
      ASSERT_TRUE(table.value()->Insert(points[i], i).ok());
    }
    EXPECT_EQ(table.value()->num_segments(), 0u);  // nothing flushed
  }  // "crash": no Close(), no Flush()

  auto reopened = OpenTableDb(dir);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(reopened.value()->size(), points.size());
  EXPECT_EQ(reopened.value()->memtable_entries(), points.size());
  const Box everything(Cell(0, 0), Cell(63, 63));
  EXPECT_EQ(Canonical(reopened.value()->curve(),
                      CursorQuery(*reopened.value(), everything)),
            BruteForce(reopened.value()->curve(), points, everything));
}

TEST(SfcTableTest, HardProcessExitRecoversFromWal) {
  // A real crash: the child process inserts and dies via _Exit (no
  // destructors, no buffered-stream flush beyond the WAL's own per-append
  // flush). The parent then reopens and must see every record.
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  const Universe universe(2, 32);
  const std::string dir = FreshDir("wal_hard_crash");
  ASSERT_EXIT(
      {
        auto table = CreateTableDb(dir, "zorder", universe);
        if (!table.ok()) std::_Exit(1);
        for (uint64_t i = 0; i < 200; ++i) {
          const Cell cell(i % 32, (i / 32) % 32);
          if (!table.value()->Insert(cell, i).ok()) std::_Exit(2);
        }
        std::_Exit(0);
      },
      ::testing::ExitedWithCode(0), "");

  auto reopened = OpenTableDb(dir);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(reopened.value()->size(), 200u);
  const auto results =
      CursorQuery(*reopened.value(), Box(Cell(0, 0), Cell(31, 31)));
  EXPECT_EQ(results.size(), 200u);
}

TEST(SfcTableTest, RecoveredEntriesAreNotDuplicatedAfterFlush) {
  // Crash-recover, flush, crash again WITHOUT new inserts: the manifest's
  // wal_floor must fence the replayed WAL files so the second recovery
  // does not resurrect entries that already live in segments.
  const Universe universe(2, 32);
  const std::string dir = FreshDir("wal_floor");
  {
    auto table = CreateTableDb(dir, "onion", universe);
    ASSERT_TRUE(table.ok());
    for (uint64_t i = 0; i < 50; ++i) {
      ASSERT_TRUE(table.value()->Insert(Cell(i % 32, i / 32), i).ok());
    }
  }  // crash #1
  {
    auto table = OpenTableDb(dir);
    ASSERT_TRUE(table.ok());
    EXPECT_EQ(table.value()->size(), 50u);
    ASSERT_TRUE(table.value()->Flush().ok());
    EXPECT_EQ(table.value()->memtable_entries(), 0u);
  }  // crash #2 (nothing unflushed)
  auto table = OpenTableDb(dir);
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table.value()->size(), 50u);  // not 100
  EXPECT_EQ(table.value()->memtable_entries(), 0u);
}

/// Path of the highest-numbered wal_<id>.log in `dir` ("" if none).
std::string NewestWalPath(const std::string& dir) {
  uint64_t newest_id = 0;
  std::string newest;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("wal_", 0) != 0) continue;
    const uint64_t id = std::strtoull(name.c_str() + 4, nullptr, 10);
    if (newest.empty() || id > newest_id) {
      newest_id = id;
      newest = entry.path().string();
    }
  }
  return newest;
}

void StampWalVersion(const std::string& path, uint32_t version) {
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr) << path;
  uint8_t version_bytes[4];
  PutU32(version_bytes, version);
  ASSERT_EQ(std::fseek(f, 8, SEEK_SET), 0);
  ASSERT_EQ(std::fwrite(version_bytes, 1, 4, f), 4u);
  std::fclose(f);
}

TEST(SfcTableTest, NewestWalOfAnotherVersionFailsOpenButTornHeaderIsSkipped) {
  // Only a header that is short or lacks the magic is a crash during WAL
  // creation. A whole header of another version holds acknowledged
  // records: skipping it would lose them (and the next flush would fence
  // them away for good), so Open must fail instead.
  const Universe universe(2, 32);
  const std::string dir = FreshDir("wal_newest_version");
  {
    auto table = CreateTableDb(dir, "onion", universe);
    ASSERT_TRUE(table.ok());
    for (uint64_t i = 0; i < 40; ++i) {
      ASSERT_TRUE(table.value()->Insert(Cell(i % 32, i / 32), i).ok());
    }
  }  // crash: no Close(), no Flush()
  const std::string logged = NewestWalPath(TableDbDir(dir));
  ASSERT_FALSE(logged.empty());
  StampWalVersion(logged, 99);
  {
    auto opened = OpenTableDb(dir);
    ASSERT_FALSE(opened.ok()) << "a version-99 WAL must not be skipped";
    EXPECT_EQ(opened.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(opened.status().ToString().find("unsupported WAL version 99"),
              std::string::npos)
        << opened.status().ToString();
  }
  // Restored, the records are all there. Opening creates a newer, empty
  // WAL; crash again so it stays behind as the newest file.
  StampWalVersion(logged, 2);
  {
    auto table = OpenTableDb(dir);
    ASSERT_TRUE(table.ok()) << table.status().ToString();
    EXPECT_EQ(table.value()->size(), 40u);
  }
  const std::string fresh = NewestWalPath(TableDbDir(dir));
  ASSERT_NE(fresh, logged);
  // Tear the newest WAL inside its 16-byte header: a crash during its
  // creation. Open skips it and still recovers every record.
  std::filesystem::resize_file(fresh, 5);
  auto table = OpenTableDb(dir);
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  EXPECT_EQ(table.value()->size(), 40u);
  EXPECT_EQ(table.value()->memtable_entries(), 40u);
}

/// Writes a file named `name` into `dir` that is not a WAL the engine
/// wrote: a stray file whose name merely looks like one.
void PlantStrayFile(const std::string& dir, const std::string& name) {
  std::ofstream(dir + "/" + name, std::ios::binary) << "not a wal";
}

std::string ReadManifest(const std::string& dir) {
  std::ifstream in(dir + "/MANIFEST");
  return std::string(std::istreambuf_iterator<char>(in), {});
}

TEST(SfcTableTest, WalNameWhoseIdOverflowsIsNotAWal) {
  // 2^64 + 1 wraps to id 1 if parsed without an overflow check; under
  // wal_floor 3 that would read as a fenced WAL and be deleted, although
  // the engine never wrote it.
  const Universe universe(2, 32);
  const std::string dir = FreshDir("wal_name_overflow");
  {
    auto table = CreateTableDb(dir, "onion", universe);
    ASSERT_TRUE(table.ok()) << table.status().ToString();
    for (uint64_t i = 0; i < 3; ++i) {  // each flush raises the floor
      ASSERT_TRUE(table.value()->Insert(Cell(i, i), i).ok());
      ASSERT_TRUE(table.value()->Flush().ok());
    }
    ASSERT_TRUE(table.value()->Close().ok());
  }
  ASSERT_NE(ReadManifest(TableDbDir(dir)).find("\nwal_floor 3\n"),
            std::string::npos);
  const std::string stray = "wal_18446744073709551617.log";
  PlantStrayFile(TableDbDir(dir), stray);
  auto table = OpenTableDb(dir);
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  EXPECT_EQ(table.value()->size(), 3u);
  EXPECT_TRUE(std::filesystem::exists(TableDbDir(dir) + "/" + stray));
}

TEST(SfcTableTest, WalNameWithTheLargestIdDoesNotTruncateTheLiveWal) {
  // Id UINT64_MAX would sort newest (its bad header then skipped as a torn
  // newest WAL) and its successor would wrap to 0, so Open would reuse
  // the floor's id for the new WAL and truncate the live one. Acknowledged
  // entries must survive two crashes with such a file present.
  const Universe universe(2, 32);
  const std::string dir = FreshDir("wal_name_max");
  {
    auto table = CreateTableDb(dir, "onion", universe);
    ASSERT_TRUE(table.ok()) << table.status().ToString();
    for (uint64_t i = 0; i < 10; ++i) {
      ASSERT_TRUE(table.value()->Insert(Cell(i, 0), i).ok());
    }
    ASSERT_TRUE(table.value()->Flush().ok());  // wal_floor 1
    for (uint64_t i = 10; i < 20; ++i) {       // live in wal_1.log
      ASSERT_TRUE(table.value()->Insert(Cell(i, 0), i).ok());
    }
  }  // crash #1
  const std::string stray = "wal_18446744073709551615.log";
  PlantStrayFile(TableDbDir(dir), stray);
  {
    auto table = OpenTableDb(dir);
    ASSERT_TRUE(table.ok()) << table.status().ToString();
    EXPECT_EQ(table.value()->size(), 20u);
  }  // crash #2
  auto table = OpenTableDb(dir);
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  EXPECT_EQ(table.value()->size(), 20u);
  const auto results =
      CursorQuery(*table.value(), Box(Cell(0, 0), Cell(31, 31)));
  EXPECT_EQ(results.size(), 20u);
  EXPECT_TRUE(std::filesystem::exists(TableDbDir(dir) + "/" + stray));
}

TEST(SfcTableTest, LeveledCompactionKeepsLevelsDisjoint) {
  // Small thresholds force many flushes and several rounds of background
  // leveling; afterwards every level >= 1 must hold pairwise-disjoint,
  // key-sorted segments of bounded size, and L0 must stay under control.
  const Universe universe(2, 64);
  const auto points = RandomPoints(universe, 6000, 83);
  SfcTableOptions options;
  options.entries_per_page = 32;
  options.memtable_flush_entries = 250;
  options.l0_compaction_trigger = 3;
  options.level_growth_factor = 4;
  auto table_result =
      CreateTableDb(FreshDir("leveled"), "hilbert", universe, options);
  ASSERT_TRUE(table_result.ok());
  auto& table = *table_result.value();
  for (size_t i = 0; i < points.size(); ++i) {
    ASSERT_TRUE(table.Insert(points[i], i).ok());
  }
  ASSERT_TRUE(table.Flush().ok());

  const auto infos = table.SegmentInfos();
  ASSERT_FALSE(infos.empty());
  int max_level = 0;
  size_t l0_runs = 0;
  std::vector<std::vector<std::pair<Key, Key>>> ranges_by_level(16);
  for (const SegmentInfo& info : infos) {
    ASSERT_GE(info.level, 0);
    ASSERT_LT(info.level, 16);
    max_level = std::max(max_level, info.level);
    if (info.level == 0) {
      ++l0_runs;
    } else {
      // Size-bounded up to the duplicate-key slack (a run of equal keys is
      // never split across segments, so a cut can overshoot slightly).
      EXPECT_LT(info.num_entries, 2 * options.memtable_flush_entries)
          << info.file;
      ranges_by_level[info.level].emplace_back(info.min_key, info.max_key);
    }
  }
  EXPECT_GT(max_level, 0);  // compaction actually leveled something
  EXPECT_LT(l0_runs, options.l0_compaction_trigger);
  for (auto& ranges : ranges_by_level) {
    std::sort(ranges.begin(), ranges.end());
    for (size_t i = 1; i < ranges.size(); ++i) {
      EXPECT_GT(ranges[i].first, ranges[i - 1].second)
          << "overlapping segments within a level";
    }
  }
  // Leveling preserved the data.
  const Box everything(Cell(0, 0), Cell(63, 63));
  EXPECT_EQ(Canonical(table.curve(), CursorQuery(table, everything)),
            BruteForce(table.curve(), points, everything));
}

TEST(SfcTableTest, CloseQuiescesStopsWritesAndIsIdempotent) {
  const Universe universe(2, 64);
  const auto points = RandomPoints(universe, 2000, 91);
  SfcTableOptions options;
  options.memtable_flush_entries = 300;
  auto table_result =
      CreateTableDb(FreshDir("close"), "hilbert", universe, options);
  ASSERT_TRUE(table_result.ok());
  auto& table = *table_result.value();
  for (size_t i = 0; i < points.size(); ++i) {
    ASSERT_TRUE(table.Insert(points[i], i).ok());
  }
  ASSERT_TRUE(table.Close().ok());
  // Close is a full barrier: everything buffered reached segments.
  EXPECT_EQ(table.memtable_entries(), 0u);
  EXPECT_EQ(table.pending_memtables(), 0u);
  EXPECT_EQ(table.size(), points.size());
  // Idempotent, and write paths are refused from now on...
  EXPECT_TRUE(table.Close().ok());
  EXPECT_EQ(table.Insert(Cell(1, 1), 99).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(table.Compact().code(), StatusCode::kInvalidArgument);
  // ...while reads stay fully valid.
  const Box everything(Cell(0, 0), Cell(63, 63));
  EXPECT_EQ(CursorQuery(table, everything).size(), points.size());
  auto cursor = table.NewBoxCursor(everything);
  EXPECT_EQ(DrainCursor(cursor.get()).size(), points.size());
}

TEST(SfcTableTest, OptionValidationRejectsBadValues) {
  const Universe universe(2, 32);
  const auto expect_invalid = [&](const SfcTableOptions& options,
                                  const std::string& label) {
    auto created =
        CreateTableDb(FreshDir("bad_options_" + label), "onion", universe,
                      options);
    EXPECT_FALSE(created.ok()) << label;
    EXPECT_EQ(created.status().code(), StatusCode::kInvalidArgument) << label;
  };
  SfcTableOptions options;
  options.entries_per_page = 0;
  expect_invalid(options, "entries_per_page");
  options = SfcTableOptions{};
  options.memtable_flush_entries = 0;
  expect_invalid(options, "memtable_flush_entries");
  options = SfcTableOptions{};
  options.max_pending_memtables = 0;
  expect_invalid(options, "max_pending_memtables");
  options = SfcTableOptions{};
  options.l0_compaction_trigger = 1;
  expect_invalid(options, "l0_compaction_trigger");
  options = SfcTableOptions{};
  options.level_growth_factor = 1;
  expect_invalid(options, "level_growth_factor");
  options = SfcTableOptions{};
  options.codec = static_cast<PageCodec>(99);
  expect_invalid(options, "codec");
  options = SfcTableOptions{};
  options.filter_bits_per_key = 65;
  expect_invalid(options, "filter_bits_per_key");

  // Open validates too: create a good table, then reopen with bad options.
  const std::string dir = FreshDir("bad_options_open");
  ASSERT_TRUE(CreateTableDb(dir, "onion", universe).ok());
  SfcTableOptions bad;
  bad.level_growth_factor = 0;
  auto reopened = OpenTableDb(dir, bad);
  EXPECT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.status().code(), StatusCode::kInvalidArgument);
}

TEST(SfcTableTest, ReopenedTableAcceptsMoreInserts) {
  const Universe universe(2, 32);
  const std::string dir = FreshDir("append");
  {
    auto table = CreateTableDb(dir, "onion", universe);
    ASSERT_TRUE(table.ok());
    ASSERT_TRUE(table.value()->Insert(Cell(1, 1), 1).ok());
    ASSERT_TRUE(table.value()->Close().ok());
  }
  {
    auto table = OpenTableDb(dir);
    ASSERT_TRUE(table.ok());
    ASSERT_TRUE(table.value()->Insert(Cell(2, 2), 2).ok());
    ASSERT_TRUE(table.value()->Close().ok());
  }
  auto table = OpenTableDb(dir);
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table.value()->size(), 2u);
  const auto results =
      CursorQuery(*table.value(), Box(Cell(0, 0), Cell(31, 31)));
  EXPECT_EQ(results.size(), 2u);
}

TEST(SfcTableTest, QueryResultsIdenticalAcrossCodecs) {
  // The acceptance bar of segment format v2: byte-identical query results
  // whatever the codec/filter configuration, on mixed multi-segment state.
  const Universe universe(2, 64);
  const auto points = RandomPoints(universe, 5000, 61);
  const auto boxes = RandomCubes(universe, 14, 30, 67);
  struct Config {
    PageCodec codec;
    uint32_t filter_bits;
    const char* tag;
  };
  const Config configs[] = {{PageCodec::kRaw, 0, "raw0"},
                            {PageCodec::kRaw, 10, "raw10"},
                            {PageCodec::kDeltaVarint, 0, "delta0"},
                            {PageCodec::kDeltaVarint, 10, "delta10"}};
  std::vector<TableDb> tables;
  for (const Config& config : configs) {
    SfcTableOptions options;
    options.entries_per_page = 32;
    options.memtable_flush_entries = 700;
    options.l0_compaction_trigger = 3;
    options.codec = config.codec;
    options.filter_bits_per_key = config.filter_bits;
    auto table = CreateTableDb(
        FreshDir(std::string("codec_equiv_") + config.tag), "hilbert",
        universe, options, /*pool_pages=*/16);
    ASSERT_TRUE(table.ok()) << table.status().ToString();
    for (size_t i = 0; i < points.size(); ++i) {
      ASSERT_TRUE(table.value()->Insert(points[i], i).ok());
    }
    tables.push_back(std::move(table).value());
  }
  for (const Box& box : boxes) {
    const auto expected = Canonical(tables[0]->curve(),
                                    CursorQuery(*tables[0], box));
    for (size_t t = 1; t < tables.size(); ++t) {
      EXPECT_EQ(Canonical(tables[t]->curve(), CursorQuery(*tables[t], box)),
                expected)
          << configs[t].tag << " " << box.ToString();
    }
  }
  // Point lookups agree too (present and absent cells; absent ones take
  // the bloom fast path in the filtered configs).
  for (uint64_t i = 0; i < 200; ++i) {
    const Cell cell(static_cast<Coord>((i * 13) % 64),
                    static_cast<Coord>((i * 29) % 64));
    auto expected = tables[0]->Get(cell);
    ASSERT_TRUE(expected.ok());
    std::sort(expected.value().begin(), expected.value().end());
    for (size_t t = 1; t < tables.size(); ++t) {
      auto got = tables[t]->Get(cell);
      ASSERT_TRUE(got.ok());
      std::sort(got.value().begin(), got.value().end());
      EXPECT_EQ(got.value(), expected.value()) << configs[t].tag;
    }
  }
}

TEST(SfcTableTest, ManifestRecordsCodecAcrossReopen) {
  const Universe universe(2, 32);
  const std::string dir = FreshDir("manifest_codec");
  {
    SfcTableOptions options;
    options.codec = PageCodec::kDeltaVarint;
    options.filter_bits_per_key = 6;
    auto table = CreateTableDb(dir, "onion", universe, options);
    ASSERT_TRUE(table.ok());
    for (uint64_t i = 0; i < 200; ++i) {
      ASSERT_TRUE(
          table.value()->Insert(Cell(i % 32, (i / 32) % 32), i).ok());
    }
    ASSERT_TRUE(table.value()->Close().ok());
  }
  // Reopen with DEFAULT options (raw codec): the manifest must win, so
  // segments flushed after reopen still use delta_varint.
  auto table = OpenTableDb(dir);
  ASSERT_TRUE(table.ok());
  for (uint64_t i = 0; i < 100; ++i) {
    ASSERT_TRUE(
        table.value()->Insert(Cell((i * 7) % 32, (i * 3) % 32), 1000 + i)
            .ok());
  }
  ASSERT_TRUE(table.value()->Flush().ok());
  const auto infos = table.value()->SegmentInfos();
  ASSERT_FALSE(infos.empty());
  for (const SegmentInfo& info : infos) {
    EXPECT_EQ(info.codec, PageCodec::kDeltaVarint) << info.file;
    EXPECT_GT(info.filter_bytes, 0u) << info.file;
    EXPECT_GT(info.disk_bytes, 0u) << info.file;
  }
}

TEST(SfcTableTest, SnapshotPinsPreMutationStateAcrossFlushAndCompaction) {
  // The acceptance bar of the versioned read API: a snapshot taken before
  // N inserts + deletes + Flush() + Compact() still returns exactly the
  // pre-snapshot result set, from Get and from box cursors alike — even
  // though compaction rewrote every segment file in between.
  const Universe universe(2, 64);
  const auto points = RandomPoints(universe, 3000, 97);
  SfcTableOptions options;
  options.memtable_flush_entries = 500;
  options.l0_compaction_trigger = 3;
  auto table_result =
      CreateTableDb(FreshDir("snapshot_pin"), "hilbert", universe, options);
  ASSERT_TRUE(table_result.ok());
  auto& table = *table_result.value();
  for (size_t i = 0; i < points.size(); ++i) {
    ASSERT_TRUE(table.Insert(points[i], i).ok());
  }
  ASSERT_TRUE(table.Flush().ok());

  const auto snapshot = table.GetSnapshot();
  ASSERT_EQ(snapshot->sequence, points.size());
  ReadOptions at_pin;
  at_pin.snapshot = snapshot.get();
  const Box everything(Cell(0, 0), Cell(63, 63));
  const auto expected =
      Canonical(table.curve(), DrainCursor(table.NewBoxCursor(everything,
                                                              at_pin).get()));
  ASSERT_EQ(expected.size(), points.size());
  auto expected_get = table.Get(points[0], at_pin);
  ASSERT_TRUE(expected_get.ok());
  std::sort(expected_get.value().begin(), expected_get.value().end());

  // Churn: new inserts, deletes of existing cells, a flush, and a manual
  // compaction that retires every pre-snapshot segment file.
  const auto extra = RandomPoints(universe, 2000, 101);
  for (size_t i = 0; i < extra.size(); ++i) {
    ASSERT_TRUE(table.Insert(extra[i], points.size() + i).ok());
  }
  for (size_t i = 0; i < 200; ++i) {
    ASSERT_TRUE(table.Delete(points[i]).ok());
  }
  ASSERT_TRUE(table.Flush().ok());
  ASSERT_TRUE(table.Compact().ok());

  // Both read paths at the pin reproduce the pre-churn state exactly.
  auto pinned_cursor = table.NewBoxCursor(everything, at_pin);
  EXPECT_EQ(Canonical(table.curve(), DrainCursor(pinned_cursor.get())),
            expected);
  EXPECT_TRUE(pinned_cursor->status().ok());
  auto pinned_get = table.Get(points[0], at_pin);
  ASSERT_TRUE(pinned_get.ok());
  std::sort(pinned_get.value().begin(), pinned_get.value().end());
  EXPECT_EQ(pinned_get.value(), expected_get.value());
  // Latest reads see the churn: the deleted cell is gone.
  auto latest_get = table.Get(points[0]);
  ASSERT_TRUE(latest_get.ok());
  EXPECT_TRUE(latest_get.value().empty());
  const auto latest =
      Canonical(table.curve(),
                DrainCursor(table.NewBoxCursor(everything).get()));
  EXPECT_NE(latest, expected);
}

TEST(SfcTableTest, DeleteHidesOlderVersionsAndReinsertResurrects) {
  const Universe universe(2, 32);
  SfcTableOptions options;
  options.memtable_flush_entries = 4;  // force the states through segments
  auto table_result = CreateTableDb(FreshDir("delete"), "onion", universe,
                                    options);
  ASSERT_TRUE(table_result.ok());
  auto& table = *table_result.value();
  const Cell cell(5, 9);
  ASSERT_TRUE(table.Insert(cell, 1).ok());
  ASSERT_TRUE(table.Insert(cell, 2).ok());
  // Delete hides BOTH payloads at once...
  ASSERT_TRUE(table.Delete(cell).ok());
  EXPECT_TRUE(table.Get(cell).value().empty());
  // ...a later insert resurrects the cell with only the new payload...
  ASSERT_TRUE(table.Insert(cell, 3).ok());
  EXPECT_EQ(table.Get(cell).value(), (std::vector<uint64_t>{3}));
  // ...and the answer is identical when everything sits in segments.
  ASSERT_TRUE(table.Flush().ok());
  EXPECT_EQ(table.Get(cell).value(), (std::vector<uint64_t>{3}));
  ASSERT_TRUE(table.Compact().ok());
  EXPECT_EQ(table.Get(cell).value(), (std::vector<uint64_t>{3}));
  // Box cursors agree (the tombstone hides, the reinsert survives).
  auto cursor = table.NewBoxCursor(Box(Cell(0, 0), Cell(15, 15)));
  const auto streamed = DrainCursor(cursor.get());
  ASSERT_EQ(streamed.size(), 1u);
  EXPECT_EQ(streamed[0].payload, 3u);
  // Deleting outside the universe is refused like inserting.
  EXPECT_EQ(table.Delete(Cell(32, 0)).code(), StatusCode::kOutOfRange);
}

TEST(SfcTableTest, CompactionDropsShadowedVersionsAndUnpinnedTombstones) {
  const Universe universe(2, 32);
  SfcTableOptions options;
  options.memtable_flush_entries = 64;
  auto table_result = CreateTableDb(FreshDir("tombstone_gc"), "hilbert",
                                    universe, options);
  ASSERT_TRUE(table_result.ok());
  auto& table = *table_result.value();
  for (uint64_t i = 0; i < 100; ++i) {
    ASSERT_TRUE(table.Insert(Cell(i % 32, i / 32), i).ok());
  }
  for (uint64_t i = 0; i < 40; ++i) {
    ASSERT_TRUE(table.Delete(Cell(i % 32, i / 32)).ok());
  }
  ASSERT_TRUE(table.Flush().ok());
  // Before the bottom-level merge the segments still hold every version:
  // 100 puts + 40 tombstones.
  EXPECT_EQ(table.size(), 140u);
  // With no snapshot pinning them, a major compaction collects both the
  // shadowed puts and the tombstones themselves.
  ASSERT_TRUE(table.Compact().ok());
  EXPECT_EQ(table.size(), 60u);
  for (uint64_t i = 0; i < 100; ++i) {
    const auto got = table.Get(Cell(i % 32, i / 32));
    ASSERT_TRUE(got.ok());
    if (i < 40) {
      EXPECT_TRUE(got.value().empty()) << i;
    } else {
      EXPECT_EQ(got.value(), (std::vector<uint64_t>{i})) << i;
    }
  }

  // A pinned snapshot blocks the collection: versions it can see survive
  // compaction, and releasing the pin lets the next compaction finish the
  // job.
  auto pinned = table.GetSnapshot();
  ReadOptions at_pin;
  at_pin.snapshot = pinned.get();
  for (uint64_t i = 40; i < 60; ++i) {
    ASSERT_TRUE(table.Delete(Cell(i % 32, i / 32)).ok());
  }
  ASSERT_TRUE(table.Compact().ok());
  // 40 puts now shadowed but pinned: they (and their tombstones) stay.
  EXPECT_EQ(table.size(), 80u);  // 60 puts + 20 tombstones
  for (uint64_t i = 40; i < 60; ++i) {
    EXPECT_EQ(table.Get(Cell(i % 32, i / 32), at_pin).value(),
              (std::vector<uint64_t>{i}))
        << i;
    EXPECT_TRUE(table.Get(Cell(i % 32, i / 32)).value().empty()) << i;
  }
  pinned.reset();  // release the pin
  ASSERT_TRUE(table.Compact().ok());
  EXPECT_EQ(table.size(), 40u);  // fully collected
}

/// Creates a hilbert table over a 32x32 universe in `dir` holding `rows`
/// flushed rows, then closes it.
void BuildFlushedTable(const std::string& dir, uint64_t rows) {
  auto table = CreateTableDb(dir, "hilbert", Universe(2, 32));
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  for (uint64_t i = 0; i < rows; ++i) {
    ASSERT_TRUE(table.value()->Insert(Cell(i % 32, (i / 32) % 32), i).ok());
  }
  ASSERT_TRUE(table.value()->Flush().ok());
  ASSERT_TRUE(table.value()->Close().ok());
}

/// Rewrites the MANIFEST of `dir` line by line through `edit`, which may
/// change a line in place or clear it to drop it. Returns the first line
/// `edit` changed, as written ("" for a dropped line), or nullopt when it
/// changed none.
template <typename Edit>
std::optional<std::string> EditManifest(const std::string& dir,
                                        const Edit& edit) {
  const std::string path = dir + "/MANIFEST";
  std::ifstream in(path);
  std::string text;
  std::optional<std::string> changed;
  for (std::string line; std::getline(in, line);) {
    std::string edited = line;
    edit(&edited);
    if (edited != line && !changed.has_value()) changed = edited;
    if (!edited.empty()) text += edited + "\n";
  }
  in.close();
  std::ofstream(path, std::ios::trunc) << text;
  return changed;
}

TEST(SfcTableTest, UnknownSegmentVersionRejectedAtOpenWithClearStatus) {
  const std::string dir = FreshDir("future_segment");
  BuildFlushedTable(dir, 100);
  std::string file;
  {
    auto table = OpenTableDb(dir);
    ASSERT_TRUE(table.ok()) << table.status().ToString();
    const auto infos = table.value()->SegmentInfos();
    ASSERT_EQ(infos.size(), 1u);
    file = infos[0].file;
    ASSERT_TRUE(table.value()->Close().ok());
  }
  // Stamp the retired versions 1 and 2 and a future 9 into the header of
  // a segment this build wrote: each must be refused by name.
  for (const uint32_t version : {1u, 2u, 9u}) {
    std::FILE* f =
        std::fopen((TableDbDir(dir) + "/" + file).c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    uint8_t version_bytes[4];
    PutU32(version_bytes, version);
    std::fseek(f, 8, SEEK_SET);
    std::fwrite(version_bytes, 1, 4, f);
    std::fclose(f);
    auto opened = OpenTableDb(dir);
    ASSERT_FALSE(opened.ok()) << "version " << version;
    EXPECT_EQ(opened.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(opened.status().ToString().find(
                  "unsupported segment format version " +
                  std::to_string(version)),
              std::string::npos)
        << opened.status().ToString();
  }
}

TEST(SfcTableTest, GarbledManifestIsRejectedWithClearStatus) {
  // Every MANIFEST value must parse in full. A garbled value must fail
  // Open with a Status naming the line — not end the parse early and open
  // a table whose later lines (segments, the sequence fence) were never
  // read. A missing required line and another format version are refused
  // by name too.
  struct Garble {
    std::string field;   // the first line starting with it is edited
    std::string value;   // its first value becomes this; "" drops the line
    std::string expect;  // in the Status; "" means the edited line, quoted
  };
  const Garble garbles[] = {
      {"wal_floor", "x", ""},
      {"next_segment_id", "1x", ""},
      {"last_sequence", "x", ""},
      {"segment", "x", ""},      // the level of the first segment line
      {"segment", "99999", ""},  // a level no table can reach
      {"last_sequence", "", "last_sequence"},
      {"onion-sfc-table", "3", "unsupported manifest version 3"},
  };
  for (const Garble& garble : garbles) {
    const std::string dir =
        FreshDir("garbled_" + garble.field + "_" + garble.value);
    BuildFlushedTable(dir, 500);
    bool done = false;
    const auto changed = EditManifest(TableDbDir(dir), [&](std::string* line) {
      if (done || line->rfind(garble.field + " ", 0) != 0) return;
      done = true;
      if (garble.value.empty()) {
        line->clear();
        return;
      }
      // Replace the first value, keep any that follow.
      const size_t begin = garble.field.size() + 1;
      const size_t end = line->find(' ', begin);
      line->replace(begin, end == std::string::npos ? std::string::npos
                                                     : end - begin,
                    garble.value);
    });
    ASSERT_TRUE(changed.has_value()) << garble.field;
    auto opened = OpenTableDb(dir);
    ASSERT_FALSE(opened.ok())
        << "'" << *changed << "' opened with size " << opened.value()->size();
    EXPECT_EQ(opened.status().code(), StatusCode::kInvalidArgument);
    const std::string expect =
        garble.expect.empty() ? "'" + *changed + "'" : garble.expect;
    EXPECT_NE(opened.status().ToString().find(expect), std::string::npos)
        << opened.status().ToString();
  }
}


// --- A failed MANIFEST install rolls the segment structure back --------
//
// A directory at <table>/MANIFEST.tmp makes the atomic MANIFEST write fail
// ("Is a directory") for every installer alike: flush, background
// compaction and Compact().

/// (level, file) of every live segment, in SegmentInfos() order.
std::vector<std::pair<int, std::string>> Layout(const SfcTable& table) {
  std::vector<std::pair<int, std::string>> layout;
  for (const SegmentInfo& info : table.SegmentInfos()) {
    layout.emplace_back(info.level, info.file);
  }
  return layout;
}

/// Makes every MANIFEST install of the table in `db_dir` fail until the
/// returned path is removed.
std::string BlockManifest(const std::string& db_dir) {
  const std::string blocker = TableDbDir(db_dir) + "/MANIFEST.tmp";
  EXPECT_TRUE(std::filesystem::create_directory(blocker));
  return blocker;
}

/// Reopens the db at `db_dir` and checks it holds exactly `points`.
void ExpectReopenHoldsEverything(const std::string& db_dir,
                                 const std::vector<Cell>& points) {
  auto reopened = OpenTableDb(db_dir);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  SfcTable& table = *reopened.value();
  EXPECT_EQ(table.size(), points.size());
  const Coord side = table.curve().universe().side();
  const Box everything(Cell(0, 0), Cell(side - 1, side - 1));
  EXPECT_EQ(Canonical(table.curve(), CursorQuery(table, everything)),
            BruteForce(table.curve(), points, everything));
}

TEST(SfcTableTest, FailedFlushInstallRollsBackItsSegment) {
  const Universe universe(2, 64);
  const auto points = RandomPoints(universe, 1000, 91);
  const std::string dir = FreshDir("flush_rollback");
  SfcTableOptions options;
  options.memtable_flush_entries = 1 << 20;  // only Flush() rotates
  {
    auto table_db = CreateTableDb(dir, "hilbert", universe, options);
    ASSERT_TRUE(table_db.ok()) << table_db.status().ToString();
    SfcTable& table = *table_db.value();
    for (size_t i = 0; i < 500; ++i) {
      ASSERT_TRUE(table.Insert(points[i], i).ok());
    }
    ASSERT_TRUE(table.Flush().ok());
    for (size_t i = 500; i < points.size(); ++i) {
      ASSERT_TRUE(table.Insert(points[i], i).ok());
    }
    const auto before = Layout(table);
    ASSERT_EQ(before.size(), 1u);

    const std::string blocker = BlockManifest(dir);
    const Status status = table.Flush();
    EXPECT_FALSE(status.ok());
    EXPECT_NE(status.ToString().find("MANIFEST.tmp"), std::string::npos)
        << status.ToString();
    EXPECT_EQ(Layout(table), before);
    std::filesystem::remove(blocker);
  }  // crash semantics: the WAL still holds the second 500 entries
  ExpectReopenHoldsEverything(dir, points);
}

TEST(SfcTableTest, FailedCompactionInstallRollsBackItsVersion) {
  // The flush that fills L0 to the trigger must install, and the
  // compaction it schedules must not: the blocker goes in once that flush
  // has counted itself, while the compaction merges. An attempt whose
  // compaction installs first is repeated on a fresh table.
  const Universe universe(2, 256);
  SfcTableOptions options;
  options.memtable_flush_entries = 10000;
  options.l0_compaction_trigger = 4;
  const auto points = RandomPoints(universe, 4 * 10000, 93);
  bool rolled_back = false;
  for (int attempt = 0; attempt < 5 && !rolled_back; ++attempt) {
    const std::string dir =
        FreshDir("compaction_rollback_" + std::to_string(attempt));
    {
      auto table_db = CreateTableDb(dir, "hilbert", universe, options);
      ASSERT_TRUE(table_db.ok()) << table_db.status().ToString();
      SfcTable& table = *table_db.value();
      const size_t three_runs = 3 * options.memtable_flush_entries;
      for (size_t i = 0; i < three_runs; ++i) {
        ASSERT_TRUE(table.Insert(points[i], i).ok());
      }
      ASSERT_TRUE(table.Flush().ok());
      ASSERT_EQ(table.num_segments(), 3u);
      for (size_t i = three_runs; i < points.size(); ++i) {
        ASSERT_TRUE(table.Insert(points[i], i).ok());
      }
      Status status;
      std::thread flusher([&] { status = table.Flush(); });
      const obs::Counter* flushes = table.metrics().counter("flush.count");
      while (flushes->value() < 4) std::this_thread::yield();
      const auto before = Layout(table);
      const std::string blocker = BlockManifest(dir);
      flusher.join();
      if (status.ok() || before.size() != 4 || before.back().first != 0) {
        continue;  // the compaction installed before the blocker
      }
      rolled_back = true;
      EXPECT_NE(status.ToString().find("MANIFEST.tmp"), std::string::npos)
          << status.ToString();
      EXPECT_EQ(Layout(table), before);
      std::filesystem::remove(blocker);
    }
    ExpectReopenHoldsEverything(dir, points);
  }
  EXPECT_TRUE(rolled_back);
}

TEST(SfcTableTest, FailedCompactInstallRollsBackAndRetrySucceeds) {
  // Five flushed runs with a trigger of three: the first three compact
  // into level-1 segments of at most 250 entries, the last two stay on L0,
  // so the rollback must return inputs to more than one level.
  const Universe universe(2, 64);
  const auto points = RandomPoints(universe, 5 * 200, 95);
  SfcTableOptions options;
  options.entries_per_page = 32;
  options.memtable_flush_entries = 1 << 20;  // only Flush() rotates
  options.l0_compaction_trigger = 3;
  options.level_segment_entries = 250;
  const std::string dir = FreshDir("compact_rollback");
  auto table_db = CreateTableDb(dir, "hilbert", universe, options);
  ASSERT_TRUE(table_db.ok()) << table_db.status().ToString();
  SfcTable& table = *table_db.value();
  for (size_t i = 0; i < points.size(); ++i) {
    ASSERT_TRUE(table.Insert(points[i], i).ok());
    if ((i + 1) % 200 == 0) {
      ASSERT_TRUE(table.Flush().ok());
    }
  }
  const auto before = Layout(table);
  ASSERT_GT(before.size(), 3u);
  ASSERT_EQ(before.front().first, 0);  // L0 and a deeper level both live
  ASSERT_EQ(before.back().first, 1);
  const Box everything(Cell(0, 0), Cell(63, 63));
  const Box corner(Cell(5, 7), Cell(30, 41));
  const auto all_before =
      Canonical(table.curve(), CursorQuery(table, everything));
  const auto corner_before =
      Canonical(table.curve(), CursorQuery(table, corner));
  ASSERT_EQ(all_before, BruteForce(table.curve(), points, everything));

  const std::string blocker = BlockManifest(dir);
  const Status status = table.Compact();
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.ToString().find("MANIFEST.tmp"), std::string::npos)
      << status.ToString();
  EXPECT_EQ(Layout(table), before);
  // Compact() sets no background error: reads go on, unchanged.
  EXPECT_EQ(Canonical(table.curve(), CursorQuery(table, everything)),
            all_before);
  EXPECT_EQ(Canonical(table.curve(), CursorQuery(table, corner)),
            corner_before);

  std::filesystem::remove(blocker);
  ASSERT_TRUE(table.Compact().ok());
  EXPECT_EQ(table.num_segments(), 1u);
  EXPECT_EQ(Canonical(table.curve(), CursorQuery(table, everything)),
            all_before);
}

}  // namespace
}  // namespace onion::storage
