// Secondary-index tests: randomized equivalence between index-cursor
// queries and brute-force base scans across flush/compaction/reopen and
// three index curves, crash consistency of the base+index WriteBatch
// expansion (hard _Exit mid-stream, then WAL loss on either side),
// AdviseCurve/MigrateIndexCurve, catalog lifecycle and validation, read
// budgets and snapshot reads, and a concurrency smoke for TSan.

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "storage/index_spec.h"
#include "storage/sfc_db.h"

namespace onion::storage {
namespace {

std::string FreshDir(const std::string& name) {
  const std::string dir =
      ::testing::TempDir() + "/secondary_index_test/" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

/// A base row as (base curve key, payload) — the canonical form both the
/// index path and the brute-force path are reduced to before comparison.
using Row = std::pair<Key, uint64_t>;

/// Drains an index cursor into sorted rows, additionally asserting the
/// delivery order is nondecreasing in the INDEX curve key (the documented
/// contract of NewIndexCursor).
std::vector<Row> DrainIndexCursor(Cursor* cursor, const SfcTable& base,
                                  const SfcTable& index,
                                  const IndexExtractor& extractor) {
  std::vector<Row> rows;
  Key prev_key = 0;
  bool have_prev = false;
  for (; cursor->Valid(); cursor->Next()) {
    const SpatialEntry& e = cursor->entry();
    const Cell index_cell = extractor.map(e.cell, base.curve().universe());
    const Key index_key = index.curve().IndexOf(index_cell);
    if (have_prev) {
      EXPECT_GE(index_key, prev_key);
    }
    prev_key = index_key;
    have_prev = true;
    rows.emplace_back(base.curve().IndexOf(e.cell), e.payload);
  }
  EXPECT_TRUE(cursor->status().ok()) << cursor->status().ToString();
  std::sort(rows.begin(), rows.end());
  return rows;
}

/// Ground truth: full base scan filtered by `box` in index-cell space.
std::vector<Row> BruteForceIndexQuery(SfcTable* base,
                                      const IndexExtractor& extractor,
                                      const Box& box) {
  std::vector<Row> rows;
  auto cursor = base->NewScanCursor();
  for (; cursor->Valid(); cursor->Next()) {
    const SpatialEntry& e = cursor->entry();
    if (box.Contains(extractor.map(e.cell, base->curve().universe()))) {
      rows.emplace_back(base->curve().IndexOf(e.cell), e.payload);
    }
  }
  EXPECT_TRUE(cursor->status().ok()) << cursor->status().ToString();
  std::sort(rows.begin(), rows.end());
  return rows;
}

void ExpectIndexMatchesBruteForce(SfcDb& db, const std::string& table,
                                  const std::string& index,
                                  const std::string& extractor_name,
                                  const Box& box) {
  SCOPED_TRACE("box " + box.ToString());
  auto base = db.OpenTable(table);
  ASSERT_TRUE(base.ok()) << base.status().ToString();
  auto index_table = db.IndexTable(table, index);
  ASSERT_TRUE(index_table.ok()) << index_table.status().ToString();
  const IndexExtractor* extractor = FindIndexExtractor(extractor_name);
  ASSERT_NE(extractor, nullptr);
  auto cursor = db.NewIndexCursor(table, index, box);
  const auto got =
      DrainIndexCursor(cursor.get(), *base.value(), *index_table.value(),
                       *extractor);
  const auto want = BruteForceIndexQuery(base.value(), *extractor, box);
  EXPECT_EQ(got, want);
}

/// Applies `n` random ops (~20% deletes, coordinates drawn from the full
/// side so overwrites and delete-hits occur) in batches of 1..8 through
/// SfcDb::Write, the only legal write path for indexed tables.
void ApplyRandomOps(SfcDb& db, const std::string& table, Rng& rng, int n,
                    Coord side) {
  while (n > 0) {
    WriteBatch batch;
    const int ops = 1 + static_cast<int>(rng.UniformInclusive(7));
    for (int i = 0; i < ops && n > 0; ++i, --n) {
      const Cell cell(static_cast<Coord>(rng.UniformInclusive(side - 1)),
                      static_cast<Coord>(rng.UniformInclusive(side - 1)));
      if (rng.UniformInclusive(9) < 2) {
        batch.Delete(table, cell);
      } else {
        batch.Put(table, cell, rng.Next() % 1000);
      }
    }
    ASSERT_TRUE(db.Write(std::move(batch)).ok());
  }
}

Box RandomBox(Rng& rng, Coord side) {
  const auto lo_x = static_cast<Coord>(rng.UniformInclusive(side - 1));
  const auto lo_y = static_cast<Coord>(rng.UniformInclusive(side - 1));
  const auto hi_x = std::min<Coord>(
      side - 1, lo_x + static_cast<Coord>(rng.UniformInclusive(side / 2)));
  const auto hi_y = std::min<Coord>(
      side - 1, lo_y + static_cast<Coord>(rng.UniformInclusive(side / 2)));
  return Box(Cell(lo_x, lo_y), Cell(hi_x, hi_y));
}

// --- Satellite 1: randomized equivalence across three index curves, at
// every lifecycle stage (memtable-only, flushed, compacted, reopened).

TEST(SecondaryIndexTest, EquivalenceAcrossCurvesAndLifecycles) {
  const Coord kSide = 32;  // power of two: valid for zorder and hilbert
  const Universe universe(2, kSide);
  const char* kCurves[] = {"zorder", "hilbert", "row_major"};
  for (const char* curve : kCurves) {
    SCOPED_TRACE(std::string("index curve ") + curve);
    const std::string dir = FreshDir(std::string("equiv_") + curve);
    SfcDbOptions options;
    options.table_options.memtable_flush_entries = 128;

    auto check_boxes = [&](SfcDb& db, Rng& rng) {
      ExpectIndexMatchesBruteForce(
          db, "t", "ix", "swap_xy",
          Box(Cell(0, 0), Cell(kSide - 1, kSide - 1)));
      for (int i = 0; i < 8; ++i) {
        ExpectIndexMatchesBruteForce(db, "t", "ix", "swap_xy",
                                     RandomBox(rng, kSide));
      }
    };

    Rng rng(0x5eed0000 + static_cast<uint64_t>(curve[0]));
    {
      auto db_result = SfcDb::Open(dir, options);
      ASSERT_TRUE(db_result.ok()) << db_result.status().ToString();
      auto& db = *db_result.value();
      ASSERT_TRUE(db.CreateTable("t", "onion", universe).ok());

      // Data written BEFORE the index exists exercises the backfill.
      ApplyRandomOps(db, "t", rng, 400, kSide);
      ASSERT_TRUE(db.CreateIndex("t", {"ix", "swap_xy", curve}).ok());
      check_boxes(db, rng);

      // Incremental maintenance through Write, still memtable-resident.
      ApplyRandomOps(db, "t", rng, 400, kSide);
      check_boxes(db, rng);

      // Flushed and compacted on both sides.
      ASSERT_TRUE(db.GetTable("t")->Flush().ok());
      auto index_table = db.IndexTable("t", "ix");
      ASSERT_TRUE(index_table.ok());
      ASSERT_TRUE(index_table.value()->Flush().ok());
      check_boxes(db, rng);
      ASSERT_TRUE(db.GetTable("t")->Compact().ok());
      ASSERT_TRUE(index_table.value()->Compact().ok());
      check_boxes(db, rng);
      ASSERT_TRUE(db.Close().ok());
    }
    {
      auto db_result = SfcDb::Open(dir, options);
      ASSERT_TRUE(db_result.ok()) << db_result.status().ToString();
      auto& db = *db_result.value();
      check_boxes(db, rng);
      ApplyRandomOps(db, "t", rng, 200, kSide);
      check_boxes(db, rng);
      ASSERT_TRUE(db.Close().ok());
    }
  }
}

// --- Satellite 2: crash consistency. A child process commits WriteBatches
// against an indexed table and hard-exits without Close(); the parent then
// destroys one side's WAL files and asserts recovery reconstructs BOTH
// sides to the full committed state, agreeing entry for entry.

constexpr uint64_t kCrashBatches = 30;
constexpr Coord kCrashSide = 16;

void CrashChildWriteAndExit(const std::string& dir) {
  auto db_result = SfcDb::Open(dir);
  if (!db_result.ok()) std::_Exit(2);
  auto& db = *db_result.value();
  const Universe universe(2, kCrashSide);
  if (!db.CreateTable("t", "onion", universe).ok()) std::_Exit(3);
  if (!db.CreateIndex("t", {"ix", "cell", "zorder"}).ok()) std::_Exit(4);
  for (uint64_t i = 0; i < kCrashBatches; ++i) {
    WriteBatch batch;
    batch.Put("t", Cell(i % kCrashSide, (i * 7) % kCrashSide), 100 + i);
    if (i % 5 == 4) {
      batch.Delete("t", Cell((i + 2) % kCrashSide,
                             ((i + 2) * 7) % kCrashSide));
    }
    if (!db.Write(std::move(batch)).ok()) std::_Exit(5);
  }
  std::_Exit(0);  // hard crash: no Close, no flush
}

/// The state the child committed, replayed by the same op semantics
/// (Delete drops every payload at the cell).
std::map<std::pair<Coord, Coord>, std::vector<uint64_t>> CrashExpectedState() {
  std::map<std::pair<Coord, Coord>, std::vector<uint64_t>> state;
  for (uint64_t i = 0; i < kCrashBatches; ++i) {
    state[{static_cast<Coord>(i % kCrashSide),
           static_cast<Coord>((i * 7) % kCrashSide)}]
        .push_back(100 + i);
    if (i % 5 == 4) {
      state[{static_cast<Coord>((i + 2) % kCrashSide),
             static_cast<Coord>(((i + 2) * 7) % kCrashSide)}]
          .clear();
    }
  }
  return state;
}

void RunCrashTest(const std::string& dir, const std::string& strip_subdir) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  ASSERT_EXIT(CrashChildWriteAndExit(dir), ::testing::ExitedWithCode(0), "");

  // Destroy one side's WAL files: recovery must rebuild that side from the
  // batch journal so base and index stay in lockstep.
  size_t removed = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(dir + "/" + strip_subdir)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("wal_", 0) == 0) {
      std::filesystem::remove(entry.path());
      ++removed;
    }
  }
  ASSERT_GT(removed, 0u);

  auto db_result = SfcDb::Open(dir);
  ASSERT_TRUE(db_result.ok()) << db_result.status().ToString();
  auto& db = *db_result.value();
  auto base = db.OpenTable("t");
  ASSERT_TRUE(base.ok()) << base.status().ToString();
  auto index_table = db.IndexTable("t", "ix");
  ASSERT_TRUE(index_table.ok()) << index_table.status().ToString();

  // Base table recovered to exactly the committed state.
  const auto want_state = CrashExpectedState();
  std::vector<Row> want_rows;
  for (const auto& [xy, payloads] : want_state) {
    for (const uint64_t payload : payloads) {
      want_rows.emplace_back(
          base.value()->curve().IndexOf(Cell(xy.first, xy.second)), payload);
    }
  }
  std::sort(want_rows.begin(), want_rows.end());
  {
    std::vector<Row> got_rows;
    auto cursor = base.value()->NewScanCursor();
    for (; cursor->Valid(); cursor->Next()) {
      got_rows.emplace_back(base.value()->curve().IndexOf(cursor->entry().cell),
                            cursor->entry().payload);
    }
    ASSERT_TRUE(cursor->status().ok()) << cursor->status().ToString();
    std::sort(got_rows.begin(), got_rows.end());
    EXPECT_EQ(got_rows, want_rows);
  }

  // Raw index contents agree with the base entry for entry: one index
  // entry per base row, at extractor(cell) under the index curve, whose
  // payload is the base row's curve key.
  const IndexExtractor* extractor = FindIndexExtractor("cell");
  ASSERT_NE(extractor, nullptr);
  std::vector<Row> want_index;
  {
    auto cursor = base.value()->NewScanCursor();
    for (; cursor->Valid(); cursor->Next()) {
      const SpatialEntry& e = cursor->entry();
      const Cell index_cell =
          extractor->map(e.cell, base.value()->curve().universe());
      want_index.emplace_back(index_table.value()->curve().IndexOf(index_cell),
                              base.value()->curve().IndexOf(e.cell));
    }
    ASSERT_TRUE(cursor->status().ok());
  }
  std::vector<Row> got_index;
  {
    auto cursor = index_table.value()->NewScanCursor();
    for (; cursor->Valid(); cursor->Next()) {
      got_index.emplace_back(
          index_table.value()->curve().IndexOf(cursor->entry().cell),
          cursor->entry().payload);
    }
    ASSERT_TRUE(cursor->status().ok()) << cursor->status().ToString();
  }
  std::sort(want_index.begin(), want_index.end());
  std::sort(got_index.begin(), got_index.end());
  EXPECT_EQ(got_index, want_index);

  // And the query path over the recovered pair returns the committed rows.
  ExpectIndexMatchesBruteForce(
      db, "t", "ix", "cell",
      Box(Cell(0, 0), Cell(kCrashSide - 1, kCrashSide - 1)));
  ASSERT_TRUE(db.Close().ok());
}

TEST(SecondaryIndexTest, CrashRecoveryAfterIndexWalLoss) {
  RunCrashTest(FreshDir("crash_index_wal"), "t__idx__ix");
}

TEST(SecondaryIndexTest, CrashRecoveryAfterBaseWalLoss) {
  RunCrashTest(FreshDir("crash_base_wal"), "t");
}

// --- Tentpole: curve advice from the observed workload, and migration.

TEST(SecondaryIndexTest, AdviseCurveAndMigrate) {
  const Coord kSide = 16;
  const Universe universe(2, kSide);
  const std::string dir = FreshDir("advise");
  auto db_result = SfcDb::Open(dir);
  ASSERT_TRUE(db_result.ok()) << db_result.status().ToString();
  auto& db = *db_result.value();
  ASSERT_TRUE(db.CreateTable("t", "onion", universe).ok());
  ASSERT_TRUE(db.CreateIndex("t", {"ix", "cell", "zorder"}).ok());

  Rng rng(20260808);
  ApplyRandomOps(db, "t", rng, 300, kSide);

  // No queries served yet and no boxes passed: nothing to advise on.
  EXPECT_EQ(db.AdviseCurve("t", "ix").status().code(),
            StatusCode::kInvalidArgument);

  // Serve full-width height-2 strips — the workload a row-linear curve
  // answers in exactly one cluster.
  for (Coord y = 0; y + 1 < kSide; y += 2) {
    auto cursor = db.NewIndexCursor(
        "t", "ix", Box(Cell(0, y), Cell(kSide - 1, y + 1)));
    while (cursor->Valid()) cursor->Next();
    ASSERT_TRUE(cursor->status().ok()) << cursor->status().ToString();
  }
  auto advice = db.AdviseCurve("t", "ix");
  ASSERT_TRUE(advice.ok()) << advice.status().ToString();
  EXPECT_TRUE(advice.value().recommended == "row_major" ||
              advice.value().recommended == "snake")
      << advice.value().recommended;
  ASSERT_FALSE(advice.value().ranked.empty());
  EXPECT_DOUBLE_EQ(advice.value().ranked.front().avg_clusters, 1.0);
  for (size_t i = 1; i < advice.value().ranked.size(); ++i) {
    EXPECT_LE(advice.value().ranked[i - 1].modeled_ms_per_query,
              advice.value().ranked[i].modeled_ms_per_query);
  }

  // Explicit boxes override the recorded ring: full-height width-2 strips
  // make column_major the unique single-cluster answer.
  std::vector<Box> columns;
  for (Coord x = 0; x + 1 < kSide; x += 2) {
    columns.push_back(Box(Cell(x, 0), Cell(x + 1, kSide - 1)));
  }
  auto column_advice = db.AdviseCurve("t", "ix", columns);
  ASSERT_TRUE(column_advice.ok()) << column_advice.status().ToString();
  EXPECT_EQ(column_advice.value().recommended, "column_major");

  // Migrate to the row recommendation and verify the rebuilt index still
  // answers every query identically.
  const std::string new_curve = advice.value().recommended;
  ASSERT_TRUE(db.MigrateIndexCurve("t", "ix", new_curve).ok());
  auto specs = db.ListIndexes("t");
  ASSERT_EQ(specs.size(), 1u);
  EXPECT_EQ(specs[0].curve, new_curve);
  auto index_table = db.IndexTable("t", "ix");
  ASSERT_TRUE(index_table.ok());
  EXPECT_EQ(index_table.value()->curve().name(), new_curve);
  EXPECT_FALSE(std::filesystem::exists(dir + "/t__idx__ix"));
  ExpectIndexMatchesBruteForce(db, "t", "ix", "cell",
                               Box(Cell(0, 0), Cell(kSide - 1, kSide - 1)));
  for (int i = 0; i < 6; ++i) {
    ExpectIndexMatchesBruteForce(db, "t", "ix", "cell",
                                 RandomBox(rng, kSide));
  }

  // Maintenance continues on the migrated generation; a migration to the
  // current curve is a no-op.
  ApplyRandomOps(db, "t", rng, 100, kSide);
  ASSERT_TRUE(db.MigrateIndexCurve("t", "ix", new_curve).ok());
  ExpectIndexMatchesBruteForce(db, "t", "ix", "cell",
                               Box(Cell(0, 0), Cell(kSide - 1, kSide - 1)));
  ASSERT_TRUE(db.Close().ok());

  // The migrated curve is what the catalog remembers.
  auto reopened = SfcDb::Open(dir);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  auto& db2 = *reopened.value();
  auto specs2 = db2.ListIndexes("t");
  ASSERT_EQ(specs2.size(), 1u);
  EXPECT_EQ(specs2[0].curve, new_curve);
  ExpectIndexMatchesBruteForce(db2, "t", "ix", "cell",
                               Box(Cell(0, 0), Cell(kSide - 1, kSide - 1)));
  ASSERT_TRUE(db2.Close().ok());
}

// --- Catalog lifecycle and validation.

TEST(SecondaryIndexTest, CatalogLifecycleAndValidation) {
  const Universe universe(2, 16);
  const std::string dir = FreshDir("catalog");
  auto db_result = SfcDb::Open(dir);
  ASSERT_TRUE(db_result.ok()) << db_result.status().ToString();
  auto& db = *db_result.value();
  ASSERT_TRUE(db.CreateTable("t", "onion", universe).ok());

  // Hidden-directory infix is reserved.
  EXPECT_EQ(db.CreateTable("a__idx__b", "onion", universe).status().code(),
            StatusCode::kInvalidArgument);

  EXPECT_EQ(db.CreateIndex("missing", {"ix", "cell", "zorder"}).code(),
            StatusCode::kNotFound);
  EXPECT_EQ(db.CreateIndex("t", {"bad name", "cell", "zorder"}).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(db.CreateIndex("t", {"ix", "no_such_extractor", "zorder"}).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(db.CreateIndex("t", {"ix", "cell", "no_such_curve"}).code(),
            StatusCode::kInvalidArgument);

  ASSERT_TRUE(db.CreateIndex("t", {"ix", "cell", "zorder"}).ok());
  EXPECT_EQ(db.CreateIndex("t", {"ix", "cell", "hilbert"}).code(),
            StatusCode::kInvalidArgument);  // duplicate name
  ASSERT_TRUE(db.CreateIndex("t", {"mirror", "mirror_x", "hilbert"}).ok());

  // An extractor with min_dims above the base universe is refused.
  ASSERT_TRUE(db.CreateTable("line", "row_major", Universe(1, 64)).ok());
  EXPECT_EQ(db.CreateIndex("line", {"ix", "swap_xy", "row_major"}).code(),
            StatusCode::kInvalidArgument);

  // The hidden directory is not reachable through the public table API.
  EXPECT_TRUE(std::filesystem::exists(dir + "/t__idx__ix"));
  EXPECT_EQ(db.OpenTable("t__idx__ix").status().code(), StatusCode::kNotFound);
  const auto tables = db.ListTables();
  EXPECT_EQ(std::count(tables.begin(), tables.end(), "t__idx__ix"), 0);

  auto specs = db.ListIndexes("t");
  ASSERT_EQ(specs.size(), 2u);  // creation order
  EXPECT_EQ(specs[0].name, "ix");
  EXPECT_EQ(specs[1].name, "mirror");
  EXPECT_TRUE(db.ListIndexes("missing").empty());
  ASSERT_TRUE(db.Close().ok());

  // Specs survive reopen; both indexes keep answering queries.
  auto reopened = SfcDb::Open(dir);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  auto& db2 = *reopened.value();
  auto specs2 = db2.ListIndexes("t");
  ASSERT_EQ(specs2.size(), 2u);
  EXPECT_EQ(specs2[0].name, "ix");
  EXPECT_EQ(specs2[0].extractor, "cell");
  EXPECT_EQ(specs2[0].curve, "zorder");
  EXPECT_EQ(specs2[1].name, "mirror");
  EXPECT_EQ(specs2[1].extractor, "mirror_x");
  EXPECT_EQ(specs2[1].curve, "hilbert");

  Rng rng(77);
  ApplyRandomOps(db2, "t", rng, 100, 16);
  ExpectIndexMatchesBruteForce(db2, "t", "ix", "cell",
                               Box(Cell(0, 0), Cell(15, 15)));
  ExpectIndexMatchesBruteForce(db2, "t", "mirror", "mirror_x",
                               Box(Cell(0, 0), Cell(15, 15)));

  // DropIndex removes the directory and stops maintenance; the remaining
  // index and the base keep working.
  ASSERT_TRUE(db2.DropIndex("t", "ix").ok());
  EXPECT_FALSE(std::filesystem::exists(dir + "/t__idx__ix"));
  EXPECT_EQ(db2.DropIndex("t", "ix").code(), StatusCode::kNotFound);
  EXPECT_EQ(db2.DropIndex("missing", "ix").code(), StatusCode::kNotFound);
  ASSERT_EQ(db2.ListIndexes("t").size(), 1u);
  {
    auto cursor = db2.NewIndexCursor("t", "ix", Box(Cell(0, 0), Cell(3, 3)));
    EXPECT_FALSE(cursor->Valid());
    EXPECT_EQ(cursor->status().code(), StatusCode::kNotFound);
  }
  ApplyRandomOps(db2, "t", rng, 50, 16);
  ExpectIndexMatchesBruteForce(db2, "t", "mirror", "mirror_x",
                               Box(Cell(0, 0), Cell(15, 15)));

  // DropTable takes its index directories with it.
  ASSERT_TRUE(db2.DropTable("t").ok());
  EXPECT_FALSE(std::filesystem::exists(dir + "/t"));
  EXPECT_FALSE(std::filesystem::exists(dir + "/t__idx__mirror"));
  EXPECT_TRUE(db2.ListIndexes("t").empty());
  ASSERT_TRUE(db2.Close().ok());
}

// --- Read budgets, snapshot reads, and the metric counters.

TEST(SecondaryIndexTest, LimitSnapshotAndMetrics) {
  const Coord kSide = 16;
  const Universe universe(2, kSide);
  const std::string dir = FreshDir("limits");
  auto db_result = SfcDb::Open(dir);
  ASSERT_TRUE(db_result.ok()) << db_result.status().ToString();
  auto& db = *db_result.value();
  ASSERT_TRUE(db.CreateTable("t", "onion", universe).ok());
  ASSERT_TRUE(db.CreateIndex("t", {"ix", "cell", "hilbert"}).ok());

  // 64 distinct rows in the lower-left quadrant.
  WriteBatch load;
  for (Coord x = 0; x < 8; ++x) {
    for (Coord y = 0; y < 8; ++y) load.Put("t", Cell(x, y), x * 100 + y);
  }
  ASSERT_TRUE(db.Write(std::move(load)).ok());
  const Box all(Cell(0, 0), Cell(kSide - 1, kSide - 1));

  {
    IndexReadOptions options;
    options.limit = 10;
    auto cursor = db.NewIndexCursor("t", "ix", all, options);
    uint64_t delivered = 0;
    for (; cursor->Valid(); cursor->Next()) ++delivered;
    EXPECT_TRUE(cursor->status().ok()) << cursor->status().ToString();
    EXPECT_EQ(delivered, 10u);
    EXPECT_TRUE(cursor->hit_read_budget());
  }

  // A cross-table snapshot freezes what the index cursor resolves.
  auto snapshot = db.GetSnapshot();
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  WriteBatch more;
  for (Coord x = 8; x < 12; ++x) more.Put("t", Cell(x, 0), 9000 + x);
  ASSERT_TRUE(db.Write(std::move(more)).ok());
  auto count_rows = [&](const IndexReadOptions& options) {
    auto cursor = db.NewIndexCursor("t", "ix", all, options);
    uint64_t n = 0;
    for (; cursor->Valid(); cursor->Next()) ++n;
    EXPECT_TRUE(cursor->status().ok()) << cursor->status().ToString();
    return n;
  };
  IndexReadOptions pinned;
  pinned.snapshot = snapshot.value();
  EXPECT_EQ(count_rows(pinned), 64u);
  EXPECT_EQ(count_rows(IndexReadOptions{}), 68u);

  // Query and resolution counters moved; nothing dangled.
  EXPECT_GT(db.metrics().counter("index.queries")->value(), 0u);
  EXPECT_GT(db.metrics().counter("index.rows_resolved")->value(), 0u);
  EXPECT_EQ(db.metrics().counter("index.dangling_entries")->value(), 0u);

  // Out-of-universe boxes surface as an error cursor, not a crash.
  {
    auto cursor = db.NewIndexCursor(
        "t", "ix", Box(Cell(0, 0), Cell(kSide, kSide)));
    EXPECT_FALSE(cursor->Valid());
    EXPECT_FALSE(cursor->status().ok());
  }
  ASSERT_TRUE(db.Close().ok());
}

// --- Concurrency smoke (runs under TSan in CI): concurrent WriteBatches
// on an indexed table against concurrent index readers.

TEST(SecondaryIndexTest, ConcurrentWritesAndIndexReads) {
  const Coord kSide = 32;
  const Universe universe(2, kSide);
  const std::string dir = FreshDir("concurrent");
  SfcDbOptions options;
  options.table_options.memtable_flush_entries = 256;
  auto db_result = SfcDb::Open(dir, options);
  ASSERT_TRUE(db_result.ok()) << db_result.status().ToString();
  auto& db = *db_result.value();
  ASSERT_TRUE(db.CreateTable("t", "onion", universe).ok());
  ASSERT_TRUE(db.CreateIndex("t", {"ix", "swap_xy", "zorder"}).ok());

  std::atomic<bool> writes_ok{true};
  std::atomic<bool> reads_ok{true};
  std::vector<std::thread> threads;
  for (int w = 0; w < 2; ++w) {
    threads.emplace_back([&db, &writes_ok, w] {
      Rng rng(1000 + w);
      for (int i = 0; i < 150 && writes_ok.load(); ++i) {
        WriteBatch batch;
        for (int op = 0; op < 4; ++op) {
          batch.Put("t",
                    Cell(static_cast<Coord>(rng.UniformInclusive(kSide - 1)),
                         static_cast<Coord>(rng.UniformInclusive(kSide - 1))),
                    static_cast<uint64_t>(w) * 1000000 + i);
        }
        batch.Delete(
            "t", Cell(static_cast<Coord>(rng.UniformInclusive(kSide - 1)),
                      static_cast<Coord>(rng.UniformInclusive(kSide - 1))));
        if (!db.Write(std::move(batch)).ok()) writes_ok.store(false);
      }
    });
  }
  for (int r = 0; r < 2; ++r) {
    threads.emplace_back([&db, &reads_ok, r] {
      Rng rng(2000 + r);
      for (int i = 0; i < 40 && reads_ok.load(); ++i) {
        auto cursor = db.NewIndexCursor("t", "ix", RandomBox(rng, kSide));
        while (cursor->Valid()) cursor->Next();
        if (!cursor->status().ok()) reads_ok.store(false);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_TRUE(writes_ok.load());
  EXPECT_TRUE(reads_ok.load());

  // After the dust settles the index agrees with the base exactly.
  ExpectIndexMatchesBruteForce(db, "t", "ix", "swap_xy",
                               Box(Cell(0, 0), Cell(kSide - 1, kSide - 1)));
  ASSERT_TRUE(db.Close().ok());
}

}  // namespace
}  // namespace onion::storage
