// SfcDb catalog tests: create/open/drop/list lifecycle, catalog
// persistence across reopen, shared-pool I/O attribution staying
// per-table, the shared worker pool flushing many tables, orphan GC,
// option/name validation, and refusal of catalog versions this build does
// not write.

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "storage/sfc_db.h"
#include "workloads/generators.h"

namespace onion::storage {
namespace {

std::string FreshDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/sfc_db_test/" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

TEST(SfcDbTest, CreateListGetDropLifecycle) {
  const std::string dir = FreshDir("lifecycle");
  auto db_result = SfcDb::Open(dir);
  ASSERT_TRUE(db_result.ok()) << db_result.status().ToString();
  auto& db = *db_result.value();
  EXPECT_TRUE(db.ListTables().empty());

  const Universe universe(2, 32);
  auto beta = db.CreateTable("beta", "hilbert", universe);
  auto alpha = db.CreateTable("alpha", "onion", universe);
  ASSERT_TRUE(beta.ok()) << beta.status().ToString();
  ASSERT_TRUE(alpha.ok());
  EXPECT_EQ(db.ListTables(), (std::vector<std::string>{"alpha", "beta"}));
  EXPECT_EQ(db.GetTable("alpha"), alpha.value());
  EXPECT_EQ(db.GetTable("beta"), beta.value());
  EXPECT_EQ(db.GetTable("gamma"), nullptr);
  EXPECT_EQ(alpha.value()->curve().name(), "onion");

  // Same name twice is refused; the original handle stays valid.
  auto dup = db.CreateTable("alpha", "zorder", universe);
  EXPECT_EQ(dup.status().code(), StatusCode::kInvalidArgument);

  ASSERT_TRUE(db.DropTable("alpha").ok());
  EXPECT_EQ(db.ListTables(), (std::vector<std::string>{"beta"}));
  EXPECT_EQ(db.GetTable("alpha"), nullptr);
  EXPECT_FALSE(std::filesystem::exists(dir + "/alpha"));
  EXPECT_EQ(db.DropTable("alpha").code(), StatusCode::kNotFound);
  // The name is reusable after a drop.
  EXPECT_TRUE(db.CreateTable("alpha", "zorder", universe).ok());
}

TEST(SfcDbTest, CatalogSurvivesReopen) {
  const std::string dir = FreshDir("reopen");
  const Universe universe(2, 64);
  const auto points = RandomPoints(universe, 2000, 311);
  {
    auto db_result = SfcDb::Open(dir);
    ASSERT_TRUE(db_result.ok());
    auto& db = *db_result.value();
    SfcTableOptions options;
    options.memtable_flush_entries = 300;
    auto table = db.CreateTable("points", "hilbert", universe, options);
    ASSERT_TRUE(table.ok());
    for (size_t i = 0; i < points.size(); ++i) {
      ASSERT_TRUE(table.value()->Insert(points[i], i).ok());
    }
    ASSERT_TRUE(db.Close().ok());
  }
  auto db_result = SfcDb::Open(dir);
  ASSERT_TRUE(db_result.ok()) << db_result.status().ToString();
  auto& db = *db_result.value();
  EXPECT_EQ(db.ListTables(), (std::vector<std::string>{"points"}));
  EXPECT_EQ(db.GetTable("points"), nullptr);  // not opened eagerly
  auto table = db.OpenTable("points");
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  EXPECT_EQ(table.value()->size(), points.size());
  EXPECT_EQ(table.value()->curve().name(), "hilbert");
  // OpenTable is idempotent: same handle back.
  EXPECT_EQ(db.OpenTable("points").value(), table.value());
  EXPECT_EQ(db.OpenTable("nope").status().code(), StatusCode::kNotFound);
}

TEST(SfcDbTest, OlderCatalogVersionRejectedWithClearStatus) {
  const std::string dir = FreshDir("catalog_v1");
  {
    auto db = SfcDb::Open(dir);
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE(
        db.value()->CreateTable("keep", "onion", Universe(2, 32)).ok());
    ASSERT_TRUE(db.value()->Close().ok());
  }
  // Stamp the retired version 1 over the header line this build wrote.
  std::ifstream in(dir + "/CATALOG");
  std::string header;
  std::getline(in, header);
  ASSERT_EQ(header, "onion-sfc-db 2");
  const std::string rest((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  in.close();
  std::ofstream(dir + "/CATALOG", std::ios::trunc)
      << "onion-sfc-db 1\n" << rest;
  auto db = SfcDb::Open(dir);
  ASSERT_FALSE(db.ok());
  EXPECT_EQ(db.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(db.status().ToString().find("unsupported catalog version 1"),
            std::string::npos)
      << db.status().ToString();
}

TEST(SfcDbTest, SharedPoolKeepsPerTableIoStatsIsolated) {
  const std::string dir = FreshDir("io_isolation");
  SfcDbOptions db_options;
  db_options.pool_pages = 64;  // one pool for both tables
  auto db_result = SfcDb::Open(dir, db_options);
  ASSERT_TRUE(db_result.ok());
  auto& db = *db_result.value();

  const Universe universe(2, 64);
  const auto points = RandomPoints(universe, 4000, 331);
  SfcTableOptions options;
  options.entries_per_page = 32;
  options.memtable_flush_entries = 1000;
  auto hot = db.CreateTable("hot", "hilbert", universe, options);
  auto cold = db.CreateTable("cold", "hilbert", universe, options);
  ASSERT_TRUE(hot.ok());
  ASSERT_TRUE(cold.ok());
  for (size_t i = 0; i < points.size(); ++i) {
    ASSERT_TRUE(hot.value()->Insert(points[i], i).ok());
    ASSERT_TRUE(cold.value()->Insert(points[i], i).ok());
  }
  ASSERT_TRUE(hot.value()->Flush().ok());
  ASSERT_TRUE(cold.value()->Flush().ok());

  hot.value()->ResetStats();
  cold.value()->ResetStats();
  const Box box(Cell(0, 0), Cell(40, 40));
  auto hot_cursor = hot.value()->NewBoxCursor(box);
  const auto results = DrainCursor(hot_cursor.get());
  ASSERT_TRUE(hot_cursor->status().ok());
  EXPECT_FALSE(results.empty());

  // Attribution: the queried table saw I/O, its neighbor saw none, and
  // the pool's physical aggregate covers at least the queried share.
  const IoStats hot_io = hot.value()->io_stats();
  const IoStats cold_io = cold.value()->io_stats();
  EXPECT_GT(hot_io.page_reads + hot_io.cache_hits, 0u);
  EXPECT_GT(hot_io.entries_read, 0u);
  EXPECT_EQ(cold_io.page_reads, 0u);
  EXPECT_EQ(cold_io.cache_hits, 0u);
  EXPECT_EQ(cold_io.entries_read, 0u);
  const IoStats pool = db.pool_stats();
  EXPECT_GE(pool.page_reads, hot_io.page_reads);
}

TEST(SfcDbTest, SharedWorkersServeManyTables) {
  const std::string dir = FreshDir("shared_workers");
  SfcDbOptions db_options;
  db_options.num_workers = 2;
  auto db_result = SfcDb::Open(dir, db_options);
  ASSERT_TRUE(db_result.ok());
  auto& db = *db_result.value();

  const Universe universe(2, 64);
  constexpr int kTables = 4;
  constexpr size_t kPerTable = 2000;
  SfcTableOptions options;
  options.memtable_flush_entries = 250;  // many background flushes each
  options.l0_compaction_trigger = 3;     // and background leveling
  std::vector<SfcTable*> tables;
  for (int t = 0; t < kTables; ++t) {
    auto table = db.CreateTable("t" + std::to_string(t), "onion", universe,
                                options);
    ASSERT_TRUE(table.ok());
    tables.push_back(table.value());
  }
  // Concurrent writers, one per table, all feeding the two shared workers.
  std::vector<std::thread> writers;
  for (int t = 0; t < kTables; ++t) {
    writers.emplace_back([&, t] {
      const auto points = RandomPoints(universe, kPerTable, 400 + t);
      for (size_t i = 0; i < points.size(); ++i) {
        ASSERT_TRUE(tables[t]->Insert(points[i], i).ok());
      }
    });
  }
  for (std::thread& writer : writers) writer.join();
  for (SfcTable* table : tables) {
    ASSERT_TRUE(table->Flush().ok());
    EXPECT_EQ(table->size(), kPerTable);
    EXPECT_EQ(table->memtable_entries(), 0u);
    EXPECT_GT(table->num_segments(), 0u);
    auto cursor = table->NewScanCursor();
    EXPECT_EQ(DrainCursor(cursor.get()).size(), kPerTable);
  }
  ASSERT_TRUE(db.Close().ok());
}

TEST(SfcDbTest, OrphanTableDirectoriesAreCollectedOnOpen) {
  const std::string dir = FreshDir("orphan_gc");
  {
    auto db = SfcDb::Open(dir);
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE(
        db.value()->CreateTable("keep", "onion", Universe(2, 32)).ok());
    ASSERT_TRUE(db.value()->Close().ok());
  }
  // Simulate a crash between catalog rewrite and directory removal: a
  // table directory (with a MANIFEST) the catalog does not name.
  std::filesystem::create_directories(dir + "/ghost");
  std::ofstream(dir + "/ghost/MANIFEST") << "onion-sfc-table 2\n";
  // And a random non-table directory, which must be left alone.
  std::filesystem::create_directories(dir + "/not_a_table");

  auto db = SfcDb::Open(dir);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  EXPECT_EQ(db.value()->ListTables(), (std::vector<std::string>{"keep"}));
  EXPECT_FALSE(std::filesystem::exists(dir + "/ghost"));
  EXPECT_TRUE(std::filesystem::exists(dir + "/not_a_table"));
  EXPECT_TRUE(std::filesystem::exists(dir + "/keep/MANIFEST"));
}

TEST(SfcDbTest, RejectsBadNamesAndOptions) {
  const Universe universe(2, 32);
  {
    SfcDbOptions bad;
    bad.pool_pages = 0;
    EXPECT_EQ(SfcDb::Open(FreshDir("bad_pool"), bad).status().code(),
              StatusCode::kInvalidArgument);
  }
  {
    SfcDbOptions bad;
    bad.num_workers = 0;
    EXPECT_EQ(SfcDb::Open(FreshDir("bad_workers"), bad).status().code(),
              StatusCode::kInvalidArgument);
  }
  auto db = SfcDb::Open(FreshDir("bad_names"));
  ASSERT_TRUE(db.ok());
  for (const std::string name :
       {"", "has/slash", "has space", "..", "dot.dot", "a\tb"}) {
    auto result = db.value()->CreateTable(name, "onion", universe);
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument) << name;
  }
  // A bad curve or bad per-table options must not catalog anything.
  EXPECT_FALSE(db.value()->CreateTable("t", "no_such_curve", universe).ok());
  SfcTableOptions bad_table;
  bad_table.l0_compaction_trigger = 1;
  EXPECT_EQ(db.value()
                ->CreateTable("t", "onion", universe, bad_table)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_TRUE(db.value()->ListTables().empty());
  EXPECT_TRUE(db.value()->CreateTable("t", "onion", universe).ok());
}

TEST(SfcDbTest, WriteBatchSpansTablesAtomicallyAndReadsBack) {
  const std::string dir = FreshDir("write_batch");
  auto db_result = SfcDb::Open(dir);
  ASSERT_TRUE(db_result.ok());
  auto& db = *db_result.value();
  const Universe universe(2, 32);
  auto heat = db.CreateTable("heat", "hilbert", universe);
  auto trips = db.CreateTable("trips", "onion", universe);
  ASSERT_TRUE(heat.ok());
  ASSERT_TRUE(trips.ok());

  WriteBatch batch;
  batch.Put("heat", Cell(1, 2), 100);
  batch.Put("trips", Cell(3, 4), 200);
  batch.Put("heat", Cell(1, 2), 101);
  batch.Delete("trips", Cell(9, 9));  // deleting an absent cell is fine
  ASSERT_EQ(batch.size(), 4u);
  ASSERT_TRUE(db.Write(std::move(batch)).ok());

  auto heat_got = heat.value()->Get(Cell(1, 2));
  ASSERT_TRUE(heat_got.ok());
  std::sort(heat_got.value().begin(), heat_got.value().end());
  EXPECT_EQ(heat_got.value(), (std::vector<uint64_t>{100, 101}));
  EXPECT_EQ(trips.value()->Get(Cell(3, 4)).value(),
            (std::vector<uint64_t>{200}));
  EXPECT_TRUE(trips.value()->Get(Cell(9, 9)).value().empty());

  // A batch follows the deletes-hide-older rule across its own ops too.
  WriteBatch second;
  second.Delete("heat", Cell(1, 2));
  second.Put("heat", Cell(1, 2), 102);
  ASSERT_TRUE(db.Write(std::move(second)).ok());
  EXPECT_EQ(heat.value()->Get(Cell(1, 2)).value(),
            (std::vector<uint64_t>{102}));

  // Validation errors apply NOTHING: one bad op poisons the whole batch.
  WriteBatch bad;
  bad.Put("heat", Cell(2, 2), 7);
  bad.Put("heat", Cell(32, 0), 8);  // outside the universe
  EXPECT_EQ(db.Write(std::move(bad)).code(), StatusCode::kOutOfRange);
  EXPECT_TRUE(heat.value()->Get(Cell(2, 2)).value().empty());
  WriteBatch unknown;
  unknown.Put("no_such_table", Cell(1, 1), 9);
  EXPECT_EQ(db.Write(std::move(unknown)).code(), StatusCode::kNotFound);
  ASSERT_TRUE(db.Close().ok());

  // Everything batch-written survives reopen through the normal WAL path.
  auto reopened = SfcDb::Open(dir);
  ASSERT_TRUE(reopened.ok());
  auto heat2 = reopened.value()->OpenTable("heat");
  ASSERT_TRUE(heat2.ok());
  EXPECT_EQ(heat2.value()->Get(Cell(1, 2)).value(),
            (std::vector<uint64_t>{102}));
}

TEST(SfcDbTest, WriteBatchIsAtomicAcrossHardCrash) {
  // The acceptance bar: a WriteBatch spanning two tables is atomic across
  // a hard _Exit. The child commits batches and dies without any
  // shutdown; the parent then simulates the worst partial state — one
  // table's WAL never received its slice — and recovery must still
  // surface the batch in BOTH tables (the batch journal repairs the
  // missing slice) with nothing duplicated.
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  const Universe universe(2, 32);
  const std::string dir = FreshDir("batch_crash");
  constexpr uint64_t kBatches = 25;
  ASSERT_EXIT(
      {
        auto db = SfcDb::Open(dir);
        if (!db.ok()) std::_Exit(1);
        if (!db.value()->CreateTable("a", "onion", universe).ok() ||
            !db.value()->CreateTable("b", "hilbert", universe).ok()) {
          std::_Exit(2);
        }
        for (uint64_t i = 0; i < kBatches; ++i) {
          WriteBatch batch;
          batch.Put("a", Cell(i % 32, 0), i);
          batch.Put("b", Cell(i % 32, 1), i);
          batch.Put("b", Cell(i % 32, 2), 1000 + i);
          if (!db.value()->Write(std::move(batch)).ok()) std::_Exit(3);
        }
        std::_Exit(0);  // no Close, no flush: WALs + journal only
      },
      ::testing::ExitedWithCode(0), "");

  // Simulate the crash window between the two per-table WAL appends: table
  // "b" never got its records (drop its WAL files wholesale).
  uint64_t removed = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(dir + "/b")) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("wal_", 0) == 0) {
      std::filesystem::remove(entry.path());
      ++removed;
    }
  }
  ASSERT_GT(removed, 0u);

  auto db = SfcDb::Open(dir);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  auto a = db.value()->OpenTable("a");
  auto b = db.value()->OpenTable("b");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  // All-or-nothing, nothing duplicated: every batch is whole in BOTH
  // tables even though table b lost its own copy.
  EXPECT_EQ(a.value()->size(), kBatches);
  EXPECT_EQ(b.value()->size(), 2 * kBatches);
  for (uint64_t i = 0; i < kBatches; ++i) {
    EXPECT_EQ(a.value()->Get(Cell(i % 32, 0)).value(),
              (std::vector<uint64_t>{i}))
        << i;
    EXPECT_EQ(b.value()->Get(Cell(i % 32, 1)).value(),
              (std::vector<uint64_t>{i}))
        << i;
    EXPECT_EQ(b.value()->Get(Cell(i % 32, 2)).value(),
              (std::vector<uint64_t>{1000 + i}))
        << i;
  }
  ASSERT_TRUE(db.value()->Close().ok());
}

TEST(SfcDbTest, TornBatchJournalTailAppliesNothing) {
  // The converse crash window: the journal record itself is torn (crash
  // mid-journal-append, before any table saw the batch). Recovery must
  // apply NOTHING of that batch while keeping every earlier one.
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  const Universe universe(2, 32);
  const std::string dir = FreshDir("torn_journal");
  ASSERT_EXIT(
      {
        auto db = SfcDb::Open(dir);
        if (!db.ok()) std::_Exit(1);
        if (!db.value()->CreateTable("a", "onion", universe).ok() ||
            !db.value()->CreateTable("b", "onion", universe).ok()) {
          std::_Exit(2);
        }
        WriteBatch committed;
        committed.Put("a", Cell(1, 1), 1);
        committed.Put("b", Cell(1, 1), 1);
        if (!db.value()->Write(std::move(committed)).ok()) std::_Exit(3);
        WriteBatch torn;
        torn.Put("a", Cell(2, 2), 2);
        torn.Put("b", Cell(2, 2), 2);
        if (!db.value()->Write(std::move(torn)).ok()) std::_Exit(4);
        std::_Exit(0);
      },
      ::testing::ExitedWithCode(0), "");

  // Tear the second journal record AND drop both tables' WALs: the
  // surviving on-disk state is "journal committed batch 1, batch 2 torn,
  // no table saw anything" — exactly a crash mid-second-commit.
  const uintmax_t journal_size =
      std::filesystem::file_size(dir + "/BATCHLOG");
  std::filesystem::resize_file(dir + "/BATCHLOG", journal_size - 5);
  for (const std::string table : {"a", "b"}) {
    for (const auto& entry :
         std::filesystem::directory_iterator(dir + "/" + table)) {
      const std::string name = entry.path().filename().string();
      if (name.rfind("wal_", 0) == 0) std::filesystem::remove(entry.path());
    }
  }

  auto db = SfcDb::Open(dir);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  for (const std::string table : {"a", "b"}) {
    auto handle = db.value()->OpenTable(table);
    ASSERT_TRUE(handle.ok());
    EXPECT_EQ(handle.value()->Get(Cell(1, 1)).value(),
              (std::vector<uint64_t>{1}))
        << table;  // the whole first batch survived (via the journal)
    EXPECT_TRUE(handle.value()->Get(Cell(2, 2)).value().empty())
        << table;  // the torn batch applied nowhere
  }
  ASSERT_TRUE(db.value()->Close().ok());
}

TEST(SfcDbTest, DbSnapshotIsConsistentAcrossTables) {
  auto db_result = SfcDb::Open(FreshDir("db_snapshot"));
  ASSERT_TRUE(db_result.ok());
  auto& db = *db_result.value();
  const Universe universe(2, 32);
  auto left = db.CreateTable("left", "hilbert", universe);
  auto right = db.CreateTable("right", "zorder", universe);
  ASSERT_TRUE(left.ok());
  ASSERT_TRUE(right.ok());

  WriteBatch first;
  first.Put("left", Cell(1, 1), 1);
  first.Put("right", Cell(1, 1), 1);
  ASSERT_TRUE(db.Write(std::move(first)).ok());

  auto pinned_result = db.GetSnapshot();
  ASSERT_TRUE(pinned_result.ok());
  // Move the pin out of the Result: every copy must be released before
  // Close() (a pin must not outlive the tables it pins).
  auto pinned = std::move(pinned_result).value();

  WriteBatch second;
  second.Put("left", Cell(2, 2), 2);
  second.Put("right", Cell(2, 2), 2);
  second.Delete("left", Cell(1, 1));
  ASSERT_TRUE(db.Write(std::move(second)).ok());
  ASSERT_TRUE(left.value()->Flush().ok());
  ASSERT_TRUE(left.value()->Compact().ok());

  // The pinned view agrees on the batch boundary for every table: batch 1
  // visible everywhere, batch 2 (including its delete) nowhere — even
  // after a flush+compaction rewrote one table's files.
  ReadOptions left_pin;
  left_pin.snapshot = pinned->ForTable(left.value());
  ReadOptions right_pin;
  right_pin.snapshot = pinned->ForTable(right.value());
  ASSERT_NE(left_pin.snapshot, nullptr);
  ASSERT_NE(right_pin.snapshot, nullptr);
  EXPECT_EQ(left.value()->Get(Cell(1, 1), left_pin).value(),
            (std::vector<uint64_t>{1}));
  EXPECT_TRUE(left.value()->Get(Cell(2, 2), left_pin).value().empty());
  EXPECT_EQ(right.value()->Get(Cell(1, 1), right_pin).value(),
            (std::vector<uint64_t>{1}));
  EXPECT_TRUE(right.value()->Get(Cell(2, 2), right_pin).value().empty());
  // Latest reads see batch 2 everywhere.
  EXPECT_TRUE(left.value()->Get(Cell(1, 1)).value().empty());
  EXPECT_EQ(left.value()->Get(Cell(2, 2)).value(),
            (std::vector<uint64_t>{2}));
  EXPECT_EQ(right.value()->Get(Cell(2, 2)).value(),
            (std::vector<uint64_t>{2}));

  pinned.reset();  // release the pins before the tables shut down
  ASSERT_TRUE(db.Close().ok());
}

TEST(SfcDbTest, MetricsPopulateAndStayMonotonicAcrossWorkload) {
  // The observability acceptance bar: after a write/flush/compact/read
  // workload on a wal_fsync table, every headline histogram (WAL append
  // AND fsync, flush, compaction, cursor steps) has non-zero counts, the
  // event counters only ever grow, and both DumpMetrics formats carry the
  // numbers.
  auto db_result = SfcDb::Open(FreshDir("metrics"));
  ASSERT_TRUE(db_result.ok());
  auto& db = *db_result.value();
  const Universe universe(2, 64);
  SfcTableOptions options;
  options.memtable_flush_entries = 500;
  options.wal_fsync = true;  // the fsync histogram must see real syncs
  auto table_result = db.CreateTable("obs", "hilbert", universe, options);
  ASSERT_TRUE(table_result.ok());
  auto& table = *table_result.value();

  const auto points = RandomPoints(universe, 2000, 997);
  for (size_t i = 0; i < points.size(); ++i) {
    ASSERT_TRUE(table.Insert(points[i], i).ok());
  }
  ASSERT_TRUE(table.Flush().ok());
  const uint64_t flushes_after_flush =
      table.metrics().counter("flush.count")->value();
  EXPECT_GT(flushes_after_flush, 0u);
  ASSERT_TRUE(table.Compact().ok());
  // Monotonic: compaction added work, flush count never went backwards.
  EXPECT_GE(table.metrics().counter("flush.count")->value(),
            flushes_after_flush);
  EXPECT_GT(table.metrics().counter("compaction.count")->value(), 0u);
  EXPECT_GT(table.metrics().counter("compaction.bytes_rewritten")->value(),
            0u);
  auto cursor = table.NewBoxCursor(Box(Cell(0, 0), Cell(63, 63)));
  EXPECT_EQ(DrainCursor(cursor.get()).size(), points.size());

  // Every headline histogram recorded real events.
  for (const char* name : {"wal.append_us", "wal.fsync_us", "flush.us",
                           "compaction.us", "memtable.insert_us",
                           "write.commit_us"}) {
    EXPECT_GT(table.metrics().histogram(name)->count(), 0u) << name;
  }

  // A cross-table batch reaches the db-level commit histogram.
  WriteBatch batch;
  batch.Put("obs", Cell(1, 1), 42);
  ASSERT_TRUE(db.Write(std::move(batch)).ok());
  EXPECT_GT(db.metrics().histogram("db.batch_commit_us")->count(), 0u);

  // Both export formats carry the histograms (the JSON shape is validated
  // structurally in obs_test.cc; here we pin the engine wiring).
  const std::string json = db.DumpMetrics();
  for (const char* key : {"\"wal.fsync_us\"", "\"flush.us\"",
                          "\"compaction.us\"", "\"db.batch_commit_us\"",
                          "\"pool\"", "\"hit_ratio\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << key;
  }
  const std::string prom = db.DumpMetrics(obs::MetricsFormat::kPrometheus);
  EXPECT_NE(prom.find("onion_wal_fsync_us_count{table=\"obs\"}"),
            std::string::npos);
  EXPECT_NE(prom.find("onion_db_batch_commit_us_count"), std::string::npos);
  // The trace ring saw the flush and the compaction.
  const std::string trace = db.DumpTrace();
  EXPECT_NE(trace.find("\"kind\":\"flush\""), std::string::npos);
  EXPECT_NE(trace.find("\"kind\":\"compaction\""), std::string::npos);

  ASSERT_TRUE(db.Close().ok());
}

TEST(SfcDbTest, CloseIsIdempotentAndFinal) {
  auto db = SfcDb::Open(FreshDir("close"));
  ASSERT_TRUE(db.ok());
  const Universe universe(2, 32);
  auto table = db.value()->CreateTable("t", "onion", universe);
  ASSERT_TRUE(table.ok());
  ASSERT_TRUE(table.value()->Insert(Cell(1, 2), 3).ok());
  ASSERT_TRUE(db.value()->Close().ok());
  ASSERT_TRUE(db.value()->Close().ok());  // idempotent
  EXPECT_EQ(db.value()->CreateTable("u", "onion", universe).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(db.value()->OpenTable("t").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(db.value()->DropTable("t").code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace onion::storage
