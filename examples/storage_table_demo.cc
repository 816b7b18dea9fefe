// Walkthrough of the persistent storage engine: create an SfcTable keyed by
// a space-filling curve (through the SfcDb that owns it), insert clustered
// points, flush to segment files, stream a box query through a cursor with
// measured I/O (including an early-terminated, limit-bounded read), then
// close and reopen the database to show the results survive on disk.
//
//   build/examples/storage_table_demo [--dir=/tmp/onion_table_demo]

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "common/cli.h"
#include "index/disk_model.h"
#include "storage/sfc_db.h"
#include "storage/sfc_table.h"
#include "workloads/generators.h"

int main(int argc, char** argv) {
  using namespace onion;
  const CommandLine cli(argc, argv);
  const std::string dir = cli.GetString("dir", "/tmp/onion_table_demo");
  std::filesystem::remove_all(dir);

  const Universe universe(2, 128);
  storage::SfcDbOptions db_options;
  db_options.pool_pages = 32;
  db_options.num_workers = 1;
  storage::SfcTableOptions options;
  options.entries_per_page = 64;
  options.memtable_flush_entries = 4000;

  auto db = storage::SfcDb::Open(dir, db_options);
  if (!db.ok()) {
    std::printf("open failed: %s\n", db.status().ToString().c_str());
    return 1;
  }
  auto table_result =
      db.value()->CreateTable("points", "hilbert", universe, options);
  if (!table_result.ok()) {
    std::printf("create failed: %s\n",
                table_result.status().ToString().c_str());
    return 1;
  }
  auto& table = *table_result.value();
  std::printf("created table in %s, curve=%s, universe=%s\n",
              table.dir().c_str(), table.curve().name().c_str(),
              universe.ToString().c_str());

  const auto points = ClusteredPoints(universe, 20000, 6, 10, 7);
  for (size_t i = 0; i < points.size(); ++i) {
    const Status status = table.Insert(points[i], i);
    ONION_CHECK_MSG(status.ok(), status.ToString().c_str());
  }
  const Status flushed = table.Flush();
  ONION_CHECK_MSG(flushed.ok(), flushed.ToString().c_str());
  std::printf("inserted %llu entries into %zu segment file(s)\n",
              static_cast<unsigned long long>(table.size()),
              table.num_segments());

  // Stream the box through the cursor API — entries arrive in curve-key
  // order and I/O happens page by page as the cursor advances.
  const Box query(Cell(20, 20), Cell(59, 49));
  auto cursor = table.NewBoxCursor(query);
  std::vector<SpatialEntry> results = DrainCursor(cursor.get());
  ONION_CHECK_MSG(cursor->status().ok(), cursor->status().ToString().c_str());
  std::printf("\nbox cursor over %s -> %zu entries\n",
              query.ToString().c_str(), results.size());
  std::printf("  decomposed into %llu key ranges; io: %llu page reads, "
              "%llu seeks, %llu cache hits\n",
              static_cast<unsigned long long>(table.read_stats().ranges),
              static_cast<unsigned long long>(table.io_stats().page_reads),
              static_cast<unsigned long long>(table.io_stats().seeks),
              static_cast<unsigned long long>(table.io_stats().cache_hits));
  std::printf("  estimated cost: %.2f ms (HDD), %.3f ms (SSD)\n",
              table.EstimateCostMs(DiskModel::Hdd()),
              table.EstimateCostMs(DiskModel::Ssd()));

  // Early termination: a bounded cursor stops after `limit` entries and
  // skips the I/O full materialization would have paid.
  table.ResetStats();
  ReadOptions first_page_only;
  first_page_only.limit = 10;
  auto limited = table.NewBoxCursor(query, first_page_only);
  size_t streamed = 0;
  for (; limited->Valid(); limited->Next()) ++streamed;
  std::printf("  limit=10 cursor          -> %zu entries, %llu page "
              "fetches, budget hit: %s\n",
              streamed,
              static_cast<unsigned long long>(table.io_stats().page_reads +
                                              table.io_stats().cache_hits),
              limited->hit_read_budget() ? "yes" : "no");

  std::printf("\ncompacting %zu segment(s) into one run...\n",
              table.num_segments());
  const Status compacted = table.Compact();
  ONION_CHECK_MSG(compacted.ok(), compacted.ToString().c_str());
  table.ResetStats();
  {
    auto compacted_cursor = table.NewBoxCursor(query);
    results = DrainCursor(compacted_cursor.get());
    ONION_CHECK_MSG(compacted_cursor->status().ok(),
                    compacted_cursor->status().ToString().c_str());
  }
  std::printf("same query after compaction -> %zu entries, %llu seeks\n",
              results.size(),
              static_cast<unsigned long long>(table.io_stats().seeks));

  // The table's observability dump: WAL append/fsync, memtable insert,
  // flush and compaction duration histograms, plus the I/O counters
  // printed piecemeal above — one JSON object (docs/observability.md
  // documents every metric).
  std::printf("\ntable metrics at shutdown (SfcTable::DumpMetrics):\n%s\n",
              table.DumpMetrics().c_str());

  // Clean shutdown (flush + stop background work), then reopen from disk:
  // nothing lives in memory but the database path.
  ONION_CHECK_MSG(db.value()->Close().ok(), "close failed");
  db.value().reset();
  auto reopened_db = storage::SfcDb::Open(dir, db_options);
  ONION_CHECK_MSG(reopened_db.ok(), reopened_db.status().ToString().c_str());
  auto reopened = reopened_db.value()->OpenTable("points");
  ONION_CHECK_MSG(reopened.ok(), reopened.status().ToString().c_str());
  auto reopened_cursor = reopened.value()->NewBoxCursor(query);
  const auto again = DrainCursor(reopened_cursor.get());
  ONION_CHECK_MSG(reopened_cursor->status().ok(),
                  reopened_cursor->status().ToString().c_str());
  std::printf("\nreopened table from %s: same query -> %zu entries (%s)\n",
              dir.c_str(), again.size(),
              again.size() == results.size() ? "match" : "MISMATCH");
  return again.size() == results.size() ? 0 : 1;
}
