// Multi-table SfcDb benchmark: K tables in ONE database share one buffer
// pool and one background worker pool, get loaded by concurrent writers,
// and answer box queries through streaming cursors.
//
// Reports:
//   * aggregate load throughput across all tables (shared workers flush
//     and level everything in the background, round-robin fair);
//   * per-table query cost via cursors, with per-table IoStats attribution
//     demonstrably separated even though the pool is shared (the summed
//     per-table page counts equal the pool's physical aggregate);
//   * the streaming payoff: a limit-bounded cursor touches a small
//     fraction of the pages full materialization reads;
//   * snapshot reads: a db-wide snapshot pin taken before heavy churn
//     (inserts + flush + compaction) must reproduce the pre-churn result
//     exactly while latest reads see the new state, emitted as a CSVSNAP
//     row (reads-under-snapshot vs latest) for the perf tooling.
//   * secondary-index queries: a swap_xy index is created on one loaded
//     table (timing the backfill), maintained through WriteBatches, and
//     every box query through NewIndexCursor is checked for result-count
//     equality against the equivalent direct base query.
//   The process exits nonzero if the bounded cursor fails to read fewer
//   pages, the snapshot fails repeatable reads, an indexed query disagrees
//   with its base-query ground truth, or any index entry dangles, so CI
//   can run this as a smoke check.
//
//   build/bench/bench_multi_db [--tables=4] [--side=128] [--points=60000]
//       [--pool_pages=256] [--readahead=4] [--workers=2] [--limit=16]
//       [--quick=false] [--dir=/tmp/onion_bench_multi_db]

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "bench_report.h"
#include "common/cli.h"
#include "obs/metrics.h"
#include "storage/sfc_db.h"
#include "workloads/generators.h"

int main(int argc, char** argv) {
  using namespace onion;
  using Clock = std::chrono::steady_clock;
  const CommandLine cli(argc, argv);
  const bool quick = cli.GetBool("quick", false);
  const int num_tables = static_cast<int>(cli.GetInt("tables", 4));
  const auto side = static_cast<Coord>(cli.GetInt("side", quick ? 64 : 128));
  const auto points_per_table =
      static_cast<size_t>(cli.GetInt("points", quick ? 15000 : 60000));
  const auto pool_pages =
      static_cast<uint64_t>(cli.GetInt("pool_pages", 256));
  const auto readahead = static_cast<uint64_t>(cli.GetInt("readahead", 4));
  const auto workers = static_cast<size_t>(cli.GetInt("workers", 2));
  const auto limit = static_cast<uint64_t>(cli.GetInt("limit", 16));
  const std::string dir = cli.GetString("dir", "/tmp/onion_bench_multi_db");
  std::filesystem::remove_all(dir);

  const Universe universe(2, side);
  storage::SfcDbOptions db_options;
  db_options.pool_pages = pool_pages;
  db_options.readahead_pages = readahead;
  db_options.num_workers = workers;
  db_options.table_options.entries_per_page = 64;
  db_options.table_options.memtable_flush_entries = points_per_table / 8 + 1;
  db_options.table_options.l0_compaction_trigger = 3;

  auto db_result = storage::SfcDb::Open(dir, db_options);
  if (!db_result.ok()) {
    std::printf("open failed: %s\n", db_result.status().ToString().c_str());
    return 1;
  }
  auto& db = *db_result.value();
  const std::vector<std::string> curves = {"onion", "hilbert", "zorder"};
  std::vector<storage::SfcTable*> tables;
  for (int t = 0; t < num_tables; ++t) {
    auto table = db.CreateTable("shard" + std::to_string(t),
                                curves[t % curves.size()], universe);
    if (!table.ok()) {
      std::printf("create failed: %s\n", table.status().ToString().c_str());
      return 1;
    }
    tables.push_back(table.value());
  }

  std::printf("=== SfcDb: %d tables on one %llu-page pool, %zu shared "
              "workers, %zu points each ===\n\n",
              num_tables, static_cast<unsigned long long>(pool_pages),
              workers, points_per_table);

  // --- Load: one writer per table, background flush/leveling shared ----
  const auto start_load = Clock::now();
  std::vector<std::thread> writers;
  for (int t = 0; t < num_tables; ++t) {
    writers.emplace_back([&, t] {
      const auto points = RandomPoints(universe, points_per_table, 1000 + t);
      for (size_t i = 0; i < points.size(); ++i) {
        if (!tables[t]->Insert(points[i], i).ok()) std::exit(1);
      }
    });
  }
  for (std::thread& writer : writers) writer.join();
  for (storage::SfcTable* table : tables) {
    if (!table->Flush().ok()) std::exit(1);
  }
  const double load_secs =
      std::chrono::duration<double>(Clock::now() - start_load).count();
  const double total_points =
      static_cast<double>(points_per_table) * num_tables;
  std::printf("load (concurrent writers) : %7.3f s  (%.0f inserts/s "
              "aggregate)\n\n",
              load_secs, total_points / load_secs);

  // --- Query through cursors; attribution stays per-table --------------
  const auto boxes = RandomCubes(universe, side / 4, quick ? 16 : 64, 77);
  for (storage::SfcTable* table : tables) table->ResetStats();
  const auto start_query = Clock::now();
  uint64_t total_results = 0;
  // Per-query drain latency for the BENCH json (per-query, not per-Next,
  // so the numbers sit safely above the 1us clock floor).
  obs::Histogram query_latency_us;
  for (storage::SfcTable* table : tables) {
    for (const Box& box : boxes) {
      const obs::ScopedTimer query_timer(&query_latency_us);
      auto cursor = table->NewBoxCursor(box);
      for (; cursor->Valid(); cursor->Next()) ++total_results;
      ONION_CHECK_MSG(cursor->status().ok(),
                      cursor->status().ToString().c_str());
    }
  }
  const double query_secs =
      std::chrono::duration<double>(Clock::now() - start_query).count();
  std::printf("%-8s %8s %12s %12s %10s %12s\n", "table", "curve",
              "page reads", "cache hits", "seeks", "entries");
  uint64_t attributed_reads = 0;
  for (int t = 0; t < num_tables; ++t) {
    const IoStats io = tables[t]->io_stats();
    attributed_reads += io.page_reads;
    std::printf("%-8s %8s %12llu %12llu %10llu %12llu\n",
                ("shard" + std::to_string(t)).c_str(),
                tables[t]->curve().name().c_str(),
                static_cast<unsigned long long>(io.page_reads),
                static_cast<unsigned long long>(io.cache_hits),
                static_cast<unsigned long long>(io.seeks),
                static_cast<unsigned long long>(io.entries_read));
  }
  const IoStats pool = db.pool_stats();
  std::printf("%zu queries/table -> %llu entries in %.3f s (%.0f queries/s "
              "total)\n",
              boxes.size(), static_cast<unsigned long long>(total_results),
              query_secs,
              boxes.size() * num_tables / query_secs);
  std::printf("pool aggregate            : %llu page reads (sum of "
              "per-table attributions: %llu)\n\n",
              static_cast<unsigned long long>(pool.page_reads),
              static_cast<unsigned long long>(attributed_reads));

  // --- Streaming payoff: limit-bounded cursor vs full materialization --
  storage::SfcTable* probe = tables[0];
  const Box big(Cell(0, 0), Cell(side - 1, side - 1));
  probe->ResetStats();
  size_t full_count = 0;
  {
    auto full_cursor = probe->NewBoxCursor(big);
    for (; full_cursor->Valid(); full_cursor->Next()) ++full_count;
    ONION_CHECK_MSG(full_cursor->status().ok(),
                    full_cursor->status().ToString().c_str());
  }
  const IoStats full_io = probe->io_stats();
  const uint64_t full_pages = full_io.page_reads + full_io.cache_hits;

  probe->ResetStats();
  ReadOptions bounded;
  bounded.limit = limit;
  auto cursor = probe->NewBoxCursor(big, bounded);
  size_t bounded_count = 0;
  for (; cursor->Valid(); cursor->Next()) ++bounded_count;
  ONION_CHECK_MSG(cursor->status().ok(),
                  cursor->status().ToString().c_str());
  const IoStats bounded_io = probe->io_stats();
  const uint64_t bounded_pages = bounded_io.page_reads + bounded_io.cache_hits;

  std::printf("full materialization      : %zu entries, %llu pages "
              "touched\n",
              full_count, static_cast<unsigned long long>(full_pages));
  std::printf("cursor with limit=%-8llu: %zu entries, %llu pages touched "
              "(%.1fx fewer)\n",
              static_cast<unsigned long long>(limit), bounded_count,
              static_cast<unsigned long long>(bounded_pages),
              bounded_pages > 0
                  ? static_cast<double>(full_pages) / bounded_pages
                  : 0.0);

  // --- Snapshot phase: reads-under-snapshot vs latest ------------------
  // Pin the whole database, then churn the probe table hard (inserts +
  // deletes + Flush + Compact). A cursor on the pin must still deliver
  // exactly the pre-churn result while a latest cursor sees the new
  // state — the repeatable-read contract, exercised on real segments
  // across a compaction that rewrites every file.
  auto db_snapshot_result = db.GetSnapshot();
  ONION_CHECK_MSG(db_snapshot_result.ok(),
                  db_snapshot_result.status().ToString().c_str());
  // The pin must be released before db.Close() (it must not outlive the
  // tables it pins) — hence a resettable local.
  std::shared_ptr<const storage::DbSnapshot> db_snapshot =
      std::move(db_snapshot_result).value();
  const uint64_t snapshot_seq = probe->last_sequence();
  const auto churn = RandomPoints(universe, quick ? 4000 : 20000, 4242);
  for (size_t i = 0; i < churn.size(); ++i) {
    if (!probe->Insert(churn[i], 1000000 + i).ok()) std::exit(1);
  }
  if (!probe->Flush().ok() || !probe->Compact().ok()) std::exit(1);

  ReadOptions pinned;
  pinned.snapshot = db_snapshot->ForTable(probe);
  probe->ResetStats();
  size_t snapshot_count = 0;
  {
    auto cursor_at_pin = probe->NewBoxCursor(big, pinned);
    for (; cursor_at_pin->Valid(); cursor_at_pin->Next()) ++snapshot_count;
    ONION_CHECK_MSG(cursor_at_pin->status().ok(),
                    cursor_at_pin->status().ToString().c_str());
  }
  const IoStats snap_io = probe->io_stats();
  probe->ResetStats();
  size_t latest_count = 0;
  {
    auto latest_cursor = probe->NewBoxCursor(big);
    for (; latest_cursor->Valid(); latest_cursor->Next()) ++latest_count;
    ONION_CHECK_MSG(latest_cursor->status().ok(),
                    latest_cursor->status().ToString().c_str());
  }
  const IoStats latest_io = probe->io_stats();
  std::printf("\nsnapshot reads            : pinned seq %llu -> %zu entries "
              "(latest: %zu) across flush+compaction churn\n",
              static_cast<unsigned long long>(snapshot_seq), snapshot_count,
              latest_count);
  std::printf("CSVSNAP,tag,snapshot_seq,snapshot_entries,latest_entries,"
              "snapshot_pages,latest_pages\n");
  std::printf("CSVSNAP,multi_db,%llu,%zu,%zu,%llu,%llu\n",
              static_cast<unsigned long long>(snapshot_seq), snapshot_count,
              latest_count,
              static_cast<unsigned long long>(snap_io.page_reads +
                                              snap_io.cache_hits),
              static_cast<unsigned long long>(latest_io.page_reads +
                                              latest_io.cache_hits));

  // --- Secondary-index phase: backfill, maintenance, resolved queries ---
  // Index the probe table's cells transposed (swap_xy) under a different
  // curve: CreateIndex backfills everything loaded so far, subsequent
  // WriteBatches maintain base and index atomically, and every box query
  // through the index must return exactly as many rows as the equivalent
  // direct query on the base (the transposed box) — counted as the
  // ground-truth check the exit code enforces.
  const auto start_index_build = Clock::now();
  {
    const Status created =
        db.CreateIndex("shard0", {"ix", "swap_xy", "hilbert"});
    ONION_CHECK_MSG(created.ok(), created.ToString().c_str());
  }
  const double index_build_secs =
      std::chrono::duration<double>(Clock::now() - start_index_build).count();

  // Online maintenance through the only legal write path for an indexed
  // table: db.Write batches.
  const auto post_index_points =
      RandomPoints(universe, quick ? 500 : 2000, 555);
  for (size_t i = 0; i < post_index_points.size();) {
    storage::WriteBatch batch;
    for (size_t op = 0; op < 64 && i < post_index_points.size(); ++op, ++i) {
      batch.Put("shard0", post_index_points[i], 2000000 + i);
    }
    if (!db.Write(std::move(batch)).ok()) std::exit(1);
  }

  obs::Histogram index_query_latency_us;
  uint64_t index_rows = 0;
  bool index_match = true;
  const auto start_index_query = Clock::now();
  for (const Box& box : boxes) {
    uint64_t via_index = 0;
    {
      const obs::ScopedTimer index_timer(&index_query_latency_us);
      auto index_cursor = db.NewIndexCursor("shard0", "ix", box);
      for (; index_cursor->Valid(); index_cursor->Next()) ++via_index;
      ONION_CHECK_MSG(index_cursor->status().ok(),
                      index_cursor->status().ToString().c_str());
    }
    index_rows += via_index;
    // Ground truth: the same predicate directly on the base — swap_xy
    // means an index box matches the base cells of the transposed box.
    const Box base_box(Cell(box.lo.y(), box.lo.x()),
                       Cell(box.hi.y(), box.hi.x()));
    uint64_t via_base = 0;
    auto base_cursor = probe->NewBoxCursor(base_box);
    for (; base_cursor->Valid(); base_cursor->Next()) ++via_base;
    ONION_CHECK_MSG(base_cursor->status().ok(),
                    base_cursor->status().ToString().c_str());
    if (via_index != via_base) index_match = false;
  }
  const double index_query_secs =
      std::chrono::duration<double>(Clock::now() - start_index_query).count();
  const uint64_t index_dangling =
      db.metrics().counter("index.dangling_entries")->value();
  std::printf("\nsecondary index (swap_xy/hilbert on shard0): backfill "
              "%.3f s, %zu queries -> %llu rows in %.3f s (%.0f queries/s), "
              "ground truth %s, %llu dangling\n",
              index_build_secs, boxes.size(),
              static_cast<unsigned long long>(index_rows), index_query_secs,
              index_query_secs > 0 ? boxes.size() / index_query_secs : 0.0,
              index_match ? "MATCH" : "MISMATCH",
              static_cast<unsigned long long>(index_dangling));

  // Machine-readable perf trajectory — written BEFORE Close() because the
  // shared pool dies with the db. CI uploads BENCH_multi_db.json and
  // grep-gates its keys.
  bench::BenchReport report("multi_db");
  report.AddCount("tables", static_cast<uint64_t>(num_tables));
  report.AddCount("side", side);
  report.AddCount("points_per_table", points_per_table);
  report.AddCount("pool_pages", pool_pages);
  report.AddCount("workers", workers);
  report.Add("load_inserts_per_sec",
             load_secs > 0 ? total_points / load_secs : 0.0);
  report.AddCount("queries", boxes.size() * num_tables);
  report.Add("ops_per_sec", query_secs > 0
                                ? boxes.size() * num_tables / query_secs
                                : 0.0);
  report.AddLatency("", query_latency_us.Snapshot());
  const IoStats final_pool = db.pool_stats();  // cumulative, never reset
  const uint64_t pool_touched = final_pool.page_reads + final_pool.cache_hits;
  report.Add("pool_hit_ratio",
             pool_touched == 0
                 ? 0.0
                 : static_cast<double>(final_pool.cache_hits) /
                       static_cast<double>(pool_touched));
  report.AddIoStats("pool_io", final_pool);
  report.AddCount("full_scan_pages", full_pages);
  report.AddCount("bounded_scan_pages", bounded_pages);
  report.AddCount("snapshot_entries", snapshot_count);
  report.AddCount("latest_entries", latest_count);
  report.Add("index_build_secs", index_build_secs);
  report.AddCount("index_queries", boxes.size());
  report.Add("index_ops_per_sec",
             index_query_secs > 0 ? boxes.size() / index_query_secs : 0.0);
  report.AddLatency("index_query", index_query_latency_us.Snapshot());
  report.AddCount("index_rows", index_rows);
  report.AddCount("index_dangling", index_dangling);
  report.WriteFile();

  db_snapshot.reset();  // release the pins before the tables shut down
  if (!db.Close().ok()) return 1;
  std::filesystem::remove_all(dir);
  // Smoke-check contract: early termination must actually save I/O, and
  // the snapshot must have pinned exactly the pre-churn state.
  return bounded_count == limit && bounded_pages < full_pages &&
                 snapshot_count == full_count &&
                 latest_count == full_count + churn.size() && index_match &&
                 index_dangling == 0
             ? 0
             : 1;
}
