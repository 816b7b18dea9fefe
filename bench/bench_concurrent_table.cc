// Concurrency + recovery benchmark for the crash-safe SfcTable.
//
// Part 1 (concurrency): one writer inserts `--points` random points while
// `--readers` threads run box queries nonstop. Background flush and
// leveled compaction run throughout. Reports write throughput, query
// throughput, and how both change against the single-threaded (readers=0)
// write baseline — the point being that queries keep streaming while
// segments are written and merged, instead of stalling behind them. Exits
// nonzero when the readers slow the writer down more than 10x: a write
// takes the table lock shared except to rotate the memtable, and an
// exclusive hold per write is what let reader-preferring shared_mutex
// implementations starve the writer (about 60x slower here).
//
// Each run's table is owned by an SfcDb of its own with one worker and a
// 256-page pool.
//
// Part 2 (recovery): writes `--points` entries WITHOUT flushing, drops the
// db (crash semantics: the destructor does not flush; the WAL is the only
// copy), then times OpenTable()'s WAL replay and verifies the count.
//
// Part 3 (group commit): `--fsync_threads` committers append to one WAL
// with a durability barrier per record (the wal_fsync insert pattern:
// serialized Append, then WalWriter::SyncUpTo outside the lock). With one
// thread that is one fsync per record; with several, committers share
// leader fsyncs — the report shows records/s and the actual fsync count.
//
//   build/bench/bench_concurrent_table [--side=128] [--points=200000]
//       [--readers=3] [--flush_entries=20000] [--queries_side_div=8]
//       [--fsync_records=2000] [--fsync_threads=4]
//       [--dir=/tmp/onion_bench_concurrent]

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/cli.h"
#include "sfc/registry.h"
#include "storage/sfc_db.h"
#include "storage/sfc_table.h"
#include "storage/wal.h"
#include "workloads/generators.h"

int main(int argc, char** argv) {
  using namespace onion;
  using Clock = std::chrono::steady_clock;
  const CommandLine cli(argc, argv);
  const auto side = static_cast<Coord>(cli.GetInt("side", 128));
  const auto num_points = static_cast<size_t>(cli.GetInt("points", 200000));
  const int num_readers = static_cast<int>(cli.GetInt("readers", 3));
  const auto flush_entries =
      static_cast<uint64_t>(cli.GetInt("flush_entries", 20000));
  const auto query_side =
      static_cast<Coord>(side / cli.GetInt("queries_side_div", 8));
  const std::string base_dir =
      cli.GetString("dir", "/tmp/onion_bench_concurrent");

  const Universe universe(2, side);
  const auto points = RandomPoints(universe, num_points, 11);
  const auto boxes = RandomCubes(universe, query_side, 64, 13);

  storage::SfcDbOptions db_options;
  db_options.pool_pages = 256;
  db_options.num_workers = 1;
  storage::SfcTableOptions options;
  options.memtable_flush_entries = flush_entries;
  options.l0_compaction_trigger = 4;

  const auto run_writer_with_readers = [&](int readers, uint64_t* queries) {
    const std::string dir = base_dir + "/run_r" + std::to_string(readers);
    std::filesystem::remove_all(dir);
    auto db = storage::SfcDb::Open(dir, db_options);
    if (!db.ok()) {
      std::printf("open failed: %s\n", db.status().ToString().c_str());
      std::exit(1);
    }
    auto table_result =
        db.value()->CreateTable("points", "onion", universe, options);
    if (!table_result.ok()) {
      std::printf("create failed: %s\n",
                  table_result.status().ToString().c_str());
      std::exit(1);
    }
    auto& table = *table_result.value();
    std::atomic<bool> done{false};
    std::atomic<uint64_t> queries_run{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < readers; ++t) {
      threads.emplace_back([&, t] {
        size_t i = static_cast<size_t>(t);
        while (!done.load(std::memory_order_relaxed)) {
          auto cursor = table.NewBoxCursor(boxes[i++ % boxes.size()]);
          while (cursor->Valid()) cursor->Next();
          queries_run.fetch_add(1, std::memory_order_relaxed);
        }
      });
    }
    const auto start = Clock::now();
    for (size_t i = 0; i < points.size(); ++i) {
      if (!table.Insert(points[i], i).ok()) std::exit(1);
    }
    if (!table.Flush().ok()) std::exit(1);
    const double secs =
        std::chrono::duration<double>(Clock::now() - start).count();
    done.store(true);
    for (std::thread& thread : threads) thread.join();
    if (queries != nullptr) *queries = queries_run.load();
    std::filesystem::remove_all(dir);
    return secs;
  };

  std::printf("=== concurrent SfcTable: %zu points on %ux%u, flush every "
              "%llu, %d readers ===\n",
              points.size(), static_cast<unsigned>(side),
              static_cast<unsigned>(side),
              static_cast<unsigned long long>(flush_entries), num_readers);

  const double solo_secs = run_writer_with_readers(0, nullptr);
  uint64_t queries_run = 0;
  const double busy_secs = run_writer_with_readers(num_readers, &queries_run);
  std::printf("write+flush, no readers : %7.3f s  (%.0f inserts/s)\n",
              solo_secs, points.size() / solo_secs);
  std::printf("write+flush, %d readers : %7.3f s  (%.0f inserts/s, "
              "write slowdown %.2fx)\n",
              num_readers, busy_secs, points.size() / busy_secs,
              busy_secs / solo_secs);
  std::printf("concurrent queries      : %llu  (%.0f queries/s while "
              "flushing and compacting)\n",
              static_cast<unsigned long long>(queries_run),
              queries_run / busy_secs);
  constexpr double kMaxWriteSlowdown = 10.0;
  if (num_readers > 0 && busy_secs / solo_secs > kMaxWriteSlowdown) {
    std::printf("FAIL: %d readers slow the writer down %.2fx (gate %.0fx)\n",
                num_readers, busy_secs / solo_secs, kMaxWriteSlowdown);
    return 1;
  }

  // --- Part 2: crash recovery -------------------------------------------
  const std::string dir = base_dir + "/recovery";
  std::filesystem::remove_all(dir);
  {
    // A flush threshold above the point count keeps everything in the
    // memtable: the WAL ends up the only copy, so Open() replays it all.
    storage::SfcTableOptions wal_only = options;
    wal_only.memtable_flush_entries = points.size() + 1;
    auto db = storage::SfcDb::Open(dir, db_options);
    if (!db.ok()) std::exit(1);
    auto table_result =
        db.value()->CreateTable("points", "onion", universe, wal_only);
    if (!table_result.ok()) std::exit(1);
    auto& table = *table_result.value();
    const auto start = Clock::now();
    for (size_t i = 0; i < points.size(); ++i) {
      if (!table.Insert(points[i], i).ok()) std::exit(1);
    }
    const double secs =
        std::chrono::duration<double>(Clock::now() - start).count();
    std::printf("\n=== recovery: %zu WAL-logged inserts ===\n",
                points.size());
    std::printf("logged inserts          : %7.3f s  (%.0f inserts/s)\n",
                secs, points.size() / secs);
  }  // destructor: NO flush — the WAL is now the only copy of the tail
  const auto start = Clock::now();
  auto db = storage::SfcDb::Open(dir, db_options);
  if (!db.ok()) {
    std::printf("reopen failed: %s\n", db.status().ToString().c_str());
    return 1;
  }
  auto reopened = db.value()->OpenTable("points");
  const double replay_secs =
      std::chrono::duration<double>(Clock::now() - start).count();
  if (!reopened.ok()) {
    std::printf("reopen failed: %s\n", reopened.status().ToString().c_str());
    return 1;
  }
  const uint64_t recovered = reopened.value()->size();
  std::printf("WAL replay on Open()    : %7.3f s  (%.0f records/s, "
              "%llu/%zu recovered)\n",
              replay_secs, recovered / replay_secs,
              static_cast<unsigned long long>(recovered), points.size());
  std::filesystem::remove_all(dir);
  if (recovered != points.size()) return 1;

  // --- Part 3: group-commit WAL fsync -----------------------------------
  const auto fsync_records =
      static_cast<uint64_t>(cli.GetInt("fsync_records", 2000));
  const int fsync_threads = static_cast<int>(cli.GetInt("fsync_threads", 4));
  std::printf("\n=== group commit: %llu durable appends (fsync before "
              "ack) ===\n",
              static_cast<unsigned long long>(fsync_records));
  const auto run_committers = [&](int threads) {
    const std::string wal_path = base_dir + "_group_commit.log";
    std::remove(wal_path.c_str());
    auto wal = storage::WalWriter::Create(wal_path);
    if (!wal.ok()) std::exit(1);
    std::mutex append_mu;
    std::atomic<uint64_t> next{0};
    const auto start = Clock::now();
    std::vector<std::thread> committers;
    for (int t = 0; t < threads; ++t) {
      committers.emplace_back([&] {
        for (;;) {
          const uint64_t i = next.fetch_add(1);
          if (i >= fsync_records) return;
          uint64_t record = 0;
          {
            std::lock_guard<std::mutex> lock(append_mu);
            const storage::WalOp op{i, i, false};
            if (!wal.value()->AppendBatch(&op, 1, i + 1, &record).ok()) {
              std::exit(1);
            }
          }
          if (!wal.value()->SyncUpTo(record).ok()) std::exit(1);
        }
      });
    }
    for (std::thread& committer : committers) committer.join();
    const double secs =
        std::chrono::duration<double>(Clock::now() - start).count();
    const uint64_t syncs = wal.value()->num_syncs();
    std::printf("%d committer(s)          : %7.3f s  (%.0f records/s, "
                "%llu fsyncs for %llu records, %.1f records/fsync)\n",
                threads, secs, fsync_records / secs,
                static_cast<unsigned long long>(syncs),
                static_cast<unsigned long long>(fsync_records),
                static_cast<double>(fsync_records) / syncs);
    std::remove(wal_path.c_str());
    return secs;
  };
  run_committers(1);  // baseline: every record pays its own fsync
  run_committers(fsync_threads);
  return 0;
}
