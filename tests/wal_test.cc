// Write-ahead-log unit tests: append/replay round trips for single-op and
// multi-op (batch) records with sequence stamps and tombstones, torn-tail
// tolerance (short and corrupt records, whole batches discarded
// atomically), header and version validation, and group-commit fsync
// (SyncUpTo leader/follower batching).

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "storage/codec.h"
#include "storage/wal.h"

namespace onion::storage {
namespace {

std::string FreshPath(const std::string& name) {
  const std::string path = ::testing::TempDir() + "/" + name;
  std::remove(path.c_str());
  return path;
}

struct ReplayedOp {
  Key key = 0;
  uint64_t payload = 0;
  uint64_t sequence = 0;
  bool tombstone = false;

  bool operator==(const ReplayedOp& other) const {
    return key == other.key && payload == other.payload &&
           sequence == other.sequence && tombstone == other.tombstone;
  }
};

std::vector<ReplayedOp> Replay(const std::string& path) {
  std::vector<ReplayedOp> ops;
  auto result = ReplayWal(
      path, [&](Key key, uint64_t payload, uint64_t sequence, bool tombstone) {
        ops.push_back(ReplayedOp{key, payload, sequence, tombstone});
      });
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  if (result.ok()) {
    EXPECT_EQ(result.value(), ops.size());
  }
  return ops;
}

/// Byte length of a v2 record holding `ops` ops.
long RecordBytes(uint64_t ops) { return static_cast<long>(12 + 17 * ops + 4); }

/// Byte length of the WAL file after `n` single-op records.
long FileBytes(uint64_t n) {
  return static_cast<long>(16) + static_cast<long>(n) * RecordBytes(1);
}

TEST(WalTest, AppendReplayRoundTrip) {
  const std::string path = FreshPath("wal_roundtrip.log");
  std::vector<ReplayedOp> written;
  {
    auto wal = WalWriter::Create(path);
    ASSERT_TRUE(wal.ok()) << wal.status().ToString();
    for (uint64_t i = 0; i < 500; ++i) {
      const Key key = (i * 2654435761u) % 10000;  // unordered on purpose
      const bool tombstone = i % 7 == 0;
      const WalOp op{key, tombstone ? 0 : i, tombstone};
      ASSERT_TRUE(wal.value()->AppendBatch(&op, 1, /*first_sequence=*/i + 1)
                      .ok());
      written.push_back(ReplayedOp{key, tombstone ? 0 : i, i + 1, tombstone});
    }
    EXPECT_EQ(wal.value()->num_records(), 500u);
  }
  EXPECT_EQ(Replay(path), written);  // order, seqs, and tombstones preserved
}

TEST(WalTest, MultiOpBatchRecordsRoundTrip) {
  const std::string path = FreshPath("wal_batch.log");
  {
    auto wal = WalWriter::Create(path);
    ASSERT_TRUE(wal.ok());
    const WalOp ops[3] = {{10, 100, false}, {20, 0, true}, {30, 300, false}};
    ASSERT_TRUE(wal.value()->AppendBatch(ops, 3, /*first_sequence=*/41).ok());
    const WalOp one{99, 999, false};
    ASSERT_TRUE(wal.value()->AppendBatch(&one, 1, /*first_sequence=*/44).ok());
    EXPECT_EQ(wal.value()->num_records(), 2u);  // records, not ops
  }
  const auto ops = Replay(path);
  ASSERT_EQ(ops.size(), 4u);
  // Ops of one batch carry consecutive sequences from first_sequence.
  EXPECT_EQ(ops[0], (ReplayedOp{10, 100, 41, false}));
  EXPECT_EQ(ops[1], (ReplayedOp{20, 0, 42, true}));
  EXPECT_EQ(ops[2], (ReplayedOp{30, 300, 43, false}));
  EXPECT_EQ(ops[3], (ReplayedOp{99, 999, 44, false}));
}

TEST(WalTest, EmptyLogReplaysNothing) {
  const std::string path = FreshPath("wal_empty.log");
  { ASSERT_TRUE(WalWriter::Create(path).ok()); }
  EXPECT_TRUE(Replay(path).empty());
}

TEST(WalTest, TornTailIsDiscardedShortRecord) {
  const std::string path = FreshPath("wal_torn.log");
  {
    auto wal = WalWriter::Create(path);
    ASSERT_TRUE(wal.ok());
    for (uint64_t i = 0; i < 10; ++i) {
      const WalOp op{i, i, false};
      ASSERT_TRUE(wal.value()->AppendBatch(&op, 1, i + 1).ok());
    }
  }
  // Simulate a crash mid-append: truncate into the middle of record 9.
  ASSERT_EQ(::truncate(path.c_str(), FileBytes(9) + 7), 0);
  const auto ops = Replay(path);
  ASSERT_EQ(ops.size(), 9u);
  EXPECT_EQ(ops.back().key, 8u);
}

TEST(WalTest, TornBatchIsDiscardedWhole) {
  // The atomicity contract: a torn multi-op record must not replay ANY of
  // its ops, even those whose bytes survived intact.
  const std::string path = FreshPath("wal_torn_batch.log");
  {
    auto wal = WalWriter::Create(path);
    ASSERT_TRUE(wal.ok());
    const WalOp first{1, 1, false};
    ASSERT_TRUE(wal.value()->AppendBatch(&first, 1, 1).ok());
    const WalOp batch[4] = {{2, 2, false}, {3, 3, false}, {4, 0, true},
                            {5, 5, false}};
    ASSERT_TRUE(wal.value()->AppendBatch(batch, 4, 2).ok());
  }
  // Cut into the LAST op of the batch: three ops' bytes are fully present
  // but the record (and its CRC) is torn — all four must vanish.
  ASSERT_EQ(::truncate(path.c_str(), FileBytes(1) + RecordBytes(4) - 6), 0);
  const auto ops = Replay(path);
  ASSERT_EQ(ops.size(), 1u);
  EXPECT_EQ(ops[0], (ReplayedOp{1, 1, 1, false}));
}

TEST(WalTest, CorruptChecksumStopsReplayThere) {
  const std::string path = FreshPath("wal_corrupt.log");
  {
    auto wal = WalWriter::Create(path);
    ASSERT_TRUE(wal.ok());
    for (uint64_t i = 0; i < 10; ++i) {
      const WalOp op{i, i, false};
      ASSERT_TRUE(wal.value()->AppendBatch(&op, 1, i + 1).ok());
    }
  }
  // Flip one payload byte of record 5; its CRC32C no longer matches, so
  // replay must stop after record 4 (torn-tail semantics).
  std::FILE* file = std::fopen(path.c_str(), "rb+");
  ASSERT_NE(file, nullptr);
  ASSERT_EQ(std::fseek(file, FileBytes(5) + 12 + 9, SEEK_SET), 0);
  const unsigned char bad = 0xFF;
  ASSERT_EQ(std::fwrite(&bad, 1, 1, file), 1u);
  std::fclose(file);
  const auto ops = Replay(path);
  ASSERT_EQ(ops.size(), 5u);
  EXPECT_EQ(ops.back().key, 4u);
}

TEST(WalTest, OtherVersionsAreRejectedNamingTheVersion) {
  // A freshly written log stamped with the retired version 1 (or a future
  // version) must be refused with a Status naming the version — never
  // replayed as if it were the current layout.
  const std::string path = FreshPath("wal_version.log");
  for (const uint32_t version : {1u, 3u}) {
    {
      auto wal = WalWriter::Create(path);
      ASSERT_TRUE(wal.ok());
      const WalOp op{1, 1, false};
      ASSERT_TRUE(wal.value()->AppendBatch(&op, 1, 1).ok());
    }
    std::FILE* file = std::fopen(path.c_str(), "rb+");
    ASSERT_NE(file, nullptr);
    ASSERT_EQ(std::fseek(file, 8, SEEK_SET), 0);
    uint8_t version_bytes[4];
    PutU32(version_bytes, version);
    ASSERT_EQ(std::fwrite(version_bytes, 1, 4, file), 4u);
    std::fclose(file);
    auto result = ReplayWal(path, [](Key, uint64_t, uint64_t, bool) {
      ADD_FAILURE() << "no op may replay from an unsupported version";
    });
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(result.status().ToString().find("unsupported WAL version " +
                                              std::to_string(version)),
              std::string::npos)
        << result.status().ToString();
  }
}

TEST(WalTest, SyncUpToCoversEverythingAppendedSoFar) {
  const std::string path = FreshPath("wal_syncupto.log");
  auto wal = WalWriter::Create(path);
  ASSERT_TRUE(wal.ok());
  uint64_t record = 0;
  for (uint64_t i = 0; i < 10; ++i) {
    const WalOp op{i, i, false};
    ASSERT_TRUE(wal.value()->AppendBatch(&op, 1, i + 1, &record).ok());
  }
  EXPECT_EQ(record, 10u);
  EXPECT_EQ(wal.value()->num_syncs(), 0u);
  // One call syncs the whole tail...
  ASSERT_TRUE(wal.value()->SyncUpTo(record).ok());
  EXPECT_EQ(wal.value()->num_syncs(), 1u);
  // ...so syncing any earlier record is already satisfied: no extra fsync.
  ASSERT_TRUE(wal.value()->SyncUpTo(3).ok());
  ASSERT_TRUE(wal.value()->SyncUpTo(10).ok());
  EXPECT_EQ(wal.value()->num_syncs(), 1u);
  // A new record needs a new fsync.
  const WalOp op{99, 99, false};
  ASSERT_TRUE(wal.value()->AppendBatch(&op, 1, 11, &record).ok());
  ASSERT_TRUE(wal.value()->SyncUpTo(record).ok());
  EXPECT_EQ(wal.value()->num_syncs(), 2u);
}

TEST(WalTest, GroupCommitBatchesConcurrentCommitters) {
  // The SfcTable insert pattern: appends serialized by a mutex, each
  // thread then calling SyncUpTo(its record) unlocked. Everything must be
  // durable and replayable, and the leader/follower protocol must issue
  // at most one fsync per committer (in practice far fewer — but that is
  // timing-dependent, so only the hard invariants are asserted).
  const std::string path = FreshPath("wal_group_commit.log");
  auto wal_result = WalWriter::Create(path);
  ASSERT_TRUE(wal_result.ok());
  WalWriter& wal = *wal_result.value();
  constexpr int kThreads = 4;
  constexpr uint64_t kPerThread = 200;
  std::mutex append_mu;
  uint64_t next_sequence = 1;
  std::vector<std::thread> committers;
  for (int t = 0; t < kThreads; ++t) {
    committers.emplace_back([&, t] {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        uint64_t record = 0;
        {
          std::lock_guard<std::mutex> lock(append_mu);
          const WalOp op{static_cast<uint64_t>(t) * kPerThread + i, i, false};
          ASSERT_TRUE(wal.AppendBatch(&op, 1, next_sequence++, &record).ok());
        }
        ASSERT_TRUE(wal.SyncUpTo(record).ok());
      }
    });
  }
  for (std::thread& committer : committers) committer.join();
  EXPECT_EQ(wal.num_records(), kThreads * kPerThread);
  EXPECT_GT(wal.num_syncs(), 0u);
  EXPECT_LE(wal.num_syncs(), kThreads * kPerThread);
  EXPECT_EQ(Replay(path).size(), kThreads * kPerThread);
}

TEST(WalTest, NumRecordsIsSafeToObserveDuringAppends) {
  // Regression: num_records() used to read the append-side counter
  // directly, racing with in-flight appends (appends are serialized by
  // the CALLER's lock, which an observer thread does not hold). It now
  // reads the atomic AppendBatch publishes after each record, so a
  // polling observer must always see a monotone count that never runs
  // ahead of what has actually been appended. Run under TSan (CI) this
  // also proves the read is race-free.
  const std::string path = FreshPath("wal_observer.log");
  auto wal_result = WalWriter::Create(path);
  ASSERT_TRUE(wal_result.ok());
  WalWriter& wal = *wal_result.value();
  constexpr uint64_t kRecords = 2000;
  std::atomic<bool> done{false};
  std::atomic<bool> observer_failed{false};
  std::thread observer([&] {
    uint64_t prev = 0;
    while (!done.load(std::memory_order_acquire)) {
      const uint64_t now = wal.num_records();
      const uint64_t syncs = wal.num_syncs();
      if (now < prev || now > kRecords || syncs > kRecords) {
        observer_failed.store(true);
        return;
      }
      prev = now;
    }
  });
  uint64_t record = 0;
  for (uint64_t i = 0; i < kRecords; ++i) {
    const WalOp op{i, i, false};
    ASSERT_TRUE(wal.AppendBatch(&op, 1, i + 1, &record).ok());
  }
  ASSERT_TRUE(wal.SyncUpTo(record).ok());
  done.store(true, std::memory_order_release);
  observer.join();
  EXPECT_FALSE(observer_failed.load());
  EXPECT_EQ(wal.num_records(), kRecords);
}

TEST(WalTest, MissingFileIsNotFound) {
  auto result = ReplayWal(FreshPath("wal_missing.log"),
                          [](Key, uint64_t, uint64_t, bool) {});
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

TEST(WalTest, BadHeaderIsRejected) {
  // A header without the magic reads as Corruption, the code a table open
  // (SfcDb::OpenTable) tolerates on the newest WAL only (a crash during
  // its creation).
  const std::string path = FreshPath("wal_badheader.log");
  std::FILE* file = std::fopen(path.c_str(), "wb");
  ASSERT_NE(file, nullptr);
  std::fputs("not a wal file at all", file);
  std::fclose(file);
  auto result = ReplayWal(path, [](Key, uint64_t, uint64_t, bool) {});
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCorruption);
}

}  // namespace
}  // namespace onion::storage
