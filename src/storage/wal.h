// Write-ahead log: crash durability for the memtable.
//
// Every write into an SfcTable — a single Insert/Delete or one table's
// slice of an SfcDb::Write batch — is appended to the table's active WAL
// file as ONE record before it is buffered in memory, so a process crash
// loses nothing and a multi-op record is all-or-nothing: on Open(), the
// table replays every live WAL file back into the memtable, and a torn
// record at the tail is discarded whole. A WAL file is paired with one
// memtable generation — when the memtable rotates, the WAL rotates with
// it, and once that generation's segment is durably on disk and
// referenced by the MANIFEST, the WAL file is obsolete (the MANIFEST's
// `wal_floor` fences it off) and is deleted.
//
// File layout (all integers little-endian; see docs/storage_format.md):
//
//   offset 0   header, 16 bytes:
//     [0]  magic "OSFCWAL1"
//     [8]  u32 format version (2)
//     [12] u32 reserved (zero)
//   offset 16  variable-length records, appended in commit order:
//     [0]  u32 num_ops (>= 1)
//     [4]  u64 first_sequence   — op i carries sequence first_sequence + i
//     [12] num_ops ops, 17 bytes each:
//            u8 type (0 = put, 1 = delete), u64 key, u64 payload
//     [..] u32 CRC32C over everything above (num_ops through the last op)
//
// A build replays only the version it writes; any other version is
// rejected with Status::InvalidArgument naming the version.
//
// Replay validates each record's checksum and treats the first short or
// corrupt record as the torn tail of an interrupted append: everything
// before it is recovered, everything from it on is discarded — which is
// exactly what makes a multi-op record an atomic commit. Every record is
// one write(2) to the OS (survives process death); fsync (survives power
// loss) is group-committed via SyncUpTo() — the path SfcTable uses under
// SfcTableOptions::wal_fsync: concurrent committers pile up behind one
// leader whose single fsync covers every record appended so far, so N
// threads pay ~1 fsync instead of N.

#ifndef ONION_STORAGE_WAL_H_
#define ONION_STORAGE_WAL_H_

#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "obs/metrics.h"
#include "sfc/types.h"
#include "storage/file.h"

namespace onion::storage {

/// One logical write of a WAL record (and of a WriteBatch): a put of
/// (key, payload) or a tombstone deleting every older version of `key`.
struct WalOp {
  Key key = 0;
  uint64_t payload = 0;  // 0 for tombstones
  bool tombstone = false;
};

/// On-disk size of one encoded op: u8 type + u64 key + u64 payload. The
/// SAME layout is used by WAL records and the SfcDb batch journal —
/// both go through the two helpers below, so the formats cannot drift.
inline constexpr uint64_t kWalOpBytes = 17;
/// Sanity cap on ops per record/journal slice; larger counts on disk are
/// treated as torn records, so writers must refuse them up front.
inline constexpr uint32_t kMaxWalRecordOps = 1u << 22;

/// Encodes `op` into `out[0..kWalOpBytes)`. Tombstones store payload 0.
void EncodeWalOp(const WalOp& op, uint8_t* out);
/// Decodes one op from `in[0..kWalOpBytes)`.
WalOp DecodeWalOp(const uint8_t* in);

/// Optional latency/throughput sinks (see docs/observability.md). Null
/// members record nothing; the pointed-to histograms must outlive every
/// writer they are wired into (SfcTable wires its own registry's, which
/// lives as long as the table).
struct WalMetrics {
  /// AppendBatch duration (encode + write), microseconds.
  obs::Histogram* append_us = nullptr;
  /// Physical fsync duration, microseconds (SyncUpTo leader fsyncs and
  /// Sync() alike).
  obs::Histogram* fsync_us = nullptr;
  /// Records covered per group-commit fsync — the group-commit win: with
  /// concurrent committers the p50 climbs above 1.
  obs::Histogram* commit_batch_records = nullptr;
};

class WalWriter {
 public:
  /// Creates a new WAL file at `path` (truncating any stale one) and writes
  /// the header.
  static Result<std::unique_ptr<WalWriter>> Create(std::string path);

  /// Wires the latency sinks. Call before the first append (the table
  /// does it right after Create, while the writer is still private).
  void set_metrics(const WalMetrics& metrics) { metrics_ = metrics; }

  ~WalWriter();
  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;

  /// Appends `count` ops as ONE record — the atomic commit unit: replay
  /// surfaces all of them or none — and writes it to the OS in one
  /// write. Op i carries sequence number `first_sequence + i`.
  /// The record is replayable as soon as this returns OK. Callers must
  /// serialize appends externally (SfcTable uses its writer mutex);
  /// `out_record`, when non-null, receives the record's 1-based index for
  /// a later SyncUpTo().
  /// A failed append poisons the writer: every later append fails too.
  /// A partial record may now sit at the file's tail, so acknowledging
  /// anything written after it would be unrecoverable — replay stops at
  /// the first torn record.
  Status AppendBatch(const WalOp* ops, size_t count, uint64_t first_sequence,
                     uint64_t* out_record = nullptr);

  /// Forces everything appended so far to stable storage.
  Status Sync();

  /// Group commit: returns once record `record` (from AppendBatch) is
  /// fsynced. One caller at a time becomes the leader and fsyncs
  /// everything appended so far; the rest wait and usually find their
  /// record already covered by the leader's fsync. Safe to call
  /// concurrently from any number of threads, and concurrently with
  /// further appends. A failed fsync is sticky: the writer refuses all
  /// later syncs (the tail's durability would be unknown).
  Status SyncUpTo(uint64_t record);

  /// Records appended AND published so far. Reads the atomic AppendBatch
  /// publishes after each record (num_records_ itself is protected only by
  /// the callers' external append serialization, so an observer thread
  /// reading it directly would race with an in-flight append).
  uint64_t num_records() const {
    return appended_record_.load(std::memory_order_acquire);
  }
  /// Physical fsyncs performed by SyncUpTo (group commit observability:
  /// with concurrent committers this stays well below num_records()).
  uint64_t num_syncs() const {
    return num_syncs_.load(std::memory_order_relaxed);
  }
  const std::string& path() const { return path_; }

 private:
  WalWriter(std::string path, File file);

  std::string path_;
  // num_records_, status_, and record_scratch_ are mutated only by
  // AppendBatch, whose callers serialize externally (SfcTable's writer
  // mutex) — no mutex of this class guards them, which is WHY observers
  // must go through the published atomics below. file_ is set once in
  // Create; AppendBatch writes through it while SyncUpTo's leader fsyncs
  // it, which the kernel serializes.
  File file_;
  WalMetrics metrics_;  // set once before the first append
  uint64_t num_records_ = 0;
  Status status_;  // first append error, sticky
  // Reused record buffer (appends are externally serialized), so a
  // steady-state append allocates nothing.
  std::vector<uint8_t> record_scratch_;

  // Group-commit state (SyncUpTo). appended_record_ is published by
  // AppendBatch (externally serialized); the rest is guarded by sync_mu_.
  std::atomic<uint64_t> appended_record_{0};
  std::atomic<uint64_t> num_syncs_{0};
  Mutex sync_mu_;
  CondVar sync_cv_;
  uint64_t synced_record_ ONION_GUARDED_BY(sync_mu_) = 0;
  bool sync_inflight_ ONION_GUARDED_BY(sync_mu_) = false;
  Status sync_status_ ONION_GUARDED_BY(sync_mu_);  // first fsync error, sticky
};

/// Replays the complete records of the WAL at `path` into `fn` — invoked
/// once per op as fn(key, payload, sequence, tombstone), in append order —
/// stopping silently at a torn tail. Returns the number of OPS replayed,
/// or an error: the file's read error, Corruption for a header that is
/// short or lacks the magic (what a crash during creation leaves), or
/// InvalidArgument for a whole header stamped with another version.
Result<uint64_t> ReplayWal(
    const std::string& path,
    const std::function<void(Key, uint64_t, uint64_t, bool)>& fn);

}  // namespace onion::storage

#endif  // ONION_STORAGE_WAL_H_
