// SfcDb: a catalog of named SfcTables sharing one buffer pool and one
// background worker pool — the multi-table face of the storage engine,
// and the only owner of an SfcTable: CreateTable/OpenTable are the only
// ways to make or open one.
//
// One process serving many spatial tables should not pay one page cache
// and one background thread PER table: SfcDb owns a single BufferPool
// (sized by SfcDbOptions::pool_pages, arbitrating memory across every
// table's segments — frames are keyed by process-unique source ids, so
// tables can never alias each other's pages) and a single WorkerPool of
// `num_workers` threads draining all tables' flush/compaction work with
// per-table fairness (storage/worker_pool.h). Per-table I/O attribution
// survives the sharing: each table's io_stats() counts only its own
// fetches (AtomicIoStats plumbed through every pool call), while
// pool_stats() reports the physical aggregate.
//
// On-disk layout of a database directory:
//   CATALOG         text file: format line ("onion-sfc-db 2") followed by
//                   one "table <name>" line per table, sorted by name,
//                   then one "index <table> <index> <extractor> <curve>
//                   <dir>" line per secondary index
//   BATCHLOG        the batch journal: one checksummed record per
//                   multi-table WriteBatch commit, the bridge that makes
//                   a batch atomic ACROSS tables (within one table its
//                   ops are a single WAL record already). Replayed —
//                   idempotently, by per-table sequence comparison — and
//                   truncated on Open.
//   <name>/         one SfcTable directory per cataloged table (MANIFEST,
//                   seg_*.sfc, wal_*.log — see docs/storage_format.md)
//   <t>__idx__<i>/  one hidden SfcTable directory per secondary index
//                   (possibly generation-suffixed after a curve
//                   migration); live only while a catalog `index` line
//                   names it
//
// Secondary indexes (storage/index_spec.h): CreateIndex(table, spec)
// re-keys the table's cells through spec.extractor and spec.curve into a
// hidden index table. From then on every Put/Delete the table receives
// through Write() is EXPANDED with the matching index ops, turning even a
// single-table batch into a journaled multi-table one — so the BATCHLOG
// guarantees recovery can never observe a base row without its index
// entry, or vice versa. (The flip side: writes to an indexed table MUST
// go through SfcDb::Write — direct SfcTable::Insert/Delete on the base
// handle would silently bypass index maintenance.) NewIndexCursor scans
// the index by box and resolves base rows snapshot-consistently;
// AdviseCurve ranks every registry curve on the boxes those scans
// actually served (or caller-provided ones), and MigrateIndexCurve
// rebuilds the index under the recommendation offline — crash-safe via
// the same orphan-GC rule as table creation.
//
// Versioned writes and reads: Write(WriteBatch&&) commits any mix of
// Put/Delete ops spanning any number of tables atomically — recovery
// after a crash at any instant replays all of the batch or none of it.
// GetSnapshot() pins every open table at its current sequence in one
// atomic step (no batch can land in between), so a set of cursors over
// several tables reads one consistent cross-table version.
//
// The CATALOG is rewritten atomically (tmp + fsync + rename + dir fsync)
// on every CreateTable/DropTable, and is the source of truth: a table
// directory is live only while the catalog names it. Creation writes the
// table directory FIRST and the catalog second; a crash in between leaves
// an orphan directory that the next Open() garbage-collects. Dropping
// rewrites the catalog FIRST and deletes the directory second; a crash in
// between leaves the same kind of orphan. Either way Open() converges to
// exactly the cataloged tables.
//
// Thread safety: all catalog operations (Create/Open/Drop/List/Close) are
// serialized by an internal mutex. The SfcTable* handles returned remain
// valid until that table is dropped or the database is closed/destroyed;
// table operations themselves (Insert/cursors/Flush/...) are concurrent
// as documented in storage/sfc_table.h. Destroying an SfcDb without
// Close() has crash semantics, exactly like destroying an unclosed
// SfcTable: nothing is flushed, WALs keep unflushed data recoverable.

#ifndef ONION_STORAGE_SFC_DB_H_
#define ONION_STORAGE_SFC_DB_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "analysis/advisor.h"
#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "index/disk_model.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "storage/buffer_pool.h"
#include "storage/file.h"
#include "storage/index_spec.h"
#include "storage/sfc_table.h"
#include "storage/worker_pool.h"
#include "storage/write_batch.h"

namespace onion::storage {

/// A consistent cross-table read pin: one per-table Snapshot for every
/// table open at GetSnapshot() time, all taken with multi-table commits
/// excluded, so the views agree on every WriteBatch (all-or-nothing).
/// Feed ForTable() into ReadOptions::snapshot. Must not outlive the db.
class DbSnapshot {
 public:
  /// The pin of `table`, or nullptr when the table was not open at
  /// snapshot time (reads of such a table see latest state).
  const Snapshot* ForTable(const SfcTable* table) const {
    const auto it = pins_.find(table);
    return it != pins_.end() ? it->second.get() : nullptr;
  }

 private:
  friend class SfcDb;
  std::map<const SfcTable*, std::shared_ptr<const Snapshot>> pins_;
};

struct SfcDbOptions {
  /// Capacity of the SHARED buffer pool, in pages, arbitrating cache
  /// memory across all tables.
  uint64_t pool_pages = 4096;
  /// Readahead budget of the shared pool: maximum EXTRA pages one miss
  /// may pull in with a single batched read (0 = disabled; see
  /// storage/buffer_pool.h).
  uint64_t readahead_pages = 0;
  /// Background worker threads shared by all tables' flushes and
  /// compactions (round-robin per-table fairness).
  size_t num_workers = 2;
  /// Defaults applied by CreateTable/OpenTable overloads that take no
  /// per-table options.
  SfcTableOptions table_options;
};

/// Read knobs of NewIndexCursor. Zero / null means "unbounded" / "pin a
/// fresh snapshot".
struct IndexReadOptions {
  /// Stop after this many BASE rows have been delivered.
  uint64_t limit = 0;
  /// Page/byte budgets applied to the index-table scan (the base-row
  /// point Gets are not budgeted — each touches O(1) pages).
  uint64_t max_pages = 0;
  uint64_t max_bytes = 0;
  /// Read index and base at this consistent cross-table pin. Null pins a
  /// fresh snapshot internally (kept alive by the cursor). A caller-
  /// provided snapshot must have been taken while both the base table and
  /// the index were open, or the read degrades to latest state for the
  /// uncovered side.
  std::shared_ptr<const DbSnapshot> snapshot;
};

class SfcDb {
 public:
  /// Opens the database at `dir`, creating the directory and an empty
  /// CATALOG when absent. Orphaned table directories (from a crash
  /// between a catalog rewrite and the matching directory create/delete)
  /// are garbage-collected here. Tables are NOT opened eagerly — use
  /// OpenTable.
  static Result<std::unique_ptr<SfcDb>> Open(const std::string& dir,
                                             const SfcDbOptions& options = {});

  /// Crash semantics when Close() was not called first: stops background
  /// work without flushing (WALs keep unflushed entries recoverable).
  ~SfcDb();

  SfcDb(const SfcDb&) = delete;
  SfcDb& operator=(const SfcDb&) = delete;

  /// Creates a table named `name` (letters, digits, '_', '-') keyed by the
  /// named curve over `universe`, catalogs it, and returns the open
  /// handle. The handle stays valid until DropTable(name) or Close().
  Result<SfcTable*> CreateTable(const std::string& name,
                                const std::string& curve_name,
                                const Universe& universe);
  Result<SfcTable*> CreateTable(const std::string& name,
                                const std::string& curve_name,
                                const Universe& universe,
                                const SfcTableOptions& options);

  /// Opens a cataloged table (WAL replay included), or returns the
  /// already-open handle. NotFound for names not in the catalog.
  Result<SfcTable*> OpenTable(const std::string& name);
  Result<SfcTable*> OpenTable(const std::string& name,
                              const SfcTableOptions& options);

  /// The open handle for `name`, or nullptr when the table is not
  /// currently open (or not cataloged).
  SfcTable* GetTable(const std::string& name) const;

  /// Commits every op of `batch` atomically: per table the ops land as
  /// one WAL record, and a batch spanning several tables is journaled in
  /// BATCHLOG first, so crash recovery replays all of it or none of it.
  /// Ops are validated (cataloged table, cell inside its universe) before
  /// anything is written — a validation error applies nothing. Tables the
  /// batch names are opened on demand. Concurrent Write calls are
  /// serialized with each other and with GetSnapshot (single-table
  /// Insert/Delete stay concurrent). When any involved table was opened
  /// with wal_fsync, the journal and every table record are fsynced
  /// before the commit is acknowledged.
  Status Write(WriteBatch&& batch);

  /// Pins every open table at its current sequence, atomically with
  /// respect to Write (a WriteBatch is visible in all pins or in none).
  /// Tables opened after the snapshot are not covered. The pins release
  /// when the returned shared_ptr drops.
  Result<std::shared_ptr<const DbSnapshot>> GetSnapshot();

  /// Uncatalogs `name` (atomic CATALOG rewrite), closes its open handle
  /// if any, and deletes the table directory — together with every
  /// secondary index registered on it. NotFound for unknown names.
  Status DropTable(const std::string& name);

  /// Cataloged table names, sorted.
  std::vector<std::string> ListTables() const;

  // --- Secondary indexes (storage/index_spec.h; see the file comment for
  // the atomicity rule and the write-path contract).

  /// Registers a secondary index on cataloged table `table`: creates the
  /// hidden index table keyed by spec.curve over the extractor's index
  /// universe, BACKFILLS it from the base table's current contents
  /// (offline: blocks Write/GetSnapshot for the duration), and catalogs
  /// it. From the moment this returns OK, Write() maintains the index
  /// atomically with the base. Crash-safe: the hidden directory becomes
  /// live only with the catalog rewrite; a crash mid-backfill leaves an
  /// orphan the next Open() collects. InvalidArgument for bad names,
  /// unknown extractors/curves, extractor/universe mismatches, or a
  /// duplicate index name; NotFound for an uncataloged table.
  Status CreateIndex(const std::string& table, const SecondaryIndexSpec& spec);

  /// Unregisters the index (atomic catalog rewrite) and deletes its hidden
  /// directory. NotFound when the table or index does not exist.
  Status DropIndex(const std::string& table, const std::string& index);

  /// The registered index specs of `table`, in creation order (empty for
  /// unknown tables).
  std::vector<SecondaryIndexSpec> ListIndexes(const std::string& table) const;

  /// The hidden index table behind (table, index) — introspection for
  /// tests, benches, and metrics tooling. Opens it if needed. Do NOT
  /// write through this handle; index contents are maintained by Write().
  Result<SfcTable*> IndexTable(const std::string& table,
                               const std::string& index);

  /// Streams the base rows whose INDEX cells fall inside `box` (a box in
  /// index-cell space, i.e. post-extractor coordinates), in nondecreasing
  /// index-curve-key order; each delivered entry is a base row (base
  /// cell + payload). Index and base are read at one consistent
  /// DbSnapshot — options.snapshot, or a fresh pin taken here and held by
  /// the cursor. The box is also recorded in the index's observed-query
  /// ring, the workload AdviseCurve consumes. Errors (unknown table or
  /// index, out-of-universe box, closed db) arrive as an error cursor.
  /// The cursor must not outlive the database.
  std::unique_ptr<Cursor> NewIndexCursor(const std::string& table,
                                         const std::string& index,
                                         const Box& box,
                                         const IndexReadOptions& options = {});

  /// Ranks every registry curve on `boxes` (empty: the index's recorded
  /// observed-query ring) under `model` and returns the cheapest —
  /// analysis/advisor.h wired to this index's universe. InvalidArgument
  /// when no boxes are available. Pure analysis: no index state changes;
  /// pass the recommendation to MigrateIndexCurve to act on it.
  Result<CurveAdvice> AdviseCurve(const std::string& table,
                                  const std::string& index,
                                  const std::vector<Box>& boxes = {},
                                  const DiskModel& model = DiskModel::Hdd());

  /// Rebuilds the index under `new_curve` (offline: blocks Write and
  /// GetSnapshot for the duration): backfills a fresh generation of the
  /// hidden table from the base, then atomically swaps the catalog to it
  /// and deletes the old generation. A crash at any instant leaves
  /// exactly one cataloged, complete index directory (the other
  /// generation is an orphan for the next Open). No-op when the index
  /// already uses `new_curve`.
  Status MigrateIndexCurve(const std::string& table, const std::string& index,
                           const std::string& new_curve);

  /// Clean shutdown: Close()s every open table (flush + quiesce), then
  /// stops the shared workers. Idempotent; returns the first table error.
  /// After Close() every catalog operation fails and previously returned
  /// SfcTable* handles are invalid.
  Status Close();

  const std::string& dir() const { return dir_; }
  size_t num_workers() const { return options_.num_workers; }
  /// Physical aggregate over all tables (per-table shares live in each
  /// table's io_stats()).
  IoStats pool_stats() const { return pool_->stats(); }
  uint64_t pool_resident_pages() const { return pool_->resident_pages(); }

  /// One dump of the whole engine: the db-level registry (batch-commit
  /// latency, worker queue/wait, pool gauges), the shared pool's physical
  /// I/O aggregate with its hit ratio, and every open table's DumpMetrics
  /// — as one JSON object or Prometheus text (per-table series carry a
  /// table="name" label). Metric catalog in docs/observability.md.
  std::string DumpMetrics(
      obs::MetricsFormat format = obs::MetricsFormat::kJson) const;
  /// The shared trace ring (flush/compaction/batch-commit events of ALL
  /// tables, one interleaved timeline) as a JSON array.
  std::string DumpTrace() const { return trace_->ToJson(); }
  /// The shared trace ring itself — layers above the engine (the net
  /// server's session-expiry sweep) deposit their events into the same
  /// timeline.
  obs::TraceRing& trace() const { return *trace_; }
  /// The db-level metric registry (tests; tables have their own).
  obs::MetricsRegistry& metrics() const { return *metrics_; }

 private:
  SfcDb(std::string dir, const SfcDbOptions& options);

  /// One registered secondary index (in-memory face of a catalog `index`
  /// line). Guarded by db_mu_.
  struct IndexInfo {
    SecondaryIndexSpec spec;
    /// Hidden table directory name (also its open_tables_ key):
    /// "<table>__idx__<index>", generation-suffixed after migrations.
    std::string dir;
    const IndexExtractor* extractor = nullptr;
    /// Bounded ring of the boxes NewIndexCursor served — the observed
    /// workload AdviseCurve evaluates by default.
    std::vector<Box> observed_boxes;
    size_t observed_next = 0;
  };

  std::string TablePath(const std::string& name) const;
  std::string CatalogPath() const;
  std::string BatchLogPath() const;
  /// Atomically rewrites CATALOG from catalog_ + indexes_.
  Status WriteCatalogLocked() const ONION_REQUIRES(db_mu_);
  Result<SfcTable*> OpenTableLocked(const std::string& name,
                                    const SfcTableOptions& options)
      ONION_REQUIRES(db_mu_);
  /// OpenTableLocked for cataloged tables OR hidden index directories
  /// (which the public OpenTable deliberately refuses).
  Result<SfcTable*> OpenAnyTableLocked(const std::string& name,
                                       const SfcTableOptions& options)
      ONION_REQUIRES(db_mu_);
  IndexInfo* FindIndexLocked(const std::string& table,
                             const std::string& index)
      ONION_REQUIRES(db_mu_);
  /// Builds (creates + backfills from the base's current contents) one
  /// hidden index table directory. Requires batch_mu_ + db_mu_ held (no
  /// concurrent writes). On failure the directory is removed.
  Result<std::unique_ptr<SfcTable>> BuildIndexTableLocked(
      SfcTable* base, const IndexExtractor& extractor,
      const std::string& curve_name, const std::string& dir_name)
      ONION_REQUIRES(batch_mu_, db_mu_);
  /// (Re)creates an empty BATCHLOG (header only).
  Status ResetBatchLogLocked() ONION_REQUIRES(batch_mu_);
  /// Open-time recovery: applies every journaled batch op a table's own
  /// WAL does not already cover (idempotent via per-table last_sequence),
  /// then truncates the journal. Tolerates a torn tail.
  Status ReplayBatchLog() ONION_EXCLUDES(batch_mu_, db_mu_);
  /// One table's share of a WriteBatch commit: its validated ops, the
  /// sequence range reserved for them, and the WAL handles pinned while
  /// the table's writer lock is held. Built by Write() under db_mu_,
  /// consumed by CommitSlicesLocked under batch_mu_.
  struct TableSlice {
    SfcTable* table = nullptr;
    std::string name;
    std::vector<WalOp> ops;
    uint64_t first_seq = 0;
    std::shared_ptr<WalWriter> wal;
    uint64_t record = 0;
  };
  /// The commit fan-out of Write(): journals a multi-table batch and
  /// applies every table's slice while holding ALL involved tables' writer
  /// locks (a dynamic, sorted set — see the definition for why the body's
  /// lock tracking is opted out while call sites still check batch_mu_).
  /// `journal_bytes` receives the bytes appended to BATCHLOG (0 for
  /// single-table batches, which skip the journal).
  Status CommitSlicesLocked(std::vector<TableSlice>* slices, bool want_fsync,
                            uint64_t* journal_bytes)
      ONION_REQUIRES(batch_mu_) ONION_NO_THREAD_SAFETY_ANALYSIS;

  const std::string dir_;
  const SfcDbOptions options_;

  // Observability (declared before pool_/workers_ so worker threads
  // recording into the registry never outlive it). The trace ring is
  // shared with every table (SharedResources::trace).
  const std::shared_ptr<obs::MetricsRegistry> metrics_ =
      std::make_shared<obs::MetricsRegistry>();
  const std::shared_ptr<obs::TraceRing> trace_ =
      std::make_shared<obs::TraceRing>();
  obs::Histogram* batch_commit_us_ = nullptr;  // resolved in the ctor

  std::shared_ptr<BufferPool> pool_;
  std::unique_ptr<WorkerPool> workers_;

  // Serializes multi-table commits (and GetSnapshot against them) and
  // guards the batch journal. Acquisition order: batch_mu_ strictly
  // before db_mu_ and before any table's writer lock. Mutable so the
  // const DumpMetrics can read batch_log_bytes_.
  mutable Mutex batch_mu_ ONION_ACQUIRED_BEFORE(db_mu_);
  // Lazily created on first use.
  File batch_log_ ONION_GUARDED_BY(batch_mu_);
  uint64_t batch_log_bytes_ ONION_GUARDED_BY(batch_mu_) = 0;
  // A journaled record failed to apply to every table: it is the only
  // repair copy, so truncation is disabled until the next Open replays
  // it. If the journal ALSO suffers an append failure in that state,
  // multi-table commits are refused entirely (poisoned) until reopen.
  bool batch_log_needs_replay_ ONION_GUARDED_BY(batch_mu_) = false;
  bool batch_log_poisoned_ ONION_GUARDED_BY(batch_mu_) = false;

  mutable Mutex db_mu_;
  // Sorted table names.
  std::vector<std::string> catalog_ ONION_GUARDED_BY(db_mu_);
  /// Secondary indexes per base table, in creation order. An entry's
  /// hidden table may or may not be open; its directory is live on disk
  /// exactly while the entry exists (catalog `index` lines mirror this).
  std::map<std::string, std::vector<IndexInfo>> indexes_
      ONION_GUARDED_BY(db_mu_);
  // Declared after workers_/pool_ so tables are destroyed first (their
  // destructors unregister from the worker pool).
  std::map<std::string, std::unique_ptr<SfcTable>> open_tables_
      ONION_GUARDED_BY(db_mu_);
  bool closed_ ONION_GUARDED_BY(db_mu_) = false;
  // Index read-path metric handles (resolved in the ctor).
  obs::Counter* index_queries_ = nullptr;
  obs::Counter* index_dangling_ = nullptr;
  obs::Counter* index_rows_resolved_ = nullptr;
};

}  // namespace onion::storage

#endif  // ONION_STORAGE_SFC_DB_H_
