#include "storage/sfc_db.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <optional>
#include <sstream>
#include <utility>
#include <vector>

#include "sfc/registry.h"
#include "storage/codec.h"
#include "storage/crc32c.h"
#include "storage/file.h"

namespace onion::storage {
namespace {

constexpr char kCatalogName[] = "CATALOG";
constexpr char kCatalogFormat[] = "onion-sfc-db";
/// The only version this build writes and reads.
constexpr int kCatalogVersion = 2;

/// Infix separating a base table name from an index name in a hidden
/// index directory ("<table>__idx__<index>[__g<N>]"). User table and
/// index names must not contain it, so hidden directories can never
/// collide with cataloged tables.
constexpr char kHiddenIndexInfix[] = "__idx__";

/// Capacity of each index's observed-query-box ring (the AdviseCurve
/// workload sample).
constexpr size_t kObservedBoxRingCapacity = 128;

/// Ops per WriteOps call when backfilling an index from a base scan.
constexpr size_t kBackfillBatchOps = 1024;

// Batch journal (BATCHLOG) geometry; byte spec in docs/storage_format.md.
constexpr char kBatchLogName[] = "BATCHLOG";
constexpr char kBatchLogMagic[8] = {'O', 'S', 'F', 'C', 'D', 'B', 'W', '1'};
constexpr uint32_t kBatchLogVersion = 1;
constexpr uint64_t kBatchLogHeaderBytes = 16;
/// Sanity cap on one record's body, validated BEFORE committing (an
/// oversized record on disk reads as a torn tail, which must never
/// happen to an acknowledged commit).
constexpr uint32_t kMaxBatchRecordBytes = 64u << 20;
/// The journal is truncated (all records are known-applied once their
/// table WAL appends returned) whenever it grows past this between
/// commits, bounding its size without a background job.
constexpr uint64_t kBatchLogTruncateBytes = 1u << 20;

/// Encoded size of one per-table journal section: u16 name length, the
/// name, u64 first_sequence, u32 num_ops, the ops. The single source for
/// both the phase-1 size validation and the phase-2 encoder of
/// SfcDb::Write, so the two cannot drift.
uint64_t JournalSectionBytes(const std::string& name, size_t num_ops) {
  return 2 + name.size() + 12 + num_ops * kWalOpBytes;
}

Status ValidateDbOptions(const SfcDbOptions& options) {
  if (options.pool_pages < 1) {
    return Status::InvalidArgument("pool_pages must be positive");
  }
  if (options.num_workers < 1) {
    return Status::InvalidArgument("num_workers must be positive");
  }
  return Status::OK();
}

/// Table names double as directory names: letters, digits, '_', '-' only,
/// so they can never escape the database directory or collide with the
/// CATALOG file.
bool ValidTableName(const std::string& name) {
  if (name.empty() || name.size() > 255) return false;
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '-';
    if (!ok) return false;
  }
  return true;
}

/// Hidden index directory names are composed of two validated names plus
/// fixed infixes, so they use the same character set but may exceed the
/// 255-char table-name cap.
bool ValidIndexDirName(const std::string& name) {
  if (name.empty() || name.size() > 600) return false;
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '-';
    if (!ok) return false;
  }
  return name.find(kHiddenIndexInfix) != std::string::npos;
}

}  // namespace

SfcDb::SfcDb(std::string dir, const SfcDbOptions& options)
    : dir_(std::move(dir)),
      options_(options),
      pool_(std::make_shared<BufferPool>(options.pool_pages,
                                         options.readahead_pages)),
      workers_(std::make_unique<WorkerPool>(options.num_workers)) {
  batch_commit_us_ = metrics_->histogram("db.batch_commit_us");
  workers_->SetMetrics(metrics_->histogram("workers.task_wait_us"),
                       metrics_->counter("workers.tasks_run"));
  index_queries_ = metrics_->counter("index.queries");
  index_dangling_ = metrics_->counter("index.dangling_entries");
  index_rows_resolved_ = metrics_->counter("index.rows_resolved");
}

SfcDb::~SfcDb() = default;

std::string SfcDb::TablePath(const std::string& name) const {
  return dir_ + "/" + name;
}

std::string SfcDb::CatalogPath() const { return dir_ + "/" + kCatalogName; }

std::string SfcDb::BatchLogPath() const { return dir_ + "/" + kBatchLogName; }

Status SfcDb::ResetBatchLogLocked() {
  batch_log_.Close();
  auto file = File::Create(BatchLogPath());
  if (!file.ok()) return file.status();
  uint8_t header[kBatchLogHeaderBytes] = {};
  std::memcpy(header, kBatchLogMagic, sizeof(kBatchLogMagic));
  PutU32(header + 8, kBatchLogVersion);
  const Status status = file.value().Append(header, sizeof(header));
  if (!status.ok()) return status;
  batch_log_ = std::move(file).value();
  batch_log_bytes_ = kBatchLogHeaderBytes;
  return Status::OK();
}

Status SfcDb::WriteCatalogLocked() const {
  std::string text;
  text += std::string(kCatalogFormat) + " " + std::to_string(kCatalogVersion) +
          "\n";
  for (const std::string& name : catalog_) text += "table " + name + "\n";
  for (const auto& [table, infos] : indexes_) {
    for (const IndexInfo& info : infos) {
      text += "index " + table + " " + info.spec.name + " " +
              info.spec.extractor + " " + info.spec.curve + " " + info.dir +
              "\n";
    }
  }
  return WriteFileAtomic(CatalogPath(), text);
}

Result<std::unique_ptr<SfcDb>> SfcDb::Open(const std::string& dir,
                                           const SfcDbOptions& options) {
  const Status valid = ValidateDbOptions(options);
  if (!valid.ok()) return valid;
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return Status::Internal("cannot create database directory " + dir + ": " +
                            ec.message());
  }
  std::unique_ptr<SfcDb> db(new SfcDb(dir, options));
  // catalog_/indexes_ are db_mu_-guarded even though the db is still
  // private to this thread; live_dirs snapshots the live directory set
  // for the lock-free GC sweep below.
  std::vector<std::string> live_dirs;
  {
    const MutexLock lock(db->db_mu_);
    auto text = ReadFileBytes(db->CatalogPath());
    if (!text.ok() && text.status().code() != StatusCode::kNotFound) {
      return text.status();
    }
    if (text.ok()) {
      std::istringstream in(text.value());
      std::string format;
      int version = 0;
      in >> format >> version;
      if (!in || format != kCatalogFormat) {
        return Status::InvalidArgument("bad catalog format in " + dir);
      }
      if (version != kCatalogVersion) {
        return Status::InvalidArgument(
            "unsupported catalog version " + std::to_string(version) +
            " (this build reads version " + std::to_string(kCatalogVersion) +
            " only) in " + dir);
      }
      std::string field;
      while (in >> field) {
        if (field == "table") {
          std::string name;
          in >> name;
          if (!ValidTableName(name)) {
            return Status::InvalidArgument("invalid table name '" + name +
                                           "' in catalog of " + dir);
          }
          db->catalog_.push_back(name);
        } else if (field == "index") {
          std::string table, index, extractor, curve, index_dir;
          if (!(in >> table >> index >> extractor >> curve >> index_dir)) {
            return Status::InvalidArgument("truncated index line in catalog of " +
                                           dir);
          }
          if (!ValidTableName(table) || !ValidTableName(index) ||
              !ValidIndexDirName(index_dir)) {
            return Status::InvalidArgument("invalid index line '" + table + " " +
                                           index + " " + index_dir +
                                           "' in catalog of " + dir);
          }
          IndexInfo info;
          info.spec.name = index;
          info.spec.extractor = extractor;
          info.spec.curve = curve;
          info.dir = index_dir;
          info.extractor = FindIndexExtractor(extractor);
          if (info.extractor == nullptr) {
            return Status::InvalidArgument("unknown index extractor '" +
                                           extractor + "' in catalog of " + dir);
          }
          db->indexes_[table].push_back(std::move(info));
        } else {
          return Status::InvalidArgument("unknown catalog field '" + field +
                                         "' in " + dir);
        }
      }
      std::sort(db->catalog_.begin(), db->catalog_.end());
      const auto dup =
          std::adjacent_find(db->catalog_.begin(), db->catalog_.end());
      if (dup != db->catalog_.end()) {
        return Status::InvalidArgument("duplicate table '" + *dup +
                                       "' in catalog of " + dir);
      }
      // Every index line must reference a cataloged table, and index names
      // must be unique per table.
      for (const auto& [table, infos] : db->indexes_) {
        if (!std::binary_search(db->catalog_.begin(), db->catalog_.end(),
                                table)) {
          return Status::InvalidArgument("index on uncataloged table '" + table +
                                         "' in catalog of " + dir);
        }
        for (size_t i = 0; i < infos.size(); ++i) {
          for (size_t j = i + 1; j < infos.size(); ++j) {
            if (infos[i].spec.name == infos[j].spec.name) {
              return Status::InvalidArgument("duplicate index '" +
                                             infos[i].spec.name + "' on table '" +
                                             table + "' in catalog of " + dir);
            }
          }
        }
      }
    } else {
      const Status status = db->WriteCatalogLocked();  // empty catalog
      if (!status.ok()) return status;
    }
    live_dirs = db->catalog_;
    for (const auto& [table, infos] : db->indexes_) {
      for (const IndexInfo& info : infos) live_dirs.push_back(info.dir);
    }
    std::sort(live_dirs.begin(), live_dirs.end());
  }
  // GC: a crash between "create table dir" and "catalog it" (or between
  // "uncatalog it" and "delete the dir") leaves an orphaned table
  // directory. The catalog is the source of truth, so any directory
  // holding a table MANIFEST but missing from the catalog is dead.
  // Collect first, delete after — removing entries mid-iteration is
  // unspecified — and keep the removal error separate so one stubborn
  // orphan cannot silently abort the sweep (survivors are retried on the
  // next Open anyway).
  // The live set is the cataloged tables PLUS every cataloged index's
  // hidden directory — so a crash mid-CreateIndex (directory built,
  // catalog not yet rewritten) or mid-migration (new generation built,
  // swap not yet durable) leaves a directory this sweep collects.
  const auto is_live_dir = [&live_dirs](const std::string& name) {
    return std::binary_search(live_dirs.begin(), live_dirs.end(), name);
  };
  std::vector<std::filesystem::path> orphans;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (ec) break;
    if (!entry.is_directory()) continue;
    const std::string name = entry.path().filename().string();
    if (is_live_dir(name)) continue;
    if (std::filesystem::exists(entry.path() / "MANIFEST")) {
      orphans.push_back(entry.path());
    }
  }
  for (const auto& orphan : orphans) {
    std::error_code remove_ec;
    std::filesystem::remove_all(orphan, remove_ec);
  }
  // Crash recovery for multi-table WriteBatches: re-apply any journaled
  // batch slice a table's own WAL did not durably receive before the
  // crash — this is what makes a batch atomic ACROSS tables.
  const Status replayed = db->ReplayBatchLog();
  if (!replayed.ok()) return replayed;
  return db;
}

Status SfcDb::ReplayBatchLog() {
  // Held for the whole replay: ResetBatchLogLocked (both the torn-header
  // path and the final truncation) writes the journal handle, and no
  // commit may interleave with recovery.
  const MutexLock batch_lock(batch_mu_);
  auto journal = ReadFileBytes(BatchLogPath());
  if (!journal.ok()) {
    // No journal: nothing pending.
    if (journal.status().code() == StatusCode::kNotFound) return Status::OK();
    return journal.status();
  }
  const auto* next = reinterpret_cast<const uint8_t*>(journal.value().data());
  const uint8_t* const file_end = next + journal.value().size();
  if (file_end - next < static_cast<ptrdiff_t>(kBatchLogHeaderBytes) ||
      std::memcmp(next, kBatchLogMagic, sizeof(kBatchLogMagic)) != 0 ||
      GetU32(next + 8) != kBatchLogVersion) {
    // A torn header can only mean a crash during journal creation, before
    // any record existed — nothing to recover.
    return ResetBatchLogLocked();
  }
  next += kBatchLogHeaderBytes;
  std::vector<SfcTable*> repaired;  // tables that received journal ops
  Status status;
  // Each record is u32 body_bytes, the body, u32 CRC32C of the body. A
  // short, oversized or corrupt record is a torn tail: that commit was
  // never acknowledged.
  while (file_end - next >= 4) {
    const uint32_t body_bytes = GetU32(next);
    if (body_bytes < 4 || body_bytes > kMaxBatchRecordBytes) break;
    if (static_cast<uint64_t>(file_end - next) < 8ull + body_bytes) break;
    const uint8_t* p = next + 4;
    const uint8_t* const end = p + body_bytes;
    if (GetU32(end) != Crc32c(p, body_bytes)) break;
    next = end + 4;
    // The record is whole, so the commit may have been acknowledged and
    // partially applied — walk its per-table sections and re-apply every
    // slice the table does not already have (sequence comparison; each
    // slice is one atomic WAL record, so it is wholly present or wholly
    // absent).
    const uint32_t num_tables = GetU32(p);
    p += 4;
    for (uint32_t t = 0; t < num_tables && status.ok(); ++t) {
      if (end - p < 2) {
        status = Status::Corruption("batch journal section");
        break;
      }
      const uint16_t name_len = static_cast<uint16_t>(p[0] | p[1] << 8);
      p += 2;
      if (end - p < name_len + 12) {
        status = Status::Corruption("batch journal section");
        break;
      }
      const std::string name(reinterpret_cast<const char*>(p), name_len);
      p += name_len;
      const uint64_t first_seq = GetU64(p);
      p += 8;
      const uint32_t num_ops = GetU32(p);
      p += 4;
      if (num_ops > kMaxWalRecordOps ||
          end - p < static_cast<ptrdiff_t>(num_ops * kWalOpBytes)) {
        status = Status::Corruption("batch journal section");
        break;
      }
      std::vector<WalOp> ops(num_ops);
      for (uint32_t i = 0; i < num_ops; ++i) {
        ops[i] = DecodeWalOp(p);
        p += kWalOpBytes;
      }
      Result<SfcTable*> table = Status::Internal("unresolved");
      {
        const MutexLock lock(db_mu_);
        // OpenAny: journal sections may name hidden index directories
        // (index slices of an expanded batch).
        table = OpenAnyTableLocked(name, options_.table_options);
      }
      if (!table.ok()) {
        // A dropped table's (or dropped index's) slice is moot; any other
        // failure means we cannot prove the batch applied — refuse to
        // open the database half-recovered.
        if (table.status().code() == StatusCode::kNotFound) continue;
        status = table.status();
        break;
      }
      if (num_ops == 0) continue;
      // Idempotency: skip only when the slice PROVABLY survived — in
      // segments or the replayed memtable. (A bare last_sequence
      // comparison would be fooled by a power loss that tore this slice's
      // WAL record while a later record in a rotated WAL survived.)
      if (table.value()->RecoveredStateCoversSequence(first_seq + num_ops -
                                                      1)) {
        continue;
      }
      status = table.value()->ReplayCommittedOps(ops.data(), num_ops,
                                                 first_seq);
      if (status.ok()) repaired.push_back(table.value());
    }
    if (!status.ok()) break;
  }
  if (!status.ok()) return status;
  // Before the journal — the only copy that could repair these slices
  // again — is truncated, force the re-applied WAL records to stable
  // storage (a write to the OS alone would not survive a power loss right
  // after this Open).
  std::sort(repaired.begin(), repaired.end());
  repaired.erase(std::unique(repaired.begin(), repaired.end()),
                 repaired.end());
  for (SfcTable* table : repaired) {
    const Status synced = table->SyncWalForRecovery();
    if (!synced.ok()) return synced;
  }
  // Everything journaled is now durable in the tables' own WALs, so the
  // journal restarts empty.
  return ResetBatchLogLocked();
}

Result<SfcTable*> SfcDb::CreateTable(const std::string& name,
                                     const std::string& curve_name,
                                     const Universe& universe) {
  return CreateTable(name, curve_name, universe, options_.table_options);
}

Result<SfcTable*> SfcDb::CreateTable(const std::string& name,
                                     const std::string& curve_name,
                                     const Universe& universe,
                                     const SfcTableOptions& options) {
  const MutexLock lock(db_mu_);
  if (closed_) return Status::InvalidArgument("database is closed: " + dir_);
  if (!ValidTableName(name)) {
    return Status::InvalidArgument("invalid table name '" + name +
                                   "' (use letters, digits, '_', '-')");
  }
  if (name.find(kHiddenIndexInfix) != std::string::npos) {
    return Status::InvalidArgument("invalid table name '" + name + "' ('" +
                                   kHiddenIndexInfix +
                                   "' is reserved for index directories)");
  }
  if (std::binary_search(catalog_.begin(), catalog_.end(), name)) {
    return Status::InvalidArgument("table '" + name + "' already exists in " +
                                   dir_);
  }
  auto table = SfcTable::Create(
      TablePath(name), curve_name, universe, options,
      SfcTable::SharedResources{pool_, workers_.get(), trace_});
  if (!table.ok()) return table.status();
  catalog_.insert(
      std::upper_bound(catalog_.begin(), catalog_.end(), name), name);
  const Status status = WriteCatalogLocked();
  if (!status.ok()) {
    // Roll back: uncatalog and remove the just-created directory (the
    // durable catalog still has the old list, so this directory is an
    // orphan either way).
    catalog_.erase(std::find(catalog_.begin(), catalog_.end(), name));
    table = Status::Internal("rollback");  // destroy the table object first
    std::error_code ec;
    std::filesystem::remove_all(TablePath(name), ec);
    return status;
  }
  SfcTable* raw = table.value().get();
  open_tables_[name] = std::move(table).value();
  return raw;
}

Result<SfcTable*> SfcDb::OpenTable(const std::string& name) {
  return OpenTable(name, options_.table_options);
}

Result<SfcTable*> SfcDb::OpenTable(const std::string& name,
                                   const SfcTableOptions& options) {
  // Hidden index directories are never cataloged tables; refuse them here
  // so they can only be reached through IndexTable.
  if (name.find(kHiddenIndexInfix) != std::string::npos) {
    return Status::NotFound("no table '" + name + "' in " + dir_);
  }
  const MutexLock lock(db_mu_);
  return OpenTableLocked(name, options);
}

Result<SfcTable*> SfcDb::OpenTableLocked(const std::string& name,
                                         const SfcTableOptions& options) {
  if (closed_) return Status::InvalidArgument("database is closed: " + dir_);
  const auto it = open_tables_.find(name);
  if (it != open_tables_.end()) return it->second.get();
  if (!std::binary_search(catalog_.begin(), catalog_.end(), name)) {
    return Status::NotFound("no table '" + name + "' in " + dir_);
  }
  auto table = SfcTable::Open(
      TablePath(name), options,
      SfcTable::SharedResources{pool_, workers_.get(), trace_});
  if (!table.ok()) return table.status();
  SfcTable* raw = table.value().get();
  open_tables_[name] = std::move(table).value();
  // Open the table's index tables eagerly: a DbSnapshot taken from now on
  // must pin them alongside the base (NewIndexCursor's consistency), and
  // Write's index expansion needs their curves anyway.
  const auto idx_it = indexes_.find(name);
  if (idx_it != indexes_.end()) {
    for (const IndexInfo& info : idx_it->second) {
      auto index_table = OpenAnyTableLocked(info.dir, options_.table_options);
      if (!index_table.ok()) return index_table.status();
    }
  }
  return raw;
}

Result<SfcTable*> SfcDb::OpenAnyTableLocked(const std::string& name,
                                            const SfcTableOptions& options) {
  const auto it = open_tables_.find(name);
  if (it != open_tables_.end()) return it->second.get();
  if (std::binary_search(catalog_.begin(), catalog_.end(), name)) {
    return OpenTableLocked(name, options);
  }
  if (closed_) return Status::InvalidArgument("database is closed: " + dir_);
  bool is_index_dir = false;
  for (const auto& [table, infos] : indexes_) {
    for (const IndexInfo& info : infos) {
      if (info.dir == name) is_index_dir = true;
    }
  }
  if (!is_index_dir) {
    return Status::NotFound("no table '" + name + "' in " + dir_);
  }
  auto table = SfcTable::Open(
      TablePath(name), options,
      SfcTable::SharedResources{pool_, workers_.get(), trace_});
  if (!table.ok()) return table.status();
  SfcTable* raw = table.value().get();
  open_tables_[name] = std::move(table).value();
  return raw;
}

SfcDb::IndexInfo* SfcDb::FindIndexLocked(const std::string& table,
                                         const std::string& index) {
  const auto it = indexes_.find(table);
  if (it == indexes_.end()) return nullptr;
  for (IndexInfo& info : it->second) {
    if (info.spec.name == index) return &info;
  }
  return nullptr;
}

Status SfcDb::Write(WriteBatch&& batch) {
  if (batch.empty()) return Status::OK();
  // Commit latency end to end: validation, the journal append, every
  // per-table WAL record, and (under wal_fsync) the fsyncs. Failed
  // commits are recorded too — their latency is just as real.
  const obs::ScopedTimer commit_timer(batch_commit_us_);
  const uint64_t num_ops = batch.ops().size();
  uint64_t journal_bytes = 0;
  // Phase 1 — resolve and validate under db_mu_, before anything is
  // logged: group the ops per table (preserving each table's op order),
  // open tables on demand, map cells to curve keys. Any error here
  // applies nothing. Dropping an involved table concurrently with this
  // Write is caller error, exactly like using any dropped handle.
  std::vector<TableSlice> slices;
  {
    const MutexLock lock(db_mu_);
    if (closed_) return Status::InvalidArgument("database is closed: " + dir_);
    const auto slice_for = [&slices](SfcTable* table,
                                     const std::string& name) -> TableSlice* {
      for (TableSlice& candidate : slices) {
        if (candidate.table == table) return &candidate;
      }
      slices.push_back(TableSlice{});
      slices.back().table = table;
      slices.back().name = name;
      return &slices.back();
    };
    for (const WriteBatch::Op& op : batch.ops()) {
      auto table = OpenTableLocked(op.table, options_.table_options);
      if (!table.ok()) return table.status();
      if (!table.value()->curve().universe().Contains(op.cell)) {
        return Status::OutOfRange("cell outside universe of table '" +
                                  op.table + "': " + op.cell.ToString());
      }
      const Key base_key = table.value()->curve().IndexOf(op.cell);
      slice_for(table.value(), op.table)
          ->ops.push_back(
              WalOp{base_key, op.tombstone ? 0 : op.payload, op.tombstone});
      // Index expansion: one index op per secondary index of the table —
      // a Put adds the index entry (index key -> base key), a Delete
      // tombstones the index cell (sound because extractors are
      // injective: that cell holds exactly the base cell's entries). The
      // expanded ops ride the SAME batch, so the BATCHLOG journal makes
      // base and index atomic under any crash.
      const auto idx_it = indexes_.find(op.table);
      if (idx_it == indexes_.end()) continue;
      const Universe& base_universe = table.value()->curve().universe();
      for (const IndexInfo& info : idx_it->second) {
        auto index_table = OpenAnyTableLocked(info.dir, options_.table_options);
        if (!index_table.ok()) return index_table.status();
        const Cell index_cell = info.extractor->map(op.cell, base_universe);
        const SpaceFillingCurve& index_curve = index_table.value()->curve();
        if (!index_curve.universe().Contains(index_cell)) {
          return Status::Internal("extractor '" + info.spec.extractor +
                                  "' mapped " + op.cell.ToString() +
                                  " outside the universe of index '" +
                                  info.spec.name + "'");
        }
        slice_for(index_table.value(), info.dir)
            ->ops.push_back(WalOp{index_curve.IndexOf(index_cell),
                                  op.tombstone ? 0 : base_key, op.tombstone});
      }
    }
    // Size limits are validated here, where an error still applies
    // NOTHING: a slice must fit one WAL record, and the whole journal
    // record must stay under the replay-side sanity cap (an oversized
    // record on disk would read back as a torn tail).
    uint64_t body_bytes = 4;
    for (const TableSlice& slice : slices) {
      if (slice.ops.size() > kMaxWalRecordOps) {
        return Status::InvalidArgument(
            "WriteBatch has too many ops for table '" + slice.name + "' (" +
            std::to_string(slice.ops.size()) + " > " +
            std::to_string(kMaxWalRecordOps) + ")");
      }
      body_bytes += JournalSectionBytes(slice.name, slice.ops.size());
    }
    if (slices.size() > 1 && body_bytes > kMaxBatchRecordBytes) {
      return Status::InvalidArgument(
          "WriteBatch journal record would exceed " +
          std::to_string(kMaxBatchRecordBytes) + " bytes");
    }
  }
  // Phase 2 — commit under batch_mu_ (serializes multi-table commits and
  // excludes GetSnapshot) with every involved table's writer lock held in
  // a canonical order, so per-table sequence order equals WAL append
  // order — the invariant the journal's idempotent replay stands on.
  std::sort(slices.begin(), slices.end(),
            [](const TableSlice& a, const TableSlice& b) {
              return a.table < b.table;
            });
  bool want_fsync = false;
  for (const TableSlice& slice : slices) {
    want_fsync = want_fsync || slice.table->options_.wal_fsync;
  }
  const MutexLock batch_lock(batch_mu_);
  const Status status =
      CommitSlicesLocked(&slices, want_fsync, &journal_bytes);
  if (!status.ok()) return status;
  // Power-loss durability on request: CommitSlicesLocked already
  // fsynced the journal record (before any table append); finish with
  // each table's WAL via group commit, outside the writer locks.
  if (want_fsync) {
    for (const TableSlice& slice : slices) {
      const Status synced = slice.wal->SyncUpTo(slice.record);
      if (!synced.ok()) return synced;
    }
  }
  trace_->Add(obs::TraceEvent{
      trace_->NextId(), obs::TraceKind::kBatchCommit,
      slices.size() > 1 ? "multi" : slices.front().name,
      commit_timer.start_us(), obs::NowMicros() - commit_timer.start_us(),
      journal_bytes, num_ops});
  return Status::OK();
}

Status SfcDb::CommitSlicesLocked(std::vector<TableSlice>* slices,
                                 bool want_fsync, uint64_t* journal_bytes) {
  // Lock tracking is opted out here (the declaration carries
  // ONION_NO_THREAD_SAFETY_ANALYSIS): the involved tables' writer locks
  // form a DYNAMIC set — one LockWal per slice, in the caller's
  // sorted-pointer order — which the static analysis cannot express.
  // batch_mu_ is still enforced at every call site via ONION_REQUIRES.
  if (slices->size() > 1 && batch_log_poisoned_) {
    // A journal append failed while an earlier record was still
    // un-applied: the torn tail blocks new records from ever being
    // replayable, and truncating would lose the un-applied one. Only a
    // reopen (which replays and resets the journal) can recover.
    return Status::Internal(
        "batch journal needs recovery (reopen the database): " +
        BatchLogPath());
  }
  for (TableSlice& slice : *slices) slice.table->LockWal();
  Status status;
  for (TableSlice& slice : *slices) {
    status = slice.table->PrecheckWritableWalLocked();
    if (!status.ok()) break;
  }
  if (status.ok()) {
    for (TableSlice& slice : *slices) {
      slice.first_seq =
          slice.table->ReserveSequencesWalLocked(slice.ops.size());
    }
    // The journal record is the cross-table commit point: written (and
    // OS-flushed) BEFORE any table sees the batch, so a crash between the
    // per-table applies is repaired by replay. A single-table batch needs
    // no journal — its one WAL record is already atomic.
    if (slices->size() > 1) {
      // One journal record, u32 body_bytes ‖ body ‖ u32 CRC32C, built in
      // one buffer so it reaches the OS in one append. The body starts
      // with u32 num_tables.
      std::vector<uint8_t> record(8);
      PutU32(record.data() + 4, static_cast<uint32_t>(slices->size()));
      for (const TableSlice& slice : *slices) {
        const size_t at = record.size();
        record.resize(at + JournalSectionBytes(slice.name, slice.ops.size()));
        uint8_t* p = record.data() + at;
        p[0] = static_cast<uint8_t>(slice.name.size() & 0xFF);
        p[1] = static_cast<uint8_t>(slice.name.size() >> 8);
        p += 2;
        std::memcpy(p, slice.name.data(), slice.name.size());
        p += slice.name.size();
        PutU64(p, slice.first_seq);
        p += 8;
        PutU32(p, static_cast<uint32_t>(slice.ops.size()));
        p += 4;
        for (const WalOp& op : slice.ops) {
          EncodeWalOp(op, p);
          p += kWalOpBytes;
        }
      }
      const size_t body_bytes = record.size() - 4;
      PutU32(record.data(), static_cast<uint32_t>(body_bytes));
      record.resize(record.size() + 4);
      PutU32(record.data() + 4 + body_bytes,
             Crc32c(record.data() + 4, body_bytes));
      // Bound the journal: every record already on disk is known-applied
      // (its table WAL appends returned before its commit was
      // acknowledged), so truncating between commits loses nothing —
      // UNLESS a mid-batch apply failure left a journaled record
      // un-applied, in which case that record is the only repair copy
      // and truncation must wait for the next Open's replay.
      if (batch_log_.is_open() && !batch_log_needs_replay_ &&
          batch_log_bytes_ > kBatchLogTruncateBytes) {
        status = ResetBatchLogLocked();
      }
      if (status.ok() && !batch_log_.is_open()) {
        status = ResetBatchLogLocked();
      }
      if (status.ok()) {
        status = batch_log_.Append(record.data(), record.size());
        if (!status.ok()) {
          // The failed write may have left a torn record at the tail; a
          // later acknowledged commit appended after it would be
          // unreachable at recovery (replay stops at the first torn
          // record). With every earlier record known-applied, dropping
          // the handle is enough — the next commit re-creates the
          // journal, truncating the torn tail. With an un-applied record
          // present the journal must be preserved: poison multi-table
          // commits until a reopen replays it.
          if (batch_log_needs_replay_) {
            batch_log_poisoned_ = true;
          } else {
            batch_log_.Close();
          }
        } else {
          batch_log_bytes_ += record.size();
          *journal_bytes = record.size();
          // The cross-table commit point must not be able to reach disk
          // AFTER a table slice it repairs: under wal_fsync (power-loss
          // durability) sync the journal record BEFORE any table WAL
          // append — a concurrent committer's group fsync could
          // otherwise persist a slice first.
          if (want_fsync) status = batch_log_.Sync();
        }
      }
    }
  }
  if (status.ok()) {
    for (TableSlice& slice : *slices) {
      status = slice.table->ApplyOpsWalLocked(slice.ops.data(),
                                              slice.ops.size(),
                                              slice.first_seq, &slice.wal,
                                              &slice.record);
      // On a mid-batch failure the journal record (multi-table case)
      // repairs the already-applied slices' counterparts on the next
      // Open; the commit itself is reported failed. Until that replay,
      // the record must survive every truncation path.
      if (!status.ok()) {
        if (slices->size() > 1) batch_log_needs_replay_ = true;
        break;
      }
    }
  }
  for (auto it = slices->rbegin(); it != slices->rend(); ++it) {
    it->table->UnlockWal();
  }
  return status;
}

Result<std::shared_ptr<const DbSnapshot>> SfcDb::GetSnapshot() {
  // batch_mu_ first: no WriteBatch can commit between two tables' pins,
  // so the per-table sequences agree on every batch (all or nothing).
  const MutexLock batch_lock(batch_mu_);
  const MutexLock lock(db_mu_);
  if (closed_) return Status::InvalidArgument("database is closed: " + dir_);
  auto snapshot = std::make_shared<DbSnapshot>();
  for (auto& [name, table] : open_tables_) {
    snapshot->pins_[table.get()] = table->GetSnapshot();
  }
  return std::shared_ptr<const DbSnapshot>(std::move(snapshot));
}

SfcTable* SfcDb::GetTable(const std::string& name) const {
  if (name.find(kHiddenIndexInfix) != std::string::npos) return nullptr;
  const MutexLock lock(db_mu_);
  const auto it = open_tables_.find(name);
  return it != open_tables_.end() ? it->second.get() : nullptr;
}

Status SfcDb::DropTable(const std::string& name) {
  // batch_mu_ first (global order): no Write may be expanding ops against
  // this table's indexes while they are being destroyed.
  const MutexLock batch_lock(batch_mu_);
  const MutexLock lock(db_mu_);
  if (closed_) return Status::InvalidArgument("database is closed: " + dir_);
  const auto catalog_it =
      std::lower_bound(catalog_.begin(), catalog_.end(), name);
  if (catalog_it == catalog_.end() || *catalog_it != name) {
    return Status::NotFound("no table '" + name + "' in " + dir_);
  }
  // Quiesce and destroy the open handle first so no background work (or
  // caller, per the handle-lifetime contract) touches files mid-delete.
  const auto open_it = open_tables_.find(name);
  if (open_it != open_tables_.end()) {
    // Drop discards data anyway; a close error is moot.
    (void)open_it->second->Close();
    open_tables_.erase(open_it);
  }
  // The table's secondary indexes die with it: uncatalog them in the same
  // atomic rewrite, delete their hidden directories after.
  std::vector<IndexInfo> dropped_indexes;
  const auto idx_it = indexes_.find(name);
  if (idx_it != indexes_.end()) {
    dropped_indexes = std::move(idx_it->second);
    indexes_.erase(idx_it);
  }
  catalog_.erase(catalog_it);
  const Status status = WriteCatalogLocked();
  if (!status.ok()) {
    // Catalog unchanged on disk: re-catalog in memory; the table can be
    // reopened via OpenTable.
    catalog_.insert(std::upper_bound(catalog_.begin(), catalog_.end(), name),
                    name);
    if (!dropped_indexes.empty()) indexes_[name] = std::move(dropped_indexes);
    return status;
  }
  std::error_code ec;
  for (const IndexInfo& info : dropped_indexes) {
    const auto open_index_it = open_tables_.find(info.dir);
    if (open_index_it != open_tables_.end()) {
      // The index dies with its table; a close error is moot.
      (void)open_index_it->second->Close();
      open_tables_.erase(open_index_it);
    }
    std::filesystem::remove_all(TablePath(info.dir), ec);
  }
  std::filesystem::remove_all(TablePath(name), ec);
  if (ec) {
    return Status::Internal("table '" + name + "' uncataloged but its " +
                            "directory could not be removed: " + ec.message());
  }
  return Status::OK();
}

std::vector<std::string> SfcDb::ListTables() const {
  const MutexLock lock(db_mu_);
  return catalog_;
}

Result<std::unique_ptr<SfcTable>> SfcDb::BuildIndexTableLocked(
    SfcTable* base, const IndexExtractor& extractor,
    const std::string& curve_name, const std::string& dir_name) {
  const Universe base_universe = base->curve().universe();
  const Universe index_universe = extractor.index_universe(base_universe);
  auto table = SfcTable::Create(
      TablePath(dir_name), curve_name, index_universe, options_.table_options,
      SfcTable::SharedResources{pool_, workers_.get(), trace_});
  if (!table.ok()) return table.status();
  // Backfill: one index entry per live base row, batched through the
  // hidden table's own single-table (WAL-atomic) write path. batch_mu_ is
  // held, so the base cannot move underneath the scan; a crash anywhere
  // in here leaves an uncataloged directory the next Open() collects.
  Status status;
  {
    const auto cursor = base->NewScanCursor();
    const SpaceFillingCurve& index_curve = table.value()->curve();
    std::vector<WalOp> ops;
    ops.reserve(kBackfillBatchOps);
    for (; cursor->Valid(); cursor->Next()) {
      const SpatialEntry& row = cursor->entry();
      const Cell index_cell = extractor.map(row.cell, base_universe);
      if (!index_universe.Contains(index_cell)) {
        status = Status::Internal(
            "extractor '" + std::string(extractor.name) + "' mapped " +
            row.cell.ToString() + " outside the index universe");
        break;
      }
      ops.push_back(WalOp{index_curve.IndexOf(index_cell),
                          base->curve().IndexOf(row.cell), false});
      if (ops.size() >= kBackfillBatchOps) {
        status = table.value()->WriteOps(ops.data(), ops.size());
        ops.clear();
        if (!status.ok()) break;
      }
    }
    if (status.ok()) status = cursor->status();
    if (status.ok() && !ops.empty()) {
      status = table.value()->WriteOps(ops.data(), ops.size());
    }
  }
  if (!status.ok()) {
    table = Status::Internal("rollback");  // destroy the handle first
    std::error_code ec;
    std::filesystem::remove_all(TablePath(dir_name), ec);
    return status;
  }
  return table;
}

Status SfcDb::CreateIndex(const std::string& table,
                          const SecondaryIndexSpec& spec) {
  // batch_mu_ first: the backfill must see a base no Write can move, and
  // the catalog flip must not interleave with an expanding commit.
  const MutexLock batch_lock(batch_mu_);
  const MutexLock lock(db_mu_);
  if (closed_) return Status::InvalidArgument("database is closed: " + dir_);
  if (!ValidTableName(spec.name) ||
      spec.name.find(kHiddenIndexInfix) != std::string::npos) {
    return Status::InvalidArgument("invalid index name '" + spec.name +
                                   "' (use letters, digits, '_', '-')");
  }
  if (!ValidTableName(spec.curve)) {
    return Status::InvalidArgument("invalid curve name '" + spec.curve + "'");
  }
  if (!std::binary_search(catalog_.begin(), catalog_.end(), table)) {
    return Status::NotFound("no table '" + table + "' in " + dir_);
  }
  if (FindIndexLocked(table, spec.name) != nullptr) {
    return Status::InvalidArgument("index '" + spec.name +
                                   "' already exists on table '" + table +
                                   "'");
  }
  const IndexExtractor* extractor = FindIndexExtractor(spec.extractor);
  if (extractor == nullptr) {
    std::string known;
    for (const std::string& name : KnownIndexExtractorNames()) {
      known += (known.empty() ? "" : ", ") + name;
    }
    return Status::InvalidArgument("unknown index extractor '" +
                                   spec.extractor + "' (known: " + known +
                                   ")");
  }
  auto base = OpenTableLocked(table, options_.table_options);
  if (!base.ok()) return base.status();
  if (base.value()->curve().universe().dims() < extractor->min_dims) {
    return Status::InvalidArgument(
        "extractor '" + spec.extractor + "' needs at least " +
        std::to_string(extractor->min_dims) + " dimensions; table '" + table +
        "' has " + std::to_string(base.value()->curve().universe().dims()));
  }
  // Probe the curve now so an unknown name (or a curve/universe mismatch,
  // e.g. zorder over a non-power-of-two side) is InvalidArgument before
  // anything touches disk.
  if (auto probe = MakeCurve(spec.curve,
                             extractor->index_universe(
                                 base.value()->curve().universe()));
      !probe.ok()) {
    return Status::InvalidArgument("curve '" + spec.curve +
                                   "' is not usable for index '" + spec.name +
                                   "': " + probe.status().message());
  }
  const std::string dir_name = table + kHiddenIndexInfix + spec.name;
  auto built =
      BuildIndexTableLocked(base.value(), *extractor, spec.curve, dir_name);
  if (!built.ok()) return built.status();
  IndexInfo info;
  info.spec = spec;
  info.dir = dir_name;
  info.extractor = extractor;
  indexes_[table].push_back(std::move(info));
  const Status status = WriteCatalogLocked();
  if (!status.ok()) {
    indexes_[table].pop_back();
    if (indexes_[table].empty()) indexes_.erase(table);
    built = Status::Internal("rollback");  // destroy the handle first
    std::error_code ec;
    std::filesystem::remove_all(TablePath(dir_name), ec);
    return status;
  }
  open_tables_[dir_name] = std::move(built).value();
  return Status::OK();
}

Status SfcDb::DropIndex(const std::string& table, const std::string& index) {
  const MutexLock batch_lock(batch_mu_);
  const MutexLock lock(db_mu_);
  if (closed_) return Status::InvalidArgument("database is closed: " + dir_);
  const auto it = indexes_.find(table);
  if (it == indexes_.end()) {
    return Status::NotFound("no index '" + index + "' on table '" + table +
                            "' in " + dir_);
  }
  const auto pos = std::find_if(
      it->second.begin(), it->second.end(),
      [&index](const IndexInfo& info) { return info.spec.name == index; });
  if (pos == it->second.end()) {
    return Status::NotFound("no index '" + index + "' on table '" + table +
                            "' in " + dir_);
  }
  const size_t at = static_cast<size_t>(pos - it->second.begin());
  IndexInfo removed = std::move(*pos);
  it->second.erase(pos);
  const bool was_last = it->second.empty();
  if (was_last) indexes_.erase(it);
  const Status status = WriteCatalogLocked();
  if (!status.ok()) {
    auto& infos = indexes_[table];  // re-creates the entry if was_last
    infos.insert(infos.begin() + static_cast<ptrdiff_t>(at),
                 std::move(removed));
    return status;
  }
  const auto open_it = open_tables_.find(removed.dir);
  if (open_it != open_tables_.end()) {
    // Drop discards data anyway; a close error is moot.
    (void)open_it->second->Close();
    open_tables_.erase(open_it);
  }
  std::error_code ec;
  std::filesystem::remove_all(TablePath(removed.dir), ec);
  if (ec) {
    return Status::Internal("index '" + index + "' uncataloged but its " +
                            "directory could not be removed: " + ec.message());
  }
  return Status::OK();
}

std::vector<SecondaryIndexSpec> SfcDb::ListIndexes(
    const std::string& table) const {
  const MutexLock lock(db_mu_);
  std::vector<SecondaryIndexSpec> specs;
  const auto it = indexes_.find(table);
  if (it == indexes_.end()) return specs;
  for (const IndexInfo& info : it->second) specs.push_back(info.spec);
  return specs;
}

Result<SfcTable*> SfcDb::IndexTable(const std::string& table,
                                    const std::string& index) {
  const MutexLock lock(db_mu_);
  if (closed_) return Status::InvalidArgument("database is closed: " + dir_);
  IndexInfo* info = FindIndexLocked(table, index);
  if (info == nullptr) {
    return Status::NotFound("no index '" + index + "' on table '" + table +
                            "' in " + dir_);
  }
  return OpenAnyTableLocked(info->dir, options_.table_options);
}

std::unique_ptr<Cursor> SfcDb::NewIndexCursor(const std::string& table,
                                              const std::string& index,
                                              const Box& box,
                                              const IndexReadOptions& options) {
  SfcTable* base = nullptr;
  SfcTable* index_table = nullptr;
  {
    const MutexLock lock(db_mu_);
    if (closed_) {
      return NewErrorCursor(
          Status::InvalidArgument("database is closed: " + dir_));
    }
    IndexInfo* info = FindIndexLocked(table, index);
    if (info == nullptr) {
      return NewErrorCursor(Status::NotFound("no index '" + index +
                                             "' on table '" + table +
                                             "' in " + dir_));
    }
    auto base_result = OpenTableLocked(table, options_.table_options);
    if (!base_result.ok()) return NewErrorCursor(base_result.status());
    auto index_result = OpenAnyTableLocked(info->dir, options_.table_options);
    if (!index_result.ok()) return NewErrorCursor(index_result.status());
    base = base_result.value();
    index_table = index_result.value();
    // Record the served box into the index's observed-workload ring (the
    // AdviseCurve default input). Invalid boxes are not a workload.
    if (index_table->curve().universe().Contains(box)) {
      if (info->observed_boxes.size() < kObservedBoxRingCapacity) {
        info->observed_boxes.push_back(box);
      } else {
        info->observed_boxes[info->observed_next] = box;
        info->observed_next =
            (info->observed_next + 1) % kObservedBoxRingCapacity;
      }
    }
  }
  index_queries_->Increment();
  // One consistent cross-table pin for the index scan AND the base
  // resolution — the caller's, or a fresh one the cursor keeps alive.
  std::shared_ptr<const DbSnapshot> pin = options.snapshot;
  if (pin == nullptr) {
    auto snapshot = GetSnapshot();
    if (!snapshot.ok()) return NewErrorCursor(snapshot.status());
    pin = std::move(snapshot).value();
  }
  ReadOptions index_read;
  index_read.max_pages = options.max_pages;
  index_read.max_bytes = options.max_bytes;
  index_read.snapshot = pin->ForTable(index_table);
  auto inner = index_table->NewBoxCursor(box, index_read);
  return NewIndexResolveCursor(std::move(inner), base, pin->ForTable(base),
                               pin, options.limit, index_dangling_,
                               index_rows_resolved_);
}

Result<CurveAdvice> SfcDb::AdviseCurve(const std::string& table,
                                       const std::string& index,
                                       const std::vector<Box>& boxes,
                                       const DiskModel& model) {
  std::vector<Box> workload = boxes;
  std::optional<Universe> universe;
  {
    const MutexLock lock(db_mu_);
    if (closed_) return Status::InvalidArgument("database is closed: " + dir_);
    IndexInfo* info = FindIndexLocked(table, index);
    if (info == nullptr) {
      return Status::NotFound("no index '" + index + "' on table '" + table +
                              "' in " + dir_);
    }
    auto index_table = OpenAnyTableLocked(info->dir, options_.table_options);
    if (!index_table.ok()) return index_table.status();
    universe = index_table.value()->curve().universe();
    if (workload.empty()) workload = info->observed_boxes;
  }
  if (workload.empty()) {
    return Status::InvalidArgument(
        "no observed query boxes for index '" + index + "' on table '" +
        table + "' — pass boxes explicitly or run NewIndexCursor queries "
        "first");
  }
  // The exact clustering evaluation is CPU-heavy (O(n) per candidate
  // curve); it runs on copies, outside every database lock.
  return ::onion::AdviseCurve(*universe, workload, model);
}

Status SfcDb::MigrateIndexCurve(const std::string& table,
                                const std::string& index,
                                const std::string& new_curve) {
  // Offline rebuild: hold batch_mu_ so no Write lands between the
  // backfill scan and the catalog swap (the new generation would miss
  // it).
  const MutexLock batch_lock(batch_mu_);
  const MutexLock lock(db_mu_);
  if (closed_) return Status::InvalidArgument("database is closed: " + dir_);
  if (!ValidTableName(new_curve)) {
    return Status::InvalidArgument("invalid curve name '" + new_curve + "'");
  }
  IndexInfo* info = FindIndexLocked(table, index);
  if (info == nullptr) {
    return Status::NotFound("no index '" + index + "' on table '" + table +
                            "' in " + dir_);
  }
  if (info->spec.curve == new_curve) return Status::OK();
  auto base = OpenTableLocked(table, options_.table_options);
  if (!base.ok()) return base.status();
  if (auto probe = MakeCurve(new_curve,
                             info->extractor->index_universe(
                                 base.value()->curve().universe()));
      !probe.ok()) {
    return Status::InvalidArgument("curve '" + new_curve +
                                   "' is not usable for index '" + index +
                                   "': " + probe.status().message());
  }
  // Each rebuild gets a fresh generation-suffixed directory, so the old
  // and new generations coexist until the atomic catalog rewrite picks
  // the winner; whichever loses (crash included) is an orphan.
  const std::string stem = table + kHiddenIndexInfix + info->spec.name;
  const std::string generation_prefix = stem + "__g";
  uint64_t generation = 2;
  if (info->dir.compare(0, generation_prefix.size(), generation_prefix) == 0) {
    generation =
        std::strtoull(info->dir.c_str() + generation_prefix.size(), nullptr,
                      10) +
        1;
  }
  const std::string new_dir =
      generation_prefix + std::to_string(generation);
  auto built =
      BuildIndexTableLocked(base.value(), *info->extractor, new_curve, new_dir);
  if (!built.ok()) return built.status();
  const std::string old_dir = info->dir;
  const std::string old_curve = info->spec.curve;
  info->dir = new_dir;
  info->spec.curve = new_curve;
  const Status status = WriteCatalogLocked();
  if (!status.ok()) {
    info->dir = old_dir;
    info->spec.curve = old_curve;
    built = Status::Internal("rollback");  // destroy the handle first
    std::error_code ec;
    std::filesystem::remove_all(TablePath(new_dir), ec);
    return status;
  }
  open_tables_[new_dir] = std::move(built).value();
  const auto open_it = open_tables_.find(old_dir);
  if (open_it != open_tables_.end()) {
    // The old generation is deleted right below; a close error is moot.
    (void)open_it->second->Close();
    open_tables_.erase(open_it);
  }
  std::error_code ec;
  std::filesystem::remove_all(TablePath(old_dir), ec);
  if (ec) {
    return Status::Internal("index '" + index + "' migrated to '" + new_curve +
                            "' but the old generation could not be removed: " +
                            ec.message());
  }
  return Status::OK();
}

std::string SfcDb::DumpMetrics(obs::MetricsFormat format) const {
  // Refresh the dump-time gauges. batch_mu_ before db_mu_, per the
  // global lock order.
  {
    const MutexLock batch_lock(batch_mu_);
    metrics_->gauge("batchlog.bytes")
        ->Set(static_cast<int64_t>(batch_log_bytes_));
  }
  metrics_->gauge("pool.resident_pages")
      ->Set(static_cast<int64_t>(pool_->resident_pages()));
  metrics_->gauge("pool.evictions")
      ->Set(static_cast<int64_t>(pool_->evictions()));
  const IoStats pool_io = pool_->stats();
  const uint64_t touches = pool_io.page_reads + pool_io.cache_hits;
  const double hit_ratio =
      touches > 0 ? static_cast<double>(pool_io.cache_hits) / touches : 0.0;

  const MutexLock lock(db_mu_);
  metrics_->gauge("workers.queue_depth")
      ->Set(workers_ != nullptr
                ? static_cast<int64_t>(workers_->queue_depth())
                : 0);
  uint64_t oldest_pin_us = 0;
  for (const auto& [name, table] : open_tables_) {
    oldest_pin_us = std::max(oldest_pin_us, table->OldestSnapshotPinAgeUs());
  }
  metrics_->gauge("snapshot.oldest_pin_age_us")
      ->Set(static_cast<int64_t>(oldest_pin_us));

  if (format == obs::MetricsFormat::kPrometheus) {
    std::string out;
    metrics_->AppendPrometheus(&out, "");
    pool_io.ForEachField([&](const char* field, uint64_t value) {
      const std::string metric = "onion_pool_io_" + std::string(field);
      out += "# TYPE " + metric + " counter\n";
      out += metric + " " + std::to_string(value) + "\n";
    });
    out += "# TYPE onion_pool_hit_ratio gauge\nonion_pool_hit_ratio ";
    obs::AppendJsonDouble(&out, hit_ratio);
    out += "\n";
    for (const auto& [name, table] : open_tables_) {
      out += table->DumpMetrics(format);
    }
    return out;
  }

  std::string out = "{\"db\":{";
  metrics_->AppendJsonMembers(&out);
  out += "},\"pool\":{";
  pool_io.ForEachField([&](const char* field, uint64_t value) {
    out += "\"" + std::string(field) + "\":" + std::to_string(value) + ",";
  });
  out += "\"hit_ratio\":";
  obs::AppendJsonDouble(&out, hit_ratio);
  out += "},\"tables\":{";
  bool first = true;
  for (const auto& [name, table] : open_tables_) {
    if (!first) out += ",";
    first = false;
    out += "\"";
    obs::AppendJsonEscaped(&out, name);
    out += "\":" + table->DumpMetrics(format);
  }
  out += "}}";
  return out;
}

Status SfcDb::Close() {
  // batch_mu_ before db_mu_ (the global order): no Write or GetSnapshot
  // can be mid-commit while the tables shut down.
  const MutexLock batch_lock(batch_mu_);
  const MutexLock lock(db_mu_);
  if (closed_) return Status::OK();
  closed_ = true;
  Status first;
  for (auto& [name, table] : open_tables_) {
    const Status status = table->Close();
    if (first.ok() && !status.ok()) first = status;
  }
  open_tables_.clear();  // destroy handles while workers_ is still alive
  workers_.reset();      // join the shared background threads
  batch_log_.Close();
  return first;
}

}  // namespace onion::storage
