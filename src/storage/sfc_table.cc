#include "storage/sfc_table.h"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <set>
#include <sstream>
#include <utility>

#include "index/decompose.h"
#include "sfc/registry.h"
#include "storage/compaction.h"
#include "storage/file.h"

namespace onion::storage {
namespace {

constexpr char kManifestName[] = "MANIFEST";
constexpr char kManifestFormat[] = "onion-sfc-table";
// The only version this build writes and reads; byte-level spec in
// docs/storage_format.md.
constexpr uint32_t kManifestVersion = 4;
/// Deepest level a MANIFEST may name. Level targets grow at least 2x per
/// level, so real tables stay far below it; the cap keeps a corrupt level
/// from sizing the level vector.
constexpr int kMaxLevel = 64;

constexpr char kWalPrefix[] = "wal_";
constexpr char kWalSuffix[] = ".log";

using ReaderPtr = std::shared_ptr<SegmentReader>;

std::string SegmentFileName(uint64_t id) {
  return "seg_" + std::to_string(id) + ".sfc";
}

/// The name a MANIFEST records for a segment: its file's basename.
std::string SegmentFile(const SegmentReader& reader) {
  return std::filesystem::path(reader.path()).filename().string();
}

size_t NumSegments(const Version& version) {
  size_t count = version.l0.size();
  for (const auto& level : version.levels) count += level.size();
  return count;
}

/// Calls fn(level, reader) for every segment of `version`: level 0 first
/// (oldest to newest), then each deeper level in key order.
template <typename Fn>
void ForEachSegment(const Version& version, const Fn& fn) {
  for (const ReaderPtr& reader : version.l0) fn(0, reader);
  for (size_t i = 0; i < version.levels.size(); ++i) {
    for (const ReaderPtr& reader : version.levels[i]) {
      fn(static_cast<int>(i) + 1, reader);
    }
  }
}

/// Rejects option combinations that would deadlock or loop the engine.
Status ValidateOptions(const SfcTableOptions& options) {
  if (options.entries_per_page < 1) {
    return Status::InvalidArgument("entries_per_page must be positive");
  }
  if (options.memtable_flush_entries < 1) {
    return Status::InvalidArgument("memtable_flush_entries must be positive");
  }
  if (options.max_pending_memtables < 1) {
    return Status::InvalidArgument("max_pending_memtables must be positive");
  }
  if (options.l0_compaction_trigger < 2) {
    return Status::InvalidArgument("l0_compaction_trigger must be >= 2");
  }
  if (options.level_growth_factor < 2) {
    return Status::InvalidArgument("level_growth_factor must be >= 2");
  }
  if (!PageCodecValid(static_cast<uint32_t>(options.codec))) {
    return Status::InvalidArgument("unknown page codec");
  }
  if (options.filter_bits_per_key > 64) {
    return Status::InvalidArgument("filter_bits_per_key must be <= 64");
  }
  return Status::OK();
}

/// Parses an unsigned decimal that must fill `text` and fit in T.
template <typename T>
bool ParseUnsigned(const std::string& text, T* out) {
  uint64_t value = 0;
  const char* const end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end ||
      value > static_cast<uint64_t>(std::numeric_limits<T>::max())) {
    return false;
  }
  *out = static_cast<T>(value);
  return true;
}

/// Everything a MANIFEST records.
struct Manifest {
  std::string curve_name;
  int dims = 0;
  Coord side = 0;
  uint32_t entries_per_page = 0;
  PageCodec codec = PageCodec::kRaw;
  uint32_t filter_bits_per_key = 0;
  uint64_t next_segment_id = 0;
  uint64_t wal_floor = 0;
  uint64_t last_sequence = 0;
  std::vector<std::pair<int, std::string>> segments;  // (level, file)
};

/// Parses MANIFEST text line by line. Every line is a field name and its
/// values; every value must parse in full, every field but `segment` must
/// appear exactly once, and anything else is InvalidArgument naming the
/// offending line.
Status ParseManifest(const std::string& text, const std::string& dir,
                     Manifest* out) {
  std::istringstream lines(text);
  std::string line;
  std::vector<std::string> fields;
  const auto split = [&fields](const std::string& text_line) {
    fields.clear();
    std::istringstream in(text_line);
    for (std::string field; in >> field;) fields.push_back(field);
  };
  std::getline(lines, line);
  split(line);
  if (fields.size() != 2 || fields[0] != kManifestFormat) {
    return Status::InvalidArgument("bad manifest format in " + dir);
  }
  uint32_t version = 0;
  if (!ParseUnsigned(fields[1], &version) || version != kManifestVersion) {
    return Status::InvalidArgument(
        "unsupported manifest version " + fields[1] + " (this build reads "
        "version " + std::to_string(kManifestVersion) + " only) in " + dir);
  }
  std::set<std::string> seen;
  while (std::getline(lines, line)) {
    split(line);
    bool ok = false;
    if (!fields.empty() && fields[0] == "segment") {
      int level = 0;
      ok = fields.size() == 3 && ParseUnsigned(fields[1], &level) &&
           level <= kMaxLevel;
      if (ok) out->segments.emplace_back(level, fields[2]);
    } else if (fields.size() == 2 && seen.insert(fields[0]).second) {
      const std::string& field = fields[0];
      const std::string& value = fields[1];
      if (field == "curve") {
        out->curve_name = value;
        ok = true;
      } else if (field == "dims") {
        ok = ParseUnsigned(value, &out->dims);
      } else if (field == "side") {
        ok = ParseUnsigned(value, &out->side);
      } else if (field == "entries_per_page") {
        ok = ParseUnsigned(value, &out->entries_per_page);
      } else if (field == "codec") {
        ok = ParsePageCodec(value, &out->codec);
      } else if (field == "filter_bits_per_key") {
        ok = ParseUnsigned(value, &out->filter_bits_per_key);
      } else if (field == "next_segment_id") {
        ok = ParseUnsigned(value, &out->next_segment_id);
      } else if (field == "wal_floor") {
        ok = ParseUnsigned(value, &out->wal_floor);
      } else if (field == "last_sequence") {
        ok = ParseUnsigned(value, &out->last_sequence);
      }
    }
    if (!ok) {
      return Status::InvalidArgument("bad manifest line '" + line + "' in " +
                                     dir);
    }
  }
  for (const char* required :
       {"curve", "dims", "side", "entries_per_page", "codec",
        "filter_bits_per_key", "next_segment_id", "wal_floor",
        "last_sequence"}) {
    if (seen.count(required) == 0) {
      return Status::InvalidArgument(std::string("manifest lacks the '") +
                                     required + "' line in " + dir);
    }
  }
  return Status::OK();
}

/// Parses "wal_<id>.log"; returns false for any other name. An id that
/// overflows, or is UINT64_MAX (whose successor would wrap to 0 and reuse
/// a live WAL id), is not a name the engine writes, so it is not a WAL.
bool ParseWalFileName(const std::string& name, uint64_t* id) {
  const size_t prefix = sizeof(kWalPrefix) - 1;
  const size_t suffix = sizeof(kWalSuffix) - 1;
  if (name.size() <= prefix + suffix) return false;
  if (name.compare(0, prefix, kWalPrefix) != 0) return false;
  if (name.compare(name.size() - suffix, suffix, kWalSuffix) != 0) {
    return false;
  }
  uint64_t value = 0;
  if (!ParseUnsigned(name.substr(prefix, name.size() - prefix - suffix),
                     &value) ||
      value == std::numeric_limits<uint64_t>::max()) {
    return false;
  }
  *id = value;
  return true;
}

}  // namespace

SfcTable::SfcTable(std::string dir, std::unique_ptr<SpaceFillingCurve> curve,
                   const SfcTableOptions& options,
                   const SharedResources& shared)
    : dir_(std::move(dir)),
      curve_(std::move(curve)),
      curve_name_(curve_->name()),
      options_(options),
      trace_(shared.trace),
      memtable_(curve_->num_cells()),
      workers_(shared.workers),
      pool_(shared.pool) {
  // Resolve every hot-path handle once; recording is pointer-only after
  // this. The names are the catalog in docs/observability.md.
  m_.wal_append_us = metrics_->histogram("wal.append_us");
  m_.wal_fsync_us = metrics_->histogram("wal.fsync_us");
  m_.wal_commit_batch_records =
      metrics_->histogram("wal.commit_batch_records");
  m_.memtable_insert_us = metrics_->histogram("memtable.insert_us");
  m_.write_commit_us = metrics_->histogram("write.commit_us");
  m_.flush_us = metrics_->histogram("flush.us");
  m_.compaction_us = metrics_->histogram("compaction.us");
  m_.flush_bytes = metrics_->counter("flush.bytes");
  m_.flush_entries = metrics_->counter("flush.entries");
  m_.flush_count = metrics_->counter("flush.count");
  m_.compaction_bytes_rewritten =
      metrics_->counter("compaction.bytes_rewritten");
  m_.compaction_entries_gcd = metrics_->counter("compaction.entries_gcd");
  m_.compaction_count = metrics_->counter("compaction.count");
}

WalMetrics SfcTable::TableWalMetrics() const {
  WalMetrics wal_metrics;
  wal_metrics.append_us = m_.wal_append_us;
  wal_metrics.fsync_us = m_.wal_fsync_us;
  wal_metrics.commit_batch_records = m_.wal_commit_batch_records;
  return wal_metrics;
}

SfcTable::~SfcTable() {
  // Deliberately no Flush(): destroying an unclosed table has crash
  // semantics — the WAL is the durable copy of anything unflushed, and
  // Open() will replay it. Call Close() first for a clean shutdown.
  StopWorker();
  // Last chance to collect retired files whose earlier unlink failed.
  for (const std::string& path : garbage_files_) {
    std::remove(path.c_str());
  }
}

std::string SfcTable::SegmentPath(const std::string& file) const {
  return dir_ + "/" + file;
}

std::string SfcTable::WalFileName(uint64_t id) const {
  return kWalPrefix + std::to_string(id) + kWalSuffix;
}

std::string SfcTable::WalPath(uint64_t id) const {
  return dir_ + "/" + WalFileName(id);
}

SegmentWriterOptions SfcTable::WriterOptions() const {
  // options_ and curve_ are immutable after Create/Open, so this needs no
  // lock even though flush and compaction call it from the worker thread.
  SegmentWriterOptions writer_options;
  writer_options.entries_per_page = options_.entries_per_page;
  writer_options.codec = options_.codec;
  writer_options.filter_bits_per_key = options_.filter_bits_per_key;
  writer_options.curve = curve_.get();
  return writer_options;
}

uint64_t SfcTable::EffectiveLevelSegmentEntries() const {
  return options_.level_segment_entries > 0 ? options_.level_segment_entries
                                            : options_.memtable_flush_entries;
}

uint64_t SfcTable::LevelTargetEntries(int level) const {
  uint64_t target = options_.level_base_entries > 0
                        ? options_.level_base_entries
                        : options_.l0_compaction_trigger *
                              options_.memtable_flush_entries;
  for (int i = 1; i < level; ++i) target *= options_.level_growth_factor;
  return target;
}

std::string SfcTable::ManifestTextLocked() const {
  std::string text;
  text += std::string(kManifestFormat) + " " +
          std::to_string(kManifestVersion) + "\n";
  text += "curve " + curve_name_ + "\n";
  text += "dims " + std::to_string(curve_->universe().dims()) + "\n";
  text += "side " + std::to_string(curve_->universe().side()) + "\n";
  text += "entries_per_page " + std::to_string(options_.entries_per_page) +
          "\n";
  text += "codec " + std::string(PageCodecName(options_.codec)) + "\n";
  text += "filter_bits_per_key " +
          std::to_string(options_.filter_bits_per_key) + "\n";
  text += "next_segment_id " + std::to_string(next_segment_id_) + "\n";
  text += "wal_floor " + std::to_string(wal_floor_) + "\n";
  text += "last_sequence " + std::to_string(flushed_seq_) + "\n";
  ForEachSegment(*version_, [&](int level, const ReaderPtr& reader) {
    text += "segment " + std::to_string(level) + " " + SegmentFile(*reader) +
            "\n";
  });
  return text;
}

Status SfcTable::InstallManifest() {
  // Requires mu_ held on entry and returns with it held, but does the
  // expensive part (tmp write + two fsyncs + rename) WITHOUT it, so
  // queries and inserts are not stalled behind manifest durability.
  //
  // The manifest is a full-state snapshot, so correctness only needs every
  // durable manifest to be a consistent snapshot and renames to happen in
  // snapshot order. manifest_mu_ provides exactly that: it is taken first
  // (with mu_ released, keeping the manifest_mu_ -> mu_ acquisition order
  // deadlock-free), then the text is snapshotted under mu_, then mu_ is
  // dropped for the file I/O. A concurrent installer blocks on
  // manifest_mu_ and will snapshot strictly later state.
  mu_.Unlock();
  const MutexLock manifest_lock(manifest_mu_);
  mu_.Lock();
  const std::string text = ManifestTextLocked();
  mu_.Unlock();
  const Status status = WriteFileAtomic(dir_ + "/" + kManifestName, text);
  mu_.Lock();
  return status;
}

std::shared_ptr<const Version> SfcTable::ApplyEdit(const Version& base,
                                                   const VersionEdit& edit,
                                                   VersionEdit* inverse) {
  auto next = std::make_shared<Version>();
  const auto add = [&next](int level, const ReaderPtr& reader) {
    if (level == 0) {
      next->l0.push_back(reader);
      return;
    }
    if (static_cast<int>(next->levels.size()) < level) {
      next->levels.resize(level);
    }
    next->levels[level - 1].push_back(reader);
  };
  ForEachSegment(base, [&](int level, const ReaderPtr& reader) {
    if (std::find(edit.removed.begin(), edit.removed.end(), reader) ==
        edit.removed.end()) {
      add(level, reader);
    } else if (inverse != nullptr) {
      inverse->added.emplace_back(level, reader);
    }
  });
  for (const auto& [level, reader] : edit.added) {
    add(level, reader);
    if (inverse != nullptr) inverse->removed.push_back(reader);
  }
  // Level 0 is oldest first. Only flushes add to it and they take segment
  // ids in flush order; the "seg_<id>.sfc" paths of one table sort by id
  // when compared by length first.
  std::sort(next->l0.begin(), next->l0.end(),
            [](const ReaderPtr& a, const ReaderPtr& b) {
              const std::string& x = a->path();
              const std::string& y = b->path();
              return x.size() != y.size() ? x.size() < y.size() : x < y;
            });
  for (auto& level : next->levels) {
    std::sort(level.begin(), level.end(),
              [](const ReaderPtr& a, const ReaderPtr& b) {
                return a->min_key() < b->min_key();
              });
  }
  while (!next->levels.empty() && next->levels.back().empty()) {
    next->levels.pop_back();
  }
  return next;
}

Status SfcTable::LogAndApplyLocked(const VersionEdit& edit) {
  VersionEdit inverse;
  version_ = ApplyEdit(*version_, edit, &inverse);
  const Status status = InstallManifest();
  if (!status.ok()) version_ = ApplyEdit(*version_, inverse, nullptr);
  return status;
}

void SfcTable::StartWorker() {
  const WorkerPool::ClientId client =
      workers_->Register([this] { return RunBackgroundWork(); });
  // worker_client_ is mu_-guarded: NotifyWorkerLocked and StopWorker read
  // it there, and a table reopened after Close() restarts concurrently
  // with in-flight readers.
  const WriterLock lock(mu_);
  worker_client_ = client;
}

void SfcTable::StopWorker() {
  WorkerPool::ClientId client = 0;
  {
    const WriterLock lock(mu_);
    client = worker_client_;
    worker_client_ = 0;
  }
  // Unregister blocks until in-flight work completes; it must run without
  // mu_ (the worker's callback takes mu_ itself).
  if (client != 0) workers_->Unregister(client);
}

void SfcTable::NotifyWorkerLocked() {
  if (worker_client_ != 0) workers_->Notify(worker_client_);
}

bool SfcTable::RunBackgroundWork() {
  const WriterLock lock(mu_);
  if (!background_error_.ok()) return false;
  if (!pending_.empty()) {
    FlushPendingLocked();
  } else if (compaction_pending_) {
    RunCompactionLocked();
  } else {
    return false;
  }
  return background_error_.ok() &&
         (!pending_.empty() || compaction_pending_);
}

Result<std::unique_ptr<SfcTable>> SfcTable::Create(
    const std::string& dir, const std::string& curve_name,
    const Universe& universe, const SfcTableOptions& options,
    const SharedResources& shared) {
  const Status valid = ValidateOptions(options);
  if (!valid.ok()) return valid;
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return Status::Internal("cannot create table directory " + dir + ": " +
                            ec.message());
  }
  if (std::filesystem::exists(dir + "/" + kManifestName)) {
    return Status::InvalidArgument("table already exists in " + dir);
  }
  auto curve = MakeCurve(curve_name, universe);
  if (!curve.ok()) return curve.status();
  std::unique_ptr<SfcTable> table(
      new SfcTable(dir, std::move(curve).value(), options, shared));
  Status status;
  {
    const WriterLock lock(table->mu_);
    status = table->InstallManifest();
  }
  if (!status.ok()) return status;
  auto wal = WalWriter::Create(table->WalPath(0));
  if (!wal.ok()) return wal.status();
  table->wal_ = std::move(wal).value();
  table->wal_->set_metrics(table->TableWalMetrics());
  table->wal_files_ = {table->WalFileName(0)};
  table->max_wal_id_ = 0;
  table->next_wal_id_ = 1;
  table->StartWorker();
  return table;
}

Result<std::unique_ptr<SfcTable>> SfcTable::Open(
    const std::string& dir, const SfcTableOptions& options,
    const SharedResources& shared) {
  const Status valid = ValidateOptions(options);
  if (!valid.ok()) return valid;
  auto text = ReadFileBytes(dir + "/" + kManifestName);
  if (!text.ok()) {
    if (text.status().code() == StatusCode::kNotFound) {
      return Status::NotFound("no table manifest in " + dir);
    }
    return text.status();
  }
  Manifest manifest;
  const Status parsed = ParseManifest(text.value(), dir, &manifest);
  if (!parsed.ok()) return parsed;
  if (manifest.dims < 1 || manifest.side < 1) {
    return Status::InvalidArgument("bad manifest geometry in " + dir);
  }

  auto curve =
      MakeCurve(manifest.curve_name, Universe(manifest.dims, manifest.side));
  if (!curve.ok()) return curve.status();
  // Page geometry, codec and filter budget are properties of the table on
  // disk, not of the caller.
  SfcTableOptions effective = options;
  effective.entries_per_page = manifest.entries_per_page;
  effective.codec = manifest.codec;
  effective.filter_bits_per_key = manifest.filter_bits_per_key;
  const Status revalid = ValidateOptions(effective);
  if (!revalid.ok()) return revalid;
  std::unique_ptr<SfcTable> table(
      new SfcTable(dir, std::move(curve).value(), effective, shared));
  table->next_segment_id_ = manifest.next_segment_id;
  table->wal_floor_ = manifest.wal_floor;
  table->flushed_seq_ = manifest.last_sequence;
  VersionEdit segments;
  for (const auto& [level, file] : manifest.segments) {
    auto reader = SegmentReader::Open(table->SegmentPath(file));
    if (!reader.ok()) return reader.status();
    segments.added.emplace_back(level, std::move(reader).value());
  }
  table->version_ = ApplyEdit(Version{}, segments, nullptr);
  for (const auto& level : table->version_->levels) {
    for (size_t i = 1; i < level.size(); ++i) {
      if (level[i]->min_key() <= level[i - 1]->max_key()) {
        return Status::InvalidArgument(
            "overlapping segments within a level in " + dir);
      }
    }
  }

  // Crash recovery: replay every live WAL file (in id order) into the
  // memtable. Files below the manifest's wal_floor are fenced — their
  // entries are already in segments — and are garbage-collected here.
  std::vector<std::pair<uint64_t, std::string>> wal_files;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    uint64_t id = 0;
    const std::string name = entry.path().filename().string();
    if (ParseWalFileName(name, &id)) wal_files.emplace_back(id, name);
  }
  if (ec) {
    return Status::Internal("cannot list table directory " + dir + ": " +
                            ec.message());
  }
  std::sort(wal_files.begin(), wal_files.end());
  uint64_t max_seen_id = 0;
  // Recovered sequence watermark: starts at the manifest's last_sequence
  // (everything in segments) and advances over replayed WAL ops.
  uint64_t recovered_seq = manifest.last_sequence;
  for (size_t i = 0; i < wal_files.size(); ++i) {
    const auto& [id, name] = wal_files[i];
    max_seen_id = std::max(max_seen_id, id);
    if (id < manifest.wal_floor) {
      std::remove((dir + "/" + name).c_str());  // fenced: pure GC
      continue;
    }
    auto replayed = ReplayWal(
        dir + "/" + name,
        [&](Key key, uint64_t payload, uint64_t sequence, bool tombstone) {
          recovered_seq = std::max(recovered_seq, sequence);
          table->memtable_.Insert(key, payload, PackSeq(sequence, tombstone));
        });
    if (!replayed.ok()) {
      // A torn header (short, or no magic yet) can only happen to the
      // newest WAL, through a crash during its creation, and it holds no
      // records. Anything else — a torn header elsewhere, a whole header
      // stamped with another version, a read error — would lose
      // acknowledged writes if skipped.
      if (i + 1 == wal_files.size() &&
          replayed.status().code() == StatusCode::kCorruption) {
        table->wal_files_.push_back(name);  // fenced off at next flush
        continue;
      }
      return replayed.status();
    }
    table->wal_files_.push_back(name);
  }
  table->max_wal_id_ = max_seen_id;
  table->next_wal_id_ = std::max(manifest.wal_floor, max_seen_id + 1);
  table->next_seq_ = recovered_seq + 1;
  table->last_applied_seq_.store(recovered_seq, std::memory_order_release);

  const uint64_t active_id = table->next_wal_id_++;
  auto wal = WalWriter::Create(table->WalPath(active_id));
  if (!wal.ok()) return wal.status();
  table->wal_ = std::move(wal).value();
  table->wal_->set_metrics(table->TableWalMetrics());
  table->wal_files_.push_back(table->WalFileName(active_id));
  table->max_wal_id_ = active_id;
  table->StartWorker();
  return table;
}

uint64_t SfcTable::size() const {
  const ReaderLock lock(mu_);
  uint64_t total = memtable_.size();
  for (const PendingMemtable& batch : pending_) {
    if (!batch.installed) total += batch.mem.size();
  }
  ForEachSegment(*version_, [&total](int, const ReaderPtr& reader) {
    total += reader->num_entries();
  });
  return total;
}

size_t SfcTable::num_segments() const {
  const ReaderLock lock(mu_);
  return NumSegments(*version_);
}

uint64_t SfcTable::memtable_entries() const {
  const ReaderLock lock(mu_);
  uint64_t total = memtable_.size();
  for (const PendingMemtable& batch : pending_) {
    if (!batch.installed) total += batch.mem.size();
  }
  return total;
}

size_t SfcTable::pending_memtables() const {
  const ReaderLock lock(mu_);
  return pending_.size();
}

std::vector<SegmentInfo> SfcTable::SegmentInfos() const {
  const ReaderLock lock(mu_);
  std::vector<SegmentInfo> infos;
  ForEachSegment(*version_, [&infos](int level, const ReaderPtr& reader) {
    infos.push_back(SegmentInfo{SegmentFile(*reader), level, reader->min_key(),
                                reader->max_key(), reader->num_entries(),
                                reader->file_bytes(), reader->codec(),
                                reader->filter_bytes()});
  });
  return infos;
}

Status SfcTable::Insert(const Cell& cell, uint64_t payload) {
  if (!curve_->universe().Contains(cell)) {
    return Status::OutOfRange("cell outside the table's universe: " +
                              cell.ToString());
  }
  const WalOp op{curve_->IndexOf(cell), payload, /*tombstone=*/false};
  return WriteOps(&op, 1);
}

Status SfcTable::Delete(const Cell& cell) {
  if (!curve_->universe().Contains(cell)) {
    return Status::OutOfRange("cell outside the table's universe: " +
                              cell.ToString());
  }
  const WalOp op{curve_->IndexOf(cell), 0, /*tombstone=*/true};
  return WriteOps(&op, 1);
}

Status SfcTable::PrecheckWritableWalLocked() {
  const ReaderLock lock(mu_);
  if (closed_) return Status::InvalidArgument("table is closed: " + dir_);
  return background_error_;
}

uint64_t SfcTable::ReserveSequencesWalLocked(uint64_t count) {
  const uint64_t first = next_seq_;
  next_seq_ += count;
  return first;
}

Status SfcTable::ApplyOpsWalLocked(const WalOp* ops, size_t count,
                                   uint64_t first_seq,
                                   std::shared_ptr<WalWriter>* used_wal,
                                   uint64_t* out_record) {
  // A SHARED hold suffices for the checks and the WAL pointer: the
  // caller's wal_mu_ excludes every other writer and every rotation, and
  // Close() sets closed_ under wal_mu_ too. An exclusive hold per write
  // would starve behind overlapping cursors, because glibc's
  // std::shared_mutex favours readers.
  bool full = false;
  {
    const ReaderLock lock(mu_);
    if (closed_) return Status::InvalidArgument("table is closed: " + dir_);
    if (!background_error_.ok()) return background_error_;
    full = memtable_.size() >= options_.memtable_flush_entries;
    *used_wal = wal_;
  }
  if (full) {
    // Rotate BEFORE buffering so a failed WAL append has not retained any
    // entry — callers can retry without creating duplicates. (This
    // retry-safety covers the append path only: with wal_fsync, a failed
    // GROUP-COMMIT fsync later reports an error for entries that are
    // already buffered — see the wal_fsync caveat in sfc_table.h.)
    const WriterLock lock(mu_);
    const Status status =
        RotateMemtableLocked(options_.memtable_flush_entries);
    if (!status.ok()) return status;
    *used_wal = wal_;
  }
  // The WAL file I/O runs with mu_ RELEASED — readers are never stalled
  // behind a record's write. One record per commit: replay is
  // all-or-nothing for the whole op batch.
  const Status status =
      (*used_wal)->AppendBatch(ops, count, first_seq, out_record);
  if (!status.ok()) return status;  // nothing buffered: retry-safe
  {
    // Buffering needs only SHARED mu_: the memtable is internally
    // synchronized (per-shard mutexes), and its identity cannot change
    // underneath us — rotation runs under wal_mu_, which the caller
    // holds. Writers therefore never exclude readers while buffering.
    const ReaderLock shared(mu_);
    const obs::ScopedTimer insert_timer(m_.memtable_insert_us);
    for (size_t i = 0; i < count; ++i) {
      memtable_.Insert(ops[i].key, ops[i].payload,
                       PackSeq(first_seq + i, ops[i].tombstone));
    }
  }
  // Publish AFTER buffering: a snapshot at sequence S sees every write
  // with sequence <= S, because applies happen in sequence order (the
  // caller holds wal_mu_ from reservation through here). Monotonic:
  // batch-journal recovery re-applies HISTORIC sequences below what WAL
  // replay already published — regressing would let a post-recovery
  // snapshot hide recovered writes. (Safe read-modify-write: wal_mu_
  // serializes every store.)
  const uint64_t last_seq = first_seq + count - 1;
  if (last_seq > last_applied_seq_.load(std::memory_order_relaxed)) {
    last_applied_seq_.store(last_seq, std::memory_order_release);
  }
  return Status::OK();
}

Status SfcTable::WriteOps(const WalOp* ops, size_t count) {
  // End-to-end commit latency: lock wait + WAL append + buffering +
  // (with wal_fsync) the group-commit fsync.
  const obs::ScopedTimer commit_timer(m_.write_commit_us);
  std::shared_ptr<WalWriter> wal;
  uint64_t record = 0;
  {
    // wal_mu_ serializes writers and pins the active WAL for the duration
    // of this commit; sequence order == append order == apply order.
    const MutexLock wal_lock(wal_mu_);
    const Status status = PrecheckWritableWalLocked();
    if (!status.ok()) return status;
    const uint64_t first_seq = ReserveSequencesWalLocked(count);
    const Status applied = ApplyOpsWalLocked(ops, count, first_seq, &wal,
                                             &record);
    if (!applied.ok()) return applied;
  }
  // Group commit OUTSIDE every lock: concurrent committers pile up behind
  // one leader fsync instead of serializing a disk flush each (the shared
  // wal pointer keeps the writer alive across a concurrent rotation).
  if (options_.wal_fsync) return wal->SyncUpTo(record);
  return Status::OK();
}

Status SfcTable::ReplayCommittedOps(const WalOp* ops, size_t count,
                                    uint64_t first_seq) {
  const MutexLock wal_lock(wal_mu_);
  const Status status = PrecheckWritableWalLocked();
  if (!status.ok()) return status;
  // The record's sequences are history — reuse them verbatim and move the
  // allocator past them.
  next_seq_ = std::max(next_seq_, first_seq + count);
  std::shared_ptr<WalWriter> wal;
  uint64_t record = 0;
  return ApplyOpsWalLocked(ops, count, first_seq, &wal, &record);
}

bool SfcTable::RecoveredStateCoversSequence(uint64_t sequence) const {
  const ReaderLock lock(mu_);
  // Flushed generations hold strictly older sequences than anything
  // unflushed, so the manifest fence is authoritative below it. (Residual
  // caveat: a commit that RETURNED AN ERROR mid-batch burns its sequences
  // without applying; once later writes flush past them this test reads
  // "covered" — acceptable, the caller saw the failure.)
  if (sequence <= flushed_seq_) return true;
  if (memtable_.ContainsSequence(sequence)) return true;
  for (const PendingMemtable& batch : pending_) {
    if (batch.mem.ContainsSequence(sequence)) return true;
  }
  return false;
}

Status SfcTable::SyncWalForRecovery() {
  const MutexLock wal_lock(wal_mu_);
  std::shared_ptr<WalWriter> wal;
  {
    // wal_ is mu_-guarded; wal_mu_ (held) is what pins the writer object
    // against rotation for the Sync below.
    const ReaderLock lock(mu_);
    wal = wal_;
  }
  return wal->Sync();
}

std::shared_ptr<const Snapshot> SfcTable::GetSnapshot() {
  auto* snapshot = new Snapshot{};
  snapshot->created_us = obs::NowMicros();
  {
    // Registering in the same hold that reads the sequence keeps the pin
    // list consistent with what compaction may collect.
    const MutexLock lock(snapshots_->mu);
    snapshot->sequence = last_applied_seq_.load(std::memory_order_acquire);
    snapshots_->pins.insert({snapshot->sequence, snapshot->created_us});
  }
  // The deleter owns the REGISTRY, not the table: releasing a pin after
  // the table is closed or even destroyed unregisters safely (reading
  // through such a pin is still invalid, like using any dangling cursor).
  return std::shared_ptr<const Snapshot>(
      snapshot, [registry = snapshots_](const Snapshot* released) {
        {
          const MutexLock lock(registry->mu);
          const auto it = registry->pins.find(
              {released->sequence, released->created_us});
          if (it != registry->pins.end()) registry->pins.erase(it);
        }
        delete released;
      });
}

std::vector<uint64_t> SfcTable::PinnedSnapshotSequences() const {
  const MutexLock lock(snapshots_->mu);
  std::vector<uint64_t> sequences;
  sequences.reserve(snapshots_->pins.size());
  // The multiset orders by (sequence, created_us), so this stays sorted.
  for (const auto& [sequence, created_us] : snapshots_->pins) {
    sequences.push_back(sequence);
  }
  return sequences;
}

uint64_t SfcTable::OldestSnapshotPinAgeUs() const {
  uint64_t oldest = 0;
  {
    const MutexLock lock(snapshots_->mu);
    // Lowest sequence is not necessarily the earliest pin; scan created_us.
    for (const auto& [sequence, created_us] : snapshots_->pins) {
      if (oldest == 0 || created_us < oldest) oldest = created_us;
    }
  }
  if (oldest == 0) return 0;
  const uint64_t now = obs::NowMicros();
  return now > oldest ? now - oldest : 0;
}

Status SfcTable::RotateMemtableLocked(uint64_t min_entries) {
  // Bounded queue: block while max_pending_memtables generations are
  // already waiting for the background flush. (The wait releases mu_ but
  // keeps the caller's wal_mu_, so no other writer can rotate meanwhile;
  // the min_entries recheck below is defense in depth.)
  while (background_error_.ok() &&
         pending_.size() >= options_.max_pending_memtables) {
    cv_.Wait(mu_);
  }
  if (!background_error_.ok()) return background_error_;
  if (memtable_.size() < min_entries) return Status::OK();
  // Open the next WAL first: if that fails, the current generation stays
  // fully intact and writable.
  const uint64_t id = next_wal_id_;
  auto wal = WalWriter::Create(WalPath(id));
  if (!wal.ok()) return wal.status();
  ++next_wal_id_;
  PendingMemtable batch;
  batch.mem = std::move(memtable_);
  batch.wal_files = std::move(wal_files_);
  batch.max_wal_id = max_wal_id_;
  pending_.push_back(std::move(batch));
  memtable_ = MemTable(curve_->num_cells());
  wal_ = std::move(wal).value();
  wal_->set_metrics(TableWalMetrics());
  wal_files_ = {WalFileName(id)};
  max_wal_id_ = id;
  NotifyWorkerLocked();
  cv_.NotifyAll();
  return Status::OK();
}

Status SfcTable::Flush() {
  {
    const MutexLock wal_lock(wal_mu_);
    const WriterLock lock(mu_);
    if (!background_error_.ok()) return background_error_;
    if (!memtable_.empty()) {
      const Status status = RotateMemtableLocked(1);
      if (!status.ok()) return status;
    }
  }  // release wal_mu_: writers may proceed while we wait for the barrier
  const WriterLock lock(mu_);
  // Barrier: everything rotated is durable in segments and the level
  // structure has settled before we return.
  while (background_error_.ok() &&
         !(pending_.empty() && !compaction_pending_ &&
           !compaction_inflight_)) {
    cv_.Wait(mu_);
  }
  return background_error_;
}

Status SfcTable::Close() {
  Status rotate_status;
  {
    const MutexLock wal_lock(wal_mu_);
    const WriterLock lock(mu_);
    // No early return when already closed: EVERY Close() call falls
    // through to the quiesce barrier below, so a second (possibly
    // concurrent) Close() cannot report "flushed and stopped" while the
    // first one's final segment/MANIFEST install is still in flight.
    if (!closed_) {
      closed_ = true;  // writers arriving from here on are refused
      if (background_error_.ok() && !memtable_.empty()) {
        rotate_status = RotateMemtableLocked(1);
      }
    }
  }
  {
    const WriterLock lock(mu_);
    // The predicate includes manual_compaction_: a Compact() that passed
    // its closed_ check before we flipped the flag must finish (and any
    // compaction it re-armed must drain) before the worker is stopped,
    // or it would install manifests into a "closed" table.
    while (background_error_.ok() &&
           !(pending_.empty() && !compaction_pending_ &&
             !compaction_inflight_ && !manual_compaction_)) {
      cv_.Wait(mu_);
    }
    if (rotate_status.ok()) rotate_status = background_error_;
  }
  // Quiesced (or failed): stop background processing either way. Reads
  // stay valid; anything unflushed due to an error is still WAL-durable.
  StopWorker();
  return rotate_status;
}

void SfcTable::SetBackgroundErrorLocked(const Status& status) {
  if (background_error_.ok()) background_error_ = status;
  cv_.NotifyAll();
}

void SfcTable::FlushPendingLocked() {
  // The front reference stays valid while unlocked: only one worker runs
  // this table's background work at a time (WorkerPool guarantee), only
  // that worker pops, and deque growth does not invalidate references.
  PendingMemtable& batch = pending_.front();
  const uint64_t flush_start_us = obs::NowMicros();
  const uint64_t flush_entries = batch.mem.size();
  Status status;
  ReaderPtr reader;
  VersionEdit edit;
  if (!batch.mem.empty()) {
    const std::string path = SegmentPath(SegmentFileName(next_segment_id_++));
    mu_.Unlock();
    {
      SegmentWriter writer(path, WriterOptions());
      status = batch.mem.FlushTo(&writer);
      if (status.ok()) status = writer.Finish();  // fsyncs file + directory
    }
    if (status.ok()) {
      auto opened = SegmentReader::Open(path);
      if (opened.ok()) {
        reader = std::move(opened).value();
      } else {
        status = opened.status();
      }
    }
    mu_.Lock();
    if (!status.ok()) {
      // Never entered the in-memory state, so no manifest can name it.
      std::remove(path.c_str());
      SetBackgroundErrorLocked(status);
      return;
    }
    edit.added.emplace_back(0, reader);
    // One atomic visibility flip for readers: LogAndApplyLocked publishes
    // the Version holding the segment before it releases mu_, so the
    // segment appears and the batch leaves the read path in the same lock
    // hold, and a query during the (unlocked) manifest install can never
    // see the same entries in both.
    batch.installed = true;
  }
  const uint64_t old_floor = wal_floor_;
  const uint64_t old_flushed = flushed_seq_;
  wal_floor_ = std::max(wal_floor_, batch.max_wal_id + 1);
  // The manifest's last_sequence fence advances with the segment that
  // makes these sequences durable — the same atomic install that fences
  // the WAL files carrying them.
  flushed_seq_ = std::max(flushed_seq_, batch.mem.max_sequence());
  status = LogAndApplyLocked(edit);
  if (!status.ok()) {
    // The segment left version_ in the lock hold that returned here, and
    // the batch rejoins the read path in the same hold. KEEP the file: a
    // manifest written concurrently may already reference it;
    // unreferenced it is a harmless orphan.
    batch.installed = false;
    wal_floor_ = old_floor;
    flushed_seq_ = old_flushed;
    SetBackgroundErrorLocked(status);
    return;
  }
  // The manifest's wal_floor now fences these files; deleting them is GC.
  for (const std::string& wal_file : batch.wal_files) {
    std::remove((dir_ + "/" + wal_file).c_str());
  }
  pending_.pop_front();
  if (reader != nullptr) {
    // Flush duration covers segment write + fsyncs + manifest install —
    // the full cost of making this generation durable.
    const uint64_t dur_us = obs::NowMicros() - flush_start_us;
    const uint64_t bytes = reader->file_bytes();
    m_.flush_us->Record(dur_us);
    m_.flush_count->Increment();
    m_.flush_bytes->Add(bytes);
    m_.flush_entries->Add(flush_entries);
    trace_->Add(obs::TraceEvent{trace_->NextId(), obs::TraceKind::kFlush,
                                SegmentFile(*reader), flush_start_us, dur_us,
                                bytes, flush_entries});
  }
  if (!manual_compaction_ &&
      version_->l0.size() >= options_.l0_compaction_trigger) {
    compaction_pending_ = true;
  }
  cv_.NotifyAll();
}

int SfcTable::PickCompaction(const Version& version,
                             std::vector<ReaderPtr>* inputs) const {
  if (version.l0.size() >= options_.l0_compaction_trigger) {
    *inputs = version.l0;
    return 1;
  }
  for (size_t i = 0; i < version.levels.size(); ++i) {
    const std::vector<ReaderPtr>& level = version.levels[i];
    uint64_t total = 0;
    for (const ReaderPtr& reader : level) total += reader->num_entries();
    const uint64_t target = LevelTargetEntries(static_cast<int>(i) + 1);
    if (total <= target) continue;
    uint64_t removed = 0;
    for (size_t take = 0; take < level.size() && total - removed > target;
         ++take) {
      removed += level[take]->num_entries();
      inputs->push_back(level[take]);
    }
    return static_cast<int>(i) + 2;
  }
  return 0;
}

bool SfcTable::HasAutoCompactionWorkLocked() const {
  std::vector<ReaderPtr> inputs;
  return PickCompaction(*version_, &inputs) != 0;
}

void SfcTable::RunCompactionLocked() {
  compaction_pending_ = false;
  if (manual_compaction_) return;

  // A copy, not a reference: LogAndApplyLocked below replaces version_,
  // and so does any flush once mu_ is released for the merge.
  std::shared_ptr<const Version> version = version_;
  VersionEdit edit;
  std::vector<ReaderPtr>& inputs = edit.removed;
  const int out_level = PickCompaction(*version, &inputs);
  if (out_level == 0) return;

  // Pull in the segments of the output level that overlap the inputs' key
  // span — merging with them is what keeps the level non-overlapping.
  Key span_lo = inputs.front()->min_key();
  Key span_hi = inputs.front()->max_key();
  for (const ReaderPtr& reader : inputs) {
    span_lo = std::min(span_lo, reader->min_key());
    span_hi = std::max(span_hi, reader->max_key());
  }
  if (static_cast<int>(version->levels.size()) >= out_level) {
    for (const ReaderPtr& reader : version->levels[out_level - 1]) {
      if (reader->max_key() >= span_lo && reader->min_key() <= span_hi) {
        inputs.push_back(reader);
      }
    }
  }
  // While compaction_inflight_ is set (through the manifest install, whose
  // lock-free window would otherwise let a manual Compact() interleave), no
  // second compaction can pick these inputs.
  compaction_inflight_ = true;

  // A single input with nothing to merge against moves between levels as a
  // manifest-only edit — no reason to rewrite identical bytes.
  if (inputs.size() == 1 && out_level >= 2) {
    edit.added.emplace_back(out_level, inputs.front());
    const Status status = LogAndApplyLocked(edit);
    compaction_inflight_ = false;
    if (!status.ok()) {
      SetBackgroundErrorLocked(status);
      return;
    }
    if (HasAutoCompactionWorkLocked()) compaction_pending_ = true;
    cv_.NotifyAll();
    return;
  }
  std::vector<const SegmentReader*> raw;
  raw.reserve(inputs.size());
  for (const ReaderPtr& reader : inputs) raw.push_back(reader.get());
  const uint64_t max_output_entries = EffectiveLevelSegmentEntries();
  // MVCC retention inputs. Bottom-most iff no level deeper than the
  // output holds any segment: within one level key ranges are disjoint
  // and the merge pulls every overlapping output-level segment, so the
  // only place an older version of a merged key could hide is a deeper
  // level. The snapshot list may gain members while the merge runs
  // unlocked — harmless, because a snapshot taken later pins a sequence
  // >= everything in these inputs, which never changes a drop decision.
  const uint64_t comp_start_us = obs::NowMicros();
  CompactionStats merge_stats;
  CompactionOptions gc;
  gc.stats = &merge_stats;
  gc.snapshots = PinnedSnapshotSequences();
  gc.bottom_level = true;
  for (size_t i = static_cast<size_t>(out_level); i < version->levels.size();
       ++i) {
    if (!version->levels[i].empty()) gc.bottom_level = false;
  }
  version.reset();  // the edit alone keeps the inputs alive
  mu_.Unlock();

  std::vector<std::string> out_files;
  std::vector<std::unique_ptr<SegmentWriter>> outs;
  auto open_output = [&]() {
    uint64_t id = 0;
    {
      const WriterLock id_lock(mu_);
      id = next_segment_id_++;
    }
    out_files.push_back(SegmentFileName(id));
    return std::make_unique<SegmentWriter>(SegmentPath(out_files.back()),
                                           WriterOptions());
  };
  Status status =
      MergeSegmentsLeveled(raw, max_output_entries, open_output, &outs, gc);
  if (status.ok()) {
    for (const auto& out : outs) {
      auto opened = SegmentReader::Open(out->path());
      if (!opened.ok()) {
        status = opened.status();
        break;
      }
      edit.added.emplace_back(out_level, std::move(opened).value());
    }
  }

  mu_.Lock();
  if (!status.ok()) {
    compaction_inflight_ = false;
    // The outputs never entered the in-memory state; no manifest can name
    // them, so deleting the files is safe.
    for (const std::string& file : out_files) {
      std::remove(SegmentPath(file).c_str());
    }
    SetBackgroundErrorLocked(status);
    return;
  }
  // Install the new generation; a manifest failure rolls it back so the
  // in-memory state always matches the manifest on disk.
  status = LogAndApplyLocked(edit);
  if (!status.ok()) {
    compaction_inflight_ = false;
    // KEEP the output files: they entered the state during the install
    // window, so a concurrently written manifest may reference them.
    SetBackgroundErrorLocked(status);
    return;
  }
  uint64_t bytes_rewritten = 0;
  for (const auto& [level, reader] : edit.added) {
    bytes_rewritten += reader->file_bytes();
  }
  const uint64_t dur_us = obs::NowMicros() - comp_start_us;
  const uint64_t entries_gcd = merge_stats.entries_in - merge_stats.entries_out;
  m_.compaction_us->Record(dur_us);
  m_.compaction_count->Increment();
  m_.compaction_bytes_rewritten->Add(bytes_rewritten);
  m_.compaction_entries_gcd->Add(entries_gcd);
  trace_->Add(obs::TraceEvent{trace_->NextId(), obs::TraceKind::kCompaction,
                              "L" + std::to_string(out_level), comp_start_us,
                              dur_us, bytes_rewritten, entries_gcd});
  // Unlink with compaction_inflight_ still set, so the Flush()/Close()
  // barrier cannot release (and a caller cannot start tearing down the
  // table directory) while retired files are mid-deletion.
  RetireSegmentsLocked(std::move(inputs));
  compaction_inflight_ = false;
  if (!manual_compaction_ && HasAutoCompactionWorkLocked()) {
    compaction_pending_ = true;
  }
  cv_.NotifyAll();
}

void SfcTable::RetireSegmentsLocked(std::vector<ReaderPtr> retired) {
  // Also retry earlier failed unlinks (their readers are gone by now).
  std::vector<std::string> doomed = std::move(garbage_files_);
  garbage_files_.clear();
  for (ReaderPtr& reader : retired) {
    pool_->Drop(reader.get());
    doomed.push_back(reader->path());
    // In-flight queries may still hold the reader via shared_ptr; on POSIX
    // the open descriptor keeps the unlinked data readable until they
    // finish, while platforms that refuse to delete open files land the
    // path back in garbage_files_ for a later retry.
    reader.reset();
  }
  // File I/O with the table unlocked; only the bookkeeping re-locks.
  mu_.Unlock();
  std::vector<std::string> survivors;
  for (const std::string& path : doomed) {
    if (std::remove(path.c_str()) != 0 && std::filesystem::exists(path)) {
      survivors.push_back(path);
    }
  }
  mu_.Lock();
  garbage_files_.insert(garbage_files_.end(), survivors.begin(),
                        survivors.end());
}

Status SfcTable::Compact() {
  {
    const ReaderLock lock(mu_);
    if (closed_) return Status::InvalidArgument("table is closed: " + dir_);
  }
  Status status = Flush();
  if (!status.ok()) return status;

  WriterLock lock(mu_);
  // Quiesce background compaction AND any other manual Compact() first:
  // two concurrent compactions over the same inputs would install each
  // other's entries twice.
  while (background_error_.ok() &&
         !(!compaction_inflight_ && !compaction_pending_ &&
           !manual_compaction_)) {
    cv_.Wait(mu_);
  }
  if (!background_error_.ok()) return background_error_;
  // Re-check under the exclusive lock: a Close() may have slipped in
  // between the screening check above and here (its barrier would then
  // wait on manual_compaction_, but refusing is the cleaner outcome).
  if (closed_) return Status::InvalidArgument("table is closed: " + dir_);
  VersionEdit edit;
  // Deep enough that the single output does not overflow its level's size
  // target (which would just make the worker push it further down).
  uint64_t total_entries = 0;
  int out_level = 1;
  ForEachSegment(*version_, [&](int level, const ReaderPtr& reader) {
    edit.removed.push_back(reader);
    total_entries += reader->num_entries();
    out_level = std::max(out_level, level);
  });
  // A single segment is still rewritten: the manual Compact() is the
  // explicit GC hook, and a just-released snapshot may have left
  // collectable versions inside the one remaining run.
  if (edit.removed.empty()) return Status::OK();
  while (LevelTargetEntries(out_level) < total_entries) ++out_level;
  manual_compaction_ = true;  // keeps the worker from scheduling its own
  const uint64_t comp_start_us = obs::NowMicros();
  CompactionStats merge_stats;
  const std::string file = SegmentFileName(next_segment_id_++);
  const std::string path = SegmentPath(file);
  std::vector<const SegmentReader*> raw;
  raw.reserve(edit.removed.size());
  for (const ReaderPtr& reader : edit.removed) raw.push_back(reader.get());
  lock.Unlock();

  ReaderPtr reader;
  {
    // A manual compaction merges EVERY segment, so its output is
    // bottom-most by construction: unpinned shadowed versions and
    // tombstones no snapshot predates are collected here.
    CompactionOptions gc;
    gc.stats = &merge_stats;
    gc.snapshots = PinnedSnapshotSequences();
    gc.bottom_level = true;
    SegmentWriter writer(path, WriterOptions());
    status = MergeSegments(raw, &writer, gc);
    if (status.ok()) status = writer.Finish();
  }
  if (status.ok()) {
    auto opened = SegmentReader::Open(path);
    if (opened.ok()) {
      reader = std::move(opened).value();
    } else {
      status = opened.status();
    }
  }

  lock.Lock();
  if (!status.ok()) {
    manual_compaction_ = false;
    // Never entered the in-memory state, so no manifest can name it.
    std::remove(path.c_str());
    cv_.NotifyAll();
    return status;
  }
  edit.added.emplace_back(out_level, reader);
  status = LogAndApplyLocked(edit);
  if (!status.ok()) {
    manual_compaction_ = false;
    // The inputs are back at their levels. KEEP the output file: a
    // manifest written concurrently by a flush install may already
    // reference it; unreferenced it is an orphan.
    cv_.NotifyAll();
    return status;
  }
  const uint64_t dur_us = obs::NowMicros() - comp_start_us;
  const uint64_t entries_gcd = merge_stats.entries_in - merge_stats.entries_out;
  m_.compaction_us->Record(dur_us);
  m_.compaction_count->Increment();
  m_.compaction_bytes_rewritten->Add(reader->file_bytes());
  m_.compaction_entries_gcd->Add(entries_gcd);
  trace_->Add(obs::TraceEvent{trace_->NextId(), obs::TraceKind::kCompaction,
                              file, comp_start_us, dur_us, reader->file_bytes(),
                              entries_gcd});
  // Unlink before clearing manual_compaction_ or waking anyone: Compact()
  // must not appear finished while retired files are mid-deletion.
  RetireSegmentsLocked(std::move(edit.removed));
  manual_compaction_ = false;
  // Re-arm background compaction: flushes that arrived during this manual
  // compaction skipped scheduling (manual_compaction_ was set), so L0 may
  // already be over the trigger.
  if (HasAutoCompactionWorkLocked()) {
    compaction_pending_ = true;
    NotifyWorkerLocked();
  }
  cv_.NotifyAll();
  return Status::OK();
}

std::unique_ptr<Cursor> SfcTable::NewBoxCursor(const Box& box,
                                               const ReadOptions& options) {
  if (!curve_->universe().Contains(box)) {
    return NewErrorCursor(Status::InvalidArgument(
        "query box outside the table's universe: " + box.ToString()));
  }
  // DecomposeBox is exact (every key of every range maps into the box),
  // which is the precondition for handing the box to the cursor as a
  // zone-map filter.
  return NewRangesCursor(DecomposeBox(*curve_, box), &box, options);
}

std::unique_ptr<Cursor> SfcTable::NewScanCursor(const ReadOptions& options) {
  const Key num_cells = curve_->universe().num_cells();
  std::vector<KeyRange> ranges;
  if (num_cells > 0) ranges.push_back(KeyRange{0, num_cells - 1});
  return NewRangesCursor(std::move(ranges), nullptr, options);
}

std::unique_ptr<Cursor> SfcTable::NewRangesCursor(std::vector<KeyRange> ranges,
                                                  const Box* query_box,
                                                  const ReadOptions& options) {
  read_stats_.queries.fetch_add(1, std::memory_order_relaxed);
  read_stats_.ranges.fetch_add(ranges.size(), std::memory_order_relaxed);

  // Reads above the snapshot sequence are dropped at collection time
  // (cheaper than filtering in the merge); tombstones at or below it are
  // kept — the cursor needs them to hide older segment entries.
  const uint64_t visible_seq = options.snapshot != nullptr
                                   ? options.snapshot->sequence
                                   : kMaxSequence;
  std::vector<Entry> mem_hits;
  std::shared_ptr<const Version> version;
  {
    const ReaderLock lock(mu_);
    if (!background_error_.ok()) return NewErrorCursor(background_error_);
    // One pass over each memtable for the whole query (not one per range):
    // the ranges are sorted and disjoint, so membership is a binary search.
    if (!ranges.empty()) {
      const auto scan_memtable = [&](const MemTable& mem) {
        mem.ScanRange(ranges.front().lo, ranges.back().hi,
                      [&](const Entry& entry) {
                        if (SequenceOf(entry.seq) > visible_seq) return;
                        auto it = std::lower_bound(
                            ranges.begin(), ranges.end(), entry.key,
                            [](const KeyRange& range, Key k) {
                              return range.hi < k;
                            });
                        if (it != ranges.end() && it->lo <= entry.key) {
                          mem_hits.push_back(entry);
                        }
                      });
      };
      scan_memtable(memtable_);
      for (const PendingMemtable& batch : pending_) {
        if (!batch.installed) scan_memtable(batch.mem);
      }
    }
    version = version_;
  }
  // Everything below runs WITHOUT the table lock: the cursor holds the
  // Version, which later flushes/compactions replace but never modify.
  if (!mem_hits.empty()) {
    read_stats_.memtable_entries.fetch_add(mem_hits.size(),
                                           std::memory_order_relaxed);
  }
  std::sort(mem_hits.begin(), mem_hits.end(),
            [](const Entry& a, const Entry& b) {
              if (a.key != b.key) return a.key < b.key;
              return a.payload < b.payload;
            });
  return NewSnapshotCursor(curve_.get(), std::move(ranges), query_box,
                           std::move(mem_hits), std::move(version), pool_,
                           &io_stats_, options);
}

Result<std::vector<uint64_t>> SfcTable::Get(const Cell& cell,
                                            const ReadOptions& options) {
  if (!curve_->universe().Contains(cell)) {
    return Status::OutOfRange("cell outside the table's universe: " +
                              cell.ToString());
  }
  const Key key = curve_->IndexOf(cell);
  const auto cursor = NewRangesCursor({KeyRange{key, key}}, nullptr, options);
  std::vector<uint64_t> payloads;
  for (; cursor->Valid(); cursor->Next()) {
    payloads.push_back(cursor->entry().payload);
  }
  if (!cursor->status().ok()) return cursor->status();
  return payloads;
}

TableReadStats SfcTable::read_stats() const {
  TableReadStats out;
  out.queries = read_stats_.queries.load(std::memory_order_relaxed);
  out.ranges = read_stats_.ranges.load(std::memory_order_relaxed);
  out.memtable_entries =
      read_stats_.memtable_entries.load(std::memory_order_relaxed);
  return out;
}

void SfcTable::ResetStats() {
  read_stats_.queries.store(0, std::memory_order_relaxed);
  read_stats_.ranges.store(0, std::memory_order_relaxed);
  read_stats_.memtable_entries.store(0, std::memory_order_relaxed);
  io_stats_.Reset();
}

std::string SfcTable::DumpMetrics(obs::MetricsFormat format) const {
  // Refresh the gauges that are derived state rather than event streams,
  // so every dump reflects the structure at dump time.
  {
    const ReaderLock lock(mu_);
    metrics_->gauge("memtable.entries")
        ->Set(static_cast<int64_t>(memtable_.size()));
    metrics_->gauge("memtable.bytes")
        ->Set(static_cast<int64_t>(memtable_.ApproximateBytes()));
    metrics_->gauge("pending.memtables")
        ->Set(static_cast<int64_t>(pending_.size()));
    metrics_->gauge("segments.live")
        ->Set(static_cast<int64_t>(NumSegments(*version_)));
  }
  metrics_->gauge("snapshot.oldest_pin_age_us")
      ->Set(static_cast<int64_t>(OldestSnapshotPinAgeUs()));

  const IoStats io = io_stats_.Snapshot();
  const TableReadStats reads = read_stats();
  const uint64_t pool_touches = io.page_reads + io.cache_hits;
  const double hit_ratio =
      pool_touches > 0 ? static_cast<double>(io.cache_hits) / pool_touches
                       : 0.0;
  const uint64_t candidates = pool_touches + io.pages_skipped_by_filter;
  const double skip_ratio =
      candidates > 0
          ? static_cast<double>(io.pages_skipped_by_filter) / candidates
          : 0.0;
  std::string name = std::filesystem::path(dir_).filename().string();
  if (name.empty()) name = dir_;

  if (format == obs::MetricsFormat::kPrometheus) {
    std::string labels = "table=\"";
    obs::AppendJsonEscaped(&labels, name);  // JSON escapes satisfy Prometheus
    labels += "\"";
    std::string out;
    metrics_->AppendPrometheus(&out, labels);
    io.ForEachField([&](const char* field, uint64_t value) {
      const std::string metric = "onion_io_" + std::string(field);
      out += "# TYPE " + metric + " counter\n";
      out += metric + "{" + labels + "} " + std::to_string(value) + "\n";
    });
    out += "# TYPE onion_pool_hit_ratio gauge\n";
    out += "onion_pool_hit_ratio{" + labels + "} ";
    obs::AppendJsonDouble(&out, hit_ratio);
    out += "\n# TYPE onion_filter_skip_ratio gauge\n";
    out += "onion_filter_skip_ratio{" + labels + "} ";
    obs::AppendJsonDouble(&out, skip_ratio);
    out += "\n";
    return out;
  }

  std::string out = "{\"table\":\"";
  obs::AppendJsonEscaped(&out, name);
  out += "\",";
  metrics_->AppendJsonMembers(&out);
  out += ",\"io\":{";
  bool first = true;
  io.ForEachField([&](const char* field, uint64_t value) {
    if (!first) out += ",";
    first = false;
    out += "\"" + std::string(field) + "\":" + std::to_string(value);
  });
  out += "},\"read\":{\"queries\":" + std::to_string(reads.queries) +
         ",\"ranges\":" + std::to_string(reads.ranges) +
         ",\"memtable_entries\":" + std::to_string(reads.memtable_entries) +
         "},\"derived\":{\"pool_hit_ratio\":";
  obs::AppendJsonDouble(&out, hit_ratio);
  out += ",\"filter_skip_ratio\":";
  obs::AppendJsonDouble(&out, skip_ratio);
  out += "}}";
  return out;
}

}  // namespace onion::storage
