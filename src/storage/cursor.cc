#include "storage/cursor.h"

#include <algorithm>
#include <utility>

#include "analysis/clustering.h"
#include "common/macros.h"
#include "obs/metrics.h"
#include "sfc/curve.h"
#include "storage/buffer_pool.h"
#include "storage/segment.h"
#include "storage/sfc_table.h"

namespace onion {

std::vector<SpatialEntry> DrainCursor(Cursor* cursor) {
  std::vector<SpatialEntry> out;
  for (; cursor->Valid(); cursor->Next()) out.push_back(cursor->entry());
  return out;
}

namespace {

/// Invalid from birth; carries the error that prevented iteration.
class ErrorCursor final : public Cursor {
 public:
  explicit ErrorCursor(Status status) : status_(std::move(status)) {
    ONION_CHECK_MSG(!status_.ok(), "error cursor needs a non-OK status");
  }

  bool Valid() const override { return false; }
  void Next() override { ONION_CHECK_MSG(false, "Next() on an error cursor"); }
  const SpatialEntry& entry() const override {
    ONION_CHECK_MSG(false, "entry() on an error cursor");
    return entry_;  // unreachable
  }
  Status status() const override { return status_; }

 private:
  const Status status_;
  const SpatialEntry entry_{};
};

}  // namespace

std::unique_ptr<Cursor> NewErrorCursor(Status status) {
  return std::make_unique<ErrorCursor>(std::move(status));
}

namespace storage {
namespace {

/// The streaming k-way merge behind SfcTable::NewBoxCursor/NewScanCursor.
///
/// Work proceeds range by range (ranges are sorted and disjoint, so
/// concatenating per-range merges yields global key order). Within a range
/// the merge sources are: the memtable snapshot (one source), every
/// overlapping L0 run (one source each — L0 runs may overlap each other),
/// and per deeper level the contiguous run of disjoint segments the range
/// spans (one source per level, advancing segment to segment). Pages are
/// fetched one at a time through the buffer pool, so stopping the cursor
/// early really does skip the remaining I/O.
///
/// MVCC: the merge works one key-group at a time. All versions of the
/// smallest pending key are drained from every source, entries above the
/// read sequence (ReadOptions::snapshot) are dropped, and the surviving
/// puts are those newer than the newest visible tombstone of the key —
/// Delete hides every older version, a later Put resurrects the key.
class SnapshotCursor final : public Cursor {
 public:
  SnapshotCursor(const SpaceFillingCurve* curve, std::vector<KeyRange> ranges,
                 const Box* query_box, std::vector<Entry> memtable_entries,
                 std::shared_ptr<const Version> version,
                 std::shared_ptr<BufferPool> pool,
                 AtomicIoStats* io_stats, const ReadOptions& options)
      : curve_(curve),
        ranges_(std::move(ranges)),
        has_box_(query_box != nullptr),
        box_(query_box != nullptr ? *query_box : Box{}),
        mem_(std::move(memtable_entries)),
        version_(std::move(version)),
        pool_(std::move(pool)),
        io_stats_(io_stats),
        options_(options),
        visible_seq_(options.snapshot != nullptr ? options.snapshot->sequence
                                                 : kMaxSequence) {
    if (!ranges_.empty() && BeginRange()) FindNext();
    if (!valid_) PublishCounts();
  }

  // An abandoned cursor publishes what it counted so far; the pool
  // outlives the cursor by contract.
  ~SnapshotCursor() override { PublishCounts(); }

  bool Valid() const override { return valid_; }

  void Next() override {
    ONION_CHECK_MSG(valid_, "Next() on an invalid cursor");
    valid_ = false;
    FindNext();
    if (!valid_) PublishCounts();
  }

  const SpatialEntry& entry() const override {
    ONION_CHECK_MSG(valid_, "entry() on an invalid cursor");
    return current_;
  }

  Status status() const override { return status_; }
  bool hit_read_budget() const override { return budget_hit_; }
  uint64_t pages_skipped_by_filter() const override { return skipped_; }

 private:
  /// One merge source of the current range. Either the memtable snapshot
  /// (is_mem, pos indexes mem_) or a chain of segments scanned in order
  /// (a single L0 run, or a level's contiguous overlapping group).
  struct Source {
    std::vector<const SegmentReader*> chain;
    size_t chain_idx = 0;
    std::shared_ptr<const std::vector<Entry>> page;
    uint64_t page_no = 0;
    size_t pos = 0;  // index into *page, or into mem_ for the mem source
    Entry head{};
    bool valid = false;
    bool is_mem = false;
  };

  /// One version of the current key-group, tagged with its origin so
  /// delivered entries from segments (not the memtable) count as
  /// entries_read.
  struct GroupEntry {
    Entry entry;
    bool from_mem = false;
  };

  /// Publishes the per-entry count kept locally: entries_read to the table
  /// (io_stats_) and the pool aggregate, and the zone-map skips to the pool
  /// aggregate. Runs when the cursor ends (exhausted, budget stop or error)
  /// and again in the destructor, which then finds nothing left to add.
  /// Counting locally keeps a shared atomic and the pool lock off the
  /// per-entry path.
  void PublishCounts() {
    if (pool_ == nullptr) return;
    pool_->AddEntriesRead(pending_entries_read_, io_stats_);
    pool_->AddFilterSkips(pending_filter_skips_, nullptr);
    pending_entries_read_ = 0;
    pending_filter_skips_ = 0;
  }

  /// Counts one page fetch avoided by a zone-map check: locally (for the
  /// accessor), per-table (io_stats_, immediate), and pool-global
  /// (batched by PublishCounts).
  void CountZoneSkip() {
    ++skipped_;
    ++pending_filter_skips_;
    if (io_stats_ != nullptr) {
      io_stats_->pages_skipped_by_filter.fetch_add(1,
                                                   std::memory_order_relaxed);
    }
  }

  /// Zone-map test for one candidate page: true when the page can be
  /// skipped without I/O. Sound only because the ranges are an exact
  /// decomposition of box_ — a page whose cell bounding box misses the box
  /// holds no key of ANY range of this query.
  bool ZoneSkips(const SegmentReader& segment, uint64_t page_no) {
    return has_box_ && !segment.PageMayIntersect(page_no, box_);
  }

  /// Fetches one page through the pool unless a page/byte bound says stop.
  /// Returns false without fetching when a bound is reached (flags
  /// budget_hit_) or when the read fails (status_ carries the corruption
  /// error). The byte budget counts ON-DISK (encoded) page bytes, the
  /// same unit as IoStats::disk_bytes.
  bool FetchPage(const SegmentReader& segment, uint64_t page_no,
                 std::shared_ptr<const std::vector<Entry>>* out) {
    if ((options_.max_pages != 0 && pages_touched_ >= options_.max_pages) ||
        (options_.max_bytes != 0 && bytes_fetched_ >= options_.max_bytes)) {
      budget_hit_ = true;
      return false;
    }
    Status fetch_status;
    // Pass the query box through so pool readahead stops at the first
    // zone-excluded page: a page this cursor would ZoneSkip is never
    // prefetched on its behalf.
    *out = pool_->Fetch(segment, page_no, &fetch_status, io_stats_,
                        has_box_ ? &box_ : nullptr);
    if (*out == nullptr) {
      status_ = fetch_status;  // e.g. a page checksum mismatch
      return false;
    }
    ++pages_touched_;
    bytes_fetched_ += segment.PageDiskBytes(page_no);
    return true;
  }

  /// Positions `s` at its first entry with lo <= key <= hi, starting from
  /// s->chain_idx. Returns false only on a budget stop; otherwise s->valid
  /// says whether an entry was found.
  bool SeekChain(Source* s, Key lo, Key hi) {
    for (; s->chain_idx < s->chain.size(); ++s->chain_idx) {
      const SegmentReader& segment = *s->chain[s->chain_idx];
      if (segment.num_entries() == 0 || segment.max_key() < lo) continue;
      if (segment.min_key() > hi) break;  // chain ascends: nothing further
      // Point probe: one bloom test can rule out the whole segment
      // before any page is scheduled (ProbeFilter counts the skip).
      if (lo == hi && !pool_->ProbeFilter(segment, lo, io_stats_)) {
        ++skipped_;
        continue;
      }
      const uint64_t pages = segment.num_pages();
      bool past_hi = false;
      for (uint64_t page_no = segment.PageOf(lo);
           page_no < pages && segment.first_key(page_no) <= hi; ++page_no) {
        if (ZoneSkips(segment, page_no)) {
          CountZoneSkip();
          continue;
        }
        if (!FetchPage(segment, page_no, &s->page)) return false;
        const auto& data = *s->page;
        const size_t pos = static_cast<size_t>(
            std::lower_bound(data.begin(), data.end(), lo,
                             [](const Entry& e, Key k) { return e.key < k; }) -
            data.begin());
        if (pos == data.size()) continue;  // whole page below lo
        if (data[pos].key > hi) {
          past_hi = true;  // rest of this segment (and the chain) is past hi
          break;
        }
        s->page_no = page_no;
        s->pos = pos;
        s->head = data[pos];
        s->valid = true;
        return true;
      }
      if (past_hi) break;
    }
    s->valid = false;
    return true;
  }

  /// Steps `s` past its current head, staying within key <= hi. Returns
  /// false only on a budget stop.
  bool AdvanceSource(Source* s, Key hi) {
    if (s->is_mem) {
      ++s->pos;
      if (s->pos < mem_.size() && mem_[s->pos].key <= hi) {
        s->head = mem_[s->pos];
      } else {
        s->valid = false;
      }
      return true;
    }
    ++s->pos;
    if (s->pos < s->page->size()) {
      const Entry& e = (*s->page)[s->pos];
      if (e.key <= hi) {
        s->head = e;
        return true;
      }
      s->valid = false;
      return true;
    }
    const SegmentReader& segment = *s->chain[s->chain_idx];
    ++s->page_no;
    // Zone maps may rule out whole pages between here and the next page
    // that can actually contribute — skipped pages cost no I/O.
    while (s->page_no < segment.num_pages() &&
           segment.first_key(s->page_no) <= hi &&
           ZoneSkips(segment, s->page_no)) {
      CountZoneSkip();
      ++s->page_no;
    }
    if (s->page_no < segment.num_pages() &&
        segment.first_key(s->page_no) <= hi) {
      if (!FetchPage(segment, s->page_no, &s->page)) return false;
      s->pos = 0;
      s->head = (*s->page)[0];  // first_key <= hi, and pages are non-empty
      return true;
    }
    // Segment exhausted for this range; the next chain segment (if any)
    // starts strictly above every key consumed so far.
    ++s->chain_idx;
    return SeekChain(s, s->head.key, hi);
  }

  /// Builds the merge sources of ranges_[range_idx_]. Returns false only
  /// on a budget stop.
  bool BeginRange() {
    sources_.clear();
    const KeyRange& range = ranges_[range_idx_];
    if (!mem_.empty()) {
      Source s;
      s.is_mem = true;
      s.pos = static_cast<size_t>(
          std::lower_bound(mem_.begin(), mem_.end(), range.lo,
                           [](const Entry& e, Key k) { return e.key < k; }) -
          mem_.begin());
      if (s.pos < mem_.size() && mem_[s.pos].key <= range.hi) {
        s.head = mem_[s.pos];
        s.valid = true;
        sources_.push_back(std::move(s));
      }
    }
    for (const auto& segment : version_->l0) {
      if (segment->num_entries() == 0 || range.hi < segment->min_key() ||
          range.lo > segment->max_key()) {
        continue;
      }
      Source s;
      s.chain = {segment.get()};
      if (!SeekChain(&s, range.lo, range.hi)) return false;
      if (s.valid) sources_.push_back(std::move(s));
    }
    for (const auto& level : version_->levels) {
      // Disjoint sorted level: binary search to the first segment that can
      // overlap, then take the contiguous overlapping run as one chain.
      auto it = std::lower_bound(
          level.begin(), level.end(), range.lo,
          [](const std::shared_ptr<SegmentReader>& segment, Key lo) {
            return segment->max_key() < lo;
          });
      Source s;
      for (; it != level.end() && (*it)->min_key() <= range.hi; ++it) {
        s.chain.push_back(it->get());
      }
      if (s.chain.empty()) continue;
      if (!SeekChain(&s, range.lo, range.hi)) return false;
      if (s.valid) sources_.push_back(std::move(s));
    }
    return true;
  }

  /// Drains every version of the smallest pending key into group_ and
  /// resolves MVCC visibility: versions above the read sequence are
  /// invisible, and visible puts survive only when newer than the newest
  /// visible tombstone of the key. Survivors are ordered by (payload,
  /// seq) for deterministic equal-key delivery. Returns false when the
  /// current range has no further key, or on a budget/error stop
  /// (budget_hit_ / status_ say which).
  bool BuildNextGroup() {
    group_.clear();
    group_pos_ = 0;
    int first = -1;
    for (size_t i = 0; i < sources_.size(); ++i) {
      if (!sources_[i].valid) continue;
      if (first < 0 || sources_[i].head.key < sources_[first].head.key) {
        first = static_cast<int>(i);
      }
    }
    if (first < 0) return false;  // range exhausted
    const Key group_key = sources_[static_cast<size_t>(first)].head.key;
    const Key hi = ranges_[range_idx_].hi;
    raw_.clear();
    for (Source& source : sources_) {
      while (source.valid && source.head.key == group_key) {
        raw_.push_back(GroupEntry{source.head, source.is_mem});
        if (!AdvanceSource(&source, hi)) return false;  // budget/error stop
      }
    }
    uint64_t max_tombstone = 0;
    bool has_tombstone = false;
    for (const GroupEntry& e : raw_) {
      if (SequenceOf(e.entry.seq) > visible_seq_) continue;
      if (IsTombstone(e.entry.seq)) {
        has_tombstone = true;
        max_tombstone = std::max(max_tombstone, SequenceOf(e.entry.seq));
      }
    }
    for (const GroupEntry& e : raw_) {
      if (SequenceOf(e.entry.seq) > visible_seq_) continue;
      if (IsTombstone(e.entry.seq)) continue;
      if (has_tombstone && SequenceOf(e.entry.seq) <= max_tombstone) continue;
      group_.push_back(e);
    }
    std::sort(group_.begin(), group_.end(),
              [](const GroupEntry& a, const GroupEntry& b) {
                if (a.entry.payload != b.entry.payload) {
                  return a.entry.payload < b.entry.payload;
                }
                return a.entry.seq < b.entry.seq;
              });
    return true;
  }

  /// Establishes the next current entry (the next survivor of the current
  /// key-group, building new groups and advancing through ranges as they
  /// drain) or ends the cursor.
  void FindNext() {
    for (;;) {
      if (budget_hit_ || !status_.ok()) return;  // valid_ stays false
      if (group_pos_ < group_.size()) {
        // The limit check sits where a further entry provably exists: when
        // the data runs out exactly at the limit, the cursor ends as
        // exhausted (hit_read_budget() false), matching the contract that
        // the flag means "stopped early", not "delivered exactly limit".
        if (options_.limit != 0 && delivered_ >= options_.limit) {
          budget_hit_ = true;
          return;
        }
        const GroupEntry& e = group_[group_pos_++];
        current_ = SpatialEntry{curve_->CellAt(e.entry.key), e.entry.payload,
                                SequenceOf(e.entry.seq)};
        ++delivered_;
        if (!e.from_mem) ++pending_entries_read_;
        valid_ = true;
        return;
      }
      if (BuildNextGroup()) continue;  // a group (possibly fully hidden)
      if (budget_hit_ || !status_.ok()) return;
      ++range_idx_;
      if (range_idx_ >= ranges_.size()) return;  // exhausted: clean end
      if (!BeginRange()) return;                 // budget/error mid-build
    }
  }

  const SpaceFillingCurve* const curve_;
  const std::vector<KeyRange> ranges_;
  const bool has_box_;  // zone-map skipping needs the originating box
  const Box box_;
  const std::vector<Entry> mem_;  // sorted by (key, payload)
  const std::shared_ptr<const Version> version_;
  const std::shared_ptr<BufferPool> pool_;
  AtomicIoStats* const io_stats_;
  const ReadOptions options_;
  const uint64_t visible_seq_;  // read sequence: snapshot or "latest"

  std::vector<Source> sources_;
  std::vector<GroupEntry> raw_;    // scratch: all versions of one key
  std::vector<GroupEntry> group_;  // survivors being delivered
  size_t group_pos_ = 0;
  size_t range_idx_ = 0;
  SpatialEntry current_{};
  bool valid_ = false;
  bool budget_hit_ = false;
  uint64_t delivered_ = 0;
  uint64_t pages_touched_ = 0;
  uint64_t bytes_fetched_ = 0;  // on-disk bytes, the max_bytes unit
  uint64_t pending_entries_read_ = 0;  // unpublished; see PublishCounts
  uint64_t pending_filter_skips_ = 0;
  uint64_t skipped_ = 0;  // bloom + zone-map page fetches avoided
  Status status_;
};

/// See NewIndexResolveCursor in cursor.h. The inner cursor walks the
/// hidden index table in index-key order; this cursor consumes one index
/// cell group at a time, resolves it to the base cell with a snapshot
/// point Get, and streams the base cell's payload multiset.
class IndexResolveCursor final : public Cursor {
 public:
  IndexResolveCursor(std::unique_ptr<Cursor> index_cursor, SfcTable* base,
                     const Snapshot* base_snapshot,
                     std::shared_ptr<const void> pin, uint64_t limit,
                     obs::Counter* dangling, obs::Counter* resolved)
      : inner_(std::move(index_cursor)),
        base_(base),
        base_snapshot_(base_snapshot),
        pin_(std::move(pin)),
        limit_(limit),
        dangling_(dangling),
        resolved_(resolved) {
    FetchGroup();
    CheckLimit();
  }

  bool Valid() const override { return pos_ < payloads_.size(); }

  void Next() override {
    ONION_CHECK(Valid());
    ++pos_;
    if (pos_ < payloads_.size()) {
      current_.payload = payloads_[pos_];
    } else {
      FetchGroup();
    }
    CheckLimit();
  }

  const SpatialEntry& entry() const override {
    ONION_CHECK(Valid());
    return current_;
  }

  Status status() const override {
    return status_.ok() ? inner_->status() : status_;
  }

  bool hit_read_budget() const override {
    return budget_hit_ || inner_->hit_read_budget();
  }

  uint64_t pages_skipped_by_filter() const override {
    return inner_->pages_skipped_by_filter();
  }

 private:
  /// Advances `inner_` to the next distinct index cell, resolves it, and
  /// loads the base cell's visible payloads (or invalidates on
  /// exhaustion/error). Dangling index cells — base row gone — are
  /// counted and skipped.
  void FetchGroup() {
    payloads_.clear();
    pos_ = 0;
    while (status_.ok() && inner_->Valid()) {
      const SpatialEntry index_entry = inner_->entry();  // copied: Next()
      inner_->Next();                                    // invalidates it
      if (have_group_ && index_entry.cell == group_cell_) continue;
      group_cell_ = index_entry.cell;
      have_group_ = true;
      const Key base_key = index_entry.payload;
      if (base_key >= base_->curve().num_cells()) {
        status_ = Status::Corruption(
            "index entry resolves outside the base universe (key " +
            std::to_string(base_key) + ")");
        return;
      }
      const Cell base_cell = base_->curve().CellAt(base_key);
      ReadOptions base_options;
      base_options.snapshot = base_snapshot_;
      auto rows = base_->Get(base_cell, base_options);
      if (!rows.ok()) {
        status_ = rows.status();
        return;
      }
      if (rows.value().empty()) {
        if (dangling_ != nullptr) dangling_->Increment();
        continue;
      }
      payloads_ = std::move(rows).value();
      std::sort(payloads_.begin(), payloads_.end());
      if (resolved_ != nullptr) resolved_->Add(payloads_.size());
      current_.cell = base_cell;
      current_.payload = payloads_[0];
      current_.seq = 0;
      return;
    }
  }

  /// Counts the entry about to be exposed against `limit_`; at the cap a
  /// ready entry is withheld and reported as a hit budget instead.
  void CheckLimit() {
    if (!Valid() || limit_ == 0) {
      if (Valid()) ++delivered_;
      return;
    }
    if (delivered_ >= limit_) {
      budget_hit_ = true;
      payloads_.clear();
      pos_ = 0;
      return;
    }
    ++delivered_;
  }

  const std::unique_ptr<Cursor> inner_;
  SfcTable* const base_;
  const Snapshot* const base_snapshot_;
  const std::shared_ptr<const void> pin_;  // keeps the snapshot alive
  const uint64_t limit_;
  obs::Counter* const dangling_;
  obs::Counter* const resolved_;

  std::vector<uint64_t> payloads_;  // visible base rows of the group
  size_t pos_ = 0;
  Cell group_cell_{};
  bool have_group_ = false;
  SpatialEntry current_{};
  uint64_t delivered_ = 0;
  bool budget_hit_ = false;
  Status status_;
};

}  // namespace

std::unique_ptr<Cursor> NewIndexResolveCursor(
    std::unique_ptr<Cursor> index_cursor, SfcTable* base_table,
    const Snapshot* base_snapshot, std::shared_ptr<const void> pin,
    uint64_t limit, obs::Counter* dangling_entries,
    obs::Counter* resolved_rows) {
  return std::make_unique<IndexResolveCursor>(
      std::move(index_cursor), base_table, base_snapshot, std::move(pin),
      limit, dangling_entries, resolved_rows);
}

std::unique_ptr<Cursor> NewSnapshotCursor(
    const SpaceFillingCurve* curve, std::vector<KeyRange> ranges,
    const Box* query_box, std::vector<Entry> memtable_entries,
    std::shared_ptr<const Version> version, std::shared_ptr<BufferPool> pool,
    AtomicIoStats* io_stats, const ReadOptions& options) {
  return std::make_unique<SnapshotCursor>(
      curve, std::move(ranges), query_box, std::move(memtable_entries),
      std::move(version), std::move(pool), io_stats, options);
}

}  // namespace storage
}  // namespace onion
