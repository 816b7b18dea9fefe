// The streaming query primitive of the persistent SfcTable.
//
// A Cursor is a pull-based iterator over the entries of one box query (or a
// full scan): the caller drives it with Valid()/Next()/entry() and may stop
// at any point, so a query over a huge region no longer materializes its
// whole result set before the first entry is seen. SfcTable::NewBoxCursor()
// streams from a consistent snapshot of segment files and frozen memtables
// through the buffer pool; SfcDb::NewIndexCursor() wraps such a cursor to
// resolve secondary-index hits.
//
// Errors travel through status() instead of silently-empty results: a
// cursor over an invalid box (or a table with a background error) is
// !Valid() with a non-OK status from the start.
//
// ReadOptions bound the work a cursor may do: `limit` caps delivered
// entries, `max_pages` and `max_bytes` cap page fetches (storage cursors
// only). A cursor that stops because a bound was hit reports
// hit_read_budget() == true with an OK status — truncation is not an
// error, but it is observable.
//
// SpatialEntry and the cursor vocabulary live in the top-level onion
// namespace (like IoStats); the storage-snapshot cursor factory lives in
// onion::storage. This header deliberately stays lightweight — the storage
// machinery (SegmentReader, BufferPool, the curve) is only
// forward-declared.
//
// Lifetime: a cursor snapshots immutable state (segment readers are kept
// alive via shared_ptr even across compaction; matching memtable entries
// are copied at creation), but it borrows its engine's curve, buffer pool,
// and stats sinks — a cursor must not outlive the SfcTable that produced
// it.

#ifndef ONION_STORAGE_CURSOR_H_
#define ONION_STORAGE_CURSOR_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/status.h"
#include "sfc/types.h"
#include "storage/io_stats.h"

namespace onion::obs {
class Counter;  // obs/metrics.h — kept out of this lightweight header
}  // namespace onion::obs

namespace onion {

class SpaceFillingCurve;
struct KeyRange;

/// A spatial point with an opaque payload id (the unit every query
/// interface returns). `seq` is the sequence number the write carried
/// (0 for pre-versioning data).
struct SpatialEntry {
  Cell cell;
  uint64_t payload = 0;
  uint64_t seq = 0;
};

/// A pinned read view of an SfcTable: every entry whose sequence number is
/// <= `sequence` is visible, everything written later is not. Obtain one
/// via SfcTable::GetSnapshot() / SfcDb::GetSnapshot() — the returned
/// shared_ptr is the pin; while it lives, compaction retains the versions
/// the snapshot can see. A Snapshot must not outlive the table that
/// produced it.
struct Snapshot {
  uint64_t sequence = 0;
  /// When the pin was taken (obs::NowMicros clock) — lets the engine report
  /// how long its oldest snapshot has been holding back compaction GC.
  uint64_t created_us = 0;
};

/// Per-read knobs honored by every cursor. Zero means "unbounded".
struct ReadOptions {
  /// Stop after this many entries have been delivered.
  uint64_t limit = 0;
  /// Stop before touching more than this many pages (buffer-pool fetches,
  /// resident or not).
  uint64_t max_pages = 0;
  /// Stop before fetching more than this many bytes of page data, counted
  /// in ON-DISK (encoded) bytes — the same unit as IoStats::disk_bytes, so
  /// the budget bounds real I/O regardless of the segment codec.
  uint64_t max_bytes = 0;
  /// Read at this pinned sequence instead of "latest": entries (and
  /// tombstones) with a higher sequence are invisible, so any number of
  /// cursors created with the same snapshot see byte-identical data no
  /// matter how many inserts, deletes, flushes, or compactions run in
  /// between (repeatable reads). Null reads the latest state. The
  /// snapshot must stay pinned (its shared_ptr alive) while this read
  /// runs.
  const Snapshot* snapshot = nullptr;
};

/// Pull-based streaming iterator over query results, delivered in
/// nondecreasing curve-key order (ties between equal keys are in
/// unspecified order; sort by (key, payload) for a canonical order).
class Cursor {
 public:
  virtual ~Cursor() = default;

  /// True while a current entry exists. A cursor that starts in an error
  /// state, exhausts its data, hits a ReadOptions bound, or fails mid-read
  /// becomes permanently invalid.
  virtual bool Valid() const = 0;

  /// Advances to the next entry. Requires Valid().
  virtual void Next() = 0;

  /// The current entry. Requires Valid(); the reference is stable until
  /// the next Next() call.
  virtual const SpatialEntry& entry() const = 0;

  /// OK unless the cursor failed (invalid box, background error, ...).
  /// Check after the cursor goes !Valid() to distinguish exhaustion from
  /// failure.
  virtual Status status() const = 0;

  /// True when iteration stopped early because a ReadOptions bound
  /// (limit / max_pages / max_bytes) was reached, not because the data ran
  /// out. status() stays OK in that case.
  virtual bool hit_read_budget() const { return false; }

  /// Page fetches this cursor avoided through segment filters: bloom
  /// negatives on point ranges and zone-map-excluded pages. 0 for cursors
  /// that read no pages.
  virtual uint64_t pages_skipped_by_filter() const { return 0; }
};

/// Drains `cursor` into a vector (entries in cursor order). A convenience
/// for callers that do want full materialization.
std::vector<SpatialEntry> DrainCursor(Cursor* cursor);

/// An immediately-invalid cursor carrying `status` (must not be OK).
std::unique_ptr<Cursor> NewErrorCursor(Status status);

namespace storage {

class BufferPool;
class SegmentReader;
struct Entry;

/// An immutable view of an SfcTable's segment structure. The table never
/// edits a Version in place: every flush and compaction publishes a new
/// one, so a reader takes a consistent view by copying one shared_ptr
/// under the table lock. The shared_ptrs inside keep retired segments
/// readable for as long as any cursor holds the Version, even across
/// compaction.
struct Version {
  /// Level-0 runs, oldest first; key ranges may overlap.
  std::vector<std::shared_ptr<SegmentReader>> l0;
  /// levels[i] is level i+1: sorted by min_key, pairwise disjoint.
  std::vector<std::vector<std::shared_ptr<SegmentReader>>> levels;
};

/// Streaming k-way-merge cursor over one query's decomposed key ranges:
/// for each range (in order) it lazily merges the memtable hits with every
/// overlapping L0 run of `version` and at most one contiguous group of its
/// segments per deeper level, fetching pages through `pool` one at a time and
/// attributing the I/O to `io_stats` (may be null). `memtable_entries`
/// are the snapshot-time matches from the active + pending memtables,
/// sorted by (key, payload). `curve` maps keys back to cells and must
/// outlive the cursor.
///
/// `query_box` (may be null) is the spatial box the ranges decompose —
/// when given, it must be the EXACT decomposition source (every key in
/// every range maps into the box), which is what makes zone-map page
/// skipping lossless: a page whose cell bounding box misses the box can
/// hold no key of any range. Point ranges (lo == hi) additionally probe
/// each candidate segment's bloom filter through the pool before touching
/// any page.
/// Delivered segment entries are counted in the cursor and added to
/// `io_stats` and the pool's `entries_read` once, when the cursor ends
/// (exhausted, budget stop or error) or is destroyed, whichever comes
/// first.
std::unique_ptr<Cursor> NewSnapshotCursor(
    const SpaceFillingCurve* curve, std::vector<KeyRange> ranges,
    const Box* query_box, std::vector<Entry> memtable_entries,
    std::shared_ptr<const Version> version, std::shared_ptr<BufferPool> pool,
    AtomicIoStats* io_stats, const ReadOptions& options);

class SfcTable;

/// The resolution half of a secondary-index query (SfcDb::NewIndexCursor's
/// engine): wraps a cursor over the hidden index table — whose entries
/// carry the BASE table's curve key as payload — and emits the base rows.
/// Each distinct index cell is resolved once (maintenance writes one index
/// entry per base put, so an index cell holds one entry per live base
/// version — injective extractors make them all identical) via a
/// point Get on `base_table` at `base_snapshot`, and every payload stored
/// at the base cell is emitted (ascending per cell), in nondecreasing
/// INDEX-curve-key order overall. Emitted entries carry seq 0 — the point
/// Get returns the visible payload multiset, not per-version stamps.
///
/// An index entry whose base row no longer exists (possible only when
/// writes bypassed SfcDb::Write) is skipped and counted in
/// `dangling_entries`; `resolved_rows` counts emitted base rows (both
/// counters may be null). A base key outside the base universe is
/// Corruption. `limit` caps emitted entries (hit_read_budget() == true
/// when it stops iteration early); the inner cursor's own page/byte
/// budgets and status propagate. `pin` (type-erased, may be null) keeps
/// the snapshot that `base_snapshot` points into alive for the cursor's
/// lifetime. The cursor must not outlive `base_table`.
std::unique_ptr<Cursor> NewIndexResolveCursor(
    std::unique_ptr<Cursor> index_cursor, SfcTable* base_table,
    const Snapshot* base_snapshot, std::shared_ptr<const void> pin,
    uint64_t limit, obs::Counter* dangling_entries = nullptr,
    obs::Counter* resolved_rows = nullptr);

}  // namespace storage
}  // namespace onion

#endif  // ONION_STORAGE_CURSOR_H_
