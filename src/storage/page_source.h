// The page-granular read abstraction of the storage engine.
//
// A PageSource is an immutable sorted run of (key, payload) entries packed
// into fixed-size pages, with an in-memory fence index (first and last key
// of every page). Concrete sources are MemPageSource (a std::vector) and
// SegmentReader (a real file). The buffer pool and all range-scan logic
// are generic over this interface, so "how many seeks does this query
// cost" is answered the same way whether pages live in RAM or on disk.
//
// The fence index is the only metadata a caller may consult without doing
// page I/O: PageOf() and range-termination tests are pure fence lookups,
// while entry data is reachable solely through ReadPage().

#ifndef ONION_STORAGE_PAGE_SOURCE_H_
#define ONION_STORAGE_PAGE_SOURCE_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "sfc/types.h"
#include "storage/io_stats.h"

namespace onion::storage {

/// One stored record: a curve key, an opaque payload id, and the packed
/// version stamp of the MVCC write path (see PackSeq below). Seq 0 —
/// sequence number 0, not a tombstone, visible to every snapshot — is what
/// unversioned sources (the in-memory simulation) carry.
struct Entry {
  Key key;
  uint64_t payload;
  uint64_t seq = 0;

  bool operator==(const Entry& other) const {
    return key == other.key && payload == other.payload && seq == other.seq;
  }
};

/// Packs a sequence number and the tombstone flag into Entry::seq. The
/// sequence lives in the high 63 bits so packed stamps of the same kind
/// compare like their sequences; the low bit marks a Delete.
inline constexpr uint64_t PackSeq(uint64_t sequence, bool tombstone) {
  return (sequence << 1) | (tombstone ? 1u : 0u);
}
/// Sequence number of a packed stamp.
inline constexpr uint64_t SequenceOf(uint64_t seq) { return seq >> 1; }
/// Whether a packed stamp marks a tombstone (a Delete of its key).
inline constexpr bool IsTombstone(uint64_t seq) { return (seq & 1) != 0; }
/// Largest storable sequence number (63 usable bits).
inline constexpr uint64_t kMaxSequence = ~0ull >> 1;

/// Bytes of a (key, payload) pair: the per-entry unit of the in-memory
/// disk simulation.
inline constexpr uint64_t kEntryBytes = 16;
/// Bytes of a raw-encoded (key, payload, seq) triple in a segment page.
inline constexpr uint64_t kEntryBytesV3 = 24;
/// Bytes one decoded Entry occupies in a buffer-pool frame (the unit of
/// IoStats::decoded_bytes).
inline constexpr uint64_t kDecodedEntryBytes = 24;

class PageSource {
 public:
  PageSource();
  virtual ~PageSource() = default;

  /// Process-unique, never-reused identifier of this source. The buffer
  /// pool keys its frames by (source_id, page) rather than by pointer, so
  /// a source retired by compaction while a query still holds its pages
  /// can never be confused with a newer source allocated at the same
  /// address.
  uint64_t source_id() const { return source_id_; }

  virtual uint64_t num_entries() const = 0;
  virtual uint32_t entries_per_page() const = 0;

  /// Fence index: first / last key of page `page` (page must be < num_pages
  /// and non-empty — every page of a source holds at least one entry).
  virtual Key first_key(uint64_t page) const = 0;
  virtual Key last_key(uint64_t page) const = 0;

  /// Reads the entries of page `page` into `*out` (replacing its contents).
  /// This is the only operation that touches entry data; for disk-backed
  /// sources it performs real file I/O and may fail with
  /// Status::Corruption when the page's block checksum or encoding does
  /// not validate (in-memory sources always succeed).
  virtual Status ReadPage(uint64_t page, std::vector<Entry>* out) const = 0;

  /// Reads `count` consecutive pages starting at `first_page`, appending
  /// one decoded vector per page to `*out` (cleared first). The contract
  /// mirrors ReadPage called in a loop — the base implementation IS that
  /// loop — but disk-backed sources override it with one batched transfer
  /// over the contiguous byte span, which is what the buffer pool's
  /// readahead path calls. A page that fails to validate leaves an EMPTY
  /// vector in its slot (pages are never legitimately empty) rather than
  /// failing the whole batch; only a transfer-level failure returns
  /// non-OK. Callers needing the exact per-page error re-read that page
  /// alone via ReadPage.
  virtual Status ReadPages(uint64_t first_page, uint64_t count,
                           std::vector<std::vector<Entry>>* out) const {
    out->clear();
    out->reserve(count);
    for (uint64_t i = 0; i < count; ++i) {
      std::vector<Entry> page;
      if (!ReadPage(first_page + i, &page).ok()) page.clear();
      out->push_back(std::move(page));
    }
    return Status::OK();
  }

  /// On-disk (encoded) bytes ReadPage(page) transfers. For in-memory and
  /// uncompressed sources this equals the decoded entry bytes; compressed
  /// segment pages report their real encoded size. Byte budgets
  /// (ReadOptions::max_bytes) and IoStats::disk_bytes count THIS number.
  virtual uint64_t PageDiskBytes(uint64_t page) const {
    return (PageEnd(page) - PageBegin(page)) * kEntryBytes;
  }

  /// Filter probe: false proves no entry of this source has key `key`.
  /// The default (no filter) answers "maybe" — true never lies, false is
  /// authoritative. Sources with a bloom filter (segments)
  /// override this; BufferPool::ProbeFilter turns a false into a skipped
  /// page fetch.
  virtual bool MayContainKey(Key key) const {
    (void)key;
    return true;
  }

  /// Zone-map probe: false proves no entry of page `page` lies inside
  /// `box`. The default (no zone maps) answers "maybe". Cursors consult
  /// this before scheduling a page fetch, so pages whose cell bounding box
  /// misses the query box cost no I/O at all.
  virtual bool PageMayIntersect(uint64_t page, const Box& box) const {
    (void)page;
    (void)box;
    return true;
  }

  uint64_t num_pages() const {
    return (num_entries() + entries_per_page() - 1) / entries_per_page();
  }

  /// First entry index of page `page`.
  uint64_t PageBegin(uint64_t page) const {
    return page * entries_per_page();
  }
  /// One-past-last entry index of page `page`.
  uint64_t PageEnd(uint64_t page) const;

  /// Page containing the first entry with key >= `key`, or num_pages() if
  /// every entry precedes `key`. Pure fence-index binary search (duplicate
  /// keys can spill backward across a page boundary, handled via the
  /// last-key fences) — no page I/O.
  uint64_t PageOf(Key key) const;

 private:
  const uint64_t source_id_;
};

}  // namespace onion::storage

#endif  // ONION_STORAGE_PAGE_SOURCE_H_
