// A buffer pool shared by every open run of the storage engine.
//
// Frames are keyed by (source, page) so one LRU pool arbitrates memory
// across the memtable's flushed segments, a compacted run, and any
// in-memory sources at once.
// Accounting keeps the paper's sequential-vs-seek distinction: a disk read
// is sequential only when it targets the page immediately after the
// previous disk read *of the same source* — switching runs always seeks,
// which is exactly why compaction into fewer runs pays off.
//
// Readers (the table cursor) consult only the fence index to decide which
// pages to fetch and when to stop; entry data is touched strictly after
// Fetch(), so the counters are honest even when pages live in a file.
//
// Thread safety: the pool is fully thread-safe. A shared_mutex guards the
// LRU structures — Fetch() and Drop() mutate them under the exclusive
// lock (the underlying page read itself is serialized by the source), while
// observers (stats(), resident_pages()) take the shared lock, so any number
// of threads may introspect concurrently with scans. Fetched page data is
// returned as a shared_ptr, so a frame evicted or Drop()ped by another
// thread stays valid for as long as a caller still holds it.

#ifndef ONION_STORAGE_BUFFER_POOL_H_
#define ONION_STORAGE_BUFFER_POOL_H_

#include <cstdint>
#include <list>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/macros.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "storage/page_source.h"

namespace onion::storage {

class BufferPool {
 public:
  /// `readahead_pages` is the maximum number of EXTRA pages a miss may
  /// pull in beyond the demanded one (0 disables readahead entirely and
  /// reproduces the historical one-page-per-miss behavior byte for byte).
  explicit BufferPool(uint64_t capacity_pages, uint64_t readahead_pages = 0);

  /// Ensures the page is resident and returns its entries. The returned
  /// data stays valid for as long as the caller holds the pointer, even if
  /// the frame is evicted or its source is Drop()ped meanwhile. When
  /// `attribution` is non-null the same counter increments land there too
  /// (relaxed atomics), attributing the I/O to one client of a shared pool.
  /// `status` (required) is set to OK on success; a failed page read (e.g.
  /// Status::Corruption from a checksum mismatch) returns nullptr with the
  /// error in `*status`.
  ///
  /// With readahead enabled, a miss extends into ONE batched read over the
  /// run of pages following `page` (stopping at the source's end, at an
  /// already-resident page, and at the readahead budget). When `box` is
  /// non-null the run also stops at the first page whose zone map proves
  /// it cannot intersect `box` — a filtered page is never prefetched.
  /// Prefetched frames are inserted BEHIND the demanded page in LRU order;
  /// their first touch counts readahead_hits, eviction or Drop() before
  /// any touch counts readahead_wasted.
  std::shared_ptr<const std::vector<Entry>> Fetch(
      const PageSource& source, uint64_t page, Status* status,
      AtomicIoStats* attribution = nullptr, const Box* box = nullptr);

  /// Filter fast path: returns false when `source`'s filter proves no
  /// entry has key `key` — the page fetch a point probe would have done is
  /// skipped WITHOUT allocating or touching any frame, and counted as
  /// pages_skipped_by_filter. Returns true ("maybe present", including for
  /// sources without a filter) otherwise, counting nothing.
  bool ProbeFilter(const PageSource& source, Key key,
                   AtomicIoStats* attribution = nullptr);

  /// Credits entries delivered to a caller that fetches pages itself (the
  /// streaming cursor does), keeping `entries_read` complete in the pool
  /// aggregate.
  void AddEntriesRead(uint64_t count, AtomicIoStats* attribution = nullptr);

  /// Credits page fetches a caller avoided through zone-map checks of its
  /// own (the cursor consults PageMayIntersect before scheduling fetches),
  /// keeping pages_skipped_by_filter complete in the pool aggregate.
  void AddFilterSkips(uint64_t count, AtomicIoStats* attribution = nullptr);

  /// Discards all frames of `source` (used when a segment is retired by
  /// compaction). Does not count as I/O.
  void Drop(const PageSource* source);

  IoStats stats() const;
  void ResetStats();
  uint64_t resident_pages() const;
  /// Frames discarded to make room since construction (not reset by
  /// ResetStats — eviction pressure is a property of the pool, not of a
  /// measurement window).
  uint64_t evictions() const;
  uint64_t capacity() const { return capacity_; }

 private:
  // Frames are keyed by the source's never-reused id, not its address: a
  // retired segment's lingering frames can therefore never alias a newer
  // source that the allocator placed at the same address.
  struct Frame {
    uint64_t source_id;
    uint64_t page;
    std::shared_ptr<std::vector<Entry>> data;
    // Readahead brought this frame in and nothing has touched it yet:
    // cleared (and counted as a readahead hit) on first Fetch, counted as
    // readahead_wasted if evicted or dropped still set.
    bool prefetched = false;
  };
  using FrameKey = std::pair<uint64_t, uint64_t>;  // (source_id, page)
  struct FrameKeyHash {
    size_t operator()(const FrameKey& key) const {
      const auto h1 = std::hash<uint64_t>()(key.first);
      const auto h2 = std::hash<uint64_t>()(key.second);
      return h1 ^ (h2 + 0x9e3779b97f4a7c15ULL + (h1 << 6) + (h1 >> 2));
    }
  };

  /// Evicts LRU-tail frames until the pool fits its capacity, counting
  /// never-touched prefetched victims as readahead_wasted.
  void EvictOverflowLocked() ONION_REQUIRES(mu_);

  const uint64_t capacity_;
  const uint64_t readahead_;
  mutable SharedMutex mu_;
  // LRU list of resident frames, most recent at front, with an index.
  std::list<Frame> lru_ ONION_GUARDED_BY(mu_);
  std::unordered_map<FrameKey, std::list<Frame>::iterator, FrameKeyHash>
      resident_ ONION_GUARDED_BY(mu_);
  // Position of the disk head: last source/page actually read from disk.
  // Source id 0 is never assigned; the sentinel page is chosen so
  // sentinel + 1 can't match a real page.
  uint64_t last_disk_source_ ONION_GUARDED_BY(mu_) = 0;
  uint64_t last_disk_page_ ONION_GUARDED_BY(mu_) = ~0ull - 1;
  IoStats stats_ ONION_GUARDED_BY(mu_);
  uint64_t evictions_ ONION_GUARDED_BY(mu_) = 0;
};

}  // namespace onion::storage

#endif  // ONION_STORAGE_BUFFER_POOL_H_
