// The write buffer of the storage engine: a batch of (key, payload, seq)
// entries — puts and tombstones alike — kept in key-sorted blocks of
// kBlockEntries, and fully sorted when flushed into a segment.
//
// Layout: the key space is split into kNumShards contiguous key ranges
// (shard i covers keys [i*width, (i+1)*width)), each shard holding its own
// Mutex and a bump-pointer arena of fixed-size entry blocks. Three effects:
//
//   - Inserts never relocate entries across blocks (a full block just
//     links a new one), so buffering is a pointer bump instead of a
//     vector's amortized realloc-and-copy.
//   - The insert that fills a block seals it: it sorts the block in place
//     by (key, sequence) under the shard mutex, one 512-entry sort per
//     512 inserts. A scan binary-searches each sealed block for its low
//     key and stops past its high key; only the shard's partially filled
//     tail block is walked entry by entry. A point read therefore costs
//     one binary search per sealed block, not a walk of every entry.
//   - Readers touch only the shards whose key range intersects their scan,
//     so a query over a narrow key range never contends with an insert
//     landing elsewhere in the key space.
//
// Order: ScanRange delivers each sealed block's hits in key order, but
// makes no promise across blocks or for the tail block; its one
// production caller, SfcTable::NewRangesCursor, sorts its hits. FlushTo
// sorts each shard by (key, sequence) and writes the shards in key-range
// order, so same-key entries reach the segment in sequence order.
// Sequences are unique, so that order is total and std::sort needs no
// stability (nor std::stable_sort's heap buffer).
//
// Thread safety: Insert/ScanRange/ContainsSequence/FlushTo are internally
// synchronized by the per-shard mutexes (annotated; see the lock catalog
// in docs/concurrency.md) and may run concurrently under the owner's
// SHARED table lock. The object's identity — moving a rotated memtable
// into the flush queue, assigning a fresh one — is still the owner's
// business and happens only under its EXCLUSIVE table lock; SfcTable's
// memtable_ member remains ONION_GUARDED_BY(mu_) for exactly that.

#ifndef ONION_STORAGE_MEMTABLE_H_
#define ONION_STORAGE_MEMTABLE_H_

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "storage/page_source.h"
#include "storage/segment.h"

namespace onion::storage {

class MemTable {
 public:
  /// Number of key-range shards. Fixed: the shard count trades lock
  /// granularity against per-rotation allocation, not correctness.
  static constexpr size_t kNumShards = 8;
  /// Entries per arena block (~12 KiB): small enough that a near-empty
  /// memtable stays cheap, large enough that block links are rare.
  static constexpr size_t kBlockEntries = 512;

  /// A memtable for keys in [0, key_span); keys at or past key_span still
  /// work (they land in the last shard). key_span 0 means "unknown span" —
  /// the full 64-bit key space is split evenly instead.
  explicit MemTable(Key key_span = 0);

  /// Moves transfer the shards wholesale; the moved-from table is empty
  /// and must only be destroyed or assigned to. Owners move a memtable
  /// only under their exclusive lock, never while inserts are in flight.
  MemTable(MemTable&& other) noexcept;
  MemTable& operator=(MemTable&& other) noexcept;
  MemTable(const MemTable&) = delete;
  MemTable& operator=(const MemTable&) = delete;

  /// Buffers one entry. `seq` is the packed MVCC stamp (page_source.h):
  /// sequence number plus the tombstone flag for Deletes. Thread-safe;
  /// concurrent inserts to different shards do not contend.
  void Insert(Key key, uint64_t payload, uint64_t seq);

  uint64_t size() const { return size_.load(std::memory_order_acquire); }
  bool empty() const { return size() == 0; }
  /// In-memory footprint of the buffered entries (the memtable.bytes
  /// gauge; excludes arena slack in partially filled blocks).
  uint64_t ApproximateBytes() const { return size() * sizeof(Entry); }
  void Clear();

  /// Largest sequence number buffered (0 when empty): the manifest's
  /// `last_sequence` advances to this when the memtable's segment lands.
  uint64_t max_sequence() const {
    return max_sequence_.load(std::memory_order_acquire);
  }

  /// Whether any buffered entry carries exactly `sequence` (linear; used
  /// by open-time batch-journal recovery, never on a hot path).
  bool ContainsSequence(uint64_t sequence) const;

  /// Invokes fn(entry) for every entry with lo <= key <= hi. Each sealed
  /// block's hits arrive in (key, sequence) order, found by a binary
  /// search; the tail block is filtered entry by entry. There is no order
  /// across blocks — callers needing a global order sort the hits
  /// themselves (the cursor path always has). Tombstones are delivered too
  /// — visibility and delete resolution belong to the cursor merge. Only
  /// shards whose range intersects [lo, hi] are locked and searched.
  template <typename Fn>
  void ScanRange(Key lo, Key hi, Fn&& fn) const {
    const size_t last = ShardOf(hi);
    for (size_t s = ShardOf(lo); s <= last; ++s) {
      const Shard& shard = shards_[s];
      const MutexLock lock(shard.mu);
      shard.arena.ForEachInRange(lo, hi, fn);
    }
  }

  /// Streams the buffered entries into `writer` in (key, sequence) order:
  /// one shard at a time, copied out under its mutex and sorted outside
  /// it. The memtable itself is not modified, so concurrent readers are
  /// undisturbed. The caller still owns writer->Finish().
  Status FlushTo(SegmentWriter* writer) const;

 private:
  /// The order of sealed blocks and of flushed segments. Sequences are
  /// unique, so no two entries compare equal.
  static bool KeySeqLess(const Entry& a, const Entry& b) {
    return a.key != b.key ? a.key < b.key : a.seq < b.seq;
  }

  /// Bump-pointer arena: entries land in fixed-size blocks that never
  /// move, linked in allocation order. Growth allocates one block; no
  /// entry ever leaves its block. A full block is sealed: sorted in place
  /// by KeySeqLess.
  class EntryArena {
   public:
    void Push(const Entry& entry) {
      const size_t used = size_ % kBlockEntries;
      if (used == 0) blocks_.push_back(std::make_unique<Block>());
      Block& block = *blocks_.back();
      block[used] = entry;
      ++size_;
      if (used + 1 == kBlockEntries) {
        std::sort(block.begin(), block.end(), KeySeqLess);
      }
    }

    template <typename Fn>
    void ForEach(Fn&& fn) const {
      size_t remaining = size_;
      for (const auto& block : blocks_) {
        const size_t in_block = std::min(remaining, kBlockEntries);
        for (size_t i = 0; i < in_block; ++i) fn((*block)[i]);
        remaining -= in_block;
      }
    }

    /// fn(entry) for every entry with lo <= key <= hi: a binary search
    /// per sealed block, a linear filter over the tail block.
    template <typename Fn>
    void ForEachInRange(Key lo, Key hi, Fn&& fn) const {
      const size_t sealed = size_ / kBlockEntries;
      for (size_t b = 0; b < sealed; ++b) {
        const Block& block = *blocks_[b];
        auto it = std::lower_bound(
            block.begin(), block.end(), lo,
            [](const Entry& entry, Key key) { return entry.key < key; });
        for (; it != block.end() && it->key <= hi; ++it) fn(*it);
      }
      const size_t tail = size_ % kBlockEntries;
      if (tail == 0) return;
      const Block& block = *blocks_.back();
      for (size_t i = 0; i < tail; ++i) {
        if (block[i].key >= lo && block[i].key <= hi) fn(block[i]);
      }
    }

    void Clear() {
      blocks_.clear();
      size_ = 0;
    }

    size_t size() const { return size_; }

   private:
    using Block = std::array<Entry, kBlockEntries>;
    std::vector<std::unique_ptr<Block>> blocks_;
    size_t size_ = 0;
  };

  struct Shard {
    mutable Mutex mu;
    EntryArena arena ONION_GUARDED_BY(mu);
  };

  // key -> shard is a shift, not a division: the shard width is rounded
  // up to a power of two at construction. Any monotone mapping is correct
  // (inserts and scans share it; only balance is affected, by < 2x), and
  // a shift keeps the per-insert routing cost to a couple of cycles on
  // the hot write path. For power-of-two spans — every curve universe in
  // practice — the rounding is exact and the split is even.
  size_t ShardOf(Key key) const {
    const size_t shard = static_cast<size_t>(key >> shard_shift_);
    return shard < kNumShards ? shard : kNumShards - 1;
  }

  int shard_shift_;
  std::unique_ptr<Shard[]> shards_;
  std::atomic<uint64_t> size_{0};
  std::atomic<uint64_t> max_sequence_{0};
};

}  // namespace onion::storage

#endif  // ONION_STORAGE_MEMTABLE_H_
