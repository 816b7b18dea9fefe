#include "storage/buffer_pool.h"

#include <algorithm>

namespace onion::storage {

BufferPool::BufferPool(uint64_t capacity_pages, uint64_t readahead_pages)
    : capacity_(capacity_pages), readahead_(readahead_pages) {
  ONION_CHECK_MSG(capacity_pages >= 1, "buffer pool needs >= 1 page");
}

std::shared_ptr<const std::vector<Entry>> BufferPool::Fetch(
    const PageSource& source, uint64_t page, Status* status,
    AtomicIoStats* attribution, const Box* box) {
  *status = Status::OK();
  const FrameKey key{source.source_id(), page};
  WriterLock lock(mu_);
  auto it = resident_.find(key);
  if (it != resident_.end()) {
    ++stats_.cache_hits;
    if (attribution != nullptr) {
      attribution->cache_hits.fetch_add(1, std::memory_order_relaxed);
    }
    if (it->second->prefetched) {
      // First touch of a page readahead brought in: the prefetch paid off.
      it->second->prefetched = false;
      ++stats_.readahead_hits;
      if (attribution != nullptr) {
        attribution->readahead_hits.fetch_add(1, std::memory_order_relaxed);
      }
    }
    lru_.splice(lru_.begin(), lru_, it->second);  // move to front
    return lru_.front().data;
  }
  // Miss. Size the read: the demanded page plus (with readahead) the run
  // of pages after it, stopping at the source's end, an already-resident
  // page, a zone-excluded page, the readahead budget, or pool capacity.
  uint64_t run = 1;
  if (readahead_ > 0) {
    const uint64_t pages = source.num_pages();
    const uint64_t budget = std::min(readahead_, capacity_ - 1);
    while (run <= budget && page + run < pages) {
      const uint64_t next = page + run;
      if (resident_.count(FrameKey{source.source_id(), next}) != 0) break;
      if (box != nullptr && !source.PageMayIntersect(next, *box)) break;
      ++run;
    }
  }
  // Account for the read while the decision is still serialized, then
  // release the lock for the actual I/O so concurrent readers of other
  // pages are not held up behind this one. All byte counters are known
  // before the read: encoded sizes from the page index, decoded sizes
  // from the page geometry. The whole run is ONE transfer: one seek
  // (when non-sequential), `run` page reads.
  stats_.page_reads += run;
  const bool seek = source.source_id() != last_disk_source_ ||
                    page != last_disk_page_ + 1;
  if (seek) ++stats_.seeks;
  uint64_t disk_bytes = 0;
  uint64_t decoded_bytes = 0;
  for (uint64_t i = 0; i < run; ++i) {
    disk_bytes += source.PageDiskBytes(page + i);
    decoded_bytes += (source.PageEnd(page + i) - source.PageBegin(page + i)) *
                     kDecodedEntryBytes;
  }
  stats_.disk_bytes += disk_bytes;
  stats_.decoded_bytes += decoded_bytes;
  if (run > 1) {
    ++stats_.readahead_batched_reads;
    stats_.readahead_pages += run - 1;
  }
  if (attribution != nullptr) {
    attribution->page_reads.fetch_add(run, std::memory_order_relaxed);
    if (seek) attribution->seeks.fetch_add(1, std::memory_order_relaxed);
    attribution->disk_bytes.fetch_add(disk_bytes, std::memory_order_relaxed);
    attribution->decoded_bytes.fetch_add(decoded_bytes,
                                         std::memory_order_relaxed);
    if (run > 1) {
      attribution->readahead_batched_reads.fetch_add(
          1, std::memory_order_relaxed);
      attribution->readahead_pages.fetch_add(run - 1,
                                             std::memory_order_relaxed);
    }
  }
  last_disk_source_ = source.source_id();
  last_disk_page_ = page + run - 1;
  lock.Unlock();

  // Slot i holds page+i's data; null means "failed validation, do not
  // insert" (only possible for prefetched slots — a demanded-page failure
  // returns below with the exact error).
  std::vector<std::shared_ptr<std::vector<Entry>>> run_data(run);
  if (run == 1) {
    auto data = std::make_shared<std::vector<Entry>>();
    const Status read_status = source.ReadPage(page, data.get());
    if (!read_status.ok()) {
      // The physical read attempt stays counted (it happened); the page
      // just never becomes resident.
      *status = read_status;
      return nullptr;
    }
    run_data[0] = std::move(data);
  } else {
    std::vector<std::vector<Entry>> batch;
    const Status batch_status = source.ReadPages(page, run, &batch);
    if (batch_status.ok() && batch.size() == run && !batch[0].empty()) {
      for (uint64_t i = 0; i < run; ++i) {
        if (batch[i].empty()) continue;  // failed prefetch: stays absent
        run_data[i] =
            std::make_shared<std::vector<Entry>>(std::move(batch[i]));
      }
    } else {
      // The transfer failed or the demanded page did not validate:
      // re-read it alone so the caller gets the exact per-page error.
      auto data = std::make_shared<std::vector<Entry>>();
      const Status read_status = source.ReadPage(page, data.get());
      if (!read_status.ok()) {
        *status = read_status;
        return nullptr;
      }
      run_data[0] = std::move(data);
    }
  }

  lock.Lock();
  // Insert prefetched frames first so they land BEHIND the demanded page
  // in LRU order (push_front from the farthest page inward), skipping
  // pages another thread raced in and slots that failed validation.
  for (uint64_t i = run; i-- > 1;) {
    if (run_data[i] == nullptr) continue;
    const FrameKey pkey{source.source_id(), page + i};
    if (resident_.find(pkey) != resident_.end()) continue;
    lru_.push_front(
        Frame{source.source_id(), page + i, std::move(run_data[i]), true});
    resident_[pkey] = lru_.begin();
  }
  // Another thread may have read the demanded page while the lock was
  // free; keep its frame (the physical read above already happened and
  // stays counted — the counters report real I/O, not residency).
  it = resident_.find(key);
  if (it != resident_.end()) {
    it->second->prefetched = false;  // we did our own disk read: no hit
    lru_.splice(lru_.begin(), lru_, it->second);
  } else {
    lru_.push_front(
        Frame{source.source_id(), page, std::move(run_data[0]), false});
    resident_[key] = lru_.begin();
  }
  auto result = lru_.front().data;
  EvictOverflowLocked();
  return result;
}

void BufferPool::EvictOverflowLocked() {
  while (lru_.size() > capacity_) {
    const Frame& victim = lru_.back();
    if (victim.prefetched) ++stats_.readahead_wasted;
    resident_.erase(FrameKey{victim.source_id, victim.page});
    lru_.pop_back();
    ++evictions_;
  }
}

bool BufferPool::ProbeFilter(const PageSource& source, Key key,
                             AtomicIoStats* attribution) {
  if (source.MayContainKey(key)) return true;
  // Filter hit: the one page a point probe would have fetched never
  // happens — no frame, no I/O, just the skip counter.
  if (attribution != nullptr) {
    attribution->pages_skipped_by_filter.fetch_add(1,
                                                   std::memory_order_relaxed);
  }
  WriterLock lock(mu_);
  ++stats_.pages_skipped_by_filter;
  return false;
}

void BufferPool::Drop(const PageSource* source) {
  WriterLock lock(mu_);
  for (auto it = lru_.begin(); it != lru_.end();) {
    if (it->source_id == source->source_id()) {
      // A prefetched page retired before anyone touched it was transfer
      // paid for nothing — same waste as an untouched eviction.
      if (it->prefetched) ++stats_.readahead_wasted;
      resident_.erase(FrameKey{it->source_id, it->page});
      it = lru_.erase(it);
    } else {
      ++it;
    }
  }
  if (last_disk_source_ == source->source_id()) {
    last_disk_source_ = 0;
    last_disk_page_ = ~0ull - 1;
  }
}

IoStats BufferPool::stats() const {
  const ReaderLock lock(mu_);
  return stats_;
}

void BufferPool::ResetStats() {
  WriterLock lock(mu_);
  stats_.Reset();
}

uint64_t BufferPool::resident_pages() const {
  const ReaderLock lock(mu_);
  return lru_.size();
}

uint64_t BufferPool::evictions() const {
  const ReaderLock lock(mu_);
  return evictions_;
}

void BufferPool::AddEntriesRead(uint64_t count, AtomicIoStats* attribution) {
  if (count == 0) return;
  if (attribution != nullptr) {
    attribution->entries_read.fetch_add(count, std::memory_order_relaxed);
  }
  WriterLock lock(mu_);
  stats_.entries_read += count;
}

void BufferPool::AddFilterSkips(uint64_t count, AtomicIoStats* attribution) {
  if (count == 0) return;
  if (attribution != nullptr) {
    attribution->pages_skipped_by_filter.fetch_add(count,
                                                   std::memory_order_relaxed);
  }
  WriterLock lock(mu_);
  stats_.pages_skipped_by_filter += count;
}

}  // namespace onion::storage
