// A range scan over one page source through the buffer pool, for the pool
// tests: it reads pages the way the table cursor reads one key range —
// the fence index alone picks the first page and ends the scan, and entry
// data is touched only after Fetch returns it — so the tests can check
// the pool's accounting (reads, hits, seeks, readahead, entries_read)
// without a table around the pool.

#ifndef ONION_TESTS_POOL_SCAN_H_
#define ONION_TESTS_POOL_SCAN_H_

#include <cstdint>
#include <functional>

#include "common/status.h"
#include "storage/buffer_pool.h"
#include "storage/page_source.h"

namespace onion::storage {

/// Calls fn(key, payload) for every entry of `source` with
/// lo <= key <= hi, then credits the delivered count to the pool's
/// entries_read. Returns the status of the first page read that failed.
inline Status PoolScan(
    BufferPool* pool, const PageSource& source, Key lo, Key hi,
    const std::function<void(Key, uint64_t)>& fn = nullptr) {
  const uint64_t pages = source.num_pages();
  uint64_t delivered = 0;
  Status status;
  for (uint64_t page = source.PageOf(lo);
       page < pages && source.first_key(page) <= hi; ++page) {
    const auto data = pool->Fetch(source, page, &status);
    if (data == nullptr) break;
    for (const Entry& entry : *data) {
      if (entry.key < lo) continue;
      if (entry.key > hi) break;
      ++delivered;
      if (fn) fn(entry.key, entry.payload);
    }
  }
  pool->AddEntriesRead(delivered);
  return status;
}

}  // namespace onion::storage

#endif  // ONION_TESTS_POOL_SCAN_H_
