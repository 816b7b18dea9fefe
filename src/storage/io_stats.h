// Physical I/O counters shared by every page-serving component (the
// multi-segment buffer pool and the SfcTable facade). Kept in the
// top-level onion namespace because the counters predate the storage
// subsystem and are part of its public benchmark vocabulary.

#ifndef ONION_STORAGE_IO_STATS_H_
#define ONION_STORAGE_IO_STATS_H_

#include <atomic>
#include <cstdint>

namespace onion {

/// The single source of truth for the counter set: every IoStats /
/// AtomicIoStats member, Snapshot(), Reset(), operator+, and the metric
/// exporters' field iteration are generated from this list, so adding a
/// counter is ONE line here (a forgotten field in a hand-written copy
/// loop is a silent accounting bug).
///
/// Field semantics:
///   page_reads               pages fetched from disk (or the simulated one)
///   cache_hits               pages served by the buffer pool
///   seeks                    non-sequential disk reads
///   entries_read             entries delivered to the caller
///   disk_bytes               on-disk (encoded) bytes fetched
///   decoded_bytes            decoded page bytes those fetches produced
///   pages_skipped_by_filter  page fetches avoided by a segment filter
///                            (bloom-negative point probes and
///                            zone-map-excluded pages); these cost neither
///                            I/O nor a pool frame
///   readahead_batched_reads  physical reads that covered a run of more
///                            than one page (one seek+transfer instead of
///                            run-length of them)
///   readahead_pages          pages fetched beyond the demanded one by
///                            those batched reads (counted in page_reads
///                            too — readahead widens a read, it is still
///                            a page read)
///   readahead_hits           first-touch pool hits on a prefetched page:
///                            readahead that actually saved a disk read
///   readahead_wasted         prefetched pages evicted or dropped without
///                            ever being touched: readahead that paid
///                            transfer for nothing
#define ONION_IO_STAT_FIELDS(V) \
  V(page_reads)                 \
  V(cache_hits)                 \
  V(seeks)                      \
  V(entries_read)               \
  V(disk_bytes)                 \
  V(decoded_bytes)              \
  V(pages_skipped_by_filter)    \
  V(readahead_batched_reads)    \
  V(readahead_pages)            \
  V(readahead_hits)             \
  V(readahead_wasted)

/// Physical I/O counters.
///
/// Byte accounting rule: `disk_bytes` counts ON-DISK (encoded) bytes —
/// exactly what a page read transfers from the file, after compression —
/// and is the unit of ReadOptions::max_bytes budgets. `decoded_bytes`
/// counts the decoded entry bytes those same reads materialized in the
/// buffer pool. For uncompressed pages the two are equal (modulo format-v1
/// padding); for compressed codecs disk_bytes < decoded_bytes, and the
/// ratio is the measured compression win.
struct IoStats {
#define ONION_IO_STAT_DECL(name) uint64_t name = 0;
  ONION_IO_STAT_FIELDS(ONION_IO_STAT_DECL)
#undef ONION_IO_STAT_DECL

  void Reset() { *this = IoStats{}; }

  IoStats& operator+=(const IoStats& other) {
#define ONION_IO_STAT_ADD(name) name += other.name;
    ONION_IO_STAT_FIELDS(ONION_IO_STAT_ADD)
#undef ONION_IO_STAT_ADD
    return *this;
  }

  friend IoStats operator+(IoStats lhs, const IoStats& rhs) {
    lhs += rhs;
    return lhs;
  }

  /// Invokes fn("field_name", value) for every counter, in declaration
  /// order — what the JSON/Prometheus exporters iterate, so a new field
  /// shows up in every dump automatically.
  template <typename Fn>
  void ForEachField(Fn&& fn) const {
#define ONION_IO_STAT_VISIT(name) fn(#name, name);
    ONION_IO_STAT_FIELDS(ONION_IO_STAT_VISIT)
#undef ONION_IO_STAT_VISIT
  }
};

/// Lock-free I/O counters for per-table attribution on a SHARED buffer
/// pool: every table passes its own AtomicIoStats into the pool's Fetch
/// calls, so "who caused this I/O" survives many tables sharing one pool
/// (the pool's own IoStats stays the physical aggregate).
/// All updates are relaxed — the counters are statistics, not
/// synchronization.
struct AtomicIoStats {
#define ONION_IO_STAT_DECL(name) std::atomic<uint64_t> name{0};
  ONION_IO_STAT_FIELDS(ONION_IO_STAT_DECL)
#undef ONION_IO_STAT_DECL

  IoStats Snapshot() const {
    IoStats out;
#define ONION_IO_STAT_LOAD(name) \
  out.name = name.load(std::memory_order_relaxed);
    ONION_IO_STAT_FIELDS(ONION_IO_STAT_LOAD)
#undef ONION_IO_STAT_LOAD
    return out;
  }

  void Reset() {
#define ONION_IO_STAT_ZERO(name) name.store(0, std::memory_order_relaxed);
    ONION_IO_STAT_FIELDS(ONION_IO_STAT_ZERO)
#undef ONION_IO_STAT_ZERO
  }
};

}  // namespace onion

#endif  // ONION_STORAGE_IO_STATS_H_
