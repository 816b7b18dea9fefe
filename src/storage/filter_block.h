// Split-block Bloom filter over the cell keys of one segment.
//
// The layout is the cache-friendly "split" design used by Parquet and
// modern LSM engines: the filter is an array of 256-bit blocks (eight u32
// words); a key hashes to ONE block and sets/tests eight bits inside it,
// one per word, so a probe touches a single cache line instead of k
// scattered ones. False-positive rate at the default 10 bits per key is
// ~1%; there are never false negatives.
//
// Segments build one filter over every key they contain (duplicates are
// harmless) and store the finished byte block in their format-v2 footer
// (see segment.h and docs/storage_format.md). `SegmentReader` keeps it in
// memory and answers `MayContainKey` probes without page I/O, which is
// what lets point lookups skip whole runs — `BufferPool::ProbeFilter`
// turns a negative probe into a skipped page fetch that never allocates a
// frame.

#ifndef ONION_STORAGE_FILTER_BLOCK_H_
#define ONION_STORAGE_FILTER_BLOCK_H_

#include <cstdint>
#include <vector>

#include "sfc/types.h"

namespace onion::storage {

/// Bytes per filter block (eight u32 words, one cache line on most
/// hardware). Finished filters are always a multiple of this size.
inline constexpr size_t kBloomBlockBytes = 32;

/// Accumulates keys, then emits the finished filter bytes. Sizing needs
/// the final key count, so keys are buffered as hashes until Finish().
class BloomFilterBuilder {
 public:
  /// `bits_per_key` sizes the filter; 0 disables it (Finish() returns an
  /// empty vector, which probes as "maybe present").
  explicit BloomFilterBuilder(uint32_t bits_per_key);

  void AddKey(Key key);

  /// The finished filter: empty when disabled or no keys were added,
  /// otherwise a multiple of kBloomBlockBytes. Releases the buffered
  /// hashes (8 B per key); the builder must not be used afterwards.
  std::vector<uint8_t> Finish();

 private:
  uint32_t bits_per_key_;
  std::vector<uint64_t> hashes_;
};

/// Probes a finished filter. An empty filter (data == nullptr or
/// size == 0) always returns true — absence of a filter must never hide
/// data. Never returns false for a key that was added.
bool BloomMayContain(const uint8_t* data, size_t size, Key key);

}  // namespace onion::storage

#endif  // ONION_STORAGE_FILTER_BLOCK_H_
