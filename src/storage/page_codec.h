// Pluggable page codecs for segment pages.
//
// A codec maps one page of sorted (key, payload, seq) entries to a byte
// string
// and back. Segments record their codec in the header, so readers always
// decode with the codec the file was written with, and every layer above
// the segment (buffer pool, cursors, compaction) only ever sees decoded
// entries — the codec is invisible outside segment.{h,cc} except as a
// table option and an on-disk byte count.
//
//   kRaw          count * 24 bytes — u64 key, u64 payload, u64 packed seq
//                 (see page_source.h) per entry, little-endian, no padding.
//   kDeltaVarint  exploits the sort order: the first entry is
//                 varint(key) varint(payload) varint(seq); every following
//                 entry is varint(key - previous key) varint(payload)
//                 varint(seq). Dense key runs
//                 (exactly what a well-clustered curve produces) shrink
//                 to a few bytes per entry.
//   kBitpack      frame-of-reference + bit packing: per page, each of the
//                 three columns (keys, payloads, seqs) stores its minimum
//                 as a u64 base followed by all values as base-relative
//                 deltas packed at the column's exact bit width. Column
//                 widths are data-driven per page, so a clustered key run
//                 costs width(bits of the page's key span) bits per key
//                 and constant columns cost zero bits. Byte layout in
//                 docs/storage_format.md.
//
// Varints are LEB128: 7 payload bits per byte, high bit set on every byte
// but the last, at most 10 bytes for a u64.

#ifndef ONION_STORAGE_PAGE_CODEC_H_
#define ONION_STORAGE_PAGE_CODEC_H_

#include <cstdint>
#include <string>
#include <vector>

#include "storage/page_source.h"

namespace onion::storage {

/// On-disk page encoding of a segment. The numeric values are part of
/// the file format (header field `codec_id`) — never renumber.
enum class PageCodec : uint32_t {
  kRaw = 0,
  kDeltaVarint = 1,
  kBitpack = 2,
};

/// True for codec ids this build can decode.
bool PageCodecValid(uint32_t id);

/// Stable lowercase name, used by the table MANIFEST ("raw",
/// "delta_varint", "bitpack").
const char* PageCodecName(PageCodec codec);

/// Inverse of PageCodecName; returns false for unknown names.
bool ParsePageCodec(const std::string& name, PageCodec* out);

/// Appends the encoding of `entries` (sorted by key — checked for
/// kDeltaVarint and kBitpack) to `*out`.
void EncodePage(PageCodec codec, const std::vector<Entry>& entries,
                std::vector<uint8_t>* out);

/// Decodes exactly `count` entries from `[data, data + size)` into `*out`
/// (replacing its contents). Returns false on malformed input: a truncated
/// buffer, a varint overflow, or bytes left over after the last entry.
bool DecodePage(PageCodec codec, const uint8_t* data, size_t size,
                uint64_t count, std::vector<Entry>* out);

}  // namespace onion::storage

#endif  // ONION_STORAGE_PAGE_CODEC_H_
