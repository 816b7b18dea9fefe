// Persistent sorted segments: the on-disk unit of the storage engine.
//
// A segment file holds one immutable sorted run of (key, payload, seq)
// entries, packed into pages, so the clustering-number arithmetic of the
// paper carries over unchanged — one key range of a decomposed query is
// one contiguous byte range of the file, and entering it costs one seek.
//
// Format version 3 (the version SegmentWriter emits; byte-level spec in
// docs/storage_format.md):
//
//   offset 0   header, 96 bytes: magic "OSFCSEG1", u32 version (3), page
//              geometry, key bounds, the page codec id
//              (storage/page_codec.h), filter geometry, and a checksum.
//   offset 96  pages, back to back: page i holds the entries
//              [i*entries_per_page, ...) encoded by the segment's codec —
//              each entry with its packed seq (MVCC version stamp +
//              tombstone flag) — followed by a u32 CRC32C block checksum
//              over the encoded page bytes. Variable length, located
//              through the page index.
//   footer     three blocks, in order:
//                filter block  — split-block bloom filter over every key
//                                (storage/filter_block.h); may be absent.
//                zone maps     — per page, per dimension, the (lo, hi)
//                                cell-coordinate bounds of the page's
//                                entries; may be absent (written when the
//                                writer was given a curve).
//                page index    — per page: byte offset, encoded length,
//                                first key, last key.
//
// The filter block and zone maps are loaded into memory on open and
// answer MayContainKey / PageMayIntersect probes without page I/O: a
// negative bloom probe skips a whole run for a point lookup, a negative
// zone-map probe skips one page of a box query. Both are conservative —
// false never lies.
//
// A build opens only the format version it writes: any other version is
// rejected with Status::InvalidArgument naming the version. A page whose
// CRC32C or encoding does not validate fails ReadPage with
// Status::Corruption.
//
// SegmentWriter streams sorted entries to a new file; SegmentReader opens
// and validates an existing file and serves pages through the PageSource
// interface with lock-free positioned reads (storage/file.h).

#ifndef ONION_STORAGE_SEGMENT_H_
#define ONION_STORAGE_SEGMENT_H_

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "storage/file.h"
#include "storage/filter_block.h"
#include "storage/page_codec.h"
#include "storage/page_source.h"

namespace onion {
class SpaceFillingCurve;
}  // namespace onion

namespace onion::storage {

/// How a SegmentWriter encodes pages and filters.
struct SegmentWriterOptions {
  uint32_t entries_per_page = 256;
  PageCodec codec = PageCodec::kRaw;
  /// Bloom filter budget; 0 writes no filter block.
  uint32_t filter_bits_per_key = 10;
  /// When set, per-page zone maps (cell bounding boxes) are computed by
  /// mapping every key back through this curve; must outlive the writer.
  /// When null, no zone maps are written.
  const SpaceFillingCurve* curve = nullptr;
};

/// Streams a sorted run of entries into a new segment file. Usage:
/// construct, Add() entries in nondecreasing key order, Finish().
/// If Finish() is never reached (error or abandonment) the partial file is
/// removed by the destructor.
class SegmentWriter {
 public:
  /// Raw codec, default filter budget, no zone maps — the legacy
  /// convenience constructor.
  SegmentWriter(std::string path, uint32_t entries_per_page);
  SegmentWriter(std::string path, const SegmentWriterOptions& options);
  ~SegmentWriter();

  SegmentWriter(const SegmentWriter&) = delete;
  SegmentWriter& operator=(const SegmentWriter&) = delete;

  /// Appends one entry. Keys must be nondecreasing (checked). `seq` is the
  /// packed MVCC stamp (page_source.h PackSeq); 0 — the default — is the
  /// pre-versioning epoch.
  Status Add(Key key, uint64_t payload, uint64_t seq = 0);

  /// Flushes the last page, writes the footer blocks and header, fsyncs
  /// the file AND its directory, and closes the file. Only after Finish()
  /// returns OK may the segment be referenced by a MANIFEST — the sync
  /// ordering guarantees a crash can never leave a manifest pointing at a
  /// torn or unlinked segment. No further Add() calls are allowed.
  /// Releases the writer's buffers (page buffer, page metadata, bloom
  /// hashes) as soon as the footer is built, so a finished writer holds
  /// only what num_entries() and path() return.
  Status Finish();

  uint64_t num_entries() const { return num_entries_; }
  const std::string& path() const { return path_; }

 private:
  struct PageMeta {
    uint64_t offset = 0;
    uint64_t bytes = 0;
    Key first_key = 0;
    Key last_key = 0;
    std::array<Coord, kMaxDims> cell_lo = {};
    std::array<Coord, kMaxDims> cell_hi = {};
  };

  Status WritePage();  // encodes page_buf_ and records its metadata

  std::string path_;
  SegmentWriterOptions options_;
  File file_;
  Status status_;  // first error encountered, sticky
  std::vector<Entry> page_buf_;
  std::vector<PageMeta> pages_;
  BloomFilterBuilder bloom_;
  uint64_t next_offset_ = 0;  // where the next page's bytes land
  uint64_t num_entries_ = 0;
  Key min_key_ = 0;
  Key max_key_ = 0;
  Key last_key_ = 0;
  bool finished_ = false;
};

/// Read side of a segment file. Validates the header and footer blocks on
/// open, keeps the page index, filter, and zone maps in memory, and reads
/// pages with positioned file I/O on demand. Every method is safe to call
/// from multiple threads: page reads are positioned reads on an immutable
/// file and take no lock; all other accessors touch immutable state only.
class SegmentReader final : public PageSource {
 public:
  static Result<std::unique_ptr<SegmentReader>> Open(std::string path);
  ~SegmentReader() override;

  SegmentReader(const SegmentReader&) = delete;
  SegmentReader& operator=(const SegmentReader&) = delete;

  uint64_t num_entries() const override { return num_entries_; }
  uint32_t entries_per_page() const override { return entries_per_page_; }
  Key first_key(uint64_t page) const override {
    return pages_[page].first_key;
  }
  Key last_key(uint64_t page) const override { return pages_[page].last_key; }
  /// Reads and decodes one page; Status::Corruption when the page's
  /// CRC32C or its encoding does not validate.
  Status ReadPage(uint64_t page, std::vector<Entry>* out) const override;

  /// Batched read: one positioned vectored transfer (File::ReadvAt)
  /// scatters the whole contiguous run (segment pages are laid
  /// back-to-back, which Open verifies) straight into per-page buffers,
  /// then per-page CRC + decode. Per-page validation failures leave empty
  /// slots per the PageSource contract; only the transfer itself can fail.
  Status ReadPages(uint64_t first_page, uint64_t count,
                   std::vector<std::vector<Entry>>* out) const override;

  /// Encoded size of page `page` on disk — what ReadPage really transfers.
  uint64_t PageDiskBytes(uint64_t page) const override {
    ONION_CHECK_MSG(page < num_pages(), "page out of range");
    return pages_[page].bytes;
  }
  /// Bloom probe; always true for segments without a filter block.
  bool MayContainKey(Key key) const override {
    return BloomMayContain(filter_.data(), filter_.size(), key);
  }
  /// Zone-map probe; always true for segments without zone maps or when
  /// the box dimensionality does not match.
  bool PageMayIntersect(uint64_t page, const Box& box) const override;

  /// Smallest / largest key stored (only meaningful when num_entries() > 0).
  Key min_key() const { return min_key_; }
  Key max_key() const { return max_key_; }
  const std::string& path() const { return path_; }
  /// Codec its pages are encoded with.
  PageCodec codec() const { return codec_; }
  /// Bytes of the in-file bloom filter block (0 when absent).
  uint64_t filter_bytes() const { return filter_.size(); }
  /// Total bytes of the file as recorded by the header geometry.
  uint64_t file_bytes() const { return file_bytes_; }

 private:
  struct PageMeta {
    uint64_t offset = 0;
    uint64_t bytes = 0;
    Key first_key = 0;
    Key last_key = 0;
  };

  SegmentReader(std::string path, File file);
  /// Validates the CRC32C of one page's encoded bytes, already in memory,
  /// and decodes them — the shared tail of ReadPage and ReadPages.
  Status DecodePageBytes(uint64_t page, const uint8_t* data, size_t size,
                         std::vector<Entry>* out) const;
  /// Parses the header, then loads the page index, filter and zone maps.
  Status Load(const uint8_t* header);
  /// Open-time read of one footer block; running out of file means the
  /// segment is truncated (InvalidArgument naming `what`).
  Status ReadBlock(uint64_t offset, void* data, size_t n,
                   const char* what) const;

  std::string path_;
  File file_;
  PageCodec codec_ = PageCodec::kRaw;
  uint32_t entries_per_page_ = 1;
  uint64_t num_entries_ = 0;
  Key min_key_ = 0;
  Key max_key_ = 0;
  uint64_t file_bytes_ = 0;
  uint32_t zone_dims_ = 0;
  std::vector<PageMeta> pages_;
  std::vector<uint8_t> filter_;
  /// num_pages * zone_dims_ * 2 coords: page-major, per dimension (lo, hi).
  std::vector<Coord> zones_;
};

}  // namespace onion::storage

#endif  // ONION_STORAGE_SEGMENT_H_
