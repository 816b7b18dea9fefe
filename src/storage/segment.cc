#include "storage/segment.h"

#include <cstring>

#include "common/macros.h"
#include "sfc/curve.h"
#include "storage/codec.h"
#include "storage/crc32c.h"

namespace onion::storage {
namespace {

constexpr char kMagic[8] = {'O', 'S', 'F', 'C', 'S', 'E', 'G', '1'};
constexpr uint32_t kFormatVersion = 3;  // the only version this build reads
constexpr uint64_t kHeaderBytes = 96;
constexpr uint64_t kPageIndexRecordBytes = 32;
/// Trailing CRC32C of every page's encoded bytes.
constexpr uint64_t kPageCrcBytes = 4;
/// Bytes one page contributes to the zone-map block: (lo, hi) u32 per dim.
constexpr uint64_t kZoneBytesPerDim = 8;

uint64_t HeaderChecksum(uint32_t version, uint32_t entries_per_page,
                        uint64_t num_entries, uint64_t num_pages,
                        uint64_t min_key, uint64_t max_key,
                        uint64_t index_offset, uint32_t codec_id,
                        uint32_t filter_bits, uint64_t filter_offset,
                        uint64_t filter_bytes, uint32_t zone_dims) {
  // xor-fold with distinct rotations so field swaps change the sum.
  uint64_t sum = 0x0410105fc5e671ULL;  // salt
  sum ^= Rotl64(static_cast<uint64_t>(version) << 32 | entries_per_page, 1);
  sum ^= Rotl64(num_entries, 7);
  sum ^= Rotl64(num_pages, 13);
  sum ^= Rotl64(min_key, 19);
  sum ^= Rotl64(max_key, 29);
  sum ^= Rotl64(index_offset, 37);
  sum ^= Rotl64(static_cast<uint64_t>(codec_id) << 32 | filter_bits, 43);
  sum ^= Rotl64(filter_offset, 47);
  sum ^= Rotl64(filter_bytes, 53);
  sum ^= Rotl64(zone_dims, 59);
  return sum;
}

Status CorruptError(const std::string& path, const char* what) {
  return Status::InvalidArgument(std::string(what) + ": " + path);
}

}  // namespace

// ---------------------------------------------------------------------------
// SegmentWriter

SegmentWriter::SegmentWriter(std::string path, uint32_t entries_per_page)
    : SegmentWriter(std::move(path),
                    SegmentWriterOptions{entries_per_page, PageCodec::kRaw,
                                         /*filter_bits_per_key=*/10,
                                         /*curve=*/nullptr}) {}

SegmentWriter::SegmentWriter(std::string path,
                             const SegmentWriterOptions& options)
    : path_(std::move(path)),
      options_(options),
      bloom_(options.filter_bits_per_key) {
  ONION_CHECK_MSG(options_.entries_per_page >= 1,
                  "page size must be positive");
  ONION_CHECK_MSG(PageCodecValid(static_cast<uint32_t>(options_.codec)),
                  "unknown page codec");
  auto file = File::Create(path_);
  if (!file.ok()) {
    status_ = file.status();
    return;
  }
  file_ = std::move(file).value();
  // Header placeholder, overwritten by Finish().
  const uint8_t zeros[kHeaderBytes] = {};
  status_ = file_.Append(zeros, kHeaderBytes);
  next_offset_ = kHeaderBytes;
  page_buf_.reserve(options_.entries_per_page);
}

SegmentWriter::~SegmentWriter() {
  file_.Close();
  if (!finished_) std::remove(path_.c_str());
}

Status SegmentWriter::WritePage() {
  std::vector<uint8_t> bytes;
  EncodePage(options_.codec, page_buf_, &bytes);
  // Per-page block checksum: decoders verify it before touching the
  // encoding, so a flipped bit surfaces as Status::Corruption instead of
  // silently wrong entries.
  const uint32_t crc = Crc32c(bytes.data(), bytes.size());
  bytes.resize(bytes.size() + kPageCrcBytes);
  PutU32(bytes.data() + bytes.size() - kPageCrcBytes, crc);
  const Status status = file_.Append(bytes.data(), bytes.size());
  if (!status.ok()) return status;
  PageMeta meta;
  meta.offset = next_offset_;
  meta.bytes = bytes.size();
  meta.first_key = page_buf_.front().key;
  meta.last_key = page_buf_.back().key;
  if (options_.curve != nullptr) {
    const int dims = options_.curve->universe().dims();
    for (size_t i = 0; i < page_buf_.size(); ++i) {
      const Cell cell = options_.curve->CellAt(page_buf_[i].key);
      for (int d = 0; d < dims; ++d) {
        if (i == 0 || cell[d] < meta.cell_lo[static_cast<size_t>(d)]) {
          meta.cell_lo[static_cast<size_t>(d)] = cell[d];
        }
        if (i == 0 || cell[d] > meta.cell_hi[static_cast<size_t>(d)]) {
          meta.cell_hi[static_cast<size_t>(d)] = cell[d];
        }
      }
    }
  }
  next_offset_ += meta.bytes;
  pages_.push_back(meta);
  page_buf_.clear();
  return Status::OK();
}

Status SegmentWriter::Add(Key key, uint64_t payload, uint64_t seq) {
  if (!status_.ok()) return status_;
  ONION_CHECK_MSG(!finished_, "Add after Finish");
  ONION_CHECK_MSG(num_entries_ == 0 || key >= last_key_,
                  "segment entries must be added in sorted key order");
  if (num_entries_ == 0) min_key_ = key;
  max_key_ = key;
  last_key_ = key;
  ++num_entries_;
  bloom_.AddKey(key);
  page_buf_.push_back(Entry{key, payload, seq});
  if (page_buf_.size() == options_.entries_per_page) status_ = WritePage();
  return status_;
}

Status SegmentWriter::Finish() {
  if (!status_.ok()) return status_;
  ONION_CHECK_MSG(!finished_, "Finish called twice");
  if (!page_buf_.empty()) {
    status_ = WritePage();
    if (!status_.ok()) return status_;
  }
  const uint64_t num_pages = pages_.size();

  // The footer, appended in one write: the bloom filter (may be empty),
  // the zone maps (page-major, (lo, hi) u32 per dimension), the page index.
  std::vector<uint8_t> footer = bloom_.Finish();
  const uint64_t filter_bytes = footer.size();
  const uint64_t filter_offset = filter_bytes == 0 ? 0 : next_offset_;
  const uint32_t zone_dims =
      options_.curve != nullptr && num_pages > 0
          ? static_cast<uint32_t>(options_.curve->universe().dims())
          : 0;
  const uint64_t zone_bytes = num_pages * zone_dims * kZoneBytesPerDim;
  const uint64_t index_offset = next_offset_ + filter_bytes + zone_bytes;
  footer.resize(filter_bytes + zone_bytes + num_pages * kPageIndexRecordBytes);
  for (uint64_t i = 0; i < num_pages; ++i) {
    uint8_t* zone =
        footer.data() + filter_bytes + i * zone_dims * kZoneBytesPerDim;
    for (uint32_t d = 0; d < zone_dims; ++d) {
      PutU32(zone + d * 8, pages_[i].cell_lo[d]);
      PutU32(zone + d * 8 + 4, pages_[i].cell_hi[d]);
    }
    uint8_t* record =
        footer.data() + filter_bytes + zone_bytes + i * kPageIndexRecordBytes;
    PutU64(record, pages_[i].offset);
    PutU64(record + 8, pages_[i].bytes);
    PutU64(record + 16, pages_[i].first_key);
    PutU64(record + 24, pages_[i].last_key);
  }
  // The writer keeps only what its accessors return: the page buffer and
  // page metadata go now, not when the owner destroys the writer
  // (compaction keeps every output writer until its merge ends).
  std::vector<Entry>().swap(page_buf_);
  std::vector<PageMeta>().swap(pages_);
  status_ = file_.Append(footer.data(), footer.size());
  if (!status_.ok()) return status_;

  const auto codec_id = static_cast<uint32_t>(options_.codec);
  uint8_t header[kHeaderBytes] = {};
  std::memcpy(header, kMagic, sizeof(kMagic));
  PutU32(header + 8, kFormatVersion);
  PutU32(header + 12, options_.entries_per_page);
  PutU64(header + 16, num_entries_);
  PutU64(header + 24, num_pages);
  PutU64(header + 32, min_key_);
  PutU64(header + 40, max_key_);
  PutU64(header + 48, index_offset);
  PutU32(header + 56, codec_id);
  PutU32(header + 60, options_.filter_bits_per_key);
  PutU64(header + 64, filter_offset);
  PutU64(header + 72, filter_bytes);
  PutU32(header + 80, zone_dims);
  PutU32(header + 84, 0);  // reserved
  PutU64(header + 88,
         HeaderChecksum(kFormatVersion, options_.entries_per_page,
                        num_entries_, num_pages, min_key_, max_key_,
                        index_offset, codec_id, options_.filter_bits_per_key,
                        filter_offset, filter_bytes, zone_dims));
  status_ = file_.WriteAt(0, header, kHeaderBytes);
  if (!status_.ok()) return status_;
  // Durability before publication: fsync the data, then the directory
  // entry, BEFORE the caller may reference this segment from a MANIFEST.
  // Without the second sync a crash could durably install a manifest whose
  // directory never durably contained the segment it names.
  status_ = file_.Sync();
  if (!status_.ok()) return status_;
  status_ = SyncDir(DirOf(path_));
  if (!status_.ok()) return status_;
  file_.Close();
  finished_ = true;
  return Status::OK();
}

// ---------------------------------------------------------------------------
// SegmentReader

SegmentReader::SegmentReader(std::string path, File file)
    : path_(std::move(path)), file_(std::move(file)) {}

SegmentReader::~SegmentReader() = default;

Result<std::unique_ptr<SegmentReader>> SegmentReader::Open(std::string path) {
  auto file = File::OpenForRead(path);
  if (!file.ok()) return file.status();
  std::unique_ptr<SegmentReader> reader(
      new SegmentReader(std::move(path), std::move(file).value()));
  uint8_t header[kHeaderBytes];
  const Status status =
      reader->ReadBlock(0, header, kHeaderBytes, "segment too short");
  if (!status.ok()) return status;
  if (std::memcmp(header, kMagic, sizeof(kMagic)) != 0) {
    return CorruptError(reader->path_, "bad segment magic");
  }
  const uint32_t version = GetU32(header + 8);
  if (version != kFormatVersion) {
    return Status::InvalidArgument(
        "unsupported segment format version " + std::to_string(version) +
        " (this build reads version " + std::to_string(kFormatVersion) +
        " only): " + reader->path_);
  }
  const Status loaded = reader->Load(header);
  if (!loaded.ok()) return loaded;
  return reader;
}

Status SegmentReader::ReadBlock(uint64_t offset, void* data, size_t n,
                                const char* what) const {
  const Status status = file_.ReadAt(offset, data, n);
  if (status.code() == StatusCode::kCorruption) {
    return CorruptError(path_, what);
  }
  return status;
}

Status SegmentReader::Load(const uint8_t* header) {
  entries_per_page_ = GetU32(header + 12);
  num_entries_ = GetU64(header + 16);
  const uint64_t num_pages = GetU64(header + 24);
  min_key_ = GetU64(header + 32);
  max_key_ = GetU64(header + 40);
  const uint64_t index_offset = GetU64(header + 48);
  const uint32_t codec_id = GetU32(header + 56);
  const uint32_t filter_bits = GetU32(header + 60);
  const uint64_t filter_offset = GetU64(header + 64);
  const uint64_t filter_bytes = GetU64(header + 72);
  zone_dims_ = GetU32(header + 80);
  const uint64_t checksum = GetU64(header + 88);
  if (entries_per_page_ < 1) {
    return CorruptError(path_, "segment page size is zero");
  }
  if (!PageCodecValid(codec_id)) {
    return Status::InvalidArgument("unknown segment page codec id " +
                                   std::to_string(codec_id) + ": " + path_);
  }
  codec_ = static_cast<PageCodec>(codec_id);
  if (checksum != HeaderChecksum(kFormatVersion, entries_per_page_,
                                 num_entries_, num_pages, min_key_, max_key_,
                                 index_offset, codec_id, filter_bits,
                                 filter_offset, filter_bytes, zone_dims_)) {
    return CorruptError(path_, "segment header checksum mismatch");
  }
  const uint64_t expected_pages =
      (num_entries_ + entries_per_page_ - 1) / entries_per_page_;
  if (num_pages != expected_pages || zone_dims_ > kMaxDims ||
      (filter_bytes == 0) != (filter_offset == 0) ||
      filter_bytes % kBloomBlockBytes != 0) {
    return CorruptError(path_, "segment geometry corrupt");
  }

  std::vector<uint8_t> index_bytes(num_pages * kPageIndexRecordBytes);
  Status status = ReadBlock(index_offset, index_bytes.data(),
                            index_bytes.size(), "segment page index truncated");
  if (!status.ok()) return status;
  pages_.reserve(num_pages);
  uint64_t expected_offset = kHeaderBytes;
  for (uint64_t i = 0; i < num_pages; ++i) {
    const uint8_t* record = &index_bytes[i * kPageIndexRecordBytes];
    PageMeta meta;
    meta.offset = GetU64(record);
    meta.bytes = GetU64(record + 8);
    meta.first_key = GetU64(record + 16);
    meta.last_key = GetU64(record + 24);
    // Pages are written back to back, so the index offsets are fully
    // determined — any deviation is corruption.
    if (meta.offset != expected_offset || meta.bytes == 0) {
      return CorruptError(path_, "segment page index not contiguous");
    }
    expected_offset += meta.bytes;
    if (meta.first_key > meta.last_key ||
        (i > 0 && meta.first_key < pages_.back().last_key)) {
      return CorruptError(path_, "segment fence index not sorted");
    }
    pages_.push_back(meta);
  }
  const uint64_t data_end = expected_offset;
  if (filter_bytes > 0 && filter_offset != data_end) {
    return CorruptError(path_, "segment filter block misplaced");
  }
  const uint64_t zone_offset = data_end + filter_bytes;
  const uint64_t zone_bytes = num_pages * zone_dims_ * kZoneBytesPerDim;
  if (index_offset != zone_offset + zone_bytes) {
    return CorruptError(path_, "segment footer geometry corrupt");
  }

  filter_.resize(filter_bytes);
  status = ReadBlock(filter_offset, filter_.data(), filter_.size(),
                     "segment filter block truncated");
  if (!status.ok()) return status;
  if (zone_bytes > 0) {
    std::vector<uint8_t> raw(zone_bytes);
    status = ReadBlock(zone_offset, raw.data(), raw.size(),
                       "segment zone maps truncated");
    if (!status.ok()) return status;
    zones_.resize(num_pages * zone_dims_ * 2);
    for (size_t i = 0; i < zones_.size(); ++i) {
      zones_[i] = GetU32(&raw[i * 4]);
    }
  }
  file_bytes_ = index_offset + num_pages * kPageIndexRecordBytes;
  return Status::OK();
}

Status SegmentReader::ReadPage(uint64_t page, std::vector<Entry>* out) const {
  ONION_CHECK_MSG(page < num_pages(), "page out of range");
  const PageMeta& meta = pages_[page];
  std::vector<uint8_t> bytes(meta.bytes);
  const Status status = file_.ReadAt(meta.offset, bytes.data(), bytes.size());
  if (!status.ok()) return status;
  return DecodePageBytes(page, bytes.data(), bytes.size(), out);
}

Status SegmentReader::DecodePageBytes(uint64_t page, const uint8_t* data,
                                      size_t size,
                                      std::vector<Entry>* out) const {
  // Every page ends in a CRC32C over its encoded bytes; verify before
  // decoding so a flipped bit can never produce silently wrong entries.
  if (size < kPageCrcBytes) {
    return Status::Corruption("segment page shorter than its checksum: " +
                              path_);
  }
  const size_t encoded_size = size - kPageCrcBytes;
  if (GetU32(data + encoded_size) != Crc32c(data, encoded_size)) {
    return Status::Corruption("segment page checksum mismatch: page " +
                              std::to_string(page) + " of " + path_);
  }
  const uint64_t count = PageEnd(page) - PageBegin(page);
  if (!DecodePage(codec_, data, encoded_size, count, out)) {
    return Status::Corruption("segment page decode failed: page " +
                              std::to_string(page) + " of " + path_);
  }
  return Status::OK();
}

Status SegmentReader::ReadPages(uint64_t first_page, uint64_t count,
                                std::vector<std::vector<Entry>>* out) const {
  ONION_CHECK_MSG(count > 0 && first_page < num_pages() &&
                      count <= num_pages() - first_page,
                  "page run out of range");
  // Open verified that pages lie back to back, so the run is one
  // contiguous byte span: one positioned vectored read scatters it
  // straight into one buffer per page.
  std::vector<std::vector<uint8_t>> buffers(count);
  std::vector<struct iovec> iov(count);
  for (uint64_t i = 0; i < count; ++i) {
    buffers[i].resize(pages_[first_page + i].bytes);
    iov[i].iov_base = buffers[i].data();
    iov[i].iov_len = buffers[i].size();
  }
  const Status status =
      file_.ReadvAt(pages_[first_page].offset, iov.data(), iov.size());
  if (!status.ok()) return status;
  out->clear();
  out->resize(count);
  for (uint64_t i = 0; i < count; ++i) {
    // Per the PageSource contract a page that fails validation leaves an
    // empty slot; the demanding caller re-reads it alone for the error.
    if (!DecodePageBytes(first_page + i, buffers[i].data(), buffers[i].size(),
                         &(*out)[i])
             .ok()) {
      (*out)[i].clear();
    }
  }
  return Status::OK();
}

bool SegmentReader::PageMayIntersect(uint64_t page, const Box& box) const {
  ONION_CHECK_MSG(page < num_pages(), "page out of range");
  if (zone_dims_ == 0) return true;
  if (box.dims() != static_cast<int>(zone_dims_)) return true;
  const Coord* record = &zones_[page * zone_dims_ * 2];
  for (uint32_t d = 0; d < zone_dims_; ++d) {
    const int axis = static_cast<int>(d);
    if (record[2 * d] > box.hi[axis] || record[2 * d + 1] < box.lo[axis]) {
      return false;
    }
  }
  return true;
}

}  // namespace onion::storage
