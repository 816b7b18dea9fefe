#include "net/protocol.h"

#include <cstring>

#include "common/macros.h"
#include "storage/codec.h"
#include "storage/crc32c.h"

namespace onion::net {

using storage::Crc32c;
using storage::GetU32;
using storage::GetU64;

const char* MessageTypeName(uint8_t type) {
  switch (static_cast<MessageType>(type & ~kResponseBit)) {
    case MessageType::kPut: return "put";
    case MessageType::kDelete: return "delete";
    case MessageType::kWrite: return "write";
    case MessageType::kGet: return "get";
    case MessageType::kOpenBoxCursor: return "open_box_cursor";
    case MessageType::kCursorNext: return "cursor_next";
    case MessageType::kCursorClose: return "cursor_close";
    case MessageType::kOpenIndexCursor: return "open_index_cursor";
    case MessageType::kSnapshotAcquire: return "snapshot_acquire";
    case MessageType::kSnapshotRelease: return "snapshot_release";
    case MessageType::kDumpMetrics: return "dump_metrics";
    case MessageType::kPing: return "ping";
  }
  return "unknown";
}

bool IsKnownRequestType(uint8_t type) {
  const uint8_t raw = type & ~kResponseBit;
  return raw >= static_cast<uint8_t>(MessageType::kPut) &&
         raw <= static_cast<uint8_t>(MessageType::kPing);
}

void AppendU8(std::vector<uint8_t>* out, uint8_t v) { out->push_back(v); }

void AppendU16(std::vector<uint8_t>* out, uint16_t v) {
  out->push_back(static_cast<uint8_t>(v));
  out->push_back(static_cast<uint8_t>(v >> 8));
}

void AppendU32(std::vector<uint8_t>* out, uint32_t v) {
  const size_t at = out->size();
  out->resize(at + 4);
  storage::PutU32(out->data() + at, v);
}

void AppendU64(std::vector<uint8_t>* out, uint64_t v) {
  const size_t at = out->size();
  out->resize(at + 8);
  storage::PutU64(out->data() + at, v);
}

void AppendString(std::vector<uint8_t>* out, const std::string& s) {
  ONION_CHECK_MSG(s.size() <= UINT16_MAX, "string field over 64 KiB");
  AppendU16(out, static_cast<uint16_t>(s.size()));
  out->insert(out->end(), s.begin(), s.end());
}

void AppendCell(std::vector<uint8_t>* out, const Cell& cell) {
  ONION_CHECK_MSG(cell.dims >= 1 && cell.dims <= kMaxDims,
                  "cell dims out of range");
  AppendU8(out, static_cast<uint8_t>(cell.dims));
  for (int d = 0; d < cell.dims; ++d) AppendU32(out, cell[d]);
}

void AppendBox(std::vector<uint8_t>* out, const Box& box) {
  AppendCell(out, box.lo);
  AppendCell(out, box.hi);
}

size_t BeginFrame(std::vector<uint8_t>* out, uint64_t request_id,
                  uint8_t type) {
  const size_t start = out->size();
  AppendU32(out, 0);  // length and CRC placeholders, patched by FinishFrame
  AppendU32(out, 0);
  AppendU64(out, request_id);
  AppendU8(out, type);
  return start;
}

void FinishFrame(std::vector<uint8_t>* out, size_t start) {
  const size_t body = out->size() - start - kFrameHeaderBytes;
  ONION_CHECK_MSG(body <= UINT32_MAX, "frame body over 4 GiB");
  uint8_t* frame = out->data() + start;
  storage::PutU32(frame, static_cast<uint32_t>(body));
  storage::PutU32(frame + 4, Crc32c(frame + kFrameHeaderBytes, body));
}

std::vector<uint8_t> EncodeFrame(uint64_t request_id, uint8_t type,
                                 const std::vector<uint8_t>& payload) {
  std::vector<uint8_t> out;
  out.reserve(kFrameHeaderBytes + kMinFrameBody + payload.size());
  BeginFrame(&out, request_id, type);
  out.insert(out.end(), payload.begin(), payload.end());
  FinishFrame(&out, 0);
  return out;
}

void AppendStatusHeader(std::vector<uint8_t>* out, const Status& status) {
  AppendU8(out, static_cast<uint8_t>(status.code()));
  AppendString(out, status.message());
}

namespace {

/// Wire bytes of one kCursorNext entry: u8 dims + dims * u32 + u64 + u64.
size_t EntryBytes(int dims) { return 1 + 4 * static_cast<size_t>(dims) + 16; }

}  // namespace

void AppendCursorChunk(std::vector<uint8_t>* out, Cursor* cursor,
                       uint32_t max_entries) {
  const size_t payload_start = out->size();
  AppendStatusHeader(out, Status::OK());
  const size_t flags_at = out->size();
  AppendU8(out, 0);   // flags and count, patched once the chunk is full
  AppendU32(out, 0);
  if (cursor->Valid()) {
    out->reserve(out->size() +
                 max_entries * EntryBytes(cursor->entry().cell.dims));
  }
  // Each entry is written with one resize rather than AppendCell's and
  // AppendU64's one per field; the bytes are the same (net_test compares
  // them), and this loop runs once per delivered row.
  uint32_t count = 0;
  for (; cursor->Valid() && count < max_entries; cursor->Next(), ++count) {
    const SpatialEntry& entry = cursor->entry();
    const int dims = entry.cell.dims;
    ONION_CHECK_MSG(dims >= 1 && dims <= kMaxDims, "cell dims out of range");
    const size_t at = out->size();
    out->resize(at + EntryBytes(dims));
    uint8_t* p = out->data() + at;
    *p++ = static_cast<uint8_t>(dims);
    for (int d = 0; d < dims; ++d, p += 4) storage::PutU32(p, entry.cell[d]);
    storage::PutU64(p, entry.payload);
    storage::PutU64(p + 8, entry.seq);
  }
  if (!cursor->Valid() && !cursor->status().ok()) {
    out->resize(payload_start);
    AppendStatusHeader(out, cursor->status());
    return;
  }
  uint8_t flags = 0;
  if (!cursor->Valid()) {
    flags |= kCursorDone;
    if (cursor->hit_read_budget()) flags |= kCursorHitReadBudget;
  }
  (*out)[flags_at] = flags;
  storage::PutU32(out->data() + flags_at + 1, count);
}

bool PayloadReader::ReadU8(uint8_t* v) {
  if (!ok_ || size_ - at_ < 1) return ok_ = false;
  *v = data_[at_++];
  return true;
}

bool PayloadReader::ReadU16(uint16_t* v) {
  if (!ok_ || size_ - at_ < 2) return ok_ = false;
  *v = static_cast<uint16_t>(data_[at_] | (data_[at_ + 1] << 8));
  at_ += 2;
  return true;
}

bool PayloadReader::ReadU32(uint32_t* v) {
  if (!ok_ || size_ - at_ < 4) return ok_ = false;
  *v = GetU32(data_ + at_);
  at_ += 4;
  return true;
}

bool PayloadReader::ReadU64(uint64_t* v) {
  if (!ok_ || size_ - at_ < 8) return ok_ = false;
  *v = GetU64(data_ + at_);
  at_ += 8;
  return true;
}

bool PayloadReader::ReadString(std::string* s) {
  uint16_t len = 0;
  if (!ReadU16(&len)) return false;
  if (size_ - at_ < len) return ok_ = false;
  s->assign(reinterpret_cast<const char*>(data_ + at_), len);
  at_ += len;
  return true;
}

bool PayloadReader::ReadCell(Cell* cell) {
  uint8_t dims = 0;
  if (!ReadU8(&dims)) return false;
  if (dims < 1 || dims > kMaxDims) return ok_ = false;
  *cell = Cell{};
  cell->dims = dims;
  for (int d = 0; d < dims; ++d) {
    if (!ReadU32(&(*cell)[d])) return false;
  }
  return true;
}

bool PayloadReader::ReadBox(Box* box) {
  Cell lo;
  Cell hi;
  if (!ReadCell(&lo) || !ReadCell(&hi)) return false;
  if (lo.dims != hi.dims) return ok_ = false;
  box->lo = lo;
  box->hi = hi;
  return true;
}

bool PayloadReader::ReadBytes(size_t n, std::vector<uint8_t>* out) {
  if (!ok_ || size_ - at_ < n) return ok_ = false;
  out->assign(data_ + at_, data_ + at_ + n);
  at_ += n;
  return true;
}

bool ReadStatusHeader(PayloadReader* reader, Status* status) {
  uint8_t code = 0;
  std::string message;
  if (!reader->ReadU8(&code) || !reader->ReadString(&message)) return false;
  if (code > static_cast<uint8_t>(StatusCode::kCorruption)) return false;
  *status = Status(static_cast<StatusCode>(code), std::move(message));
  return true;
}

void FrameDecoder::Feed(const uint8_t* data, size_t n) {
  if (poisoned() || n == 0) return;
  // Compact lazily: drop consumed bytes once they dominate the buffer, so
  // feeding a long pipelined stream does not grow memory without bound.
  if (consumed_ > 0 && consumed_ >= buffer_.size() / 2) {
    buffer_.erase(buffer_.begin(),
                  buffer_.begin() + static_cast<ptrdiff_t>(consumed_));
    consumed_ = 0;
  }
  buffer_.insert(buffer_.end(), data, data + n);
}

Status FrameDecoder::Next(Frame* out) {
  if (poisoned()) return error_;
  const size_t avail = buffer_.size() - consumed_;
  if (avail < kFrameHeaderBytes) {
    return Status::NotFound("need more bytes");
  }
  const uint8_t* head = buffer_.data() + consumed_;
  const uint32_t body_len = GetU32(head);
  if (body_len < kMinFrameBody || body_len > max_frame_bytes_) {
    error_ = Status::Corruption("frame body length " +
                                std::to_string(body_len) +
                                " outside [9, " +
                                std::to_string(max_frame_bytes_) + "]");
    return error_;
  }
  if (avail < kFrameHeaderBytes + body_len) {
    return Status::NotFound("need more bytes");
  }
  const uint8_t* body = head + kFrameHeaderBytes;
  const uint32_t stored_crc = GetU32(head + 4);
  if (stored_crc != Crc32c(body, body_len)) {
    error_ = Status::Corruption("frame CRC32C mismatch");
    return error_;
  }
  out->request_id = GetU64(body);
  out->type = body[8];
  out->payload.assign(body + kMinFrameBody, body + body_len);
  consumed_ += kFrameHeaderBytes + body_len;
  return Status::OK();
}

Status DecodeResponse(const Frame& frame, Response* out) {
  if ((frame.type & kResponseBit) == 0 || !IsKnownRequestType(frame.type)) {
    return Status::Corruption("not a response frame: type " +
                              std::to_string(frame.type));
  }
  *out = Response{};
  out->request_id = frame.request_id;
  out->request_type = frame.type & ~kResponseBit;
  PayloadReader reader(frame.payload);
  if (!ReadStatusHeader(&reader, &out->status)) {
    return Status::Corruption("response status header malformed");
  }
  const auto fail = [&] {
    return Status::Corruption(std::string("response payload malformed: ") +
                              MessageTypeName(out->request_type));
  };
  switch (static_cast<MessageType>(out->request_type)) {
    case MessageType::kPut:
    case MessageType::kDelete:
    case MessageType::kWrite:
    case MessageType::kCursorClose:
    case MessageType::kSnapshotRelease:
    case MessageType::kPing:
      break;
    case MessageType::kGet: {
      if (!out->status.ok()) break;
      uint32_t count = 0;
      if (!reader.ReadU32(&count)) return fail();
      out->payloads.reserve(count);
      for (uint32_t i = 0; i < count; ++i) {
        uint64_t payload = 0;
        if (!reader.ReadU64(&payload)) return fail();
        out->payloads.push_back(payload);
      }
      break;
    }
    case MessageType::kOpenBoxCursor:
    case MessageType::kOpenIndexCursor:
      if (!out->status.ok()) break;
      if (!reader.ReadU64(&out->cursor_id)) return fail();
      break;
    case MessageType::kCursorNext: {
      if (!out->status.ok()) break;
      uint32_t count = 0;
      if (!reader.ReadU8(&out->flags) || !reader.ReadU32(&count)) {
        return fail();
      }
      out->entries.reserve(count);
      for (uint32_t i = 0; i < count; ++i) {
        SpatialEntry entry;
        if (!reader.ReadCell(&entry.cell) || !reader.ReadU64(&entry.payload) ||
            !reader.ReadU64(&entry.seq)) {
          return fail();
        }
        out->entries.push_back(entry);
      }
      break;
    }
    case MessageType::kSnapshotAcquire:
      if (!out->status.ok()) break;
      if (!reader.ReadU64(&out->snapshot_id)) return fail();
      break;
    case MessageType::kDumpMetrics: {
      if (!out->status.ok()) break;
      uint32_t len = 0;
      std::vector<uint8_t> bytes;
      if (!reader.ReadU32(&len) || !reader.ReadBytes(len, &bytes)) {
        return fail();
      }
      out->text.assign(bytes.begin(), bytes.end());
      break;
    }
  }
  if (!reader.Done()) return fail();
  return Status::OK();
}

}  // namespace onion::net
