// The wire protocol of the network front end: compact length-prefixed
// binary frames carrying SfcDb requests and responses over a byte stream.
//
// Frame layout (little-endian, byte-level spec in
// docs/network_protocol.md):
//
//   u32 len         byte length of the body (request id + type + payload);
//                   kMinFrameBody <= len <= max_frame_bytes
//   u32 crc         CRC32C (storage/crc32c.h) over the `len` body bytes
//   u64 request_id  caller-chosen correlation id: the response to a
//                   request echoes it verbatim, which is what lets a
//                   client PIPELINE any number of requests on one
//                   connection before reading the first response
//   u8  type        MessageType
//   payload         len - 9 bytes, layout per type (see the catalog below)
//
// Responses reuse the frame format: a response's type is the request's
// type with kResponseBit set, and every response payload begins with a
// status header (u8 StatusCode + string message) before the type-specific
// fields. The encoding vocabulary is deliberately tiny — unsigned
// little-endian integers, `u16 len + bytes` strings, `u8 dims + dims*u32`
// cells — so a second implementation (SfcClient, the conformance peer of
// SfcServer) stays honest.
//
// FrameDecoder is the single shared deserializer: both endpoints feed it
// raw stream bytes and pop whole validated frames. It never trusts the
// peer — oversized lengths, torn frames, and CRC mismatches surface as
// Status::Corruption, and payload readers bounds-check every field — so a
// malicious or corrupted stream can at worst close its own connection.

#ifndef ONION_NET_PROTOCOL_H_
#define ONION_NET_PROTOCOL_H_

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "common/status.h"
#include "sfc/types.h"
#include "storage/cursor.h"

namespace onion::net {

/// Bytes before the body: u32 len + u32 crc.
inline constexpr size_t kFrameHeaderBytes = 8;
/// Smallest legal body: u64 request_id + u8 type, no payload.
inline constexpr size_t kMinFrameBody = 9;
/// Default ceiling on one frame's body — a peer announcing more is
/// corrupt or hostile and its connection is dropped before any
/// allocation of that size happens.
inline constexpr uint32_t kDefaultMaxFrameBytes = 16u << 20;

/// Set on a response frame's type; the low 7 bits are the request's type.
inline constexpr uint8_t kResponseBit = 0x80;

enum class MessageType : uint8_t {
  kPut = 1,              // str table, cell, u64 payload
  kDelete = 2,           // str table, cell
  kWrite = 3,            // u32 n, n * (u8 tombstone, str table, cell, u64)
  kGet = 4,              // str table, cell, u64 snapshot_id (0 = latest)
  kOpenBoxCursor = 5,    // str table, box, u64 snapshot_id,
                         // u64 limit, u64 max_pages, u64 max_bytes
  kCursorNext = 6,       // u64 cursor_id, u32 max_entries
  kCursorClose = 7,      // u64 cursor_id
  kOpenIndexCursor = 8,  // str table, str index, box, u64 snapshot_id,
                         // u64 limit, u64 max_pages, u64 max_bytes
  kSnapshotAcquire = 9,   // (empty) -> u64 snapshot_id
  kSnapshotRelease = 10,  // u64 snapshot_id
  kDumpMetrics = 11,      // (empty) -> u32 len + JSON bytes
  kPing = 12,             // (empty) -> status only
};

/// Stable lower-case name for logs and tests ("put", "cursor_next", ...);
/// "unknown" for values outside the catalog. The response bit is ignored.
const char* MessageTypeName(uint8_t type);

/// True when `type` (without kResponseBit) names a known request.
bool IsKnownRequestType(uint8_t type);

/// CursorNext response flags.
inline constexpr uint8_t kCursorDone = 0x01;
inline constexpr uint8_t kCursorHitReadBudget = 0x02;

/// One decoded frame: the validated body, split into its fixed fields and
/// the raw payload bytes.
struct Frame {
  uint64_t request_id = 0;
  uint8_t type = 0;
  std::vector<uint8_t> payload;
};

// --- encoding ------------------------------------------------------------

/// Append primitives (little-endian, matching storage/codec.h).
void AppendU8(std::vector<uint8_t>* out, uint8_t v);
void AppendU16(std::vector<uint8_t>* out, uint16_t v);
void AppendU32(std::vector<uint8_t>* out, uint32_t v);
void AppendU64(std::vector<uint8_t>* out, uint64_t v);
/// u16 length prefix + raw bytes; aborts on strings over 64 KiB (table and
/// index names are short by construction).
void AppendString(std::vector<uint8_t>* out, const std::string& s);
/// u8 dims + dims * u32 coords.
void AppendCell(std::vector<uint8_t>* out, const Cell& cell);
/// Two cells (lo, hi); dims must match.
void AppendBox(std::vector<uint8_t>* out, const Box& box);

/// Frames are built in place: BeginFrame appends the header placeholder,
/// request_id and type to `out` and returns where the frame starts; the
/// caller appends the payload after it; FinishFrame then writes the length
/// and the CRC32C of the frame that runs from `start` to the end of `out`
/// over the bytes where they lie, so a payload built after BeginFrame is
/// never copied into its frame.
size_t BeginFrame(std::vector<uint8_t>* out, uint64_t request_id,
                  uint8_t type);
void FinishFrame(std::vector<uint8_t>* out, size_t start);

/// Wraps (request_id, type, payload) into one complete frame — header,
/// CRC, body — ready to write to the stream.
std::vector<uint8_t> EncodeFrame(uint64_t request_id, uint8_t type,
                                 const std::vector<uint8_t>& payload);

/// The status header every response payload starts with.
void AppendStatusHeader(std::vector<uint8_t>* out, const Status& status);

/// Appends the kCursorNext response payload for up to `max_entries`
/// entries pulled from `cursor`: the OK status header,
/// flags (kCursorDone once the cursor is no longer valid, plus
/// kCursorHitReadBudget when a bound stopped it), the u32 count and the
/// entries as cell + u64 payload + u64 seq. A cursor that fails while
/// filling the chunk leaves only its status header instead; the caller
/// tells the cases apart by the cursor's Valid() and status() afterwards.
void AppendCursorChunk(std::vector<uint8_t>* out, Cursor* cursor,
                       uint32_t max_entries);

// --- bounds-checked payload reading --------------------------------------

/// Sequential reader over one frame's payload. Every Read* returns false
/// (and poisons the reader) when the remaining bytes cannot hold the
/// field; a well-formed consumer checks the final Done() too, so trailing
/// garbage is also detected.
class PayloadReader {
 public:
  PayloadReader(const uint8_t* data, size_t size) : data_(data), size_(size) {}
  explicit PayloadReader(const std::vector<uint8_t>& payload)
      : PayloadReader(payload.data(), payload.size()) {}

  bool ReadU8(uint8_t* v);
  bool ReadU16(uint16_t* v);
  bool ReadU32(uint32_t* v);
  bool ReadU64(uint64_t* v);
  bool ReadString(std::string* s);
  bool ReadCell(Cell* cell);
  bool ReadBox(Box* box);
  /// Reads `n` raw bytes.
  bool ReadBytes(size_t n, std::vector<uint8_t>* out);

  /// True when the whole payload was consumed and nothing failed.
  bool Done() const { return ok_ && at_ == size_; }
  bool ok() const { return ok_; }
  size_t remaining() const { return size_ - at_; }

 private:
  const uint8_t* data_;
  size_t size_;
  size_t at_ = 0;
  bool ok_ = true;
};

/// Reads a response's status header (the inverse of AppendStatusHeader).
bool ReadStatusHeader(PayloadReader* reader, Status* status);

// --- stream decoding ------------------------------------------------------

/// Incremental frame deserializer: feed stream bytes in any fragmentation,
/// pop whole frames. After the first error (oversized length, CRC
/// mismatch, undersized body) the decoder is poisoned — framing is lost,
/// so the only safe continuation is closing the connection.
class FrameDecoder {
 public:
  explicit FrameDecoder(uint32_t max_frame_bytes = kDefaultMaxFrameBytes)
      : max_frame_bytes_(max_frame_bytes) {}

  /// Buffers `n` more stream bytes. No-op once poisoned.
  void Feed(const uint8_t* data, size_t n);

  /// Pops the next complete frame into `out`. Returns:
  ///   OK            — one frame delivered, call again for more
  ///   NotFound      — no complete frame buffered yet (not an error)
  ///   Corruption    — the stream violated the framing rules (sticky)
  Status Next(Frame* out);

  /// Bytes buffered but not yet consumed by a delivered frame.
  size_t buffered_bytes() const { return buffer_.size() - consumed_; }
  bool poisoned() const { return !error_.ok(); }

  /// Back to a fresh decoder (new connection on a reused endpoint).
  void Reset() {
    buffer_.clear();
    consumed_ = 0;
    error_ = Status::OK();
  }

 private:
  const uint32_t max_frame_bytes_;
  std::vector<uint8_t> buffer_;
  size_t consumed_ = 0;  // bytes of buffer_ already handed out as frames
  Status error_;         // sticky first framing error
};

// --- typed response decoding (shared by SfcClient and tests) -------------

/// One parsed response frame. `status` is the remote outcome; the
/// type-specific fields are meaningful only when status.ok() (except
/// `entries`/`flags`, which a budget-truncated CursorNext still fills).
struct Response {
  uint64_t request_id = 0;
  uint8_t request_type = 0;  // response bit stripped
  Status status;
  std::vector<uint64_t> payloads;       // kGet
  std::vector<SpatialEntry> entries;    // kCursorNext
  uint8_t flags = 0;                    // kCursorNext (kCursorDone, ...)
  uint64_t cursor_id = 0;               // kOpenBoxCursor / kOpenIndexCursor
  uint64_t snapshot_id = 0;             // kSnapshotAcquire
  std::string text;                     // kDumpMetrics (JSON)
};

/// Parses a response frame into its typed form. Corruption when the frame
/// is not a well-formed response of a known type.
Status DecodeResponse(const Frame& frame, Response* out);

}  // namespace onion::net

#endif  // ONION_NET_PROTOCOL_H_
