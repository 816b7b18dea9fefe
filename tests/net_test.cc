// Network front-end tests: frame codec round-trips and decoder hostility
// (torn, oversized, bad-CRC, random-garbage streams), client/server wire
// round-trips for every request type, read-budget propagation parity with
// local cursors, pipelining with backpressure, the slow-session deadline
// force-releasing snapshot pins while other sessions stay live, and
// in-place response frames matching field-by-field encoding byte for byte.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "net/client.h"
#include "net/protocol.h"
#include "net/server.h"
#include "storage/sfc_db.h"
#include "storage/write_batch.h"

namespace onion::net {
namespace {

using storage::SfcDb;
using storage::SfcTable;
using storage::WriteBatch;

std::string FreshDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/net_test/" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

// --- protocol codec -------------------------------------------------------

TEST(NetProtocolTest, FrameRoundTripsThroughDecoder) {
  std::vector<uint8_t> payload;
  AppendString(&payload, "points");
  AppendCell(&payload, Cell(3, 7));
  AppendU64(&payload, 42);
  const std::vector<uint8_t> wire =
      EncodeFrame(99, static_cast<uint8_t>(MessageType::kPut), payload);

  FrameDecoder decoder;
  decoder.Feed(wire.data(), wire.size());
  Frame frame;
  ASSERT_TRUE(decoder.Next(&frame).ok());
  EXPECT_EQ(frame.request_id, 99u);
  EXPECT_EQ(frame.type, static_cast<uint8_t>(MessageType::kPut));
  EXPECT_EQ(frame.payload, payload);
  // Exactly one frame was encoded.
  EXPECT_EQ(decoder.Next(&frame).code(), StatusCode::kNotFound);
  EXPECT_EQ(decoder.buffered_bytes(), 0u);
}

TEST(NetProtocolTest, DecoderHandlesArbitraryFragmentation) {
  // Three pipelined frames, delivered one byte at a time.
  std::vector<uint8_t> stream;
  for (uint64_t id = 1; id <= 3; ++id) {
    std::vector<uint8_t> payload;
    AppendU64(&payload, id * 10);
    const std::vector<uint8_t> wire = EncodeFrame(
        id, static_cast<uint8_t>(MessageType::kSnapshotRelease), payload);
    stream.insert(stream.end(), wire.begin(), wire.end());
  }
  FrameDecoder decoder;
  uint64_t seen = 0;
  for (const uint8_t byte : stream) {
    decoder.Feed(&byte, 1);
    Frame frame;
    const Status status = decoder.Next(&frame);
    if (status.ok()) {
      ++seen;
      EXPECT_EQ(frame.request_id, seen);
    } else {
      EXPECT_EQ(status.code(), StatusCode::kNotFound) << status.ToString();
    }
  }
  EXPECT_EQ(seen, 3u);
}

TEST(NetProtocolTest, DecoderRejectsTornOversizedAndCorruptFrames) {
  // Torn: header promises more body than was fed -> NotFound, not an error.
  {
    FrameDecoder decoder;
    const std::vector<uint8_t> wire =
        EncodeFrame(1, static_cast<uint8_t>(MessageType::kPing), {});
    decoder.Feed(wire.data(), wire.size() - 3);
    Frame frame;
    EXPECT_EQ(decoder.Next(&frame).code(), StatusCode::kNotFound);
    EXPECT_FALSE(decoder.poisoned());
    decoder.Feed(wire.data() + wire.size() - 3, 3);
    EXPECT_TRUE(decoder.Next(&frame).ok());
  }
  // Oversized announcement: rejected from the header alone, before any
  // body bytes arrive (no allocation of attacker-chosen size).
  {
    FrameDecoder decoder(/*max_frame_bytes=*/1024);
    std::vector<uint8_t> header;
    AppendU32(&header, 1u << 30);
    AppendU32(&header, 0);
    decoder.Feed(header.data(), header.size());
    Frame frame;
    EXPECT_EQ(decoder.Next(&frame).code(), StatusCode::kCorruption);
    EXPECT_TRUE(decoder.poisoned());
    // Poisoning is sticky: even a valid frame fed later is refused.
    const std::vector<uint8_t> wire =
        EncodeFrame(1, static_cast<uint8_t>(MessageType::kPing), {});
    decoder.Feed(wire.data(), wire.size());
    EXPECT_EQ(decoder.Next(&frame).code(), StatusCode::kCorruption);
  }
  // Undersized body length (< request id + type) is equally corrupt.
  {
    FrameDecoder decoder;
    std::vector<uint8_t> header;
    AppendU32(&header, 4);
    AppendU32(&header, 0);
    decoder.Feed(header.data(), header.size());
    Frame frame;
    EXPECT_EQ(decoder.Next(&frame).code(), StatusCode::kCorruption);
  }
  // Bad CRC: one flipped body byte.
  {
    std::vector<uint8_t> payload;
    AppendU64(&payload, 7);
    std::vector<uint8_t> wire = EncodeFrame(
        5, static_cast<uint8_t>(MessageType::kCursorClose), payload);
    wire.back() ^= 0x40;
    FrameDecoder decoder;
    decoder.Feed(wire.data(), wire.size());
    Frame frame;
    EXPECT_EQ(decoder.Next(&frame).code(), StatusCode::kCorruption);
  }
}

TEST(NetProtocolTest, DecoderSurvivesRandomGarbage) {
  // Deterministic pseudo-random streams: the decoder must never crash or
  // hand out a frame from garbage with a valid-looking CRC by accident —
  // it either waits for more bytes or poisons.
  uint64_t state = 0x9e3779b97f4a7c15ull;
  const auto next = [&state] {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  for (int round = 0; round < 64; ++round) {
    FrameDecoder decoder(/*max_frame_bytes=*/4096);
    std::vector<uint8_t> garbage(1 + next() % 512);
    for (uint8_t& byte : garbage) byte = static_cast<uint8_t>(next());
    size_t fed = 0;
    while (fed < garbage.size() && !decoder.poisoned()) {
      const size_t chunk =
          std::min<size_t>(1 + next() % 16, garbage.size() - fed);
      decoder.Feed(garbage.data() + fed, chunk);
      fed += chunk;
      Frame frame;
      Status status = decoder.Next(&frame);
      while (status.ok()) status = decoder.Next(&frame);
    }
  }
}

TEST(NetProtocolTest, PayloadReaderBoundsChecksEveryField) {
  std::vector<uint8_t> payload;
  AppendString(&payload, "t");
  AppendCell(&payload, Cell(1, 2));
  {
    // Truncated at every possible byte offset: reads fail, never overrun.
    for (size_t cut = 0; cut < payload.size(); ++cut) {
      PayloadReader reader(payload.data(), cut);
      std::string table;
      Cell cell;
      EXPECT_FALSE(reader.ReadString(&table) && reader.ReadCell(&cell) &&
                   reader.Done());
    }
  }
  {
    // Trailing garbage is caught by Done().
    std::vector<uint8_t> extended = payload;
    extended.push_back(0xff);
    PayloadReader reader(extended);
    std::string table;
    Cell cell;
    EXPECT_TRUE(reader.ReadString(&table) && reader.ReadCell(&cell));
    EXPECT_FALSE(reader.Done());
  }
  {
    // A cell announcing impossible dimensionality poisons the reader.
    std::vector<uint8_t> bad;
    AppendU8(&bad, kMaxDims + 1);
    PayloadReader reader(bad);
    Cell cell;
    EXPECT_FALSE(reader.ReadCell(&cell));
    EXPECT_FALSE(reader.ok());
  }
}

// --- in-place response frames ----------------------------------------------

/// A kCursorNext payload assembled the way the server did before it built
/// responses in place: status header, flags, count, then every entry field
/// by field. The golden reference for the in-place encoder.
std::vector<uint8_t> ChunkPayloadFieldByField(
    const std::vector<SpatialEntry>& entries, uint8_t flags) {
  std::vector<uint8_t> payload;
  AppendStatusHeader(&payload, Status::OK());
  AppendU8(&payload, flags);
  AppendU32(&payload, static_cast<uint32_t>(entries.size()));
  for (const SpatialEntry& entry : entries) {
    AppendCell(&payload, entry.cell);
    AppendU64(&payload, entry.payload);
    AppendU64(&payload, entry.seq);
  }
  return payload;
}

std::vector<uint8_t> StatusOnlyPayload(const Status& status) {
  std::vector<uint8_t> payload;
  AppendStatusHeader(&payload, status);
  return payload;
}

constexpr uint8_t kCursorNextResponse =
    static_cast<uint8_t>(MessageType::kCursorNext) | kResponseBit;

/// Serves a fixed entry list, then ends with `end_status` (OK: exhausted).
class ListCursor final : public Cursor {
 public:
  ListCursor(std::vector<SpatialEntry> entries, Status end_status)
      : entries_(std::move(entries)), end_status_(std::move(end_status)) {}

  bool Valid() const override { return pos_ < entries_.size(); }
  void Next() override { ++pos_; }
  const SpatialEntry& entry() const override { return entries_[pos_]; }
  Status status() const override {
    return Valid() ? Status::OK() : end_status_;
  }

 private:
  const std::vector<SpatialEntry> entries_;
  const Status end_status_;
  size_t pos_ = 0;
};

TEST(NetProtocolTest, InPlaceChunkFramesMatchFieldByFieldEncoding) {
  std::vector<SpatialEntry> entries;
  for (uint32_t i = 0; i < 12; ++i) {
    entries.push_back(SpatialEntry{Cell(i, 63 - i, i * 7), 1000 + i, i + 1});
  }
  const auto in_place = [](uint64_t id, Cursor* cursor, uint32_t cap) {
    std::vector<uint8_t> wire = {0xAA, 0xBB};  // bytes already in the buffer
    const size_t start = BeginFrame(&wire, id, kCursorNextResponse);
    AppendCursorChunk(&wire, cursor, cap);
    FinishFrame(&wire, start);
    return std::vector<uint8_t>(wire.begin() + 2, wire.end());
  };
  {
    // Capped mid-list: 5 entries, cursor still valid, no flags.
    ListCursor cursor(entries, Status::OK());
    EXPECT_EQ(in_place(1, &cursor, 5),
              EncodeFrame(1, kCursorNextResponse,
                          ChunkPayloadFieldByField(
                              {entries.begin(), entries.begin() + 5}, 0)));
    EXPECT_TRUE(cursor.Valid());
  }
  {
    // A cursor that fails after 3 entries: the partial chunk is dropped
    // and only the error's status header goes out.
    const Status error = Status::Corruption("page 7 checksum mismatch");
    ListCursor cursor({entries.begin(), entries.begin() + 3}, error);
    EXPECT_EQ(in_place(2, &cursor, 10),
              EncodeFrame(2, kCursorNextResponse, StatusOnlyPayload(error)));
  }
  {
    // A cursor that is already done: an empty chunk flagged kCursorDone.
    ListCursor cursor({}, Status::OK());
    EXPECT_EQ(in_place(3, &cursor, 10),
              EncodeFrame(3, kCursorNextResponse,
                          ChunkPayloadFieldByField({}, kCursorDone)));
  }
}

// --- client/server fixtures -----------------------------------------------

struct TestServer {
  std::unique_ptr<SfcDb> db;
  std::unique_ptr<SfcServer> server;

  static TestServer Start(const std::string& dir,
                          SfcServerOptions options = {}) {
    TestServer ts;
    auto db = SfcDb::Open(dir);
    EXPECT_TRUE(db.ok()) << db.status().ToString();
    ts.db = std::move(db).value();
    ts.server = std::make_unique<SfcServer>(ts.db.get(), options);
    const Status status = ts.server->Start();
    EXPECT_TRUE(status.ok()) << status.ToString();
    return ts;
  }
};

/// A raw TCP endpoint for tests that need to put hand-crafted (or
/// deliberately broken) bytes on the wire — below SfcClient's level.
class RawConn {
 public:
  ~RawConn() {
    if (fd_ >= 0) ::close(fd_);
  }

  bool Connect(uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr = {};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    return ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) ==
           0;
  }

  bool SendBytes(const std::vector<uint8_t>& bytes) {
    size_t sent = 0;
    while (sent < bytes.size()) {
      const ssize_t n = ::send(fd_, bytes.data() + sent, bytes.size() - sent,
                               MSG_NOSIGNAL);
      if (n <= 0) return false;
      sent += static_cast<size_t>(n);
    }
    return true;
  }

  Status ReadFrame(Frame* out) {
    while (true) {
      const Status status = decoder_.Next(out);
      if (status.code() != StatusCode::kNotFound) return status;
      uint8_t buf[4096];
      const ssize_t n = ::recv(fd_, buf, sizeof buf, 0);
      if (n <= 0) return Status::Internal("connection closed");
      decoder_.Feed(buf, static_cast<size_t>(n));
    }
  }

  /// Reads one whole frame, header included, exactly as the server wrote
  /// it. Only for a connection that never used ReadFrame.
  bool ReadRawFrame(std::vector<uint8_t>* out) {
    out->assign(kFrameHeaderBytes, 0);
    if (!RecvAll(out->data(), kFrameHeaderBytes)) return false;
    const uint32_t body = static_cast<uint32_t>((*out)[0]) |
                          static_cast<uint32_t>((*out)[1]) << 8 |
                          static_cast<uint32_t>((*out)[2]) << 16 |
                          static_cast<uint32_t>((*out)[3]) << 24;
    out->resize(kFrameHeaderBytes + body);
    return RecvAll(out->data() + kFrameHeaderBytes, body);
  }

  /// Blocks until the server acts; true when it closed the connection
  /// without sending a byte. A server that closes a socket whose receive
  /// queue still holds our request makes the kernel send RST instead of
  /// FIN, so ECONNRESET is a close too; which one arrives is a race.
  bool WaitForClose() {
    uint8_t buf[4096];
    const ssize_t n = ::recv(fd_, buf, sizeof buf, 0);
    return n == 0 || (n < 0 && errno == ECONNRESET);
  }

 private:
  bool RecvAll(uint8_t* data, size_t n) {
    while (n > 0) {
      const ssize_t got = ::recv(fd_, data, n, 0);
      if (got <= 0) return false;
      data += got;
      n -= static_cast<size_t>(got);
    }
    return true;
  }

  int fd_ = -1;
  FrameDecoder decoder_;
};

// --- wire round-trips ------------------------------------------------------

TEST(NetServerTest, PutGetDeleteWriteRoundTrip) {
  auto ts = TestServer::Start(FreshDir("roundtrip"));
  const Universe universe(2, 64);
  ASSERT_TRUE(ts.db->CreateTable("points", "hilbert", universe).ok());

  SfcClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", ts.server->port()).ok());
  ASSERT_TRUE(client.Ping().ok());

  ASSERT_TRUE(client.Put("points", Cell(3, 5), 1001).ok());
  ASSERT_TRUE(client.Put("points", Cell(3, 5), 1002).ok());
  std::vector<uint64_t> payloads;
  ASSERT_TRUE(client.Get("points", Cell(3, 5), &payloads).ok());
  std::sort(payloads.begin(), payloads.end());
  EXPECT_EQ(payloads, (std::vector<uint64_t>{1001, 1002}));

  ASSERT_TRUE(client.Delete("points", Cell(3, 5)).ok());
  payloads.clear();
  ASSERT_TRUE(client.Get("points", Cell(3, 5), &payloads).ok());
  EXPECT_TRUE(payloads.empty());

  // A multi-op batch lands atomically through the same path as local
  // SfcDb::Write.
  WriteBatch batch;
  for (uint32_t i = 0; i < 16; ++i) batch.Put("points", Cell(i, i), i);
  ASSERT_TRUE(client.Write(batch).ok());
  payloads.clear();
  ASSERT_TRUE(client.Get("points", Cell(7, 7), &payloads).ok());
  EXPECT_EQ(payloads, (std::vector<uint64_t>{7}));

  // Remote errors come back as the remote Status, connection intact.
  EXPECT_EQ(client.Put("no_such_table", Cell(1, 1), 1).code(),
            StatusCode::kNotFound);
  EXPECT_EQ(client.Put("points", Cell(1000, 1000), 1).code(),
            StatusCode::kOutOfRange);  // outside the universe
  EXPECT_TRUE(client.Ping().ok());
}

TEST(NetServerTest, PipelinedRequestsComeBackInOrder) {
  auto ts = TestServer::Start(FreshDir("pipeline"));
  const Universe universe(2, 64);
  ASSERT_TRUE(ts.db->CreateTable("points", "hilbert", universe).ok());

  SfcClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", ts.server->port()).ok());
  // Issue 200 writes + 200 reads without reading a single response.
  std::vector<uint64_t> ids;
  for (uint32_t i = 0; i < 200; ++i) {
    auto id = client.SendPut("points", Cell(i % 64, i / 64), i);
    ASSERT_TRUE(id.ok());
    ids.push_back(id.value());
  }
  for (uint32_t i = 0; i < 200; ++i) {
    auto id = client.SendGet("points", Cell(i % 64, i / 64));
    ASSERT_TRUE(id.ok());
    ids.push_back(id.value());
  }
  for (size_t i = 0; i < ids.size(); ++i) {
    Response response;
    ASSERT_TRUE(client.ReadResponse(&response).ok());
    EXPECT_EQ(response.request_id, ids[i]);  // strict request order
    ASSERT_TRUE(response.status.ok()) << response.status.ToString();
    if (i >= 200) {
      EXPECT_EQ(response.payloads.size(), 1u);
    }
  }
}

TEST(NetServerTest, PipeliningSurvivesBackpressure) {
  // A tiny write-queue limit forces the EPOLLIN-off / EPOLLOUT-drain /
  // resume cycle; every response must still arrive, in order.
  SfcServerOptions options;
  options.write_queue_limit_bytes = 8 * 1024;
  options.socket_send_buffer_bytes = 4 * 1024;
  auto ts = TestServer::Start(FreshDir("backpressure"), options);
  const Universe universe(2, 64);
  ASSERT_TRUE(ts.db->CreateTable("points", "hilbert", universe).ok());

  SfcClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", ts.server->port()).ok());
  // DumpMetrics responses are kilobytes each; 300 of them pipelined
  // overflows an 8 KiB queue many times over.
  std::vector<uint64_t> ids;
  for (int i = 0; i < 300; ++i) {
    auto id = client.SendDumpMetrics();
    ASSERT_TRUE(id.ok());
    ids.push_back(id.value());
  }
  // The server queues bytes only once send() hits EAGAIN, and a client
  // that is already reading may keep ahead of it. So read nothing until
  // the server has stalled: 300 responses of ~2.6 KB (~775 KB) cannot fit
  // in the client's 128 KiB initial receive buffer plus the server's
  // 4 KiB send buffer, so a server with working backpressure must stop
  // reading this session however fast or slow it runs. The 10 s bound
  // only keeps a broken server from hanging the test.
  obs::Counter* stalls = ts.db->metrics().counter("net.write_queue_stalls");
  const auto stall_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (stalls->value() == 0 &&
         std::chrono::steady_clock::now() < stall_deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  for (const uint64_t want : ids) {
    Response response;
    ASSERT_TRUE(client.ReadResponse(&response).ok());
    EXPECT_EQ(response.request_id, want);
    ASSERT_TRUE(response.status.ok());
    EXPECT_NE(response.text.find("net.requests"), std::string::npos);
  }
  EXPECT_GT(ts.db->metrics().counter("net.write_queue_stalls")->value(), 0u);
}

// --- cursors and budgets over the wire ------------------------------------

struct WireVsLocalCase {
  RemoteReadOptions remote;
  const char* label;
};

TEST(NetServerTest, BoxCursorBudgetsMatchLocalSemantics) {
  auto ts = TestServer::Start(FreshDir("budgets"));
  const Universe universe(2, 64);
  storage::SfcTableOptions topts;
  topts.memtable_flush_entries = 64;  // force several on-disk pages
  auto table = ts.db->CreateTable("points", "hilbert", universe, topts);
  ASSERT_TRUE(table.ok());
  for (Coord x = 0; x < 32; ++x) {
    for (Coord y = 0; y < 32; ++y) {
      ASSERT_TRUE(table.value()->Insert(Cell(x, y), x * 100 + y).ok());
    }
  }
  ASSERT_TRUE(table.value()->Flush().ok());

  SfcClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", ts.server->port()).ok());
  const Box box(Cell(4, 4), Cell(27, 27));  // 576 matching cells

  // The full scan first: wire == local, entry for entry.
  std::vector<SpatialEntry> local_all;
  {
    auto cursor = table.value()->NewBoxCursor(box, {});
    for (; cursor->Valid(); cursor->Next()) {
      local_all.push_back(cursor->entry());
    }
    ASSERT_TRUE(cursor->status().ok());
  }
  ASSERT_EQ(local_all.size(), 576u);

  const uint64_t n = local_all.size();
  const WireVsLocalCase cases[] = {
      {{0, 0, 0, 0}, "unbounded"},
      {{n, 0, 0, 0}, "limit == result count"},
      {{n - 1, 0, 0, 0}, "limit one short"},
      {{n + 1, 0, 0, 0}, "limit one past"},
      {{1, 0, 0, 0}, "limit 1"},
      {{0, 1, 0, 0}, "max_pages 1"},
      {{0, 2, 0, 0}, "max_pages 2"},
      {{0, 0, 1, 0}, "max_bytes 1 (first page overshoots)"},
      {{0, 0, 4096, 0}, "max_bytes one page-ish"},
      {{3, 1, 4096, 0}, "all budgets at once"},
  };
  for (const WireVsLocalCase& c : cases) {
    SCOPED_TRACE(c.label);
    // Local truth under the same budgets.
    ReadOptions local_options;
    local_options.limit = c.remote.limit;
    local_options.max_pages = c.remote.max_pages;
    local_options.max_bytes = c.remote.max_bytes;
    std::vector<SpatialEntry> local;
    bool local_hit = false;
    {
      auto cursor = table.value()->NewBoxCursor(box, local_options);
      for (; cursor->Valid(); cursor->Next()) local.push_back(cursor->entry());
      ASSERT_TRUE(cursor->status().ok());
      local_hit = cursor->hit_read_budget();
    }
    // The same query over the wire, drained in small chunks so budget
    // state must survive across kCursorNext frames.
    std::vector<SpatialEntry> wire;
    bool wire_hit = false;
    ASSERT_TRUE(
        client.BoxQuery("points", box, &wire, c.remote, &wire_hit).ok());
    ASSERT_EQ(wire.size(), local.size());
    for (size_t i = 0; i < wire.size(); ++i) {
      EXPECT_EQ(wire[i].cell, local[i].cell);
      EXPECT_EQ(wire[i].payload, local[i].payload);
    }
    EXPECT_EQ(wire_hit, local_hit);
  }
}

TEST(NetServerTest, CursorChunkingAndLifecycle) {
  auto ts = TestServer::Start(FreshDir("cursor_chunks"));
  const Universe universe(2, 64);
  auto table = ts.db->CreateTable("points", "hilbert", universe);
  ASSERT_TRUE(table.ok());
  for (Coord x = 0; x < 10; ++x) {
    for (Coord y = 0; y < 10; ++y) {
      ASSERT_TRUE(table.value()->Insert(Cell(x, y), 1).ok());
    }
  }

  SfcClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", ts.server->port()).ok());
  auto cursor = client.OpenBoxCursor("points", Box(Cell(0, 0), Cell(9, 9)));
  ASSERT_TRUE(cursor.ok()) << cursor.status().ToString();

  std::vector<SpatialEntry> entries;
  bool done = false;
  int chunks = 0;
  while (!done) {
    ASSERT_TRUE(client.CursorNext(cursor.value(), 7, &entries, &done).ok());
    ++chunks;
    ASSERT_LE(chunks, 200);
  }
  EXPECT_EQ(entries.size(), 100u);
  EXPECT_GE(chunks, 15);  // 100 entries at <= 7 per chunk

  // The exhausted cursor was closed server-side: another Next is NotFound,
  // an explicit Close is an idempotent OK.
  bool ignored = false;
  EXPECT_EQ(
      client.CursorNext(cursor.value(), 7, &entries, &ignored).code(),
      StatusCode::kNotFound);
  EXPECT_TRUE(client.CursorClose(cursor.value()).ok());
  EXPECT_EQ(ts.db->metrics().gauge("net.cursors_open")->value(), 0);
}

TEST(NetServerTest, SnapshotIsolationOverTheWire) {
  auto ts = TestServer::Start(FreshDir("snapshots"));
  const Universe universe(2, 64);
  ASSERT_TRUE(ts.db->CreateTable("points", "hilbert", universe).ok());

  SfcClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", ts.server->port()).ok());
  ASSERT_TRUE(client.Put("points", Cell(1, 1), 100).ok());

  auto snapshot = client.SnapshotAcquire();
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  ASSERT_TRUE(client.Put("points", Cell(1, 1), 200).ok());
  ASSERT_TRUE(client.Put("points", Cell(2, 2), 300).ok());

  // At the snapshot: only the first write is visible.
  std::vector<uint64_t> payloads;
  ASSERT_TRUE(
      client.Get("points", Cell(1, 1), &payloads, snapshot.value()).ok());
  EXPECT_EQ(payloads, (std::vector<uint64_t>{100}));
  payloads.clear();
  ASSERT_TRUE(
      client.Get("points", Cell(2, 2), &payloads, snapshot.value()).ok());
  EXPECT_TRUE(payloads.empty());

  // Latest: both visible. A snapshot-pinned box cursor agrees with Get.
  payloads.clear();
  ASSERT_TRUE(client.Get("points", Cell(1, 1), &payloads).ok());
  std::sort(payloads.begin(), payloads.end());
  EXPECT_EQ(payloads, (std::vector<uint64_t>{100, 200}));
  RemoteReadOptions at_snapshot;
  at_snapshot.snapshot_id = snapshot.value();
  std::vector<SpatialEntry> entries;
  ASSERT_TRUE(client
                  .BoxQuery("points", Box(Cell(0, 0), Cell(9, 9)), &entries,
                            at_snapshot)
                  .ok());
  EXPECT_EQ(entries.size(), 1u);

  // A cursor opened at the snapshot keeps reading it even after the id is
  // released (the cursor holds its own pin).
  auto pinned =
      client.OpenBoxCursor("points", Box(Cell(0, 0), Cell(9, 9)), at_snapshot);
  ASSERT_TRUE(pinned.ok());
  ASSERT_TRUE(client.SnapshotRelease(snapshot.value()).ok());
  EXPECT_EQ(client.SnapshotRelease(snapshot.value()).code(),
            StatusCode::kNotFound);  // double release
  entries.clear();
  bool done = false;
  while (!done) {
    ASSERT_TRUE(client.CursorNext(pinned.value(), 64, &entries, &done).ok());
  }
  EXPECT_EQ(entries.size(), 1u);

  // Reads at the released id now fail.
  EXPECT_EQ(client.Get("points", Cell(1, 1), &payloads, snapshot.value())
                .code(),
            StatusCode::kNotFound);
}

TEST(NetServerTest, IndexCursorOverTheWire) {
  auto ts = TestServer::Start(FreshDir("index"));
  const Universe universe(2, 64);
  auto table = ts.db->CreateTable("points", "hilbert", universe);
  ASSERT_TRUE(table.ok());
  ASSERT_TRUE(ts.db->CreateIndex("points", {"by_swap", "swap_xy", "zorder"})
                  .ok());
  WriteBatch batch;
  for (Coord x = 0; x < 16; ++x) {
    for (Coord y = 0; y < 16; ++y) batch.Put("points", Cell(x, y), x + y);
  }
  ASSERT_TRUE(ts.db->Write(std::move(batch)).ok());

  SfcClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", ts.server->port()).ok());
  // The index swaps x/y, so this index-space box selects base cells with
  // x in [2,5], y in [1,3] — compare against the local index cursor.
  const Box index_box(Cell(1, 2), Cell(3, 5));
  std::vector<SpatialEntry> local;
  {
    auto cursor = ts.db->NewIndexCursor("points", "by_swap", index_box, {});
    for (; cursor->Valid(); cursor->Next()) local.push_back(cursor->entry());
    ASSERT_TRUE(cursor->status().ok());
  }
  ASSERT_FALSE(local.empty());

  auto cursor = client.OpenIndexCursor("points", "by_swap", index_box);
  ASSERT_TRUE(cursor.ok()) << cursor.status().ToString();
  std::vector<SpatialEntry> wire;
  bool done = false;
  while (!done) {
    ASSERT_TRUE(client.CursorNext(cursor.value(), 5, &wire, &done).ok());
  }
  ASSERT_EQ(wire.size(), local.size());
  for (size_t i = 0; i < wire.size(); ++i) {
    EXPECT_EQ(wire[i].cell, local[i].cell);
    EXPECT_EQ(wire[i].payload, local[i].payload);
  }

  EXPECT_EQ(client.OpenIndexCursor("points", "no_such_index", index_box)
                .status()
                .code(),
            StatusCode::kNotFound);
}

TEST(NetServerTest, InPlaceResponsesMatchFieldByFieldEncoding) {
  // Every response the server builds in place must be byte for byte the
  // frame EncodeFrame makes from a payload assembled field by field. The
  // expected entries come from local cursors on the same tables, which
  // deliver in the same order.
  SfcServerOptions options;
  options.max_entries_per_chunk = 40;
  auto ts = TestServer::Start(FreshDir("golden"), options);
  auto flat = ts.db->CreateTable("flat", "hilbert", Universe(2, 64));
  auto cube = ts.db->CreateTable("cube", "onion", Universe(3, 16));
  ASSERT_TRUE(flat.ok() && cube.ok());
  for (Coord x = 0; x < 12; ++x) {
    for (Coord y = 0; y < 12; ++y) {
      ASSERT_TRUE(flat.value()->Insert(Cell(x, y), x * 100 + y).ok());
      ASSERT_TRUE(cube.value()->Insert(Cell(x, y, (x + y) % 16), x + y).ok());
    }
  }
  ASSERT_TRUE(flat.value()->Insert(Cell(3, 4), 777).ok());  // two at (3, 4)
  ASSERT_TRUE(flat.value()->Flush().ok());

  RawConn conn;
  ASSERT_TRUE(conn.Connect(ts.server->port()));
  uint64_t next_id = 100;
  // Sends one request and checks the raw response bytes against the
  // frame EncodeFrame makes from `expected_payload`.
  const auto round_trip = [&](MessageType type,
                              const std::vector<uint8_t>& request,
                              const std::vector<uint8_t>& expected_payload) {
    const uint64_t id = ++next_id;
    const auto type_byte = static_cast<uint8_t>(type);
    EXPECT_TRUE(conn.SendBytes(EncodeFrame(id, type_byte, request)));
    std::vector<uint8_t> wire;
    EXPECT_TRUE(conn.ReadRawFrame(&wire));
    EXPECT_EQ(wire, EncodeFrame(id, type_byte | kResponseBit,
                                expected_payload))
        << MessageTypeName(type_byte);
  };
  const auto open_cursor = [&](const std::string& table, const Box& box) {
    const uint64_t id = ++next_id;
    std::vector<uint8_t> request;
    AppendString(&request, table);
    AppendBox(&request, box);
    for (int i = 0; i < 4; ++i) AppendU64(&request, 0);  // snapshot, budgets
    EXPECT_TRUE(conn.SendBytes(EncodeFrame(
        id, static_cast<uint8_t>(MessageType::kOpenBoxCursor), request)));
    std::vector<uint8_t> wire;
    EXPECT_TRUE(conn.ReadRawFrame(&wire));
    FrameDecoder decoder;
    decoder.Feed(wire.data(), wire.size());
    Frame frame;
    Response response;
    EXPECT_TRUE(decoder.Next(&frame).ok());
    EXPECT_TRUE(DecodeResponse(frame, &response).ok());
    EXPECT_TRUE(response.status.ok()) << response.status.ToString();
    return response.cursor_id;
  };
  const auto next_request = [](uint64_t cursor_id, uint32_t max_entries) {
    std::vector<uint8_t> request;
    AppendU64(&request, cursor_id);
    AppendU32(&request, max_entries);
    return request;
  };
  const auto local_entries = [](SfcTable* table, const Box& box) {
    auto cursor = table->NewBoxCursor(box);
    return DrainCursor(cursor.get());
  };

  // A 2D and a 3D chunk, each asking for more than the cursor holds: one
  // chunk with every entry, flagged done.
  const Box flat_box(Cell(2, 2), Cell(6, 5));
  const Box cube_box(Cell(1, 1, 1), Cell(4, 4, 8));
  for (const auto& [table, box] :
       {std::pair{flat.value(), flat_box}, std::pair{cube.value(), cube_box}}) {
    const std::vector<SpatialEntry> expected = local_entries(table, box);
    ASSERT_FALSE(expected.empty());
    ASSERT_LE(expected.size(), options.max_entries_per_chunk);
    const uint64_t cursor_id =
        open_cursor(table == flat.value() ? "flat" : "cube", box);
    round_trip(MessageType::kCursorNext, next_request(cursor_id, 1000),
               ChunkPayloadFieldByField(expected, kCursorDone));
  }

  // A chunk capped at max_entries_per_chunk, then the rest.
  {
    const Box box(Cell(0, 0), Cell(11, 11));
    const std::vector<SpatialEntry> expected = local_entries(flat.value(), box);
    ASSERT_GT(expected.size(), options.max_entries_per_chunk);
    const uint64_t cursor_id = open_cursor("flat", box);
    size_t at = 0;
    while (at < expected.size()) {
      const size_t n = std::min<size_t>(options.max_entries_per_chunk,
                                        expected.size() - at);
      const uint8_t flags = at + n == expected.size() ? kCursorDone : 0;
      round_trip(MessageType::kCursorNext, next_request(cursor_id, 1000),
                 ChunkPayloadFieldByField(
                     {expected.begin() + at, expected.begin() + at + n},
                     flags));
      at += n;
    }
  }

  // An empty final chunk: a box holding no entries.
  round_trip(MessageType::kCursorNext,
             next_request(open_cursor("flat", Box(Cell(40, 40), Cell(50, 50))),
                          16),
             ChunkPayloadFieldByField({}, kCursorDone));

  // A kGet response (two payloads at one cell) and a kPing response.
  {
    std::vector<uint8_t> request;
    AppendString(&request, "flat");
    AppendCell(&request, Cell(3, 4));
    AppendU64(&request, 0);
    auto rows = flat.value()->Get(Cell(3, 4));
    ASSERT_TRUE(rows.ok());
    ASSERT_EQ(rows.value().size(), 2u);
    std::vector<uint8_t> payload = StatusOnlyPayload(Status::OK());
    AppendU32(&payload, static_cast<uint32_t>(rows.value().size()));
    for (const uint64_t row : rows.value()) AppendU64(&payload, row);
    round_trip(MessageType::kGet, request, payload);
  }
  round_trip(MessageType::kPing, {}, StatusOnlyPayload(Status::OK()));
  // An error response: the status header alone.
  round_trip(MessageType::kCursorNext, next_request(999999, 4),
             StatusOnlyPayload(Status::NotFound("unknown cursor id 999999")));
}

// --- hostile and malformed input over a live connection --------------------

TEST(NetServerTest, MalformedPayloadGetsInvalidArgumentNotDisconnect) {
  auto ts = TestServer::Start(FreshDir("malformed"));
  RawConn conn;
  ASSERT_TRUE(conn.Connect(ts.server->port()));
  // A kPut frame with an empty payload: valid framing, nonsense payload.
  ASSERT_TRUE(conn.SendBytes(
      EncodeFrame(77, static_cast<uint8_t>(MessageType::kPut), {})));
  Frame frame;
  ASSERT_TRUE(conn.ReadFrame(&frame).ok());
  Response response;
  ASSERT_TRUE(DecodeResponse(frame, &response).ok());
  EXPECT_EQ(response.request_id, 77u);
  EXPECT_EQ(response.status.code(), StatusCode::kInvalidArgument);
  // So does an unknown request type — the connection stays usable.
  ASSERT_TRUE(conn.SendBytes(EncodeFrame(78, 0x55, {})));
  ASSERT_TRUE(conn.ReadFrame(&frame).ok());
  EXPECT_EQ(frame.request_id, 78u);
  EXPECT_GE(ts.db->metrics().counter("net.requests_bad")->value(), 2u);
}

TEST(NetServerTest, CorruptFramingClosesTheConnection) {
  auto ts = TestServer::Start(FreshDir("corrupt"));
  RawConn conn;
  ASSERT_TRUE(conn.Connect(ts.server->port()));
  std::vector<uint8_t> wire =
      EncodeFrame(1, static_cast<uint8_t>(MessageType::kPing), {});
  wire[wire.size() - 1] ^= 0x01;  // break the CRC
  ASSERT_TRUE(conn.SendBytes(wire));
  EXPECT_TRUE(conn.WaitForClose());
  // Poll briefly: the close is processed by the loop thread.
  for (int i = 0; i < 100; ++i) {
    if (ts.db->metrics().counter("net.frames_bad")->value() > 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(ts.db->metrics().counter("net.frames_bad")->value(), 1u);
}

TEST(NetServerTest, AdmissionControlRefusesExcessConnections) {
  SfcServerOptions options;
  options.max_connections = 2;
  auto ts = TestServer::Start(FreshDir("admission"), options);
  SfcClient a;
  SfcClient b;
  ASSERT_TRUE(a.Connect("127.0.0.1", ts.server->port()).ok());
  ASSERT_TRUE(b.Connect("127.0.0.1", ts.server->port()).ok());
  ASSERT_TRUE(a.Ping().ok());
  ASSERT_TRUE(b.Ping().ok());
  // The third connection is accepted by the kernel but closed by the
  // server before serving anything.
  RawConn c;
  ASSERT_TRUE(c.Connect(ts.server->port()));
  ASSERT_TRUE(c.SendBytes(
      EncodeFrame(1, static_cast<uint8_t>(MessageType::kPing), {})));
  EXPECT_TRUE(c.WaitForClose());
  EXPECT_GE(ts.db->metrics().counter("net.connections_refused")->value(), 1u);
  EXPECT_TRUE(a.Ping().ok());  // existing sessions unaffected
}

// --- the slow-session deadline (the acceptance criterion) ------------------

TEST(NetServerTest, StalledSessionIsForceExpiredAndReleasesPins) {
  SfcServerOptions options;
  options.session_idle_deadline_ms = 300;
  auto ts = TestServer::Start(FreshDir("expiry"), options);
  const Universe universe(2, 64);
  auto table = ts.db->CreateTable("points", "hilbert", universe);
  ASSERT_TRUE(table.ok());
  for (Coord x = 0; x < 8; ++x) {
    ASSERT_TRUE(table.value()->Insert(Cell(x, x), x).ok());
  }

  // The stalling client: pins a snapshot, opens a cursor at it, goes
  // silent without releasing either.
  SfcClient stalled;
  ASSERT_TRUE(stalled.Connect("127.0.0.1", ts.server->port()).ok());
  auto snapshot = stalled.SnapshotAcquire();
  ASSERT_TRUE(snapshot.ok());
  RemoteReadOptions at_snapshot;
  at_snapshot.snapshot_id = snapshot.value();
  auto cursor = stalled.OpenBoxCursor("points", Box(Cell(0, 0), Cell(7, 7)),
                                      at_snapshot);
  ASSERT_TRUE(cursor.ok());
  EXPECT_GT(ts.db->metrics().gauge("net.snapshots_pinned")->value(), 0);

  // A healthy session keeps getting service the whole time the sweep is
  // hunting the stalled one.
  SfcClient healthy;
  ASSERT_TRUE(healthy.Connect("127.0.0.1", ts.server->port()).ok());
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(10);
  obs::Counter* expired = ts.db->metrics().counter("net.sessions_expired");
  while (expired->value() < 1 && std::chrono::steady_clock::now() < deadline) {
    ASSERT_TRUE(healthy.Ping().ok());  // its own traffic keeps it alive
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  ASSERT_GE(expired->value(), 1u);

  // Both of the stalled session's pins (snapshot id + cursor's own) were
  // force-released; compaction GC is no longer held back.
  EXPECT_GE(ts.db->metrics().counter("snapshots.force_released")->value(), 2u);
  EXPECT_EQ(ts.db->metrics().gauge("net.snapshots_pinned")->value(), 0);
  EXPECT_EQ(ts.db->metrics().gauge("net.cursors_open")->value(), 0);
  EXPECT_EQ(table.value()->OldestSnapshotPinAgeUs(), 0u);
  ASSERT_TRUE(table.value()->Compact().ok());

  // The expiry left a session_expire trace event on the shared timeline.
  EXPECT_NE(ts.db->DumpTrace().find("session_expire"), std::string::npos);

  // The stalled client's connection is actually dead...
  EXPECT_FALSE(stalled.Ping().ok());
  // ...while the healthy one never noticed a thing.
  ASSERT_TRUE(healthy.Ping().ok());
}

TEST(NetServerTest, StopReleasesEverySessionResource) {
  auto ts = TestServer::Start(FreshDir("stop"));
  const Universe universe(2, 64);
  ASSERT_TRUE(ts.db->CreateTable("points", "hilbert", universe).ok());
  SfcClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", ts.server->port()).ok());
  ASSERT_TRUE(client.SnapshotAcquire().ok());
  ASSERT_TRUE(
      client.OpenBoxCursor("points", Box(Cell(0, 0), Cell(9, 9))).ok());
  ts.server->Stop();
  EXPECT_FALSE(ts.server->running());
  EXPECT_EQ(ts.db->metrics().gauge("net.active_connections")->value(), 0);
  EXPECT_EQ(ts.db->metrics().gauge("net.snapshots_pinned")->value(), 0);
  EXPECT_EQ(ts.db->metrics().gauge("net.cursors_open")->value(), 0);
  ASSERT_TRUE(ts.db->Close().ok());
}

}  // namespace
}  // namespace onion::net
