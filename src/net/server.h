// SfcServer: the network front end — serves one SfcDb to remote clients
// over the pipelined binary protocol of net/protocol.h.
//
// Architecture: one epoll-based, non-blocking event-loop thread owns
// every connection (the classic single-reactor shape — Redis, memcached).
// Requests are executed inline on the loop thread against the SfcDb,
// whose own internal synchronization (storage/sfc_db.h) makes that safe
// alongside any other threads using the database in-process. All session
// state — read buffers, write queues, pinned snapshots, open cursors —
// is owned exclusively by the loop thread, so the server itself needs no
// locks beyond the atomic stop flag (concurrency notes in
// docs/concurrency.md).
//
// Sessions and resource lifetime: snapshots a client acquires
// (kSnapshotAcquire) and cursors it opens are SESSION-SCOPED — they are
// recorded on the connection that created them and are released
// unconditionally when that connection closes, for any reason. A cursor
// opened at a snapshot holds its own reference to the pin, so releasing
// the snapshot id early never invalidates an open cursor.
//
// A stalled client can never pin a snapshot (and hold back compaction GC)
// forever; three mechanisms guarantee it:
//   backpressure      each session's outgoing queue is bounded
//                     (write_queue_limit_bytes). When a client stops
//                     reading, the queue fills, the server STOPS READING
//                     its requests (EPOLLIN off) — so a slow consumer is
//                     throttled instead of ballooning server memory.
//   admission control at most max_connections sessions; further accepts
//                     are closed immediately (net.connections_refused).
//   session deadline  a session that makes no progress (no bytes read
//                     from it, no bytes written to it) for
//                     session_idle_deadline_ms is force-expired: its
//                     snapshots and cursors are released — compaction GC
//                     proceeds — the connection is closed, a
//                     session_expire trace event is deposited, and
//                     snapshots.force_released counts the pins.
//
// Observability: the server records net.* counters/gauges/histograms into
// the database's own metrics registry, so one SfcDb::DumpMetrics() (local
// or over the wire via kDumpMetrics) shows the whole engine including its
// network layer. Metric catalog in docs/observability.md.

#ifndef ONION_NET_SERVER_H_
#define ONION_NET_SERVER_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "net/protocol.h"
#include "obs/metrics.h"
#include "storage/sfc_db.h"

namespace onion::net {

struct SfcServerOptions {
  /// Listen address. The default binds loopback only — this PR's front
  /// end has no authentication, so exposing it beyond the host is a
  /// deliberate operator decision.
  std::string host = "127.0.0.1";
  /// TCP port; 0 picks an ephemeral port (read it back via port()).
  uint16_t port = 0;
  /// Admission control: accepted connections beyond this are closed
  /// immediately.
  size_t max_connections = 8192;
  /// Backpressure bound on one session's outgoing queue; when exceeded
  /// the server stops reading that session's requests until the queue
  /// drains below half.
  size_t write_queue_limit_bytes = 4u << 20;
  /// Largest request frame body accepted; bigger announcements poison the
  /// connection (see net/protocol.h).
  uint32_t max_frame_bytes = kDefaultMaxFrameBytes;
  /// Force-expiry deadline for sessions making no progress, in
  /// milliseconds; 0 disables the sweep (tests only — a production server
  /// should always bound session lifetime).
  uint64_t session_idle_deadline_ms = 60'000;
  /// Ceiling on entries returned by one kCursorNext chunk (a request may
  /// ask for less).
  uint32_t max_entries_per_chunk = 1024;
  /// Fairness quantum: at most this many pipelined requests are executed
  /// per session per loop visit before other sessions get a turn.
  uint32_t max_requests_per_tick = 64;
  /// SO_SNDBUF for accepted sockets; 0 keeps the kernel default. Tests
  /// shrink it so backpressure engages without megabytes of traffic.
  int socket_send_buffer_bytes = 0;
};

class SfcServer {
 public:
  /// `db` must outlive the server and stay open while it runs.
  SfcServer(storage::SfcDb* db, const SfcServerOptions& options = {});
  /// Stops the loop and closes every session (releasing their pins).
  ~SfcServer();

  SfcServer(const SfcServer&) = delete;
  SfcServer& operator=(const SfcServer&) = delete;

  /// Binds, listens, and starts the event-loop thread. InvalidArgument on
  /// a second Start; Internal on socket errors.
  Status Start();

  /// Idempotent: wakes the loop, joins the thread, closes all sessions
  /// and the listen socket. Pinned snapshots and cursors are released.
  void Stop();

  /// The bound TCP port (resolves option port 0); 0 before Start().
  uint16_t port() const { return port_; }
  bool running() const { return running_.load(std::memory_order_acquire); }

  /// Live session count (loop-thread maintained gauge; approximate from
  /// other threads).
  int64_t active_connections() const;

 private:
  struct CursorState {
    std::unique_ptr<Cursor> cursor;
    /// Keeps the snapshot this cursor reads at pinned for the cursor's
    /// whole life, independent of the session releasing the snapshot id.
    std::shared_ptr<const storage::DbSnapshot> pin;
  };

  struct Session {
    int fd = -1;
    uint64_t id = 0;
    std::string peer;
    FrameDecoder decoder;
    /// Outgoing frames, oldest first; head_sent bytes of the front one
    /// are already on the wire.
    std::vector<std::vector<uint8_t>> write_queue;
    size_t head_sent = 0;
    size_t queued_bytes = 0;
    std::map<uint64_t, std::shared_ptr<const storage::DbSnapshot>> snapshots;
    std::map<uint64_t, CursorState> cursors;
    uint64_t last_activity_us = 0;
    /// Complete frames may still be buffered in the decoder after a
    /// fairness-quantum cutoff; such sessions are revisited before the
    /// next epoll wait.
    bool input_pending = false;
    uint32_t epoll_mask = 0;

    explicit Session(uint32_t max_frame_bytes) : decoder(max_frame_bytes) {}
  };

  void Loop();
  void AcceptReady();
  /// Reads until EAGAIN, then processes buffered frames.
  void SessionReadable(Session* session);
  void SessionWritable(Session* session);
  /// Executes up to the fairness quantum of buffered frames; sets
  /// input_pending when more remain. Returns false when the session was
  /// closed (protocol error).
  bool DrainRequests(Session* session);
  void HandleFrame(Session* session, const Frame& frame);
  /// Finishes the response frame `*wire` holds (net/protocol.h FinishFrame)
  /// and sends it, queueing what the socket does not take; a queued
  /// response takes the buffer with it.
  void QueueResponse(Session* session, std::vector<uint8_t>* wire);
  /// Updates EPOLLIN/EPOLLOUT registration to match the session's queue
  /// and backpressure state.
  void UpdateInterest(Session* session);
  void CloseSession(int fd, const char* reason);
  /// The deadline sweep: force-expires sessions without progress.
  void ExpireStale(uint64_t now_us);

  // Request executors: each appends the response payload (a status
  // header, then the type's fields) to `out`, after the frame header
  // HandleFrame began there.
  void ExecPut(const Frame& frame, std::vector<uint8_t>* out);
  void ExecDelete(const Frame& frame, std::vector<uint8_t>* out);
  void ExecWrite(const Frame& frame, std::vector<uint8_t>* out);
  void ExecGet(Session* session, const Frame& frame,
               std::vector<uint8_t>* out);
  void ExecOpenBoxCursor(Session* session, const Frame& frame,
                         std::vector<uint8_t>* out);
  void ExecOpenIndexCursor(Session* session, const Frame& frame,
                           std::vector<uint8_t>* out);
  void ExecCursorNext(Session* session, const Frame& frame,
                      std::vector<uint8_t>* out);
  void ExecCursorClose(Session* session, const Frame& frame,
                       std::vector<uint8_t>* out);
  void ExecSnapshotAcquire(Session* session, std::vector<uint8_t>* out);
  void ExecSnapshotRelease(Session* session, const Frame& frame,
                           std::vector<uint8_t>* out);
  void ExecDumpMetrics(std::vector<uint8_t>* out);

  /// Resolves a table by name, opening it on demand; null with a status.
  storage::SfcTable* ResolveTable(const std::string& name, Status* status);
  /// The session's pinned snapshot for `snapshot_id` (0 -> null/latest).
  Status ResolveSnapshot(Session* session, uint64_t snapshot_id,
                         std::shared_ptr<const storage::DbSnapshot>* out);

  storage::SfcDb* const db_;
  const SfcServerOptions options_;

  // Metric handles (database registry; resolved in the constructor).
  obs::Counter* connections_accepted_;
  obs::Counter* connections_refused_;
  obs::Counter* sessions_expired_;
  obs::Counter* snapshots_force_released_;
  obs::Counter* requests_;
  obs::Counter* requests_bad_;
  obs::Counter* frames_bad_;
  obs::Counter* bytes_read_;
  obs::Counter* bytes_written_;
  obs::Counter* write_queue_stalls_;
  obs::Gauge* active_connections_;
  obs::Gauge* snapshots_pinned_;
  obs::Gauge* cursors_open_;
  obs::Histogram* request_us_;

  std::atomic<bool> running_{false};
  std::atomic<bool> stop_requested_{false};
  uint16_t port_ = 0;
  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;
  std::thread loop_thread_;

  // Loop-thread-owned state (never touched while the loop runs, except by
  // the loop itself; Start/Stop serialize around the thread's lifetime).
  std::map<int, std::unique_ptr<Session>> sessions_;
  /// The response being built; reused across requests so a fully sent
  /// response leaves its capacity for the next one.
  std::vector<uint8_t> response_;
  uint64_t next_session_id_ = 0;
  uint64_t next_snapshot_id_ = 0;
  uint64_t next_cursor_id_ = 0;
};

}  // namespace onion::net

#endif  // ONION_NET_SERVER_H_
