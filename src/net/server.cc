#include "net/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "obs/trace.h"
#include "storage/write_batch.h"

namespace onion::net {

namespace {

Status Errno(const std::string& what) {
  return Status::Internal(what + ": " + std::strerror(errno));
}

std::string PeerName(const sockaddr_in& addr) {
  char buf[INET_ADDRSTRLEN] = {};
  ::inet_ntop(AF_INET, &addr.sin_addr, buf, sizeof buf);
  return std::string(buf) + ":" + std::to_string(ntohs(addr.sin_port));
}

}  // namespace

SfcServer::SfcServer(storage::SfcDb* db, const SfcServerOptions& options)
    : db_(db), options_(options) {
  obs::MetricsRegistry& m = db_->metrics();
  connections_accepted_ = m.counter("net.connections_accepted");
  connections_refused_ = m.counter("net.connections_refused");
  sessions_expired_ = m.counter("net.sessions_expired");
  snapshots_force_released_ = m.counter("snapshots.force_released");
  requests_ = m.counter("net.requests");
  requests_bad_ = m.counter("net.requests_bad");
  frames_bad_ = m.counter("net.frames_bad");
  bytes_read_ = m.counter("net.bytes_read");
  bytes_written_ = m.counter("net.bytes_written");
  write_queue_stalls_ = m.counter("net.write_queue_stalls");
  active_connections_ = m.gauge("net.active_connections");
  snapshots_pinned_ = m.gauge("net.snapshots_pinned");
  cursors_open_ = m.gauge("net.cursors_open");
  request_us_ = m.histogram("net.request_us");
}

SfcServer::~SfcServer() { Stop(); }

int64_t SfcServer::active_connections() const {
  return active_connections_->value();
}

Status SfcServer::Start() {
  if (running_.load(std::memory_order_acquire) || loop_thread_.joinable()) {
    return Status::InvalidArgument("server already started");
  }
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
                        0);
  if (listen_fd_ < 0) return Errno("socket");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::InvalidArgument("bad listen host: " + options_.host);
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) !=
          0 ||
      ::listen(listen_fd_, 4096) != 0) {
    const Status status = Errno("bind/listen " + options_.host + ":" +
                                std::to_string(options_.port));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return status;
  }
  socklen_t len = sizeof addr;
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) ==
      0) {
    port_ = ntohs(addr.sin_port);
  }
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (epoll_fd_ < 0 || wake_fd_ < 0) {
    const Status status = Errno("epoll_create1/eventfd");
    Stop();
    return status;
  }
  epoll_event ev = {};
  ev.events = EPOLLIN;
  ev.data.fd = listen_fd_;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev);
  ev.data.fd = wake_fd_;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev);
  stop_requested_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  loop_thread_ = std::thread(&SfcServer::Loop, this);
  return Status::OK();
}

void SfcServer::Stop() {
  if (loop_thread_.joinable()) {
    stop_requested_.store(true, std::memory_order_release);
    const uint64_t one = 1;
    [[maybe_unused]] const ssize_t n = ::write(wake_fd_, &one, sizeof one);
    loop_thread_.join();
  }
  // The loop is gone: tear down every session (releasing its snapshot
  // pins and cursors) and the listening machinery.
  while (!sessions_.empty()) {
    CloseSession(sessions_.begin()->first, "server stop");
  }
  for (int* fd : {&listen_fd_, &epoll_fd_, &wake_fd_}) {
    if (*fd >= 0) {
      ::close(*fd);
      *fd = -1;
    }
  }
  running_.store(false, std::memory_order_release);
}

void SfcServer::Loop() {
  const uint64_t deadline_us = options_.session_idle_deadline_ms * 1000;
  const uint64_t sweep_us =
      deadline_us == 0 ? 0 : std::max<uint64_t>(deadline_us / 4, 10'000);
  uint64_t next_sweep_us = obs::NowMicros() + sweep_us;
  std::vector<epoll_event> events(1024);
  while (!stop_requested_.load(std::memory_order_acquire)) {
    // A session may hold decoded-but-unexecuted frames after a fairness
    // cutoff; those are runnable without any new socket event, as long as
    // backpressure is not holding them.
    bool runnable_pending = false;
    for (const auto& [fd, session] : sessions_) {
      if (session->input_pending &&
          session->queued_bytes <= options_.write_queue_limit_bytes) {
        runnable_pending = true;
        break;
      }
    }
    int timeout_ms = -1;
    if (runnable_pending) {
      timeout_ms = 0;
    } else if (sweep_us != 0) {
      const uint64_t now = obs::NowMicros();
      timeout_ms = next_sweep_us <= now
                       ? 0
                       : static_cast<int>(
                             std::min<uint64_t>((next_sweep_us - now) / 1000 + 1,
                                                1000));
    }
    const int n = ::epoll_wait(epoll_fd_, events.data(),
                               static_cast<int>(events.size()), timeout_ms);
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      if (fd == wake_fd_) {
        uint64_t drained = 0;
        [[maybe_unused]] const ssize_t r =
            ::read(wake_fd_, &drained, sizeof drained);
        continue;
      }
      if (fd == listen_fd_) {
        AcceptReady();
        continue;
      }
      const auto it = sessions_.find(fd);
      if (it == sessions_.end()) continue;  // closed earlier this batch
      Session* session = it->second.get();
      if ((events[i].events & (EPOLLERR | EPOLLHUP)) != 0) {
        CloseSession(fd, "peer hangup");
        continue;
      }
      if ((events[i].events & EPOLLOUT) != 0) SessionWritable(session);
      if (sessions_.find(fd) == sessions_.end()) continue;
      if ((events[i].events & EPOLLIN) != 0) SessionReadable(session);
    }
    // Revisit fairness-deferred input. Collect fds first: DrainRequests
    // may close sessions, invalidating iterators.
    std::vector<int> pending;
    for (const auto& [fd, session] : sessions_) {
      if (session->input_pending &&
          session->queued_bytes <= options_.write_queue_limit_bytes) {
        pending.push_back(fd);
      }
    }
    for (const int fd : pending) {
      const auto it = sessions_.find(fd);
      if (it != sessions_.end()) (void)DrainRequests(it->second.get());
    }
    if (sweep_us != 0) {
      const uint64_t now = obs::NowMicros();
      if (now >= next_sweep_us) {
        ExpireStale(now);
        next_sweep_us = now + sweep_us;
      }
    }
  }
}

void SfcServer::AcceptReady() {
  while (true) {
    sockaddr_in addr = {};
    socklen_t len = sizeof addr;
    const int fd = ::accept4(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                             &len, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) return;  // EAGAIN or transient error: nothing more to accept
    if (sessions_.size() >= options_.max_connections) {
      connections_refused_->Increment();
      ::close(fd);
      continue;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    if (options_.socket_send_buffer_bytes > 0) {
      ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF,
                   &options_.socket_send_buffer_bytes,
                   sizeof options_.socket_send_buffer_bytes);
    }
    auto session = std::make_unique<Session>(options_.max_frame_bytes);
    session->fd = fd;
    session->id = ++next_session_id_;
    session->peer = PeerName(addr);
    session->last_activity_us = obs::NowMicros();
    session->epoll_mask = EPOLLIN;
    epoll_event ev = {};
    ev.events = session->epoll_mask;
    ev.data.fd = fd;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
      ::close(fd);
      continue;
    }
    sessions_.emplace(fd, std::move(session));
    connections_accepted_->Increment();
    active_connections_->Add(1);
  }
}

void SfcServer::SessionReadable(Session* session) {
  uint8_t buf[64 * 1024];
  while (true) {
    const ssize_t n = ::recv(session->fd, buf, sizeof buf, 0);
    if (n > 0) {
      bytes_read_->Add(static_cast<uint64_t>(n));
      session->last_activity_us = obs::NowMicros();
      session->decoder.Feed(buf, static_cast<size_t>(n));
      if (static_cast<size_t>(n) < sizeof buf) break;
      continue;
    }
    if (n == 0) {
      CloseSession(session->fd, "peer closed");
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    CloseSession(session->fd, "read error");
    return;
  }
  (void)DrainRequests(session);
}

bool SfcServer::DrainRequests(Session* session) {
  session->input_pending = false;
  for (uint32_t i = 0; i < options_.max_requests_per_tick; ++i) {
    if (session->queued_bytes > options_.write_queue_limit_bytes) {
      // Backpressured: leave the rest buffered; the write path revives us.
      session->input_pending = true;
      break;
    }
    Frame frame;
    const Status status = session->decoder.Next(&frame);
    if (status.code() == StatusCode::kNotFound) break;
    if (!status.ok()) {
      // Framing is unrecoverable (bad CRC, oversized length): the only
      // safe continuation is dropping the connection.
      frames_bad_->Increment();
      CloseSession(session->fd, "protocol error");
      return false;
    }
    HandleFrame(session, frame);
    if (i + 1 == options_.max_requests_per_tick) session->input_pending = true;
  }
  UpdateInterest(session);
  return true;
}

void SfcServer::HandleFrame(Session* session, const Frame& frame) {
  const obs::ScopedTimer timer(request_us_);
  requests_->Increment();
  session->last_activity_us = timer.start_us();
  // The response is built in place: every executor appends its payload
  // after the frame header, and QueueResponse patches length and CRC.
  std::vector<uint8_t>* out = &response_;
  out->clear();
  BeginFrame(out, frame.request_id, frame.type | kResponseBit);
  switch (static_cast<MessageType>(frame.type)) {
    case MessageType::kPut: ExecPut(frame, out); break;
    case MessageType::kDelete: ExecDelete(frame, out); break;
    case MessageType::kWrite: ExecWrite(frame, out); break;
    case MessageType::kGet: ExecGet(session, frame, out); break;
    case MessageType::kOpenBoxCursor:
      ExecOpenBoxCursor(session, frame, out);
      break;
    case MessageType::kCursorNext: ExecCursorNext(session, frame, out); break;
    case MessageType::kCursorClose:
      ExecCursorClose(session, frame, out);
      break;
    case MessageType::kOpenIndexCursor:
      ExecOpenIndexCursor(session, frame, out);
      break;
    case MessageType::kSnapshotAcquire:
      ExecSnapshotAcquire(session, out);
      break;
    case MessageType::kSnapshotRelease:
      ExecSnapshotRelease(session, frame, out);
      break;
    case MessageType::kDumpMetrics: ExecDumpMetrics(out); break;
    case MessageType::kPing: AppendStatusHeader(out, Status::OK()); break;
    default:
      requests_bad_->Increment();
      AppendStatusHeader(out, Status::InvalidArgument(
                                  "unknown request type " +
                                  std::to_string(frame.type)));
      break;
  }
  QueueResponse(session, out);
}

void SfcServer::QueueResponse(Session* session, std::vector<uint8_t>* wire) {
  FinishFrame(wire, 0);
  // Opportunistic send: with an empty queue, most responses go straight
  // to the socket without ever arming EPOLLOUT.
  size_t sent = 0;
  if (session->write_queue.empty()) {
    while (sent < wire->size()) {
      const ssize_t n = ::send(session->fd, wire->data() + sent,
                               wire->size() - sent, MSG_NOSIGNAL);
      if (n > 0) {
        sent += static_cast<size_t>(n);
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      break;  // EAGAIN (or a hard error EPOLLOUT/ERR will surface)
    }
    bytes_written_->Add(sent);
    if (sent > 0) session->last_activity_us = obs::NowMicros();
  }
  if (sent < wire->size()) {
    session->queued_bytes += wire->size() - sent;
    if (session->write_queue.empty()) session->head_sent = sent;
    // The queue takes the buffer; the next response grows a new one.
    session->write_queue.push_back(std::move(*wire));
    wire->clear();
  }
}

void SfcServer::SessionWritable(Session* session) {
  while (!session->write_queue.empty()) {
    std::vector<uint8_t>& head = session->write_queue.front();
    const ssize_t n =
        ::send(session->fd, head.data() + session->head_sent,
               head.size() - session->head_sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      CloseSession(session->fd, "write error");
      return;
    }
    bytes_written_->Add(static_cast<uint64_t>(n));
    session->queued_bytes -= static_cast<size_t>(n);
    session->head_sent += static_cast<size_t>(n);
    session->last_activity_us = obs::NowMicros();
    if (session->head_sent == head.size()) {
      session->write_queue.erase(session->write_queue.begin());
      session->head_sent = 0;
    }
  }
  // Draining may lift backpressure; deferred input runs on the next loop
  // pass (input_pending is still set).
  UpdateInterest(session);
}

void SfcServer::UpdateInterest(Session* session) {
  uint32_t desired = 0;
  if (!session->write_queue.empty()) desired |= EPOLLOUT;
  // Backpressure with hysteresis: stop reading above the limit, resume
  // below half of it — so a borderline queue does not flap the interest
  // set on every frame.
  const bool reading = (session->epoll_mask & EPOLLIN) != 0;
  if (reading ? session->queued_bytes <= options_.write_queue_limit_bytes
              : session->queued_bytes < options_.write_queue_limit_bytes / 2) {
    desired |= EPOLLIN;
  }
  if (desired == session->epoll_mask) return;
  if (reading && (desired & EPOLLIN) == 0) write_queue_stalls_->Increment();
  epoll_event ev = {};
  ev.events = desired;
  ev.data.fd = session->fd;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, session->fd, &ev) == 0) {
    session->epoll_mask = desired;
  }
}

void SfcServer::CloseSession(int fd, const char* reason) {
  (void)reason;
  const auto it = sessions_.find(fd);
  if (it == sessions_.end()) return;
  const Session* session = it->second.get();
  const auto snapshots = static_cast<int64_t>(session->snapshots.size());
  const auto cursors = static_cast<int64_t>(session->cursors.size());
  if (epoll_fd_ >= 0) ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  ::close(fd);
  // Destroying the session releases its cursors first-class and drops
  // every DbSnapshot shared_ptr — the pins unregister themselves. The
  // gauges move only after that, so a reader that sees them at 0 also
  // sees the pins gone.
  sessions_.erase(it);
  snapshots_pinned_->Add(-snapshots);
  cursors_open_->Add(-cursors);
  active_connections_->Add(-1);
}

void SfcServer::ExpireStale(uint64_t now_us) {
  const uint64_t deadline_us = options_.session_idle_deadline_ms * 1000;
  std::vector<int> stale;
  for (const auto& [fd, session] : sessions_) {
    if (now_us - session->last_activity_us > deadline_us) stale.push_back(fd);
  }
  for (const int fd : stale) {
    const Session* session = sessions_.at(fd).get();
    // Count the DbSnapshot pins this expiry force-releases: the ones the
    // client still holds by id, plus the ones kept alive only by its open
    // cursors.
    uint64_t pins = session->snapshots.size();
    for (const auto& [id, state] : session->cursors) {
      if (state.pin != nullptr) ++pins;
    }
    std::string peer = session->peer;
    const uint64_t last_activity_us = session->last_activity_us;
    // Release first, publish after: a reader that sees the expiry counted
    // must also see its pins gone.
    CloseSession(fd, "session deadline");
    obs::TraceRing& ring = db_->trace();
    obs::TraceEvent event;
    event.id = ring.NextId();
    event.kind = obs::TraceKind::kSessionExpire;
    event.label = std::move(peer);
    event.start_us = last_activity_us;
    event.dur_us = now_us - last_activity_us;
    event.entries = pins;
    ring.Add(std::move(event));
    snapshots_force_released_->Add(pins);
    sessions_expired_->Increment();
  }
}

// --- request executors ----------------------------------------------------

storage::SfcTable* SfcServer::ResolveTable(const std::string& name,
                                           Status* status) {
  storage::SfcTable* table = db_->GetTable(name);
  if (table != nullptr) return table;
  Result<storage::SfcTable*> opened = db_->OpenTable(name);
  if (!opened.ok()) {
    *status = opened.status();
    return nullptr;
  }
  return opened.value();
}

Status SfcServer::ResolveSnapshot(
    Session* session, uint64_t snapshot_id,
    std::shared_ptr<const storage::DbSnapshot>* out) {
  if (snapshot_id == 0) {
    out->reset();
    return Status::OK();
  }
  const auto it = session->snapshots.find(snapshot_id);
  if (it == session->snapshots.end()) {
    return Status::NotFound("unknown snapshot id " +
                            std::to_string(snapshot_id));
  }
  *out = it->second;
  return Status::OK();
}

namespace {

const Status kMalformed = Status::InvalidArgument("malformed request payload");

}  // namespace

void SfcServer::ExecPut(const Frame& frame, std::vector<uint8_t>* out) {
  PayloadReader reader(frame.payload);
  std::string table;
  Cell cell;
  uint64_t payload = 0;
  if (!reader.ReadString(&table) || !reader.ReadCell(&cell) ||
      !reader.ReadU64(&payload) || !reader.Done()) {
    requests_bad_->Increment();
    return AppendStatusHeader(out, kMalformed);
  }
  storage::WriteBatch batch;
  batch.Put(std::move(table), cell, payload);
  return AppendStatusHeader(out, db_->Write(std::move(batch)));
}

void SfcServer::ExecDelete(const Frame& frame, std::vector<uint8_t>* out) {
  PayloadReader reader(frame.payload);
  std::string table;
  Cell cell;
  if (!reader.ReadString(&table) || !reader.ReadCell(&cell) ||
      !reader.Done()) {
    requests_bad_->Increment();
    return AppendStatusHeader(out, kMalformed);
  }
  storage::WriteBatch batch;
  batch.Delete(std::move(table), cell);
  return AppendStatusHeader(out, db_->Write(std::move(batch)));
}

void SfcServer::ExecWrite(const Frame& frame, std::vector<uint8_t>* out) {
  PayloadReader reader(frame.payload);
  uint32_t count = 0;
  if (!reader.ReadU32(&count)) {
    requests_bad_->Increment();
    return AppendStatusHeader(out, kMalformed);
  }
  storage::WriteBatch batch;
  for (uint32_t i = 0; i < count; ++i) {
    uint8_t tombstone = 0;
    std::string table;
    Cell cell;
    uint64_t payload = 0;
    if (!reader.ReadU8(&tombstone) || !reader.ReadString(&table) ||
        !reader.ReadCell(&cell) || !reader.ReadU64(&payload)) {
      requests_bad_->Increment();
      return AppendStatusHeader(out, kMalformed);
    }
    if (tombstone != 0) {
      batch.Delete(std::move(table), cell);
    } else {
      batch.Put(std::move(table), cell, payload);
    }
  }
  if (!reader.Done()) {
    requests_bad_->Increment();
    return AppendStatusHeader(out, kMalformed);
  }
  return AppendStatusHeader(out, db_->Write(std::move(batch)));
}

void SfcServer::ExecGet(Session* session, const Frame& frame,
                        std::vector<uint8_t>* out) {
  PayloadReader reader(frame.payload);
  std::string table_name;
  Cell cell;
  uint64_t snapshot_id = 0;
  if (!reader.ReadString(&table_name) || !reader.ReadCell(&cell) ||
      !reader.ReadU64(&snapshot_id) || !reader.Done()) {
    requests_bad_->Increment();
    return AppendStatusHeader(out, kMalformed);
  }
  Status status;
  storage::SfcTable* table = ResolveTable(table_name, &status);
  if (table == nullptr) return AppendStatusHeader(out, status);
  std::shared_ptr<const storage::DbSnapshot> pin;
  status = ResolveSnapshot(session, snapshot_id, &pin);
  if (!status.ok()) return AppendStatusHeader(out, status);
  ReadOptions options;
  if (pin != nullptr) options.snapshot = pin->ForTable(table);
  Result<std::vector<uint64_t>> result = table->Get(cell, options);
  if (!result.ok()) return AppendStatusHeader(out, result.status());
  AppendStatusHeader(out, Status::OK());
  const std::vector<uint64_t>& payloads = result.value();
  AppendU32(out, static_cast<uint32_t>(payloads.size()));
  for (const uint64_t p : payloads) AppendU64(out, p);
}

void SfcServer::ExecOpenBoxCursor(Session* session, const Frame& frame,
                                  std::vector<uint8_t>* out) {
  PayloadReader reader(frame.payload);
  std::string table_name;
  Box box;
  uint64_t snapshot_id = 0;
  ReadOptions options;
  if (!reader.ReadString(&table_name) || !reader.ReadBox(&box) ||
      !reader.ReadU64(&snapshot_id) || !reader.ReadU64(&options.limit) ||
      !reader.ReadU64(&options.max_pages) ||
      !reader.ReadU64(&options.max_bytes) || !reader.Done()) {
    requests_bad_->Increment();
    return AppendStatusHeader(out, kMalformed);
  }
  Status status;
  storage::SfcTable* table = ResolveTable(table_name, &status);
  if (table == nullptr) return AppendStatusHeader(out, status);
  std::shared_ptr<const storage::DbSnapshot> pin;
  status = ResolveSnapshot(session, snapshot_id, &pin);
  if (!status.ok()) return AppendStatusHeader(out, status);
  if (pin != nullptr) options.snapshot = pin->ForTable(table);
  std::unique_ptr<Cursor> cursor = table->NewBoxCursor(box, options);
  if (!cursor->Valid() && !cursor->status().ok()) {
    return AppendStatusHeader(out, cursor->status());
  }
  const uint64_t id = ++next_cursor_id_;
  session->cursors.emplace(id, CursorState{std::move(cursor), std::move(pin)});
  cursors_open_->Add(1);
  AppendStatusHeader(out, Status::OK());
  AppendU64(out, id);
}

void SfcServer::ExecOpenIndexCursor(Session* session, const Frame& frame,
                                    std::vector<uint8_t>* out) {
  PayloadReader reader(frame.payload);
  std::string table_name;
  std::string index_name;
  Box box;
  uint64_t snapshot_id = 0;
  storage::IndexReadOptions options;
  if (!reader.ReadString(&table_name) || !reader.ReadString(&index_name) ||
      !reader.ReadBox(&box) || !reader.ReadU64(&snapshot_id) ||
      !reader.ReadU64(&options.limit) || !reader.ReadU64(&options.max_pages) ||
      !reader.ReadU64(&options.max_bytes) || !reader.Done()) {
    requests_bad_->Increment();
    return AppendStatusHeader(out, kMalformed);
  }
  std::shared_ptr<const storage::DbSnapshot> pin;
  const Status status = ResolveSnapshot(session, snapshot_id, &pin);
  if (!status.ok()) return AppendStatusHeader(out, status);
  options.snapshot = pin;
  std::unique_ptr<Cursor> cursor =
      db_->NewIndexCursor(table_name, index_name, box, options);
  if (!cursor->Valid() && !cursor->status().ok()) {
    return AppendStatusHeader(out, cursor->status());
  }
  const uint64_t id = ++next_cursor_id_;
  session->cursors.emplace(id, CursorState{std::move(cursor), std::move(pin)});
  cursors_open_->Add(1);
  AppendStatusHeader(out, Status::OK());
  AppendU64(out, id);
}

void SfcServer::ExecCursorNext(Session* session, const Frame& frame,
                               std::vector<uint8_t>* out) {
  PayloadReader reader(frame.payload);
  uint64_t cursor_id = 0;
  uint32_t max_entries = 0;
  if (!reader.ReadU64(&cursor_id) || !reader.ReadU32(&max_entries) ||
      !reader.Done()) {
    requests_bad_->Increment();
    return AppendStatusHeader(out, kMalformed);
  }
  const auto it = session->cursors.find(cursor_id);
  if (it == session->cursors.end()) {
    return AppendStatusHeader(out, 
        Status::NotFound("unknown cursor id " + std::to_string(cursor_id)));
  }
  Cursor* cursor = it->second.cursor.get();
  const uint32_t cap = std::min(std::max<uint32_t>(max_entries, 1),
                                options_.max_entries_per_chunk);
  AppendCursorChunk(out, cursor, cap);
  // A failed cursor is dead and an exhausted one is done: both close
  // server-side (the failure went out as a status-only response), and a
  // later kCursorClose is an idempotent no-op.
  if (!cursor->Valid()) {
    session->cursors.erase(it);
    cursors_open_->Add(-1);
  }
}

void SfcServer::ExecCursorClose(Session* session, const Frame& frame,
                                std::vector<uint8_t>* out) {
  PayloadReader reader(frame.payload);
  uint64_t cursor_id = 0;
  if (!reader.ReadU64(&cursor_id) || !reader.Done()) {
    requests_bad_->Increment();
    return AppendStatusHeader(out, kMalformed);
  }
  if (session->cursors.erase(cursor_id) > 0) cursors_open_->Add(-1);
  return AppendStatusHeader(out, Status::OK());
}

void SfcServer::ExecSnapshotAcquire(Session* session,
                                    std::vector<uint8_t>* out) {
  Result<std::shared_ptr<const storage::DbSnapshot>> snapshot =
      db_->GetSnapshot();
  if (!snapshot.ok()) return AppendStatusHeader(out, snapshot.status());
  const uint64_t id = ++next_snapshot_id_;
  session->snapshots.emplace(id, std::move(snapshot).value());
  snapshots_pinned_->Add(1);
  AppendStatusHeader(out, Status::OK());
  AppendU64(out, id);
}

void SfcServer::ExecSnapshotRelease(Session* session, const Frame& frame,
                                    std::vector<uint8_t>* out) {
  PayloadReader reader(frame.payload);
  uint64_t snapshot_id = 0;
  if (!reader.ReadU64(&snapshot_id) || !reader.Done()) {
    requests_bad_->Increment();
    return AppendStatusHeader(out, kMalformed);
  }
  if (session->snapshots.erase(snapshot_id) == 0) {
    return AppendStatusHeader(out, Status::NotFound("unknown snapshot id " +
                                       std::to_string(snapshot_id)));
  }
  snapshots_pinned_->Add(-1);
  return AppendStatusHeader(out, Status::OK());
}

void SfcServer::ExecDumpMetrics(std::vector<uint8_t>* out) {
  const std::string json = db_->DumpMetrics();
  AppendStatusHeader(out, Status::OK());
  AppendU32(out, static_cast<uint32_t>(json.size()));
  out->insert(out->end(), json.begin(), json.end());
}

}  // namespace onion::net
