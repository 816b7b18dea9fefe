#include "wire_load.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>
#include <ctime>

namespace onion::e2e {

namespace {

using net::MessageType;

// An open-loop op due sooner than this is waited for by polling without a
// timeout instead of sleeping: a sleeping thread can wake tens of µs late.
// A longer window makes the four generator threads spin at the same time
// more often, and then they delay one another.
constexpr uint64_t kSpinNs = 20'000;
constexpr uint32_t kChunkEntries = 1024;

uint8_t TypeByte(MessageType type) { return static_cast<uint8_t>(type); }

bool IsReadKind(OpKind kind) {
  return kind == OpKind::kGet || kind == OpKind::kBoxQuery ||
         kind == OpKind::kIndexQuery;
}

/// CLOCK_REALTIME minus steady_clock, both read as close together as
/// possible.
int64_t RealtimeOffsetNs() {
  const uint64_t before = NowNs();
  timespec real = {};
  ::clock_gettime(CLOCK_REALTIME, &real);
  const uint64_t after = NowNs();
  const int64_t real_ns = static_cast<int64_t>(real.tv_sec) * 1'000'000'000 +
                          real.tv_nsec;
  return real_ns - static_cast<int64_t>(before + (after - before) / 2);
}

}  // namespace

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

uint64_t CpuNs(clockid_t clock) {
  timespec ts = {};
  ::clock_gettime(clock, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<uint64_t>(ts.tv_nsec);
}

void PhaseResult::Merge(const PhaseResult& other) {
  attempted += other.attempted;
  failed += other.failed;
  refused += other.refused;
  completed_in_window += other.completed_in_window;
  latency_ns.insert(latency_ns.end(), other.latency_ns.begin(),
                    other.latency_ns.end());
  late_ns.insert(late_ns.end(), other.late_ns.begin(), other.late_ns.end());
  read_ops += other.read_ops;
  rows += other.rows;
  loadgen_cpu_ns += other.loadgen_cpu_ns;
  loadgen_max_cpu_ns = std::max(loadgen_max_cpu_ns, other.loadgen_max_cpu_ns);
  request_frames += other.request_frames;
  request_ns += other.request_ns;
  response_frames += other.response_frames;
  response_ns += other.response_ns;
}

WireLoad::~WireLoad() {
  if (fd_ >= 0) ::close(fd_);
}

Status WireLoad::Connect(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return Status::Internal("socket failed");
  sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return Status::Internal("connect to loopback server failed");
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  if (::setsockopt(fd, SOL_SOCKET, SO_TIMESTAMPNS, &one, sizeof one) != 0) {
    ::close(fd);
    return Status::Internal("SO_TIMESTAMPNS not supported");
  }
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
  fd_ = fd;
  return Status::OK();
}

PhaseResult WireLoad::RunClosed(OpStream* ops, double seconds, uint32_t window,
                                uint64_t max_ops, bool time_protocol) {
  return Run(Mode::kClosed, ops, seconds, window, max_ops, 0, 0,
             time_protocol);
}

PhaseResult WireLoad::RunOpen(OpStream* ops, double seconds, double rate,
                              uint64_t arrival_seed) {
  return Run(Mode::kOpen, ops, seconds, 0, 0, rate, arrival_seed, false);
}

PhaseResult WireLoad::Run(Mode mode, OpStream* ops, double seconds,
                          uint32_t window, uint64_t max_ops, double rate,
                          uint64_t arrival_seed, bool time_protocol) {
  PhaseResult result;
  result.seconds = seconds;
  result_ = &result;
  ops_ = ops;
  mode_ = mode;
  max_ops_ = max_ops;
  started_ = 0;
  time_protocol_ = time_protocol;
  free_slots_.clear();
  for (uint32_t s = kMaxInFlight; s > 0; --s) free_slots_.push_back(s - 1);

  Rng arrivals(arrival_seed);
  const auto gap_ns = [&] {
    return static_cast<uint64_t>(-std::log(1.0 - arrivals.NextDouble()) /
                                 rate * 1e9);
  };
  realtime_offset_ns_ = RealtimeOffsetNs();
  const uint64_t cpu_start = CpuNs(CLOCK_THREAD_CPUTIME_ID);
  const uint64_t start = NowNs();
  end_ns_ = start + static_cast<uint64_t>(seconds * 1e9);
  uint64_t next_due = start + (mode == Mode::kOpen ? gap_ns() : 0);
  if (mode == Mode::kOpen) {
    const auto expected_ops = static_cast<size_t>(rate * seconds * 1.2);
    result.latency_ns.reserve(expected_ops);
    result.late_ns.reserve(expected_ops);
  } else {
    for (uint32_t w = 0; w < window && Issuing(start); ++w) {
      StartOp(ops_->Next(), start);
    }
  }

  while (true) {
    const uint64_t now = NowNs();
    if (mode == Mode::kOpen) {
      while (next_due <= now && next_due < end_ns_) {
        // Responses already waiting in the socket complete their ops
        // first: the cap must not count ops the server has finished.
        if (free_slots_.empty()) Poll(0);
        if (free_slots_.empty() || fd_ < 0) {
          (void)ops_->Next();  // skipped, so later ops stay the same
          ++result.attempted;
          ++result.refused;
          ++result.failed;
        } else {
          result.late_ns.push_back(now - next_due);
          StartOp(ops_->Next(), next_due);
        }
        next_due += gap_ns();
      }
    }
    FlushOut();
    const bool issuing = Issuing(now);
    if (!issuing && awaiting_.empty()) break;

    uint64_t wait_ns = 100'000'000;
    if (mode == Mode::kOpen && next_due < end_ns_) {
      wait_ns = next_due > now + kSpinNs ? next_due - now - kSpinNs : 0;
    } else if (issuing) {
      wait_ns = std::min(wait_ns, end_ns_ - now);
    }
    Poll(wait_ns);
  }
  const uint64_t cpu_ns = CpuNs(CLOCK_THREAD_CPUTIME_ID) - cpu_start;
  result.loadgen_cpu_ns = cpu_ns;
  result.loadgen_max_cpu_ns = cpu_ns;
  result_ = nullptr;
  return result;
}

void WireLoad::Poll(uint64_t wait_ns) {
  if (fd_ < 0) return;
  pollfd pfd = {fd_, POLLIN, 0};
  if (out_at_ < out_.size()) pfd.events |= POLLOUT;
  const timespec timeout = {static_cast<time_t>(wait_ns / 1'000'000'000),
                            static_cast<long>(wait_ns % 1'000'000'000)};
  if (::ppoll(&pfd, 1, &timeout, nullptr) <= 0) return;
  if ((pfd.revents & POLLOUT) != 0) FlushOut();
  if ((pfd.revents & (POLLIN | POLLERR | POLLHUP)) != 0) Read();
}

bool WireLoad::Issuing(uint64_t now) const {
  return now < end_ns_ && (max_ops_ == 0 || started_ < max_ops_) && fd_ >= 0;
}

void WireLoad::StartOp(const Op& op, uint64_t due_ns) {
  const uint32_t s = free_slots_.back();
  free_slots_.pop_back();
  Slot& slot = slots_[s];
  slot = Slot{};
  slot.op = op;
  slot.due_ns = due_ns;
  ++started_;
  ++result_->attempted;

  std::vector<uint8_t> payload;
  switch (op.kind) {
    case OpKind::kGet:
      slot.acked_at_send = model_->acked(op.cells[0]);
      net::AppendString(&payload, kTable);
      net::AppendCell(&payload, op.cells[0]);
      net::AppendU64(&payload, 0);  // latest
      Send(s, MessageType::kGet, payload);
      return;
    case OpKind::kPut:
      slot.payloads[0] = model_->NewPut(op.cells[0]);
      net::AppendString(&payload, kTable);
      net::AppendCell(&payload, op.cells[0]);
      net::AppendU64(&payload, slot.payloads[0]);
      Send(s, MessageType::kPut, payload);
      return;
    case OpKind::kWrite:
      net::AppendU32(&payload, op.num_cells);
      for (uint32_t i = 0; i < op.num_cells; ++i) {
        slot.payloads[i] = model_->NewPut(op.cells[i]);
        net::AppendU8(&payload, 0);
        net::AppendString(&payload, kTable);
        net::AppendCell(&payload, op.cells[i]);
        net::AppendU64(&payload, slot.payloads[i]);
      }
      Send(s, MessageType::kWrite, payload);
      return;
    case OpKind::kBoxQuery:
      net::AppendString(&payload, kTable);
      net::AppendBox(&payload, (*boxes_)[op.box]);
      for (int i = 0; i < 4; ++i) net::AppendU64(&payload, 0);  // no budgets
      Send(s, MessageType::kOpenBoxCursor, payload);
      return;
    case OpKind::kIndexQuery:
      slot.acked_at_send = static_cast<uint32_t>(
          model_->AckedInBox(Transpose((*boxes_)[op.box])).count);
      net::AppendString(&payload, kTable);
      net::AppendString(&payload, kIndex);
      net::AppendBox(&payload, (*boxes_)[op.box]);
      for (int i = 0; i < 4; ++i) net::AppendU64(&payload, 0);
      Send(s, MessageType::kOpenIndexCursor, payload);
      return;
  }
}

void WireLoad::SendNext(uint32_t s) {
  std::vector<uint8_t> payload;
  net::AppendU64(&payload, slots_[s].cursor);
  net::AppendU32(&payload, kChunkEntries);
  Send(s, MessageType::kCursorNext, payload);
}

void WireLoad::Send(uint32_t s, MessageType type,
                    const std::vector<uint8_t>& payload) {
  slots_[s].expect_type = TypeByte(type);
  const uint64_t t0 = time_protocol_ ? NowNs() : 0;
  const std::vector<uint8_t> frame =
      net::EncodeFrame(++next_request_id_, TypeByte(type), payload);
  if (time_protocol_) {
    net::Frame decoded;
    scratch_.Feed(frame.data(), frame.size());
    if (!scratch_.Next(&decoded).ok()) broken_ = true;
    result_->request_ns += NowNs() - t0;
    ++result_->request_frames;
  }
  out_.insert(out_.end(), frame.begin(), frame.end());
  awaiting_.push_back(s);
}

void WireLoad::FlushOut() {
  while (fd_ >= 0 && out_at_ < out_.size()) {
    const ssize_t n = ::send(fd_, out_.data() + out_at_, out_.size() - out_at_,
                             MSG_DONTWAIT | MSG_NOSIGNAL);
    if (n > 0) {
      out_at_ += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    Kill();
    return;
  }
  out_.clear();
  out_at_ = 0;
}

void WireLoad::Read() {
  while (fd_ >= 0) {
    const size_t want =
        std::min(recv_buf_.size(), body_left_ > 0
                                       ? body_left_
                                       : net::kFrameHeaderBytes - header_have_);
    iovec iov = {recv_buf_.data(), want};
    alignas(cmsghdr) char control[CMSG_SPACE(sizeof(timespec))];
    msghdr msg = {};
    msg.msg_iov = &iov;
    msg.msg_iovlen = 1;
    msg.msg_control = control;
    msg.msg_controllen = sizeof control;
    const ssize_t n = ::recvmsg(fd_, &msg, MSG_DONTWAIT);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    if (n <= 0) {
      Kill();  // EOF or a hard error: the server dropped us
      return;
    }
    const auto bytes = static_cast<size_t>(n);
    decoder_.Feed(recv_buf_.data(), bytes);
    if (!EndsFrame(recv_buf_.data(), bytes)) continue;

    uint64_t arrival = NowNs();  // if the kernel gave no timestamp
    for (cmsghdr* c = CMSG_FIRSTHDR(&msg); c != nullptr;
         c = CMSG_NXTHDR(&msg, c)) {
      if (c->cmsg_level != SOL_SOCKET || c->cmsg_type != SCM_TIMESTAMPNS) {
        continue;
      }
      timespec ts = {};
      std::memcpy(&ts, CMSG_DATA(c), sizeof ts);
      arrival = static_cast<uint64_t>(
          static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec -
          realtime_offset_ns_);
    }
    const uint64_t t0 = time_protocol_ ? NowNs() : 0;
    net::Frame frame;
    if (decoder_.Next(&frame).ok()) OnFrame(frame, arrival, t0);
    if (fd_ >= 0 && decoder_.poisoned()) Kill();
  }
}

bool WireLoad::EndsFrame(const uint8_t* data, size_t n) {
  if (body_left_ > 0) {
    body_left_ -= n;
    return body_left_ == 0;
  }
  std::memcpy(header_.data() + header_have_, data, n);
  header_have_ += n;
  if (header_have_ < header_.size()) return false;
  uint32_t len = 0;
  std::memcpy(&len, header_.data(), sizeof len);  // little-endian u32
  body_left_ = len;
  header_have_ = 0;
  // An impossible length ends the frame here: the decoder then reports
  // the corruption instead of this loop waiting for a body.
  return len < net::kMinFrameBody || len > net::kDefaultMaxFrameBytes;
}

void WireLoad::Kill() {
  if (fd_ < 0) return;
  ::close(fd_);
  fd_ = -1;
  broken_ = true;
  const uint64_t now = NowNs();
  while (!awaiting_.empty()) {
    const uint32_t s = awaiting_.front();
    awaiting_.pop_front();
    Finish(s, false, now);
  }
}

void WireLoad::OnFrame(const net::Frame& frame, uint64_t now,
                       uint64_t decode_start_ns) {
  if (awaiting_.empty()) {
    Kill();  // a response nobody asked for
    return;
  }
  const uint32_t s = awaiting_.front();
  awaiting_.pop_front();
  Slot& slot = slots_[s];
  net::Response response;
  const bool decoded = net::DecodeResponse(frame, &response).ok();
  if (time_protocol_) {
    // The server's half of a response: encoding the frame (its size is
    // checked so the call cannot be optimized away).
    const std::vector<uint8_t> again =
        net::EncodeFrame(frame.request_id, frame.type, frame.payload);
    if (again.size() != frame.payload.size() + net::kFrameHeaderBytes +
                            net::kMinFrameBody) {
      broken_ = true;
    }
    result_->response_ns += NowNs() - decode_start_ns;
    ++result_->response_frames;
  }
  if (!decoded || response.request_type != slot.expect_type ||
      !response.status.ok()) {
    Finish(s, false, now);
    return;
  }
  const Op& op = slot.op;
  switch (op.kind) {
    case OpKind::kGet:
      result_->rows += response.payloads.size();
      Finish(s, model_->CheckGet(op.cells[0], response.payloads,
                                 slot.acked_at_send),
             now);
      return;
    case OpKind::kPut:
    case OpKind::kWrite:
      for (uint32_t i = 0; i < op.num_cells; ++i) {
        model_->AckPut(slot.payloads[i]);
      }
      Finish(s, true, now);
      return;
    case OpKind::kBoxQuery:
    case OpKind::kIndexQuery: {
      if (slot.expect_type != TypeByte(MessageType::kCursorNext)) {
        slot.cursor = response.cursor_id;
        SendNext(s);
        return;
      }
      const Box& pool_box = (*boxes_)[op.box];
      const Box box =
          op.kind == OpKind::kBoxQuery ? pool_box : Transpose(pool_box);
      for (const SpatialEntry& entry : response.entries) {
        slot.tally.Add(*model_, box, entry.cell, entry.payload);
      }
      if ((response.flags & net::kCursorDone) == 0) {
        SendNext(s);
        return;
      }
      // Base rows are never overwritten, so they must match exactly; a
      // write acknowledged before the query was sent must be visible.
      bool ok = slot.tally.ok && slot.tally.base == (*expected_)[op.box] &&
                slot.tally.writes.count >= slot.acked_at_send;
      result_->rows += slot.tally.base.count + slot.tally.writes.count;
      Finish(s, ok, now);
      return;
    }
  }
}

void WireLoad::Finish(uint32_t s, bool ok, uint64_t now) {
  const Slot& slot = slots_[s];
  if (!ok) ++result_->failed;
  if (IsReadKind(slot.op.kind)) ++result_->read_ops;
  // A saturation phase needs only its completion count; keeping no
  // samples there keeps the bench's own memory independent of throughput.
  if (mode_ == Mode::kOpen || time_protocol_) {
    result_->latency_ns.push_back(now > slot.due_ns ? now - slot.due_ns : 0);
  }
  if (now <= end_ns_) ++result_->completed_in_window;
  free_slots_.push_back(s);
  if (mode_ == Mode::kClosed && Issuing(now)) StartOp(ops_->Next(), now);
}

}  // namespace onion::e2e
