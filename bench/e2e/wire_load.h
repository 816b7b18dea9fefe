// The load generator: one client per connection, each on its own thread,
// speaking net/protocol.h directly over a non-blocking loopback socket.
// An op is one Get, one Put or WriteBatch, or one whole box or index
// query (the open plus every kCursorNext chunk); every response is
// checked against the shared Model as it arrives.
//
// Two load shapes:
//   closed  the client keeps `window` ops in flight and starts the next
//           one when one completes; latency runs from the start.
//   open    Poisson arrivals at a fixed rate, with no window; latency
//           runs from the SCHEDULED send time, so a stall is charged to
//           every op that waited behind it (wrk2's coordinated-omission
//           fix). An op due while kMaxInFlight ops are outstanding is
//           refused and counted as failed.
// An op's latency ends at the kernel's receive timestamp of its last
// response byte (SO_TIMESTAMPNS), not when this thread gets to read it:
// the socket is read one frame at a time, so each read's timestamp is
// that of the segment carrying the frame's end. How fast the generator
// thread wakes up or how long it spends checking other responses then
// stays out of the measured latency. Giving every connection its own
// thread keeps the check of one large response from delaying the sends
// of the others.

#ifndef ONION_BENCH_E2E_WIRE_LOAD_H_
#define ONION_BENCH_E2E_WIRE_LOAD_H_

#include <array>
#include <cstdint>
#include <ctime>
#include <deque>
#include <vector>

#include "common/status.h"
#include "net/protocol.h"
#include "workload.h"

namespace onion::e2e {

/// Outstanding ops per connection before the open loop refuses one.
inline constexpr size_t kMaxInFlight = 1024;

/// Monotonic nanoseconds (steady_clock).
uint64_t NowNs();
/// CPU time on `clock` (CLOCK_THREAD_CPUTIME_ID, CLOCK_PROCESS_CPUTIME_ID),
/// in nanoseconds.
uint64_t CpuNs(clockid_t clock);

struct PhaseResult {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t refused = 0;
  /// Ops completed inside the phase window (closed-loop throughput).
  uint64_t completed_in_window = 0;
  double seconds = 0;
  /// Per completed op, in ns: from scheduled send (open) or start (closed,
  /// kept only when timing the protocol) to the last response byte.
  std::vector<uint64_t> latency_ns;
  /// Open loop: how late each op was sent after its scheduled time.
  std::vector<uint64_t> late_ns;
  uint64_t read_ops = 0;
  uint64_t rows = 0;
  /// CPU time of the generator threads: their sum, and the busiest one.
  uint64_t loadgen_cpu_ns = 0;
  uint64_t loadgen_max_cpu_ns = 0;
  /// Protocol cost, filled only when timing is requested: request frames
  /// are built, encoded and decoded once more the way the server decodes
  /// them; response frames are decoded and encoded once more the way the
  /// server encodes them.
  uint64_t request_frames = 0;
  uint64_t request_ns = 0;
  uint64_t response_frames = 0;
  uint64_t response_ns = 0;

  /// Adds another connection's result of the same phase.
  void Merge(const PhaseResult& other);
};

/// One client connection. Not thread-safe: one thread drives it at a time.
class WireLoad {
 public:
  /// `boxes`: the workload's query pool; `expected`: base rows per box.
  WireLoad(Model* model, const std::vector<Box>* boxes,
           const std::vector<Expect>* expected)
      : model_(model), boxes_(boxes), expected_(expected) {}
  ~WireLoad();

  WireLoad(const WireLoad&) = delete;
  WireLoad& operator=(const WireLoad&) = delete;

  Status Connect(uint16_t port);
  /// True once the connection broke or a protocol self-check failed.
  bool broken() const { return broken_; }

  /// Closed loop for `seconds`, or until `max_ops` ops have started
  /// (0 = no cap); then drains.
  PhaseResult RunClosed(OpStream* ops, double seconds, uint32_t window,
                        uint64_t max_ops, bool time_protocol);
  /// Open loop at `rate` ops/s for `seconds`; then drains.
  PhaseResult RunOpen(OpStream* ops, double seconds, double rate,
                      uint64_t arrival_seed);

 private:
  struct Slot {
    Op op;
    uint64_t due_ns = 0;
    uint8_t expect_type = 0;
    uint64_t cursor = 0;
    /// Writes acknowledged before the op was sent: to its cell (Get) or
    /// inside its box (index query). The response must show them all.
    uint32_t acked_at_send = 0;
    std::array<uint64_t, kBatchPuts> payloads{};
    RowTally tally;
  };

  enum class Mode { kClosed, kOpen };

  PhaseResult Run(Mode mode, OpStream* ops, double seconds, uint32_t window,
                  uint64_t max_ops, double rate, uint64_t arrival_seed,
                  bool time_protocol);
  /// Waits up to `wait_ns` for the socket, then sends what is pending and
  /// handles every response that has arrived.
  void Poll(uint64_t wait_ns);
  /// Whether the running phase may start another op.
  bool Issuing(uint64_t now) const;
  void StartOp(const Op& op, uint64_t due_ns);
  void SendNext(uint32_t slot);
  void Send(uint32_t slot, net::MessageType type,
            const std::vector<uint8_t>& payload);
  void OnFrame(const net::Frame& frame, uint64_t now,
               uint64_t decode_start_ns);
  void Finish(uint32_t slot, bool ok, uint64_t now);
  void FlushOut();
  /// Reads and handles every response that has arrived, never reading
  /// past the end of a frame.
  void Read();
  /// Accounts `n` bytes just read; true when they end a frame or give it
  /// an impossible length.
  bool EndsFrame(const uint8_t* data, size_t n);
  /// Closes a connection the server broke; its outstanding ops fail.
  void Kill();

  Model* const model_;
  const std::vector<Box>* const boxes_;
  const std::vector<Expect>* const expected_;
  int fd_ = -1;
  net::FrameDecoder decoder_;
  // Where the next read stops: the rest of the frame header, or of the
  // body once the header has given its length.
  std::array<uint8_t, net::kFrameHeaderBytes> header_{};
  size_t header_have_ = 0;
  size_t body_left_ = 0;
  /// CLOCK_REALTIME (the receive timestamps' clock) minus NowNs().
  int64_t realtime_offset_ns_ = 0;
  std::vector<uint8_t> out_;
  size_t out_at_ = 0;
  std::deque<uint32_t> awaiting_;  // slot per request, in send order
  uint64_t next_request_id_ = 0;
  std::vector<Slot> slots_ = std::vector<Slot>(kMaxInFlight);
  std::vector<uint32_t> free_slots_;
  net::FrameDecoder scratch_;  // decodes request frames for timing
  std::vector<uint8_t> recv_buf_ = std::vector<uint8_t>(256 * 1024);

  // State of the running phase.
  PhaseResult* result_ = nullptr;
  OpStream* ops_ = nullptr;
  Mode mode_ = Mode::kClosed;
  uint64_t end_ns_ = 0;
  uint64_t max_ops_ = 0;
  uint64_t started_ = 0;
  bool time_protocol_ = false;
  bool broken_ = false;
};

}  // namespace onion::e2e

#endif  // ONION_BENCH_E2E_WIRE_LOAD_H_
