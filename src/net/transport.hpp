// SocketTransport — the rt::Transport over real TCP / Unix-domain sockets.
//
// One SocketTransport lives in each process of a net-backend run: every
// device process owns endpoint d, the coordinator process owns the extra
// identity K (= num_devices; addressable for control frames but not a
// collective endpoint — size() stays K). Peers form a full mesh: the
// higher id dials the lower (the coordinator dials every device, device d
// dials devices 0..d-1) and each connection opens with a kHello handshake
// carrying magic / wire version / the dialer's device id / the run epoch —
// a mismatch on any of them closes the connection, so a stray process from
// another run can never join the mesh.
//
// A single poll()-driven IO thread per process accepts, reads and closes
// every fd: it parses frames incrementally (rt/wire_format.hpp — malformed
// input drops the connection, truncated input waits), answers kPing with
// kPong even while the worker thread is busy or wedged (the exact analogue
// of the inproc endpoint daemon: a silently-dead worker still handshakes
// true and must be fenced by heartbeat timeout, §III-D), and drains the
// per-peer send queues. A sending thread writes its frame to the
// non-blocking socket itself when nothing is queued on that connection,
// under the connection's write lock (never under the transport mutex), so
// frames never interleave and keep their order; what the kernel does not
// take is queued, and only then is the IO thread woken to flush it. Sends
// never block in the kernel; beyond a per-connection backpressure cap
// (kMaxQueuedBytes) the sending thread waits for the queue to drain.
//
// Rendezvous (`isend`) sends carry a sequence number and the want-ack
// flag; the receiver acks when the message is *popped* from its mailbox
// (consumed), nacks when it is purged, and a connection loss resolves all
// in-flight sends to that peer as dropped — matching InprocTransport's
// PendingSend semantics exactly, which is what lets rt/collectives.cpp and
// rt/worker.cpp run unchanged over sockets.
//
// Frame traffic is NOT the accounted volume: like the inproc backend, the
// VolumeCounters price the algorithm's exchanges (payload wire_bytes and
// account() calls); framing overhead, acks, beats and control frames show
// up only in the net.* counters (bytes on the wire, frames, connects,
// disconnects, dial retries).
#pragma once

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "obs/metrics.hpp"
#include "rt/mailbox.hpp"
#include "rt/transport.hpp"
#include "rt/wire_format.hpp"

namespace hadfl::net {

using rt::DeviceId;
using rt::Message;

enum class TransportKind { kTcp, kUds };

struct SocketTransportOptions {
  /// This process's identity: a device id in [0, num_devices) or
  /// num_devices for the coordinator.
  DeviceId self = 0;
  std::size_t num_devices = 0;
  /// Run nonce: both ends of every connection must present the same value
  /// in their kHello (a device from a stale run is rejected at accept).
  std::uint64_t epoch = 0;
  TransportKind kind = TransportKind::kTcp;
  /// TCP: this endpoint's pre-bound listener fd (-1 = do not listen — the
  /// coordinator only dials). UDS: ignored; the listener is bound at
  /// `socket_dir`/node-<self>.sock.
  int listen_fd = -1;
  /// TCP: loopback port of device d's listener, size num_devices.
  std::vector<std::uint16_t> peer_ports;
  /// UDS: directory holding node-<id>.sock for every device.
  std::string socket_dir;
  double connect_timeout_s = 10.0;
  /// Destructor-side bound on flushing queued frames (kStopped reports).
  double drain_timeout_s = 2.0;
  /// Devices expect an inbound coordinator connection; transport-only
  /// tests that build a coordinator-less device mesh set this to false.
  bool expect_coordinator = true;
};

/// What a frame carries, for the per-class frame counters: payload chunks
/// (kData), rendezvous answers (kAck, kNack), heartbeats (kBeat), commands
/// and reports (kControl), and the rest (handshake, ping/pong, cancel).
enum class FrameClass : std::uint8_t { kData, kAck, kBeat, kControl, kOther };
inline constexpr std::size_t kFrameClassCount = 5;

/// Monotonic socket-layer counters (all frames, framing bytes included).
struct NetCounters {
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_received = 0;
  std::uint64_t frames_sent = 0;      ///< every class
  std::uint64_t frames_received = 0;  ///< every class
  /// Frames by FrameClass (index = the enum value).
  std::array<std::uint64_t, kFrameClassCount> frames_sent_by_class{};
  std::array<std::uint64_t, kFrameClassCount> frames_received_by_class{};
  std::uint64_t connects = 0;      ///< handshakes completed
  std::uint64_t disconnects = 0;   ///< established connections lost/closed
  std::uint64_t dial_retries = 0;  ///< reconnect attempts while dialing
};

class SocketTransport final : public rt::Transport {
 public:
  /// Starts the IO thread and begins dialing the lower-id peers in the
  /// background — the constructor never blocks, so several transports can
  /// be built sequentially in one process (tests) or concurrently across
  /// processes (the fleet). Call wait_ready() before using the mesh.
  explicit SocketTransport(SocketTransportOptions options);
  ~SocketTransport() override;

  /// Blocks until every expected peer connection is established. Throws
  /// CommError when a dial failed or `options.connect_timeout_s` elapsed
  /// with the mesh incomplete.
  void wait_ready();

  /// Peers this endpoint expects to be connected to once ready.
  std::size_t expected_peers() const;

  // ---- rt::Transport ----
  std::size_t size() const override { return k_; }
  std::shared_ptr<rt::PendingSend> isend(DeviceId src, DeviceId dst,
                                         Message msg) override;
  void send_nonblocking(DeviceId src, DeviceId dst, Message msg) override;
  Message recv_match(DeviceId dst, DeviceId from, std::int64_t tag,
                     double timeout_s) override;
  std::optional<Message> recv_any(DeviceId dst, double timeout_s) override;
  bool handshake(DeviceId src, DeviceId dst, double timeout_s) override;
  void kill(DeviceId id) override;
  bool alive(DeviceId id) const override;
  std::size_t purge_stale(DeviceId dst,
                          std::int64_t min_collective_id) override;
  void account(DeviceId src, DeviceId dst, std::size_t bytes) override;
  comm::VolumeCounters volume() const override;
  rt::BufferPool& pool() override { return pool_; }
  double link_delay_s(DeviceId, DeviceId, std::size_t) const override {
    return 0.0;  // sockets move at real network speed
  }

  // ---- net extras (control plane, liveness, abort propagation) ----
  DeviceId self() const { return self_; }
  DeviceId coordinator_id() const { return static_cast<DeviceId>(k_); }

  /// Sends a kControl body (net/codec.hpp) to `endpoint` (a device id or
  /// coordinator_id()). False when the link is down — the frame is dropped.
  bool send_control(DeviceId endpoint, std::span<const std::uint8_t> body);
  /// Invoked on the IO thread for every inbound kControl body.
  ///
  /// Handler contract (all three setters): the handler runs under the
  /// transport mutex and must not re-enter the transport. Frames that
  /// arrive before a handler is registered are queued and replayed, in
  /// order, when it is (see pending_* below). Setting nullptr detaches
  /// AND synchronizes — once the setter returns, no invocation is in
  /// flight, so objects the handler captured may be destroyed. Owners of
  /// captured state must detach before that state dies (net/runner.cpp's
  /// HandlerReset).
  void set_control_handler(
      std::function<void(DeviceId src, std::vector<std::uint8_t> body)> fn);

  /// Device side: one heartbeat frame to the coordinator (drops silently
  /// when the link is down — the missing beat IS the signal).
  void send_beat();
  /// Coordinator side: invoked on the IO thread per inbound kBeat.
  void set_beat_handler(std::function<void(DeviceId)> fn);

  /// Coordinator side: pushes a kCancel for `collective_id` to `dst`.
  void send_cancel(DeviceId dst, std::int64_t collective_id);
  /// Device side: invoked on the IO thread per inbound kCancel.
  void set_cancel_handler(std::function<void(std::int64_t)> fn);

  /// Device side: true while the connection to the coordinator is up.
  bool coordinator_link_up() const;

  NetCounters counters() const;
  /// Adds the net.* counters to `registry`: the totals net.frames_sent and
  /// net.frames_received plus net.<class>_frames_sent/_received per
  /// FrameClass (data, ack, beat, control, other).
  void export_metrics(obs::MetricsRegistry& registry) const;

 private:
  /// Lock order: mu_ before a connection's tx_mu; no thread takes mu_
  /// while it holds a tx_mu. Under tx_mu run only sends and the IO
  /// thread's deferred close.
  struct Conn {
    int fd = -1;  ///< closed and reset by the IO thread under mu_ + tx_mu
    DeviceId peer = 0;
    bool peer_known = false;   ///< dialed, or kHello received
    bool established = false;  ///< hello exchange complete
    bool closed = false;       ///< guarded by mu_
    std::vector<std::uint8_t> rx;  // IO-thread-owned reassembly buffer
    // Send side, guarded by tx_mu: only a holder writes to fd.
    std::mutex tx_mu;
    bool tx_closed = false;  ///< set with `closed`: nothing more goes out
    std::deque<std::vector<std::uint8_t>> tx;
    std::size_t tx_offset = 0;  ///< bytes of tx.front() already written
    /// Bytes of the frames in tx (written under tx_mu; read without it for
    /// the backpressure cap and the IO thread's POLLOUT interest).
    std::atomic<std::size_t> tx_bytes{0};
  };

  struct Envelope {
    Message msg;
    DeviceId from_endpoint = 0;  ///< connection peer (for the ack path)
    std::uint64_t seq = 0;
    bool want_ack = false;
  };

  static constexpr std::size_t kMaxQueuedBytes = std::size_t{64} << 20;

  void io_loop();
  void wake_io() const;
  void handle_readable(std::size_t conn_index);
  void dispatch_frame(std::size_t conn_index, const rt::FrameHeader& header,
                      std::span<const std::uint8_t> body);
  /// Closes the connection and resolves everything pending on it
  /// (in-flight rendezvous sends drop, waiters wake).
  void drop_conn_locked(std::size_t conn_index);
  /// Sends a frame to the peer: written at once when nothing is queued on
  /// the connection, else (and for whatever the kernel does not take)
  /// queued for the IO thread. False when the link is down.
  bool enqueue_frame(DeviceId endpoint, rt::FrameType type,
                     std::vector<std::uint8_t> frame, bool allow_block);
  /// Writes queued frames until the socket would block; false on a send
  /// error (the caller drops the connection). Needs conn.tx_mu held.
  static bool flush_locked(Conn& conn);
  void count_sent(rt::FrameType type, std::size_t bytes);
  bool establish_locked(std::size_t conn_index, DeviceId peer);
  void send_ack(DeviceId endpoint, rt::FrameType type, std::uint64_t seq);
  void dial_peers();
  std::size_t established_count_locked() const;
  void count_device(DeviceId id) const;

  const std::size_t k_;
  const DeviceId self_;
  const SocketTransportOptions options_;

  mutable std::mutex mu_;
  std::condition_variable cv_;  // established/backpressure/pong waiters
  std::vector<std::unique_ptr<Conn>> conns_;
  std::vector<int> conn_of_;  ///< endpoint id -> conns_ index, -1 = none
  std::unordered_map<std::uint64_t,
                     std::pair<std::shared_ptr<rt::PendingSend>, DeviceId>>
      pending_;
  std::unordered_set<std::uint64_t> pongs_;
  std::uint64_t next_seq_ = 1;
  bool self_alive_ = true;
  bool stopping_ = false;
  std::string dial_error_;  ///< non-empty = the background dial failed

  rt::Mailbox<Envelope> inbox_;
  rt::BufferPool pool_;

  std::vector<std::atomic<std::size_t>> sent_;
  std::vector<std::atomic<std::size_t>> received_;

  std::atomic<std::uint64_t> bytes_sent_{0};
  std::atomic<std::uint64_t> bytes_received_{0};
  std::array<std::atomic<std::uint64_t>, kFrameClassCount> frames_sent_{};
  std::array<std::atomic<std::uint64_t>, kFrameClassCount> frames_received_{};
  std::atomic<std::uint64_t> connects_{0};
  std::atomic<std::uint64_t> disconnects_{0};
  std::atomic<std::uint64_t> dial_retries_{0};

  std::function<void(DeviceId, std::vector<std::uint8_t>)> control_handler_;
  std::function<void(DeviceId)> beat_handler_;
  std::function<void(std::int64_t)> cancel_handler_;
  // Frames that arrived before the matching handler was registered. A TCP
  // listener is pre-bound by the fleet parent, so the coordinator's first
  // commands can already sit in our socket buffer when the IO thread starts
  // — i.e. before run_hadfl_node had a chance to call set_control_handler.
  // Dropping them would wedge the run; instead they queue here and the
  // set_*_handler call drains them under mu_ (so a concurrently arriving
  // frame cannot overtake the backlog).
  std::vector<std::pair<DeviceId, std::vector<std::uint8_t>>> pending_control_;
  std::vector<DeviceId> pending_beats_;
  std::vector<std::int64_t> pending_cancels_;

  int listen_fd_ = -1;
  int wake_pipe_[2] = {-1, -1};
  std::thread io_thread_;
  std::thread dial_thread_;
};

}  // namespace hadfl::net
