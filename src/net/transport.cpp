#include "net/transport.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>

#include "common/error.hpp"
#include "common/logging.hpp"
#include "net/socket_util.hpp"

namespace hadfl::net {

namespace {

using rt::DecodeStatus;
using rt::FrameHeader;
using rt::FrameType;
using rt::PendingSend;

constexpr double kPollSliceS = 0.05;

std::size_t accounted_bytes(const Message& msg) {
  return msg.wire_bytes != 0 ? msg.wire_bytes
                             : msg.payload.size() * sizeof(float);
}

std::string uds_path(const std::string& dir, DeviceId id) {
  return dir + "/node-" + std::to_string(id) + ".sock";
}

void bump(std::atomic<std::uint64_t>& counter, std::uint64_t n = 1) {
  counter.fetch_add(n, std::memory_order_relaxed);
}

/// The FrameClass index a frame of `type` counts under.
std::size_t frame_class(FrameType type) {
  switch (type) {
    case FrameType::kData:
      return static_cast<std::size_t>(FrameClass::kData);
    case FrameType::kAck:
    case FrameType::kNack:
      return static_cast<std::size_t>(FrameClass::kAck);
    case FrameType::kBeat:
      return static_cast<std::size_t>(FrameClass::kBeat);
    case FrameType::kControl:
      return static_cast<std::size_t>(FrameClass::kControl);
    default:
      return static_cast<std::size_t>(FrameClass::kOther);
  }
}

}  // namespace

SocketTransport::SocketTransport(SocketTransportOptions options)
    : k_(options.num_devices),
      self_(options.self),
      options_(std::move(options)),
      sent_(k_),
      received_(k_) {
  HADFL_CHECK_ARG(k_ > 0, "transport needs at least one device");
  HADFL_CHECK_ARG(self_ <= k_, "self id out of range");
  conn_of_.assign(k_ + 1, -1);
  for (auto& counter : sent_) counter.store(0, std::memory_order_relaxed);
  for (auto& counter : received_) counter.store(0, std::memory_order_relaxed);

  if (::pipe(wake_pipe_) != 0) {
    throw CommError("net: pipe: " + std::string(std::strerror(errno)));
  }
  set_nonblocking(wake_pipe_[0]);
  set_cloexec(wake_pipe_[0], true);
  set_cloexec(wake_pipe_[1], true);

  // Devices listen; the coordinator only dials.
  if (self_ < k_) {
    if (options_.kind == TransportKind::kUds) {
      listen_fd_ = make_uds_listener(uds_path(options_.socket_dir, self_));
    } else {
      listen_fd_ = options_.listen_fd;
      HADFL_CHECK_ARG(listen_fd_ >= 0,
                      "tcp device endpoint needs a listener fd");
    }
    set_nonblocking(listen_fd_);
    set_cloexec(listen_fd_, true);
  }

  io_thread_ = std::thread([this] { io_loop(); });
  dial_thread_ = std::thread([this] { dial_peers(); });
}

SocketTransport::~SocketTransport() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  cv_.notify_all();
  wake_io();
  if (dial_thread_.joinable()) dial_thread_.join();
  if (io_thread_.joinable()) io_thread_.join();
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& conn : conns_) {
      std::lock_guard<std::mutex> tx_lock(conn->tx_mu);
      close_fd(conn->fd);
      conn->fd = -1;
    }
    // Anyone still waiting on a rendezvous gets the dropped resolution.
    for (auto& [seq, entry] : pending_) entry.first->resolve(false);
    pending_.clear();
  }
  close_fd(listen_fd_);
  close_fd(wake_pipe_[0]);
  close_fd(wake_pipe_[1]);
  inbox_.close();
}

std::size_t SocketTransport::expected_peers() const {
  if (self_ == k_) return k_;  // coordinator: every device
  return (k_ - 1) + (options_.expect_coordinator ? 1 : 0);
}

void SocketTransport::dial_peers() {
  // Higher id dials lower: device d dials devices 0..d-1, the coordinator
  // (id K) dials every device. Each dial blocks with retry while the peer
  // process is still binding, then pushes a kHello and hands the fd to the
  // IO thread, which waits for the kHelloAck.
  std::uint64_t retries = 0;
  try {
    const std::size_t targets = std::min<std::size_t>(self_, k_);
    for (DeviceId target = 0; target < targets; ++target) {
      int fd = -1;
      if (options_.kind == TransportKind::kUds) {
        fd = dial_uds(uds_path(options_.socket_dir, target),
                      options_.connect_timeout_s, &retries);
      } else {
        HADFL_CHECK_ARG(options_.peer_ports.size() == k_,
                        "tcp transport needs one peer port per device");
        fd = dial_tcp(options_.peer_ports[target], options_.connect_timeout_s,
                      &retries);
      }
      set_cloexec(fd, true);
      std::vector<std::uint8_t> hello_body;
      rt::append_hello_body(
          hello_body,
          rt::HelloBody{static_cast<std::uint32_t>(self_), options_.epoch});
      std::vector<std::uint8_t> frame;
      append_frame(frame, FrameType::kHello, 0,
                   static_cast<std::uint32_t>(self_), hello_body);
      write_all(fd, frame.data(), frame.size());
      count_sent(FrameType::kHello, frame.size());
      set_nonblocking(fd);
      {
        std::lock_guard<std::mutex> lock(mu_);
        if (stopping_) {
          close_fd(fd);
          return;
        }
        auto conn = std::make_unique<Conn>();
        conn->fd = fd;
        conn->peer = target;
        conn->peer_known = true;
        conns_.push_back(std::move(conn));
      }
      wake_io();
    }
  } catch (const Error& e) {
    std::lock_guard<std::mutex> lock(mu_);
    dial_error_ = e.what();
    cv_.notify_all();
  }
  dial_retries_.fetch_add(retries, std::memory_order_relaxed);
}

void SocketTransport::wait_ready() {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(
                            options_.connect_timeout_s);
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait_until(lock, deadline, [this] {
    return !dial_error_.empty() ||
           established_count_locked() >= expected_peers();
  });
  if (!dial_error_.empty()) {
    throw CommError("net: endpoint " + std::to_string(self_) +
                    " dial failed: " + dial_error_);
  }
  if (established_count_locked() < expected_peers()) {
    throw CommError("net: endpoint " + std::to_string(self_) +
                    " mesh incomplete after " +
                    std::to_string(options_.connect_timeout_s) + "s (" +
                    std::to_string(established_count_locked()) + "/" +
                    std::to_string(expected_peers()) + " peers)");
  }
}

std::size_t SocketTransport::established_count_locked() const {
  std::size_t count = 0;
  for (const auto& conn : conns_) {
    if (conn->established && !conn->closed) ++count;
  }
  return count;
}

void SocketTransport::wake_io() const {
  const char byte = 'w';
  [[maybe_unused]] const ssize_t written =
      ::write(wake_pipe_[1], &byte, 1);
}

void SocketTransport::count_device(DeviceId id) const {
  HADFL_CHECK_ARG(id < k_, "device id " << id << " out of range");
}

// ---------------------------------------------------------------------
// IO thread
// ---------------------------------------------------------------------

void SocketTransport::io_loop() {
  bool stop_seen = false;
  std::chrono::steady_clock::time_point drain_deadline{};
  std::vector<pollfd> fds;
  std::vector<int> fd_conn;  // conns_ index per pollfd entry; -1 = special
  for (;;) {
    fds.clear();
    fd_conn.clear();
    fds.push_back(pollfd{wake_pipe_[0], POLLIN, 0});
    fd_conn.push_back(-1);
    if (listen_fd_ >= 0) {
      fds.push_back(pollfd{listen_fd_, POLLIN, 0});
      fd_conn.push_back(-2);
    }
    bool tx_pending = false;
    {
      std::unique_lock<std::mutex> lock(mu_);
      if (stopping_ && !stop_seen) {
        stop_seen = true;
        drain_deadline =
            std::chrono::steady_clock::now() +
            std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                std::chrono::duration<double>(options_.drain_timeout_s));
      }
      for (std::size_t i = 0; i < conns_.size(); ++i) {
        Conn& conn = *conns_[i];
        if (conn.closed && conn.fd >= 0) {
          // Deferred close: only the IO thread releases fd numbers, so a
          // concurrently-polled fd can never be reused under us — and it
          // holds the write lock, so no sender is mid-send on it either.
          std::lock_guard<std::mutex> tx_lock(conn.tx_mu);
          close_fd(conn.fd);
          conn.fd = -1;
        }
        if (conn.fd < 0) continue;
        short events = POLLIN;
        if (conn.tx_bytes.load() > 0) {
          events |= POLLOUT;
          tx_pending = true;
        }
        fds.push_back(pollfd{conn.fd, events, 0});
        fd_conn.push_back(static_cast<int>(i));
      }
    }
    if (stop_seen &&
        (!tx_pending ||
         std::chrono::steady_clock::now() >= drain_deadline)) {
      return;
    }
    const int ready = ::poll(fds.data(), fds.size(),
                             static_cast<int>(kPollSliceS * 1000));
    if (ready < 0) {
      if (errno == EINTR) continue;
      return;
    }
    for (std::size_t p = 0; p < fds.size(); ++p) {
      if (fds[p].revents == 0) continue;
      if (fd_conn[p] == -1) {  // wake pipe
        char buf[64];
        while (::read(wake_pipe_[0], buf, sizeof(buf)) > 0) {
        }
        continue;
      }
      if (fd_conn[p] == -2) {  // listener
        for (;;) {
          const int fd = ::accept(listen_fd_, nullptr, nullptr);
          if (fd < 0) break;
          set_nonblocking(fd);
          set_cloexec(fd, true);
          set_tcp_nodelay(fd);
          std::lock_guard<std::mutex> lock(mu_);
          auto conn = std::make_unique<Conn>();
          conn->fd = fd;
          conns_.push_back(std::move(conn));
        }
        continue;
      }
      const auto ci = static_cast<std::size_t>(fd_conn[p]);
      if (fds[p].revents & (POLLERR | POLLHUP | POLLNVAL)) {
        // Flush anything already received before tearing down — the peer
        // may have written (e.g. its kStopped report) and then exited.
        if (fds[p].revents & POLLIN) handle_readable(ci);
        std::lock_guard<std::mutex> lock(mu_);
        drop_conn_locked(ci);
        continue;
      }
      if (fds[p].revents & POLLIN) handle_readable(ci);
      if (fds[p].revents & POLLOUT) {
        Conn* conn = nullptr;
        {
          std::lock_guard<std::mutex> lock(mu_);
          conn = conns_[ci].get();
        }
        bool ok = true;
        {
          std::lock_guard<std::mutex> tx_lock(conn->tx_mu);
          if (!conn->tx_closed) ok = flush_locked(*conn);
        }
        std::lock_guard<std::mutex> lock(mu_);
        if (!ok) drop_conn_locked(ci);
        if (conn->tx_bytes.load() < kMaxQueuedBytes) cv_.notify_all();
      }
    }
  }
}

void SocketTransport::handle_readable(std::size_t conn_index) {
  // Conn objects are heap-stable (unique_ptr), but the conns_ vector itself
  // may be concurrently grown by the dial thread — index it under the lock.
  Conn* conn_ptr = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    conn_ptr = conns_[conn_index].get();
  }
  Conn& conn = *conn_ptr;
  std::uint8_t buf[64 * 1024];
  bool peer_gone = false;
  for (;;) {
    const ssize_t n = ::read(conn.fd, buf, sizeof(buf));
    if (n > 0) {
      conn.rx.insert(conn.rx.end(), buf, buf + n);
      bytes_received_.fetch_add(static_cast<std::uint64_t>(n),
                                std::memory_order_relaxed);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n < 0 && errno == EINTR) continue;
    peer_gone = true;  // EOF or hard error — process what arrived first
    break;
  }
  std::size_t offset = 0;
  for (;;) {
    FrameHeader header;
    const std::span<const std::uint8_t> rest(conn.rx.data() + offset,
                                             conn.rx.size() - offset);
    const DecodeStatus status = rt::decode_frame_header(rest, header);
    if (status == DecodeStatus::kNeedMore) break;
    if (status == DecodeStatus::kError) {
      HADFL_DEBUG("net: endpoint " << self_
                                   << ": malformed frame header, dropping "
                                      "connection");
      std::lock_guard<std::mutex> lock(mu_);
      drop_conn_locked(conn_index);
      return;
    }
    if (rest.size() < rt::kFrameHeaderBytes + header.body_len) break;
    bump(frames_received_[frame_class(header.type)]);
    dispatch_frame(conn_index, header,
                   rest.subspan(rt::kFrameHeaderBytes, header.body_len));
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (conn.closed) return;  // dispatch dropped it (bad hello, ...)
    }
    offset += rt::kFrameHeaderBytes + header.body_len;
  }
  if (offset > 0) {
    conn.rx.erase(conn.rx.begin(),
                  conn.rx.begin() + static_cast<std::ptrdiff_t>(offset));
  }
  if (peer_gone) {
    std::lock_guard<std::mutex> lock(mu_);
    drop_conn_locked(conn_index);
  }
}

bool SocketTransport::establish_locked(std::size_t conn_index,
                                       DeviceId peer) {
  Conn& conn = *conns_[conn_index];
  if (peer > k_ || peer == self_ || conn_of_[peer] != -1) return false;
  conn.peer = peer;
  conn.peer_known = true;
  conn.established = true;
  conn_of_[peer] = static_cast<int>(conn_index);
  connects_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void SocketTransport::dispatch_frame(std::size_t conn_index,
                                     const FrameHeader& header,
                                     std::span<const std::uint8_t> body) {
  Conn* conn_ptr = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    conn_ptr = conns_[conn_index].get();
  }
  Conn& conn = *conn_ptr;
  switch (header.type) {
    case FrameType::kHello: {
      rt::HelloBody hello;
      if (!rt::decode_hello_body(body, hello) ||
          hello.epoch != options_.epoch) {
        std::lock_guard<std::mutex> lock(mu_);
        drop_conn_locked(conn_index);
        return;
      }
      std::vector<std::uint8_t> ack_body;
      rt::append_hello_body(
          ack_body,
          rt::HelloBody{static_cast<std::uint32_t>(self_), options_.epoch});
      std::vector<std::uint8_t> frame;
      append_frame(frame, FrameType::kHelloAck, 0,
                   static_cast<std::uint32_t>(self_), ack_body);
      {
        std::unique_lock<std::mutex> lock(mu_);
        if (!establish_locked(conn_index,
                              static_cast<DeviceId>(hello.device_id))) {
          drop_conn_locked(conn_index);
          return;
        }
        // Queued while mu_ still hides the connection from senders, so the
        // ack goes out ahead of any frame they send; this IO thread writes
        // it on its next pass.
        count_sent(FrameType::kHelloAck, frame.size());
        std::lock_guard<std::mutex> tx_lock(conn.tx_mu);
        conn.tx_bytes += frame.size();
        conn.tx.push_back(std::move(frame));
      }
      cv_.notify_all();
      return;
    }
    case FrameType::kHelloAck: {
      rt::HelloBody hello;
      std::lock_guard<std::mutex> lock(mu_);
      if (!rt::decode_hello_body(body, hello) ||
          hello.epoch != options_.epoch || !conn.peer_known ||
          static_cast<DeviceId>(hello.device_id) != conn.peer ||
          !establish_locked(conn_index, conn.peer)) {
        drop_conn_locked(conn_index);
        return;
      }
      cv_.notify_all();
      return;
    }
    case FrameType::kData: {
      Message msg;
      std::uint64_t seq = 0;
      if (!rt::decode_data_body(body, pool_, msg, seq)) {
        std::lock_guard<std::mutex> lock(mu_);
        drop_conn_locked(conn_index);
        return;
      }
      msg.src = static_cast<DeviceId>(header.src);
      const bool want_ack = (header.flags & rt::kFrameFlagWantAck) != 0;
      if (self_ < k_) {
        received_[self_].fetch_add(accounted_bytes(msg),
                                   std::memory_order_relaxed);
      }
      Envelope envelope;
      envelope.msg = std::move(msg);
      envelope.from_endpoint = conn.peer;
      envelope.seq = seq;
      envelope.want_ack = want_ack;
      if (!inbox_.push(std::move(envelope))) {
        // Endpoint dead: refuse the message so the sender unblocks.
        if (want_ack) send_ack(conn.peer, FrameType::kNack, seq);
      }
      return;
    }
    case FrameType::kAck:
    case FrameType::kNack: {
      std::uint64_t seq = 0;
      if (!rt::decode_seq_body(body, seq)) return;
      std::shared_ptr<PendingSend> handle;
      {
        std::lock_guard<std::mutex> lock(mu_);
        auto it = pending_.find(seq);
        if (it == pending_.end()) return;
        handle = std::move(it->second.first);
        pending_.erase(it);
      }
      handle->resolve(header.type == FrameType::kAck);
      return;
    }
    case FrameType::kPing: {
      std::uint64_t seq = 0;
      if (!rt::decode_seq_body(body, seq)) return;
      // Answered here, on the IO thread, regardless of what the worker is
      // doing — the socket analogue of the inproc endpoint daemon.
      send_ack(conn.peer, FrameType::kPong, seq);
      return;
    }
    case FrameType::kPong: {
      std::uint64_t seq = 0;
      if (!rt::decode_seq_body(body, seq)) return;
      {
        std::lock_guard<std::mutex> lock(mu_);
        pongs_.insert(seq);
      }
      cv_.notify_all();
      return;
    }
    // Beat/cancel/control handlers are invoked while holding mu_ (they
    // never re-enter the transport): set_*_handler(nullptr) therefore
    // *synchronizes* with dispatch — once the setter returns, no handler
    // call is in flight or can start, so the caller may safely destroy
    // whatever the handler captured.
    case FrameType::kBeat: {
      std::lock_guard<std::mutex> lock(mu_);
      if (!beat_handler_) {
        pending_beats_.push_back(static_cast<DeviceId>(header.src));
        return;
      }
      beat_handler_(static_cast<DeviceId>(header.src));
      return;
    }
    case FrameType::kCancel: {
      rt::ByteReader reader(body);
      const std::int64_t cid = reader.i64();
      if (!reader.ok()) return;
      std::lock_guard<std::mutex> lock(mu_);
      if (!cancel_handler_) {
        pending_cancels_.push_back(cid);
        return;
      }
      cancel_handler_(cid);
      return;
    }
    case FrameType::kControl: {
      std::lock_guard<std::mutex> lock(mu_);
      if (!control_handler_) {
        pending_control_.emplace_back(
            static_cast<DeviceId>(header.src),
            std::vector<std::uint8_t>(body.begin(), body.end()));
        return;
      }
      control_handler_(static_cast<DeviceId>(header.src),
                       std::vector<std::uint8_t>(body.begin(), body.end()));
      return;
    }
  }
}

void SocketTransport::drop_conn_locked(std::size_t conn_index) {
  Conn& conn = *conns_[conn_index];
  if (conn.closed) return;
  conn.closed = true;
  if (conn.fd >= 0) {
    // Wake any poll/read on the fd; the IO thread does the actual close.
    ::shutdown(conn.fd, SHUT_RDWR);
  }
  if (conn.established) {
    disconnects_.fetch_add(1, std::memory_order_relaxed);
  }
  if (conn.peer_known && conn_of_[conn.peer] == static_cast<int>(conn_index)) {
    conn_of_[conn.peer] = -1;
  }
  {
    std::lock_guard<std::mutex> tx_lock(conn.tx_mu);
    conn.tx_closed = true;
    conn.tx.clear();
    conn.tx_offset = 0;
    conn.tx_bytes = 0;
  }
  // Every rendezvous in flight to this peer is now lost.
  std::vector<std::shared_ptr<PendingSend>> dropped;
  for (auto it = pending_.begin(); it != pending_.end();) {
    if (conn.peer_known && it->second.second == conn.peer) {
      dropped.push_back(std::move(it->second.first));
      it = pending_.erase(it);
    } else {
      ++it;
    }
  }
  for (auto& handle : dropped) handle->resolve(false);
  cv_.notify_all();
  wake_io();
}

// ---------------------------------------------------------------------
// Send paths (worker / coordinator threads)
// ---------------------------------------------------------------------

void SocketTransport::count_sent(FrameType type, std::size_t bytes) {
  bump(bytes_sent_, bytes);
  bump(frames_sent_[frame_class(type)]);
}

bool SocketTransport::flush_locked(Conn& conn) {
  while (!conn.tx.empty()) {
    const std::vector<std::uint8_t>& front = conn.tx.front();
    // MSG_NOSIGNAL: a peer that reset the connection fails the send
    // (EPIPE) instead of killing this process. The socket is
    // non-blocking, so a full buffer answers EAGAIN.
    const ssize_t written =
        ::send(conn.fd, front.data() + conn.tx_offset,
               front.size() - conn.tx_offset, MSG_NOSIGNAL);
    if (written < 0) {
      if (errno == EINTR) continue;
      return errno == EAGAIN || errno == EWOULDBLOCK;
    }
    conn.tx_offset += static_cast<std::size_t>(written);
    if (conn.tx_offset == front.size()) {
      conn.tx_bytes -= front.size();
      conn.tx.pop_front();
      conn.tx_offset = 0;
    }
  }
  return true;
}

bool SocketTransport::enqueue_frame(DeviceId endpoint, FrameType type,
                                    std::vector<std::uint8_t> frame,
                                    bool allow_block) {
  std::size_t index = 0;
  Conn* conn = nullptr;
  {
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      const int i = conn_of_[endpoint];
      if (i < 0 || conns_[i]->closed || !self_alive_ || stopping_) {
        return false;
      }
      index = static_cast<std::size_t>(i);
      conn = conns_[index].get();
      if (conn->tx_bytes.load() < kMaxQueuedBytes) break;
      if (!allow_block) return false;
      cv_.wait(lock);  // backpressure: the IO thread notifies as it drains
    }
  }
  const std::size_t bytes = frame.size();
  bool failed = false;
  bool queued = false;
  {
    std::lock_guard<std::mutex> tx_lock(conn->tx_mu);
    if (conn->tx_closed) return false;  // dropped since the lookup
    // On an idle connection the frame goes out now; behind queued frames
    // it waits for the IO thread that is flushing them.
    const bool idle = conn->tx.empty();
    conn->tx_bytes += bytes;
    conn->tx.push_back(std::move(frame));
    failed = idle && !flush_locked(*conn);
    queued = !conn->tx.empty();
  }
  if (failed) {
    // The connection died under the send: drop it the way the IO thread
    // would, which resolves pending rendezvous sends.
    std::lock_guard<std::mutex> lock(mu_);
    drop_conn_locked(index);
  } else if (queued) {
    wake_io();  // the IO thread flushes what the kernel did not take
  }
  count_sent(type, bytes);
  return true;
}

std::shared_ptr<PendingSend> SocketTransport::isend(DeviceId src,
                                                    DeviceId dst,
                                                    Message msg) {
  count_device(src);
  count_device(dst);
  HADFL_CHECK_ARG(src != dst, "send to self");
  const std::size_t bytes = accounted_bytes(msg);
  auto handle = std::make_shared<PendingSend>();
  std::uint64_t seq = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!self_alive_) {
      throw CommError("send: source device " + std::to_string(src) +
                      " is down");
    }
    seq = next_seq_++;
    pending_.emplace(seq, std::make_pair(handle, dst));
  }
  std::vector<std::uint8_t> frame;
  rt::append_data_frame(frame, static_cast<std::uint32_t>(src), msg, seq,
                        /*want_ack=*/true);
  pool_.release(std::move(msg.payload));
  sent_[src].fetch_add(bytes, std::memory_order_relaxed);
  if (!enqueue_frame(dst, FrameType::kData, std::move(frame),
                     /*allow_block=*/true)) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      pending_.erase(seq);
    }
    throw CommError("send: destination device " + std::to_string(dst) +
                    " is down");
  }
  return handle;
}

void SocketTransport::send_nonblocking(DeviceId src, DeviceId dst,
                                       Message msg) {
  count_device(src);
  count_device(dst);
  HADFL_CHECK_ARG(src != dst, "send to self");
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!self_alive_) {
      throw CommError("send_nonblocking: source device " +
                      std::to_string(src) + " is down");
    }
  }
  const std::size_t bytes = accounted_bytes(msg);
  // §III-D parity with SimTransport/InprocTransport: the payload leaves the
  // sender (volume counted) whether or not the receiver is up.
  sent_[src].fetch_add(bytes, std::memory_order_relaxed);
  std::vector<std::uint8_t> frame;
  rt::append_data_frame(frame, static_cast<std::uint32_t>(src), msg, 0,
                        /*want_ack=*/false);
  pool_.release(std::move(msg.payload));
  if (!enqueue_frame(dst, FrameType::kData, std::move(frame),
                     /*allow_block=*/true)) {
    throw CommError("send_nonblocking: destination device " +
                    std::to_string(dst) + " is down");
  }
}

void SocketTransport::send_ack(DeviceId endpoint, FrameType type,
                               std::uint64_t seq) {
  std::vector<std::uint8_t> frame;
  rt::append_seq_frame(frame, type, static_cast<std::uint32_t>(self_), seq);
  enqueue_frame(endpoint, type, std::move(frame), /*allow_block=*/false);
}

Message SocketTransport::recv_match(DeviceId dst, DeviceId from,
                                    std::int64_t tag, double timeout_s) {
  count_device(dst);
  HADFL_CHECK_ARG(dst == self_, "recv for a remote endpoint");
  std::optional<Envelope> envelope = inbox_.pop_match(
      [from, tag](const Envelope& e) {
        return e.msg.src == from && e.msg.tag == tag;
      },
      timeout_s);
  if (!envelope) {
    bool down;
    {
      std::lock_guard<std::mutex> lock(mu_);
      down = !self_alive_;
    }
    if (down) {
      throw CommError("recv: device " + std::to_string(dst) + " is down");
    }
    throw CommError("recv: device " + std::to_string(dst) +
                    " timed out waiting for device " + std::to_string(from) +
                    " (tag " + std::to_string(tag) + ")");
  }
  if (envelope->want_ack) {
    send_ack(envelope->from_endpoint, FrameType::kAck, envelope->seq);
  }
  return std::move(envelope->msg);
}

std::optional<Message> SocketTransport::recv_any(DeviceId dst,
                                                 double timeout_s) {
  count_device(dst);
  HADFL_CHECK_ARG(dst == self_, "recv for a remote endpoint");
  std::optional<Envelope> envelope = inbox_.pop(timeout_s);
  if (!envelope) return std::nullopt;
  if (envelope->want_ack) {
    send_ack(envelope->from_endpoint, FrameType::kAck, envelope->seq);
  }
  return std::move(envelope->msg);
}

bool SocketTransport::handshake(DeviceId src, DeviceId dst,
                                double timeout_s) {
  count_device(dst);
  HADFL_CHECK_ARG(timeout_s >= 0.0, "handshake timeout must be non-negative");
  std::uint64_t seq = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    seq = next_seq_++;
  }
  std::vector<std::uint8_t> frame;
  rt::append_seq_frame(frame, FrameType::kPing,
                       static_cast<std::uint32_t>(src), seq);
  if (!enqueue_frame(dst, FrameType::kPing, std::move(frame),
                     /*allow_block=*/false)) {
    return false;  // no connection — the OS-level equivalent of no answer
  }
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(timeout_s);
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait_until(lock, deadline, [this, seq, dst] {
    return pongs_.count(seq) != 0 || conn_of_[dst] < 0;
  });
  return pongs_.erase(seq) != 0;
}

void SocketTransport::kill(DeviceId id) {
  count_device(id);
  if (id == self_) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      self_alive_ = false;
      for (std::size_t i = 0; i < conns_.size(); ++i) drop_conn_locked(i);
    }
    inbox_.purge([](const Envelope&) { return true; },
                 [this](Envelope& e) {
                   // Remote senders unblock via the connection teardown;
                   // the payload capacity still recycles locally.
                   pool_.release(std::move(e.msg.payload));
                 });
    inbox_.close();
    wake_io();
    return;
  }
  // Fencing a remote endpoint: drop this process's link to it.
  std::lock_guard<std::mutex> lock(mu_);
  const int index = conn_of_[id];
  if (index >= 0) drop_conn_locked(static_cast<std::size_t>(index));
}

bool SocketTransport::alive(DeviceId id) const {
  count_device(id);
  std::lock_guard<std::mutex> lock(mu_);
  if (id == self_) return self_alive_;
  const int index = conn_of_[id];
  return index >= 0 && conns_[index]->established && !conns_[index]->closed;
}

std::size_t SocketTransport::purge_stale(DeviceId dst,
                                         std::int64_t min_collective_id) {
  count_device(dst);
  HADFL_CHECK_ARG(dst == self_, "purge for a remote endpoint");
  // Collect the nacks first: the mailbox lock is held inside purge, and
  // enqueue_frame takes the transport lock — never nest the two.
  std::vector<std::pair<DeviceId, std::uint64_t>> nacks;
  const std::size_t removed = inbox_.purge(
      [min_collective_id](const Envelope& e) {
        const auto kind = static_cast<rt::MsgKind>(e.msg.tag >> 56);
        if (kind != rt::MsgKind::kData && kind != rt::MsgKind::kModelPush) {
          return false;
        }
        return rt::Transport::tag_collective_id(e.msg.tag) <
               min_collective_id;
      },
      [this, &nacks](Envelope& e) {
        if (e.want_ack) nacks.emplace_back(e.from_endpoint, e.seq);
        pool_.release(std::move(e.msg.payload));
      });
  for (const auto& [endpoint, seq] : nacks) {
    send_ack(endpoint, FrameType::kNack, seq);
  }
  return removed;
}

void SocketTransport::account(DeviceId src, DeviceId dst, std::size_t bytes) {
  count_device(src);
  count_device(dst);
  sent_[src].fetch_add(bytes, std::memory_order_relaxed);
  received_[dst].fetch_add(bytes, std::memory_order_relaxed);
}

comm::VolumeCounters SocketTransport::volume() const {
  comm::VolumeCounters counters;
  counters.sent.reserve(k_);
  counters.received.reserve(k_);
  for (std::size_t d = 0; d < k_; ++d) {
    counters.sent.push_back(sent_[d].load(std::memory_order_relaxed));
    counters.received.push_back(
        received_[d].load(std::memory_order_relaxed));
  }
  return counters;
}

// ---------------------------------------------------------------------
// Control plane / liveness extras
// ---------------------------------------------------------------------

bool SocketTransport::send_control(DeviceId endpoint,
                                   std::span<const std::uint8_t> body) {
  HADFL_CHECK_ARG(endpoint <= k_, "endpoint id out of range");
  std::vector<std::uint8_t> frame;
  append_frame(frame, FrameType::kControl, 0,
               static_cast<std::uint32_t>(self_), body);
  return enqueue_frame(endpoint, FrameType::kControl, std::move(frame),
                       /*allow_block=*/true);
}

void SocketTransport::set_control_handler(
    std::function<void(DeviceId, std::vector<std::uint8_t>)> fn) {
  // Deliver any backlog while still holding mu_: the IO thread takes mu_
  // before consulting the handler, so frames arriving during the drain
  // queue behind it instead of overtaking the earlier ones. Handlers must
  // not call back into SocketTransport methods that take mu_ (ours don't:
  // they only decode and push into caller-owned mailboxes).
  std::lock_guard<std::mutex> lock(mu_);
  control_handler_ = std::move(fn);
  if (!control_handler_) return;
  for (auto& [src, body] : pending_control_) {
    control_handler_(src, std::move(body));
  }
  pending_control_.clear();
}

void SocketTransport::send_beat() {
  std::vector<std::uint8_t> frame;
  append_frame(frame, FrameType::kBeat, 0, static_cast<std::uint32_t>(self_),
               {});
  enqueue_frame(coordinator_id(), FrameType::kBeat, std::move(frame),
                /*allow_block=*/false);
}

void SocketTransport::set_beat_handler(std::function<void(DeviceId)> fn) {
  std::lock_guard<std::mutex> lock(mu_);
  beat_handler_ = std::move(fn);
  if (!beat_handler_) return;
  for (const DeviceId src : pending_beats_) beat_handler_(src);
  pending_beats_.clear();
}

void SocketTransport::send_cancel(DeviceId dst, std::int64_t collective_id) {
  std::vector<std::uint8_t> body;
  rt::ByteWriter writer(body);
  writer.i64(collective_id);
  std::vector<std::uint8_t> frame;
  append_frame(frame, FrameType::kCancel, 0,
               static_cast<std::uint32_t>(self_), body);
  enqueue_frame(dst, FrameType::kCancel, std::move(frame),
                /*allow_block=*/false);
}

void SocketTransport::set_cancel_handler(
    std::function<void(std::int64_t)> fn) {
  std::lock_guard<std::mutex> lock(mu_);
  cancel_handler_ = std::move(fn);
  if (!cancel_handler_) return;
  for (const std::int64_t cid : pending_cancels_) cancel_handler_(cid);
  pending_cancels_.clear();
}

bool SocketTransport::coordinator_link_up() const {
  std::lock_guard<std::mutex> lock(mu_);
  const int index = conn_of_[k_];
  return index >= 0 && conns_[index]->established && !conns_[index]->closed;
}

NetCounters SocketTransport::counters() const {
  NetCounters c;
  c.bytes_sent = bytes_sent_.load(std::memory_order_relaxed);
  c.bytes_received = bytes_received_.load(std::memory_order_relaxed);
  for (std::size_t i = 0; i < kFrameClassCount; ++i) {
    c.frames_sent_by_class[i] = frames_sent_[i].load(std::memory_order_relaxed);
    c.frames_received_by_class[i] =
        frames_received_[i].load(std::memory_order_relaxed);
    c.frames_sent += c.frames_sent_by_class[i];
    c.frames_received += c.frames_received_by_class[i];
  }
  c.connects = connects_.load(std::memory_order_relaxed);
  c.disconnects = disconnects_.load(std::memory_order_relaxed);
  c.dial_retries = dial_retries_.load(std::memory_order_relaxed);
  return c;
}

void SocketTransport::export_metrics(obs::MetricsRegistry& registry) const {
  const NetCounters c = counters();
  registry.counter("net.bytes_sent").add(c.bytes_sent);
  registry.counter("net.bytes_received").add(c.bytes_received);
  registry.counter("net.frames_sent").add(c.frames_sent);
  registry.counter("net.frames_received").add(c.frames_received);
  static constexpr const char* kClassNames[kFrameClassCount] = {
      "data", "ack", "beat", "control", "other"};
  for (std::size_t i = 0; i < kFrameClassCount; ++i) {
    const std::string prefix = std::string("net.") + kClassNames[i];
    registry.counter(prefix + "_frames_sent").add(c.frames_sent_by_class[i]);
    registry.counter(prefix + "_frames_received")
        .add(c.frames_received_by_class[i]);
  }
  registry.counter("net.connects").add(c.connects);
  registry.counter("net.disconnects").add(c.disconnects);
  registry.counter("net.dial_retries").add(c.dial_retries);
}

}  // namespace hadfl::net
