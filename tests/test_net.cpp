// Tests for the socket backend (src/net): the length-prefixed frame layer's
// round-trip/error-path contract (malformed input must fail cleanly and
// never over-read), the control-plane codec, SocketTransport semantics
// pinned against InprocTransport's contract over real UDS/TCP connections
// — including the pre-handler frame backlog and large-frame stream
// reassembly regressions — and the end-to-end multi-process runs: bit
// identity with the inproc rt backend, also when a scheduled device death
// sends the run through the §III-D repair.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <ctime>
#include <initializer_list>
#include <map>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "common/cli.hpp"
#include "common/error.hpp"
#include "exp/cli_setup.hpp"
#include "net/codec.hpp"
#include "net/runner.hpp"
#include "net/socket_util.hpp"
#include "net/transport.hpp"
#include "rt/runner.hpp"
#include "rt/wire_format.hpp"

namespace hadfl::net {
namespace {

using rt::ByteReader;
using rt::ByteWriter;
using rt::DecodeStatus;
using rt::FrameHeader;
using rt::FrameType;
using rt::kFrameFlagWantAck;
using rt::kFrameHeaderBytes;
using rt::kMaxFrameBody;

void sleep_ms(int ms) {
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

// ------------------------------------------------------- Socket-dir sweep

// Regression for the stale-dir leak: a run killed before ~ProcessFleet
// left its /tmp/hadfl-net-* dir behind forever (mkdtemp never reuses the
// name). The startup sweep must reclaim aged dirs and leave fresh ones —
// possibly another live run's — untouched.
TEST(SocketDirs, SweepRemovesStaleDirsAndSparesFreshOnes) {
  const std::string stale = make_socket_dir();
  const std::string fresh = make_socket_dir();
  timeval aged[2];
  aged[0].tv_sec = std::time(nullptr) - 7200;  // two hours old
  aged[0].tv_usec = 0;
  aged[1] = aged[0];
  ASSERT_EQ(::utimes(stale.c_str(), aged), 0);
  EXPECT_GE(sweep_stale_socket_dirs(3600.0), 1u);
  struct stat st{};
  EXPECT_NE(::stat(stale.c_str(), &st), 0) << "stale dir survived the sweep";
  EXPECT_EQ(::stat(fresh.c_str(), &st), 0) << "fresh dir was swept";
  remove_socket_dir(fresh);
}

// ------------------------------------------------------------ Frame layer

TEST(FrameLayer, HeaderRoundTripsEveryType) {
  for (std::uint8_t t = 1; t <= 10; ++t) {
    FrameHeader in;
    in.body_len = 17 * t;
    in.type = static_cast<FrameType>(t);
    in.flags = (t % 2) ? kFrameFlagWantAck : 0;
    in.src = 0xAABB0000u + t;
    std::uint8_t buf[kFrameHeaderBytes];
    rt::encode_frame_header(in, buf);
    FrameHeader out;
    ASSERT_EQ(rt::decode_frame_header({buf, sizeof(buf)}, out),
              DecodeStatus::kOk);
    EXPECT_EQ(out.body_len, in.body_len);
    EXPECT_EQ(out.type, in.type);
    EXPECT_EQ(out.flags, in.flags);
    EXPECT_EQ(out.src, in.src);
  }
}

TEST(FrameLayer, TruncatedHeaderNeedsMoreAtEveryPrefix) {
  FrameHeader in;
  in.body_len = 4;
  in.type = FrameType::kData;
  std::uint8_t buf[kFrameHeaderBytes];
  rt::encode_frame_header(in, buf);
  for (std::size_t len = 0; len < kFrameHeaderBytes; ++len) {
    FrameHeader out;
    EXPECT_EQ(rt::decode_frame_header({buf, len}, out),
              DecodeStatus::kNeedMore)
        << "prefix " << len;
  }
}

TEST(FrameLayer, OversizedBodyLenIsErrorNotAllocation) {
  // A corrupt length prefix must be rejected from the 12 header bytes
  // alone — before anyone trusts it enough to allocate or wait for it.
  std::uint8_t buf[kFrameHeaderBytes] = {};
  const std::uint32_t huge = static_cast<std::uint32_t>(kMaxFrameBody) + 1;
  std::memcpy(buf, &huge, sizeof(huge));
  buf[4] = static_cast<std::uint8_t>(FrameType::kData);
  FrameHeader out;
  EXPECT_EQ(rt::decode_frame_header({buf, sizeof(buf)}, out),
            DecodeStatus::kError);
}

TEST(FrameLayer, UnknownTypeIsError) {
  for (const std::uint8_t bad : {std::uint8_t{0}, std::uint8_t{11},
                                 std::uint8_t{200}}) {
    FrameHeader in;
    in.type = FrameType::kBeat;
    std::uint8_t buf[kFrameHeaderBytes];
    rt::encode_frame_header(in, buf);
    buf[4] = bad;
    FrameHeader out;
    EXPECT_EQ(rt::decode_frame_header({buf, sizeof(buf)}, out),
              DecodeStatus::kError)
        << "type " << int(bad);
  }
}

TEST(FrameLayer, NonzeroReservedIsError) {
  FrameHeader in;
  in.type = FrameType::kBeat;
  std::uint8_t buf[kFrameHeaderBytes];
  rt::encode_frame_header(in, buf);
  buf[6] = 1;  // reserved corruption canary
  FrameHeader out;
  EXPECT_EQ(rt::decode_frame_header({buf, sizeof(buf)}, out),
            DecodeStatus::kError);
}

TEST(FrameLayer, AppendFrameRoundTripsBody) {
  const std::vector<std::uint8_t> body{1, 2, 3, 4, 5};
  std::vector<std::uint8_t> frame;
  rt::append_frame(frame, FrameType::kControl, 0, 7, body);
  ASSERT_EQ(frame.size(), kFrameHeaderBytes + body.size());
  FrameHeader header;
  ASSERT_EQ(rt::decode_frame_header(frame, header), DecodeStatus::kOk);
  EXPECT_EQ(header.type, FrameType::kControl);
  EXPECT_EQ(header.src, 7u);
  ASSERT_EQ(header.body_len, body.size());
  EXPECT_TRUE(std::equal(body.begin(), body.end(),
                         frame.begin() + kFrameHeaderBytes));
}

TEST(FrameLayer, HelloBodyRoundTripAndRejections) {
  rt::HelloBody in;
  in.device_id = 3;
  in.epoch = 0x1122334455667788ULL;
  std::vector<std::uint8_t> body;
  rt::append_hello_body(body, in);
  rt::HelloBody out;
  ASSERT_TRUE(rt::decode_hello_body(body, out));
  EXPECT_EQ(out.device_id, 3u);
  EXPECT_EQ(out.epoch, in.epoch);

  // Truncation at every prefix fails, never over-reads.
  for (std::size_t len = 0; len < body.size(); ++len) {
    EXPECT_FALSE(rt::decode_hello_body({body.data(), len}, out))
        << "prefix " << len;
  }
  // Bad magic.
  std::vector<std::uint8_t> bad = body;
  bad[0] ^= 0xFF;
  EXPECT_FALSE(rt::decode_hello_body(bad, out));
  // Bad version.
  bad = body;
  bad[4] ^= 0xFF;
  EXPECT_FALSE(rt::decode_hello_body(bad, out));
}

TEST(FrameLayer, DataFrameRoundTripsMessage) {
  rt::BufferPool pool;
  Message msg;
  msg.src = 2;
  msg.tag = rt::make_tag(rt::MsgKind::kData, 9, 4);
  msg.payload = {1.5f, -2.5f, 3.25f};
  msg.wire_bytes = 999;
  std::vector<std::uint8_t> frame;
  rt::append_data_frame(frame, /*src=*/2, msg, /*seq=*/77, /*want_ack=*/true);

  FrameHeader header;
  ASSERT_EQ(rt::decode_frame_header(frame, header), DecodeStatus::kOk);
  EXPECT_EQ(header.type, FrameType::kData);
  EXPECT_EQ(header.flags & kFrameFlagWantAck, kFrameFlagWantAck);
  const std::span<const std::uint8_t> body(frame.data() + kFrameHeaderBytes,
                                           header.body_len);
  Message out;
  std::uint64_t seq = 0;
  ASSERT_TRUE(rt::decode_data_body(body, pool, out, seq));
  EXPECT_EQ(seq, 77u);
  EXPECT_EQ(out.tag, msg.tag);
  EXPECT_EQ(out.wire_bytes, 999u);
  EXPECT_EQ(out.payload, msg.payload);
}

TEST(FrameLayer, DataBodyCorruptCountFailsCleanly) {
  rt::BufferPool pool;
  Message msg;
  msg.tag = 1;
  msg.payload = {1.0f, 2.0f};
  std::vector<std::uint8_t> frame;
  rt::append_data_frame(frame, 0, msg, 1, false);
  std::vector<std::uint8_t> body(frame.begin() + kFrameHeaderBytes,
                                 frame.end());
  // The count field (i64 tag + u64 seq + u64 wire_bytes = offset 24) claims
  // more floats than the body holds: must fail, not read past the span.
  std::uint64_t count = 1u << 20;
  std::memcpy(body.data() + 24, &count, sizeof(count));
  Message out;
  std::uint64_t seq = 0;
  EXPECT_FALSE(rt::decode_data_body(body, pool, out, seq));

  // Truncation at every prefix fails too.
  for (std::size_t len = 0; len < body.size(); ++len) {
    EXPECT_FALSE(
        rt::decode_data_body({body.data(), len}, pool, out, seq))
        << "prefix " << len;
  }
}

TEST(FrameLayer, SeqFrameRoundTrip) {
  std::vector<std::uint8_t> frame;
  rt::append_seq_frame(frame, FrameType::kAck, 1, 0xDEADBEEFULL);
  FrameHeader header;
  ASSERT_EQ(rt::decode_frame_header(frame, header), DecodeStatus::kOk);
  EXPECT_EQ(header.type, FrameType::kAck);
  std::uint64_t seq = 0;
  ASSERT_TRUE(rt::decode_seq_body(
      {frame.data() + kFrameHeaderBytes, header.body_len}, seq));
  EXPECT_EQ(seq, 0xDEADBEEFULL);
  EXPECT_FALSE(rt::decode_seq_body({frame.data(), 4}, seq));
}

TEST(FrameLayer, SingleByteCorruptionNeverCrashesOrOverreads) {
  // Property sweep: flip every byte of a valid data frame in turn. Header
  // decode must return kOk/kError (the frame is complete, never kNeedMore
  // unless the length field itself grew) and a body decode on the advertised
  // length must either succeed or fail — reads stay inside the buffer
  // (bounds are enforced by ByteReader; ASan/TSan jobs would flag escapes).
  rt::BufferPool pool;
  Message msg;
  msg.tag = rt::make_tag(rt::MsgKind::kData, 5, 1);
  msg.payload = {0.25f, 0.5f, 0.75f, 1.0f};
  std::vector<std::uint8_t> frame;
  rt::append_data_frame(frame, 3, msg, 11, true);
  for (std::size_t i = 0; i < frame.size(); ++i) {
    std::vector<std::uint8_t> mutated = frame;
    mutated[i] ^= 0x41;
    FrameHeader header;
    const DecodeStatus st = rt::decode_frame_header(mutated, header);
    if (st != DecodeStatus::kOk) continue;
    const std::size_t body_len = std::min<std::size_t>(
        header.body_len, mutated.size() - kFrameHeaderBytes);
    Message out;
    std::uint64_t seq = 0;
    (void)rt::decode_data_body({mutated.data() + kFrameHeaderBytes, body_len},
                               pool, out, seq);
  }
}

// ----------------------------------------------------------- Control codec

rt::Command sample_command() {
  rt::Command cmd;
  cmd.kind = rt::CmdKind::kSync;
  cmd.steps = 13;
  cmd.learning_rate = 0.125;
  cmd.deadline_s = 2.5;
  cmd.die_after = 7;
  cmd.die_silently = true;
  cmd.state = {1.0f, -1.0f, 0.5f};
  cmd.version_mean = 3.75;
  cmd.peers = {0, 2, 3};
  cmd.my_index = 1;
  cmd.collective_id = 42;
  cmd.weights = {0.25, 0.5, 0.25};
  cmd.wire_bytes = 1234;
  cmd.peer = 2;
  cmd.chunks = 4;
  cmd.delta = true;
  cmd.ref_epoch = 17;
  cmd.codec = comm::SyncCodec::kTopK;
  cmd.codec_ratio = 0.125;
  return cmd;
}

TEST(ControlCodec, CommandRoundTripsEveryField) {
  const rt::Command cmd = sample_command();
  const std::vector<std::uint8_t> body = encode_command(cmd);
  ASSERT_FALSE(body.empty());
  EXPECT_EQ(body[0], kCtrlCommand);
  rt::Command out;
  ASSERT_TRUE(decode_command(
      std::span<const std::uint8_t>(body).subspan(1), out));
  EXPECT_EQ(out.kind, cmd.kind);
  EXPECT_EQ(out.steps, cmd.steps);
  EXPECT_EQ(out.learning_rate, cmd.learning_rate);
  EXPECT_EQ(out.deadline_s, cmd.deadline_s);
  EXPECT_EQ(out.die_after, cmd.die_after);
  EXPECT_EQ(out.die_silently, cmd.die_silently);
  EXPECT_EQ(out.state, cmd.state);
  EXPECT_EQ(out.version_mean, cmd.version_mean);
  EXPECT_EQ(out.peers, cmd.peers);
  EXPECT_EQ(out.my_index, cmd.my_index);
  EXPECT_EQ(out.collective_id, cmd.collective_id);
  EXPECT_EQ(out.weights, cmd.weights);
  EXPECT_EQ(out.wire_bytes, cmd.wire_bytes);
  EXPECT_EQ(out.peer, cmd.peer);
  EXPECT_EQ(out.chunks, cmd.chunks);
  EXPECT_EQ(out.delta, cmd.delta);
  EXPECT_EQ(out.ref_epoch, cmd.ref_epoch);
  EXPECT_EQ(out.codec, cmd.codec);
  EXPECT_EQ(out.codec_ratio, cmd.codec_ratio);
  // The cancel flag never crosses the wire — NetWorkerIo makes a fresh one.
  EXPECT_EQ(out.cancel, nullptr);
}

TEST(ControlCodec, ReportRoundTripsEveryField) {
  rt::Report in;
  in.device = 3;
  in.kind = rt::ReportKind::kStopped;
  in.ok = true;
  in.loss = 0.75;
  in.wall_s = 1.5;
  in.executed = 29;
  in.version = 11;
  in.aggregate = {2.0f, 4.0f};
  in.delivered = {1, 3};
  in.sent_bytes = 4096;
  in.received_bytes = 8192;
  in.pool = rt::BufferPool::Stats{10, 3, 5};
  in.ref_epoch = 23;
  const std::vector<std::uint8_t> body = encode_report(in);
  ASSERT_FALSE(body.empty());
  EXPECT_EQ(body[0], kCtrlReport);
  rt::Report out;
  ASSERT_TRUE(decode_report(
      std::span<const std::uint8_t>(body).subspan(1), out));
  EXPECT_EQ(out.device, in.device);
  EXPECT_EQ(out.kind, in.kind);
  EXPECT_EQ(out.ok, in.ok);
  EXPECT_EQ(out.loss, in.loss);
  EXPECT_EQ(out.wall_s, in.wall_s);
  EXPECT_EQ(out.executed, in.executed);
  EXPECT_EQ(out.version, in.version);
  EXPECT_EQ(out.aggregate, in.aggregate);
  EXPECT_EQ(out.delivered, in.delivered);
  EXPECT_EQ(out.sent_bytes, in.sent_bytes);
  EXPECT_EQ(out.received_bytes, in.received_bytes);
  EXPECT_EQ(out.pool.hits, in.pool.hits);
  EXPECT_EQ(out.pool.misses, in.pool.misses);
  EXPECT_EQ(out.pool.high_water, in.pool.high_water);
  EXPECT_EQ(out.ref_epoch, in.ref_epoch);
}

TEST(ControlCodec, TruncatedOrTrailingGarbageIsRejected) {
  const std::vector<std::uint8_t> body = encode_command(sample_command());
  const std::span<const std::uint8_t> payload =
      std::span<const std::uint8_t>(body).subspan(1);
  rt::Command out;
  for (std::size_t len = 0; len < payload.size(); ++len) {
    EXPECT_FALSE(decode_command(payload.first(len), out)) << "prefix " << len;
  }
  std::vector<std::uint8_t> padded(payload.begin(), payload.end());
  padded.push_back(0);
  EXPECT_FALSE(decode_command(padded, out));  // trailing garbage

  rt::Report report;
  report.device = 1;
  const std::vector<std::uint8_t> rbody = encode_report(report);
  const std::span<const std::uint8_t> rpayload =
      std::span<const std::uint8_t>(rbody).subspan(1);
  rt::Report rout;
  for (std::size_t len = 0; len < rpayload.size(); ++len) {
    EXPECT_FALSE(decode_report(rpayload.first(len), rout))
        << "prefix " << len;
  }
}

// --------------------------------------------------------- SocketTransport

/// A coordinator-less in-process device mesh over UDS: endpoint i lives in
/// this test process, sockets in a fresh temp dir.
class UdsMesh {
 public:
  explicit UdsMesh(std::size_t k) : dir_(make_socket_dir()) {
    for (std::size_t i = 0; i < k; ++i) {
      SocketTransportOptions o;
      o.self = static_cast<DeviceId>(i);
      o.num_devices = k;
      o.epoch = 99;
      o.kind = TransportKind::kUds;
      o.socket_dir = dir_;
      o.connect_timeout_s = 10.0;
      o.expect_coordinator = false;
      endpoints_.push_back(std::make_unique<SocketTransport>(o));
    }
    for (auto& e : endpoints_) e->wait_ready();
  }
  ~UdsMesh() {
    endpoints_.clear();
    remove_socket_dir(dir_);
  }
  SocketTransport& operator[](std::size_t i) { return *endpoints_[i]; }

 private:
  std::string dir_;
  std::vector<std::unique_ptr<SocketTransport>> endpoints_;
};

int bind_loopback_listener(std::uint16_t& port_out) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  EXPECT_EQ(::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  EXPECT_EQ(::listen(fd, 16), 0);
  socklen_t len = sizeof(addr);
  EXPECT_EQ(::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len), 0);
  port_out = ntohs(addr.sin_port);
  return fd;
}

TEST(NetTransport, MeshFormsAndHandshakes) {
  UdsMesh mesh(3);
  EXPECT_EQ(mesh[0].expected_peers(), 2u);
  EXPECT_TRUE(mesh[0].handshake(0, 1, 1.0));
  EXPECT_TRUE(mesh[2].handshake(2, 0, 1.0));
  EXPECT_GE(mesh[0].counters().connects, 2u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_TRUE(mesh[0].alive(static_cast<DeviceId>(i)));
  }
}

TEST(NetTransport, RendezvousTransfersPayloadAndVolume) {
  UdsMesh mesh(2);
  std::thread sender([&] {
    Message msg;
    msg.tag = 42;
    msg.payload = {1.0f, 2.0f, 3.0f};
    mesh[0].send(0, 1, std::move(msg), 5.0);
  });
  const Message got = mesh[1].recv_match(1, 0, 42, 5.0);
  sender.join();
  EXPECT_EQ(got.payload, (std::vector<float>{1.0f, 2.0f, 3.0f}));
  EXPECT_EQ(got.src, 0u);
  // Each process counts its own slots, algorithm volume only (no framing).
  EXPECT_EQ(mesh[0].volume().sent[0], 3 * sizeof(float));
  EXPECT_EQ(mesh[1].volume().received[1], 3 * sizeof(float));
  EXPECT_EQ(mesh[0].volume().received[1], 0u);
}

TEST(NetTransport, RendezvousSenderBlocksUntilConsumed) {
  UdsMesh mesh(2);
  std::atomic<bool> send_returned{false};
  std::thread sender([&] {
    Message msg;
    msg.tag = 1;
    msg.payload = {1.0f};
    mesh[0].send(0, 1, std::move(msg), 5.0);
    send_returned.store(true);
  });
  sleep_ms(60);
  EXPECT_FALSE(send_returned.load());  // ack only on mailbox pop
  (void)mesh[1].recv_match(1, 0, 1, 5.0);
  sender.join();
  EXPECT_TRUE(send_returned.load());
}

TEST(NetTransport, LargeFrameReassemblesAcrossPartialReads) {
  // A ~1.2 MB payload cannot arrive in one read: the IO thread must stitch
  // partial reads back into one frame (the regression that only shows when
  // the kernel fragments the stream).
  UdsMesh mesh(2);
  const std::size_t n = 300'000;
  Message msg;
  msg.tag = 7;
  msg.payload.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    msg.payload[i] = static_cast<float>(i % 8191);
  }
  mesh[0].send_nonblocking(0, 1, std::move(msg));
  const Message got = mesh[1].recv_match(1, 0, 7, 10.0);
  ASSERT_EQ(got.payload.size(), n);
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(got.payload[i], static_cast<float>(i % 8191)) << "index " << i;
  }
}

/// A coordinator-less in-process device mesh over loopback TCP with
/// pre-bound listeners — the fleet's wiring, minus the processes.
std::vector<std::unique_ptr<SocketTransport>> tcp_mesh(std::size_t k) {
  std::vector<std::uint16_t> ports(k);
  std::vector<int> fds(k);
  for (std::size_t i = 0; i < k; ++i) fds[i] = bind_loopback_listener(ports[i]);
  std::vector<std::unique_ptr<SocketTransport>> eps;
  for (std::size_t i = 0; i < k; ++i) {
    SocketTransportOptions o;
    o.self = static_cast<DeviceId>(i);
    o.num_devices = k;
    o.epoch = 5;
    o.kind = TransportKind::kTcp;
    o.listen_fd = fds[i];
    o.peer_ports = ports;
    o.expect_coordinator = false;
    eps.push_back(std::make_unique<SocketTransport>(o));
  }
  for (auto& e : eps) e->wait_ready();
  return eps;
}

TEST(NetTransport, TcpMeshTransfersLargeFrame) {
  // Same reassembly property over real TCP.
  std::vector<std::unique_ptr<SocketTransport>> eps = tcp_mesh(2);

  const std::size_t n = 300'000;
  Message msg;
  msg.tag = 9;
  msg.payload.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    msg.payload[i] = static_cast<float>((i * 7) % 4093);
  }
  eps[1]->send_nonblocking(1, 0, std::move(msg));
  const Message got = eps[0]->recv_match(0, 1, 9, 10.0);
  ASSERT_EQ(got.payload.size(), n);
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(got.payload[i], static_cast<float>((i * 7) % 4093))
        << "index " << i;
  }
}

/// Several threads send to one peer at once, every fifth frame a 4 MB one
/// that no socket buffer holds, so direct writes run into partial writes
/// and EAGAIN and hand the rest to the IO thread while other threads keep
/// sending. Every frame must arrive intact and in its sender's order; a
/// frame written into the middle of another would corrupt the stream.
void expect_concurrent_senders_arrive_in_order(SocketTransport& from,
                                               SocketTransport& to) {
  constexpr std::size_t kSenders = 4;
  constexpr std::size_t kFrames = 40;
  const auto frame_len = [](std::size_t i) -> std::size_t {
    return i % 5 == 4 ? std::size_t{1} << 20 : 1 + (i * 37) % 3000;
  };
  const auto value = [](std::size_t s, std::size_t i, std::size_t j) {
    return static_cast<float>((s * 131 + i * 17 + j) % 65521);
  };
  const DeviceId src = from.self();
  const DeviceId dst = to.self();
  std::vector<std::jthread> senders;  // joined on every exit, failures too
  for (std::size_t s = 0; s < kSenders; ++s) {
    senders.emplace_back([&, s] {
      try {
        for (std::size_t i = 0; i < kFrames; ++i) {
          Message msg;
          msg.tag = static_cast<std::int64_t>(s * kFrames + i);
          msg.payload.resize(frame_len(i));
          for (std::size_t j = 0; j < msg.payload.size(); ++j) {
            msg.payload[j] = value(s, i, j);
          }
          if (i % 3 == 0) {
            (void)from.isend(src, dst, std::move(msg));  // acked on pop
          } else {
            from.send_nonblocking(src, dst, std::move(msg));
          }
        }
      } catch (const std::exception& e) {  // e.g. a corrupt stream dropped
        ADD_FAILURE() << "sender " << s << ": " << e.what();
      }
    });
  }
  std::vector<std::size_t> next(kSenders, 0);
  for (std::size_t got = 0; got < kSenders * kFrames; ++got) {
    std::optional<Message> msg = to.recv_any(dst, 20.0);
    ASSERT_TRUE(msg.has_value()) << "frame " << got << " never arrived";
    const auto s = static_cast<std::size_t>(msg->tag) / kFrames;
    const auto i = static_cast<std::size_t>(msg->tag) % kFrames;
    ASSERT_LT(s, kSenders);
    ASSERT_EQ(i, next[s]) << "sender " << s << " out of order";
    ++next[s];
    ASSERT_EQ(msg->payload.size(), frame_len(i));
    for (std::size_t j = 0; j < msg->payload.size(); ++j) {
      ASSERT_EQ(msg->payload[j], value(s, i, j))
          << "sender " << s << ", frame " << i << ", index " << j;
    }
    to.pool().release(std::move(msg->payload));
  }
  EXPECT_EQ(next, std::vector<std::size_t>(kSenders, kFrames));
}

TEST(NetTransport, ConcurrentSendersKeepFramesWholeAndOrderedOverUds) {
  UdsMesh mesh(2);
  expect_concurrent_senders_arrive_in_order(mesh[0], mesh[1]);
}

TEST(NetTransport, ConcurrentSendersKeepFramesWholeAndOrderedOverTcp) {
  std::vector<std::unique_ptr<SocketTransport>> eps = tcp_mesh(2);
  expect_concurrent_senders_arrive_in_order(*eps[1], *eps[0]);
}

TEST(NetTransport, FramesBeforeHandlerRegistrationAreNotLost) {
  // Regression: with TCP the fleet parent pre-binds every listener, so the
  // coordinator's first commands can be sitting in a node's socket buffer
  // before the node installs its handlers. Such frames must be queued and
  // delivered on registration, in arrival order.
  UdsMesh mesh(2);
  const std::vector<std::uint8_t> first{kCtrlCommand, 1, 2, 3};
  const std::vector<std::uint8_t> second{kCtrlCommand, 9};
  ASSERT_TRUE(mesh[1].send_control(0, first));
  ASSERT_TRUE(mesh[1].send_control(0, second));
  mesh[1].send_cancel(0, 31337);
  sleep_ms(150);  // let endpoint 0's IO thread ingest them, handler-less

  std::mutex mu;
  std::vector<std::vector<std::uint8_t>> bodies;
  std::vector<std::int64_t> cancels;
  mesh[0].set_control_handler(
      [&](DeviceId src, std::vector<std::uint8_t> body) {
        std::lock_guard<std::mutex> lock(mu);
        EXPECT_EQ(src, 1u);
        bodies.push_back(std::move(body));
      });
  mesh[0].set_cancel_handler([&](std::int64_t cid) {
    std::lock_guard<std::mutex> lock(mu);
    cancels.push_back(cid);
  });
  for (int i = 0; i < 100; ++i) {
    std::lock_guard<std::mutex> lock(mu);
    if (bodies.size() == 2 && cancels.size() == 1) break;
    sleep_ms(10);
  }
  std::lock_guard<std::mutex> lock(mu);
  ASSERT_EQ(bodies.size(), 2u);
  EXPECT_EQ(bodies[0], first);
  EXPECT_EQ(bodies[1], second);
  ASSERT_EQ(cancels.size(), 1u);
  EXPECT_EQ(cancels[0], 31337);
}

TEST(NetTransport, KillDropsConnectionAndResolvesPendingSends) {
  UdsMesh mesh(2);
  Message msg;
  msg.tag = 9;
  msg.payload = {1.0f};
  std::shared_ptr<rt::PendingSend> pending =
      mesh[0].isend(0, 1, std::move(msg));
  mesh[1].kill(1);  // endpoint 1 dies: its conns close
  EXPECT_THROW(pending->wait(5.0, 0, 1), CommError);
  // The peer loss is visible on endpoint 0's side too.
  for (int i = 0; i < 200 && mesh[0].alive(1); ++i) sleep_ms(10);
  EXPECT_FALSE(mesh[0].alive(1));
  EXPECT_FALSE(mesh[0].handshake(0, 1, 0.05));
}

TEST(NetTransport, SendToResetPeerFailsWithoutSigpipe) {
  // Regression: a survivor's node process wrote to the socket of a ring
  // neighbour that had just died, took SIGPIPE and exited, and the
  // coordinator fenced it as a second death. A send to a reset peer must
  // fail (here a CommError; the IO loop drops the connection on the same
  // error) and the process must live. Linux answers the first send after a
  // reset with ECONNRESET and later ones with EPIPE, the error that comes
  // with the signal, so the send runs twice.
  const TcpListener listener = make_tcp_listener();
  const int fd = dial_tcp(listener.port, 5.0);
  const int peer = ::accept(listener.fd, nullptr, nullptr);
  ASSERT_GE(peer, 0);
  const linger reset{1, 0};  // close() sends RST instead of FIN
  ASSERT_EQ(::setsockopt(peer, SOL_SOCKET, SO_LINGER, &reset, sizeof(reset)),
            0);
  close_fd(peer);
  // No events requested: poll reports only POLLERR/POLLHUP, so each slice
  // really waits for the reset.
  pollfd pfd{fd, 0, 0};
  for (int i = 0; i < 500 && (pfd.revents & (POLLERR | POLLHUP)) == 0; ++i) {
    ASSERT_GE(::poll(&pfd, 1, 10), 0);
  }
  ASSERT_NE(pfd.revents & (POLLERR | POLLHUP), 0) << "reset never arrived";
  const std::vector<std::uint8_t> bytes(4096, 0x5a);
  for (int attempt = 0; attempt < 2; ++attempt) {
    EXPECT_THROW(write_all(fd, bytes.data(), bytes.size()), CommError)
        << "attempt " << attempt;
  }
  close_fd(fd);
  close_fd(listener.fd);
}

TEST(NetTransport, PurgeStaleNacksOldCollectivesOnly) {
  UdsMesh mesh(2);
  Message old_msg;
  old_msg.tag = rt::make_tag(rt::MsgKind::kData, 3, 0);
  old_msg.payload = {1.0f};
  mesh[0].send_nonblocking(0, 1, std::move(old_msg));
  Message fresh;
  fresh.tag = rt::make_tag(rt::MsgKind::kData, 7, 0);
  fresh.payload = {2.0f};
  mesh[0].send_nonblocking(0, 1, std::move(fresh));
  std::size_t purged = 0;
  for (int i = 0; i < 200 && purged == 0; ++i) {
    purged = mesh[1].purge_stale(1, 7);
    if (purged == 0) sleep_ms(10);
  }
  EXPECT_EQ(purged, 1u);
  const Message got =
      mesh[1].recv_match(1, 0, rt::make_tag(rt::MsgKind::kData, 7, 0), 5.0);
  EXPECT_EQ(got.payload, (std::vector<float>{2.0f}));
}

TEST(NetTransport, StaleRunEpochIsRejectedAtHandshake) {
  const std::string dir = make_socket_dir();
  SocketTransportOptions a;
  a.self = 0;
  a.num_devices = 2;
  a.epoch = 1;
  a.kind = TransportKind::kUds;
  a.socket_dir = dir;
  a.connect_timeout_s = 0.7;
  a.expect_coordinator = false;
  SocketTransport listener(a);

  SocketTransportOptions b = a;
  b.self = 1;
  b.epoch = 2;  // stale-run nonce: the hello must be refused
  {
    SocketTransport dialer(b);
    EXPECT_THROW(dialer.wait_ready(), CommError);
  }
  EXPECT_THROW(listener.wait_ready(), CommError);
  remove_socket_dir(dir);
}

TEST(NetTransport, CountersSeeFramingTrafficVolumeDoesNot) {
  UdsMesh mesh(2);
  Message msg;
  msg.tag = 4;
  msg.payload = {1.0f, 2.0f};
  mesh[0].send_nonblocking(0, 1, std::move(msg));
  (void)mesh[1].recv_match(1, 0, 4, 5.0);
  const NetCounters c0 = mesh[0].counters();
  // Hello + data at minimum; every frame carries the 12-byte header.
  EXPECT_GE(c0.frames_sent, 2u);
  EXPECT_GT(c0.bytes_sent, 2 * sizeof(float));
  EXPECT_GE(c0.connects, 1u);
  // Algorithm volume stays payload-priced.
  EXPECT_EQ(mesh[0].volume().sent[0], 2 * sizeof(float));

  obs::MetricsRegistry registry;
  mesh[0].export_metrics(registry);
  const obs::MetricsSnapshot snap = registry.snapshot();
  const obs::CounterSample* sent = snap.find_counter("net.bytes_sent");
  ASSERT_NE(sent, nullptr);
  EXPECT_EQ(sent->value, c0.bytes_sent);
  EXPECT_NE(snap.find_counter("net.frames_received"), nullptr);
  EXPECT_NE(snap.find_counter("net.connects"), nullptr);
  EXPECT_NE(snap.find_counter("net.disconnects"), nullptr);
  EXPECT_NE(snap.find_counter("net.dial_retries"), nullptr);
}

// ------------------------------------------------------------- End-to-end

ArgParser e2e_args(std::vector<const char*> extra = {}) {
  std::vector<const char*> argv{"prog",           "--model=mlp",
                                "--ratio=2,2,1,1", "--epochs=2",
                                "--scale=0.05",    "--seed=11"};
  argv.insert(argv.end(), extra.begin(), extra.end());
  return ArgParser(static_cast<int>(argv.size()), argv.data());
}

rt::RtResult run_net(const ArgParser& args, const exp::RunSetup& setup,
                     const rt::RtConfig& rt_config, TransportKind kind) {
  NetRunConfig config;
  config.rt = rt_config;
  config.kind = kind;
  config.node_binary = HADFL_NODE_BINARY;
  config.node_args = exp::scenario_forward_args(args);
  const fl::SchemeContext ctx = setup.context();
  return run_hadfl_net(ctx, config);
}

/// The rt == net contract: the run `args` describes, with the scheduled
/// `faults`, ends the same on the inproc rt backend and on net over each of
/// `kinds` — final-state hash, every round's selections, sync_rounds,
/// ring_repairs, and one detected death per fault. Every survivor ships its
/// kStopped stats and byte counters home; a dead device never does. Each
/// run also survives its faults (§III-D): it keeps aggregating, no ring
/// from a victim's death round on holds the victim, and each death costs
/// at least one ring repair (the fault runs select every candidate, so
/// each victim is in the ring of the round it dies in).
void expect_net_matches_inproc(
    const ArgParser& args, const std::vector<rt::FaultPlan>& faults = {},
    std::initializer_list<TransportKind> kinds = {TransportKind::kTcp},
    double heartbeat_timeout_s = 2.0) {
  const exp::RunSetup setup = exp::make_run_setup(args);
  rt::RtConfig config = exp::make_rt_config(args, setup.scenario);
  config.faults = faults;
  // Coordinator-side knobs tightened the way test_rt's fast_rt_config
  // does; the node processes keep the defaults, which only affect pacing,
  // never numerics.
  config.heartbeat_timeout_s = heartbeat_timeout_s;
  config.collective_timeout_s = 5.0;
  config.command_poll_s = 0.002;
  config.hadfl.repair.wait_before_handshake = 0.002;
  config.hadfl.repair.handshake_timeout = 0.01;
  const fl::SchemeContext ctx = setup.context();
  const rt::RtResult inproc = rt::run_hadfl_rt(ctx, config);
  EXPECT_EQ(inproc.deaths_detected, faults.size());
  EXPECT_GE(inproc.extras.ring_repairs, faults.size());
  const auto is_victim = [&faults](std::size_t d) {
    return std::any_of(faults.begin(), faults.end(),
                       [d](const rt::FaultPlan& f) { return f.device == d; });
  };

  for (const TransportKind kind : kinds) {
    SCOPED_TRACE(kind == TransportKind::kUds ? "uds" : "tcp");
    const rt::RtResult net = run_net(args, setup, config, kind);
    EXPECT_EQ(net.scheme.scheme_name, "hadfl-net");
    EXPECT_EQ(net.deaths_detected, inproc.deaths_detected);
    EXPECT_EQ(net.extras.ring_repairs, inproc.extras.ring_repairs);
    EXPECT_EQ(net.scheme.sync_rounds, inproc.scheme.sync_rounds);
    EXPECT_EQ(net.extras.selected, inproc.extras.selected);
    EXPECT_FALSE(net.scheme.final_state.empty());
    EXPECT_EQ(exp::state_hash(net.scheme.final_state),
              exp::state_hash(inproc.scheme.final_state));
    for (std::size_t d = 0; d < net.device_stats.size(); ++d) {
      const bool victim = is_victim(d);
      EXPECT_EQ(net.device_stats[d].reported, !victim) << "device " << d;
      if (!victim) {
        EXPECT_GT(net.scheme.volume.sent[d], 0u) << "device " << d;
      }
    }
    if (faults.empty()) continue;
    EXPECT_GT(net.scheme.sync_rounds, 1u);  // survivors kept aggregating
    for (const rt::FaultPlan& f : faults) {
      // selected[i] is the ring round i + 1 committed.
      for (std::size_t i = f.round - 1; i < net.extras.selected.size(); ++i) {
        const auto& ring = net.extras.selected[i];
        EXPECT_TRUE(std::find(ring.begin(), ring.end(), f.device) == ring.end())
            << "device " << f.device << ", round " << i + 1;
      }
    }
  }
}

TEST(NetE2E, MultiProcessRunMatchesInprocRtBitExactly) {
  // K=4 over real sockets — both flavours — ends with the byte-identical
  // model the single-process rt backend computes.
  expect_net_matches_inproc(e2e_args(), {},
                            {TransportKind::kUds, TransportKind::kTcp});
}

/// The coordinator's frame counters of one seeded, fault-free telemetry run.
struct FrameCounts {
  std::map<std::string, std::uint64_t> non_beat;  ///< counter name -> value
  std::uint64_t beats_received = 0;
  double wall_s = 0.0;  ///< around the whole run, mesh setup included
};

FrameCounts coordinator_frame_counts(TransportKind kind) {
  const ArgParser args = e2e_args();
  const exp::RunSetup setup = exp::make_run_setup(args);
  rt::RtConfig config = exp::make_rt_config(args, setup.scenario);
  config.telemetry = true;
  const auto t0 = std::chrono::steady_clock::now();
  const rt::RtResult r = run_net(args, setup, config, kind);
  FrameCounts counts;
  counts.wall_s = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
  for (const char* cls : {"data", "ack", "beat", "control", "other"}) {
    for (const char* dir : {"sent", "received"}) {
      const std::string name =
          std::string("net.") + cls + "_frames_" + dir;
      const obs::CounterSample* c = r.metrics.find_counter(name);
      EXPECT_NE(c, nullptr) << name;
      if (c == nullptr) continue;
      if (std::string(cls) == "beat") {
        if (std::string(dir) == "received") counts.beats_received = c->value;
        continue;
      }
      counts.non_beat[name] = c->value;
    }
  }
  return counts;
}

TEST(NetE2E, OnlyHeartbeatFrameCountsDependOnTheClock) {
  // Data, ack, control and handshake frames follow from the seeded run
  // alone, so they repeat exactly across runs and transports; heartbeats
  // are paced by the clock, at most one frame per beat period per node.
  const FrameCounts tcp_a = coordinator_frame_counts(TransportKind::kTcp);
  const FrameCounts tcp_b = coordinator_frame_counts(TransportKind::kTcp);
  const FrameCounts uds = coordinator_frame_counts(TransportKind::kUds);
  EXPECT_EQ(tcp_a.non_beat, tcp_b.non_beat);
  EXPECT_EQ(tcp_a.non_beat, uds.non_beat);
  EXPECT_GT(tcp_a.non_beat.at("net.control_frames_sent"), 0u);
  EXPECT_GT(tcp_a.non_beat.at("net.control_frames_received"), 0u);
  const double period = rt::RtConfig{}.command_poll_s;  // the nodes' own
  const std::size_t k = 4;
  for (const FrameCounts* c : {&tcp_a, &tcp_b, &uds}) {
    EXPECT_GT(c->beats_received, 0u);
    EXPECT_LE(static_cast<double>(c->beats_received),
              static_cast<double>(k) * (c->wall_s / period + 1.0))
        << "wall " << c->wall_s << " s";
  }
}

TEST(NetE2E, GroupedRunMatchesInprocRt) {
  // Hierarchical grouping (§III-A) active over sockets: intra-group rings
  // plus the kInterSync leader collective, still bit-identical to inproc.
  expect_net_matches_inproc(e2e_args({"--group-size=2"}), {},
                            {TransportKind::kUds});
}

// Fault runs: each schedules one death and must end the same on inproc rt
// and on four TCP node processes. `--np=4` selects every candidate, as does
// the default `--np=2` in groups of two, so the victim is in the ring the
// §III-D repair has to bypass.

TEST(NetE2E, DeathInTrainingMatchesInprocRt) {
  expect_net_matches_inproc(
      e2e_args({"--np=4", "--epochs=4"}),
      {rt::FaultPlan{/*device=*/1, /*round=*/1, /*after_steps=*/1}});
}

TEST(NetE2E, SurvivesDeviceProcessDeathMidSync) {
  // The fault strikes inside the pipelined ring collective, the dying
  // node's endpoint vanishes mid-transfer, the survivors' collectives abort
  // (two-phase: cancel + purge), the coordinator repairs the ring, and the
  // round completes without the dead member.
  expect_net_matches_inproc(
      e2e_args({"--np=4", "--epochs=4"}),
      {rt::FaultPlan{/*device=*/1, /*round=*/1, /*after_steps=*/2,
                     /*silent=*/false, /*during_sync=*/true}});
}

TEST(NetE2E, SilentDeathInTrainingMatchesInprocRt) {
  // The endpoint stays open: only the missing heartbeats reveal the death,
  // and the coordinator fences the device once the timeout runs out.
  expect_net_matches_inproc(
      e2e_args({"--np=4", "--epochs=4"}),
      {rt::FaultPlan{/*device=*/2, /*round=*/1, /*after_steps=*/1,
                     /*silent=*/true}},
      {TransportKind::kTcp}, /*heartbeat_timeout_s=*/0.5);
}

TEST(NetE2E, TopKDeathMidSyncMatchesInprocRt) {
  expect_net_matches_inproc(
      e2e_args({"--np=4", "--epochs=4", "--sync-codec=topk"}),
      {rt::FaultPlan{/*device=*/1, /*round=*/1, /*after_steps=*/2,
                     /*silent=*/false, /*during_sync=*/true}});
}

TEST(NetE2E, GroupedDeathInTrainingMatchesInprocRt) {
  expect_net_matches_inproc(
      e2e_args({"--epochs=4", "--group-size=2"}),
      {rt::FaultPlan{/*device=*/1, /*round=*/1, /*after_steps=*/1}});
}

}  // namespace
}  // namespace hadfl::net
