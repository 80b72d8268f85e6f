#include "net/runner.hpp"


#include <unistd.h>

#include <chrono>
#include <deque>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "common/error.hpp"
#include "common/logging.hpp"
#include "common/thread_pool.hpp"
#include "core/round_logic.hpp"
#include "net/codec.hpp"
#include "net/process_fleet.hpp"
#include "nn/param_utils.hpp"
#include "rt/coordinator.hpp"
#include "rt/mailbox.hpp"
#include "rt/worker.hpp"

namespace hadfl::net {

namespace {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// A fresh per-run nonce: every process of the run presents it in its
/// kHello, so a stray node left over from a previous run on the same ports
/// or socket paths is rejected at the handshake.
std::uint64_t fresh_nonce(std::uint64_t seed) {
  const auto ticks = static_cast<std::uint64_t>(
      std::chrono::steady_clock::now().time_since_epoch().count());
  std::uint64_t x = seed ^ (static_cast<std::uint64_t>(::getpid()) << 32) ^
                    ticks ^ 0x9e3779b97f4a7c15ULL;
  // splitmix64 finalizer — spreads the pid/tick bits over the whole word.
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x == 0 ? 1 : x;
}

/// Detaches every transport handler on scope exit. The handlers capture
/// stack objects (the failure detector, the coordinator/worker IO
/// mailboxes) that are destroyed before the transport and its IO thread
/// are — without the reset, a late frame dispatched during unwind would
/// run a handler over dead state. set_*_handler(nullptr) synchronizes
/// with dispatch (see net/transport.hpp), so after this destructor runs
/// no handler invocation is in flight.
struct HandlerReset {
  SocketTransport& transport;
  ~HandlerReset() {
    transport.set_control_handler(nullptr);
    transport.set_beat_handler(nullptr);
    transport.set_cancel_handler(nullptr);
  }
};

// ---------------------------------------------------------------------------
// Coordinator-side endpoints.

/// Control plane over the socket mesh: Commands go out as kControl frames,
/// Reports come back through a mailbox the transport's IO thread fills.
/// Only the coordinator thread calls the polling side, so the late-report
/// stash needs no lock.
class NetCoordinatorIo final : public rt::CoordinatorIo {
 public:
  NetCoordinatorIo(SocketTransport& transport, std::size_t k)
      : transport_(transport), closed_(k, false) {}

  bool post(rt::DeviceId d, rt::Command command) override {
    if (d >= closed_.size() || closed_[d]) return false;
    return transport_.send_control(d, encode_command(command));
  }

  std::optional<rt::Report> poll_report(double timeout_s) override {
    const double deadline = now_s() + timeout_s;
    for (;;) {
      std::optional<rt::Report> r = take(deadline);
      // kGetState answers are consumed by poll_state_report below; one that
      // surfaces here is a straggler from a device that answered after the
      // oracle's deadline — drop it rather than confuse the round loop.
      if (r.has_value() && r->kind == rt::ReportKind::kStateDone) continue;
      return r;
    }
  }

  void close_channel(rt::DeviceId d) override {
    if (d >= closed_.size() || closed_[d]) return;
    closed_[d] = true;
    // Fencing over sockets = dropping the connection: the worker sees its
    // command channel gone (coordinator_link_up() false) and exits.
    transport_.kill(d);
  }

  void cancel_collective(const std::vector<rt::DeviceId>& members,
                         std::int64_t cid) override {
    // Remote workers blocked mid-collective cannot see the coordinator's
    // cancel flag; a kCancel frame raises their local copy (NetWorkerIo).
    for (rt::DeviceId m : members) transport_.send_cancel(m, cid);
  }

  /// IO-thread side: a decoded inbound report.
  void deliver(rt::Report report) { reports_.push(std::move(report)); }

  /// Oracle side: next kStateDone within the deadline; every other report
  /// is stashed for poll_report (order-preserving).
  std::optional<rt::Report> poll_state_report(double deadline) {
    for (;;) {
      const double left = deadline - now_s();
      if (left <= 0.0) return std::nullopt;
      std::optional<rt::Report> r = reports_.pop(left);
      if (!r.has_value()) return std::nullopt;
      if (r->kind == rt::ReportKind::kStateDone) return r;
      stash_.push_back(std::move(*r));
    }
  }

 private:
  std::optional<rt::Report> take(double deadline) {
    if (!stash_.empty()) {
      rt::Report r = std::move(stash_.front());
      stash_.pop_front();
      return r;
    }
    const double left = deadline - now_s();
    return reports_.pop(left > 0.0 ? left : 0.0);
  }

  SocketTransport& transport_;
  std::vector<bool> closed_;
  rt::Mailbox<rt::Report> reports_;
  std::deque<rt::Report> stash_;  ///< coordinator-thread only
};

/// Device-state reads over the wire: a kGetState fan-out, folded exactly
/// like core::mean_state_of (double accumulation in ids order, weight 1/n,
/// one final cast) so a full-strength answer is bit-identical to the
/// inproc oracle's.
class NetDeviceOracle final : public rt::DeviceOracle {
 public:
  NetDeviceOracle(NetCoordinatorIo& io, const std::vector<float>& init_state,
                  double timeout_s)
      : io_(io), init_state_(init_state), timeout_s_(timeout_s) {}

  std::vector<float> mean_state(
      const std::vector<rt::DeviceId>& ids) override {
    std::unordered_set<rt::DeviceId> asked;
    for (rt::DeviceId id : ids) {
      rt::Command cmd;
      cmd.kind = rt::CmdKind::kGetState;
      if (io_.post(id, std::move(cmd))) asked.insert(id);
    }
    std::unordered_map<rt::DeviceId, std::vector<float>> answers;
    const double deadline = now_s() + timeout_s_;
    while (answers.size() < asked.size()) {
      std::optional<rt::Report> r = io_.poll_state_report(deadline);
      if (!r.has_value()) break;
      if (asked.count(r->device) != 0 && answers.count(r->device) == 0) {
        answers.emplace(r->device, std::move(r->aggregate));
      }
    }
    if (answers.empty()) return init_state_;  // nobody reachable: see caller
    nn::StateAccumulator acc;
    acc.reset(answers.begin()->second.size());
    const double w = 1.0 / static_cast<double>(answers.size());
    for (rt::DeviceId id : ids) {
      auto it = answers.find(id);
      if (it != answers.end()) acc.accumulate(it->second, w);
    }
    return acc.materialize();
  }

 private:
  NetCoordinatorIo& io_;
  const std::vector<float>& init_state_;
  double timeout_s_;
};

// ---------------------------------------------------------------------------
// Device-side endpoints.

/// Worker endpoints in a node process: commands arrive as kControl frames
/// (decoded on the transport's IO thread into a mailbox), reports go back
/// the same way, beats are kBeat frames — at most one per beat period
/// (RtConfig::command_poll_s). The coordinator's shared cancel flag cannot
/// cross a process boundary, so each sync command gets a local flag that a
/// kCancel frame raises — and because the frame can overtake the worker's
/// pop of the command it aborts, cancels for not-yet-seen collectives are
/// remembered and applied on arrival.
class NetWorkerIo final : public rt::WorkerIo {
  using Clock = std::chrono::steady_clock;

 public:
  NetWorkerIo(SocketTransport& transport, double beat_period_s)
      : transport_(transport),
        beat_period_(std::chrono::duration_cast<Clock::duration>(
            std::chrono::duration<double>(beat_period_s))) {
    transport_.set_control_handler(
        [this](rt::DeviceId src, std::vector<std::uint8_t> body) {
          if (src != transport_.coordinator_id() || body.empty()) return;
          if (body[0] != kCtrlCommand) return;
          rt::Command cmd;
          if (!decode_command(
                  std::span<const std::uint8_t>(body).subspan(1), cmd)) {
            HADFL_DEBUG("net: node " << transport_.self()
                                     << " dropping malformed command frame");
            return;
          }
          attach_cancel(cmd);
          commands_.push(std::move(cmd));
        });
    transport_.set_cancel_handler(
        [this](std::int64_t cid) { raise_cancel(cid); });
  }

  std::optional<rt::Command> next_command(double timeout_s) override {
    return commands_.pop(timeout_s);
  }

  bool command_channel_closed() override {
    return !transport_.coordinator_link_up();
  }

  void send_report(rt::Report report) override {
    // A failed send means the coordinator link just died; the worker loop
    // notices through command_channel_closed() on its next poll.
    transport_.send_control(transport_.coordinator_id(),
                            encode_report(report));
  }

  /// Worker thread only. The worker beats after every chunk and poll, far
  /// more often than the detector needs; a beat within one period of the
  /// last frame sent is dropped. The first beat after a quiet stretch
  /// always goes out, so the silence the coordinator sees is at most the
  /// longest gap between beat() calls plus one period.
  void beat() override {
    const Clock::time_point now = Clock::now();
    if (now - last_beat_ < beat_period_) return;
    last_beat_ = now;
    transport_.send_beat();
  }

 private:
  void attach_cancel(rt::Command& cmd) {
    if (cmd.kind != rt::CmdKind::kSync &&
        cmd.kind != rt::CmdKind::kInterSync) {
      return;
    }
    std::lock_guard<std::mutex> lock(mu_);
    // Collective ids grow monotonically; older entries can never be
    // cancelled again, so a new command prunes everything staler than it.
    for (auto it = flags_.begin(); it != flags_.end();) {
      it = it->first < cmd.collective_id ? flags_.erase(it) : std::next(it);
    }
    for (auto it = pre_cancelled_.begin(); it != pre_cancelled_.end();) {
      it = *it < cmd.collective_id ? pre_cancelled_.erase(it) : std::next(it);
    }
    const bool doomed = pre_cancelled_.erase(cmd.collective_id) != 0;
    auto flag = std::make_shared<std::atomic<bool>>(doomed);
    flags_[cmd.collective_id] = flag;
    cmd.cancel = std::move(flag);
  }

  void raise_cancel(std::int64_t cid) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = flags_.find(cid);
    if (it != flags_.end()) {
      it->second->store(true, std::memory_order_relaxed);
    } else {
      pre_cancelled_.insert(cid);
    }
  }

  SocketTransport& transport_;
  const Clock::duration beat_period_;
  Clock::time_point last_beat_{};  ///< the epoch: the first beat goes out
  rt::Mailbox<rt::Command> commands_;
  std::mutex mu_;
  std::unordered_map<std::int64_t, std::shared_ptr<std::atomic<bool>>>
      flags_;
  std::unordered_set<std::int64_t> pre_cancelled_;
};

}  // namespace

// ---------------------------------------------------------------------------

rt::RtResult run_hadfl_net(const fl::SchemeContext& ctx,
                           const NetRunConfig& config) {
  HADFL_CHECK_ARG(ctx.partition.size() == ctx.cluster.size(),
                  "partition count != device count");
  HADFL_CHECK_ARG(!config.node_binary.empty(),
                  "net backend needs a node binary path");
  const std::size_t k = ctx.cluster.size();

  // Same RNG split sequence as the simulator and the inproc rt backend —
  // the device processes derive the identical setup from the same seed, the
  // coordinator keeps the post-init stream for selection/ring draws.
  Rng rng(ctx.config.seed);
  core::DeviceSetup setup = core::init_devices(ctx, config.rt.hadfl, rng);

  const std::uint64_t nonce = config.run_nonce != 0
                                  ? config.run_nonce
                                  : fresh_nonce(ctx.config.seed);

  FleetOptions fleet_options;
  fleet_options.node_binary = config.node_binary;
  fleet_options.common_args = config.node_args;
  fleet_options.kind = config.kind;
  fleet_options.num_devices = k;
  fleet_options.run_nonce = nonce;
  fleet_options.shutdown_grace_s = config.shutdown_grace_s;
  ProcessFleet fleet(fleet_options);
  fleet.spawn();

  SocketTransportOptions topts;
  topts.self = static_cast<rt::DeviceId>(k);
  topts.num_devices = k;
  topts.epoch = nonce;
  topts.kind = config.kind;
  topts.peer_ports = fleet.ports();
  topts.socket_dir = fleet.socket_dir();
  topts.connect_timeout_s = config.connect_timeout_s;
  SocketTransport transport(topts);

  rt::FailureDetector detector(
      k, rt::HeartbeatConfig{config.rt.heartbeat_timeout_s});
  NetCoordinatorIo io(transport, k);
  HandlerReset handler_reset{transport};  // before `io`/`detector` die
  // Handlers go in before wait_ready: frames can arrive the moment a
  // connection establishes.
  transport.set_beat_handler(
      [&detector](rt::DeviceId d) { detector.beat(d); });
  transport.set_control_handler(
      [&io](rt::DeviceId src, std::vector<std::uint8_t> body) {
        if (body.empty() || body[0] != kCtrlReport) return;
        rt::Report report;
        if (!decode_report(std::span<const std::uint8_t>(body).subspan(1),
                           report)) {
          return;
        }
        // The report's device claim must match the connection it came in
        // on — a control frame cannot speak for another node.
        if (report.device != src) return;
        io.deliver(std::move(report));
      });
  transport.wait_ready();
  // Prime the heartbeat table at mesh formation: a node beats from its
  // first command poll, moments from now — without the prime the detector
  // would report every device dead in the gap.
  for (std::size_t d = 0; d < k; ++d) {
    detector.beat(static_cast<rt::DeviceId>(d));
  }

  // Coordinator-side telemetry only: device spans/counters live in the
  // worker processes and stay there — the cross-process pieces that do come
  // home are the kStopped byte/pool stats merged below.
  std::unique_ptr<obs::SpanRecorder> span_recorder;
  std::unique_ptr<obs::MetricsRegistry> metrics_registry;
  rt::CoordinatorTelemetry coord_telemetry;
  coord_telemetry.coord_track = k;
  if (config.rt.telemetry) {
    span_recorder = std::make_unique<obs::SpanRecorder>(
        k + 1, config.rt.telemetry_span_capacity);
    metrics_registry = std::make_unique<obs::MetricsRegistry>();
    coord_telemetry = rt::register_coordinator_telemetry(
        *metrics_registry, span_recorder.get(), k, detector);
  }

  NetDeviceOracle oracle(io, setup.init_state,
                         config.rt.collective_timeout_s);
  rt::CoordinatorEnv env;
  env.transport = &transport;
  env.detector = &detector;
  env.io = &io;
  env.oracle = &oracle;
  env.telemetry = coord_telemetry;
  env.scheme_name = "hadfl-net";
  rt::RtResult result =
      rt::run_hadfl_coordinator(ctx, config.rt, setup, rng, env);

  // ---- Cross-process result merges. Each process counted its own slots;
  // the workers shipped theirs home on kStopped (devices that died mid-run
  // contribute nothing — their counters died with them), the coordinator's
  // transport holds its own sends plus the account() calls and the
  // spoofed-src repair warnings.
  comm::VolumeCounters volume = transport.volume();
  rt::BufferPool::Stats pool = transport.pool().stats();
  for (std::size_t d = 0; d < k && d < result.device_stats.size(); ++d) {
    const rt::DeviceRunStats& stats = result.device_stats[d];
    if (!stats.reported) continue;
    volume.sent[d] += stats.sent_bytes;
    volume.received[d] += stats.received_bytes;
    pool.hits += stats.pool.hits;
    pool.misses += stats.pool.misses;
    pool.high_water += stats.pool.high_water;  // sum of per-process peaks
  }
  result.scheme.volume = std::move(volume);
  result.pool_stats = pool;

  const std::size_t abnormal = fleet.shutdown();
  for (std::size_t d = 0; d < k; ++d) {
    const int status = fleet.exit_status(d);
    if (status == 0) continue;
    // ProcessFleet reports a signal death as 128 + signo, like a shell.
    std::string how = "status " + std::to_string(status);
    if (status > 128) how += " (signal " + std::to_string(status - 128) + ")";
    HADFL_WARN("net: node " << d << " exited with " << how);
  }

  if (span_recorder != nullptr) {
    result.spans_dropped = span_recorder->dropped();
    result.timeline = span_recorder->drain();
  }
  if (metrics_registry != nullptr) {
    rt::export_run_counters(*metrics_registry, result);
    metrics_registry->counter("net.abnormal_exits").add(abnormal);
    transport.export_metrics(*metrics_registry);
    result.metrics = metrics_registry->snapshot();
  }
  return result;
}

int run_hadfl_node(const fl::SchemeContext& ctx, const rt::RtConfig& config,
                   const NodeOptions& options) {
  const std::size_t k = ctx.cluster.size();
  HADFL_CHECK_ARG(options.node_id < k, "node id out of range");
  HADFL_CHECK_ARG(ctx.partition.size() == k,
                  "partition count != device count");

  // Rebuild the run's DeviceSetup from the shared seed — the heavy part
  // (model init, batch iterators) happens before the transport goes up, so
  // "connected" means "about to start beating" on the coordinator's side.
  Rng rng(ctx.config.seed);
  core::DeviceSetup setup = core::init_devices(ctx, config.hadfl, rng);

  SocketTransportOptions topts;
  topts.self = options.node_id;
  topts.num_devices = k;
  topts.epoch = options.run_nonce;
  topts.kind = options.kind;
  topts.listen_fd = options.listen_fd;
  topts.peer_ports = options.tcp_ports;
  topts.socket_dir = options.socket_dir;
  topts.connect_timeout_s = options.connect_timeout_s;
  SocketTransport transport(topts);
  NetWorkerIo io(transport, config.command_poll_s);
  HandlerReset handler_reset{transport};  // before `io` dies
  transport.wait_ready();

  rt::WorkerEnv env;
  env.id = options.node_id;
  env.dev = &setup.devices[options.node_id];
  env.transport = &transport;
  env.io = &io;
  env.config = &config;
  env.iter_time = ctx.cluster.iteration_time(options.node_id);
  // The device loop runs as pool work, as rt::run_hadfl_rt's device loops
  // do: under ThreadPool's nesting rule its kernels run inline instead of
  // fanning out in every node process at once onto the same cores.
  bool orderly = false;
  std::exception_ptr error;
  {
    ThreadPool device_thread(1);
    device_thread.submit([&] {
      try {
        orderly = rt::run_device_worker(env);
      } catch (...) {
        error = std::current_exception();
      }
    });
  }  // joins once the loop has returned
  if (error) std::rethrow_exception(error);

  if (!orderly && transport.alive(options.node_id)) {
    // Injected *silent* death: the endpoint stays open and only the missing
    // heartbeats give the death away — exiting now would close the sockets
    // and reveal it early. Linger until the coordinator fences us (drops
    // the connection) or disappears.
    while (transport.coordinator_link_up()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }
  // Orderly exits drain queued frames (the kStopped report) in the
  // transport destructor; injected non-silent deaths already closed the
  // endpoint like the crash they emulate. Either way the fault run worked
  // as scripted — exit clean.
  return 0;
}

}  // namespace hadfl::net
