#include "rt/failure_detector.hpp"

#include <thread>
#include <type_traits>

#include "common/error.hpp"
#include "common/logging.hpp"

namespace hadfl::rt {

// Heartbeat staleness must be immune to wall-clock steps: if the Clock
// alias ever regressed to system_clock, one NTP adjustment would age every
// slot at once and mass-suspect live devices.
static_assert(std::is_same_v<Clock, std::chrono::steady_clock> &&
                  Clock::is_steady,
              "FailureDetector timing requires std::chrono::steady_clock");

namespace {

void sleep_s(double seconds) {
  if (seconds <= 0.0) return;
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
}

}  // namespace

FailureDetector::FailureDetector(std::size_t devices, HeartbeatConfig config)
    : config_(config) {
  HADFL_CHECK_ARG(devices > 0, "detector needs at least one device");
  HADFL_CHECK_ARG(config_.timeout_s > 0.0,
                  "heartbeat timeout must be positive");
  slots_.reserve(devices);
  const std::int64_t start = now_ns();
  for (std::size_t d = 0; d < devices; ++d) {
    slots_.push_back(std::make_unique<Slot>());
    // Everyone starts fresh: a worker that never gets scheduled within the
    // window is indistinguishable from a dead one, which is the point.
    slots_.back()->last_beat_ns.store(start, std::memory_order_relaxed);
  }
}

std::int64_t FailureDetector::now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

void FailureDetector::check_device(DeviceId id) const {
  HADFL_CHECK_ARG(id < slots_.size(), "device id " << id << " out of range");
}

void FailureDetector::beat(DeviceId id) {
  check_device(id);
  const std::int64_t now = now_ns();
  if (silence_ != nullptr) {
    // Loading our own slot is race-free for the gap's purpose: the owning
    // worker is the only frequent writer, and a racing coordinator read
    // never writes.
    const std::int64_t last =
        slots_[id]->last_beat_ns.load(std::memory_order_relaxed);
    silence_->observe(static_cast<double>(now - last) / 1e9);
  }
  slots_[id]->last_beat_ns.store(now, std::memory_order_release);
}

void FailureDetector::mark_dead(DeviceId id) {
  check_device(id);
  slots_[id]->dead.store(true, std::memory_order_release);
}

bool FailureDetector::is_alive(DeviceId id) const {
  check_device(id);
  if (slots_[id]->dead.load(std::memory_order_acquire)) return false;
  const std::int64_t last =
      slots_[id]->last_beat_ns.load(std::memory_order_acquire);
  const double silence_s =
      static_cast<double>(now_ns() - last) / 1e9;
  return silence_s <= config_.timeout_s;
}

std::vector<DeviceId> FailureDetector::suspects() const {
  std::vector<DeviceId> out;
  for (DeviceId d = 0; d < slots_.size(); ++d) {
    if (!is_alive(d)) out.push_back(d);
  }
  return out;
}

namespace {

/// §III-D on the wall clock. Suspicion is a stale heartbeat or an endpoint
/// the transport already knows is closed; either way the handshake must
/// confirm the death.
struct RtRepairProbe {
  Transport& transport;
  const FailureDetector& detector;
  const comm::RingRepairConfig& config;
  obs::SpanRecorder* spans;
  std::size_t span_track;
  std::vector<std::pair<DeviceId, DeviceId>>& warns;
  double t0 = 0.0;  ///< start of the current wait (kRepair span)

  bool suspect(DeviceId member, DeviceId /*observer*/) const {
    return !detector.is_alive(member) || !transport.alive(member);
  }

  bool handshake(DeviceId downstream, DeviceId member) {
    t0 = spans != nullptr ? spans->now_s() : 0.0;
    sleep_s(config.wait_before_handshake);
    return transport.handshake(downstream, member, config.handshake_timeout);
  }

  void warn(DeviceId dead, DeviceId upstream, DeviceId downstream) {
    // See RtRingRepairResult::warns for the repairs that send no warning.
    if (upstream != downstream && transport.alive(upstream) &&
        transport.alive(downstream)) {
      Message msg;
      msg.tag = make_tag(MsgKind::kWarn, dead);
      try {
        transport.send_nonblocking(downstream, upstream, std::move(msg));
        warns.emplace_back(upstream, downstream);
      } catch (const CommError&) {
        // The upstream died between the check and the push; the next
        // sweep of the loop will bypass it too.
      }
    }
    if (spans != nullptr) {
      spans->record(span_track, t0, spans->now_s(), obs::SpanKind::kRepair,
                    "repair dev" + std::to_string(dead));
    }
  }
};

}  // namespace

RtRingRepairResult repair_ring(Transport& transport,
                               const FailureDetector& detector,
                               const std::vector<DeviceId>& ring,
                               const comm::RingRepairConfig& config,
                               obs::SpanRecorder* spans,
                               std::size_t span_track) {
  RtRingRepairResult result;
  RtRepairProbe probe{transport, detector, config, spans, span_track,
                      result.warns};
  static_cast<comm::RingRepairResult&>(result) =
      comm::run_ring_repair(ring, probe);
  return result;
}

}  // namespace hadfl::rt
