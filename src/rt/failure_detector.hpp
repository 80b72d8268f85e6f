// Wall-clock failure detection for the real-time runtime.
//
// Two layers, mirroring the paper's §III-D protocol on real threads:
//
//  * `FailureDetector` — heartbeat table. Every worker thread beats on each
//    command-poll iteration (its "daemon"); a device whose last beat is
//    older than the configured timeout is suspected dead. Suspicion is
//    cheap and possibly transient — it only triggers the handshake below.
//  * `repair_ring` — the shared wait → handshake → warn-upstream → bypass
//    loop (comm/failure_detector.hpp) on real time: for each suspect the
//    downstream neighbour waits the pre-specified time, confirms death via
//    a transport handshake (a real probe against the peer's endpoint), then
//    warns the dead device's upstream with a fire-and-forget kWarn push so
//    it bypasses the dead member.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "comm/failure_detector.hpp"
#include "obs/metrics.hpp"
#include "obs/recorder.hpp"
#include "rt/transport.hpp"

namespace hadfl::rt {

struct HeartbeatConfig {
  double timeout_s = 0.5;  ///< silence longer than this marks a suspect
};

/// Lock-free heartbeat table (one slot per device). Workers call `beat`
/// from their own threads; the coordinator reads `is_alive`/`suspects`.
class FailureDetector {
 public:
  explicit FailureDetector(std::size_t devices, HeartbeatConfig config = {});

  /// Records a heartbeat for `id` at the current wall clock.
  void beat(DeviceId id);

  /// Marks `id` permanently dead (e.g. its worker exited or was killed);
  /// no later beat resurrects it.
  void mark_dead(DeviceId id);

  /// True while `id` has not been marked dead and its last beat is within
  /// the timeout window.
  bool is_alive(DeviceId id) const;

  /// Devices currently suspected dead (stale beat or marked).
  std::vector<DeviceId> suspects() const;

  const HeartbeatConfig& config() const { return config_; }

  /// Telemetry hook: when set, every `beat` records the silence gap it
  /// closes (seconds since the device's previous beat) into `h`. Attach
  /// before any worker thread starts beating; detach is not supported.
  void attach_silence_histogram(obs::Histogram* h) { silence_ = h; }

 private:
  struct Slot {
    std::atomic<std::int64_t> last_beat_ns{0};
    std::atomic<bool> dead{false};
  };

  void check_device(DeviceId id) const;
  static std::int64_t now_ns();

  std::vector<std::unique_ptr<Slot>> slots_;
  HeartbeatConfig config_;
  obs::Histogram* silence_ = nullptr;
};

/// `comm::RingRepairResult` plus the warnings that actually went out.
struct RtRingRepairResult : comm::RingRepairResult {
  /// (warned upstream, downstream it should now talk to), one entry per
  /// kWarn push that actually went out. A repair contributes no entry when
  /// no warning was sendable: a 2-member ring (upstream == downstream, the
  /// survivor needs no warning), a dead upstream or downstream, or the
  /// upstream dying between the liveness check and the push.
  std::vector<std::pair<DeviceId, DeviceId>> warns;
};

/// Runs the §III-D loop (`comm::run_ring_repair`) against real endpoints,
/// with `config`'s times in wall seconds: suspects come from the heartbeat
/// detector (or an already-closed transport endpoint), death is confirmed
/// by a wall-clock handshake, and the bypass warning is a kWarn push on the
/// upstream link.
///
/// Telemetry: with `spans` set, each bypass records a kRepair span on
/// `span_track` (the caller's — normally the coordinator's — track; the
/// repair protocol runs on the calling thread, and worker tracks are
/// single-writer).
RtRingRepairResult repair_ring(Transport& transport,
                               const FailureDetector& detector,
                               const std::vector<DeviceId>& ring,
                               const comm::RingRepairConfig& config = {},
                               obs::SpanRecorder* spans = nullptr,
                               std::size_t span_track = 0);

}  // namespace hadfl::rt
