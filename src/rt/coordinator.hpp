// Cloud-coordinator half of the rt runtime (Fig. 2a): warmup negotiation →
// strategy generation → per-round version prediction, probability
// selection, two-phase fault-tolerant ring synchronization, non-blocking
// broadcast — plus the §III-A hierarchical mode: one selection ring per
// group, and a periodic inter-group leader exchange (allgather + mean over
// the group leaders, then a group-wide push of the global model).
// Every decision comes from core::RoundPlanner, as in the simulator; the
// coordinator carries them out and reports what the workers did.
//
// The orchestration is backend-agnostic: everything that differs between
// the in-process thread runner and the multi-process socket runner is
// behind `CoordinatorIo` (command/report channels) and `DeviceOracle`
// (reads of device state the coordinator cannot address directly). The
// inproc implementations live in rt/inproc_io.hpp, the socket ones in
// src/net/runner.cpp.
#pragma once

#include <string>
#include <vector>

#include "core/round_logic.hpp"
#include "fl/scheme.hpp"
#include "obs/metrics.hpp"
#include "obs/recorder.hpp"
#include "rt/config.hpp"
#include "rt/failure_detector.hpp"
#include "rt/protocol.hpp"
#include "rt/transport.hpp"

namespace hadfl::rt {

/// Backend-specific coordinator endpoints for the control plane.
class CoordinatorIo {
 public:
  virtual ~CoordinatorIo() = default;

  /// Queues a command on device `d`'s channel. False when the channel is
  /// permanently gone (closed mailbox / dropped connection) — the
  /// coordinator fences the device.
  virtual bool post(DeviceId d, Command command) = 0;

  /// Next report from any device, waiting up to `timeout_s`.
  virtual std::optional<Report> poll_report(double timeout_s) = 0;

  /// Permanently closes device `d`'s command channel (fencing).
  virtual void close_channel(DeviceId d) = 0;

  /// Propagates an abort of collective `cid` to `members`. The inproc
  /// backend is a no-op — the Command's shared cancel flag is visible
  /// directly; the socket backend sends kCancel frames so remote workers
  /// blocked mid-collective learn the attempt is doomed.
  virtual void cancel_collective(const std::vector<DeviceId>& members,
                                 std::int64_t cid) = 0;
};

/// Reads of device-side state the coordinator needs but does not own: the
/// evaluation-time mean of idle devices' models. Inproc reads the worker
/// DeviceStates directly (safe only for devices known idle-and-live — the
/// report mailbox is the happens-before edge); the socket backend asks the
/// processes (kGetState). Broadcast pricing needs no probe anymore: the
/// codec's encoded size is data-independent (comm/delta_codec.hpp), so the
/// workers price each push chunk from the formula.
class DeviceOracle {
 public:
  virtual ~DeviceOracle() = default;

  /// Mean of the named devices' current model states (ids order, weight
  /// 1/n — core::mean_state_of). `ids` is non-empty and live.
  virtual std::vector<float> mean_state(const std::vector<DeviceId>& ids) = 0;
};

/// Optional coordinator-side instruments (null = dark). The span recorder
/// track `coord_track` is the coordinator's own (ring repairs).
struct CoordinatorTelemetry {
  obs::SpanRecorder* rec = nullptr;
  std::size_t coord_track = 0;
  obs::Histogram* sync_latency = nullptr;
  obs::Histogram* abort_latency = nullptr;
  obs::Histogram* selection_prob = nullptr;
  /// The run's registry (null = dark); the adaptive controller exports its
  /// ctrl.* decision counters here.
  obs::MetricsRegistry* metrics = nullptr;
};

/// Registers the coordinator's instruments on `registry` — the
/// sync.latency_s, sync.abort_latency_s and selection.probability
/// histograms, plus `detector`'s heartbeat.silence_s — and returns them
/// wired to `rec` on track `coord_track`. The rt and net runners both call
/// this, so they export one metric set.
CoordinatorTelemetry register_coordinator_telemetry(
    obs::MetricsRegistry& registry, obs::SpanRecorder* rec,
    std::size_t coord_track, FailureDetector& detector);

/// Adds the post-run counters every runner exports from its result:
/// rt.deaths_detected, rt.ring_repairs, the buffer_pool hits, misses and
/// high water, and telemetry.spans_dropped.
void export_run_counters(obs::MetricsRegistry& registry,
                         const RtResult& result);

/// Everything the coordinator orchestrates through. All pointers are
/// non-owning and must outlive the `run_hadfl_coordinator` call.
struct CoordinatorEnv {
  Transport* transport = nullptr;
  FailureDetector* detector = nullptr;
  CoordinatorIo* io = nullptr;
  DeviceOracle* oracle = nullptr;
  CoordinatorTelemetry telemetry;
  std::string scheme_name = "hadfl-rt";
};

/// Runs the full HADFL pipeline against already-launched device workers.
/// `setup` is the shared init_devices() result (the caller owns the
/// DeviceStates — inproc hands them to its worker threads, the socket
/// backend only uses the sizes/weights and the initial state); `rng` must
/// be the generator that produced `setup`, already advanced past the init
/// splits, so the selection/ring/broadcast draw stream matches the
/// simulator's. Fills everything in RtResult except the backend-owned
/// volume/pool/telemetry merges (scheme.volume, pool_stats, timeline,
/// metrics, spans_dropped), which the caller composes afterwards.
RtResult run_hadfl_coordinator(const fl::SchemeContext& ctx,
                               const RtConfig& config,
                               const core::DeviceSetup& setup, Rng& rng,
                               CoordinatorEnv& env);

}  // namespace hadfl::rt
