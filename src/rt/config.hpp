// Configuration and result types shared by every rt execution backend
// (the in-process thread runner in rt/runner.hpp and the multi-process
// socket runner in net/runner.hpp). Split out of runner.hpp so the worker
// and coordinator halves (rt/worker.hpp, rt/coordinator.hpp) can be reused
// by both backends without include cycles.
#pragma once

#include <cstdint>
#include <vector>

#include "core/trainer.hpp"
#include "fl/scheme.hpp"
#include "obs/metrics.hpp"
#include "obs/recorder.hpp"
#include "obs/span.hpp"
#include "rt/buffer_pool.hpp"
#include "rt/transport.hpp"

namespace hadfl::rt {

enum class TimingMode { kVirtual, kWallclock };

/// Injected device death: during `round` (1-based, 0 = never) the worker
/// stops mid-work. By default the death strikes during local training,
/// after `after_steps` iterations; with `during_sync` it strikes inside the
/// pipelined ring collective instead, after `after_steps` chunk operations
/// — exercising the two-phase abort + §III-D repair on a mid-pipeline
/// failure. By default the worker closes its transport endpoint on the way
/// out (a crashing process's sockets); `silent` leaves the endpoint open so
/// only the missing heartbeats reveal the death and the coordinator must
/// fence the device. Speed drift is not a FaultPlan: every backend reads it
/// from the cluster's `sim::FaultInjector` (`schedule_drift`).
struct FaultPlan {
  DeviceId device = 0;
  std::size_t round = 0;
  std::size_t after_steps = 0;
  bool silent = false;
  bool during_sync = false;
};

struct RtConfig {
  /// Algorithm knobs shared with the sim, including the sync chunk grid
  /// (`sync_chunks`) and the §III-D repair timing (`repair`, read here in
  /// wall seconds).
  core::HadflConfig hadfl;
  TimingMode timing = TimingMode::kVirtual;
  /// Wall seconds per virtual network second (transport throttling);
  /// 0 = messages move at memory speed. Inproc backend only — sockets
  /// always move at real network speed.
  double time_scale = 0.0;
  /// Wall seconds slept per virtual compute second (worker-side throttle);
  /// 0 = train at full speed.
  double compute_throttle = 0.0;
  double heartbeat_timeout_s = 1.0;  ///< silence before a device is suspect
  double collective_timeout_s = 5.0; ///< per ring step / rendezvous wait
  double command_poll_s = 0.02;      ///< worker poll slice (= beat period)
  std::vector<FaultPlan> faults;
  /// Telemetry (src/obs/): record per-device wall-clock spans
  /// (compute/sync/broadcast/stall/repair) and runtime metrics (latency
  /// histograms, per-phase wire bytes, heartbeat gaps, pool counters),
  /// surfaced in RtResult::timeline / RtResult::metrics and exportable via
  /// obs/export.hpp. Off by default; when off each instrumentation site
  /// costs a single null-pointer test, and either way the training math is
  /// untouched — a seeded telemetry run is bit-identical to a dark one.
  bool telemetry = false;
  /// Per-thread span capacity when telemetry is on; spans beyond it are
  /// dropped and counted (RtResult::spans_dropped), never overwritten.
  std::size_t telemetry_span_capacity = 1 << 14;
};

/// Per-device runtime counters a worker ships home with its kStopped
/// report. On the inproc backend these duplicate what the shared transport
/// already knows; on the socket backend they are the only way the
/// coordinator learns a remote process's byte/pool totals.
struct DeviceRunStats {
  bool reported = false;             ///< worker stopped orderly and reported
  std::size_t sent_bytes = 0;
  std::size_t received_bytes = 0;
  BufferPool::Stats pool;
};

struct RtResult {
  fl::SchemeResult scheme;    ///< total_time is wall seconds
  core::HadflExtras extras;
  double wall_seconds = 0.0;
  /// Devices the coordinator declared dead (heartbeat/endpoint), fenced,
  /// and excluded for the rest of the run.
  std::size_t deaths_detected = 0;
  /// Payload-buffer recycling counters for the run (rt/buffer_pool.hpp):
  /// misses plateau after the first round when every path releases its
  /// buffers; a growing miss count flags a leak. On the socket backend this
  /// is the sum over every process's pool.
  BufferPool::Stats pool_stats;
  /// Per-device worker counters from the kStopped reports (devices that
  /// died mid-run keep reported == false).
  std::vector<DeviceRunStats> device_stats;
  /// Wall-clock span timeline (telemetry runs only; empty otherwise).
  /// Device d's spans carry device == d; the coordinator's (ring repairs)
  /// carry device == cluster size.
  obs::Timeline timeline;
  /// Snapshot of the run's counters and histograms (telemetry runs only).
  obs::MetricsSnapshot metrics;
  /// Spans lost to a full track (telemetry runs only; 0 = complete trace).
  std::uint64_t spans_dropped = 0;
};

}  // namespace hadfl::rt
