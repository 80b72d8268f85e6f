// Real-time concurrent HADFL runner: the pipeline the simulator runs
// (core::run_hadfl, the fleet engine's exact mode in core/fleet.cpp) —
// warmup negotiation → strategy generation → version prediction →
// probability selection → ring synchronization → non-blocking broadcast →
// §III-A hierarchical group sync → §III-D fault tolerance — executed on
// actual threads.
//
// Architecture (Fig. 2a on threads): the calling thread runs the shared
// coordinator (rt/coordinator.hpp); each device is a worker loop
// (rt/worker.hpp) hosted on a dedicated common/ThreadPool thread.
// Coordinator → worker commands travel through per-worker mailboxes;
// worker → coordinator reports through one shared mailbox. Model/optimizer
// state is exclusively owned by its worker between synchronization points —
// the coordinator only reads it after receiving the worker's report (the
// mailbox handoff is the happens-before edge), so the runner is clean under
// -DHADFL_SANITIZE=thread.
//
// Ring collectives (rt/collectives.hpp) and the non-blocking broadcast run
// peer-to-peer over rt::InprocTransport; the coordinator only orchestrates.
// Synchronization is two-phase (compute the aggregate, report, then commit
// or abort), so a device dying mid-collective can never leave the surviving
// members with mixed states: the coordinator repairs the ring
// (rt/failure_detector.hpp) and retries under a fresh collective id.
// With `config.hadfl.grouping` enabled, each group runs its own selection
// ring and a periodic inter-group leader exchange aggregates across groups
// (§III-A) — the same hierarchy the simulator runs, on threads.
//
// Timing modes:
//  * kVirtual — epoch times and step budgets are derived from the cluster's
//    device specs exactly as the simulator derives them. A seeded run with
//    jitter and faults disabled then produces the same strategy, the same
//    selection/ring draws, and a bit-identical final aggregate as
//    core::run_hadfl (tests/test_rt.cpp pins this equivalence, flat and
//    grouped).
//  * kWallclock — epoch times are measured with steady_clock on the worker
//    threads and the round window is enforced as a real deadline; use
//    `compute_throttle` to make the specs' heterogeneity visible in wall
//    time on a single machine.
//
// The multi-process variant of this runner — same coordinator and worker
// code, device processes over net::SocketTransport — is
// net::run_hadfl_net (src/net/runner.hpp).
#pragma once

#include "fl/scheme.hpp"
#include "rt/config.hpp"

namespace hadfl::rt {

/// Runs HADFL end-to-end on one thread per device. `ctx.cluster` provides
/// the device specs (compute powers, bandwidth scales, virtual iteration
/// times); its clocks and fault injector are not used — time is real and
/// faults come from `config.faults`.
RtResult run_hadfl_rt(const fl::SchemeContext& ctx, const RtConfig& config = {});

}  // namespace hadfl::rt
