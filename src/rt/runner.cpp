#include "rt/runner.hpp"

#include <memory>
#include <vector>

#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "core/round_logic.hpp"
#include "rt/coordinator.hpp"
#include "rt/inproc_io.hpp"
#include "rt/mailbox.hpp"
#include "rt/worker.hpp"

namespace hadfl::rt {

RtResult run_hadfl_rt(const fl::SchemeContext& ctx, const RtConfig& config) {
  HADFL_CHECK_ARG(ctx.partition.size() == ctx.cluster.size(),
                  "partition count != device count");
  sim::Cluster& cluster = ctx.cluster;
  const std::size_t k = cluster.size();

  // ---- Initial model dispatch — the RNG split sequence is shared with the
  // simulator backend (core/round_logic.hpp), which is what makes seeded
  // rt-vs-sim runs draw identical selection/ring streams.
  Rng rng(ctx.config.seed);
  core::DeviceSetup setup = init_devices(ctx, config.hadfl, rng);

  std::vector<double> bandwidth_scales(k);
  std::vector<double> iter_time(k);
  for (std::size_t d = 0; d < k; ++d) {
    bandwidth_scales[d] = cluster.bandwidth_scale(d);
    iter_time[d] = cluster.iteration_time(d);
  }

  InprocTransport transport(k, ctx.network, config.time_scale,
                            bandwidth_scales);
  FailureDetector detector(k, HeartbeatConfig{config.heartbeat_timeout_s});
  std::vector<std::unique_ptr<Mailbox<Command>>> inboxes;
  inboxes.reserve(k);
  for (std::size_t d = 0; d < k; ++d) {
    inboxes.push_back(std::make_unique<Mailbox<Command>>());
  }
  Mailbox<Report> reports;

  // ---- Telemetry (optional). Span tracks are single-writer: device d
  // records on track d from its own worker thread, the coordinator (ring
  // repairs) on track k. Workers reach the instruments through WorkerEnv
  // pointers; with telemetry off every site reduces to one null test, so
  // the dark path stays effectively free and, either way, the training
  // math — and thus the seeded sim/rt equivalence — is untouched.
  std::unique_ptr<obs::SpanRecorder> span_recorder;
  std::unique_ptr<obs::MetricsRegistry> metrics_registry;
  WorkerTelemetry worker_telemetry;
  CoordinatorTelemetry coord_telemetry;
  coord_telemetry.coord_track = k;
  if (config.telemetry) {
    span_recorder = std::make_unique<obs::SpanRecorder>(
        k + 1, config.telemetry_span_capacity);
    metrics_registry = std::make_unique<obs::MetricsRegistry>();
    worker_telemetry.rec = span_recorder.get();
    worker_telemetry.scatter_bytes =
        &metrics_registry->counter("sync.scatter_bytes");
    worker_telemetry.allgather_bytes =
        &metrics_registry->counter("sync.allgather_bytes");
    worker_telemetry.broadcast_bytes =
        &metrics_registry->counter("broadcast.bytes");
    worker_telemetry.scatter_raw_bytes =
        &metrics_registry->counter("sync.scatter_raw_bytes");
    worker_telemetry.allgather_raw_bytes =
        &metrics_registry->counter("sync.allgather_raw_bytes");
    worker_telemetry.broadcast_raw_bytes =
        &metrics_registry->counter("broadcast.raw_bytes");
    coord_telemetry = register_coordinator_telemetry(
        *metrics_registry, span_recorder.get(), k, detector);
  }

  // ---- Device workers: one dedicated thread per device, each running the
  // shared command loop (rt/worker.cpp). Envs and Ios are declared before
  // the pool so they outlive the threads; the pool joins them on
  // destruction, after the shutdown guard below has closed every inbox.
  std::vector<std::unique_ptr<InprocWorkerIo>> worker_ios;
  worker_ios.reserve(k);
  std::vector<WorkerEnv> worker_envs(k);
  for (std::size_t d = 0; d < k; ++d) {
    worker_ios.push_back(
        std::make_unique<InprocWorkerIo>(d, *inboxes[d], reports, detector));
    WorkerEnv& env = worker_envs[d];
    env.id = d;
    env.dev = &setup.devices[d];
    env.transport = &transport;
    env.io = worker_ios[d].get();
    env.config = &config;
    env.iter_time = iter_time[d];
    env.telemetry = worker_telemetry;
  }
  ThreadPool pool(k);
  struct InboxCloser {
    std::vector<std::unique_ptr<Mailbox<Command>>>& boxes;
    ~InboxCloser() {
      for (auto& box : boxes) box->close();
    }
  } closer{inboxes};
  for (std::size_t d = 0; d < k; ++d) {
    pool.submit([&worker_envs, d] { run_device_worker(worker_envs[d]); });
  }

  // ---- Shared coordinator over the in-process channels.
  InprocCoordinatorIo io(inboxes, reports);
  InprocDeviceOracle oracle(setup.devices);
  CoordinatorEnv env;
  env.transport = &transport;
  env.detector = &detector;
  env.io = &io;
  env.oracle = &oracle;
  env.telemetry = coord_telemetry;
  env.scheme_name = "hadfl-rt";
  RtResult result = run_hadfl_coordinator(ctx, config, setup, rng, env);

  // ---- Backend-owned result merges: the shared transport/pool see every
  // endpoint in-process, so their counters are authoritative as-is.
  result.scheme.volume = transport.volume();
  result.pool_stats = transport.pool().stats();
  if (span_recorder != nullptr) {
    // Draining now (before the pool joins) is safe: tracks drop-append, so
    // a fenced worker still finishing its last command can only add spans
    // past the published prefix this drain reads.
    result.spans_dropped = span_recorder->dropped();
    result.timeline = span_recorder->drain();
  }
  if (metrics_registry != nullptr) {
    export_run_counters(*metrics_registry, result);
    result.metrics = metrics_registry->snapshot();
  }
  return result;
}

}  // namespace hadfl::rt
