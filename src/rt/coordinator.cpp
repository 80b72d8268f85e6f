#include "rt/coordinator.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <map>
#include <memory>

#include "common/error.hpp"
#include "common/logging.hpp"
#include "core/round_planner.hpp"
#include "rt/collectives.hpp"

namespace hadfl::rt {

namespace {

/// Per-round cap on selection.probability observations (evenly strided
/// over the candidates) — keeps telemetry O(1) per round at fleet scale.
constexpr std::size_t kSelectionProbSampleCap = 64;

double elapsed_s(Clock::time_point since) {
  return std::chrono::duration<double>(Clock::now() - since).count();
}

}  // namespace

RtResult run_hadfl_coordinator(const fl::SchemeContext& ctx,
                               const RtConfig& config,
                               const core::DeviceSetup& setup, Rng& rng,
                               CoordinatorEnv& env) {
  HADFL_CHECK_ARG(config.collective_timeout_s > 0.0 &&
                      config.command_poll_s > 0.0,
                  "rt timeouts must be positive");

  Transport& transport = *env.transport;
  FailureDetector& detector = *env.detector;
  CoordinatorIo& io = *env.io;
  DeviceOracle& oracle = *env.oracle;
  obs::SpanRecorder* rec = env.telemetry.rec;
  const std::size_t coord_track = env.telemetry.coord_track;

  sim::Cluster& cluster = ctx.cluster;
  const std::size_t k = cluster.size();
  // Every decision of every round; this function carries them out.
  core::RoundPlanner planner(ctx, config.hadfl, *setup.reference,
                             setup.iters_per_epoch, rng);
  const Clock::time_point run_start = Clock::now();
  const auto wall = [&] { return elapsed_s(run_start); };

  const std::vector<std::size_t>& ipe = setup.iters_per_epoch;
  const std::size_t wire_bytes = setup.wire_bytes;

  RtResult result;
  result.scheme.scheme_name = env.scheme_name;
  result.device_stats.resize(k);

  // ---- Coordinator-side liveness + messaging helpers.
  std::vector<bool> live(k, true);
  const auto live_ids = [&] {
    std::vector<DeviceId> ids;
    for (DeviceId d = 0; d < k; ++d) {
      if (live[d]) ids.push_back(d);
    }
    return ids;
  };
  const auto fence = [&](DeviceId d) {
    if (!live[d]) return;
    live[d] = false;
    ++result.deaths_detected;
    planner.observe_death();
    detector.mark_dead(d);
    if (transport.alive(d)) transport.kill(d);
    io.close_channel(d);
    HADFL_WARN("rt: device " << d << " declared dead and fenced");
  };
  const auto post = [&](DeviceId d, Command c) {
    if (!live[d]) return false;
    if (!io.post(d, std::move(c))) {
      fence(d);
      return false;
    }
    return true;
  };
  // Robust report collection: waits for every pending device to report,
  // dropping (and fencing) devices whose endpoint closed, whose heartbeat
  // went stale (`use_detector` — only where workers beat frequently), or
  // that exceeded a hard deadline (bounded commands like collectives).
  const auto collect = [&](std::vector<DeviceId> pending, ReportKind kind,
                           bool use_detector, double deadline_s = 0.0,
                           const std::function<void()>& on_trouble = {}) {
    std::map<DeviceId, Report> out;
    pending.erase(std::remove_if(pending.begin(), pending.end(),
                                 [&](DeviceId d) { return !live[d]; }),
                  pending.end());
    const Clock::time_point start = Clock::now();
    // Devices judged dead before the latest poll. A device's last report
    // reaches the mailbox before its endpoint is seen to close, so one
    // judged dead is fenced only after an empty poll has drained whatever
    // it sent first (a node that reports kStopped and exits is not dead).
    std::vector<DeviceId> doomed;
    while (!pending.empty()) {
      std::optional<Report> r =
          io.poll_report(doomed.empty() ? config.command_poll_s : 0.0);
      if (r) {
        planner.observe_ref_epoch(r->device, r->ref_epoch);
        const auto it =
            std::find(pending.begin(), pending.end(), r->device);
        if (it != pending.end() && r->kind == kind) {
          if (!r->ok && on_trouble) on_trouble();
          out.emplace(r->device, std::move(*r));
          pending.erase(it);
        }
        continue;  // stale/unexpected reports are dropped
      }
      for (DeviceId d : doomed) {
        const auto it = std::find(pending.begin(), pending.end(), d);
        if (it == pending.end()) continue;  // its report arrived after all
        if (on_trouble) on_trouble();
        fence(d);
        pending.erase(it);
      }
      doomed.clear();
      const bool expired =
          deadline_s > 0.0 && elapsed_s(start) >= deadline_s;
      for (DeviceId d : pending) {
        if (!transport.alive(d) || (use_detector && !detector.is_alive(d)) ||
            expired) {
          doomed.push_back(d);
        }
      }
    }
    return out;
  };
  // Generous bound on a ring collective + report: every step is capped by
  // the rendezvous/recv timeout, so a member that blows through this is
  // hung, not slow.
  const auto sync_deadline = [&](std::size_t ring_size) {
    return 4.0 * static_cast<double>(ring_size) * config.collective_timeout_s +
           5.0;
  };
  std::int64_t next_collective_id = 1;
  // One collective attempt over `members` under id `cid`: posts make(i) to
  // member i and collects `done` reports. The pipelined collectives beat
  // through every blocking slice, so the detector is authoritative: a
  // silent mid-pipeline death fences within ~heartbeat_timeout instead of
  // the full deadline. The first failure raises the attempt's cancel flag
  // — and, on the socket backend, kCancel frames — unblocking every member
  // still waiting on a chunk that will never come. Returns the reports when
  // every member succeeded; otherwise aborts the survivors, purging the
  // attempt's traffic, and returns none.
  const auto run_collective =
      [&](const std::vector<DeviceId>& members, std::int64_t cid,
          ReportKind done, const std::function<Command(std::size_t)>& make)
      -> std::optional<std::map<DeviceId, Report>> {
    auto cancel = std::make_shared<std::atomic<bool>>(false);
    std::vector<DeviceId> posted;
    for (std::size_t i = 0; i < members.size(); ++i) {
      Command c = make(i);
      c.cancel = cancel;
      if (post(members[i], std::move(c))) posted.push_back(members[i]);
    }
    auto reps = collect(posted, done, /*use_detector=*/true,
                        sync_deadline(members.size()), [&] {
                          cancel->store(true, std::memory_order_relaxed);
                          io.cancel_collective(members, cid);
                        });
    if (posted.size() == members.size() && reps.size() == members.size() &&
        std::all_of(reps.begin(), reps.end(),
                    [](const auto& kv) { return kv.second.ok; })) {
      return reps;
    }
    std::vector<DeviceId> aborted;
    for (DeviceId d : members) {
      Command c;
      c.kind = CmdKind::kAbort;
      c.collective_id = next_collective_id;
      if (post(d, std::move(c))) aborted.push_back(d);
    }
    collect(aborted, ReportKind::kAck, /*use_detector=*/false,
            sync_deadline(members.size()));
    return std::nullopt;
  };

  // Shadow of each worker's last reported version. The coordinator never
  // reads a (possibly dead) worker's DeviceState for bookkeeping — only
  // model states of devices known idle-and-live, through the oracle.
  std::vector<double> sh_version(k, 0.0);

  // ---- Mutual negotiation (§III-B) on real threads.
  const int warmup_epochs = planner.warmup_epochs();
  for (DeviceId d = 0; d < k; ++d) {
    Command c;
    c.kind = CmdKind::kWarmup;
    c.steps = static_cast<std::size_t>(warmup_epochs) * ipe[d];
    c.learning_rate = ctx.config.warmup_learning_rate;
    post(d, std::move(c));
  }
  std::vector<sim::SimTime> epoch_times(k, 0.0);
  {
    const auto reps =
        collect(fl::all_device_ids(cluster), ReportKind::kWarmupDone,
                /*use_detector=*/true);
    for (DeviceId d = 0; d < k; ++d) {
      // kVirtual derives T_i from the specs exactly like the simulator's
      // clock accounting; kWallclock reports the measured duration.
      epoch_times[d] =
          static_cast<double>(ipe[d]) * cluster.iteration_time(d);
      const auto it = reps.find(d);
      if (it != reps.end()) {
        planner.observe_training(
            d, static_cast<std::size_t>(warmup_epochs) * ipe[d],
            it->second.loss);
        if (config.timing == TimingMode::kWallclock) {
          epoch_times[d] =
              it->second.wall_s / static_cast<double>(warmup_epochs);
        }
      }
    }
  }
  // ---- Strategy generation (§III-C) from the negotiated epoch times.
  planner.negotiate(std::move(epoch_times), env.telemetry.metrics);

  if (config.hadfl.full_sync_after_negotiation) {
    const std::vector<DeviceId> reachable = live_ids();
    if (reachable.size() > 1) {
      const std::vector<float> mean = oracle.mean_state(reachable);
      const std::size_t n = reachable.size();
      const std::size_t chunk = (wire_bytes + n - 1) / n;
      for (std::size_t i = 0; i < n; ++i) {
        transport.account(reachable[i], reachable[(i + 1) % n],
                          2 * (n - 1) * chunk);
      }
      std::vector<DeviceId> posted;
      for (DeviceId d : reachable) {
        Command c;
        c.kind = CmdKind::kSetState;
        c.state = mean;
        if (post(d, std::move(c))) posted.push_back(d);
      }
      collect(posted, ReportKind::kAck, /*use_detector=*/true, 30.0);
    }
  }

  // Post-negotiation starting point. A fenced device's worker may still be
  // running (heartbeat fencing does not stop the thread), so its
  // DeviceState must never be read — fall back to the common initial
  // state when nobody live is left.
  const auto live_mean = [&] {
    const std::vector<DeviceId> ids = live_ids();
    return ids.empty() ? setup.init_state : oracle.mean_state(ids);
  };
  planner.record_start(live_mean(), wall());

  while (planner.begin_round()) {
    const std::size_t round = planner.round();
    const ctrl::RoundPlan& plan = planner.plan();
    // kVirtual step times: the specs' (jitter factor 1), times injected
    // drift, which is exactly 1.0 for a device without drift scheduled.
    const auto virtual_step_time = [&](DeviceId d) {
      return cluster.iteration_time(d) *
             cluster.faults().drift_multiplier(d, round);
    };

    // Workflow step 1: the available set is fixed *before* the round
    // starts. A device dying during the round stays selectable on this
    // stale view — the §III-D repair protocol is what handles it.
    const std::vector<bool> available_at_start = live;

    // -- Asynchronous local training with deadline truncation.
    std::vector<DeviceId> trainees;
    for (DeviceId d = 0; d < k; ++d) {
      if (!live[d]) continue;
      Command c;
      c.kind = CmdKind::kTrain;
      c.learning_rate = ctx.config.learning_rate;
      if (config.timing == TimingMode::kVirtual) {
        c.steps = planner.steps_in_window(d, virtual_step_time(d));
      } else {
        c.steps = plan.local_steps[d];
        c.deadline_s = planner.window();
      }
      for (const FaultPlan& fault : config.faults) {
        if (fault.device == d && fault.round == round && !fault.during_sync) {
          c.die_after = static_cast<std::int64_t>(fault.after_steps);
          c.die_silently = fault.silent;
        }
      }
      if (post(d, std::move(c))) trainees.push_back(d);
    }
    {
      double executed_total = 0.0;
      const auto reps =
          collect(trainees, ReportKind::kTrainDone, /*use_detector=*/true);
      for (const auto& [d, r] : reps) {
        planner.observe_training(d, r.executed, r.loss);
        sh_version[d] = r.version;
        executed_total += static_cast<double>(r.executed);
        if (planner.adaptive() && r.executed > 0) {
          // kVirtual step times are the spec'd (drifted) ones the budget
          // arithmetic uses; kWallclock feeds the measured burst duration.
          if (config.timing == TimingMode::kVirtual) {
            planner.observe_step_time(d, virtual_step_time(d));
          } else if (r.wall_s > 0.0) {
            planner.observe_step_time(
                d, r.wall_s / static_cast<double>(r.executed));
          }
        }
      }
      planner.observe_steps(executed_total);
    }

    // -- Coordinator: prediction, observation (same order as the sim).
    const std::vector<double>& predicted = planner.forecast(sh_version);

    // -- Per group: selection, fault-tolerant ring synchronization,
    //    broadcast — the planner decides, the commands carry it out.
    for (const auto& group : planner.groups()) {
      std::vector<DeviceId> candidates;
      for (DeviceId id : group) {
        if (available_at_start[id]) candidates.push_back(id);
      }
      if (candidates.empty()) continue;

      // Snapshot the Eq. 8 selection probabilities this group's draw sees.
      // Read-only: probabilities() consumes no RNG, so the seeded draw
      // stream — and the sim/rt equivalence — is unchanged. Observations
      // are capped per round (evenly strided over the candidates) so the
      // telemetry cost stays O(cap), not O(fleet).
      if (env.telemetry.selection_prob != nullptr &&
          dynamic_cast<const core::GaussianQuartileSelection*>(
              &planner.policy()) != nullptr) {
        std::vector<double> cand_versions;
        cand_versions.reserve(candidates.size());
        for (DeviceId d : candidates) cand_versions.push_back(predicted[d]);
        obs::observe_sampled(
            *env.telemetry.selection_prob,
            core::GaussianQuartileSelection::probabilities(cand_versions),
            kSelectionProbSampleCap);
      }
      std::vector<DeviceId> ring = planner.select_ring(candidates);

      std::vector<float> aggregate;
      double version_mean = 0.0;
      core::SyncPlan sync;
      std::int64_t commit_id = 0;
      for (int attempt = 0;
           attempt < core::RoundPlanner::kMaxSyncAttempts && !ring.empty();
           ++attempt) {
        const double att0 = rec != nullptr ? rec->now_s() : 0.0;
        const RtRingRepairResult repair = repair_ring(
            transport, detector, ring, config.hadfl.repair, rec, coord_track);
        planner.observe_repairs(repair.repairs);
        for (DeviceId d : repair.removed) fence(d);
        ring = repair.ring;
        if (ring.empty()) break;

        const Clock::time_point att0_wall = Clock::now();
        const std::int64_t cid = next_collective_id++;
        sync = planner.plan_sync(ring);
        auto sreps = run_collective(
            ring, cid, ReportKind::kSyncDone, [&](std::size_t i) {
              Command c;
              c.kind = CmdKind::kSync;
              c.peers = ring;
              c.my_index = i;
              c.collective_id = cid;
              c.weights = sync.weights;
              c.wire_bytes = wire_bytes;
              c.chunks = plan.sync_chunks;
              c.delta = sync.delta;
              c.ref_epoch = sync.base_epoch;
              c.codec = plan.codec;
              c.codec_ratio = plan.topk_ratio;
              for (const FaultPlan& fault : config.faults) {
                if (fault.device == ring[i] && fault.round == round &&
                    fault.during_sync && attempt == 0) {
                  c.die_after = static_cast<std::int64_t>(fault.after_steps);
                  c.die_silently = fault.silent;
                }
              }
              return c;
            });
        if (sreps) {
          aggregate = std::move(sreps->at(ring.front()).aggregate);
          version_mean = planner.commit_sync(ring, sh_version);
          commit_id = cid;
          std::vector<DeviceId> committed;
          for (DeviceId d : ring) {
            Command c;
            c.kind = CmdKind::kCommit;
            c.version_mean = version_mean;
            c.collective_id = cid;
            c.delta = sync.delta;
            c.ref_epoch = sync.base_epoch;
            if (post(d, std::move(c))) committed.push_back(d);
          }
          const auto creps = collect(committed, ReportKind::kCommitDone,
                                     /*use_detector=*/false, 30.0);
          for (const auto& [d, r] : creps) sh_version[d] = r.version;
          // Successful-attempt latency: repair sweep → posted collective →
          // every member folded, reported and committed.
          if (env.telemetry.sync_latency != nullptr) {
            env.telemetry.sync_latency->observe(rec->now_s() - att0);
          }
          planner.observe_sync(ring, elapsed_s(att0_wall));
          break;
        }
        // The survivors were aborted: repair and retry under a fresh id.
        HADFL_WARN("rt: partial sync attempt " << attempt
                                               << " failed; repairing");
        // Abort latency: how long a doomed attempt held the ring before
        // every survivor acknowledged the abort.
        if (env.telemetry.abort_latency != nullptr) {
          env.telemetry.abort_latency->observe(rec->now_s() - att0);
        }
      }
      if (ring.empty() || aggregate.empty()) continue;

      // -- Non-blocking broadcast to the unselected group members.
      std::vector<DeviceId> others;
      for (DeviceId id : candidates) {
        if (std::find(ring.begin(), ring.end(), id) == ring.end()) {
          others.push_back(id);
        }
      }
      if (!others.empty()) {
        const core::BroadcastPlan bc =
            planner.plan_broadcast(ring, std::move(others), sync);
        // End-to-end non-blocking (§III-D): the coordinator posts the push
        // and the integrations and moves straight on — nobody collects
        // these reports (collect() drops them as stale later, which is
        // also what keeps the planner's reference epochs fresh). The
        // per-worker command FIFO is the only ordering needed: the
        // broadcaster trains its next round while the chunks drain, and
        // each receiver integrates chunk-by-chunk before its next kTrain.
        // sh_version self-heals because kTrainDone carries the absolute
        // version. The sync's collective id doubles as the push tag and
        // the receivers' new epoch, so every delivered device lands on the
        // same epoch as the ring members. Fenced receivers get nothing.
        const auto push_to = [&](const std::vector<DeviceId>& receivers,
                                 bool as_delta) {
          std::vector<DeviceId> targets;
          for (DeviceId id : receivers) {
            if (live[id]) targets.push_back(id);
          }
          if (targets.empty()) return;
          Command c;
          c.kind = CmdKind::kBroadcast;
          c.peers = targets;
          c.collective_id = commit_id;
          c.wire_bytes = wire_bytes;
          c.chunks = plan.sync_chunks;
          c.delta = as_delta;
          c.ref_epoch = sync.base_epoch;
          c.codec = plan.codec;
          c.codec_ratio = plan.topk_ratio;
          if (post(bc.source, std::move(c))) {
            for (DeviceId id : targets) {
              Command c2;
              c2.kind = CmdKind::kIntegrate;
              c2.peer = bc.source;
              c2.collective_id = commit_id;
              c2.version_mean = version_mean;
              c2.chunks = plan.sync_chunks;
              c2.delta = as_delta;
              c2.ref_epoch = sync.base_epoch;
              c2.codec = plan.codec;
              c2.codec_ratio = plan.topk_ratio;
              post(id, std::move(c2));
            }
          }
        };
        push_to(bc.aligned, /*as_delta=*/true);
        push_to(bc.stale, /*as_delta=*/false);
      }
      planner.merge_group_aggregate(std::move(aggregate));
    }

    // -- Inter-group synchronization (§III-A hierarchical mode), two-phase
    //    like the ring sync: every group's leader allgathers the leader
    //    states and stages the global mean (kInterSync); only when all
    //    leaders report success does the coordinator post the commit —
    //    each leader loads the global and pushes it non-blockingly to its
    //    group, each member mixes it in (kInterCommit / kInterMix,
    //    fire-and-forget like the broadcast). The applied state and mix
    //    match the simulator's leader exchange bit for bit; a failed
    //    phase 1 aborts with no state touched.
    const core::InterGroupLeaders inter =
        planner.inter_group_leaders([&](DeviceId id) { return live[id]; });
    if (!inter.empty()) {
      const std::vector<DeviceId>& leaders = inter.devices;
      const core::DeviceGroups& groups = planner.groups();
      const std::int64_t cid = next_collective_id++;
      auto reps = run_collective(
          leaders, cid, ReportKind::kInterSyncDone, [&](std::size_t i) {
            Command c;
            c.kind = CmdKind::kInterSync;
            c.peers = leaders;
            c.my_index = i;
            c.collective_id = cid;
            c.wire_bytes = wire_bytes;
            c.chunks = config.hadfl.sync_chunks;
            return c;
          });
      if (reps) {
        std::vector<float> global =
            std::move(reps->at(leaders.front()).aggregate);
        const std::int64_t push_id = next_collective_id++;
        for (std::size_t i = 0; i < leaders.size(); ++i) {
          const DeviceId leader = leaders[i];
          std::vector<DeviceId> members;
          for (DeviceId id : groups[inter.group[i]]) {
            if (live[id] && id != leader) members.push_back(id);
          }
          Command c;
          c.kind = CmdKind::kInterCommit;
          c.peers = members;
          c.collective_id = push_id;
          c.wire_bytes = wire_bytes;
          c.chunks = config.hadfl.sync_chunks;
          if (post(leader, std::move(c))) {
            for (DeviceId id : members) {
              Command c2;
              c2.kind = CmdKind::kInterMix;
              c2.peer = leader;
              c2.collective_id = push_id;
              c2.chunks = config.hadfl.sync_chunks;
              post(id, std::move(c2));
            }
          }
        }
        planner.merge_inter_group(std::move(global));
      } else {
        // Aborted with no state touched; the next period retries with
        // whoever is still alive.
        HADFL_WARN("rt: inter-group sync failed; skipping this period");
      }
    }

    // -- Record convergence on the aggregated model; a round that synced
    //    nothing evaluates the live devices' mean.
    planner.end_round(wall(), [&] {
      const std::vector<DeviceId> avail = live_ids();
      return avail.empty() ? std::vector<float>{}
                           : oracle.mean_state(avail);
    });
  }

  // ---- Orderly shutdown: after the kStopped reports the workers make no
  // further writes, so the final state reads below are race-free even
  // before the worker threads/processes are reaped.
  {
    std::vector<DeviceId> stopping;
    for (DeviceId d = 0; d < k; ++d) {
      Command c;
      c.kind = CmdKind::kStop;
      if (post(d, std::move(c))) stopping.push_back(d);
    }
    const auto sreps =
        collect(stopping, ReportKind::kStopped, /*use_detector=*/true, 30.0);
    for (const auto& [d, r] : sreps) {
      result.device_stats[d].reported = true;
      result.device_stats[d].sent_bytes = r.sent_bytes;
      result.device_stats[d].received_bytes = r.received_bytes;
      result.device_stats[d].pool = r.pool;
    }
  }

  planner.finish(result.scheme, result.extras, live_mean);
  result.scheme.total_time = wall();
  result.wall_seconds = wall();
  return result;
}

CoordinatorTelemetry register_coordinator_telemetry(
    obs::MetricsRegistry& registry, obs::SpanRecorder* rec,
    std::size_t coord_track, FailureDetector& detector) {
  CoordinatorTelemetry t;
  t.rec = rec;
  t.coord_track = coord_track;
  t.sync_latency = &registry.histogram(
      "sync.latency_s", obs::exponential_bounds(1e-4, 2.0, 18));
  t.abort_latency = &registry.histogram(
      "sync.abort_latency_s", obs::exponential_bounds(1e-4, 2.0, 18));
  t.selection_prob = &registry.histogram(
      "selection.probability",
      {0.01, 0.02, 0.05, 0.1, 0.2, 0.3, 0.5, 0.75, 1.0});
  t.metrics = &registry;
  detector.attach_silence_histogram(&registry.histogram(
      "heartbeat.silence_s", obs::exponential_bounds(1e-4, 2.0, 16)));
  return t;
}

void export_run_counters(obs::MetricsRegistry& registry,
                         const RtResult& result) {
  registry.counter("rt.deaths_detected").add(result.deaths_detected);
  registry.counter("rt.ring_repairs").add(result.extras.ring_repairs);
  registry.counter("buffer_pool.hits").add(result.pool_stats.hits);
  registry.counter("buffer_pool.misses").add(result.pool_stats.misses);
  registry.counter("buffer_pool.high_water")
      .add(result.pool_stats.high_water);
  registry.counter("telemetry.spans_dropped").add(result.spans_dropped);
}

}  // namespace hadfl::rt
