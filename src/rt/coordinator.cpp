#include "rt/coordinator.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <functional>
#include <map>
#include <memory>

#include "common/error.hpp"
#include "common/logging.hpp"
#include "comm/delta_codec.hpp"
#include "core/coordinator.hpp"
#include "ctrl/adaptive_controller.hpp"
#include "core/grouping.hpp"
#include "fl/evaluate.hpp"
#include "nn/param_utils.hpp"
#include "rt/collectives.hpp"

namespace hadfl::rt {

namespace {

/// Synchronization attempts per round (repair + retry under a fresh id).
constexpr int kMaxSyncAttempts = 4;

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
  HADFL_CHECK_ARG(ctx.partition.size() == ctx.cluster.size(),
                  "partition count != device count");
  HADFL_CHECK_ARG(config.hadfl.alpha > 0.0 && config.hadfl.alpha < 1.0,
                  "alpha must be in (0, 1)");
  HADFL_CHECK_ARG(config.hadfl.broadcast_mix_weight >= 0.0 &&
                      config.hadfl.broadcast_mix_weight <= 1.0,
                  "broadcast mix weight must be in [0, 1]");
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
  // §III-A topology: one ring (and one broadcast) per group each round; a
  // single group degenerates to the original flat pipeline.
  const std::vector<std::vector<DeviceId>> groups =
      core::make_groups(cluster, config.hadfl.grouping);
  const Clock::time_point run_start = Clock::now();
  const auto wall = [&] { return elapsed_s(run_start); };

  std::shared_ptr<core::SelectionPolicy> policy = config.hadfl.policy;
  if (!policy) policy = std::make_shared<core::GaussianQuartileSelection>();

  const std::vector<std::size_t>& ipe = setup.iters_per_epoch;
  const std::size_t wire_bytes = setup.wire_bytes;
  // Chunk grid for collectives and broadcasts, shared with the sim so every
  // backend encodes identical chunks.
  const std::size_t sync_chunks = config.hadfl.sync_chunks;

  // Shadow of each worker's reference epoch (updated from *every* drained
  // report — they all carry it). A sync round ships codec-encoded deltas
  // only when every ring member's shadow agrees on a non-negative epoch;
  // negative means the worker flagged its reference unknown after a
  // partial delta integrate.
  std::vector<std::int64_t> sh_ref_epoch(k, 0);

  std::vector<double> bandwidth_scales(k);
  std::vector<double> iter_time(k);
  for (std::size_t d = 0; d < k; ++d) {
    bandwidth_scales[d] = cluster.bandwidth_scale(d);
    iter_time[d] = cluster.iteration_time(d);
  }

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
        if (r->device < k) sh_ref_epoch[r->device] = r->ref_epoch;
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

  // Shadow of each worker's last reported progress. The coordinator never
  // reads a (possibly dead) worker's DeviceState for bookkeeping — only
  // model states of devices known idle-and-live, through the oracle.
  std::vector<double> sh_version(k, 0.0);
  std::vector<double> sh_loss(k, 0.0);
  std::vector<std::size_t> sh_executed(k, 0);

  // ---- Mutual negotiation (§III-B) on real threads.
  const int warmup_epochs = std::max(1, ctx.config.warmup_epochs);
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
          static_cast<double>(ipe[d]) * iter_time[d];
      const auto it = reps.find(d);
      if (it != reps.end()) {
        sh_loss[d] = it->second.loss;
        if (config.timing == TimingMode::kWallclock) {
          epoch_times[d] =
              it->second.wall_s / static_cast<double>(warmup_epochs);
        }
      }
    }
  }
  result.extras.negotiated_epoch_times = epoch_times;

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

  double epochs_done = warmup_epochs;

  // ---- Strategy generation (§III-C) from the negotiated epoch times.
  const core::StrategyGenerator generator(config.hadfl.strategy);
  const core::TrainingStrategy strategy = generator.generate(epoch_times, ipe);
  result.extras.strategy = strategy;
  HADFL_INFO("hadfl-rt strategy: H_E=" << strategy.hyperperiod << "s window="
                                       << strategy.round_window << "s");

  // ---- Adaptive control loop (src/ctrl), seeded from the negotiated
  // epoch times; null when disabled — every branch below then falls back
  // to the static knobs, keeping the run bit-identical to today.
  std::unique_ptr<ctrl::AdaptiveController> controller;
  if (config.hadfl.adaptive.enabled) {
    std::vector<double> step_time(k);
    for (std::size_t d = 0; d < k; ++d) {
      step_time[d] = epoch_times[d] / static_cast<double>(ipe[d]);
    }
    controller = std::make_unique<ctrl::AdaptiveController>(
        config.hadfl.adaptive, std::move(step_time), strategy.round_window,
        strategy.local_steps, sync_chunks, config.hadfl.compression,
        config.hadfl.top_k_ratio);
    controller->bind_metrics(env.telemetry.metrics);
  }

  core::RuntimeSupervisor supervisor(k, config.hadfl.alpha);
  core::ModelManager model_manager(config.hadfl.backup_dir,
                                   config.hadfl.backup_every_rounds);

  // Post-negotiation starting point.
  {
    // A fenced device's worker may still be running (heartbeat fencing does
    // not stop the thread), so its DeviceState must never be read — fall
    // back to the common initial state when nobody live is left.
    const std::vector<DeviceId> ids = live_ids();
    const std::vector<float> mean =
        ids.empty() ? setup.init_state : oracle.mean_state(ids);
    nn::load_state(*setup.reference, mean);
    const fl::EvalResult eval = fl::evaluate(*setup.reference, ctx.test);
    double loss_sum = 0.0;
    for (DeviceId d = 0; d < k; ++d) loss_sum += sh_loss[d];
    result.scheme.metrics.add(fl::ConvergencePoint{
        epochs_done, wall(), loss_sum / static_cast<double>(k), eval.loss,
        eval.accuracy});
  }

  const double total_train = static_cast<double>(ctx.train.size());
  std::size_t round = 0;
  std::int64_t next_collective_id = 1;
  int idle_rounds = 0;

  while (epochs_done < static_cast<double>(ctx.config.total_epochs)) {
    if (live_ids().empty()) {
      HADFL_WARN("rt: no live devices left; stopping");
      break;
    }
    ++round;
    const double window = strategy.round_window;
    // Per-round knobs: the controller's plan when adaptive is on, the
    // static configuration otherwise (identical values by construction).
    const std::vector<std::size_t>& budgets =
        controller ? controller->plan().local_steps : strategy.local_steps;
    const core::SyncCompression round_codec =
        controller ? controller->plan().codec : config.hadfl.compression;
    const double round_ratio =
        controller ? controller->plan().topk_ratio : config.hadfl.top_k_ratio;
    const std::size_t round_chunks =
        controller && controller->plan().sync_chunks != 0
            ? controller->plan().sync_chunks
            : sync_chunks;
    const bool force_raw = controller && controller->plan().force_raw;
    const bool codec_on =
        round_codec != core::SyncCompression::kNone && !force_raw;

    // Workflow step 1: the available set is fixed *before* the round
    // starts. A device dying during the round stays selectable on this
    // stale view — the §III-D repair protocol is what handles it.
    std::vector<bool> available_at_start(k, false);
    for (DeviceId d = 0; d < k; ++d) available_at_start[d] = live[d];

    // -- Asynchronous local training with deadline truncation.
    std::vector<DeviceId> trainees;
    for (DeviceId d = 0; d < k; ++d) {
      if (!live[d]) continue;
      Command c;
      c.kind = CmdKind::kTrain;
      c.learning_rate = ctx.config.learning_rate;
      if (config.timing == TimingMode::kVirtual) {
        // Same truncation arithmetic as the simulator (jitter factor 1);
        // injected drift multiplies the true step time, exactly 1.0 when
        // the device has no drift scheduled.
        const double it_eff =
            iter_time[d] * cluster.faults().drift_multiplier(d, round);
        const auto fit = static_cast<std::size_t>(
            std::max(0.0, std::floor(window / it_eff + 1e-9)));
        c.steps = std::min(budgets[d], fit);
      } else {
        c.steps = budgets[d];
        c.deadline_s = window;
      }
      for (const FaultPlan& plan : config.faults) {
        if (plan.device == d && plan.round == round && !plan.during_sync) {
          c.die_after = static_cast<std::int64_t>(plan.after_steps);
          c.die_silently = plan.silent;
        }
      }
      if (post(d, std::move(c))) trainees.push_back(d);
    }
    double executed_total = 0.0;
    {
      const auto reps =
          collect(trainees, ReportKind::kTrainDone, /*use_detector=*/true);
      for (const auto& [d, r] : reps) {
        sh_executed[d] = r.executed;
        sh_loss[d] = r.loss;
        sh_version[d] = r.version;
        executed_total += static_cast<double>(r.executed);
        if (controller && r.executed > 0) {
          // kVirtual step times are the spec'd (drifted) ones the budget
          // arithmetic uses; kWallclock feeds the measured burst duration.
          if (config.timing == TimingMode::kVirtual) {
            controller->observe_step_time(
                d, iter_time[d] * cluster.faults().drift_multiplier(d, round));
          } else if (r.wall_s > 0.0) {
            controller->observe_step_time(
                d, r.wall_s / static_cast<double>(r.executed));
          }
        }
      }
    }

    // -- Coordinator: prediction, observation (same order as the sim).
    std::vector<double> fallback(k);
    for (DeviceId d = 0; d < k; ++d) {
      fallback[d] =
          static_cast<double>(round) * strategy.expected_versions[d];
    }
    const std::vector<double> predicted =
        core::predict_versions(config.hadfl.predictor, supervisor, fallback,
                               result.extras.actual_versions);
    supervisor.observe_round(sh_version);
    result.extras.actual_versions.push_back(sh_version);
    result.extras.predicted_versions.push_back(predicted);

    // -- Per group: selection, fault-tolerant ring synchronization,
    //    broadcast — the same loop the simulator runs, so the seeded
    //    selection/ring/broadcast draw streams stay identical.
    std::vector<float> eval_state;
    std::vector<DeviceId> selected_this_round;
    for (const auto& group : groups) {
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
          dynamic_cast<core::GaussianQuartileSelection*>(policy.get()) !=
              nullptr) {
        std::vector<double> cand_versions;
        cand_versions.reserve(candidates.size());
        for (DeviceId d : candidates) cand_versions.push_back(predicted[d]);
        obs::observe_sampled(
            *env.telemetry.selection_prob,
            core::GaussianQuartileSelection::probabilities(cand_versions),
            kSelectionProbSampleCap);
      }
      core::RingPlan plan = core::plan_ring(
          *policy, candidates, predicted, setup.compute_powers,
          bandwidth_scales, config.hadfl.strategy.select_count, rng);
      std::vector<DeviceId> ring = std::move(plan.ring);

      std::vector<float> aggregate;
      double version_mean = 0.0;
      bool delta_round = false;
      std::int64_t commit_id = 0;
      std::int64_t base_epoch = 0;
      for (int attempt = 0; attempt < kMaxSyncAttempts && !ring.empty();
           ++attempt) {
        const double att0 = rec != nullptr ? rec->now_s() : 0.0;
        const RtRingRepairResult repair = repair_ring(
            transport, detector, ring, config.hadfl.repair, rec, coord_track);
        result.extras.ring_repairs += repair.repairs;
        for (DeviceId d : repair.removed) fence(d);
        ring = repair.ring;
        if (ring.empty()) break;

        const Clock::time_point att0_wall = Clock::now();
        const std::int64_t cid = next_collective_id++;
        const std::vector<double> weights = core::ring_weights(
            ctx.partition, ring, config.hadfl.weight_by_samples);
        // Delta round only when every member's shadowed reference epoch
        // agrees (bit-identical references are the precondition for
        // exchanging encoded deltas against them); otherwise this attempt
        // runs the exact dense path, which realigns everyone on commit.
        base_epoch = sh_ref_epoch[ring.front()];
        bool delta = codec_on && base_epoch >= 0;
        for (DeviceId member : ring) {
          delta = delta && sh_ref_epoch[member] == base_epoch;
        }
        auto cancel = std::make_shared<std::atomic<bool>>(false);
        std::vector<DeviceId> posted;
        for (std::size_t i = 0; i < ring.size(); ++i) {
          Command c;
          c.kind = CmdKind::kSync;
          c.peers = ring;
          c.my_index = i;
          c.collective_id = cid;
          c.weights = weights;
          c.wire_bytes = wire_bytes;
          c.chunks = round_chunks;
          c.delta = delta;
          c.ref_epoch = base_epoch;
          c.codec = round_codec;
          c.codec_ratio = round_ratio;
          c.cancel = cancel;
          for (const FaultPlan& plan : config.faults) {
            if (plan.device == ring[i] && plan.round == round &&
                plan.during_sync && attempt == 0) {
              c.die_after = static_cast<std::int64_t>(plan.after_steps);
              c.die_silently = plan.silent;
            }
          }
          if (post(ring[i], std::move(c))) posted.push_back(ring[i]);
        }
        // The pipelined collective beats through every blocking slice, so
        // the detector is authoritative here: a silent mid-pipeline death
        // fences within ~heartbeat_timeout instead of the full deadline.
        // The first failure raises the attempt's cancel flag — and, on the
        // socket backend, kCancel frames — unblocking every member still
        // waiting on a chunk that will never come.
        auto sreps = collect(
            posted, ReportKind::kSyncDone,
            /*use_detector=*/true, sync_deadline(ring.size()), [&] {
              cancel->store(true, std::memory_order_relaxed);
              io.cancel_collective(ring, cid);
            });
        const bool all_ok =
            posted.size() == ring.size() && sreps.size() == ring.size() &&
            std::all_of(sreps.begin(), sreps.end(),
                        [](const auto& kv) { return kv.second.ok; });
        if (all_ok) {
          aggregate = std::move(sreps.at(ring.front()).aggregate);
          version_mean = 0.0;
          for (DeviceId d : ring) version_mean += sh_version[d];
          version_mean /= static_cast<double>(ring.size());
          delta_round = delta;
          commit_id = cid;
          std::vector<DeviceId> committed;
          for (DeviceId d : ring) {
            Command c;
            c.kind = CmdKind::kCommit;
            c.version_mean = version_mean;
            c.collective_id = cid;
            c.delta = delta;
            c.ref_epoch = base_epoch;
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
          if (controller) {
            const std::size_t n = aggregate.size();
            const std::size_t sync_wire =
                delta ? comm::encoded_state_bytes(round_codec, n,
                                                  round_chunks, round_ratio)
                      : wire_bytes;
            controller->observe_sync(elapsed_s(att0_wall), sync_wire);
            bool any_slow = false;
            for (DeviceId d : ring) {
              any_slow =
                  any_slow || bandwidth_scales[d] <
                                  config.hadfl.adaptive.slow_link_threshold;
            }
            controller->observe_slow_link(any_slow);
          }
          break;
        }
        // Abort the survivors, purge stale collective traffic, repair and
        // retry under a fresh id.
        HADFL_WARN("rt: partial sync attempt " << attempt
                                               << " failed; repairing");
        aggregate.clear();
        std::vector<DeviceId> aborted;
        for (DeviceId d : ring) {
          Command c;
          c.kind = CmdKind::kAbort;
          c.collective_id = next_collective_id;
          if (post(d, std::move(c))) aborted.push_back(d);
        }
        collect(aborted, ReportKind::kAck, /*use_detector=*/false,
                sync_deadline(ring.size()));
        // Abort latency: how long a doomed attempt held the ring before
        // every survivor acknowledged the abort.
        if (env.telemetry.abort_latency != nullptr) {
          env.telemetry.abort_latency->observe(rec->now_s() - att0);
        }
      }

      if (!ring.empty() && !aggregate.empty()) {
        selected_this_round.insert(selected_this_round.end(), ring.begin(),
                                   ring.end());

        // -- Non-blocking broadcast to the unselected group members.
        std::vector<DeviceId> others;
        for (DeviceId id : candidates) {
          if (std::find(ring.begin(), ring.end(), id) == ring.end()) {
            others.push_back(id);
          }
        }
        if (!others.empty()) {
          const DeviceId src = ring[static_cast<std::size_t>(rng.uniform_int(
              0, static_cast<std::int64_t>(ring.size()) - 1))];
          // Receivers whose shadowed reference epoch matches the committed
          // round's base get the stashed delta encodings (codec-priced);
          // everyone else — stale or flagged unknown — gets the exact
          // dense aggregate, which realigns them. The sync's collective id
          // doubles as the push tag and the receivers' new epoch, so every
          // delivered device lands on the same epoch as the ring members.
          std::vector<DeviceId> aligned;
          std::vector<DeviceId> stale;
          for (DeviceId id : others) {
            if (!live[id]) continue;
            if (delta_round && sh_ref_epoch[id] == base_epoch) {
              aligned.push_back(id);
            } else {
              stale.push_back(id);
            }
          }
          // End-to-end non-blocking (§III-D): the coordinator posts the
          // push and the integrations and moves straight on — nobody
          // collects these reports (collect() drops them as stale later,
          // which is also what keeps sh_ref_epoch fresh). The per-worker
          // command FIFO is the only ordering needed: the broadcaster
          // trains its next round while the chunks drain, and each
          // receiver integrates chunk-by-chunk before its next kTrain.
          // sh_version self-heals because kTrainDone carries the absolute
          // version.
          const auto push_to = [&](const std::vector<DeviceId>& targets,
                                   bool as_delta) {
            if (targets.empty()) return;
            Command c;
            c.kind = CmdKind::kBroadcast;
            c.peers = targets;
            c.collective_id = commit_id;
            c.wire_bytes = wire_bytes;
            c.chunks = round_chunks;
            c.delta = as_delta;
            c.ref_epoch = base_epoch;
            c.codec = round_codec;
            c.codec_ratio = round_ratio;
            if (post(src, std::move(c))) {
              for (DeviceId id : targets) {
                Command c2;
                c2.kind = CmdKind::kIntegrate;
                c2.peer = src;
                c2.collective_id = commit_id;
                c2.version_mean = version_mean;
                c2.chunks = round_chunks;
                c2.delta = as_delta;
                c2.ref_epoch = base_epoch;
                c2.codec = round_codec;
                c2.codec_ratio = round_ratio;
                post(id, std::move(c2));
              }
            }
          };
          push_to(aligned, /*as_delta=*/true);
          push_to(stale, /*as_delta=*/false);
        }
        if (eval_state.empty()) {
          eval_state = std::move(aggregate);
        } else {
          // Multiple groups: evaluate the mean of group aggregates.
          nn::mix_into(eval_state, aggregate, 0.5);
        }
      }
    }

    // -- Inter-group synchronization (§III-A hierarchical mode), two-phase
    //    like the ring sync: every group's leader (first live member)
    //    allgathers the leader states and stages the global mean
    //    (kInterSync); only when all leaders report success does the
    //    coordinator post the commit — each leader loads the global and
    //    pushes it non-blockingly to its group, each member mixes it in
    //    (kInterCommit / kInterMix, fire-and-forget like the broadcast).
    //    The applied state and mix match the simulator's leader exchange
    //    bit for bit; a failed phase 1 aborts with no state touched.
    if (groups.size() > 1 &&
        round % static_cast<std::size_t>(
                    std::max(1, config.hadfl.grouping.inter_group_period)) ==
            0) {
      std::vector<DeviceId> leaders;
      for (const auto& group : groups) {
        for (DeviceId id : group) {
          if (live[id]) {
            leaders.push_back(id);
            break;
          }
        }
      }
      if (leaders.size() > 1) {
        const std::int64_t cid = next_collective_id++;
        auto cancel = std::make_shared<std::atomic<bool>>(false);
        std::vector<DeviceId> posted;
        for (std::size_t i = 0; i < leaders.size(); ++i) {
          Command c;
          c.kind = CmdKind::kInterSync;
          c.peers = leaders;
          c.my_index = i;
          c.collective_id = cid;
          c.wire_bytes = wire_bytes;
          c.chunks = sync_chunks;
          c.cancel = cancel;
          if (post(leaders[i], std::move(c))) posted.push_back(leaders[i]);
        }
        auto reps = collect(
            posted, ReportKind::kInterSyncDone,
            /*use_detector=*/true, sync_deadline(leaders.size()), [&] {
              cancel->store(true, std::memory_order_relaxed);
              io.cancel_collective(leaders, cid);
            });
        const bool all_ok =
            posted.size() == leaders.size() &&
            reps.size() == leaders.size() &&
            std::all_of(reps.begin(), reps.end(),
                        [](const auto& kv) { return kv.second.ok; });
        if (all_ok) {
          std::vector<float> global =
              std::move(reps.at(leaders.front()).aggregate);
          const std::int64_t push_id = next_collective_id++;
          for (std::size_t g = 0; g < groups.size() && g < leaders.size();
               ++g) {
            std::vector<DeviceId> members;
            for (DeviceId id : groups[g]) {
              if (live[id] && id != leaders[g]) members.push_back(id);
            }
            Command c;
            c.kind = CmdKind::kInterCommit;
            c.peers = members;
            c.collective_id = push_id;
            c.wire_bytes = wire_bytes;
            c.chunks = sync_chunks;
            if (post(leaders[g], std::move(c))) {
              for (DeviceId id : members) {
                Command c2;
                c2.kind = CmdKind::kInterMix;
                c2.peer = leaders[g];
                c2.collective_id = push_id;
                c2.chunks = sync_chunks;
                post(id, std::move(c2));
              }
            }
          }
          eval_state = std::move(global);
        } else {
          // Abort: drop the staged globals and purge phase-1 traffic; the
          // next period retries with whoever is still alive.
          HADFL_WARN("rt: inter-group sync failed; skipping this period");
          std::vector<DeviceId> aborted;
          for (DeviceId id : leaders) {
            Command c;
            c.kind = CmdKind::kAbort;
            c.collective_id = next_collective_id;
            if (post(id, std::move(c))) aborted.push_back(id);
          }
          collect(aborted, ReportKind::kAck, /*use_detector=*/false,
                  sync_deadline(leaders.size()));
        }
      }
    }
    result.extras.selected.push_back(selected_this_round);

    epochs_done +=
        executed_total * static_cast<double>(ctx.config.device_batch_size) /
        total_train;
    idle_rounds = executed_total > 0.0 ? 0 : idle_rounds + 1;

    // -- Record convergence on the aggregated model.
    if (eval_state.empty()) {
      const std::vector<DeviceId> avail = live_ids();
      if (avail.empty()) break;
      eval_state = oracle.mean_state(avail);
    }
    nn::load_state(*setup.reference, eval_state);
    const fl::EvalResult eval = fl::evaluate(*setup.reference, ctx.test);
    double loss_sum = 0.0;
    double loss_weight = 0.0;
    for (DeviceId d = 0; d < k; ++d) {
      loss_sum += sh_loss[d] * static_cast<double>(sh_executed[d]);
      loss_weight += static_cast<double>(sh_executed[d]);
    }
    result.scheme.metrics.add(fl::ConvergencePoint{
        epochs_done, wall(), loss_weight > 0.0 ? loss_sum / loss_weight : 0.0,
        eval.loss, eval.accuracy});

    if (controller) {
      controller->observe_eval_state(eval_state);
      controller->end_round();
    }

    model_manager.update(eval_state, round);
    ++result.scheme.sync_rounds;

    if (idle_rounds >= 3) {
      HADFL_WARN("rt: no training progress in 3 consecutive rounds; stopping");
      break;
    }
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

  result.extras.model_backups = model_manager.backups_written();
  if (model_manager.has_model()) {
    result.scheme.final_state = model_manager.latest();
  } else {
    const std::vector<DeviceId> ids = live_ids();
    result.scheme.final_state =
        ids.empty() ? setup.init_state : oracle.mean_state(ids);
  }
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
