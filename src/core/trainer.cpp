#include "core/trainer.hpp"

#include <algorithm>
#include <cmath>

#include "comm/allreduce.hpp"
#include "comm/broadcast.hpp"
#include "common/error.hpp"
#include "common/logging.hpp"
#include "common/parallel.hpp"
#include "core/coordinator.hpp"
#include "core/round_logic.hpp"
#include "fl/evaluate.hpp"
#include "fl/local_trainer.hpp"
#include "nn/param_utils.hpp"

namespace hadfl::core {

HadflResult run_hadfl(const fl::SchemeContext& ctx, const HadflConfig& config) {
  HADFL_CHECK_ARG(ctx.partition.size() == ctx.cluster.size(),
                  "partition count != device count");
  HADFL_CHECK_ARG(config.alpha > 0.0 && config.alpha < 1.0,
                  "alpha must be in (0, 1)");
  HADFL_CHECK_ARG(
      config.broadcast_mix_weight >= 0.0 && config.broadcast_mix_weight <= 1.0,
      "broadcast mix weight must be in [0, 1]");

  sim::Cluster& cluster = ctx.cluster;
  cluster.reset_clocks();
  comm::SimTransport transport(cluster, ctx.network);
  const std::size_t k = cluster.size();

  std::shared_ptr<SelectionPolicy> policy = config.policy;
  if (!policy) policy = std::make_shared<GaussianQuartileSelection>();

  // ---- Initial model dispatch (workflow step 2 / Alg. 1 line 1). ----
  // The dispatched model is either a fresh initialization or a model-
  // manager backup (checkpoint resume). The RNG split sequence inside
  // init_devices is shared with the rt backend (round_logic.hpp).
  Rng rng(ctx.config.seed);
  DeviceSetup setup = init_devices(ctx, config, rng);
  std::vector<DeviceState>& devices = setup.devices;
  const std::vector<std::size_t>& ipe = setup.iters_per_epoch;
  const std::size_t wire_bytes = setup.wire_bytes;

  std::vector<double> bandwidth_scales(k);
  for (std::size_t d = 0; d < k; ++d) {
    bandwidth_scales[d] = cluster.bandwidth_scale(d);
  }

  HadflResult result;
  result.scheme.scheme_name = "hadfl";

  // ---- Mutual negotiation (§III-B): warm-up epochs at a small lr. ----
  const int warmup_epochs = std::max(1, ctx.config.warmup_epochs);
  std::vector<sim::SimTime> epoch_times(k);
  parallel_for_each(k, [&](std::size_t d) {
    devices[d].optimizer->set_learning_rate(ctx.config.warmup_learning_rate);
    const std::size_t steps =
        static_cast<std::size_t>(warmup_epochs) * ipe[d];
    devices[d].last_loss =
        fl::run_local_steps(*devices[d].model, *devices[d].optimizer,
                            *devices[d].batches, steps)
            .mean_loss;
  });
  for (std::size_t d = 0; d < k; ++d) {
    const sim::SimTime warmup_start = cluster.time(d);
    const sim::SimTime duration = cluster.advance_compute(
        d, static_cast<std::size_t>(warmup_epochs) * ipe[d]);
    // The device reports its calculation time T_i to the coordinator.
    epoch_times[d] = duration / static_cast<double>(warmup_epochs);
    if (config.trace != nullptr) {
      config.trace->record(d, warmup_start, warmup_start + duration,
                           obs::SpanKind::kCompute, "negotiation");
    }
  }
  cluster.barrier_all();
  result.extras.negotiated_epoch_times = epoch_times;

  if (config.full_sync_after_negotiation) {
    // Devices already down at negotiation end are simply left out.
    std::vector<sim::DeviceId> reachable;
    for (std::size_t d = 0; d < k; ++d) {
      if (cluster.faults().alive(d, cluster.time(d))) reachable.push_back(d);
    }
    if (reachable.size() > 1) {
      const std::vector<float> mean = mean_state_of(devices, reachable);
      try {
        comm::simulate_ring_allreduce(transport, reachable, wire_bytes);
        for (sim::DeviceId d : reachable) {
          nn::load_state(*devices[d].model, mean);
        }
      } catch (const CommError&) {
        HADFL_WARN("post-negotiation sync skipped: device went down");
      }
    }
  }

  double epochs_done = warmup_epochs;

  // ---- Strategy generation (§III-C). ----
  const StrategyGenerator generator(config.strategy);
  const TrainingStrategy strategy = generator.generate(epoch_times, ipe);
  result.extras.strategy = strategy;
  HADFL_INFO("hadfl strategy: H_E=" << strategy.hyperperiod << "s window="
                                    << strategy.round_window << "s");

  // ---- Adaptive control loop (src/ctrl): seeded from the warm-up so its
  // first plans reproduce the static strategy exactly; null when disabled,
  // and every adaptive branch below degenerates to the static knobs.
  std::unique_ptr<ctrl::AdaptiveController> controller;
  if (config.adaptive.enabled) {
    std::vector<double> step_time(k);
    for (std::size_t d = 0; d < k; ++d) {
      step_time[d] = epoch_times[d] / static_cast<double>(ipe[d]);
    }
    controller = std::make_unique<ctrl::AdaptiveController>(
        config.adaptive, std::move(step_time), strategy.round_window,
        strategy.local_steps, config.sync_chunks, config.compression,
        config.top_k_ratio);
  }

  LivenessMonitor liveness(cluster);
  RuntimeSupervisor supervisor(k, config.alpha);
  ModelManager model_manager(config.backup_dir, config.backup_every_rounds);
  const DeviceGroups groups = make_groups(cluster, config.grouping);

  // Record the post-negotiation starting point.
  {
    std::vector<float> mean = mean_state_of(devices, fl::all_device_ids(cluster));
    nn::load_state(*setup.reference, mean);
    const fl::EvalResult eval = fl::evaluate(*setup.reference, ctx.test);
    double loss_sum = 0.0;
    for (const auto& dev : devices) loss_sum += dev.last_loss;
    result.scheme.metrics.add(fl::ConvergencePoint{
        epochs_done, cluster.max_time(), loss_sum / static_cast<double>(k),
        eval.loss, eval.accuracy});
  }

  const double total_train =
      static_cast<double>(ctx.train.size());

  // Round-persistent sync buffers: the ring aggregation below streams each
  // member's arena view through `sync_scratch` (codec staging) into
  // `ring_fold`, so steady-state rounds reuse capacity instead of
  // materializing one state copy per contributor. WeightedRingFold is the
  // shared sim/rt fold definition — the rt pipelined collective folds the
  // same pieces segment-by-segment and must land on identical bits.
  WeightedRingFold ring_fold;
  std::vector<float> sync_scratch;
  std::vector<float> codec_payload;  // per-chunk encode staging (delta rounds)

  // Reference-epoch counter for the compressed-delta path: each successful
  // sync stamps its participants (and every reached broadcast receiver)
  // with a fresh epoch. Devices sharing an epoch hold bit-identical
  // references, which is the precondition for shipping encoded deltas; the
  // rt backend uses its collective ids the same way.
  std::int64_t sync_epoch = 0;

  std::vector<float> prev_eval;  // controller's round-over-round norm signal

  std::size_t round = 0;
  while (epochs_done < static_cast<double>(ctx.config.total_epochs)) {
    ++round;
    // Per-round knobs: the controller's plan when adaptive is on, the
    // static configuration otherwise (the controller's initial plan holds
    // these same values, so warm-up rounds match the static run too).
    const std::vector<std::size_t>& budgets =
        controller ? controller->plan().local_steps : strategy.local_steps;
    const SyncCompression round_codec =
        controller ? controller->plan().codec : config.compression;
    const double round_ratio =
        controller ? controller->plan().topk_ratio : config.top_k_ratio;
    const std::size_t round_chunks =
        controller ? controller->plan().sync_chunks : config.sync_chunks;
    const bool force_raw = controller && controller->plan().force_raw;
    const sim::SimTime window = strategy.round_window;
    const sim::SimTime t0 = cluster.max_time();
    for (std::size_t d = 0; d < k; ++d) cluster.advance_to(d, t0);

    // Workflow step 1: the liveness monitor determines the available set
    // *before* the round starts. A device that disconnects during the round
    // is therefore still selectable on this (stale) view — the §III-D
    // fault-tolerant ring repair is what handles it, as in the paper's
    // Fig. 2b walkthrough.
    std::vector<bool> available_at_start(k);
    for (std::size_t d = 0; d < k; ++d) {
      available_at_start[d] = liveness.is_available(d);
    }

    // -- Asynchronous local training with deadline truncation. A disturbed
    //    device executes fewer steps by the window boundary; its parameter
    //    version falls behind, which the supervisor/selection then react to.
    std::vector<double> jitter(k);
    std::vector<double> drift(k);
    for (std::size_t d = 0; d < k; ++d) {
      jitter[d] = cluster.sample_jitter_factor(d);
      // Injected speed drift (sim/fault.hpp): exactly 1.0 without events.
      drift[d] = cluster.faults().drift_multiplier(d, round);
    }
    parallel_for_each(k, [&](std::size_t d) {
      DeviceState& dev = devices[d];
      dev.optimizer->set_learning_rate(ctx.config.learning_rate);
      const double iter_time = cluster.iteration_time(d) * jitter[d] * drift[d];
      const auto fit = static_cast<std::size_t>(
          std::max(0.0, std::floor(window / iter_time + 1e-9)));
      const std::size_t executed = std::min(budgets[d], fit);
      dev.last_executed = executed;
      if (executed > 0) {
        dev.last_loss = fl::run_local_steps(*dev.model, *dev.optimizer,
                                            *dev.batches, executed)
                            .mean_loss;
      }
    });
    double executed_total = 0.0;
    for (std::size_t d = 0; d < k; ++d) {
      DeviceState& dev = devices[d];
      const double burst = cluster.iteration_time(d) * jitter[d] * drift[d] *
                           static_cast<double>(dev.last_executed);
      cluster.advance(d, burst);
      if (controller && dev.last_executed > 0) {
        controller->observe_step_time(
            d, cluster.iteration_time(d) * jitter[d] * drift[d]);
      }
      cluster.advance_to(d, t0 + window);
      dev.version += static_cast<double>(dev.last_executed);
      executed_total += static_cast<double>(dev.last_executed);
      if (config.trace != nullptr && dev.last_executed > 0) {
        config.trace->record(d, t0, t0 + burst, obs::SpanKind::kCompute,
                             "round " + std::to_string(round));
      }
    }

    // -- Coordinator: liveness, prediction, selection (workflow 1, 4, 7).
    // The forecast for this round was formed from the rounds observed so
    // far (the supervisor has not yet seen this round's versions).
    std::vector<double> fallback(k);
    for (std::size_t d = 0; d < k; ++d) {
      fallback[d] =
          static_cast<double>(round) * strategy.expected_versions[d];
    }
    const std::vector<double> predicted =
        predict_versions(config.predictor, supervisor, fallback,
                         result.extras.actual_versions);

    // -- Supervisor observation (workflow step 7): the versions each device
    //    *brings to* the synchronization point, before aggregation mixes
    //    them — that is what the next round's selection must anticipate.
    std::vector<double> actual(k);
    for (std::size_t d = 0; d < k; ++d) actual[d] = devices[d].version;
    supervisor.observe_round(actual);
    result.extras.actual_versions.push_back(actual);
    result.extras.predicted_versions.push_back(predicted);

    std::vector<float> eval_state;
    std::vector<sim::DeviceId> selected_this_round;
    for (const auto& group : groups) {
      std::vector<sim::DeviceId> candidates;
      for (sim::DeviceId id : group) {
        if (available_at_start[id]) candidates.push_back(id);
      }
      if (candidates.empty()) continue;

      RingPlan plan =
          plan_ring(*policy, candidates, predicted, setup.compute_powers,
                    bandwidth_scales, config.strategy.select_count, rng);
      std::vector<sim::DeviceId> ring = std::move(plan.ring);

      // -- Fault-tolerant gossip aggregation (§III-D). A device can die
      //    *between* the repair scan and the collective (its fault window
      //    opens mid-sync); the CommError then triggers another repair
      //    pass, exactly like the timeout would in a real deployment.
      std::vector<float> aggregate;
      bool delta_round = false;       // this sync shipped encoded deltas
      std::int64_t base_epoch = 0;    // the reference epoch it built on
      for (int attempt = 0; attempt < 4 && !ring.empty(); ++attempt) {
        const comm::RingRepairResult repair =
            comm::repair_ring(transport, ring, config.repair);
        result.extras.ring_repairs += repair.repairs;
        if (config.trace != nullptr) {
          // Same vocabulary as the rt backend: each bypass shows as a
          // kRepair span covering the §III-D wait + handshake window, drawn
          // on the bypassed device's row (which goes silent afterwards).
          for (const sim::DeviceId dead : repair.removed) {
            const sim::SimTime t = cluster.time(dead);
            config.trace->record(dead, t,
                                 t + config.repair.wait_before_handshake +
                                     config.repair.handshake_timeout,
                                 obs::SpanKind::kRepair, "bypassed");
          }
        }
        ring = repair.ring;
        if (ring.empty()) break;
        try {
          // With a codec configured, members whose references agree
          // exchange encoded *deltas* against that shared reference
          // (comm/delta_codec.hpp): u_m = x_m - r + e_m passes through the
          // codec chunk by chunk, peers fold exactly what the wire
          // delivers, and the encode error is staged as the next round's
          // error-feedback residual. A ring containing a stale member (it
          // missed a broadcast) falls back to a raw exact round, which
          // realigns everyone. The fold itself is the same ring-order
          // double-precision accumulation either way — the rt pipelined
          // collective performs these exact chunk operations and lands on
          // identical bits.
          const std::vector<double> weights =
              ring_weights(ctx.partition, ring, config.weight_by_samples);
          const std::size_t n = nn::state_size(*devices[ring.front()].model);
          base_epoch = devices[ring.front()].ref_epoch;
          // force_raw: the controller just switched codecs, so this round
          // ships exact state regardless of reference agreement.
          bool delta = round_codec != SyncCompression::kNone && !force_raw;
          for (sim::DeviceId id : ring) {
            if (devices[id].ref_epoch != base_epoch) delta = false;
          }
          const std::size_t c_count =
              comm::resolve_chunk_count(round_chunks, n);
          ring_fold.reset(n);
          const std::size_t dense_bytes = n * sizeof(float);
          for (std::size_t m = 0; m < ring.size(); ++m) {
            const sim::DeviceId id = ring[m];
            DeviceState& dev = devices[id];
            const auto view = nn::state_view(*dev.model);
            sync_scratch.assign(view.begin(), view.end());
            if (delta) {
              dev.error_feedback.ensure(n);
              comm::form_delta_update(sync_scratch, dev.last_sync_state,
                                      dev.error_feedback.residual);
              for (std::size_t c = 0; c < c_count; ++c) {
                const std::size_t cb = c * n / c_count;
                const std::size_t ce = (c + 1) * n / c_count;
                codec_payload.resize(comm::encoded_chunk_floats(
                    round_codec, ce - cb, round_ratio));
                comm::roundtrip_chunk_staged(
                    round_codec, round_ratio,
                    std::span<float>(sync_scratch).subspan(cb, ce - cb),
                    std::span<float>(dev.error_feedback.staged)
                        .subspan(cb, ce - cb),
                    codec_payload);
              }
            }
            ring_fold.add(0, sync_scratch, weights[m]);
          }
          const std::size_t sync_codec_bytes =
              delta ? comm::encoded_state_bytes(round_codec, n, round_chunks,
                                                round_ratio)
                    : dense_bytes;
          sim::SimTime sync_start = 0.0;  // the collective starts when the
                                          // slowest member arrives
          for (sim::DeviceId id : ring) {
            sync_start = std::max(sync_start, cluster.time(id));
          }
          const std::size_t sync_wire =
              effective_wire_bytes(wire_bytes, sync_codec_bytes, dense_bytes);
          const sim::SimTime sync_done =
              comm::simulate_ring_allreduce(transport, ring, sync_wire);
          if (controller) {
            controller->observe_sync(sync_done - sync_start, sync_wire);
            bool any_slow = false;
            for (sim::DeviceId id : ring) {
              any_slow = any_slow || bandwidth_scales[id] <
                                         config.adaptive.slow_link_threshold;
            }
            controller->observe_slow_link(any_slow);
          }
          // Eq. 2 objective when weight_by_samples, else plain Eq. 5.
          aggregate.resize(ring_fold.size());
          ring_fold.write(0, aggregate);
          if (delta) {
            // Phase-2 mirror: the folded delta circulates *encoded*, so
            // what everyone commits is the decode of that encoding; the
            // aggregate is then reference + decoded fold.
            for (std::size_t c = 0; c < c_count; ++c) {
              const std::size_t cb = c * n / c_count;
              const std::size_t ce = (c + 1) * n / c_count;
              codec_payload.resize(comm::encoded_chunk_floats(
                  round_codec, ce - cb, round_ratio));
              comm::roundtrip_folded_chunk(
                  round_codec, round_ratio,
                  std::span<float>(aggregate).subspan(cb, ce - cb),
                  codec_payload);
            }
            const std::vector<float>& ref =
                devices[ring.front()].last_sync_state;
            for (std::size_t i = 0; i < n; ++i) {
              aggregate[i] = ref[i] + aggregate[i];
            }
          }
          delta_round = delta;
          if (config.trace != nullptr) {
            for (sim::DeviceId id : ring) {
              config.trace->record(id, sync_start, sync_done,
                                   obs::SpanKind::kSync, "partial sync");
            }
          }
          break;
        } catch (const CommError&) {
          HADFL_WARN("partial sync hit a mid-collective fault; repairing");
          aggregate.clear();
          // Move past the failure instant so the next repair pass sees the
          // fault and bypasses the dead member.
          for (sim::DeviceId id : ring) {
            cluster.advance(id, config.repair.wait_before_handshake);
          }
        }
      }
      if (ring.empty() || aggregate.empty()) continue;
      selected_this_round.insert(selected_this_round.end(), ring.begin(),
                                 ring.end());
      const double version_mean = ring_version_mean(devices, ring);
      const std::int64_t sync_id = ++sync_epoch;
      apply_aggregate(devices, ring, aggregate, version_mean);
      for (sim::DeviceId id : ring) {
        devices[id].ref_epoch = sync_id;
        // A delta round's encode error becomes the committed residual; a
        // raw round transmitted the exact state, so residual memory resets.
        if (delta_round) {
          devices[id].error_feedback.commit();
        } else {
          devices[id].error_feedback.clear();
        }
      }

      // -- Non-blocking broadcast to the unselected group members.
      std::vector<sim::DeviceId> others;
      for (sim::DeviceId id : candidates) {
        if (std::find(ring.begin(), ring.end(), id) == ring.end()) {
          others.push_back(id);
        }
      }
      if (!others.empty()) {
        const sim::DeviceId src = ring[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(ring.size()) - 1))];
        // After a delta round, receivers whose reference matches the round's
        // base epoch take the codec-encoded fold (the rt backend re-ships
        // the phase-2 encodings verbatim); stale receivers — and every
        // receiver of a raw round — get the exact dense aggregate, which
        // realigns them. Codec sizes are data-independent, so both legs are
        // priced by formula.
        std::vector<sim::DeviceId> delta_targets;
        std::vector<sim::DeviceId> raw_targets;
        for (sim::DeviceId id : others) {
          if (delta_round && devices[id].ref_epoch == base_epoch) {
            delta_targets.push_back(id);
          } else {
            raw_targets.push_back(id);
          }
        }
        const sim::SimTime bc_start = cluster.time(src);
        std::vector<sim::DeviceId> delivered;
        if (!delta_targets.empty()) {
          const std::size_t n = aggregate.size();
          const comm::BroadcastResult bc = comm::broadcast_nonblocking(
              transport, src, delta_targets,
              effective_wire_bytes(
                  wire_bytes,
                  comm::encoded_state_bytes(round_codec, n, round_chunks,
                                            round_ratio),
                  n * sizeof(float)));
          delivered.insert(delivered.end(), bc.delivered.begin(),
                           bc.delivered.end());
        }
        if (!raw_targets.empty()) {
          const comm::BroadcastResult bc = comm::broadcast_nonblocking(
              transport, src, raw_targets, wire_bytes);
          delivered.insert(delivered.end(), bc.delivered.begin(),
                           bc.delivered.end());
        }
        if (config.trace != nullptr) {
          for (sim::DeviceId id : delivered) {
            config.trace->record(id, bc_start, cluster.time(id),
                                 obs::SpanKind::kBroadcast, "broadcast");
          }
        }
        // Either way the receiver reconstructs the aggregate bit-exactly
        // (a delta receiver adds the decoded fold onto its — identical —
        // reference), so integration is the same exact mix everywhere,
        // and the receiver joins the new reference epoch. Error-feedback
        // residuals are untouched: the broadcast is not an encode step.
        for (sim::DeviceId id : delivered) {
          DeviceState& dev = devices[id];
          dev.scratch.assign(aggregate.begin(), aggregate.end());
          nn::mix_state(*dev.model, dev.scratch,
                        config.broadcast_mix_weight);
          std::swap(dev.last_sync_state, dev.scratch);
          dev.version =
              (1.0 - config.broadcast_mix_weight) * dev.version +
              config.broadcast_mix_weight * version_mean;
          dev.ref_epoch = sync_id;
        }
      }

      if (eval_state.empty()) {
        eval_state = aggregate;
      } else {
        // Multiple groups: evaluate the mean of group aggregates.
        nn::mix_into(eval_state, aggregate, 0.5);
      }
    }

    // -- Inter-group synchronization (hierarchical mode).
    if (groups.size() > 1 &&
        round % static_cast<std::size_t>(
                    std::max(1, config.grouping.inter_group_period)) ==
            0) {
      std::vector<sim::DeviceId> leaders;
      for (const auto& group : groups) {
        for (sim::DeviceId id : group) {
          if (liveness.is_available(id)) {
            leaders.push_back(id);
            break;
          }
        }
      }
      if (leaders.size() > 1) {
        const std::vector<float> global = mean_state_of(devices, leaders);
        try {
          comm::simulate_ring_allreduce(transport, leaders, wire_bytes);
        } catch (const CommError&) {
          HADFL_WARN("inter-group sync skipped: leader unreachable");
          leaders.clear();
        }
        for (std::size_t g = 0; g < groups.size() && g < leaders.size(); ++g) {
          for (sim::DeviceId id : groups[g]) {
            if (!liveness.is_available(id)) continue;
            nn::mix_state(*devices[id].model, global,
                          config.broadcast_mix_weight);
            if (id != leaders[g]) {
              transport.account(leaders[g], id, wire_bytes);
            }
          }
          nn::load_state(*devices[leaders[g]].model, global);
        }
        if (!leaders.empty()) eval_state = global;
      }
    }

    result.extras.selected.push_back(selected_this_round);

    epochs_done +=
        executed_total * static_cast<double>(ctx.config.device_batch_size) /
        total_train;

    // -- Record convergence; evaluate the aggregated model (what the model
    //    manager backs up).
    if (eval_state.empty()) {
      const std::vector<sim::DeviceId> avail = liveness.available();
      eval_state = mean_state_of(
          devices, avail.empty() ? fl::all_device_ids(cluster) : avail);
    }
    nn::load_state(*setup.reference, eval_state);
    const fl::EvalResult eval = fl::evaluate(*setup.reference, ctx.test);
    double loss_sum = 0.0;
    double loss_weight = 0.0;
    for (const auto& dev : devices) {
      loss_sum += dev.last_loss * static_cast<double>(dev.last_executed);
      loss_weight += static_cast<double>(dev.last_executed);
    }
    result.scheme.metrics.add(fl::ConvergencePoint{
        epochs_done, cluster.max_time(),
        loss_weight > 0.0 ? loss_sum / loss_weight : 0.0, eval.loss,
        eval.accuracy});

    if (controller) {
      // Convergence signal: relative round-over-round aggregate movement.
      // Both backends derive it from successive evaluation states, so the
      // codec policy sees the same quantity everywhere.
      if (prev_eval.size() == eval_state.size()) {
        double num = 0.0;
        double den = 0.0;
        for (std::size_t i = 0; i < eval_state.size(); ++i) {
          const double diff = static_cast<double>(eval_state[i]) -
                              static_cast<double>(prev_eval[i]);
          num += diff * diff;
          den += static_cast<double>(prev_eval[i]) *
                 static_cast<double>(prev_eval[i]);
        }
        if (den > 0.0) controller->observe_delta_norm(std::sqrt(num / den));
      }
      prev_eval = eval_state;
      controller->end_round();
    }

    model_manager.update(eval_state, round);
    ++result.scheme.sync_rounds;
  }

  result.extras.model_backups = model_manager.backups_written();
  result.scheme.volume = transport.volume();
  result.scheme.final_state = model_manager.has_model()
                                  ? model_manager.latest()
                                  : mean_state_of(devices,
                                                  fl::all_device_ids(cluster));
  result.scheme.total_time = cluster.max_time();
  return result;
}

}  // namespace hadfl::core
