#include "rt/worker.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <thread>

#include "common/error.hpp"
#include "common/logging.hpp"
#include "common/math_utils.hpp"
#include "fl/local_trainer.hpp"
#include "nn/param_utils.hpp"
#include "rt/collectives.hpp"

namespace hadfl::rt {

namespace {

/// Iterations between heartbeats while a worker trains.
constexpr std::size_t kTrainChunk = 8;

void sleep_s(double seconds) {
  if (seconds <= 0.0) return;
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
}

double elapsed_s(Clock::time_point since) {
  return std::chrono::duration<double>(Clock::now() - since).count();
}

/// Thrown by a worker's beat hook to model a device dying mid-collective
/// (FaultPlan::during_sync): unwinds out of the pipelined collective
/// between two chunk operations, exactly where a real crash would cut it.
struct InjectedDeath {};

}  // namespace

bool run_device_worker(WorkerEnv& env) {
  core::DeviceState& dev = *env.dev;
  Transport& transport = *env.transport;
  WorkerIo& io = *env.io;
  const RtConfig& config = *env.config;
  const DeviceId d = env.id;
  obs::SpanRecorder* rec = env.telemetry.rec;

  // Sync-path working set, persistent across rounds: the codec scratch
  // (dev.scratch), the double-precision folds, the staged aggregate and
  // the broadcast staging buffer all keep their capacity, so steady-state
  // synchronization does not allocate on this thread. On delta rounds
  // `pending_aggregate` stages the decoded folded delta (not the full
  // state) and `code_stash` retains the phase-2 encodings for the
  // broadcast re-ship (re-encoding is not bit-stable; collectives.hpp).
  std::vector<float> pending_aggregate;
  core::WeightedRingFold sync_fold;
  std::vector<float> bc_stage;
  std::vector<std::vector<float>> code_stash;
  nn::StateAccumulator inter_acc;

  const auto throttled_sleep = [&](double seconds) {
    const double slice = std::max(0.001, config.heartbeat_timeout_s / 4.0);
    while (seconds > 0.0) {
      const double s = std::min(seconds, slice);
      sleep_s(s);
      seconds -= s;
      io.beat();
    }
  };
  const auto throttle = [&](std::size_t steps) {
    if (config.compute_throttle > 0.0) {
      throttled_sleep(config.compute_throttle * env.iter_time *
                      static_cast<double>(steps));
    }
  };
  const auto report = [&](Report r) {
    r.device = d;
    // Every report carries the device's reference epoch — the
    // coordinator's shadow of it decides delta vs raw rounds.
    r.ref_epoch = dev.ref_epoch;
    io.send_report(std::move(r));
  };

  for (;;) {
    io.beat();
    std::optional<Command> cmd = io.next_command(config.command_poll_s);
    if (!cmd) {
      if (io.command_channel_closed()) return true;
      continue;
    }
    switch (cmd->kind) {
      case CmdKind::kWarmup: {
        dev.optimizer->set_learning_rate(cmd->learning_rate);
        const double ts0 = rec != nullptr ? rec->now_s() : 0.0;
        const Clock::time_point t0 = Clock::now();
        double loss_sum = 0.0;
        std::size_t done = 0;
        while (done < cmd->steps) {
          const std::size_t chunk =
              std::min(kTrainChunk, cmd->steps - done);
          loss_sum = fl::run_local_steps(*dev.model, *dev.optimizer,
                                         *dev.batches, chunk, loss_sum)
                         .loss_sum;
          done += chunk;
          throttle(chunk);
          io.beat();
        }
        dev.last_loss =
            done > 0 ? loss_sum / static_cast<double>(done) : 0.0;
        if (rec != nullptr) {
          rec->record(d, ts0, rec->now_s(), obs::SpanKind::kCompute,
                      "warmup");
        }
        Report r;
        r.kind = ReportKind::kWarmupDone;
        r.loss = dev.last_loss;
        r.wall_s = elapsed_s(t0);
        report(std::move(r));
        break;
      }
      case CmdKind::kSetState: {
        nn::load_state(*dev.model, cmd->state);
        Report r;
        r.kind = ReportKind::kAck;
        report(std::move(r));
        break;
      }
      case CmdKind::kGetState: {
        // Oracle read (net backend): the coordinator has no shared memory
        // view of this process, so evaluation-time means are assembled from
        // these snapshots. Only posted when the device is known idle.
        Report r;
        r.kind = ReportKind::kStateDone;
        const auto view = nn::state_view(*dev.model);
        r.aggregate.assign(view.begin(), view.end());
        r.version = dev.version;
        report(std::move(r));
        break;
      }
      case CmdKind::kTrain: {
        dev.optimizer->set_learning_rate(cmd->learning_rate);
        const double ts0 = rec != nullptr ? rec->now_s() : 0.0;
        const Clock::time_point t0 = Clock::now();
        double loss_sum = 0.0;
        std::size_t executed = 0;
        bool died = false;
        while (executed < cmd->steps) {
          std::size_t chunk = std::min(kTrainChunk, cmd->steps - executed);
          if (cmd->die_after >= 0) {
            chunk = std::min(chunk, static_cast<std::size_t>(
                                        cmd->die_after) -
                                        executed);
          }
          if (chunk > 0) {
            loss_sum = fl::run_local_steps(*dev.model, *dev.optimizer,
                                           *dev.batches, chunk, loss_sum)
                           .loss_sum;
            executed += chunk;
            throttle(chunk);
          }
          if (cmd->die_after >= 0 &&
              executed >= static_cast<std::size_t>(cmd->die_after)) {
            died = true;
            break;
          }
          io.beat();
          if (cmd->deadline_s > 0.0 && elapsed_s(t0) >= cmd->deadline_s) {
            break;  // window boundary: report a lower version (§III-B)
          }
        }
        dev.version += static_cast<double>(executed);
        dev.last_executed = executed;
        if (executed > 0) {
          dev.last_loss = loss_sum / static_cast<double>(executed);
        }
        if (rec != nullptr) {
          rec->record(d, ts0, rec->now_s(), obs::SpanKind::kCompute,
                      "train");
        }
        if (died) {
          // Injected crash: no report, no further beats. Closing the
          // endpoint models the OS tearing down a dead process's
          // sockets; a silent death leaves even that to the heartbeat.
          if (!cmd->die_silently) transport.kill(d);
          return false;
        }
        Report r;
        r.kind = ReportKind::kTrainDone;
        r.executed = executed;
        r.loss = dev.last_loss;
        r.version = dev.version;
        // Measured burst duration: the adaptive controller's kWallclock
        // step-time signal (kVirtual derives times from the specs instead).
        r.wall_s = elapsed_s(t0);
        report(std::move(r));
        break;
      }
      case CmdKind::kSync: {
        const double ts0 = rec != nullptr ? rec->now_s() : 0.0;
        Report r;
        r.kind = ReportKind::kSyncDone;
        // The beat hook keeps the heartbeat fresh through every blocking
        // slice of the collective (so the coordinator may watch the
        // detector during sync), and doubles as the mid-pipeline fault
        // injection point.
        std::int64_t die_budget = cmd->die_after;
        const auto sync_beat = [&] {
          io.beat();
          if (die_budget >= 0 && die_budget-- == 0) {
            if (!cmd->die_silently) transport.kill(d);
            throw InjectedDeath{};
          }
          if (cmd->cancel &&
              cmd->cancel->load(std::memory_order_relaxed)) {
            throw CommError("sync collective cancelled by coordinator");
          }
        };
        try {
          const auto view = nn::state_view(*dev.model);
          dev.scratch.assign(view.begin(), view.end());
          if (cmd->delta) {
            // Compressed round: ship the error-compensated delta against
            // the shared reference; the collective stages the residual and
            // leaves the decoded folded delta in pending_aggregate.
            const std::size_t n = dev.scratch.size();
            HADFL_CHECK(dev.last_sync_state.size() == n);
            dev.error_feedback.ensure(n);
            comm::form_delta_update(dev.scratch, dev.last_sync_state,
                                    dev.error_feedback.residual);
            ring_weighted_delta_aggregate(
                transport, cmd->peers, cmd->my_index, dev.scratch,
                cmd->weights, sync_fold, pending_aggregate,
                dev.error_feedback.staged, code_stash, cmd->collective_id,
                cmd->wire_bytes, config.collective_timeout_s, cmd->chunks,
                cmd->codec, cmd->codec_ratio,
                sync_beat, env.telemetry.scatter_bytes,
                env.telemetry.allgather_bytes,
                env.telemetry.scatter_raw_bytes,
                env.telemetry.allgather_raw_bytes);
            if (cmd->my_index == 0) {
              // The coordinator evaluates on the full aggregate, not the
              // delta: reconstruct a = r + delta (every aligned member
              // holds bit-identical r, so this matches the commit).
              r.aggregate.resize(n);
              for (std::size_t i = 0; i < n; ++i) {
                r.aggregate[i] =
                    dev.last_sync_state[i] + pending_aggregate[i];
              }
            }
          } else {
            // Chunk-pipelined weighted scatter-fold + allgather: the
            // shared WeightedRingFold makes the aggregate bitwise
            // identical ring-wide and to the simulator's (ring-order
            // double-precision accumulation per segment, then one cast).
            ring_weighted_aggregate(transport, cmd->peers, cmd->my_index,
                                    dev.scratch, cmd->weights, sync_fold,
                                    pending_aggregate, cmd->collective_id,
                                    cmd->wire_bytes,
                                    config.collective_timeout_s,
                                    cmd->chunks, sync_beat,
                                    env.telemetry.scatter_bytes,
                                    env.telemetry.allgather_bytes,
                                    env.telemetry.scatter_raw_bytes,
                                    env.telemetry.allgather_raw_bytes);
            if (cmd->my_index == 0) r.aggregate = pending_aggregate;
          }
        } catch (const CommError& e) {
          HADFL_DEBUG("dev" << d << " sync failed: " << e.what());
          pending_aggregate.clear();
          r.ok = false;
        } catch (const InjectedDeath&) {
          // Like the kTrain crash: no report, no further beats.
          return false;
        }
        if (rec != nullptr) {
          // A failed attempt shows as a stall: time burned on a
          // collective that aborted and will retry on a repaired ring.
          rec->record(d, ts0, rec->now_s(),
                      r.ok ? obs::SpanKind::kSync : obs::SpanKind::kStall,
                      r.ok ? "sync" : "sync-abort");
        }
        report(std::move(r));
        break;
      }
      case CmdKind::kCommit: {
        if (cmd->delta) {
          // pending_aggregate holds the decoded folded delta: commit
          // a = r + delta. Every aligned member adds onto bit-identical r,
          // so the committed state is ring-wide identical — and the staged
          // error-feedback residual becomes live only now (an aborted
          // attempt never reaches this point).
          HADFL_CHECK(pending_aggregate.size() ==
                      dev.last_sync_state.size());
          for (std::size_t i = 0; i < pending_aggregate.size(); ++i) {
            pending_aggregate[i] =
                dev.last_sync_state[i] + pending_aggregate[i];
          }
          dev.error_feedback.commit();
        } else {
          // A raw round transmitted the exact states — no compression
          // error to carry forward.
          dev.error_feedback.clear();
        }
        nn::load_state(*dev.model, pending_aggregate);
        dev.version = cmd->version_mean;
        // Swap instead of move-assign: the displaced last_sync_state
        // capacity becomes next round's pending_aggregate buffer.
        std::swap(dev.last_sync_state, pending_aggregate);
        pending_aggregate.clear();
        dev.ref_epoch = cmd->collective_id;
        Report r;
        r.kind = ReportKind::kCommitDone;
        r.version = dev.version;
        report(std::move(r));
        break;
      }
      case CmdKind::kAbort: {
        pending_aggregate.clear();
        code_stash.clear();
        transport.purge_stale(d, cmd->collective_id);
        Report r;
        r.kind = ReportKind::kAck;
        report(std::move(r));
        break;
      }
      case CmdKind::kBroadcast: {
        // Genuinely non-blocking broadcast (§III-D): the pushes are
        // fire-and-forget, the coordinator never waits on this command,
        // and the next kTrain is already queued behind it — the
        // broadcaster is back to training while the chunks drain.
        const double ts0 = rec != nullptr ? rec->now_s() : 0.0;
        Report r;
        r.kind = ReportKind::kBroadcastDone;
        const std::size_t n = dev.last_sync_state.size();
        const std::size_t chunks = resolve_chunk_count(cmd->chunks, n);
        if (cmd->delta) HADFL_CHECK(code_stash.size() == chunks);
        for (DeviceId target : cmd->peers) {
          try {
            for (std::size_t c = 0; c < chunks; ++c) {
              const auto [b, e] = chunk_range(n, chunks, c);
              Message msg;
              msg.tag = broadcast_chunk_tag(cmd->collective_id, c);
              std::size_t share = chunk_wire_bytes(cmd->wire_bytes, n, b, e);
              if (cmd->delta) {
                // Re-ship the phase-2 encoding verbatim: decoding is a
                // pure function of the payload bytes, so every aligned
                // receiver reconstructs the committed delta bit-exactly
                // (re-encoding it here would drift by an ulp).
                msg.payload = transport.pool().acquire(code_stash[c].size());
                std::copy(code_stash[c].begin(), code_stash[c].end(),
                          msg.payload.begin());
                if (share != 0) {
                  // Same ratio arithmetic as the sim's codec pricing,
                  // applied per chunk.
                  share = core::effective_wire_bytes(
                      share, code_stash[c].size() * sizeof(float),
                      (e - b) * sizeof(float));
                }
              } else {
                msg.payload = transport.pool().acquire(e - b);
                std::copy(dev.last_sync_state.begin() +
                              static_cast<std::ptrdiff_t>(b),
                          dev.last_sync_state.begin() +
                              static_cast<std::ptrdiff_t>(e),
                          msg.payload.begin());
              }
              msg.wire_bytes = share;
              if (env.telemetry.broadcast_bytes != nullptr) {
                env.telemetry.broadcast_bytes->add(msg.payload.size() *
                                                   sizeof(float));
              }
              if (env.telemetry.broadcast_raw_bytes != nullptr) {
                env.telemetry.broadcast_raw_bytes->add((e - b) *
                                                       sizeof(float));
              }
              transport.send_nonblocking(d, target, std::move(msg));
              io.beat();
            }
            r.delivered.push_back(target);
          } catch (const CommError&) {
            // The push is consumed (volume counted) but never arrives —
            // SimTransport parity. Remaining chunks for this target are
            // pointless; move on to the next one.
          }
        }
        if (rec != nullptr) {
          rec->record(d, ts0, rec->now_s(), obs::SpanKind::kBroadcast,
                      "broadcast");
        }
        report(std::move(r));
        break;
      }
      case CmdKind::kIntegrate: {
        const double ts0 = rec != nullptr ? rec->now_s() : 0.0;
        Report r;
        r.kind = ReportKind::kIntegrateDone;
        const std::size_t n = nn::state_size(*dev.model);
        const std::size_t chunks = resolve_chunk_count(cmd->chunks, n);
        const double mix_w = config.hadfl.broadcast_mix_weight;
        if (cmd->delta && dev.ref_epoch != cmd->ref_epoch) {
          // The coordinator's shadow raced this device's reference epoch:
          // integrating a delta onto the wrong reference would corrupt it.
          // Drain and discard the chunks; the next raw round realigns.
          try {
            for (std::size_t c = 0; c < chunks; ++c) {
              Message msg = recv_chunk_sliced(
                  transport, d, cmd->peer,
                  broadcast_chunk_tag(cmd->collective_id, c),
                  config.collective_timeout_s, [&] { io.beat(); });
              transport.pool().release(std::move(msg.payload));
              io.beat();
            }
          } catch (const CommError&) {
          }
          r.ok = false;
        } else if (cmd->delta) {
          // Aligned receiver: decode each stashed encoding, advance the
          // reference chunk to the committed aggregate (r += delta — the
          // same bits every ring member committed, since r is shared and
          // the decode is payload-pure), then mix the model toward it.
          bc_stage.resize(n);
          bool complete = true;
          try {
            for (std::size_t c = 0; c < chunks; ++c) {
              const auto [b, e] = chunk_range(n, chunks, c);
              Message msg = recv_chunk_sliced(
                  transport, d, cmd->peer,
                  broadcast_chunk_tag(cmd->collective_id, c),
                  config.collective_timeout_s, [&] { io.beat(); });
              const std::span<float> stage(bc_stage.data() + b, e - b);
              HADFL_CHECK(msg.payload.size() ==
                          comm::encoded_chunk_floats(cmd->codec, e - b,
                                                     cmd->codec_ratio));
              comm::decode_chunk(cmd->codec, msg.payload, stage);
              transport.pool().release(std::move(msg.payload));
              const std::span<float> ref(dev.last_sync_state.data() + b,
                                         e - b);
              for (std::size_t i = 0; i < stage.size(); ++i) {
                ref[i] += stage[i];
              }
              mix_spans(nn::state_view(*dev.model).subspan(b, e - b), ref,
                        mix_w);
              io.beat();
            }
          } catch (const CommError&) {
            // Source died mid-broadcast: the reference is partially
            // advanced, so its bits no longer match its epoch's. Mark it
            // unknown — the coordinator never builds a delta round on a
            // negative epoch, and the next raw exchange restores it.
            complete = false;
            dev.ref_epoch = -1;
            r.ok = false;
          }
          if (complete) {
            dev.version = (1.0 - mix_w) * dev.version +
                          mix_w * cmd->version_mean;
            dev.ref_epoch = cmd->collective_id;
            r.version = dev.version;
          }
        } else {
          // Raw broadcast: the exact aggregate travels densely, and the
          // convex mix is elementwise, so each chunk folds into the model
          // the moment it lands (bitwise equal to the whole-state mix) —
          // receive/compute overlap on the integration side.
          bc_stage.resize(n);
          try {
            for (std::size_t c = 0; c < chunks; ++c) {
              const auto [b, e] = chunk_range(n, chunks, c);
              Message msg = recv_chunk_sliced(
                  transport, d, cmd->peer,
                  broadcast_chunk_tag(cmd->collective_id, c),
                  config.collective_timeout_s, [&] { io.beat(); });
              const std::span<float> stage(bc_stage.data() + b, e - b);
              HADFL_CHECK(msg.payload.size() == e - b);
              std::copy(msg.payload.begin(), msg.payload.end(),
                        stage.begin());
              transport.pool().release(std::move(msg.payload));
              mix_spans(nn::state_view(*dev.model).subspan(b, e - b),
                        stage, mix_w);
              io.beat();
            }
            // The staged aggregate becomes the new delta reference (swap
            // keeps the displaced capacity), the version takes the convex
            // mix, and the device joins the broadcast's epoch — a raw
            // push realigns even a receiver whose reference went stale.
            std::swap(dev.last_sync_state, bc_stage);
            dev.version = (1.0 - mix_w) * dev.version +
                          mix_w * cmd->version_mean;
            dev.ref_epoch = cmd->collective_id;
            r.version = dev.version;
          } catch (const CommError&) {
            // Source died mid-broadcast: give up on the rest. Chunks mixed
            // so far stay — each is a valid elementwise convex step; the
            // version/reference updates are withheld.
            r.ok = false;
          }
        }
        if (rec != nullptr) {
          rec->record(d, ts0, rec->now_s(),
                      r.ok ? obs::SpanKind::kBroadcast
                           : obs::SpanKind::kStall,
                      r.ok ? "integrate" : "integrate-abort");
        }
        report(std::move(r));
        break;
      }
      case CmdKind::kInterSync: {
        // §III-A leader exchange, phase 1 of two: all leaders gather each
        // other's raw states and fold the same mean the simulator's
        // mean_state_of computes — ring-order accumulation at weight 1/G,
        // one double→float cast — so every leader stages an identical
        // global. No codec on this path (the sim prices it dense).
        const double ts0 = rec != nullptr ? rec->now_s() : 0.0;
        Report r;
        r.kind = ReportKind::kInterSyncDone;
        const auto inter_beat = [&] {
          io.beat();
          if (cmd->cancel &&
              cmd->cancel->load(std::memory_order_relaxed)) {
            throw CommError("inter-group sync cancelled by coordinator");
          }
        };
        try {
          const auto view = nn::state_view(*dev.model);
          std::vector<std::vector<float>> contributions = ring_allgather(
              transport, cmd->peers, cmd->my_index, view,
              cmd->collective_id, cmd->wire_bytes,
              config.collective_timeout_s, inter_beat);
          inter_acc.reset(view.size());
          const double w =
              1.0 / static_cast<double>(cmd->peers.size());
          for (auto& contribution : contributions) {
            inter_acc.accumulate(contribution, w);
            transport.pool().release(std::move(contribution));
          }
          pending_aggregate.resize(view.size());
          inter_acc.write(pending_aggregate);
          if (cmd->my_index == 0) r.aggregate = pending_aggregate;
        } catch (const CommError& e) {
          HADFL_DEBUG("dev" << d << " inter-sync failed: " << e.what());
          pending_aggregate.clear();
          r.ok = false;
        }
        if (rec != nullptr) {
          rec->record(d, ts0, rec->now_s(),
                      r.ok ? obs::SpanKind::kSync : obs::SpanKind::kStall,
                      r.ok ? "inter-sync" : "inter-sync-abort");
        }
        report(std::move(r));
        break;
      }
      case CmdKind::kInterCommit: {
        // Leader side of phase 2: install the staged global (the sim mixes
        // then loads the leader — net effect is the load) and push it
        // non-blockingly to the group, chunked like the round broadcast.
        // Versions and top-k references are deliberately untouched — the
        // simulator's inter-group exchange does not update them either.
        const double ts0 = rec != nullptr ? rec->now_s() : 0.0;
        Report r;
        r.kind = ReportKind::kInterCommitDone;
        if (pending_aggregate.empty()) {
          r.ok = false;
          report(std::move(r));
          break;
        }
        nn::load_state(*dev.model, pending_aggregate);
        const std::size_t n = pending_aggregate.size();
        const std::size_t chunks = resolve_chunk_count(cmd->chunks, n);
        for (DeviceId target : cmd->peers) {
          try {
            for (std::size_t c = 0; c < chunks; ++c) {
              const auto [b, e] = chunk_range(n, chunks, c);
              Message msg;
              msg.tag = broadcast_chunk_tag(cmd->collective_id, c);
              msg.payload = transport.pool().acquire(e - b);
              std::copy(pending_aggregate.begin() +
                            static_cast<std::ptrdiff_t>(b),
                        pending_aggregate.begin() +
                            static_cast<std::ptrdiff_t>(e),
                        msg.payload.begin());
              msg.wire_bytes = chunk_wire_bytes(cmd->wire_bytes, n, b, e);
              if (env.telemetry.broadcast_bytes != nullptr) {
                env.telemetry.broadcast_bytes->add((e - b) * sizeof(float));
              }
              if (env.telemetry.broadcast_raw_bytes != nullptr) {
                env.telemetry.broadcast_raw_bytes->add((e - b) *
                                                       sizeof(float));
              }
              transport.send_nonblocking(d, target, std::move(msg));
              io.beat();
            }
            r.delivered.push_back(target);
          } catch (const CommError&) {
            // SimTransport parity, as in kBroadcast: consumed, not
            // delivered; skip this target's remaining chunks.
          }
        }
        pending_aggregate.clear();
        if (rec != nullptr) {
          rec->record(d, ts0, rec->now_s(), obs::SpanKind::kBroadcast,
                      "inter-push");
        }
        report(std::move(r));
        break;
      }
      case CmdKind::kInterMix: {
        // Group-member side of phase 2: fold the leader's global into the
        // local model chunk-by-chunk. mix_spans per chunk is bit-identical
        // to the simulator's whole-state nn::mix_into (both are the same
        // elementwise convex combination). No version/reference updates —
        // sim parity, as above.
        const double ts0 = rec != nullptr ? rec->now_s() : 0.0;
        Report r;
        r.kind = ReportKind::kInterMixDone;
        const std::size_t n = nn::state_size(*dev.model);
        const std::size_t chunks = resolve_chunk_count(cmd->chunks, n);
        try {
          for (std::size_t c = 0; c < chunks; ++c) {
            const auto [b, e] = chunk_range(n, chunks, c);
            Message msg = recv_chunk_sliced(
                transport, d, cmd->peer,
                broadcast_chunk_tag(cmd->collective_id, c),
                config.collective_timeout_s, [&] { io.beat(); });
            HADFL_CHECK(msg.payload.size() == e - b);
            mix_spans(nn::state_view(*dev.model).subspan(b, e - b),
                      msg.payload, config.hadfl.broadcast_mix_weight);
            transport.pool().release(std::move(msg.payload));
            io.beat();
          }
        } catch (const CommError&) {
          // Leader died mid-push: chunks mixed so far stay — each is a
          // valid elementwise convex step.
          r.ok = false;
        }
        if (rec != nullptr) {
          rec->record(d, ts0, rec->now_s(),
                      r.ok ? obs::SpanKind::kBroadcast
                           : obs::SpanKind::kStall,
                      r.ok ? "inter-mix" : "inter-mix-abort");
        }
        report(std::move(r));
        break;
      }
      case CmdKind::kStop: {
        Report r;
        r.kind = ReportKind::kStopped;
        // Run stats ride home on the final report: on the socket backend
        // this is the only channel for a remote process's byte counters
        // and pool stats (RtResult::device_stats).
        const comm::VolumeCounters vol = transport.volume();
        if (d < vol.sent.size()) r.sent_bytes = vol.sent[d];
        if (d < vol.received.size()) r.received_bytes = vol.received[d];
        r.pool = transport.pool().stats();
        report(std::move(r));
        return true;
      }
    }
  }
}

}  // namespace hadfl::rt
