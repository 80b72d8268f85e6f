#include "core/fleet.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <map>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "comm/allreduce.hpp"
#include "comm/broadcast.hpp"
#include "comm/failure_detector.hpp"
#include "comm/transport.hpp"
#include "common/error.hpp"
#include "common/logging.hpp"
#include "common/math_utils.hpp"
#include "common/parallel.hpp"
#include "core/coordinator.hpp"
#include "core/fleet_selection.hpp"
#include "core/round_logic.hpp"
#include "core/round_planner.hpp"
#include "fl/local_trainer.hpp"
#include "nn/cow_store.hpp"
#include "nn/param_utils.hpp"
#include "nn/serialize.hpp"
#include "obs/recorder.hpp"

namespace hadfl::core {

namespace {

using nn::CowStateStore;
using SlabId = CowStateStore::SlabId;

/// A reusable training seat: one packed model + one SGD. A device's slab is
/// loaded into the seat, trained, and written back — the same arithmetic a
/// private per-device model performs (the rt workers keep one), since packed
/// models of one architecture share the arena layout. With momentum > 0 the
/// device's velocity slab is loaded into the seat's optimizer before the
/// burst and saved back after, so the seat itself still carries no
/// cross-episode state.
struct TrainerSlot {
  std::unique_ptr<nn::Sequential> model;
  std::unique_ptr<nn::Sgd> optimizer;
};

/// One device-training burst queued for the parallel phase. `state` (and
/// `velocity`, when momentum > 0) is the device's already-detached slab
/// span (exclusively owned), so the threads write disjoint memory and
/// never touch the stores.
struct TrainJob {
  sim::DeviceId id = 0;
  std::size_t steps = 0;
  std::span<float> state;
  std::span<float> velocity;
  double loss = 0.0;
};

/// Fixed device-range grain for the per-round O(K) scalar sweeps. Constant
/// (never a function of thread count): the partial-reduction grid — and
/// with it every merged result — is identical no matter how many threads
/// execute, the same discipline as the GEMM tile grid.
constexpr std::size_t kFleetGrain = std::size_t{1} << 13;

class FleetEngine {
 public:
  FleetEngine(const fl::SchemeContext& ctx, const HadflConfig& config,
              const FleetConfig& fleet)
      : ctx_(ctx),
        config_(config),
        fleet_(fleet),
        cluster_(ctx.cluster),
        k_(ctx.cluster.size()),
        transport_(ctx.cluster, ctx.network) {}

  FleetResult run();

 private:
  // ---- setup ----
  /// The initial model dispatch; draws the head of the run's RNG stream.
  void init_fleet(Rng& rng);
  void build_slots(std::size_t count);

  // ---- state plumbing ----
  std::span<const float> state_of(sim::DeviceId d) {
    return store_->view(state_slab_[d]);
  }
  /// Rebinds a device's slab handle: takes over one reference on `slab`
  /// (callers retain before passing) and drops the old one.
  void rebind_state(sim::DeviceId d, SlabId slab) {
    store_->release(state_slab_[d]);
    state_slab_[d] = slab;
  }
  void rebind_sync(sim::DeviceId d, SlabId slab) {
    store_->release(sync_slab_[d]);
    sync_slab_[d] = slab;
  }

  /// Exact per-device-order mean — the same StateAccumulator fold the rt
  /// backend's mean_state_of runs, reading slab views instead of model
  /// arenas.
  std::vector<float> mean_state_exact(const std::vector<sim::DeviceId>& ids);
  /// Class-folded mean (cohort mode): one accumulate per distinct slab,
  /// weighted by its share — same value up to float fold order.
  std::vector<float> mean_state_classes(const std::vector<sim::DeviceId>& ids);
  std::vector<float> mean_state(const std::vector<sim::DeviceId>& ids) {
    return exact_mode() ? mean_state_exact(ids) : mean_state_classes(ids);
  }

  // ---- training ----
  data::BatchIterator& batches_for(sim::DeviceId d);
  void run_jobs(std::vector<TrainJob>& jobs, double learning_rate);
  /// Detaches the device's state (and velocity) slabs and builds the
  /// exclusively-owned training job. Mutates the stores — coordinator
  /// thread only.
  TrainJob make_job(sim::DeviceId d, std::size_t steps);

  // ---- round pieces ----
  void warm_up(std::size_t num_groups);
  void full_sync_after_negotiation();
  void aggregate_group(const std::vector<sim::DeviceId>& candidates);
  /// One ring collective: folds the members' states — on a delta round,
  /// their codec-encoded deltas against the shared reference — into
  /// `aggregate` and prices it on the transport. Throws CommError when a
  /// member dies mid-collective.
  void sync_ring(const std::vector<sim::DeviceId>& ring, const SyncPlan& sync,
                 std::vector<float>& aggregate);
  void broadcast_integrate(const std::vector<sim::DeviceId>& delivered,
                           const std::vector<float>& aggregate,
                           double version_mean);
  void inter_group_sync(const InterGroupLeaders& leaders,
                        const LivenessMonitor& liveness);

  /// A cohort covering the whole fleet has nothing to sample.
  bool exact_mode() const {
    return fleet_.cohort == 0 || fleet_.cohort >= k_;
  }

  // ---- fixed-grid parallel sweeps ----
  static std::size_t range_count(std::size_t n) {
    return (n + kFleetGrain - 1) / kFleetGrain;
  }
  /// Runs fn(range_index, begin, end) over the fixed grid on up to
  /// `threads` threads (0 = threads_). The serial fallback lands everything
  /// in range 0, so per-range partials must merge through neutral initial
  /// values. A range accumulates its partial in locals and writes its slot
  /// once, at the end: neighbouring slots share cache lines, and the pool
  /// runs neighbouring ranges on different threads.
  void for_ranges(std::size_t n,
                  const std::function<void(std::size_t, std::size_t,
                                           std::size_t)>& fn,
                  std::size_t threads = 0) {
    parallel_chunks(n, kFleetGrain, threads == 0 ? threads_ : threads,
                    [&](std::size_t begin, std::size_t end) {
                      fn(begin / kFleetGrain, begin, end);
                    });
  }
  /// The ids for which keep(id) holds, in their order in `ids`: per-range
  /// lists concatenate in range order.
  template <class Keep>
  std::vector<sim::DeviceId> filter_ids(const std::vector<sim::DeviceId>& ids,
                                        const Keep& keep) {
    std::vector<std::vector<sim::DeviceId>> parts(range_count(ids.size()));
    for_ranges(ids.size(),
               [&](std::size_t r, std::size_t begin, std::size_t end) {
                 std::vector<sim::DeviceId> part;
                 for (std::size_t i = begin; i < end; ++i) {
                   if (keep(ids[i])) part.push_back(ids[i]);
                 }
                 parts[r] = std::move(part);
               });
    std::vector<sim::DeviceId> out;
    for (const auto& part : parts) {
      out.insert(out.end(), part.begin(), part.end());
    }
    return out;
  }

  // ---- phase spans ----
  double span_now() const { return recorder_ ? recorder_->now_s() : 0.0; }
  void span(double start, obs::SpanKind kind, const char* label) {
    if (recorder_) {
      recorder_->record(0, start, recorder_->now_s(), kind, label);
    }
  }

  const fl::SchemeContext& ctx_;
  const HadflConfig& config_;
  const FleetConfig& fleet_;
  sim::Cluster& cluster_;
  const std::size_t k_;
  comm::SimTransport transport_;
  std::optional<RoundPlanner> planner_;  ///< every decision of every round

  std::unique_ptr<CowStateStore> store_;
  std::unique_ptr<CowStateStore> vstore_;  ///< momentum velocity slabs
  std::unique_ptr<nn::Sequential> reference_;
  std::size_t state_floats_ = 0;
  std::size_t velocity_floats_ = 0;
  std::size_t threads_ = 1;  ///< resolved scalar-sweep thread budget
  obs::SpanRecorder* recorder_ = nullptr;
  FleetObjective objective_ = FleetObjective::kGaussianQuartile;

  // Per-device SoA (scalars only — all model state lives in the store).
  std::vector<SlabId> state_slab_;
  std::vector<SlabId> sync_slab_;
  std::vector<SlabId> velocity_slab_;  ///< sized only when momentum > 0
  std::vector<double> version_;
  std::vector<std::size_t> last_executed_;
  std::vector<Rng> batch_rngs_;
  std::vector<std::size_t> ipe_;
  std::unordered_map<sim::DeviceId, data::BatchIterator> batches_;

  std::vector<TrainerSlot> slots_;
  nn::StateAccumulator mean_acc_;
  WeightedRingFold ring_fold_;

  /// Delta-codec residuals, sized only when a codec or the controller is on.
  std::vector<comm::ErrorFeedback> feedback_;
  /// Each successful sync's reference epoch, which its members and the
  /// receivers it reaches report to the planner (rt uses collective ids).
  std::int64_t sync_epoch_ = 0;
  std::vector<float> sync_scratch_;   ///< delta-round update staging
  std::vector<float> codec_payload_;  ///< per-chunk encode staging

  FleetResult result_;
};

void FleetEngine::init_fleet(Rng& rng) {
  // Mirrors init_devices' RNG contract draw for draw (round_logic.hpp):
  // the reference model consumes the main stream, then each device splits
  // a device stream whose model split is *discarded* — every device's
  // random init is overwritten by the dispatched state anyway, which is
  // exactly why the fleet can start all K devices on one shared slab.
  reference_ = ctx_.make_model(rng);
  reference_->pack();
  if (!config_.resume_from.empty()) {
    const std::vector<float> resumed = nn::load_state(config_.resume_from);
    nn::load_state(*reference_, resumed);
    HADFL_INFO("resumed initial model from " << config_.resume_from);
  }
  const std::span<const float> ref_state = nn::state_view(*reference_);
  state_floats_ = ref_state.size();
  store_ = std::make_unique<CowStateStore>(state_floats_);

  state_slab_.resize(k_);
  sync_slab_.resize(k_);
  version_.assign(k_, 0.0);
  last_executed_.assign(k_, 0);
  batch_rngs_.reserve(k_);
  ipe_.resize(k_);

  const SlabId init = store_->create(ref_state);
  for (std::size_t d = 0; d < k_; ++d) {
    Rng dev_rng = rng.split();
    (void)dev_rng.split();  // the model stream — unused, see above
    batch_rngs_.push_back(dev_rng.split());
    store_->retain(init);
    state_slab_[d] = init;
    store_->retain(init);
    sync_slab_[d] = init;
    ipe_[d] = fl::iters_per_epoch(ctx_.partition[d].size(),
                                  ctx_.config.device_batch_size);
  }
  store_->release(init);  // drop the creation reference
}

void FleetEngine::build_slots(std::size_t count) {
  count = std::max<std::size_t>(1, std::min(count, k_));
  slots_.resize(count);
  for (TrainerSlot& slot : slots_) {
    // Slot init state is throwaway (every episode starts with load_state),
    // so the build rng is local and never touches the main stream.
    Rng slot_rng(0x51075107ull);
    slot.model = ctx_.make_model(slot_rng);
    slot.model->pack();
    slot.optimizer = std::make_unique<nn::Sgd>(
        slot.model->parameters(),
        nn::SgdConfig{ctx_.config.learning_rate, ctx_.config.momentum,
                      ctx_.config.weight_decay});
  }
}

data::BatchIterator& FleetEngine::batches_for(sim::DeviceId d) {
  const auto it = batches_.find(d);
  if (it != batches_.end()) return it->second;
  // Lazily built from the stored batch stream: the iterator's RNG is
  // self-contained, so a first-use build is in the exact state an
  // init-time build would be in.
  return batches_
      .emplace(d, data::BatchIterator(ctx_.train, ctx_.partition[d],
                                      ctx_.config.device_batch_size,
                                      batch_rngs_[d]))
      .first->second;
}

void FleetEngine::run_jobs(std::vector<TrainJob>& jobs, double learning_rate) {
  if (jobs.empty()) return;
  const double start = span_now();
  for (TrainJob& job : jobs) batches_for(job.id);  // serial map fill
  // Lanes claim jobs one at a time, so mixed step budgets balance across
  // lanes. A slot carries no state from one job to the next, so which lane
  // runs a job never changes its bits.
  const std::size_t lanes = std::min(slots_.size(), jobs.size());
  std::atomic<std::size_t> next_job{0};
  parallel_for_each(
      lanes,
      [&](std::size_t lane) {
        TrainerSlot& slot = slots_[lane];
        slot.optimizer->set_learning_rate(learning_rate);
        for (std::size_t j = next_job++; j < jobs.size(); j = next_job++) {
          TrainJob& job = jobs[j];
          nn::load_state(*slot.model, job.state);
          if (vstore_) slot.optimizer->load_velocity(job.velocity);
          job.loss = fl::run_local_steps(*slot.model, *slot.optimizer,
                                         batches_.at(job.id), job.steps)
                         .mean_loss;
          if (vstore_) slot.optimizer->save_velocity(job.velocity);
          const std::span<const float> out = nn::state_view(*slot.model);
          std::copy(out.begin(), out.end(), job.state.begin());
        }
      },
      lanes);
  for (const TrainJob& job : jobs) {
    planner_->observe_training(job.id, job.steps, job.loss);
  }
  result_.stats.train_episodes += jobs.size();
  span(start, obs::SpanKind::kCompute, "train");
}

TrainJob FleetEngine::make_job(sim::DeviceId d, std::size_t steps) {
  state_slab_[d] = store_->detach(state_slab_[d]);
  TrainJob job;
  job.id = d;
  job.steps = steps;
  job.state = store_->mutable_view(state_slab_[d]);
  if (vstore_) {
    velocity_slab_[d] = vstore_->detach(velocity_slab_[d]);
    job.velocity = vstore_->mutable_view(velocity_slab_[d]);
  }
  return job;
}

std::vector<float> FleetEngine::mean_state_exact(
    const std::vector<sim::DeviceId>& ids) {
  HADFL_CHECK_ARG(!ids.empty(), "fleet mean over zero devices");
  mean_acc_.reset(state_floats_);
  const double w = 1.0 / static_cast<double>(ids.size());
  for (const sim::DeviceId id : ids) {
    mean_acc_.accumulate(state_of(id), w);
  }
  return mean_acc_.materialize();
}

std::vector<float> FleetEngine::mean_state_classes(
    const std::vector<sim::DeviceId>& ids) {
  HADFL_CHECK_ARG(!ids.empty(), "fleet mean over zero devices");
  // Classes fold in first-member order: when every slab is distinct the
  // accumulate sequence degenerates to mean_state_exact's per-device fold,
  // bit for bit — which keeps saturated cohort groups on the exact path.
  // Consecutive ids nearly always share a slab, so the hash is consulted
  // only when the slab changes from the previous id's.
  std::unordered_map<SlabId, std::size_t> index;
  std::vector<std::pair<SlabId, std::size_t>> classes;  // (slab, count)
  std::size_t last = 0;  // class of the previous id
  for (const sim::DeviceId id : ids) {
    const SlabId slab = state_slab_[id];
    if (classes.empty() || classes[last].first != slab) {
      const auto [it, inserted] = index.emplace(slab, classes.size());
      if (inserted) classes.emplace_back(slab, 0);
      last = it->second;
    }
    ++classes[last].second;
  }
  mean_acc_.reset(state_floats_);
  const double n = static_cast<double>(ids.size());
  for (const auto& [slab, count] : classes) {
    mean_acc_.accumulate(store_->view(slab),
                         static_cast<double>(count) / n);
  }
  return mean_acc_.materialize();
}

void FleetEngine::warm_up(std::size_t num_groups) {
  const int warmup_epochs = planner_->warmup_epochs();
  std::vector<sim::DeviceId> sample;
  if (exact_mode()) {
    sample.resize(k_);
    for (std::size_t d = 0; d < k_; ++d) sample[d] = d;
  } else {
    // Train a cohort-per-group id prefix: with a cycled power-ratio table
    // the prefix covers every heterogeneity class as long as it spans the
    // ratio length. The rest of the fleet keeps the dispatched state; the
    // first convergence point's train loss is the sample's mean.
    sample.resize(std::min(fleet_.cohort * std::max<std::size_t>(1, num_groups),
                           k_));
    for (std::size_t i = 0; i < sample.size(); ++i) {
      sample[i] = static_cast<sim::DeviceId>(i);
    }
  }

  std::vector<TrainJob> jobs;
  jobs.reserve(sample.size());
  for (const sim::DeviceId d : sample) {
    jobs.push_back(
        make_job(d, static_cast<std::size_t>(warmup_epochs) * ipe_[d]));
  }
  run_jobs(jobs, ctx_.config.warmup_learning_rate);

  // Timing is analytic for every device (the walk draws each device's own
  // jitter stream), so the negotiation clock walk is exact in both modes —
  // the strategy a 100k cohort run generates is the strategy the exact run
  // would. Devices advance unsynced over the fixed range grid (disjoint
  // ids ⇒ disjoint clock slots and jitter streams); per-range clock maxima
  // fold back afterwards.
  // A trace records each device's span in turn, so it walks serially.
  std::vector<sim::SimTime> epoch_times(k_);
  const std::size_t ranges = range_count(k_);
  std::vector<sim::SimTime> range_clock(ranges, 0.0);
  for_ranges(
      k_,
      [&](std::size_t r, std::size_t begin, std::size_t end) {
        sim::SimTime clock_max = 0.0;
        for (std::size_t d = begin; d < end; ++d) {
          const sim::SimTime start = cluster_.time(d);
          const sim::SimTime duration = cluster_.advance_compute_unsynced(
              d, static_cast<std::size_t>(warmup_epochs) * ipe_[d]);
          // The device reports its calculation time T_i to the coordinator.
          epoch_times[d] = duration / static_cast<double>(warmup_epochs);
          clock_max = std::max(clock_max, cluster_.time(d));
          if (config_.trace != nullptr) {
            config_.trace->record(d, start, cluster_.time(d),
                                  obs::SpanKind::kCompute, "negotiation");
          }
        }
        range_clock[r] = clock_max;
      },
      config_.trace != nullptr ? 1 : threads_);
  for (const sim::SimTime t : range_clock) cluster_.note_clock(t);
  cluster_.barrier_all();
  planner_->negotiate(std::move(epoch_times));
}

void FleetEngine::full_sync_after_negotiation() {
  std::vector<sim::DeviceId> reachable;
  for (std::size_t d = 0; d < k_; ++d) {
    if (cluster_.faults().alive(d, cluster_.time(d))) reachable.push_back(d);
  }
  if (reachable.size() <= 1) return;
  const std::vector<float> mean = mean_state(reachable);
  try {
    comm::simulate_ring_allreduce(transport_, reachable,
                                  planner_->wire_bytes());
    const SlabId shared = store_->create(mean);
    for (const sim::DeviceId d : reachable) {
      store_->retain(shared);
      rebind_state(d, shared);  // the model only; the last-sync
                                // reference stays put
    }
    store_->release(shared);
  } catch (const CommError&) {
    HADFL_WARN("post-negotiation sync skipped: device went down");
  }
}

void FleetEngine::aggregate_group(
    const std::vector<sim::DeviceId>& candidates) {
  RoundPlanner& planner = *planner_;
  const double sel_start = span_now();
  std::vector<sim::DeviceId> ring;
  std::vector<sim::DeviceId> to_train;  // cohort mode only — exact trained
  if (exact_mode() || candidates.size() <= fleet_.cohort) {
    ring = planner.select_ring(candidates);
    // Saturated group: the cohort covers every candidate, so the group
    // degrades to the exact per-group plan — the policy's own draws pick
    // the ring and every candidate with a step budget trains.
    if (!exact_mode()) to_train = candidates;
  } else {
    // One fresh seed per selection keeps the counter-keyed E–S draw stream
    // range- and thread-invariant while still advancing the planner's RNG
    // exactly once per group selection.
    const std::uint64_t draw_seed = planner.draw_seed();
    const FleetSelection sel = select_fleet_cohort(
        planner.predicted(), candidates, config_.strategy.select_count,
        fleet_.cohort - std::min(fleet_.cohort,
                                 config_.strategy.select_count),
        fleet_.selection_buckets, draw_seed, objective_, threads_);
    ring = planner.ring_over(sel.cohort);
    // Only now does any SGD happen: ring members + shadow runners-up train
    // their analytic step budgets; everyone else is already fully priced.
    to_train = ring;
    to_train.insert(to_train.end(), sel.shadow.begin(), sel.shadow.end());
  }
  std::vector<TrainJob> jobs;
  jobs.reserve(to_train.size());
  for (const sim::DeviceId d : to_train) {
    if (last_executed_[d] != 0) jobs.push_back(make_job(d, last_executed_[d]));
  }
  span(sel_start, obs::SpanKind::kSync, "select");
  run_jobs(jobs, ctx_.config.learning_rate);
  const double fold_start = span_now();

  // Fault-tolerant gossip aggregation (§III-D). A device can die *between*
  // the repair scan and the collective (its fault window opens mid-sync);
  // the CommError then triggers another repair pass, exactly like the
  // timeout would in a real deployment.
  std::vector<float> aggregate;
  SyncPlan sync;
  for (int attempt = 0;
       attempt < RoundPlanner::kMaxSyncAttempts && !ring.empty(); ++attempt) {
    const comm::RingRepairResult repair =
        comm::repair_ring(transport_, ring, config_.repair);
    planner.observe_repairs(repair.repairs);
    if (config_.trace != nullptr) {
      // Same vocabulary as the rt backend: each bypass shows as a kRepair
      // span covering the §III-D wait + handshake window, drawn on the
      // bypassed device's row (which goes silent afterwards).
      for (const sim::DeviceId dead : repair.removed) {
        const sim::SimTime t = cluster_.time(dead);
        config_.trace->record(dead, t,
                              t + config_.repair.wait_before_handshake +
                                  config_.repair.handshake_timeout,
                              obs::SpanKind::kRepair, "bypassed");
      }
    }
    ring = repair.ring;
    if (ring.empty()) break;
    sync = planner.plan_sync(ring);
    try {
      sync_ring(ring, sync, aggregate);
      break;
    } catch (const CommError&) {
      HADFL_WARN("partial sync hit a mid-collective fault; repairing");
      aggregate.clear();
      // Move past the failure instant so the next repair pass sees the
      // fault and bypasses the dead member.
      for (const sim::DeviceId id : ring) {
        cluster_.advance(id, config_.repair.wait_before_handshake);
      }
    }
  }
  if (ring.empty() || aggregate.empty()) {
    span(fold_start, obs::SpanKind::kBroadcast, "fold");
    return;
  }

  // Every ring member's state AND last-sync reference become the aggregate's
  // bits, so all of them share one slab.
  const double version_mean = planner.commit_sync(ring, version_);
  const SlabId agg_slab = store_->create(aggregate);
  for (const sim::DeviceId id : ring) {
    store_->retain(agg_slab);
    rebind_state(id, agg_slab);
    store_->retain(agg_slab);
    rebind_sync(id, agg_slab);
    version_[id] = version_mean;
  }
  store_->release(agg_slab);
  const std::int64_t sync_id = ++sync_epoch_;
  planner.observe_ref_epochs(ring, sync_id);
  if (!feedback_.empty()) {
    for (const sim::DeviceId id : ring) {
      // A delta round's encode error becomes the committed residual; a raw
      // round transmitted the exact state, so residual memory resets.
      if (sync.delta) {
        feedback_[id].commit();
      } else {
        feedback_[id].clear();
      }
    }
  }

  // Non-blocking broadcast to the unselected members, one leg per planned
  // receiver class, priced by the codec's data-independent formula. Either
  // way a receiver rebuilds the aggregate bit-exactly, integrates it with
  // the same mix and joins the new reference epoch; its error-feedback
  // residual is untouched.
  std::vector<sim::DeviceId> others =
      filter_ids(candidates, [&](sim::DeviceId id) {
        return std::find(ring.begin(), ring.end(), id) == ring.end();
      });
  if (!others.empty()) {
    const BroadcastPlan bc =
        planner.plan_broadcast(ring, std::move(others), sync);
    const sim::SimTime bc_start = cluster_.time(bc.source);
    std::vector<sim::DeviceId> delivered;
    const auto push = [&](const std::vector<sim::DeviceId>& to,
                          std::size_t bytes) {
      if (to.empty()) return;
      comm::BroadcastResult sent = comm::broadcast_nonblocking(
          transport_, bc.source, to, bytes, threads_);
      if (delivered.empty()) {
        delivered = std::move(sent.delivered);
      } else {
        delivered.insert(delivered.end(), sent.delivered.begin(),
                         sent.delivered.end());
      }
    };
    push(bc.aligned, planner.delta_wire_bytes());
    push(bc.stale, planner.wire_bytes());
    if (config_.trace != nullptr) {
      for (const sim::DeviceId id : delivered) {
        config_.trace->record(id, bc_start, cluster_.time(id),
                              obs::SpanKind::kBroadcast, "broadcast");
      }
    }
    planner.observe_ref_epochs(delivered, sync_id);
    broadcast_integrate(delivered, aggregate, version_mean);
  }

  planner.merge_group_aggregate(std::move(aggregate));
  span(fold_start, obs::SpanKind::kBroadcast, "fold");
}

void FleetEngine::sync_ring(const std::vector<sim::DeviceId>& ring,
                            const SyncPlan& sync,
                            std::vector<float>& aggregate) {
  // A delta round exchanges codec-encoded deltas against the members'
  // shared reference (comm/delta_codec.hpp) and folds exactly what the wire
  // delivers; otherwise the members' exact states fold. The fold is the
  // ring-order double-precision accumulation the rt pipelined collective
  // computes chunk by chunk, so both land on identical bits.
  const ctrl::RoundPlan& plan = planner_->plan();
  const comm::SyncCodec codec = plan.codec;
  const double ratio = plan.topk_ratio;
  const std::size_t n = state_floats_;
  const std::size_t chunks = comm::resolve_chunk_count(plan.sync_chunks, n);
  ring_fold_.reset(n);
  for (std::size_t m = 0; m < ring.size(); ++m) {
    if (!sync.delta) {
      ring_fold_.add(0, state_of(ring[m]), sync.weights[m]);
      continue;
    }
    // u_m = x_m - r + e_m passes through the codec chunk by chunk; the
    // encode error is staged as the next error-feedback residual.
    const std::span<const float> state = state_of(ring[m]);
    sync_scratch_.assign(state.begin(), state.end());
    comm::ErrorFeedback& feedback = feedback_[ring[m]];
    feedback.ensure(n);
    comm::form_delta_update(sync_scratch_, store_->view(sync_slab_[ring[m]]),
                            feedback.residual);
    for (std::size_t c = 0; c < chunks; ++c) {
      const auto [b, e] = chunk_range(n, chunks, c);
      codec_payload_.resize(comm::encoded_chunk_floats(codec, e - b, ratio));
      comm::roundtrip_chunk_staged(
          codec, ratio, std::span<float>(sync_scratch_).subspan(b, e - b),
          std::span<float>(feedback.staged).subspan(b, e - b),
          codec_payload_);
    }
    ring_fold_.add(0, sync_scratch_, sync.weights[m]);
  }
  const std::size_t wire =
      sync.delta ? planner_->delta_wire_bytes() : planner_->wire_bytes();
  sim::SimTime sync_start = 0.0;  // when the slowest member arrives
  for (const sim::DeviceId id : ring) {
    sync_start = std::max(sync_start, cluster_.time(id));
  }
  const sim::SimTime sync_done =
      comm::simulate_ring_allreduce(transport_, ring, wire);
  planner_->observe_sync(ring, sync_done - sync_start);
  aggregate.resize(n);
  ring_fold_.write(0, aggregate);
  if (sync.delta) {
    // Phase-2 mirror: the folded delta circulates encoded, so everyone
    // commits reference + decode(encode(fold)).
    for (std::size_t c = 0; c < chunks; ++c) {
      const auto [b, e] = chunk_range(n, chunks, c);
      codec_payload_.resize(comm::encoded_chunk_floats(codec, e - b, ratio));
      comm::roundtrip_folded_chunk(
          codec, ratio, std::span<float>(aggregate).subspan(b, e - b),
          codec_payload_);
    }
    const std::span<const float> ref = store_->view(sync_slab_[ring.front()]);
    for (std::size_t i = 0; i < n; ++i) aggregate[i] = ref[i] + aggregate[i];
  }
  if (config_.trace != nullptr) {
    for (const sim::DeviceId id : ring) {
      config_.trace->record(id, sync_start, sync_done, obs::SpanKind::kSync,
                            "partial sync");
    }
  }
}

void FleetEngine::broadcast_integrate(
    const std::vector<sim::DeviceId>& delivered,
    const std::vector<float>& aggregate, double version_mean) {
  // integrate_broadcast is a pure function of (state, last-sync) — group
  // the receivers by that slab pair and run it once per class. Exact-mode
  // bit-identity is preserved: every class member would compute exactly
  // these bits on its own, and no receiver's result feeds another's.
  using ClassKey = std::pair<SlabId, SlabId>;
  struct ClassRebind {
    std::uint32_t members = 0;
    SlabId state = CowStateStore::kNone;
    SlabId sync = CowStateStore::kNone;
  };
  using ClassTable = std::map<ClassKey, ClassRebind>;
  // Count each class's members per range (the slab arrays are read-only
  // here); the counts merge into one key-ordered table.
  const std::size_t n = delivered.size();
  std::vector<ClassTable> parts(range_count(n));
  for_ranges(n, [&](std::size_t r, std::size_t begin, std::size_t end) {
    ClassTable part;
    auto cls = part.end();  // consecutive receivers mostly share a class
    for (std::size_t i = begin; i < end; ++i) {
      const sim::DeviceId id = delivered[i];
      const ClassKey key{state_slab_[id], sync_slab_[id]};
      if (cls == part.end() || cls->first != key) {
        cls = part.try_emplace(key).first;
      }
      ++cls->second.members;
    }
    parts[r] = std::move(part);
  });
  ClassTable classes;
  for (const ClassTable& part : parts) {
    for (const auto& [key, cls] : part) classes[key].members += cls.members;
  }
  // In key order, create each class's two slabs and move its members'
  // references in bulk. Only releases free slabs, and the old state slab
  // still frees before the old sync slab, as when members rebind one by
  // one, so free-list reuse, slab ids and peak counts do not change. A
  // later class's key slabs are still referenced by its members, so they
  // cannot be recycled mid-loop.
  std::vector<float> mixed;
  for (auto& [key, cls] : classes) {
    const std::span<const float> state = store_->view(key.first);
    mixed.assign(state.begin(), state.end());
    nn::mix_into(mixed, aggregate, config_.broadcast_mix_weight);
    cls.state = store_->create(mixed);
    cls.sync = store_->create(aggregate);
    store_->retain(cls.state, cls.members);
    store_->release(key.first, cls.members);
    store_->retain(cls.sync, cls.members);
    store_->release(key.second, cls.members);
    store_->release(cls.state);
    store_->release(cls.sync);
  }
  // Rebind each receiver through the old key it still holds. Receivers
  // are distinct, so every slot is written once.
  const double mix = config_.broadcast_mix_weight;
  for_ranges(n, [&](std::size_t, std::size_t begin, std::size_t end) {
    auto cls = classes.cend();
    for (std::size_t i = begin; i < end; ++i) {
      const sim::DeviceId id = delivered[i];
      const ClassKey key{state_slab_[id], sync_slab_[id]};
      if (cls == classes.cend() || cls->first != key) cls = classes.find(key);
      state_slab_[id] = cls->second.state;
      sync_slab_[id] = cls->second.sync;
      version_[id] = (1.0 - mix) * version_[id] + mix * version_mean;
    }
  });
}

void FleetEngine::inter_group_sync(const InterGroupLeaders& leaders,
                                   const LivenessMonitor& liveness) {
  const DeviceGroups& groups = planner_->groups();
  const std::size_t wire_bytes = planner_->wire_bytes();
  std::vector<float> global = mean_state(leaders.devices);
  try {
    comm::simulate_ring_allreduce(transport_, leaders.devices, wire_bytes);
  } catch (const CommError&) {
    HADFL_WARN("inter-group sync skipped: leader unreachable");
    return;
  }
  const SlabId global_slab = store_->create(global);
  std::vector<float> mixed;
  for (std::size_t i = 0; i < leaders.devices.size(); ++i) {
    const sim::DeviceId leader = leaders.devices[i];
    // Available non-leader members mix the global state in; classes are
    // keyed by state slab only (the inter-group pass leaves the last-sync
    // reference untouched).
    std::map<SlabId, std::vector<sim::DeviceId>> classes;
    for (const sim::DeviceId id : groups[leaders.group[i]]) {
      if (!liveness.is_available(id)) continue;
      if (id == leader) continue;
      transport_.account(leader, id, wire_bytes);
      classes[state_slab_[id]].push_back(id);
    }
    for (const auto& [slab, members] : classes) {
      const std::span<const float> state = store_->view(slab);
      mixed.assign(state.begin(), state.end());
      nn::mix_into(mixed, global, config_.broadcast_mix_weight);
      const SlabId new_state = store_->create(mixed);
      for (const sim::DeviceId id : members) {
        store_->retain(new_state);
        rebind_state(id, new_state);
      }
      store_->release(new_state);
    }
    store_->retain(global_slab);
    rebind_state(leader, global_slab);
  }
  store_->release(global_slab);
  planner_->merge_inter_group(std::move(global));
}

FleetResult FleetEngine::run() {
  HADFL_CHECK_ARG(ctx_.partition.size() == k_,
                  "partition count != device count");
  if (!exact_mode()) {
    // Untrained cohort devices hold no private state between rounds, so
    // there are no per-device residuals or measured step times to keep.
    HADFL_CHECK_ARG(config_.compression == SyncCompression::kNone,
                    "sampled-cohort mode supports the uncompressed sync "
                    "codec only (the compressed-delta path needs per-device "
                    "error-feedback residuals)");
    HADFL_CHECK_ARG(!config_.adaptive.enabled,
                    "sampled-cohort mode does not run the adaptive "
                    "controller");
    HADFL_CHECK_ARG(fleet_.cohort >= config_.strategy.select_count,
                    "fleet cohort " << fleet_.cohort
                                    << " smaller than select_count "
                                    << config_.strategy.select_count);
    const std::string policy = config_.policy
                                   ? config_.policy->name()
                                   : GaussianQuartileSelection().name();
    if (policy == "gaussian-quartile") {
      objective_ = FleetObjective::kGaussianQuartile;
    } else if (policy == "top-k") {
      objective_ = FleetObjective::kTopVersion;
    } else {
      HADFL_CHECK_ARG(false,
                      "sampled-cohort mode supports the gaussian-quartile "
                      "and top-k policies; got " << policy);
    }
  }
  threads_ = fleet_.scalar_threads == 0 ? default_compute_threads()
                                        : fleet_.scalar_threads;
  recorder_ = fleet_.recorder;

  cluster_.reset_clocks();
  result_.scheme.scheme_name = "hadfl-fleet";
  result_.stats.devices = k_;
  Rng rng(ctx_.config.seed);
  init_fleet(rng);
  planner_.emplace(ctx_, config_, *reference_, ipe_, std::move(rng), threads_,
                   fleet_.max_rounds, fleet_.extras_device_cap);
  RoundPlanner& planner = *planner_;
  if (config_.compression != SyncCompression::kNone ||
      config_.adaptive.enabled) {
    feedback_.resize(k_);
  }
  build_slots(default_compute_threads());
  velocity_floats_ = slots_[0].optimizer->velocity_size();
  if (ctx_.config.momentum != 0.0 && velocity_floats_ > 0) {
    // One zero slab shared by the whole fleet: a device forks a private
    // velocity copy only when it first trains (make_job detaches it), so
    // resident optimizer memory tracks the trained cohort, not K.
    vstore_ = std::make_unique<CowStateStore>(velocity_floats_);
    velocity_slab_.resize(k_);
    const SlabId zero = vstore_->create_zeroed();
    for (std::size_t d = 0; d < k_; ++d) {
      vstore_->retain(zero);
      velocity_slab_[d] = zero;
    }
    vstore_->release(zero);  // drop the creation reference
  }
  result_.stats.state_floats = state_floats_;
  result_.stats.naive_state_bytes =
      2 * k_ * state_floats_ * sizeof(float) +  // model + last-sync, per dev
      (vstore_ ? k_ * velocity_floats_ * sizeof(float) : 0);

  warm_up(planner.groups().size());
  if (config_.full_sync_after_negotiation) full_sync_after_negotiation();

  LivenessMonitor liveness(cluster_);
  const auto fleet_mean = [&] {
    std::vector<sim::DeviceId> all(k_);
    for (std::size_t d = 0; d < k_; ++d) all[d] = d;
    return mean_state(all);
  };
  planner.record_start(fleet_mean(), cluster_.max_time());

  while (planner.begin_round()) {
    const std::size_t round = planner.round();
    const sim::SimTime window = planner.window();
    const sim::SimTime t0 = cluster_.max_time();
    // Injected speed drift (sim/fault.hpp) scales step times; without
    // scheduled drift the walk skips the lookup.
    const bool drifting = cluster_.faults().has_drift();
    // The controller and the trace observe each device's burst in turn,
    // so with either attached the walk runs serially.
    const bool observed = planner.adaptive() || config_.trace != nullptr;
    const std::string label =
        config_.trace != nullptr ? "round " + std::to_string(round) : "";

    // Fused O(K) round walk over the fixed range grid: align to t0,
    // availability, jitter draw, the planner's deadline truncation at this
    // burst's jittered and drifted step time, burst + window advancement,
    // version bump (a disturbed device falls behind, which the forecast
    // and selection then react to). Every device touches only its own
    // clock slot and jitter stream, so ranges run unsynced; the partials —
    // integer-valued executed sums, clock maxima, trained-id lists — are
    // order-independent or merge in range order, keeping every thread count
    // bit-identical to the serial walk.
    // In exact mode the SGD for every budget runs below (via jobs); in
    // cohort mode the budgets stand on their own and only each group's
    // cohort SGD runs later.
    const double clock_start = span_now();
    std::vector<std::uint8_t> available_at_start(k_, 0);
    const std::size_t ranges = range_count(k_);
    std::vector<double> range_executed(ranges, 0.0);
    std::vector<sim::SimTime> range_clock(ranges, 0.0);
    std::vector<std::vector<sim::DeviceId>> range_train(ranges);
    const bool train_all = exact_mode();
    for_ranges(k_, [&](std::size_t r, std::size_t begin, std::size_t end) {
      double executed_sum = 0.0;
      sim::SimTime clock_max = 0.0;
      std::vector<sim::DeviceId> train;
      for (std::size_t d = begin; d < end; ++d) {
        cluster_.advance_to_unsynced(d, t0);
        // == liveness.is_available(d) after the align: time(d) is now t0.
        // The monitor's view is taken *before* the round: a device that
        // disconnects mid-round is still selectable, and the §III-D ring
        // repair handles it, as in the paper's Fig. 2b walkthrough.
        available_at_start[d] =
            cluster_.faults().alive(d, t0) ? std::uint8_t{1} : std::uint8_t{0};
        const double jitter = cluster_.sample_jitter_factor(d);
        double iter_time = cluster_.iteration_time(d) * jitter;
        if (drifting) iter_time *= cluster_.faults().drift_multiplier(d, round);
        const std::size_t executed = planner.steps_in_window(d, iter_time);
        last_executed_[d] = executed;
        if (train_all && executed > 0) train.push_back(d);
        cluster_.advance_unsynced(d,
                                  iter_time * static_cast<double>(executed));
        if (observed && executed > 0) {
          if (planner.adaptive()) planner.observe_step_time(d, iter_time);
          if (config_.trace != nullptr) {
            config_.trace->record(d, t0, cluster_.time(d),
                                  obs::SpanKind::kCompute, label);
          }
        }
        cluster_.advance_to_unsynced(d, t0 + window);
        version_[d] += static_cast<double>(executed);
        executed_sum += static_cast<double>(executed);
        clock_max = std::max(clock_max, cluster_.time(d));
      }
      range_executed[r] = executed_sum;
      range_clock[r] = clock_max;
      range_train[r] = std::move(train);
    }, observed ? 1 : threads_);
    double executed_total = 0.0;
    std::vector<TrainJob> jobs;
    for (std::size_t r = 0; r < ranges; ++r) {
      executed_total += range_executed[r];
      cluster_.note_clock(range_clock[r]);
      for (const sim::DeviceId d : range_train[r]) {
        jobs.push_back(make_job(d, last_executed_[d]));
      }
    }
    planner.observe_steps(executed_total);
    span(clock_start, obs::SpanKind::kIdle, "clock");
    run_jobs(jobs, ctx_.config.learning_rate);

    const double select_start = span_now();
    planner.forecast(version_);
    span(select_start, obs::SpanKind::kSync, "select");

    for (const auto& group : planner.groups()) {
      const std::vector<sim::DeviceId> candidates =
          filter_ids(group, [&](sim::DeviceId d) {
            return available_at_start[d] != 0;
          });
      if (candidates.empty()) continue;
      aggregate_group(candidates);
    }
    const InterGroupLeaders leaders = planner.inter_group_leaders(
        [&](sim::DeviceId id) { return liveness.is_available(id); });
    if (!leaders.empty()) inter_group_sync(leaders, liveness);

    planner.end_round(cluster_.max_time(), [&] {
      const std::vector<sim::DeviceId> avail = liveness.available();
      return avail.empty() ? fleet_mean() : mean_state(avail);
    });
  }

  result_.stats.rounds = planner.round();
  result_.stats.peak_state_slabs = store_->peak_slabs();
  result_.stats.peak_state_bytes = store_->peak_bytes();
  if (vstore_) {
    result_.stats.peak_velocity_slabs = vstore_->peak_slabs();
    result_.stats.peak_velocity_bytes = vstore_->peak_bytes();
  }
  planner.finish(result_.scheme, result_.extras, fleet_mean);
  result_.stats.ring_repairs = result_.extras.ring_repairs;
  result_.scheme.volume = transport_.volume();
  result_.scheme.total_time = cluster_.max_time();
  return std::move(result_);
}

}  // namespace

FleetResult run_hadfl_fleet(const fl::SchemeContext& ctx,
                            const HadflConfig& config,
                            const FleetConfig& fleet) {
  FleetEngine engine(ctx, config, fleet);
  return engine.run();
}

}  // namespace hadfl::core
