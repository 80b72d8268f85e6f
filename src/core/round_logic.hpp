// Backend-agnostic pieces of the HADFL round (paper Alg. 1 + §III).
//
// Two execution backends share this logic:
//  * the virtual-clock simulator (core/fleet.cpp, comm::SimTransport) —
//    deterministic evaluation on per-device Lamport clocks;
//  * the real-time concurrent runtime (src/rt, and src/net over sockets) —
//    one worker per device, message passing, wall-clock timing.
//
// Everything that decides *what* the algorithm computes lives here —
// device-state initialization (including the exact RNG split sequence, so
// both backends derive identical streams from one seed), version
// prediction, probability-based selection + ring generation, and the ring
// aggregation rule. Everything that decides *when/where* it executes
// (clock advancement vs. real threads and transports) stays in the
// backends. A seeded run with timing noise disabled therefore produces
// bit-identical aggregates on both backends (tests/test_rt.cpp pins this).
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "core/coordinator.hpp"
#include "core/trainer.hpp"
#include "data/batch_iterator.hpp"
#include "fl/scheme.hpp"
#include "nn/optimizer.hpp"
#include "nn/sequential.hpp"

namespace hadfl::core {

/// Per-device runtime state of the rt and net backends (the device side of
/// Fig. 2a): each worker exclusively owns its entry between
/// synchronization points. The simulator keeps the same quantities as
/// copy-on-write slabs and per-device arrays (core/fleet.cpp).
struct DeviceState {
  std::unique_ptr<nn::Sequential> model;
  std::unique_ptr<nn::Sgd> optimizer;
  std::unique_ptr<data::BatchIterator> batches;
  double version = 0.0;        ///< cumulative parameter version (iterations)
  double last_loss = 0.0;
  std::size_t last_executed = 0;
  std::vector<float> last_sync_state;  ///< shared delta reference: the last
                                       ///< exact aggregate this device saw
  /// Which synchronization produced `last_sync_state`: the collective id of
  /// that sync (0 = the initial dispatch, identical everywhere). Devices
  /// with equal ref_epoch hold bit-identical references, which is the
  /// precondition for exchanging codec-encoded deltas against them; a
  /// device that missed a broadcast keeps its stale epoch and is realigned
  /// by the next raw (exact dense) round it participates in.
  std::int64_t ref_epoch = 0;
  /// Error-feedback residual for the compressed-delta sync path
  /// (comm/delta_codec.hpp): carries x - decode(encode(x)) into the next
  /// round's update so lossy codecs stay convergence-safe.
  comm::ErrorFeedback error_feedback;
  std::vector<float> scratch;  ///< per-device staging buffer, reused across
                               ///< rounds so sync paths don't allocate
};

/// Everything `init_devices` derives from the scheme context.
struct DeviceSetup {
  std::vector<DeviceState> devices;
  std::vector<std::size_t> iters_per_epoch;  ///< per-device, from partition
  std::vector<double> compute_powers;
  std::vector<float> init_state;             ///< the dispatched model state
  std::unique_ptr<nn::Sequential> reference; ///< coordinator-side eval model
  std::size_t wire_bytes = 0;                ///< per-exchange wire size
};

/// Initial model dispatch (workflow step 2 / Alg. 1 line 1): builds the
/// reference model (fresh init or `config.resume_from` backup) and one
/// DeviceState per device, all starting from the identical state. The RNG
/// split sequence is part of the contract: reference first, then per device
/// (in id order) one split for the device stream, from which the model
/// stream and the batch stream are split in turn — so the batch stream is
/// reproducible without running model init (the fleet engine relies on
/// this to price devices whose model state is a shared slab).
DeviceSetup init_devices(const fl::SchemeContext& ctx,
                         const HadflConfig& config, Rng& rng);

/// Scales the full-size wire price by the codec's compression ratio.
std::size_t effective_wire_bytes(std::size_t wire_bytes,
                                 std::size_t codec_bytes,
                                 std::size_t dense_bytes);

/// Mean state across the listed devices (id order), streamed straight off
/// the devices' arena views — no per-device state copies.
std::vector<float> mean_state_of(std::vector<DeviceState>& devices,
                                 const std::vector<sim::DeviceId>& ids);

/// The coordinator's version forecast for the coming selection (workflow
/// step 4). `fallback` is the Eq. 6 static expectation for the round;
/// `history` is the per-round actual-version record (kLastValue mode).
std::vector<double> predict_versions(
    PredictorMode mode, const RuntimeSupervisor& supervisor,
    const std::vector<double>& fallback,
    const std::vector<std::vector<double>>& history);

/// Probability-based selection (Eq. 8 via the policy) plus the random
/// directed ring over the picks. Draws from `rng` exactly as the simulator
/// backend always has: one policy->select call, then make_ring.
struct RingPlan {
  std::vector<sim::DeviceId> selected;  ///< policy picks (candidate order)
  std::vector<sim::DeviceId> ring;      ///< directed ring over the picks
};
RingPlan plan_ring(SelectionPolicy& policy,
                   const std::vector<sim::DeviceId>& candidates,
                   const std::vector<double>& predicted,
                   const std::vector<double>& compute_powers,
                   const std::vector<double>& bandwidth_scales,
                   std::size_t select_count, Rng& rng);

/// Aggregation weights for the ring members, in ring order: n_k-proportional
/// (the Eq. 2 objective) when `weight_by_samples`, else uniform (plain
/// Eq. 5 — numerically identical to nn::average).
std::vector<double> ring_weights(const data::Partition& partition,
                                 const std::vector<sim::DeviceId>& ring,
                                 bool weight_by_samples);

/// The canonical HADFL aggregation rule, in chunked form — THE definition
/// both backends compute, which is what keeps seeded sim/rt runs
/// bit-identical:
///
///   aggregate[e] = float( sum_m weights[m] * (double)state_m[e] ),
///
/// with the sum taken in ring order (m = 0..K-1) in double precision and a
/// single final cast. Because every element's fold order is ring order
/// regardless of how [0, n) is cut into segments, a segment-by-segment fold
/// (the rt pipelined collective: each segment owner folds the members'
/// pieces as they arrive off the wire) produces exactly the same bits as
/// the monolithic member-by-member fold (the simulator streaming whole
/// arena views) — tests/test_rt.cpp pins this chunk-invariance property.
///
/// The accumulator is caller-owned scratch: capacity persists across
/// rounds, so steady-state synchronization does not allocate.
class WeightedRingFold {
 public:
  /// Starts a fresh n-element fold (zeroes the accumulator, reuses
  /// capacity).
  void reset(std::size_t n);

  /// acc[offset .. offset+piece.size()) += w * piece. For each element
  /// range, call in ring order — that order IS the fold definition.
  void add(std::size_t offset, std::span<const float> piece, double w);

  /// dst = float(acc[offset .. offset+dst.size())): the single final cast.
  void write(std::size_t offset, std::span<float> dst) const;

  std::size_t size() const { return acc_.size(); }

 private:
  std::vector<double> acc_;
};

}  // namespace hadfl::core
