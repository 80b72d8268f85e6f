// What every HADFL backend shares when it carries out a round (paper
// Alg. 1 + §III); the round's decisions live in core::RoundPlanner. Both
// the virtual-clock simulator (core/fleet.cpp) and the real-time runtime
// (src/rt, src/net) run this device-state initialization — including the
// exact RNG split sequence, so both derive identical streams from one
// seed — the codec's wire price, the evaluation mean and the ring
// aggregation rule, so a seeded run with timing noise disabled produces
// bit-identical aggregates on both (tests/test_rt.cpp pins this).
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
