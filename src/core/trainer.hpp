// The HADFL simulator entry point (paper Alg. 1 + §III) and its config.
//
// run_hadfl is the fleet engine's exact mode (core/fleet.hpp, cohort 0)
// with every per-device diagnostic series kept: the engine's round loop is
// the one simulator implementation. One run executes:
//  1. Initial model dispatch: every device starts from the same state.
//  2. Mutual negotiation (§III-B): E_warmup local epochs at a small
//     learning rate; the measured per-epoch durations T_i / E_warmup seed
//     the strategy generator and the expected versions (Eq. 6).
//  3. Strategy generation (§III-C): hyperperiod H_E, window T_sync * H_E,
//     per-device local steps E_k.
//  4. Rounds until the epoch budget is exhausted. Each round: devices train
//     their heterogeneity-aware step budgets asynchronously (a disturbed
//     device is cut off at the window boundary and simply reports a lower
//     parameter version); the runtime supervisor records versions and
//     forecasts the next round (Eq. 7); the strategy generator selects N_p
//     devices by the version-probability function (Eq. 8) and a random
//     directed ring; the ring gossip-aggregates (Eq. 5, normalized); a
//     random ring member broadcasts the aggregate to the unselected devices
//     non-blockingly, which integrate it with their local models; dead ring
//     members are bypassed with the wait/handshake/warn protocol (§III-D).
//  5. The model manager keeps the aggregate and writes periodic backups.
//
// With grouping enabled (§III-C, Fig. 2a) the same protocol runs per group,
// plus an inter-group ring every `inter_group_period` rounds.
#pragma once

#include <memory>

#include "comm/delta_codec.hpp"
#include "comm/failure_detector.hpp"
#include "core/grouping.hpp"
#include "ctrl/adaptive_controller.hpp"
#include "core/selection.hpp"
#include "core/strategy.hpp"
#include "fl/scheme.hpp"
#include "obs/span.hpp"

namespace hadfl::core {

/// How the coordinator forecasts versions for selection (ablation §III-B):
/// kDes is the paper's double-exponential-smoothing predictor; kStatic uses
/// only the warm-up expectation (Eq. 6); kLastValue repeats the latest
/// observation.
enum class PredictorMode { kDes, kStatic, kLastValue };

/// Optional lossy compression of synchronization messages (extension: the
/// FL-standard byte-level reduction, composing with HADFL's frequency/
/// topology reductions). kInt8 quantizes deltas to one byte per parameter;
/// kTopK sends only the largest-magnitude entries of the delta against the
/// shared round reference. The codec itself (and the error-feedback
/// machinery that keeps it convergence-safe) lives in comm/delta_codec.hpp
/// and is shared with the rt and net backends.
using SyncCompression = comm::SyncCodec;

struct HadflConfig {
  StrategyConfig strategy;
  PredictorMode predictor = PredictorMode::kDes;
  double alpha = 0.5;                  ///< DES smoothing factor (Eq. 7)
  double broadcast_mix_weight = 0.5;   ///< receiver-side integration weight
  std::shared_ptr<SelectionPolicy> policy;  ///< null = Gaussian-quartile
  comm::RingRepairConfig repair;
  GroupingConfig grouping;
  std::string backup_dir;              ///< empty = no model backups
  int backup_every_rounds = 0;         ///< <= 0 disables backups
  std::string resume_from;             ///< path to a model-manager backup to
                                       ///< start from instead of fresh init
  SyncCompression compression = SyncCompression::kNone;
  double top_k_ratio = 0.05;           ///< fraction of entries kept (kTopK)
  /// Chunk count for codec-path encoding (0 = comm::kDefaultSyncChunks).
  /// Shared by the sim and the rt/net runtimes so a compressed run is
  /// bit-identical across backends; with compression == kNone the sync is
  /// chunk-count-invariant and this knob only shapes rt pipelining.
  std::size_t sync_chunks = 0;
  /// Weight ring members' contributions by their partition sizes n_k (the
  /// FL objective of Eq. 2). With the paper's equal split this equals the
  /// unweighted Eq. 5 mean; with skewed partitions it keeps the aggregate
  /// aligned with the global empirical distribution.
  bool weight_by_samples = true;
  /// Optional execution trace (compute / sync / broadcast spans per
  /// device) for timeline rendering; not owned.
  obs::Timeline* trace = nullptr;
  bool full_sync_after_negotiation = true;  ///< one global average after
                                            ///< warm-up for a stable start
  /// Telemetry-driven control loop (src/ctrl): re-estimates E_k, tunes the
  /// chunk grid, and picks the sync codec per round. Off by default; with
  /// adaptive.enabled == false every backend is bit-identical to the
  /// static configuration.
  ctrl::AdaptiveConfig adaptive;
};

/// Per-run diagnostics beyond the common scheme result.
struct HadflExtras {
  std::vector<std::vector<double>> actual_versions;     ///< per round
  std::vector<std::vector<double>> predicted_versions;  ///< per round
  std::vector<std::vector<sim::DeviceId>> selected;     ///< per round
  std::size_t ring_repairs = 0;
  std::size_t model_backups = 0;
  TrainingStrategy strategy;   ///< the generated strategy (H_E, E_k, ...)
  std::vector<sim::SimTime> negotiated_epoch_times;
};

struct HadflResult {
  fl::SchemeResult scheme;
  HadflExtras extras;
};

/// run_hadfl_fleet in exact mode with uncapped extras, under the scheme
/// name "hadfl".
HadflResult run_hadfl(const fl::SchemeContext& ctx,
                      const HadflConfig& config = {});

}  // namespace hadfl::core
