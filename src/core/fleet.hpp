// The HADFL simulator: one process, 4 to 10^6 devices.
//
// Every decision comes from core::RoundPlanner, as in the rt coordinator;
// the engine carries them out and reports what its devices did.
//
// The engine keeps no per-device model objects. Per-device model state is
// deduplicated through a copy-on-write slab store (nn/cow_store.hpp): a
// device handle is two slab ids (model state + last-sync reference),
// devices that share bits share slabs, and a device materializes a private
// copy only when it is about to train. Training runs on a fixed pool of
// reusable trainer slots (model + SGD), so resident model memory is
// O(distinct states), not O(K). With momentum > 0 each device additionally
// carries an optimizer-velocity slab in a second CoW store: untouched
// devices share one zero slab, so resident optimizer memory is
// O(trained cohort), not O(K), and a trained device's momentum history
// round-trips through its slab exactly as a private per-device Sgd would
// carry it.
//
// Parallel round work: all per-round O(K) scalar sweeps — clock
// advancement, jitter draws, step-budget arithmetic, availability,
// candidate collection, selection keys/quantiles, broadcast fan-out and
// receiver-class grouping — run over a FIXED device-range grid (grain
// constant, never derived from thread count) on the shared ThreadPool,
// with per-range partials merged in range order. Every merged reduction is
// either order-independent (max, integer-valued sums) or folded in range
// order, so results are bit-identical at any `scalar_threads` value —
// the same discipline as the tiled GEMM kernels.
//
// Two modes:
//
//  * Exact (`cohort == 0`, or any cohort >= K — a cohort covering the
//    fleet has nothing to sample): every device trains every round. This
//    is the simulator path — core::run_hadfl is exact mode with uncapped
//    diagnostics — and the reference the rt and net backends are pinned
//    to bit for bit (tests/test_rt.cpp, tests/test_net.cpp). Slab sharing
//    and class-based broadcast integration only deduplicate computations
//    whose inputs are bit-equal. Exact mode also runs:
//      - the compressed-delta sync codec (comm/delta_codec.hpp), with
//        per-device error-feedback residuals and reference epochs;
//      - the adaptive controller (src/ctrl), which re-plans step budgets,
//        the chunk grid and the codec each round;
//      - a per-device HadflConfig::trace (negotiation, compute, sync,
//        broadcast and repair spans);
//      - scheduled speed drift (sim/fault.hpp), applied in the clock walk.
//    Memory still reaches O(K) slabs after warm-up (every device's warm-up
//    trajectory differs), so exact mode is the validation path, not the
//    scale path.
//
//  * Sampled cohort (`0 < cohort < K`): the cohort budget applies per
//    selection domain — per group under hierarchical grouping, fleet-wide
//    when flat. Each round, each group trains only the devices its
//    selection favours: the select_count ring winners plus
//    (cohort - select_count) shadow runners-up (core/fleet_selection.hpp);
//    group rings aggregate and inter-group sync composes them exactly as
//    the exact path does. A group whose candidate set fits inside the
//    cohort degrades to the exact per-group plan (everyone trains, the
//    planner's selection draws). Every unselected device is priced analytically:
//    executed steps, parameter versions, virtual clocks, selection
//    dynamics and wire volume are computed exactly (they depend only on
//    the strategy, jitter and drift draws and the fault plan, not on model
//    floats); only the unselected devices' model drift is approximated
//    (their slabs move through shared broadcast integration, not private
//    SGD) — the `fleet_scale --drift` bench quantifies that deviation
//    against cohort size. Warm-up trains a min(cohort × groups, K)
//    id-prefix sample. Documented approximations:
//    bucketed quartiles and counter-keyed Efraimidis–Soules sampling
//    replace the exact selection draw stream; means over device sets are
//    folded per slab class (count-weighted, ordered by first member)
//    rather than per device; train-loss points cover the trained cohort
//    only (the first point: the warm-up sample). Supports the
//    gaussian-quartile (Eq. 8) and top-k selection policies through the
//    same bucketed top-N machinery. The trace and speed drift work as
//    in exact mode, since both are analytic; a
//    compressed sync codec and adaptive mode throw InvalidArgument, since
//    untrained devices keep no residuals or measured step times.
//
// Per-round phase spans (`select`, `clock`, `train`, `fold`) go to
// FleetConfig::recorder when set, in either mode.
#pragma once

#include "core/trainer.hpp"
#include "fl/scheme.hpp"

namespace hadfl::obs {
class SpanRecorder;
}

namespace hadfl::core {

struct FleetConfig {
  /// 0 = exact mode (every device trains; what run_hadfl runs).
  /// > 0 = sampled-cohort mode: that many devices train per round per
  /// selection domain (per group when grouping is hierarchical). Must be
  /// >= the strategy's select_count. A cohort >= K degrades to exact mode.
  std::size_t cohort = 0;

  /// Hard cap on synchronization rounds; 0 = run to the epoch budget.
  /// Fleet benches set a small cap so a K=100k sweep finishes.
  std::size_t max_rounds = 0;

  /// Per-round per-device diagnostic series (actual/predicted versions) are
  /// recorded for at most this many devices — at K=10^5 the full series
  /// would dwarf the model memory the engine exists to save. The
  /// supervisor/selection always see all K devices.
  std::size_t extras_device_cap = 4096;

  /// Histogram buckets for the cohort-mode approximate quartiles.
  std::size_t selection_buckets = 512;

  /// Thread budget for the per-round O(K) scalar sweeps. 0 = the process
  /// compute-thread default (HADFL_NUM_THREADS); 1 = serial baseline.
  /// Results are bit-identical at any value — this only changes wall time.
  std::size_t scalar_threads = 0;

  /// When set, per-round phase spans (`select`, `clock`, `train`, `fold`)
  /// are recorded on track 0 — `hadfl_run --fleet --trace-out` wires this.
  obs::SpanRecorder* recorder = nullptr;
};

struct FleetStats {
  std::size_t devices = 0;
  std::size_t rounds = 0;
  std::size_t state_floats = 0;       ///< elements per model state
  std::size_t train_episodes = 0;     ///< device-training bursts executed
  std::size_t peak_state_slabs = 0;   ///< CoW store high-water slab count
  std::size_t peak_state_bytes = 0;   ///< CoW store high-water bytes
  /// Momentum-velocity CoW store high-water marks (0 when momentum == 0).
  std::size_t peak_velocity_slabs = 0;
  std::size_t peak_velocity_bytes = 0;
  /// What one private model per device would keep resident for the same
  /// fleet: one model state plus one last-sync reference per device, plus
  /// (momentum > 0) one optimizer-velocity buffer per device.
  std::size_t naive_state_bytes = 0;
  std::size_t ring_repairs = 0;
};

struct FleetResult {
  fl::SchemeResult scheme;
  HadflExtras extras;   ///< version series capped to extras_device_cap
  FleetStats stats;
};

FleetResult run_hadfl_fleet(const fl::SchemeContext& ctx,
                            const HadflConfig& config,
                            const FleetConfig& fleet = {});

}  // namespace hadfl::core
