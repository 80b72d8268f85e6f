// Shared command-line → run-context construction for the driver binaries.
//
// `hadfl_run` and the net backend's per-device `hadfl_node` must build the
// *identical* scenario, environment, partition, and runtime config from the
// same flags — the whole sim/rt/net bit-identity contract rests on every
// process deriving the same state from the same seed. This header is that
// single construction path: hadfl_run uses it directly, and
// `scenario_forward_args` produces the exact flag list the fleet forwards
// so each node re-enters the same path.
//
// The construction order is pinned (scenario → Environment → partition from
// `Rng(seed ^ 0x5151)`) and must not be reordered: the partition RNG stream
// is part of the cross-backend contract.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "data/partition.hpp"
#include "exp/runner.hpp"
#include "exp/scenario.hpp"
#include "fl/scheme.hpp"
#include "nn/sequential.hpp"
#include "rt/config.hpp"
#include "sim/fault.hpp"

namespace hadfl::exp {

nn::Architecture parse_model(const std::string& name);

/// none | int8 | topk → the shared sync codec (comm/delta_codec.hpp).
/// Throws InvalidArgument on anything else.
core::SyncCompression parse_sync_codec(const std::string& name);

/// The effective --sync-codec value: an explicit --sync-codec wins, else
/// the legacy --int8-broadcast flag is an alias for "int8", else "none".
std::string sync_codec_arg(const ArgParser& args);

/// Validates the codec flags. Returns the empty string when valid, else
/// the one-line diagnostic the drivers print to stderr before exiting
/// with status 2 (the backend_flag_error pattern).
std::string sync_codec_flag_error(const std::string& codec,
                                  double topk_ratio);

/// iid | dirichlet:<alpha> | shards:<n>.
data::Partition parse_partition(const std::string& spec,
                                const data::Dataset& train,
                                std::size_t devices, Rng& rng);

/// Everything a run context needs, with owned storage — fl::SchemeContext
/// holds references, so the Environment and Partition must outlive every
/// context() call.
struct RunSetup {
  Scenario scenario;
  std::unique_ptr<Environment> env;
  data::Partition partition;

  /// A context viewing this setup's environment and partition.
  fl::SchemeContext context() const;
};

/// Applies the HADFL flags (--np/--tsync/--mix/--policy/--group-size, the
/// codec flags --sync-codec/--int8-broadcast/--topk-ratio/--sync-chunks,
/// and --adaptive with its --adaptive-* knobs) to `hadfl`. The one
/// translation both the scenario path (make_run_setup) and hadfl_run's
/// --fleet world use. Throws InvalidArgument on a malformed value.
void apply_hadfl_flags(const ArgParser& args, core::HadflConfig& hadfl);

/// Builds scenario + environment + partition from the standard flags
/// (--model/--ratio/--epochs/--scale/--seed/--partition/--network/--jitter
/// plus apply_hadfl_flags'). Throws InvalidArgument on a malformed value.
RunSetup make_run_setup(const ArgParser& args);

/// The rt/net runtime knobs (--time-scale/--throttle/--wallclock/--die).
/// Codec flags (--sync-codec/--topk-ratio/--sync-chunks) are scenario
/// state and land in make_run_setup. Telemetry stays off — the caller
/// decides based on its output flags.
rt::RtConfig make_rt_config(const ArgParser& args, const Scenario& scenario);

/// The subset of flags a node process needs to rebuild the identical
/// context, re-emitted as --key=value strings. Fault injection (--die) is
/// deliberately NOT forwarded: faults reach remote workers through
/// Command::die_after.
std::vector<std::string> scenario_forward_args(const ArgParser& args);

/// Validates the --scheme/--backend/--transport flag combination. Returns
/// the empty string when valid, else the one-line diagnostic hadfl_run
/// prints to stderr before exiting with status 2. `has_transport` is
/// whether --transport was given explicitly (the tcp default is fine for
/// every backend; an *explicit* transport outside --backend=net is a user
/// error worth rejecting loudly).
std::string backend_flag_error(const std::string& scheme,
                               const std::string& backend,
                               bool has_transport,
                               const std::string& transport);

/// Validates the --fleet flag family: every --fleet-* flag requires
/// --fleet, value ranges must hold (devices/rounds/threads non-negative,
/// churn in [0, 1], momentum in [0, 1)), a non-zero cohort must cover
/// --np, and sampled-cohort mode supports the gaussian-quartile and top-k
/// policies only, with --sync-codec=none and without --adaptive. Returns
/// the empty string when valid, else the one-line diagnostic hadfl_run
/// prints to stderr before exiting with status 2 (the
/// sync_codec_flag_error pattern).
std::string fleet_flag_error(const ArgParser& args);

/// Validates the --adaptive flag family: every --adaptive-* flag requires
/// --adaptive, --adaptive excludes non-hadfl schemes (fleet_flag_error
/// rejects it with a sampled fleet cohort), --adaptive-alpha must lie in
/// (0, 1], --adaptive-warmup must be non-negative, and --adaptive-tune
/// only knows the knobs budgets/chunks/codec. Returns the empty string when
/// valid, else the one-line diagnostic hadfl_run prints to stderr before
/// exiting with status 2 (the fleet_flag_error pattern).
std::string adaptive_flag_error(const ArgParser& args);

/// Parses a --drift spec list into speed-drift events for
/// sim::FaultSchedule::schedule_drift. Comma-separated events, each
/// DEV:ROUND:FACTOR[:KIND[:P1[:P2]]] with KIND one of
///   step            permanent slowdown from ROUND on (the default)
///   ramp            thermal-throttle ramp; P1 = rounds to reach FACTOR
///   square          background-load square wave; P1 = period, P2 = duty
/// Drift is coordinator-side budget arithmetic (like --die it is NOT
/// forwarded to net nodes). Throws InvalidArgument on a malformed spec or
/// an out-of-range device.
std::vector<sim::DriftEvent> parse_drift(const std::string& spec,
                                         std::size_t num_devices);

/// FNV-1a over the state's raw bytes — the "state hash" line hadfl_run
/// prints, which is what the CI loopback smoke compares across backends.
std::uint64_t state_hash(std::span<const float> state);

}  // namespace hadfl::exp
