// hadfl_run — command-line driver for the HADFL framework.
//
// Runs any training scheme on a configurable heterogeneous cluster and
// prints a convergence summary; optionally dumps the full convergence
// series as CSV.
//
// Examples:
//   hadfl_run --scheme=hadfl --model=resnet18 --ratio=4,2,2,1
//   hadfl_run --scheme=dfedavg --model=mlp --epochs=10 --csv=curve.csv
//   hadfl_run --scheme=hadfl --backend=net --transport=tcp --ratio=2,2,1,1
//
// Options (defaults in brackets):
//   --scheme=hadfl|distributed|dfedavg|central|async   [hadfl]
//   --backend=sim|rt|net    hadfl execution backend    [sim]
//                           (rt = one real thread per device; net = one
//                           real process per device on sockets; see
//                           docs/RUNTIME.md and docs/NETWORK.md)
//   --transport=tcp|uds     net: socket flavour        [tcp]
//   --node-binary=<path>    net: hadfl_node to exec    [next to hadfl_run]
//   --time-scale=<float>    rt: wall s per virtual network s   [0]
//   --throttle=<float>      rt/net: wall s per virtual compute s [0]
//   --wallclock             rt/net: measure epoch times on the real clock
//   --die=<dev:round:step>  rt/net: inject a device death mid-round
//   --sync-chunks=<int>     pipelined-sync chunk count [0 = default]
//   --sync-codec=none|int8|topk   compress sync/broadcast deltas with
//                           error feedback (all backends)  [none]
//   --topk-ratio=<float>    topk: fraction of entries kept [0.05]
//   --int8-broadcast        alias for --sync-codec=int8
//   --model=mlp|resnet18|vgg16                         [mlp]
//   --ratio=<comma powers>                             [3,3,1,1]
//   --epochs=<int>          total training epochs      [16]
//   --scale=<float>         dataset scale              [1.0]
//   --seed=<int>                                       [7]
//   --np=<int>              HADFL N_p                  [2]
//   --tsync=<int>           HADFL T_sync               [1]
//   --policy=<name>         HADFL selection policy     [gaussian-quartile]
//   --mix=<float>           HADFL broadcast mix weight [0.8]
//   --group-size=<int>      HADFL hierarchical groups  [0 = flat]
//   --partition=iid|dirichlet:<alpha>|shards:<n>       [iid]
//   --network=pcie|wan                                 [pcie]
//   --jitter=<float>        compute jitter sigma       [0]
//   --adaptive              close the control loop: re-estimate per-device
//                           step budgets from measured step times, auto-tune
//                           --sync-chunks from observed sync latency, and
//                           re-pick the sync codec per round from delta
//                           norms (src/ctrl, docs/CONTROLLER.md). Off by
//                           default; off is bit-identical to static runs
//   --adaptive-alpha=<f>    adaptive: step-time EWMA weight     [0.4]
//   --adaptive-warmup=<int> adaptive: observed rounds before the controller
//                           overrides the warm-up strategy      [2]
//   --adaptive-tune=<list>  adaptive: comma subset of budgets,chunks,codec
//                           to tune                             [all three]
//   --drift=<specs>         sim/rt/net/fleet: inject speed drift;
//                           comma-separated
//                           DEV:ROUND:FACTOR[:step|ramp:R|square:P:D]
//                           (step = permanent slowdown, ramp = thermal
//                           throttle over R rounds, square = background
//                           load with period P and duty D). Like --die,
//                           not forwarded to net nodes
//   --fleet                 sim: run the simulator's engine on a generated
//                           fleet world (see docs/SIMULATOR.md). Uses
//                           --ratio/--jitter/--seed/--epochs, the HADFL,
//                           codec, --adaptive and --drift flags, plus the
//                           fleet flags below; --model/--scale/--partition
//                           do not apply (the world is fixed to the scaled
//                           MLP with a cyclic partition)
//   --fleet-devices=<int>   fleet: device count K               [1000]
//   --fleet-cohort=<int>    fleet: devices trained per round per group
//                           [0 = all, exact mode, the sim backend's engine;
//                           >= K also degrades to exact]. A sampled cohort
//                           takes neither a sync codec nor --adaptive
//   --fleet-rounds=<int>    fleet: sync-round cap               [0 = none]
//   --fleet-churn=<float>   fleet: fraction of devices that churn [0]
//   --fleet-threads=<int>   fleet: threads for the per-round O(K) scalar
//                           sweeps [0 = auto; results are bit-identical
//                           at any value]
//   --fleet-momentum=<float>  fleet: SGD momentum; per-device velocity
//                           lives in a CoW slab store               [0]
//   --csv=<path>            write the convergence series
//   --trace-out=<path>      write a Chrome/Perfetto trace of the run
//                           (hadfl scheme; sim and rt backends, and the
//                           per-round phase spans under --fleet) and print
//                           the per-device time breakdown
//   --metrics-out=<path>    rt/net: write the telemetry counters CSV
//   --verbose               info-level logging
#include <unistd.h>

#include <cstdio>
#include <iostream>

#include "baselines/async_fedavg.hpp"
#include "common/cli.hpp"
#include "common/error.hpp"
#include "common/logging.hpp"
#include "core/fleet.hpp"
#include "core/trainer.hpp"
#include "exp/cli_setup.hpp"
#include "exp/fleet_world.hpp"
#include "exp/report.hpp"
#include "net/runner.hpp"
#include "obs/export.hpp"
#include "obs/recorder.hpp"
#include "rt/runner.hpp"

using namespace hadfl;

namespace {

const std::vector<std::string> kKnownOptions{
    "scheme", "model", "ratio",  "epochs",     "scale", "seed",
    "np",     "tsync", "policy", "mix",        "group-size",
    "partition", "network", "jitter", "csv",   "verbose", "help",
    "backend", "transport", "node-binary", "time-scale", "throttle",
    "wallclock", "die", "sync-chunks", "sync-codec", "topk-ratio",
    "int8-broadcast", "trace-out",
    "metrics-out", "fleet", "fleet-devices", "fleet-cohort",
    "fleet-rounds", "fleet-churn", "fleet-threads", "fleet-momentum",
    "adaptive", "adaptive-alpha", "adaptive-warmup", "adaptive-tune",
    "drift"};

void print_usage() {
  std::cout <<
      "usage: hadfl_run [--scheme=hadfl|distributed|dfedavg|central|async]\n"
      "                 [--model=mlp|resnet18|vgg16] [--ratio=3,3,1,1]\n"
      "                 [--epochs=N] [--scale=S] [--seed=N] [--np=N]\n"
      "                 [--tsync=N] [--policy=NAME] [--mix=W]\n"
      "                 [--group-size=N] [--partition=iid|dirichlet:A|"
      "shards:N]\n"
      "                 [--network=pcie|wan] [--jitter=S] [--csv=PATH]\n"
      "                 [--backend=sim|rt|net] [--transport=tcp|uds]\n"
      "                 [--node-binary=PATH] [--time-scale=S]\n"
      "                 [--throttle=S] [--wallclock] [--die=DEV:ROUND:STEP]\n"
      "                 [--sync-chunks=C] [--sync-codec=none|int8|topk]\n"
      "                 [--topk-ratio=R] [--int8-broadcast]\n"
      "                 [--adaptive] [--adaptive-alpha=F]\n"
      "                 [--adaptive-warmup=N] [--adaptive-tune=LIST]\n"
      "                 [--drift=DEV:ROUND:FACTOR[:KIND[:P1[:P2]]]]\n"
      "                 [--fleet] [--fleet-devices=K] [--fleet-cohort=N]\n"
      "                 [--fleet-rounds=R] [--fleet-churn=F]\n"
      "                 [--fleet-threads=T] [--fleet-momentum=MU]\n"
      "                 [--trace-out=PATH] [--metrics-out=PATH] [--verbose]\n";
}

void report(const fl::SchemeResult& result, const std::string& csv_path) {
  const exp::SchemeSummary sum = exp::summarize(result.metrics);
  std::cout << "scheme:            " << result.scheme_name << "\n"
            << "best accuracy:     " << 100.0 * sum.best_accuracy << "%\n"
            << "time to best:      " << sum.time_to_best << " virtual s\n"
            << "total time:        " << result.total_time << " virtual s\n"
            << "sync rounds:       " << result.sync_rounds << "\n"
            << "device comm:       "
            << static_cast<double>(result.volume.total_sent() +
                                   result.volume.total_received()) /
                   (1024.0 * 1024.0)
            << " MB\n";
  if (!result.final_state.empty()) {
    // The cross-backend identity line: a seeded sim / rt / net run must
    // print the same hash (the CI loopback smoke greps it).
    char hex[32];
    std::snprintf(hex, sizeof(hex), "0x%016llx",
                  static_cast<unsigned long long>(
                      exp::state_hash(result.final_state)));
    std::cout << "state hash:        " << hex << "\n";
  }
  if (!csv_path.empty()) {
    CsvWriter csv(csv_path, {"series", "epoch", "time", "train_loss",
                             "test_loss", "test_acc"});
    result.metrics.append_csv_rows(csv, result.scheme_name);
    std::cout << "curve written to:  " << csv_path << "\n";
  }
}

/// The --fleet path: builds the generated fleet world (exp/fleet_world.hpp)
/// and runs the fleet engine on it with the same HADFL flags the scenario
/// path reads. Exact mode (cohort 0) is the engine the sim backend runs, so
/// the "state hash" line is comparable across `--fleet-cohort=0` runs and
/// tests.
int run_fleet(const ArgParser& args, const std::string& csv,
              const std::string& trace_out) {
  exp::FleetWorldConfig fw;
  fw.devices = static_cast<std::size_t>(args.get_int("fleet-devices", 1000));
  fw.ratio = args.get_double_list("ratio", {3, 3, 1, 1});
  fw.jitter_std = args.get_double("jitter", 0.0);
  fw.momentum = args.get_double("fleet-momentum", 0.0);
  fw.epochs = args.get_int("epochs", 4);
  fw.seed = static_cast<std::uint64_t>(args.get_int("seed", 7));
  fw.churn.fraction = args.get_double("fleet-churn", 0.0);
  exp::FleetWorld world(fw);

  exp::Scenario& s = world.scenario();
  exp::apply_hadfl_flags(args, s.hadfl);
  for (const sim::DriftEvent& event :
       exp::parse_drift(args.get("drift", ""), fw.devices)) {
    world.cluster().faults().schedule_drift(event);
  }

  core::FleetConfig fleet;
  fleet.cohort = static_cast<std::size_t>(args.get_int("fleet-cohort", 0));
  fleet.max_rounds =
      static_cast<std::size_t>(args.get_int("fleet-rounds", 0));
  fleet.scalar_threads =
      static_cast<std::size_t>(args.get_int("fleet-threads", 0));
  obs::SpanRecorder recorder(1);  // one coordinator track of phase spans
  if (!trace_out.empty()) fleet.recorder = &recorder;

  std::cout << "== hadfl_run: hadfl on " << s.name << " ==\n";
  const core::FleetResult r =
      core::run_hadfl_fleet(world.context(), s.hadfl, fleet);
  if (!trace_out.empty()) {
    obs::write_chrome_trace(trace_out, recorder.drain().spans());
    std::cout << "trace written to:  " << trace_out
              << " (load in chrome://tracing or ui.perfetto.dev)\n";
  }
  const double mb = 1024.0 * 1024.0;
  const double peak = static_cast<double>(r.stats.peak_state_bytes);
  const double naive = static_cast<double>(r.stats.naive_state_bytes);
  std::cout << "backend:           fleet ("
            << (fleet.cohort == 0
                    ? std::string("exact")
                    : "cohort " + std::to_string(fleet.cohort))
            << ")\n"
            << "devices:           " << r.stats.devices
            << " (churn events: " << world.churn_events() << ")\n"
            << "fleet rounds:      " << r.stats.rounds << "\n"
            << "train episodes:    " << r.stats.train_episodes << "\n"
            << "peak model mem:    " << peak / mb << " MB (naive "
            << naive / mb << " MB, "
            << (peak > 0.0 ? naive / peak : 0.0) << "x less)\n"
            << "hyperperiod:       " << r.extras.strategy.hyperperiod
            << " virtual s\n"
            << "ring repairs:      " << r.stats.ring_repairs << "\n";
  report(r.scheme, csv);
  return 0;
}

/// Default hadfl_node location: same directory as this binary.
std::string sibling_node_binary() {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n <= 0) return "hadfl_node";
  buf[n] = '\0';
  std::string path(buf);
  const std::size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return "hadfl_node";
  return path.substr(0, slash + 1) + "hadfl_node";
}

/// Prints the rt-flavoured result block shared by the rt and net backends;
/// returns 0 (the process exit code).
int report_rt_result(const rt::RtResult& r, const std::string& backend_line,
                     std::size_t num_devices, const std::string& csv,
                     const std::string& trace_out,
                     const std::string& metrics_out, bool telemetry) {
  std::cout << "backend:           " << backend_line << "\n"
            << "hyperperiod:       " << r.extras.strategy.hyperperiod
            << " virtual s\n"
            << "ring repairs:      " << r.extras.ring_repairs << "\n"
            << "deaths detected:   " << r.deaths_detected << "\n"
            << "wall time:         " << r.wall_seconds << " s\n";
  report(r.scheme, csv);
  if (telemetry) {
    std::cout << exp::render_time_breakdown(r.timeline, num_devices);
    if (r.spans_dropped > 0) {
      std::cout << "spans dropped:     " << r.spans_dropped
                << " (raise RtConfig::telemetry_span_capacity)\n";
    }
    if (!trace_out.empty()) {
      obs::write_chrome_trace(trace_out, r.timeline.spans());
      std::cout << "trace written to:  " << trace_out
                << " (load in chrome://tracing or ui.perfetto.dev)\n";
    }
    if (!metrics_out.empty()) {
      r.metrics.write_csv(metrics_out);
      std::cout << "metrics written:   " << metrics_out << "\n";
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const ArgParser args(argc, argv);
    if (args.has("help")) {
      print_usage();
      return 0;
    }
    const auto unknown = args.unknown_options(kKnownOptions);
    if (!unknown.empty()) {
      std::cerr << "unknown option --" << unknown.front() << "\n";
      print_usage();
      return 2;
    }
    if (args.has("verbose")) set_log_level(LogLevel::kInfo);

    const std::string scheme = args.get("scheme", "hadfl");
    const std::string csv = args.get("csv", "");
    const std::string trace_out = args.get("trace-out", "");
    const std::string metrics_out = args.get("metrics-out", "");
    const std::string backend = args.get("backend", "sim");
    const std::string transport = args.get("transport", "tcp");
    const std::string flag_error = exp::backend_flag_error(
        scheme, backend, args.has("transport"), transport);
    if (!flag_error.empty()) {
      std::cerr << flag_error << "\n";
      return 2;
    }
    const std::string codec_error = exp::sync_codec_flag_error(
        exp::sync_codec_arg(args), args.get_double("topk-ratio", 0.05));
    if (!codec_error.empty()) {
      std::cerr << codec_error << "\n";
      return 2;
    }
    if ((!trace_out.empty() || !metrics_out.empty()) && scheme != "hadfl") {
      std::cerr << "--trace-out/--metrics-out only apply to --scheme=hadfl\n";
      return 2;
    }
    const std::string fleet_error = exp::fleet_flag_error(args);
    if (!fleet_error.empty()) {
      std::cerr << fleet_error << "\n";
      return 2;
    }
    const std::string adaptive_error = exp::adaptive_flag_error(args);
    if (!adaptive_error.empty()) {
      std::cerr << adaptive_error << "\n";
      return 2;
    }
    if (args.has("drift") && scheme != "hadfl") {
      std::cerr << "--drift only applies to --scheme=hadfl\n";
      return 2;
    }
    if (args.has("fleet")) {
      if (scheme != "hadfl" || backend != "sim") {
        std::cerr << "--fleet requires --scheme=hadfl --backend=sim\n";
        return 2;
      }
      if (!metrics_out.empty()) {
        std::cerr << "--metrics-out does not apply to --fleet\n";
        return 2;
      }
      return run_fleet(args, csv, trace_out);
    }

    exp::RunSetup setup = exp::make_run_setup(args);
    exp::Scenario& s = setup.scenario;
    const fl::SchemeContext ctx = setup.context();
    // Speed-drift injection: all three backends read budget drift from the
    // coordinator-side cluster fault schedule, so one scheduling site
    // covers sim, rt, and net (workers never consult it).
    for (const sim::DriftEvent& event :
         exp::parse_drift(args.get("drift", ""), s.num_devices())) {
      ctx.cluster.faults().schedule_drift(event);
    }

    std::cout << "== hadfl_run: " << scheme << " on " << s.name << " ==\n";
    if (scheme == "hadfl" && backend == "rt") {
      rt::RtConfig rt_config = exp::make_rt_config(args, s);
      rt_config.telemetry = !trace_out.empty() || !metrics_out.empty();
      const rt::RtResult r = rt::run_hadfl_rt(ctx, rt_config);
      return report_rt_result(r, "rt (real threads)", s.num_devices(), csv,
                              trace_out, metrics_out, rt_config.telemetry);
    } else if (scheme == "hadfl" && backend == "net") {
      net::NetRunConfig net_config;
      net_config.rt = exp::make_rt_config(args, s);
      net_config.rt.telemetry = !trace_out.empty() || !metrics_out.empty();
      net_config.kind = transport == "uds" ? net::TransportKind::kUds
                                           : net::TransportKind::kTcp;
      net_config.node_binary =
          args.get("node-binary", sibling_node_binary());
      net_config.node_args = exp::scenario_forward_args(args);
      const rt::RtResult r = net::run_hadfl_net(ctx, net_config);
      return report_rt_result(
          r, "net (" + std::to_string(s.num_devices()) + " processes, " +
                 transport + ")",
          s.num_devices(), csv, trace_out, metrics_out,
          net_config.rt.telemetry);
    } else if (scheme == "hadfl") {
      obs::Timeline trace;
      if (!trace_out.empty()) s.hadfl.trace = &trace;
      if (!metrics_out.empty()) {
        std::cerr << "--metrics-out requires --backend=rt|net; ignoring\n";
      }
      const core::HadflResult r = core::run_hadfl(ctx, s.hadfl);
      std::cout << "hyperperiod:       " << r.extras.strategy.hyperperiod
                << " virtual s\n"
                << "ring repairs:      " << r.extras.ring_repairs << "\n";
      report(r.scheme, csv);
      if (!trace_out.empty()) {
        std::cout << exp::render_time_breakdown(trace, s.num_devices());
        obs::write_chrome_trace(trace_out, trace.spans());
        std::cout << "trace written to:  " << trace_out
                  << " (load in chrome://tracing or ui.perfetto.dev)\n";
      }
    } else if (scheme == "distributed") {
      report(baselines::run_distributed(ctx), csv);
    } else if (scheme == "dfedavg") {
      report(baselines::run_decentralized_fedavg(ctx), csv);
    } else if (scheme == "central") {
      const auto r = baselines::run_central_fedavg(ctx);
      report(r.scheme, csv);
      std::cout << "server traffic:    "
                << static_cast<double>(r.server_bytes) / (1024.0 * 1024.0)
                << " MB\n";
    } else if (scheme == "async") {
      const auto r = baselines::run_async_fedavg(ctx);
      report(r.scheme, csv);
      std::cout << "mean staleness:    " << r.mean_staleness << "\n";
    } else {
      std::cerr << "unknown --scheme: " << scheme << "\n";
      print_usage();
      return 2;
    }
    return 0;
  } catch (const Error& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
