// hadfl_bench — runs one benchmark workload in this process and prints its
// measurements, one line per repetition, then a JSON summary as the last
// line of stdout. benchmark/run.py builds this binary, aggregates the
// summary and checks it; see benchmark/README.md for the workloads and the
// metric definitions.
//
//   hadfl_bench --workload=rt-mlp --seed=7 --seconds=15 --trace=0
//               [--smoke] [--min-reps=N] [--out-dir=DIR]
//
// Each repetition builds its inputs from the seed (setup_s) and then makes
// one backend call (run_s). With --trace=1 untimed and traced repetitions
// alternate: a traced repetition decorates the model layers and the
// selection policy (layer_clock.hpp), turns the rt/net telemetry and the
// fleet phase recorder on, and reports how the layers add up to its run_s.
// Every repetition of one seed must end in the same state hash, and the rt
// and net workloads must match an untimed sim run of the same scenario.
//
// The net workload re-executes this binary as its device processes: with
// --node-id on the command line it behaves like hadfl_node, plus layer
// timing when the coordinator asks for it (--bench-layers).
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <streambuf>
#include <string>
#include <thread>
#include <vector>

#include "comm/delta_codec.hpp"
#include "common/cli.hpp"
#include "common/error.hpp"
#include "common/math_utils.hpp"
#include "common/parallel.hpp"
#include "core/fleet.hpp"
#include "core/round_logic.hpp"
#include "core/trainer.hpp"
#include "exp/cli_setup.hpp"
#include "exp/fleet_world.hpp"
#include "layer_clock.hpp"
#include "net/runner.hpp"
#include "nn/model_zoo.hpp"
#include "nn/param_utils.hpp"
#include "obs/export.hpp"
#include "obs/recorder.hpp"
#include "rt/collectives.hpp"
#include "rt/runner.hpp"
#include "rt/transport.hpp"
#include "tensor/ops.hpp"

using namespace hadfl;
using bench::Interval;
using bench::now_ns;

namespace {

enum class Backend { kSim, kRt, kNet, kFleet };

/// One workload: a closed loop of one coordinator and its devices. `size`
/// is the per-repetition length: epochs for the scenario backends, rounds
/// for the fleet. The accuracy floors sit well under what every seed
/// reaches at that length; `tta_target` is the accuracy whose first
/// virtual time the sim and fleet workloads report (virtual_tta_s).
struct Workload {
  const char* name;
  Backend backend;
  int size;
  int smoke_size;
  double acc_floor;
  double smoke_acc_floor;
  double tta_target;
};

// Fleet-1m: K = 10^6 devices, cohort 64, 2% churn, momentum 0.9.
constexpr std::size_t kFleetDevices = 1'000'000;
constexpr std::size_t kSmokeFleetDevices = 10'000;

constexpr int kSetupRepeats = 5;

const Workload kWorkloads[] = {
    {"sim-resnet", Backend::kSim, 16, 4, 0.70, 0.30, 0.85},
    {"rt-mlp", Backend::kRt, 1000, 300, 0.80, 0.60, NAN},
    {"net-tcp-topk", Backend::kNet, 1000, 300, 0.80, 0.60, NAN},
    {"fleet-1m", Backend::kFleet, 10, 4, 0.15, 0.10, 0.2},
};

double seconds_since(std::int64_t t0) {
  return 1e-9 * static_cast<double>(now_ns() - t0);
}

// ---- process accounting ----------------------------------------------------

struct CpuTimes {
  double self_user = 0.0;
  double self_sys = 0.0;
  double child_user = 0.0;
  double child_sys = 0.0;
};

double tv_s(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
}

CpuTimes cpu_now() {
  rusage self{};
  rusage children{};
  ::getrusage(RUSAGE_SELF, &self);
  ::getrusage(RUSAGE_CHILDREN, &children);
  return {tv_s(self.ru_utime), tv_s(self.ru_stime), tv_s(children.ru_utime),
          tv_s(children.ru_stime)};
}

/// Max RSS of this process and of its largest reaped child, MiB.
double peak_rss_mb() {
  rusage self{};
  rusage children{};
  ::getrusage(RUSAGE_SELF, &self);
  ::getrusage(RUSAGE_CHILDREN, &children);
  return static_cast<double>(std::max(self.ru_maxrss, children.ru_maxrss)) /
         1024.0;
}

std::string self_exe() {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  HADFL_CHECK_MSG(n > 0, "cannot resolve /proc/self/exe");
  return std::string(buf, static_cast<std::size_t>(n));
}

/// Counts the lines written to std::cerr while alive and discards them: the
/// fleet's churned devices log one warning per missed broadcast, thousands
/// per run. Unbuffered, with an atomic count, so concurrent writers from
/// runtime threads only contend on the counter.
class WarnCounter final : public std::streambuf {
 public:
  WarnCounter() : saved_(std::cerr.rdbuf(this)) {}
  ~WarnCounter() override { std::cerr.rdbuf(saved_); }
  WarnCounter(const WarnCounter&) = delete;
  WarnCounter& operator=(const WarnCounter&) = delete;

  std::size_t lines() const { return lines_.load(); }

 protected:
  int_type overflow(int_type c) override {
    if (c == '\n') lines_.fetch_add(1);
    return traits_type::not_eof(c);
  }
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    lines_.fetch_add(static_cast<std::size_t>(std::count(s, s + n, '\n')));
    return n;
  }

 private:
  std::streambuf* saved_;
  std::atomic<std::size_t> lines_{0};
};

// ---- JSON output -----------------------------------------------------------

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string quote(const std::string& s) {
  std::string out(1, '"');
  out += obs::json_escape(s);
  out += '"';
  return out;
}

/// Insertion-ordered flat JSON object.
class JsonObject {
 public:
  JsonObject& set(const std::string& key, double v) { return raw(key, num(v)); }
  JsonObject& set(const std::string& key, const std::string& v) {
    return raw(key, quote(v));
  }
  JsonObject& set(const std::string& key, bool v) {
    return raw(key, v ? "true" : "false");
  }
  JsonObject& raw(const std::string& key, const std::string& json) {
    if (!body_.empty()) body_ += ',';
    body_ += quote(key);
    body_ += ':';
    body_ += json;
    return *this;
  }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

std::string hex(std::uint64_t h) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "0x%016llx", static_cast<unsigned long long>(h));
  return buf;
}

// ---- repetitions -----------------------------------------------------------

struct RepResult {
  bool traced = false;
  double setup_s = 0.0;
  double run_s = 0.0;
  std::size_t rounds = 0;
  double samples = 0.0;  ///< global epochs × training-set size
  double best_acc = 0.0;
  double virtual_tta_s = NAN;  ///< sim and fleet: first virtual time ≥ target
  std::uint64_t hash = 0;
  std::size_t failed_rounds = 0;  ///< ring repairs + deaths detected
  std::size_t warn_lines = 0;
  double wire_kb_per_round = 0.0;
  double user_s = 0.0;  ///< this process and its reaped children
  double sys_s = 0.0;
  std::vector<double> round_ms;
  std::map<std::string, double> layers;  ///< traced repetitions only
};

struct RepContext {
  const Workload& w;
  std::uint64_t seed;
  int size;
  bool smoke;
  std::string out_dir;
  bool write_trace = false;  ///< first traced repetition only
};

std::vector<double> round_periods_ms(const std::vector<double>& starts_s) {
  std::vector<double> out;
  for (std::size_t i = 1; i < starts_s.size(); ++i) {
    out.push_back(1e3 * (starts_s[i] - starts_s[i - 1]));
  }
  return out;
}

double kb_per_round(std::size_t bytes, std::size_t rounds) {
  return static_cast<double>(bytes) / 1024.0 /
         static_cast<double>(std::max<std::size_t>(1, rounds));
}

void fill_scheme(RepResult& rep, const fl::SchemeResult& scheme,
                 std::size_t train_size) {
  rep.rounds = scheme.sync_rounds;
  rep.samples = scheme.metrics.last().epoch * static_cast<double>(train_size);
  rep.best_acc = scheme.metrics.best_accuracy();
  rep.hash = exp::state_hash(scheme.final_state);
}

/// Splits run_s into the profile's components plus the remainder, prints
/// the sum, and stores the per-layer metrics.
void fill_profile(RepResult& rep, const bench::RunProfile& p,
                  double extra_component_s, const char* extra_name) {
  auto& m = rep.layers;
  double fwd = 0.0;
  double bwd = 0.0;
  for (std::size_t k = 0; k < bench::kLayerKinds; ++k) {
    const std::string kind = bench::layer_kind_name(k);
    m["nn." + kind + ".fwd_s"] = p.fwd_s[k];
    m["nn." + kind + ".bwd_s"] = p.bwd_s[k];
    fwd += p.fwd_s[k];
    bwd += p.bwd_s[k];
  }
  m["nn.fwd_s"] = fwd;
  m["nn.bwd_s"] = bwd;
  m["nn.step_other_s"] = p.step_other_s;
  m["nn.layer_calls"] = static_cast<double>(p.layer_calls);
  m["core.select_s"] = p.select_s;
  m["round.train_critical_s"] = p.train_critical_s;
  m["round.barrier_idle_share"] = p.barrier_idle_share;
  m["round.sync_s"] = p.sync_s;
  m["round.eval_s"] = p.eval_s;
  const double other = rep.run_s - p.train_critical_s - p.select_s -
                       p.sync_s - p.eval_s - extra_component_s;
  m["round.other_s"] = other;
  m["cpu.user_s"] = rep.user_s;
  m["cpu.sys_s"] = rep.sys_s;
  std::printf("  run_s %.4f = train_critical %.4f + select %.4f + sync %.4f"
              " + eval %.4f",
              rep.run_s, p.train_critical_s, p.select_s, p.sync_s,
              p.eval_s);
  if (extra_name != nullptr) std::printf(" + %s %.4f", extra_name, extra_component_s);
  std::printf(" + other %.4f  (barrier idle %.1f%%)\n", other,
              100.0 * p.barrier_idle_share);
}

std::vector<std::string> scenario_flags(const RepContext& c) {
  std::vector<std::string> f{"--ratio=3,3,1,1", "--epochs=" + std::to_string(c.size),
                             "--seed=" + std::to_string(c.seed)};
  switch (c.w.backend) {
    case Backend::kSim:
      f.push_back("--model=resnet18");
      f.push_back("--scale=1.0");
      break;
    case Backend::kNet:
      f.push_back("--sync-codec=topk");
      f.push_back("--topk-ratio=0.05");
      [[fallthrough]];
    default:
      f.push_back("--model=mlp");
      f.push_back("--scale=0.1");
  }
  return f;
}

ArgParser parse_flags(const std::vector<std::string>& flags) {
  std::vector<const char*> argv{"hadfl_bench"};
  for (const std::string& f : flags) argv.push_back(f.c_str());
  return ArgParser(static_cast<int>(argv.size()), argv.data());
}

fl::SchemeContext with_factory(const fl::SchemeContext& base,
                               fl::ModelFactory factory) {
  return fl::SchemeContext{base.cluster, base.network, base.train,
                           base.test,    base.partition, std::move(factory),
                           base.config,  base.comm_state_bytes};
}

/// Untimed sim reference of the same scenario: the rt and net final states
/// must match it bit for bit.
std::uint64_t sim_reference_hash(const RepContext& c) {
  const ArgParser args = parse_flags(scenario_flags(c));
  const exp::RunSetup setup = exp::make_run_setup(args);
  return exp::state_hash(
      core::run_hadfl(setup.context(), setup.scenario.hadfl).scheme.final_state);
}

void read_node_logs(bench::LayerClock& clock, const std::string& prefix,
                    std::size_t nodes) {
  for (std::size_t d = 0; d < nodes; ++d) {
    const std::string path = prefix + "-" + std::to_string(d) + ".log";
    std::ifstream in(path);
    bench::ModelLog log;
    while (bench::ModelLog::read(in, log)) {
      clock.adopt(std::move(log));
      log = bench::ModelLog{};
    }
    std::remove(path.c_str());
  }
}

void write_trace(const RepContext& c, const std::string& suffix,
                 const std::vector<obs::Span>& spans) {
  const std::string path = c.out_dir + "/" + c.w.name + suffix;
  obs::write_chrome_trace(path, spans);
  std::printf("  trace written to %s\n", path.c_str());
}

/// sim-resnet, rt-mlp and net-tcp-topk: exp::RunSetup, then one backend call.
RepResult run_scenario_rep(const RepContext& c, bool traced) {
  RepResult rep;
  rep.traced = traced;
  WarnCounter warn;
  const ArgParser args = parse_flags(scenario_flags(c));

  // This set-up takes milliseconds, so one timing is mostly noise: build it
  // several times and report the median.
  exp::RunSetup setup;
  std::vector<double> setup_times;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const std::int64_t t_setup = now_ns();
    exp::RunSetup next = exp::make_run_setup(args);
    setup_times.push_back(seconds_since(t_setup));
    setup = std::move(next);
  }
  std::sort(setup_times.begin(), setup_times.end());
  rep.setup_s = setup_times[setup_times.size() / 2];

  exp::Scenario& s = setup.scenario;
  std::vector<Interval> selects;
  s.hadfl.policy = std::make_shared<bench::TimedPolicy>(s.hadfl.policy, selects);
  bench::LayerClock clock;
  const fl::SchemeContext base = setup.context();
  const fl::SchemeContext ctx =
      traced ? with_factory(base, clock.wrap(base.make_model)) : base;
  const std::string node_log_prefix =
      c.out_dir + "/node-" + std::to_string(::getpid());

  const CpuTimes cpu0 = cpu_now();
  const std::int64_t t_run = now_ns();
  rt::RtResult rt_result;
  if (c.w.backend == Backend::kSim) {
    const core::HadflResult r = core::run_hadfl(ctx, s.hadfl);
    rep.run_s = seconds_since(t_run);
    fill_scheme(rep, r.scheme, ctx.train.size());
    rep.failed_rounds = r.extras.ring_repairs;
    rep.wire_kb_per_round = kb_per_round(r.scheme.volume.total_sent(), rep.rounds);
    if (const auto tta = r.scheme.metrics.time_to_accuracy(c.w.tta_target)) {
      rep.virtual_tta_s = *tta;
    }
  } else {
    rt::RtConfig rt_config = exp::make_rt_config(args, s);
    rt_config.telemetry = traced;
    if (c.w.backend == Backend::kRt) {
      rt_result = rt::run_hadfl_rt(ctx, rt_config);
    } else {
      net::NetRunConfig net_config;
      net_config.rt = rt_config;
      net_config.kind = net::TransportKind::kTcp;
      net_config.node_binary = self_exe();
      net_config.node_args = exp::scenario_forward_args(args);
      if (traced) net_config.node_args.push_back("--bench-layers=" + node_log_prefix);
      rt_result = net::run_hadfl_net(ctx, net_config);
    }
    rep.run_s = seconds_since(t_run);
    fill_scheme(rep, rt_result.scheme, ctx.train.size());
    rep.failed_rounds = rt_result.extras.ring_repairs + rt_result.deaths_detected;
    std::size_t sent = 0;
    for (const rt::DeviceRunStats& d : rt_result.device_stats) sent += d.sent_bytes;
    rep.wire_kb_per_round = kb_per_round(sent, rep.rounds);
  }
  const CpuTimes cpu1 = cpu_now();
  rep.user_s = (cpu1.self_user - cpu0.self_user) + (cpu1.child_user - cpu0.child_user);
  rep.sys_s = (cpu1.self_sys - cpu0.self_sys) + (cpu1.child_sys - cpu0.child_sys);
  std::vector<double> round_starts;
  for (const Interval& i : selects) {
    round_starts.push_back(1e-9 * static_cast<double>(i.start_ns));
  }
  rep.round_ms = round_periods_ms(round_starts);
  rep.warn_lines = warn.lines();
  if (!traced) return rep;

  if (c.w.backend == Backend::kNet) {
    read_node_logs(clock, node_log_prefix, s.num_devices());
  }
  const bench::RunProfile profile =
      bench::profile_round_loop(clock.logs(), selects, t_run);
  fill_profile(rep, profile, 0.0, nullptr);
  auto& m = rep.layers;
  m["core.select_calls"] = static_cast<double>(selects.size());
  const double rounds = static_cast<double>(std::max<std::size_t>(1, rep.rounds));
  if (c.w.backend != Backend::kSim) {
    const obs::MetricsSnapshot& snap = rt_result.metrics;
    const auto counter = [&](const char* name) {
      const obs::CounterSample* s = snap.find_counter(name);
      return s != nullptr ? static_cast<double>(s->value) : 0.0;
    };
    if (const obs::HistogramSample* h = snap.find_histogram("sync.latency_s")) {
      m["rt.sync_s"] = h->sum;
      m["rt.sync_ms_mean"] = 1e3 * h->mean();
    }
    m["rt.sync_kb_per_round"] =
        (counter("sync.scatter_bytes") + counter("sync.allgather_bytes")) /
        1024.0 / rounds;
    m["rt.pool_misses"] = static_cast<double>(rt_result.pool_stats.misses);
    if (c.w.backend == Backend::kNet) {
      m["net.node_user_cpu_s"] = cpu1.child_user - cpu0.child_user;
      m["net.node_sys_cpu_s"] = cpu1.child_sys - cpu0.child_sys;
      m["net.coord_sys_cpu_s"] = cpu1.self_sys - cpu0.self_sys;
      m["net.sys_share"] = rep.sys_s / std::max(1e-9, rep.user_s + rep.sys_s);
      m["net.frames_per_round"] =
          (counter("net.frames_sent") + counter("net.frames_received")) / rounds;
      m["net.bytes_per_round"] =
          (counter("net.bytes_sent") + counter("net.bytes_received")) / rounds;
    }
  }
  if (c.write_trace) {
    write_trace(c, ".trace.json", profile.spans);
    // The runtime's own spans: per-device phases on rt; on net only the
    // coordinator's repairs, usually none.
    if (!rt_result.timeline.spans().empty()) {
      write_trace(c, ".runtime.trace.json", rt_result.timeline.spans());
    }
  }
  return rep;
}

/// fleet-1m: exp::FleetWorld, then core::run_hadfl_fleet. The engine's phase
/// recorder is always on: it is the round clock.
RepResult run_fleet_rep(const RepContext& c, bool traced) {
  RepResult rep;
  rep.traced = traced;
  WarnCounter warn;

  exp::FleetWorldConfig fw;
  fw.devices = c.smoke ? kSmokeFleetDevices : kFleetDevices;
  fw.ratio = {4, 2, 2, 1};
  fw.momentum = 0.9;
  fw.epochs = 1000;  // the round cap, not the epoch budget, ends the run
  fw.seed = c.seed;
  fw.churn.fraction = 0.02;

  const std::int64_t t_setup = now_ns();
  exp::FleetWorld world(fw);
  rep.setup_s = seconds_since(t_setup);

  core::FleetConfig fleet;
  fleet.cohort = 64;
  fleet.max_rounds = static_cast<std::size_t>(c.size);
  const std::int64_t before = now_ns();
  obs::SpanRecorder recorder(1);
  const std::int64_t recorder_epoch = before + (now_ns() - before) / 2;
  fleet.recorder = &recorder;

  bench::LayerClock clock;
  const fl::SchemeContext base = world.context();
  const fl::SchemeContext ctx =
      traced ? with_factory(base, clock.wrap(base.make_model)) : base;

  const CpuTimes cpu0 = cpu_now();
  const std::int64_t t_run = now_ns();
  const core::FleetResult r =
      core::run_hadfl_fleet(ctx, world.scenario().hadfl, fleet);
  rep.run_s = seconds_since(t_run);
  const CpuTimes cpu1 = cpu_now();
  rep.user_s = cpu1.self_user - cpu0.self_user;
  rep.sys_s = cpu1.self_sys - cpu0.self_sys;
  fill_scheme(rep, r.scheme, ctx.train.size());
  rep.failed_rounds = r.stats.ring_repairs;
  rep.wire_kb_per_round = kb_per_round(r.scheme.volume.total_sent(), rep.rounds);
  if (const auto tta = r.scheme.metrics.time_to_accuracy(c.w.tta_target)) {
    rep.virtual_tta_s = *tta;
  }
  rep.warn_lines = warn.lines();

  const obs::Timeline phases = recorder.drain();
  // Each round opens with one `clock` phase (the O(K) round walk).
  std::vector<double> round_starts;
  double clock_s = 0.0;
  for (const obs::Span& sp : phases.spans()) {
    if (sp.label != "clock") continue;
    round_starts.push_back(sp.start);
    clock_s += sp.end - sp.start;
  }
  rep.round_ms = round_periods_ms(round_starts);
  if (!traced) return rep;

  const bench::RunProfile profile = bench::profile_fleet(
      clock.logs(), phases.spans(), recorder_epoch, default_compute_threads(),
      t_run);
  fill_profile(rep, profile, clock_s, "clock");
  auto& m = rep.layers;
  m["fleet.clock_s"] = clock_s;
  m["fleet.peak_state_mb"] =
      static_cast<double>(r.stats.peak_state_bytes) / (1024.0 * 1024.0);
  m["fleet.train_episodes"] = static_cast<double>(r.stats.train_episodes);
  if (c.write_trace) write_trace(c, ".trace.json", profile.spans);
  return rep;
}

// ---- probes ----------------------------------------------------------------

/// Median seconds per call of `fn` over `windows` timing windows.
double median_call_s(const std::function<void()>& fn, int windows = 5,
                     double window_s = 0.08) {
  fn();  // warm caches and lazy state
  std::vector<double> per_call;
  for (int w = 0; w < windows; ++w) {
    std::size_t calls = 0;
    const std::int64_t t0 = now_ns();
    double elapsed = 0.0;
    do {
      fn();
      ++calls;
      elapsed = seconds_since(t0);
    } while (elapsed < window_s);
    per_call.push_back(elapsed / static_cast<double>(calls));
  }
  std::sort(per_call.begin(), per_call.end());
  return per_call[per_call.size() / 2];
}

std::vector<float> random_floats(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<float> v(n);
  for (float& x : v) x = static_cast<float>(rng.normal());
  return v;
}

/// Kernel and collective probes, independent of the workload's run.
std::map<std::string, double> run_probes(std::uint64_t seed) {
  std::map<std::string, double> out;

  // The widest ResidualBlock conv GEMM of ResNet18Lite (64 output channels,
  // 64·3·3 rows) over a batch of 64 1×1 feature maps.
  {
    const std::size_t m = 64, k = 576, n = 64;
    const std::vector<float> a = random_floats(m * k, seed);
    const std::vector<float> b = random_floats(k * n, seed + 1);
    std::vector<float> cmat(m * n);
    const double s = median_call_s(
        [&] { ops::gemm(a.data(), b.data(), cmat.data(), m, k, n); });
    out["tensor.gemm_gflops"] = 2.0 * m * k * n / s / 1e9;
  }

  // The MLP's state, as the rt-mlp and net-tcp-topk rings move it.
  const exp::Scenario mlp =
      exp::paper_scenario(nn::Architecture::kMlp, {3, 3, 1, 1}, 0.1, seed);
  Rng init(seed);
  const std::size_t state_n =
      nn::state_view(*nn::make_model(mlp.arch, mlp.model, init)).size();
  const double state_mb = static_cast<double>(state_n * sizeof(float)) / 1e6;

  {
    constexpr std::size_t kRing = 4;
    constexpr int kCollectives = 64;
    rt::InprocTransport transport(kRing, sim::NetworkModel{1e-5, 1e9});
    const std::vector<rt::DeviceId> ring{0, 1, 2, 3};
    const std::vector<double> weights{0.25, 0.25, 0.25, 0.25};
    std::vector<std::vector<float>> locals;
    for (std::size_t i = 0; i < kRing; ++i) locals.push_back(random_floats(state_n, seed + i));
    std::int64_t next_id = 1;
    // One call runs kCollectives back-to-back folds on four member threads.
    const double s = median_call_s([&] {
      const std::int64_t first = next_id;
      next_id += kCollectives;
      std::vector<std::thread> members;
      for (std::size_t i = 0; i < kRing; ++i) {
        members.emplace_back([&, i] {
          core::WeightedRingFold fold;
          std::vector<float> agg(state_n);
          for (int j = 0; j < kCollectives; ++j) {
            rt::ring_weighted_aggregate(transport, ring, i, locals[i], weights,
                                        fold, agg, first + j, 0, 30.0);
          }
        });
      }
      for (std::thread& t : members) t.join();
    }, 5, 0.1);
    out["comm.fold_mb_s"] = kRing * state_mb * kCollectives / s;
  }

  {
    const double ratio = 0.05;
    const std::size_t chunks = comm::resolve_chunk_count(0, state_n);
    const std::vector<float> state = random_floats(state_n, seed + 9);
    std::vector<std::vector<float>> payloads(chunks);
    std::vector<std::pair<std::size_t, std::size_t>> ranges;
    for (std::size_t c = 0; c < chunks; ++c) {
      ranges.push_back(chunk_range(state_n, chunks, c));
      payloads[c].resize(comm::encoded_chunk_floats(
          comm::SyncCodec::kTopK, ranges[c].second - ranges[c].first, ratio));
    }
    const std::span<const float> all(state);
    const double enc = median_call_s([&] {
      for (std::size_t c = 0; c < chunks; ++c) {
        const auto [b, e] = ranges[c];
        comm::encode_chunk(comm::SyncCodec::kTopK, all.subspan(b, e - b), ratio,
                           payloads[c]);
      }
    });
    std::vector<float> decoded(state_n);
    const double dec = median_call_s([&] {
      for (std::size_t c = 0; c < chunks; ++c) {
        const auto [b, e] = ranges[c];
        comm::decode_chunk(comm::SyncCodec::kTopK, payloads[c],
                           std::span<float>(decoded).subspan(b, e - b));
      }
    });
    out["comm.topk_encode_mb_s"] = state_mb / enc;
    out["comm.topk_decode_mb_s"] = state_mb / dec;
  }
  return out;
}

// ---- node mode (net workload device processes) ------------------------------

int node_main(const ArgParser& args) {
  net::NodeOptions options;
  options.node_id = static_cast<rt::DeviceId>(args.get_int("node-id", 0));
  options.run_nonce = std::strtoull(args.get("run-nonce", "0").c_str(), nullptr, 10);
  options.kind = net::TransportKind::kTcp;
  options.listen_fd = args.get_int("listen-fd", -1);
  for (const std::string& port : split_csv_list(args.get("tcp-ports", ""))) {
    options.tcp_ports.push_back(static_cast<std::uint16_t>(std::atoi(port.c_str())));
  }
  HADFL_CHECK_ARG(args.get("transport", "tcp") == "tcp",
                  "the benchmark node speaks TCP only");

  const exp::RunSetup setup = exp::make_run_setup(args);
  const rt::RtConfig config = exp::make_rt_config(args, setup.scenario);
  const fl::SchemeContext base = setup.context();
  const std::string layers = args.get("bench-layers", "");
  if (layers.empty()) return net::run_hadfl_node(base, config, options);

  bench::LayerClock clock;
  const int rc = net::run_hadfl_node(with_factory(base, clock.wrap(base.make_model)),
                                     config, options);
  std::ofstream out(layers + "-" + std::to_string(options.node_id) + ".log");
  for (const bench::ModelLog* log : clock.logs()) {
    if (log->calls > 0) log->write(out);
  }
  return rc;
}

// ---- main ------------------------------------------------------------------

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

std::string rep_json(const RepResult& r) {
  JsonObject o;
  o.set("traced", r.traced)
      .set("setup_s", r.setup_s)
      .set("run_s", r.run_s)
      .set("rounds", static_cast<double>(r.rounds))
      .set("samples", r.samples)
      .set("best_acc", r.best_acc)
      .set("virtual_tta_s", r.virtual_tta_s)
      .set("hash", hex(r.hash))
      .set("failed_rounds", static_cast<double>(r.failed_rounds))
      .set("warn_lines", static_cast<double>(r.warn_lines))
      .set("wire_kb_per_round", r.wire_kb_per_round)
      .set("user_s", r.user_s)
      .set("sys_s", r.sys_s);
  std::string ms = "[";
  for (std::size_t i = 0; i < r.round_ms.size(); ++i) {
    if (i > 0) ms += ',';
    ms += num(r.round_ms[i]);
  }
  o.raw("round_ms", ms + "]");
  JsonObject layers;
  for (const auto& [k, v] : r.layers) layers.set(k, v);
  o.raw("layers", layers.str());
  return o.str();
}

int bench_main(const ArgParser& args) {
  const Workload* w = find_workload(args.get("workload", ""));
  if (w == nullptr) {
    std::cerr << "hadfl_bench: unknown --workload (want sim-resnet, rt-mlp, "
                 "net-tcp-topk or fleet-1m)\n";
    return 2;
  }
  const bool smoke = args.has("smoke");
  const bool trace = args.get_int("trace", 0) != 0;
  const double seconds = args.get_double("seconds", 10.0);
  const int min_reps = std::max(1, args.get_int("min-reps", 3));
  // Scenario seeds feed int flags that the net nodes re-parse; fold the
  // --seed value into that range so every seed maps to valid inputs.
  const std::uint64_t seed =
      1 + std::strtoull(args.get("seed", "7").c_str(), nullptr, 10) % 2147483646ull;

  RepContext c{*w, seed, smoke ? w->smoke_size : w->size, smoke,
               args.get("out-dir", "."), false};
  std::printf("workload %s  seed %llu  size %d  threads %zu  trace %d\n", w->name,
              static_cast<unsigned long long>(seed), c.size,
              default_compute_threads(), trace ? 1 : 0);

  std::vector<RepResult> reps;
  const std::int64_t t0 = now_ns();
  std::size_t traced_reps = 0;
  const auto want_more = [&] {
    const std::size_t plain = reps.size() - traced_reps;
    // Repetition 0 only warms the process up; it is excluded from timing.
    const std::size_t need = static_cast<std::size_t>(min_reps) + 1;
    if (plain < need || (trace && traced_reps < need - 1)) return true;
    return seconds_since(t0) < seconds;
  };
  while (want_more()) {
    const bool traced = trace && reps.size() % 2 == 1;
    c.write_trace = traced && traced_reps == 0;
    std::printf("rep %zu%s\n", reps.size(), traced ? " (traced)" : "");
    RepResult r = w->backend == Backend::kFleet ? run_fleet_rep(c, traced)
                                                : run_scenario_rep(c, traced);
    std::printf("  setup_s %.4f  run_s %.4f  rounds %zu  best_acc %.4f  hash %s"
                "  failed %zu  warn_lines %zu\n",
                r.setup_s, r.run_s, r.rounds, r.best_acc, hex(r.hash).c_str(),
                r.failed_rounds, r.warn_lines);
    std::fflush(stdout);
    traced_reps += traced ? 1 : 0;
    reps.push_back(std::move(r));
  }

  // ---- correctness
  bool hash_consistent = true;
  bool acc_ok = true;
  std::size_t failed = 0;
  const double floor = smoke ? w->smoke_acc_floor : w->acc_floor;
  for (const RepResult& r : reps) {
    hash_consistent = hash_consistent && r.hash == reps.front().hash;
    acc_ok = acc_ok && r.best_acc >= floor;
    failed += r.failed_rounds;
  }
  JsonObject checks;
  checks.set("hash_consistent", hash_consistent)
      .set("acc_floor", floor)
      .set("acc_ok", acc_ok)
      .set("failed_rounds", static_cast<double>(failed));
  bool ok = hash_consistent && acc_ok && failed == 0;
  if (w->backend == Backend::kRt || w->backend == Backend::kNet) {
    const std::uint64_t ref = sim_reference_hash(c);
    checks.set("sim_reference_hash", hex(ref))
        .set("sim_reference_match", ref == reps.front().hash);
    ok = ok && ref == reps.front().hash;
  }
  checks.set("ok", ok);

  JsonObject summary;
  summary.set("workload", std::string(w->name))
      .set("seed", static_cast<double>(seed))
      .set("size", static_cast<double>(c.size))
      .set("smoke", smoke)
      .set("threads", static_cast<double>(default_compute_threads()))
      .set("compiler", std::string(__VERSION__))
      .set("peak_rss_mb", peak_rss_mb());
  if (trace) {
    JsonObject probes;
    for (const auto& [k, v] : run_probes(seed)) probes.set(k, v);
    summary.raw("probes", probes.str());
  }
  std::string reps_json = "[";
  for (std::size_t i = 0; i < reps.size(); ++i) {
    if (i > 0) reps_json += ',';
    reps_json += rep_json(reps[i]);
  }
  summary.raw("reps", reps_json + "]").raw("checks", checks.str());
  std::printf("%s\n", summary.str().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const ArgParser args(argc, argv);
    if (args.has("node-id")) return node_main(args);
    return bench_main(args);
  } catch (const Error& e) {
    std::cerr << "hadfl_bench: error: " << e.what() << "\n";
    return 1;
  }
}
