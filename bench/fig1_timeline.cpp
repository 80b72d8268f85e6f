// Fig. 1 reproduction: scheduling comparison of distributed training,
// FedAvg, and HADFL on three devices with computing-power ratio 4:2:1.
//
// This harness exercises the cost model only (no learning): it renders the
// per-device activity timeline over one synchronization window of each
// scheme, showing how synchronous schemes idle the fast devices while
// HADFL's heterogeneity-aware local steps keep every device busy until the
// common synchronization point.
#include <iostream>

#include "comm/allreduce.hpp"
#include "core/strategy.hpp"
#include "core/trainer.hpp"
#include "exp/runner.hpp"
#include "obs/span.hpp"
#include "sim/cluster.hpp"

using namespace hadfl;

namespace {

constexpr double kIterTime = 1.0;  // power-1 device, one iteration
constexpr std::size_t kItersPerEpoch = 4;
const std::vector<double> kRatio{4, 2, 1};

double iter_time(std::size_t device) { return kIterTime / kRatio[device]; }

// Distributed training: a barrier plus gradient all-reduce every iteration.
obs::Timeline trace_distributed(double sync_cost) {
  obs::Timeline trace;
  double t = 0.0;
  for (std::size_t it = 0; it < kItersPerEpoch; ++it) {
    const double step = iter_time(2);  // slowest device gates the barrier
    for (std::size_t d = 0; d < kRatio.size(); ++d) {
      trace.record(d, t, t + iter_time(d), obs::SpanKind::kCompute);
      trace.record(d, t + step, t + step + sync_cost, obs::SpanKind::kSync);
    }
    t += step + sync_cost;
  }
  return trace;
}

// FedAvg: E = one epoch of local steps, then a synchronous aggregation.
obs::Timeline trace_fedavg(double sync_cost) {
  obs::Timeline trace;
  const double barrier = kItersPerEpoch * iter_time(2);
  for (std::size_t d = 0; d < kRatio.size(); ++d) {
    trace.record(d, 0.0, kItersPerEpoch * iter_time(d),
                 obs::SpanKind::kCompute);
    trace.record(d, barrier, barrier + sync_cost, obs::SpanKind::kSync);
  }
  return trace;
}

// HADFL: heterogeneity-aware local steps E_k fill the hyperperiod; the two
// selected devices gossip; one broadcasts to the rest non-blockingly.
obs::Timeline trace_hadfl(double sync_cost) {
  obs::Timeline trace;
  core::StrategyGenerator gen((core::StrategyConfig()));
  std::vector<double> epoch_times;
  for (std::size_t d = 0; d < kRatio.size(); ++d) {
    epoch_times.push_back(kItersPerEpoch * iter_time(d));
  }
  const core::TrainingStrategy strategy =
      gen.generate(epoch_times, {kItersPerEpoch, kItersPerEpoch,
                                 kItersPerEpoch});
  const double window = strategy.round_window;
  for (std::size_t d = 0; d < kRatio.size(); ++d) {
    trace.record(d, 0.0,
                 static_cast<double>(strategy.local_steps[d]) * iter_time(d),
                 obs::SpanKind::kCompute);
  }
  // Devices 0 and 1 selected for partial synchronization; device 0
  // broadcasts to device 2.
  trace.record(0, window, window + sync_cost, obs::SpanKind::kSync);
  trace.record(1, window, window + sync_cost, obs::SpanKind::kSync);
  trace.record(2, window + sync_cost, window + 1.5 * sync_cost,
               obs::SpanKind::kBroadcast);
  return trace;
}

}  // namespace

int main() {
  const double sync_cost = 0.5;  // one aggregation, in iteration units

  std::cout << "FIG. 1: distributed training vs FedAvg vs HADFL\n"
            << "3 devices, computing power ratio "
            << sim::ratio_to_string(kRatio) << "; # = compute, S = model\n"
            << "synchronization, B = broadcast receive, . = idle\n\n";

  const obs::Timeline dist = trace_distributed(sync_cost);
  std::cout << "Distributed training (per-iteration all-reduce, "
            << dist.end_time() << " time units/epoch):\n"
            << dist.render_timeline(kRatio.size()) << '\n';

  const obs::Timeline fedavg = trace_fedavg(sync_cost);
  std::cout << "FedAvg (synchronous aggregation each epoch, "
            << fedavg.end_time() << " time units/epoch):\n"
            << fedavg.render_timeline(kRatio.size()) << '\n';

  const obs::Timeline hadfl = trace_hadfl(sync_cost);
  std::cout << "HADFL (heterogeneity-aware local steps, "
            << hadfl.end_time() << " time units/window):\n"
            << hadfl.render_timeline(kRatio.size()) << '\n';

  // Useful-compute fraction: busy compute time / (devices * makespan).
  auto busy_fraction = [](const obs::Timeline& t, std::size_t devices) {
    double busy = 0.0;
    for (const auto& s : t.spans()) {
      if (s.kind == obs::SpanKind::kCompute) busy += s.end - s.start;
    }
    return busy / (static_cast<double>(devices) * t.end_time());
  };
  std::cout << "Useful-compute fraction: distributed "
            << busy_fraction(dist, 3) << ", FedAvg " << busy_fraction(fedavg, 3)
            << ", HADFL " << busy_fraction(hadfl, 3) << "\n"
            << "(paper Fig. 1: HADFL keeps heterogeneous devices busy until"
               " the common sync point)\n";

  dist.write_csv("fig1_distributed.csv");
  fedavg.write_csv("fig1_fedavg.csv");
  hadfl.write_csv("fig1_hadfl.csv");

  // The same picture from a *real* HADFL run (recorded by the trainer):
  // three devices at 4:2:1 actually training for a few rounds.
  exp::Scenario s = exp::paper_scenario(nn::Architecture::kMlp, {4, 2, 1},
                                        /*scale=*/0.3);
  s.train.total_epochs = 6;
  obs::Timeline live;
  s.hadfl.trace = &live;
  exp::Environment env(s);
  fl::SchemeContext ctx = env.context();
  core::run_hadfl(ctx, s.hadfl);
  std::cout << "\nRecorded timeline of a real HADFL training run (negotiation"
               " + rounds):\n"
            << live.render_timeline(3) << '\n';
  live.write_csv("fig1_hadfl_recorded.csv");

  std::cout << "traces written to fig1_{distributed,fedavg,hadfl,"
               "hadfl_recorded}.csv\n";
  return 0;
}
