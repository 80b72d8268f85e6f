#include "layer_clock.hpp"

#include <algorithm>
#include <chrono>
#include <istream>
#include <map>
#include <ostream>
#include <string>

#include "nn/sequential.hpp"

namespace hadfl::bench {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

const char* layer_kind_name(std::size_t kind) {
  static const char* const kNames[kLayerKinds] = {"residual", "conv", "dense",
                                                  "norm_act", "other"};
  return kind < kLayerKinds ? kNames[kind] : "?";
}

namespace {

LayerKind classify(const std::string& name) {
  if (name == "ResidualBlock") return kResidual;
  if (name == "Conv2d") return kConv;
  if (name == "Dense") return kDense;
  if (name == "BatchNorm2d" || name == "ReLU") return kNormAct;
  return kOtherLayer;
}

/// Times one top-level layer of a model. Keeps the original model alive:
/// the wrapped layer and its parameters are owned by it.
class TimedLayer final : public nn::Layer {
 public:
  TimedLayer(std::shared_ptr<nn::Sequential> owner, std::size_t index,
             ModelLog& log)
      : owner_(std::move(owner)),
        inner_(owner_->layer(index)),
        kind_(classify(inner_.name())),
        first_(index == 0),
        last_(index + 1 == owner_->size()),
        log_(log) {}

  Tensor forward(const Tensor& input, bool training) override {
    const std::int64_t t0 = now_ns();
    Tensor out = inner_.forward(input, training);
    const std::int64_t t1 = now_ns();
    ++log_.calls;
    if (first_) log_.open_ns = t0;
    if (training) {
      log_.fwd_s[kind_] += 1e-9 * static_cast<double>(t1 - t0);
    } else if (last_) {
      log_.evals.push_back({log_.open_ns, t1});
    }
    return out;
  }

  Tensor backward(const Tensor& grad_output) override {
    const std::int64_t t0 = now_ns();
    Tensor grad = inner_.backward(grad_output);
    const std::int64_t t1 = now_ns();
    ++log_.calls;
    log_.bwd_s[kind_] += 1e-9 * static_cast<double>(t1 - t0);
    if (first_) log_.steps.push_back({log_.open_ns, t1});
    return grad;
  }

  std::vector<nn::Parameter*> parameters() override {
    return inner_.parameters();
  }
  std::string name() const override { return inner_.name(); }

 private:
  std::shared_ptr<nn::Sequential> owner_;
  nn::Layer& inner_;
  const LayerKind kind_;
  const bool first_;
  const bool last_;
  ModelLog& log_;
};

void write_intervals(std::ostream& out, const std::vector<Interval>& v) {
  for (const Interval& i : v) out << i.start_ns << ' ' << i.end_ns << '\n';
}

bool read_intervals(std::istream& in, std::size_t n, std::vector<Interval>& v) {
  v.resize(n);
  for (Interval& i : v) {
    if (!(in >> i.start_ns >> i.end_ns)) return false;
  }
  return true;
}

/// Index of the last boundary at or before `t` plus one (0 = before all).
std::size_t bucket_of(const std::vector<std::int64_t>& bounds,
                      std::int64_t t) {
  return static_cast<std::size_t>(
      std::upper_bound(bounds.begin(), bounds.end(), t) - bounds.begin());
}

double since(std::int64_t t, std::int64_t origin) {
  return 1e-9 * static_cast<double>(t - origin);
}

/// The nn totals every profile shares.
RunProfile layer_totals(const std::vector<const ModelLog*>& logs) {
  RunProfile p;
  for (const ModelLog* log : logs) {
    for (std::size_t k = 0; k < kLayerKinds; ++k) {
      p.fwd_s[k] += log->fwd_s[k];
      p.bwd_s[k] += log->bwd_s[k];
    }
    p.layer_calls += log->calls;
  }
  return p;
}

/// One burst per (model, bucket): first step start to last step end.
/// Returns the bursts keyed by bucket and appends one trace span per burst,
/// on one track per training model.
std::map<std::size_t, std::vector<Interval>> bursts_by_bucket(
    const std::vector<const ModelLog*>& logs,
    const std::vector<std::int64_t>& bounds, RunProfile& p,
    std::int64_t origin) {
  std::map<std::size_t, std::vector<Interval>> out;
  std::size_t track = 0;
  for (const ModelLog* log : logs) {
    if (log->steps.empty()) continue;
    std::size_t i = 0;
    while (i < log->steps.size()) {
      const std::size_t b = bucket_of(bounds, log->steps[i].start_ns);
      Interval burst{log->steps[i].start_ns, log->steps[i].end_ns};
      while (i < log->steps.size() &&
             bucket_of(bounds, log->steps[i].start_ns) == b) {
        burst.end_ns = log->steps[i].end_ns;
        ++i;
      }
      out[b].push_back(burst);
      p.spans.push_back({track, since(burst.start_ns, origin),
                         since(burst.end_ns, origin), obs::SpanKind::kCompute,
                         "train"});
    }
    ++track;
  }
  return out;
}

double layer_seconds(const RunProfile& p) {
  double s = 0.0;
  for (std::size_t k = 0; k < kLayerKinds; ++k) s += p.fwd_s[k] + p.bwd_s[k];
  return s;
}

std::size_t training_models(const std::vector<const ModelLog*>& logs) {
  return static_cast<std::size_t>(
      std::count_if(logs.begin(), logs.end(),
                    [](const ModelLog* l) { return !l->steps.empty(); }));
}

}  // namespace

void ModelLog::write(std::ostream& out) const {
  out.precision(17);
  out << "model " << calls << ' ' << steps.size() << ' ' << evals.size();
  for (double s : fwd_s) out << ' ' << s;
  for (double s : bwd_s) out << ' ' << s;
  out << '\n';
  write_intervals(out, steps);
  write_intervals(out, evals);
}

bool ModelLog::read(std::istream& in, ModelLog& log) {
  std::string tag;
  std::size_t n_steps = 0;
  std::size_t n_evals = 0;
  if (!(in >> tag >> log.calls >> n_steps >> n_evals) || tag != "model") {
    return false;
  }
  for (double& s : log.fwd_s) in >> s;
  for (double& s : log.bwd_s) in >> s;
  return static_cast<bool>(in) && read_intervals(in, n_steps, log.steps) &&
         read_intervals(in, n_evals, log.evals);
}

fl::ModelFactory LayerClock::wrap(fl::ModelFactory inner) {
  return [this, inner = std::move(inner)](Rng& rng) {
    std::shared_ptr<nn::Sequential> model = inner(rng);
    ModelLog& log = new_log();
    auto timed = std::make_unique<nn::Sequential>();
    for (std::size_t i = 0; i < model->size(); ++i) {
      timed->add(std::make_unique<TimedLayer>(model, i, log));
    }
    timed->pack();
    return timed;
  };
}

ModelLog& LayerClock::new_log() {
  std::lock_guard<std::mutex> lock(mu_);
  return logs_.emplace_back();
}

void LayerClock::adopt(ModelLog log) {
  std::lock_guard<std::mutex> lock(mu_);
  logs_.push_back(std::move(log));
}

std::vector<const ModelLog*> LayerClock::logs() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<const ModelLog*> out;
  for (const ModelLog& log : logs_) out.push_back(&log);
  return out;
}

TimedPolicy::TimedPolicy(std::shared_ptr<core::SelectionPolicy> inner,
                         std::vector<Interval>& calls)
    : inner_(std::move(inner)), calls_(calls) {}

std::vector<std::size_t> TimedPolicy::select(const core::SelectionContext& ctx,
                                             Rng& rng) {
  const std::int64_t t0 = now_ns();
  std::vector<std::size_t> picks = inner_->select(ctx, rng);
  calls_.push_back({t0, now_ns()});
  return picks;
}

RunProfile profile_round_loop(const std::vector<const ModelLog*>& logs,
                              const std::vector<Interval>& selects,
                              std::int64_t run_start_ns) {
  RunProfile p = layer_totals(logs);
  const std::size_t loop_track = training_models(logs);

  // Evaluation passes between two selections form one evaluation.
  std::vector<Interval> evals;
  for (const ModelLog* log : logs) {
    evals.insert(evals.end(), log->evals.begin(), log->evals.end());
  }
  std::sort(evals.begin(), evals.end(),
            [](const Interval& a, const Interval& b) {
              return a.start_ns < b.start_ns;
            });
  std::vector<Interval> merged;
  std::size_t s = 0;
  std::size_t selects_before_last = 0;
  for (const Interval& e : evals) {
    while (s < selects.size() && selects[s].start_ns < e.start_ns) ++s;
    if (!merged.empty() && s == selects_before_last) {
      merged.back().end_ns = e.end_ns;
    } else {
      merged.push_back(e);
    }
    selects_before_last = s;
  }

  std::vector<std::int64_t> bounds;
  for (const Interval& i : selects) bounds.push_back(i.start_ns);
  for (const Interval& i : merged) bounds.push_back(i.start_ns);
  std::sort(bounds.begin(), bounds.end());

  double busy = 0.0;
  double capacity = 0.0;
  const double devices = static_cast<double>(loop_track);
  for (const auto& [bucket, bursts] :
       bursts_by_bucket(logs, bounds, p, run_start_ns)) {
    double critical = 0.0;
    for (const Interval& b : bursts) {
      critical = std::max(critical, b.seconds());
      busy += b.seconds();
    }
    p.train_critical_s += critical;
    capacity += devices * critical;
  }
  p.barrier_idle_share = capacity > 0.0 ? 1.0 - busy / capacity : 0.0;
  p.step_other_s = busy - layer_seconds(p);

  for (const Interval& sel : selects) {
    p.select_s += sel.seconds();
    p.spans.push_back({loop_track, since(sel.start_ns, run_start_ns),
                       since(sel.end_ns, run_start_ns), obs::SpanKind::kSync,
                       "select"});
    const auto next = std::lower_bound(
        merged.begin(), merged.end(), sel.end_ns,
        [](const Interval& e, std::int64_t t) { return e.start_ns < t; });
    if (next == merged.end()) continue;
    p.sync_s += 1e-9 * static_cast<double>(next->start_ns - sel.end_ns);
    p.spans.push_back({loop_track, since(sel.end_ns, run_start_ns),
                       since(next->start_ns, run_start_ns),
                       obs::SpanKind::kBroadcast, "sync+broadcast"});
  }
  for (const Interval& e : merged) {
    p.eval_s += e.seconds();
    p.spans.push_back({loop_track, since(e.start_ns, run_start_ns),
                       since(e.end_ns, run_start_ns), obs::SpanKind::kIdle,
                       "eval"});
  }
  return p;
}

RunProfile profile_fleet(const std::vector<const ModelLog*>& logs,
                         const std::vector<obs::Span>& phases,
                         std::int64_t recorder_epoch_ns, std::size_t lanes,
                         std::int64_t run_start_ns) {
  RunProfile p = layer_totals(logs);
  const std::size_t loop_track = std::max(lanes, training_models(logs));
  const auto to_ns = [&](double s) {
    return recorder_epoch_ns + static_cast<std::int64_t>(s * 1e9);
  };

  // Steps bucket by train span: a step inside train span i falls in bucket
  // 2i + 1 of the bounds (start_i, end_i, ...).
  std::vector<std::int64_t> bounds;
  for (const obs::Span& ph : phases) {
    const Interval i{to_ns(ph.start), to_ns(ph.end)};
    if (ph.label == "train") {
      p.train_critical_s += i.seconds();
      bounds.push_back(i.start_ns);
      bounds.push_back(i.end_ns);
    } else if (ph.label == "select") {
      p.select_s += i.seconds();
    } else if (ph.label == "fold") {
      p.sync_s += i.seconds();
    }
    p.spans.push_back({loop_track, since(i.start_ns, run_start_ns),
                       since(i.end_ns, run_start_ns), ph.kind, ph.label});
  }
  double busy = 0.0;
  for (const auto& [bucket, bursts] :
       bursts_by_bucket(logs, bounds, p, run_start_ns)) {
    for (const Interval& b : bursts) busy += b.seconds();
  }
  const double capacity = static_cast<double>(lanes) * p.train_critical_s;
  p.barrier_idle_share = capacity > 0.0 ? 1.0 - busy / capacity : 0.0;
  p.step_other_s = busy - layer_seconds(p);
  for (const ModelLog* log : logs) {
    for (const Interval& e : log->evals) p.eval_s += e.seconds();
  }
  return p;
}

}  // namespace hadfl::bench
