// Micro-benchmarks for HADFL's coordinator-side primitives: the version
// predictor (Eq. 7), the selection function (Eq. 8), and strategy
// generation (§III-C). These run on the coordinator every round, so their
// cost bounds the control-plane overhead per aggregation. Also hosts the
// end-to-end device-step benchmarks (BM_LocalTrainingStep from the top
// level, BM_LocalTrainingStepScenarioLane as a sim-resnet device runs it)
// since the data-plane cost per local step is what the strategies trade
// against, and the model state-sync path (gather/aggregate/scatter,
// legacy copying vs arena views) with heap-allocation counting.
#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>

#include "common/thread_pool.hpp"
#include "core/selection.hpp"
#include "core/strategy.hpp"
#include "core/version_predictor.hpp"
#include "data/batch_iterator.hpp"
#include "data/synthetic.hpp"
#include "exp/scenario.hpp"
#include "fl/local_trainer.hpp"
#include "nn/model_zoo.hpp"
#include "nn/optimizer.hpp"
#include "nn/param_utils.hpp"
#include "nn/sequential.hpp"

// ---- Allocation counting ------------------------------------------------
// Every operator-new in the process bumps this counter, so a benchmark can
// report exact allocations per iteration — the zero-allocation claim for
// the arena sync path is measured, not asserted.
//
// The replacement pair below is matched (new -> malloc, delete -> free),
// but the compiler cannot see the pairing through the replaced globals and
// flags every delete site.
#if defined(__GNUC__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
std::atomic<std::uint64_t> g_alloc_count{0};

void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace hadfl;

void BM_PredictorObservePredict(benchmark::State& state) {
  core::VersionPredictor p(0.5);
  double v = 0.0;
  for (auto _ : state) {
    p.observe(v += 12.0);
    benchmark::DoNotOptimize(p.predict(1));
  }
}
BENCHMARK(BM_PredictorObservePredict);

void BM_SelectionProbabilities(benchmark::State& state) {
  const auto k = static_cast<std::size_t>(state.range(0));
  std::vector<double> versions(k);
  for (std::size_t i = 0; i < k; ++i) {
    versions[i] = 100.0 + 13.0 * static_cast<double>(i % 7);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::GaussianQuartileSelection::probabilities(versions));
  }
}
BENCHMARK(BM_SelectionProbabilities)->Arg(4)->Arg(64)->Arg(1024);

void BM_SelectionDraw(benchmark::State& state) {
  const auto k = static_cast<std::size_t>(state.range(0));
  core::GaussianQuartileSelection policy;
  core::SelectionContext ctx;
  for (std::size_t i = 0; i < k; ++i) {
    ctx.versions.push_back(50.0 + static_cast<double>(i));
    ctx.compute_powers.push_back(1.0 + static_cast<double>(i % 4));
  }
  ctx.select_count = std::max<std::size_t>(2, k / 4);
  Rng rng(7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(policy.select(ctx, rng));
  }
}
BENCHMARK(BM_SelectionDraw)->Arg(4)->Arg(64)->Arg(256);

void BM_StrategyGeneration(benchmark::State& state) {
  const auto k = static_cast<std::size_t>(state.range(0));
  core::StrategyGenerator gen((core::StrategyConfig()));
  std::vector<double> epoch_times(k);
  std::vector<std::size_t> ipe(k, 16);
  const double pattern[] = {1.0, 2.0, 2.0, 4.0};
  for (std::size_t i = 0; i < k; ++i) epoch_times[i] = pattern[i % 4];
  for (auto _ : state) {
    benchmark::DoNotOptimize(gen.generate(epoch_times, ipe));
  }
}
BENCHMARK(BM_StrategyGeneration)->Arg(4)->Arg(64)->Arg(256);

// One full local SGD step (forward + backward + optimizer update) on the
// ResNet-lite zoo model at batch 16 — the unit of work every HADFL device
// repeats `iters_per_epoch` times between aggregations. This is the
// end-to-end view of the tensor/ kernel layer (batched-conv GEMMs, span
// kernels, sgd_update).
void BM_LocalTrainingStep(benchmark::State& state) {
  data::SyntheticConfig data_cfg;
  data_cfg.train_samples = 256;
  data_cfg.test_samples = 16;
  const auto split = data::make_synthetic_cifar(data_cfg);

  Rng rng(42);
  auto model = nn::make_resnet18_lite(nn::ModelConfig(), rng);
  nn::Sgd opt(model->parameters(), {0.01, 0.9, 1e-4});
  std::vector<std::size_t> idx(split.train.size());
  for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
  data::BatchIterator it(split.train, idx, 16, Rng(5));

  for (auto _ : state) {
    benchmark::DoNotOptimize(fl::run_local_steps(*model, opt, it, 1));
  }
}
BENCHMARK(BM_LocalTrainingStep)->Unit(benchmark::kMillisecond);

// The step as a sim-resnet device runs it: the training scenario's model,
// data and device batch (exp::paper_scenario: 8x8x3 inputs, batch 16),
// with the whole timing loop as the task of a one-thread ThreadPool, so
// every kernel runs inline as it does in a fleet lane. The timer, CPU time
// included, is read on that thread.
void BM_LocalTrainingStepScenarioLane(benchmark::State& state) {
  const exp::Scenario scenario =
      exp::paper_scenario(nn::Architecture::kResNet18Lite, {3, 3, 1, 1});
  const auto split = data::make_synthetic_cifar(scenario.data);

  Rng rng(42);
  auto model = nn::make_resnet18_lite(scenario.model, rng);
  nn::Sgd opt(model->parameters(), {0.01, 0.9, 1e-4});
  std::vector<std::size_t> idx(split.train.size());
  for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
  data::BatchIterator it(split.train, idx, scenario.train.device_batch_size,
                         Rng(5));

  ThreadPool lane(1);
  lane.submit([&] {
    for (auto _ : state) {
      benchmark::DoNotOptimize(fl::run_local_steps(*model, opt, it, 1));
    }
  });
}  // the pool joins once the loop has returned
BENCHMARK(BM_LocalTrainingStepScenarioLane)->Unit(benchmark::kMillisecond);

// ---- State synchronization: legacy copying API vs arena views ----------
// The "legacy" functions below replicate the pre-arena model-state path
// byte for byte: per-parameter gather into a fresh vector, materialized
// weighted average (fresh double accumulator + fresh output per call),
// per-parameter scatter. The arena path is what the trainers run now.

std::vector<float> legacy_gather(nn::Layer& model) {
  std::vector<float> out;
  out.reserve(nn::state_size(model));
  for (const nn::Parameter* p : model.parameters()) {
    const float* v = p->value.data();
    out.insert(out.end(), v, v + p->numel());
  }
  return out;
}

void legacy_scatter(nn::Layer& model, const std::vector<float>& state) {
  std::size_t offset = 0;
  for (nn::Parameter* p : model.parameters()) {
    std::copy_n(state.data() + offset, p->numel(), p->value.data());
    offset += p->numel();
  }
}

std::vector<float> legacy_weighted_average(
    const std::vector<std::vector<float>>& states,
    const std::vector<double>& weights) {
  const std::size_t n = states.front().size();
  std::vector<double> acc(n, 0.0);
  for (std::size_t k = 0; k < states.size(); ++k) {
    const double w = weights[k];
    for (std::size_t i = 0; i < n; ++i) acc[i] += w * states[k][i];
  }
  std::vector<float> out(n);
  for (std::size_t i = 0; i < n; ++i) out[i] = static_cast<float>(acc[i]);
  return out;
}

std::vector<std::unique_ptr<nn::Sequential>> make_fleet(std::size_t k) {
  std::vector<std::unique_ptr<nn::Sequential>> fleet;
  fleet.reserve(k);
  for (std::size_t i = 0; i < k; ++i) {
    nn::ModelConfig cfg;
    cfg.image_size = 8;
    Rng rng(100 + i);
    fleet.push_back(nn::make_resnet18_lite(cfg, rng));
  }
  return fleet;
}

double allocs_per_iter(const benchmark::State& state, std::uint64_t before) {
  const std::uint64_t total = g_alloc_count.load() - before;
  return state.iterations() > 0
             ? static_cast<double>(total) /
                   static_cast<double>(state.iterations())
             : 0.0;
}

// One state gather, the pre-arena way (per-parameter copies into a fresh
// vector) — what every sync round used to pay per contributing device.
void BM_StateGatherLegacy(benchmark::State& state) {
  auto fleet = make_fleet(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(legacy_gather(*fleet[0]).data());
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(nn::state_size(*fleet[0]) * sizeof(float)));
}
BENCHMARK(BM_StateGatherLegacy);

// The same "give me the model state" request through the arena: O(1).
void BM_StateView(benchmark::State& state) {
  auto fleet = make_fleet(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(nn::state_view(*fleet[0]).data());
  }
}
BENCHMARK(BM_StateView);

// Full sync round — gather K states, weighted-average, scatter back — the
// way the trainers did it before the arena refactor.
void BM_StateSyncLegacy(benchmark::State& state) {
  const std::size_t k = 4;
  auto fleet = make_fleet(k);
  const std::vector<double> weights(k, 1.0 / static_cast<double>(k));
  const std::uint64_t before = g_alloc_count.load();
  for (auto _ : state) {
    std::vector<std::vector<float>> contributions;
    contributions.reserve(k);
    for (auto& m : fleet) contributions.push_back(legacy_gather(*m));
    const std::vector<float> aggregate =
        legacy_weighted_average(contributions, weights);
    for (auto& m : fleet) legacy_scatter(*m, aggregate);
    benchmark::DoNotOptimize(nn::state_view(*fleet[0]).data());
  }
  state.counters["allocs/iter"] = allocs_per_iter(state, before);
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(k * nn::state_size(*fleet[0]) *
                                sizeof(float)));
}
BENCHMARK(BM_StateSyncLegacy);

// The same round on the arena path: stream every member's state view into
// a persistent accumulator, write the aggregate into a persistent buffer,
// scatter through the views. Steady state allocates nothing.
void BM_StateSyncArena(benchmark::State& state) {
  const std::size_t k = 4;
  auto fleet = make_fleet(k);
  const double w = 1.0 / static_cast<double>(k);
  nn::StateAccumulator acc;
  std::vector<float> aggregate(nn::state_size(*fleet[0]));
  // One warm-up round so the persistent buffers reach capacity.
  acc.reset(aggregate.size());
  for (auto& m : fleet) acc.accumulate(nn::state_view(*m), w);
  acc.write(aggregate);
  const std::uint64_t before = g_alloc_count.load();
  for (auto _ : state) {
    acc.reset(aggregate.size());
    for (auto& m : fleet) acc.accumulate(nn::state_view(*m), w);
    acc.write(aggregate);
    for (auto& m : fleet) nn::load_state(*m, aggregate);
    benchmark::DoNotOptimize(nn::state_view(*fleet[0]).data());
  }
  state.counters["allocs/iter"] = allocs_per_iter(state, before);
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(k * nn::state_size(*fleet[0]) *
                                sizeof(float)));
}
BENCHMARK(BM_StateSyncArena);

}  // namespace

BENCHMARK_MAIN();
