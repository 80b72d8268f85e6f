#include <gtest/gtest.h>

#include <algorithm>
#include <span>

#include "common/error.hpp"
#include "data/synthetic.hpp"
#include "fl/aggregate.hpp"
#include "fl/evaluate.hpp"
#include "fl/local_trainer.hpp"
#include "fl/metrics.hpp"
#include "fl/scheme.hpp"
#include "nn/model_zoo.hpp"
#include "nn/param_utils.hpp"

namespace hadfl::fl {
namespace {

data::TrainTestSplit small_data() {
  data::SyntheticConfig cfg;
  cfg.train_samples = 256;
  cfg.test_samples = 128;
  cfg.image_size = 8;
  cfg.max_shift = 1;
  cfg.noise_std = 0.25;
  return data::make_synthetic_cifar(cfg);
}

nn::ModelConfig mlp_config() {
  nn::ModelConfig cfg;
  cfg.image_size = 8;
  return cfg;
}

TEST(Evaluate, UntrainedModelNearChance) {
  const auto split = small_data();
  Rng rng(1);
  auto model = nn::make_mlp(mlp_config(), rng);
  const EvalResult r = evaluate(*model, split.test);
  EXPECT_GT(r.loss, 1.0);
  EXPECT_LT(r.accuracy, 0.45);
}

TEST(Evaluate, HandlesBatchRemainders) {
  const auto split = small_data();
  Rng rng(2);
  auto model = nn::make_mlp(mlp_config(), rng);
  const EvalResult a = evaluate(*model, split.test, 128);
  const EvalResult b = evaluate(*model, split.test, 50);  // 128 = 2*50 + 28
  EXPECT_NEAR(a.accuracy, b.accuracy, 1e-9);
  EXPECT_NEAR(a.loss, b.loss, 1e-5);
}

TEST(LocalTrainer, ReducesLossOnSeparableData) {
  const auto split = small_data();
  Rng rng(3);
  auto model = nn::make_mlp(mlp_config(), rng);
  nn::Sgd opt(model->parameters(), {0.05, 0.9, 0.0});
  std::vector<std::size_t> idx(split.train.size());
  for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
  data::BatchIterator it(split.train, idx, 32, Rng(5));
  const LocalTrainStats first = run_local_steps(*model, opt, it, 8);
  LocalTrainStats last{};
  for (int burst = 0; burst < 8; ++burst) {
    last = run_local_steps(*model, opt, it, 8);
  }
  EXPECT_LT(last.mean_loss, first.mean_loss);
  EXPECT_EQ(last.steps, 8u);
}

TEST(LocalTrainer, ZeroStepsIsNoop) {
  const auto split = small_data();
  Rng rng(4);
  auto model = nn::make_mlp(mlp_config(), rng);
  nn::Sgd opt(model->parameters(), {0.05, 0.0, 0.0});
  std::vector<std::size_t> idx{0, 1, 2, 3};
  data::BatchIterator it(split.train, idx, 2, Rng(6));
  const std::span<const float> view = nn::state_view(*model);
  const std::vector<float> before(view.begin(), view.end());
  const LocalTrainStats stats = run_local_steps(*model, opt, it, 0);
  EXPECT_EQ(stats.steps, 0u);
  EXPECT_TRUE(std::equal(view.begin(), view.end(), before.begin()));
}

TEST(Metrics, BestAccuracyAndTimeToBest) {
  MetricsRecorder m;
  m.add({1, 10.0, 2.0, 1.9, 0.5});
  m.add({2, 20.0, 1.0, 1.2, 0.8});
  m.add({3, 30.0, 0.5, 1.1, 0.8});  // ties best; first occurrence counts
  m.add({4, 40.0, 0.4, 1.3, 0.7});
  EXPECT_DOUBLE_EQ(m.best_accuracy(), 0.8);
  EXPECT_DOUBLE_EQ(m.time_to_best_accuracy(), 20.0);
}

TEST(Metrics, TimeToAccuracyThreshold) {
  MetricsRecorder m;
  m.add({1, 10.0, 2.0, 1.9, 0.5});
  m.add({2, 20.0, 1.0, 1.2, 0.9});
  EXPECT_EQ(m.time_to_accuracy(0.6).value(), 20.0);
  EXPECT_EQ(m.time_to_accuracy(0.4).value(), 10.0);
  EXPECT_FALSE(m.time_to_accuracy(0.95).has_value());
}

TEST(Metrics, RejectsOutOfOrderTime) {
  MetricsRecorder m;
  m.add({1, 10.0, 2.0, 1.9, 0.5});
  EXPECT_THROW(m.add({2, 5.0, 1.0, 1.0, 0.6}), InvalidArgument);
}

TEST(Metrics, EmptyQueriesThrow) {
  MetricsRecorder m;
  EXPECT_TRUE(m.empty());
  EXPECT_THROW(m.time_to_best_accuracy(), Error);
  EXPECT_THROW(m.last(), Error);
}

TEST(Metrics, CsvRowsLabelled) {
  MetricsRecorder m;
  m.add({1, 10.0, 2.0, 1.9, 0.5});
  const std::string path = ::testing::TempDir() + "/hadfl_metrics_test.csv";
  {
    CsvWriter csv(path, {"scheme", "epoch", "time", "train_loss",
                         "test_loss", "test_acc"});
    m.append_csv_rows(csv, "hadfl");
  }
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);  // header
  std::getline(in, line);
  EXPECT_EQ(line.rfind("hadfl,", 0), 0u);
  std::remove(path.c_str());
}

TEST(Aggregate, FedavgWeightsBySampleCount) {
  const std::vector<std::vector<float>> states{{1.0f}, {5.0f}};
  const std::vector<float> out = fedavg(states, {1, 3});
  EXPECT_NEAR(out[0], 4.0f, 1e-6);
}

TEST(Aggregate, FedavgValidation) {
  EXPECT_THROW(fedavg({{1.0f}}, {0}), InvalidArgument);
  EXPECT_THROW(fedavg({{1.0f}}, {1, 2}), InvalidArgument);
}

TEST(Scheme, ItersPerEpochRoundsUp) {
  EXPECT_EQ(iters_per_epoch(256, 64), 4u);
  EXPECT_EQ(iters_per_epoch(257, 64), 5u);
  EXPECT_EQ(iters_per_epoch(1, 64), 1u);
  EXPECT_THROW(iters_per_epoch(0, 64), InvalidArgument);
}

TEST(Scheme, AllDeviceIds) {
  sim::Cluster cluster(sim::devices_from_ratio({1, 1, 1}), 1.0);
  EXPECT_EQ(all_device_ids(cluster),
            (std::vector<sim::DeviceId>{0, 1, 2}));
}

}  // namespace
}  // namespace hadfl::fl
