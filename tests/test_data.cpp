#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <span>
#include <vector>

#include "common/error.hpp"
#include "data/batch_iterator.hpp"
#include "data/partition.hpp"
#include "data/synthetic.hpp"

namespace hadfl::data {
namespace {

SyntheticConfig small_config() {
  SyntheticConfig cfg;
  cfg.train_samples = 200;
  cfg.test_samples = 64;
  cfg.image_size = 8;
  cfg.max_shift = 1;
  return cfg;
}

/// FNV-1a over every device's index sequence: the device count, then per
/// device its length and its indices in order.
std::uint64_t partition_hash(const Partition& parts) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&h](std::uint64_t v) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (v >> (8 * byte)) & 0xffu;
      h *= 0x100000001b3ull;
    }
  };
  mix(parts.size());
  for (std::size_t d = 0; d < parts.size(); ++d) {
    const std::span<const std::size_t> window = parts[d];
    mix(window.size());
    for (const std::size_t i : window) mix(i);
  }
  return h;
}

TEST(Synthetic, ShapesAndLabelRanges) {
  const TrainTestSplit split = make_synthetic_cifar(small_config());
  EXPECT_EQ(split.train.size(), 200u);
  EXPECT_EQ(split.test.size(), 64u);
  EXPECT_EQ(split.train.channels(), 3u);
  EXPECT_EQ(split.train.height(), 8u);
  EXPECT_EQ(split.train.num_classes(), 10u);
  for (int y : split.train.labels()) {
    EXPECT_GE(y, 0);
    EXPECT_LT(y, 10);
  }
}

TEST(Synthetic, DeterministicForSeed) {
  SyntheticConfig cfg = small_config();
  const TrainTestSplit a = make_synthetic_cifar(cfg);
  const TrainTestSplit b = make_synthetic_cifar(cfg);
  EXPECT_EQ(a.train.labels(), b.train.labels());
  EXPECT_TRUE(a.train.images().allclose(b.train.images()));
}

TEST(Synthetic, DifferentSeedsDiffer) {
  SyntheticConfig cfg = small_config();
  const TrainTestSplit a = make_synthetic_cifar(cfg);
  cfg.seed = 123;
  const TrainTestSplit b = make_synthetic_cifar(cfg);
  EXPECT_FALSE(a.train.images().allclose(b.train.images()));
}

TEST(Synthetic, AllClassesRepresented) {
  const TrainTestSplit split = make_synthetic_cifar(small_config());
  std::set<int> classes(split.train.labels().begin(),
                        split.train.labels().end());
  EXPECT_EQ(classes.size(), 10u);
}

TEST(Synthetic, RejectsBadConfig) {
  SyntheticConfig cfg = small_config();
  cfg.num_classes = 1;
  EXPECT_THROW(make_synthetic_cifar(cfg), InvalidArgument);
  cfg = small_config();
  cfg.max_shift = 8;
  EXPECT_THROW(make_synthetic_cifar(cfg), InvalidArgument);
  cfg = small_config();
  cfg.noise_std = -0.1;
  EXPECT_THROW(make_synthetic_cifar(cfg), InvalidArgument);
}

TEST(Dataset, GatherCopiesSamplesAndLabels) {
  const TrainTestSplit split = make_synthetic_cifar(small_config());
  const Batch batch = split.train.gather(std::vector<std::size_t>{3, 7, 11});
  EXPECT_EQ(batch.size(), 3u);
  EXPECT_EQ(batch.x.shape(), (Shape{3, 3, 8, 8}));
  EXPECT_EQ(batch.y[1], split.train.label(7));
  // Pixel data matches the source sample.
  const std::size_t sample_size = 3 * 8 * 8;
  for (std::size_t i = 0; i < sample_size; ++i) {
    EXPECT_EQ(batch.x[i], split.train.images()[3 * sample_size + i]);
  }
}

TEST(Dataset, GatherValidatesIndices) {
  const TrainTestSplit split = make_synthetic_cifar(small_config());
  EXPECT_THROW(split.train.gather({}), InvalidArgument);
  EXPECT_THROW(split.train.gather(std::vector<std::size_t>{9999}),
               InvalidArgument);
}

TEST(Dataset, LabelHistogramCounts) {
  Tensor images({4, 1, 2, 2});
  Dataset ds(std::move(images), {0, 1, 1, 2}, 3);
  const auto hist = ds.label_histogram(std::vector<std::size_t>{0, 1, 2, 3});
  EXPECT_EQ(hist, (std::vector<std::size_t>{1, 2, 1}));
}

TEST(Dataset, ConcatBatches) {
  Tensor images({4, 1, 2, 2});
  for (std::size_t i = 0; i < images.numel(); ++i) {
    images[i] = static_cast<float>(i);
  }
  Dataset ds(std::move(images), {0, 1, 2, 0}, 3);
  const Batch combined =
      concat_batches({ds.gather(std::vector<std::size_t>{0, 1}),
                      ds.gather(std::vector<std::size_t>{3})});
  EXPECT_EQ(combined.size(), 3u);
  EXPECT_EQ(combined.y, (std::vector<int>{0, 1, 0}));
  EXPECT_EQ(combined.x.at4(2, 0, 0, 0), 12.0f);
}

TEST(Partition, IidCoversAllOnce) {
  const TrainTestSplit split = make_synthetic_cifar(small_config());
  Rng rng(1);
  const Partition parts = partition_iid(split.train, 4, rng);
  EXPECT_EQ(parts.size(), 4u);
  EXPECT_TRUE(is_valid_partition(parts, split.train.size()));
  for (std::size_t d = 0; d < parts.size(); ++d) {
    EXPECT_EQ(parts[d].size(), 50u);
  }
}

TEST(Partition, IidLabelDistributionRoughlyUniform) {
  SyntheticConfig cfg = small_config();
  cfg.train_samples = 1000;
  const TrainTestSplit split = make_synthetic_cifar(cfg);
  Rng rng(2);
  const Partition parts = partition_iid(split.train, 4, rng);
  for (std::size_t d = 0; d < parts.size(); ++d) {
    const auto hist = split.train.label_histogram(parts[d]);
    for (std::size_t c = 0; c < 10; ++c) {
      EXPECT_GT(hist[c], 10u);  // ~25 expected per class per device
    }
  }
}

TEST(Partition, DirichletValidAndSkewed) {
  SyntheticConfig cfg = small_config();
  cfg.train_samples = 1000;
  const TrainTestSplit split = make_synthetic_cifar(cfg);
  Rng rng(3);
  const Partition parts = partition_dirichlet(split.train, 4, 0.1, rng);
  EXPECT_TRUE(is_valid_partition(parts, split.train.size()));
  for (std::size_t d = 0; d < parts.size(); ++d) {
    EXPECT_FALSE(parts[d].empty());
  }
  // Strong skew: some device should be missing (or nearly missing) some
  // class that another device holds plenty of.
  std::size_t near_empty_cells = 0;
  for (std::size_t d = 0; d < parts.size(); ++d) {
    for (std::size_t count : split.train.label_histogram(parts[d])) {
      if (count <= 2) ++near_empty_cells;
    }
  }
  EXPECT_GT(near_empty_cells, 4u);
}

TEST(Partition, DirichletHighAlphaIsBalanced) {
  SyntheticConfig cfg = small_config();
  cfg.train_samples = 1000;
  const TrainTestSplit split = make_synthetic_cifar(cfg);
  Rng rng(4);
  const Partition parts = partition_dirichlet(split.train, 4, 100.0, rng);
  for (std::size_t d = 0; d < parts.size(); ++d) {
    EXPECT_GT(parts[d].size(), 150u);
    EXPECT_LT(parts[d].size(), 350u);
  }
}

TEST(Partition, ShardsLimitClassesPerDevice) {
  SyntheticConfig cfg = small_config();
  cfg.train_samples = 1000;
  const TrainTestSplit split = make_synthetic_cifar(cfg);
  Rng rng(5);
  const Partition parts = partition_shards(split.train, 5, 2, rng);
  EXPECT_TRUE(is_valid_partition(parts, split.train.size()));
  for (std::size_t d = 0; d < parts.size(); ++d) {
    const auto hist = split.train.label_histogram(parts[d]);
    std::size_t classes_present = 0;
    for (std::size_t c : hist) {
      if (c > 0) ++classes_present;
    }
    // Two shards cover at most ~4 label values (shard boundaries).
    EXPECT_LE(classes_present, 4u);
  }
}

TEST(Partition, Validation) {
  const TrainTestSplit split = make_synthetic_cifar(small_config());
  Rng rng(6);
  EXPECT_THROW(partition_iid(split.train, 0, rng), InvalidArgument);
  EXPECT_THROW(partition_dirichlet(split.train, 4, 0.0, rng),
               InvalidArgument);
  EXPECT_THROW(partition_shards(split.train, 4, 0, rng), InvalidArgument);
  // Invalid partitions detected: a duplicate, a missing and an
  // out-of-range index.
  EXPECT_FALSE(is_valid_partition(Partition({0, 0}, {{0, 2}}), 2));
  EXPECT_FALSE(is_valid_partition(Partition({0}, {{0, 1}}), 2));
  EXPECT_FALSE(is_valid_partition(Partition({5}, {{0, 1}}), 2));
  // A window must lie inside the pool.
  EXPECT_THROW(Partition({0, 1}, {{1, 2}}), InvalidArgument);
  EXPECT_THROW(Partition({0, 1}, {{3, 0}}), InvalidArgument);
}

TEST(Partition, ExplicitPartitionersMatchGoldenHashes) {
  // Each device's index sequence, hashed. The values pin the dealing order
  // and the RNG draws of every explicit partitioner, including Dirichlet's
  // rebalancing of empty devices (the second Dirichlet case fills 6 empty
  // devices, all from one donor's tail).
  SyntheticConfig cfg = small_config();
  const TrainTestSplit small = make_synthetic_cifar(cfg);
  cfg.train_samples = 1000;
  const TrainTestSplit large = make_synthetic_cifar(cfg);
  Rng iid_rng(11);
  Rng dirichlet_rng(12);
  Rng rebalanced_rng(12);
  Rng shards_rng(14);
  EXPECT_EQ(partition_hash(partition_iid(small.train, 7, iid_rng)),
            0xe5c80a1bb1085e5eull);
  EXPECT_EQ(
      partition_hash(partition_dirichlet(large.train, 4, 0.1, dirichlet_rng)),
      0xccc886d651cfe9afull);
  EXPECT_EQ(partition_hash(
                partition_dirichlet(small.train, 16, 0.01, rebalanced_rng)),
            0x0f6349ff2dc34505ull);
  EXPECT_EQ(partition_hash(partition_shards(small.train, 7, 3, shards_rng)),
            0xe9bbd8165a1452c4ull);
}

TEST(Partition, CyclicWindowsFollowTheRule) {
  // Device d's i-th index is (d * per + i) mod N: windows that wrap the
  // dataset (per > N, or a start near N), fleets that fit in the dataset
  // (K * per <= N) and fleets that oversubscribe it many times over.
  for (const std::size_t n : {1u, 7u, 1024u}) {
    for (const std::size_t per : {std::size_t{1}, std::size_t{64}, n + 3}) {
      for (const std::size_t k : {1u, 3u, 100000u}) {
        const Partition parts = cyclic_partition(n, k, per);
        ASSERT_EQ(parts.size(), k);
        std::size_t mismatches = 0;
        for (std::size_t d = 0; d < k; ++d) {
          const std::span<const std::size_t> window = parts[d];
          ASSERT_EQ(window.size(), per);
          for (std::size_t i = 0; i < per; ++i) {
            mismatches += window[i] != (d * per + i) % n;
          }
        }
        EXPECT_EQ(mismatches, 0u) << "N " << n << " per " << per << " K " << k;
      }
    }
  }
  EXPECT_TRUE(is_valid_partition(cyclic_partition(12, 3, 4), 12));
  EXPECT_THROW(cyclic_partition(0, 1, 1), InvalidArgument);
  EXPECT_THROW(cyclic_partition(1, 0, 1), InvalidArgument);
  EXPECT_THROW(cyclic_partition(1, 1, 0), InvalidArgument);
}

TEST(BatchIterator, EpochCoversPartitionExactlyOnce) {
  const TrainTestSplit split = make_synthetic_cifar(small_config());
  std::vector<std::size_t> indices{1, 5, 9, 13, 17, 21, 25};
  BatchIterator it(split.train, indices, 3, Rng(7));
  EXPECT_EQ(it.batches_per_epoch(), 3u);
  std::multiset<int> seen;
  std::size_t total = 0;
  for (std::size_t b = 0; b < it.batches_per_epoch(); ++b) {
    const Batch batch = it.next();
    total += batch.size();
  }
  EXPECT_EQ(total, indices.size());  // 3 + 3 + 1
}

TEST(BatchIterator, ReshufflesBetweenEpochs) {
  const TrainTestSplit split = make_synthetic_cifar(small_config());
  std::vector<std::size_t> indices(64);
  for (std::size_t i = 0; i < 64; ++i) indices[i] = i;
  BatchIterator it(split.train, indices, 64, Rng(8));
  const Batch first = it.next();
  const Batch second = it.next();
  EXPECT_NE(first.y, second.y);  // different order with high probability
}

TEST(BatchIterator, PartitionWindowMatchesVector) {
  // A device's window, read in place, yields the batch stream of the same
  // indices held in a vector of their own: disjoint windows (IID) and
  // overlapping windows that wrap the dataset (cyclic).
  const TrainTestSplit split = make_synthetic_cifar(small_config());
  Rng rng(9);
  for (const Partition& parts :
       {partition_iid(split.train, 4, rng), cyclic_partition(200, 50, 16)}) {
    for (std::size_t d = 0; d < parts.size(); ++d) {
      const std::vector<std::size_t> copy(parts[d].begin(), parts[d].end());
      BatchIterator from_window(split.train, parts[d], 6, Rng(10 + d));
      BatchIterator from_vector(split.train, copy, 6, Rng(10 + d));
      for (std::size_t b = 0; b < 3 * from_window.batches_per_epoch(); ++b) {
        const Batch x = from_window.next();
        const Batch y = from_vector.next();
        ASSERT_EQ(x.y, y.y);
        ASSERT_TRUE(std::equal(x.x.data(), x.x.data() + x.x.numel(),
                               y.x.data()));
      }
    }
  }
}

TEST(BatchIterator, Validation) {
  const TrainTestSplit split = make_synthetic_cifar(small_config());
  EXPECT_THROW(BatchIterator(split.train, {}, 4, Rng(1)), InvalidArgument);
  EXPECT_THROW(
      BatchIterator(split.train, std::vector<std::size_t>{0}, 0, Rng(1)),
      InvalidArgument);
}

}  // namespace
}  // namespace hadfl::data
