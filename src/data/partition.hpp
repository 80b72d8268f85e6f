// Data partitioning across federated devices.
//
// The paper splits the training data across the four GPUs (IID). The
// non-IID partitioners support the future-work scenario ("taking into
// account ... data distribution") and the noniid example.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "data/dataset.hpp"

namespace hadfl::data {

/// Per-device sample indices P^k, stored flat: one index pool shared by
/// every device, and one (begin, size) window into it per device. Windows
/// are offsets, not pointers, so a copy needs no fix-up. They may overlap:
/// cyclic_partition serves every device from one short pool, while the
/// explicit partitioners give each device a disjoint window.
class Partition {
 public:
  struct Window {
    std::size_t begin = 0;
    std::size_t size = 0;
  };

  Partition() = default;

  /// Throws InvalidArgument unless every window lies inside `pool`.
  Partition(std::vector<std::size_t> pool, std::vector<Window> windows);

  /// Number of devices.
  std::size_t size() const { return windows_.size(); }

  /// Device `d`'s sample indices, in partition order.
  std::span<const std::size_t> operator[](std::size_t d) const {
    const Window& w = windows_[d];
    return {pool_.data() + w.begin, w.size};
  }

 private:
  std::vector<std::size_t> pool_;
  std::vector<Window> windows_;
};

/// Shuffles and deals samples round-robin: equal shares (+/- 1 sample).
Partition partition_iid(const Dataset& dataset, std::size_t num_devices,
                        Rng& rng);

/// Dirichlet(alpha) label-skew partition: for each class, the class's
/// samples are split across devices with proportions drawn from a
/// Dirichlet distribution. Smaller alpha = more skew. Guarantees every
/// device receives at least one sample.
Partition partition_dirichlet(const Dataset& dataset, std::size_t num_devices,
                              double alpha, Rng& rng);

/// Pathological shard partition (the FedAvg paper's non-IID scheme): sorts
/// by label, cuts into `num_devices * shards_per_device` shards, deals
/// shards randomly so each device sees only a few classes.
Partition partition_shards(const Dataset& dataset, std::size_t num_devices,
                           std::size_t shards_per_device, Rng& rng);

/// Deterministic fleet-scale partition: device d gets `per_device` indices
/// (d * per_device + i) mod dataset_size, i = 0..per_device-1. No RNG and
/// no shuffle. Every device is a window into one pool of at most
/// dataset_size + per_device - 1 entries, so building it costs
/// O(num_devices + dataset_size + per_device) — one 16-byte window per
/// device, the shape a 10^6-device fleet needs. Indices repeat across
/// devices once num_devices * per_device exceeds the dataset (fleets
/// oversubscribe a fixed dataset by design), so the result is NOT
/// is_valid_partition-exact in general.
Partition cyclic_partition(std::size_t dataset_size, std::size_t num_devices,
                           std::size_t per_device);

/// Sanity-check a partition: covers every index exactly once.
bool is_valid_partition(const Partition& partition, std::size_t dataset_size);

}  // namespace hadfl::data
