#include "data/partition.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "common/error.hpp"

namespace hadfl::data {

namespace {

void check_args(const Dataset& dataset, std::size_t num_devices) {
  HADFL_CHECK_ARG(num_devices > 0, "need at least one device");
  HADFL_CHECK_ARG(dataset.size() >= num_devices,
                  "dataset smaller than device count");
}

/// Gamma(alpha, 1) sampler (Marsaglia–Tsang for alpha >= 1, boost for < 1).
double sample_gamma(double alpha, Rng& rng) {
  if (alpha < 1.0) {
    // Boost: Gamma(a) = Gamma(a + 1) * U^(1/a).
    const double u = std::max(rng.uniform(), 1e-12);
    return sample_gamma(alpha + 1.0, rng) * std::pow(u, 1.0 / alpha);
  }
  const double d = alpha - 1.0 / 3.0;
  const double c = 1.0 / std::sqrt(9.0 * d);
  for (;;) {
    double x;
    double v;
    do {
      x = rng.normal();
      v = 1.0 + c * x;
    } while (v <= 0.0);
    v = v * v * v;
    const double u = std::max(rng.uniform(), 1e-12);
    if (std::log(u) < 0.5 * x * x + d - d * v + d * std::log(v)) return d * v;
  }
}

/// Disjoint device windows over one pool, before they become a Partition.
struct Layout {
  std::vector<std::size_t> pool;
  std::vector<Partition::Window> windows;
};

/// Lays out an assignment stream (`indices[j]` goes to device `owner[j]`)
/// as one window per device, in device order, each keeping its indices in
/// stream order: a stable counting sort by device.
Layout group_by_device(std::size_t num_devices,
                       const std::vector<std::size_t>& owner,
                       const std::vector<std::size_t>& indices) {
  Layout layout{std::vector<std::size_t>(indices.size()),
                std::vector<Partition::Window>(num_devices)};
  for (const std::size_t d : owner) ++layout.windows[d].size;
  std::size_t begin = 0;
  for (Partition::Window& w : layout.windows) {
    w.begin = begin;
    begin += w.size;
    w.size = 0;  // regrown as the stream fills the window
  }
  for (std::size_t j = 0; j < indices.size(); ++j) {
    Partition::Window& w = layout.windows[owner[j]];
    layout.pool[w.begin + w.size++] = indices[j];
  }
  return layout;
}

}  // namespace

Partition::Partition(std::vector<std::size_t> pool,
                     std::vector<Window> windows)
    : pool_(std::move(pool)), windows_(std::move(windows)) {
  for (const Window& w : windows_) {
    HADFL_CHECK_ARG(
        w.begin <= pool_.size() && w.size <= pool_.size() - w.begin,
        "partition window [" << w.begin << ", +" << w.size
                             << ") outside a pool of " << pool_.size());
  }
}

Partition partition_iid(const Dataset& dataset, std::size_t num_devices,
                        Rng& rng) {
  check_args(dataset, num_devices);
  std::vector<std::size_t> order(dataset.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  rng.shuffle(order);
  std::vector<std::size_t> owner(order.size());
  for (std::size_t i = 0; i < order.size(); ++i) owner[i] = i % num_devices;
  Layout layout = group_by_device(num_devices, owner, order);
  return Partition(std::move(layout.pool), std::move(layout.windows));
}

Partition partition_dirichlet(const Dataset& dataset, std::size_t num_devices,
                              double alpha, Rng& rng) {
  check_args(dataset, num_devices);
  HADFL_CHECK_ARG(alpha > 0.0, "Dirichlet alpha must be positive");

  std::vector<std::size_t> owner;
  std::vector<std::size_t> dealt;
  for (std::size_t cls = 0; cls < dataset.num_classes(); ++cls) {
    std::vector<std::size_t> members;
    for (std::size_t i = 0; i < dataset.size(); ++i) {
      if (dataset.label(i) == static_cast<int>(cls)) members.push_back(i);
    }
    if (members.empty()) continue;
    rng.shuffle(members);
    // Dirichlet draw = normalized independent Gamma(alpha) draws.
    std::vector<double> props(num_devices);
    double total = 0.0;
    for (auto& p : props) {
      p = sample_gamma(alpha, rng);
      total += p;
    }
    std::size_t cursor = 0;
    for (std::size_t d = 0; d < num_devices; ++d) {
      const std::size_t take =
          d + 1 == num_devices
              ? members.size() - cursor
              : std::min<std::size_t>(
                    members.size() - cursor,
                    static_cast<std::size_t>(
                        std::llround(props[d] / total *
                                     static_cast<double>(members.size()))));
      for (std::size_t i = 0; i < take; ++i) {
        owner.push_back(d);
        dealt.push_back(members[cursor + i]);
      }
      cursor += take;
    }
  }
  Layout layout = group_by_device(num_devices, owner, dealt);

  // Every device must hold at least one sample; steal from the largest.
  // The stolen index is the donor's last, which stays in the pool just
  // past the donor's shortened window and becomes the empty device's.
  for (Partition::Window& w : layout.windows) {
    if (w.size > 0) continue;
    const auto largest = std::max_element(
        layout.windows.begin(), layout.windows.end(),
        [](const auto& a, const auto& b) { return a.size < b.size; });
    HADFL_CHECK_MSG(largest->size > 1, "cannot rebalance empty partition");
    --largest->size;
    w = {largest->begin + largest->size, 1};
  }
  return Partition(std::move(layout.pool), std::move(layout.windows));
}

Partition partition_shards(const Dataset& dataset, std::size_t num_devices,
                           std::size_t shards_per_device, Rng& rng) {
  check_args(dataset, num_devices);
  HADFL_CHECK_ARG(shards_per_device > 0, "need at least one shard per device");
  const std::size_t num_shards = num_devices * shards_per_device;
  HADFL_CHECK_ARG(dataset.size() >= num_shards,
                  "dataset smaller than shard count");

  std::vector<std::size_t> order(dataset.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return dataset.label(a) < dataset.label(b);
  });

  std::vector<std::size_t> shard_ids(num_shards);
  std::iota(shard_ids.begin(), shard_ids.end(), std::size_t{0});
  rng.shuffle(shard_ids);

  const std::size_t shard_size = dataset.size() / num_shards;
  std::vector<std::size_t> owner;
  std::vector<std::size_t> dealt;
  for (std::size_t s = 0; s < num_shards; ++s) {
    const std::size_t device = s / shards_per_device;
    const std::size_t shard = shard_ids[s];
    const std::size_t begin = shard * shard_size;
    const std::size_t end =
        shard + 1 == num_shards ? dataset.size() : begin + shard_size;
    for (std::size_t i = begin; i < end; ++i) {
      owner.push_back(device);
      dealt.push_back(order[i]);
    }
  }
  Layout layout = group_by_device(num_devices, owner, dealt);
  return Partition(std::move(layout.pool), std::move(layout.windows));
}

Partition cyclic_partition(std::size_t dataset_size, std::size_t num_devices,
                           std::size_t per_device) {
  HADFL_CHECK_ARG(dataset_size > 0, "cyclic_partition of empty dataset");
  HADFL_CHECK_ARG(num_devices > 0, "cyclic_partition over zero devices");
  HADFL_CHECK_ARG(per_device > 0, "cyclic_partition with zero samples/device");
  HADFL_CHECK_ARG(
      per_device <= std::numeric_limits<std::size_t>::max() / num_devices,
      "cyclic_partition: num_devices * per_device overflows");
  // pool[j] = j mod N, so the window of length `per` starting at
  // (d * per) mod N reads (d * per + i) mod N. The last window starts at
  // most at N - 1, hence N + per - 1 entries suffice for any fleet.
  std::vector<std::size_t> pool(
      std::min(num_devices * per_device, dataset_size + per_device - 1));
  for (std::size_t j = 0; j < pool.size(); ++j) pool[j] = j % dataset_size;
  std::vector<Partition::Window> windows(num_devices);
  std::size_t begin = 0;
  for (Partition::Window& w : windows) {
    w = {begin, per_device};
    begin = (begin + per_device) % dataset_size;
  }
  return Partition(std::move(pool), std::move(windows));
}

bool is_valid_partition(const Partition& partition, std::size_t dataset_size) {
  std::vector<std::size_t> seen(dataset_size, 0);
  for (std::size_t d = 0; d < partition.size(); ++d) {
    for (const std::size_t i : partition[d]) {
      if (i >= dataset_size) return false;
      ++seen[i];
    }
  }
  return std::all_of(seen.begin(), seen.end(),
                     [](std::size_t c) { return c == 1; });
}

}  // namespace hadfl::data
