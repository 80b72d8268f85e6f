// Cyclic shuffled mini-batch iterator over a device's data partition.
//
// Matches Alg. 1 line 15 ("sample a mini-batch from P^k"): batches are drawn
// by iterating a shuffled permutation of the device's indices; the
// permutation is reshuffled each time it is exhausted (i.e., per local
// epoch). The last batch of a pass may be short if the partition size is
// not a multiple of the batch size.
#pragma once

#include <span>
#include <vector>

#include "common/rng.hpp"
#include "data/dataset.hpp"

namespace hadfl::data {

class BatchIterator {
 public:
  /// `indices` are the device's sample indices into `dataset` (P^k); the
  /// iterator copies them into the permutation it shuffles.
  BatchIterator(const Dataset& dataset, std::span<const std::size_t> indices,
                std::size_t batch_size, Rng rng);

  /// Next mini-batch; reshuffles transparently at epoch boundaries.
  Batch next();

  /// Number of batches per pass over the partition.
  std::size_t batches_per_epoch() const;

  std::size_t partition_size() const { return indices_.size(); }
  std::size_t batch_size() const { return batch_size_; }

 private:
  const Dataset* dataset_;
  std::vector<std::size_t> indices_;
  std::size_t batch_size_;
  std::size_t cursor_ = 0;
  Rng rng_;
};

}  // namespace hadfl::data
