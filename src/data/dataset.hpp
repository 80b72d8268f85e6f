// In-memory labelled image dataset.
//
// Images are stored contiguously as (N, C, H, W) float32 alongside integer
// labels. Devices hold index lists into a shared dataset rather than copies,
// matching the FL setting where each device owns a partition P^k.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "tensor/tensor.hpp"

namespace hadfl::data {

/// One mini-batch: inputs (B, C, H, W) and labels of length B.
struct Batch {
  Tensor x;
  std::vector<int> y;

  std::size_t size() const { return y.size(); }
};

/// Concatenates batches along the sample dimension (all batches must share
/// C, H, W). Used by the distributed baseline to form the global batch.
Batch concat_batches(const std::vector<Batch>& batches);

class Dataset {
 public:
  Dataset() = default;

  /// `images` must have shape (N, C, H, W); labels length N.
  Dataset(Tensor images, std::vector<int> labels, std::size_t num_classes);

  std::size_t size() const { return labels_.size(); }
  std::size_t num_classes() const { return num_classes_; }
  std::size_t channels() const { return images_.dim(1); }
  std::size_t height() const { return images_.dim(2); }
  std::size_t width() const { return images_.dim(3); }

  const Tensor& images() const { return images_; }
  const std::vector<int>& labels() const { return labels_; }
  int label(std::size_t i) const;

  /// Gathers the given sample indices into a batch.
  Batch gather(std::span<const std::size_t> indices) const;

  /// Label histogram (size num_classes) over a subset of indices.
  std::vector<std::size_t> label_histogram(
      std::span<const std::size_t> indices) const;

 private:
  Tensor images_;
  std::vector<int> labels_;
  std::size_t num_classes_ = 0;
};

}  // namespace hadfl::data
