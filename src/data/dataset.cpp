#include "data/dataset.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace hadfl::data {

Batch concat_batches(const std::vector<Batch>& batches) {
  HADFL_CHECK_ARG(!batches.empty(), "concat of zero batches");
  const Shape& first = batches.front().x.shape();
  HADFL_CHECK_SHAPE(first.size() == 4, "batches must be (B, C, H, W)");
  std::size_t total = 0;
  for (const auto& b : batches) {
    HADFL_CHECK_SHAPE(b.x.ndim() == 4 && b.x.dim(1) == first[1] &&
                          b.x.dim(2) == first[2] && b.x.dim(3) == first[3],
                      "batch sample shapes differ");
    total += b.size();
  }
  Batch out{Tensor({total, first[1], first[2], first[3]}), {}};
  out.y.reserve(total);
  std::size_t offset = 0;
  for (const auto& b : batches) {
    std::copy_n(b.x.data(), b.x.numel(), out.x.data() + offset);
    offset += b.x.numel();
    out.y.insert(out.y.end(), b.y.begin(), b.y.end());
  }
  return out;
}

Dataset::Dataset(Tensor images, std::vector<int> labels,
                 std::size_t num_classes)
    : images_(std::move(images)),
      labels_(std::move(labels)),
      num_classes_(num_classes) {
  HADFL_CHECK_SHAPE(images_.ndim() == 4,
                    "dataset images must be (N, C, H, W), got "
                        << shape_to_string(images_.shape()));
  HADFL_CHECK_ARG(images_.dim(0) == labels_.size(),
                  "image count " << images_.dim(0) << " != label count "
                                 << labels_.size());
  HADFL_CHECK_ARG(num_classes_ > 0, "dataset needs at least one class");
  for (int y : labels_) {
    HADFL_CHECK_ARG(y >= 0 && static_cast<std::size_t>(y) < num_classes_,
                    "label " << y << " out of range");
  }
}

int Dataset::label(std::size_t i) const {
  HADFL_CHECK_ARG(i < labels_.size(), "sample index out of range");
  return labels_[i];
}

Batch Dataset::gather(std::span<const std::size_t> indices) const {
  HADFL_CHECK_ARG(!indices.empty(), "gather of empty index list");
  const std::size_t c = channels();
  const std::size_t h = height();
  const std::size_t w = width();
  const std::size_t sample_size = c * h * w;
  Batch batch{Tensor({indices.size(), c, h, w}), {}};
  batch.y.reserve(indices.size());
  for (std::size_t b = 0; b < indices.size(); ++b) {
    const std::size_t i = indices[b];
    HADFL_CHECK_ARG(i < size(), "sample index " << i << " out of range");
    std::copy_n(images_.data() + i * sample_size, sample_size,
                batch.x.data() + b * sample_size);
    batch.y.push_back(labels_[i]);
  }
  return batch;
}

std::vector<std::size_t> Dataset::label_histogram(
    std::span<const std::size_t> indices) const {
  std::vector<std::size_t> hist(num_classes_, 0);
  for (std::size_t i : indices) {
    HADFL_CHECK_ARG(i < size(), "sample index " << i << " out of range");
    ++hist[static_cast<std::size_t>(labels_[i])];
  }
  return hist;
}

}  // namespace hadfl::data
