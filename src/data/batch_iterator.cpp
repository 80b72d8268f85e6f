#include "data/batch_iterator.hpp"

#include "common/error.hpp"

namespace hadfl::data {

BatchIterator::BatchIterator(const Dataset& dataset,
                             std::span<const std::size_t> indices,
                             std::size_t batch_size, Rng rng)
    : dataset_(&dataset),
      indices_(indices.begin(), indices.end()),
      batch_size_(batch_size),
      rng_(rng) {
  HADFL_CHECK_ARG(!indices_.empty(), "BatchIterator needs a non-empty partition");
  HADFL_CHECK_ARG(batch_size_ > 0, "batch size must be positive");
  rng_.shuffle(indices_);
}

Batch BatchIterator::next() {
  if (cursor_ >= indices_.size()) {
    cursor_ = 0;
    rng_.shuffle(indices_);
  }
  const std::size_t take = std::min(batch_size_, indices_.size() - cursor_);
  const std::span<const std::size_t> batch(indices_.data() + cursor_, take);
  cursor_ += take;
  return dataset_->gather(batch);
}

std::size_t BatchIterator::batches_per_epoch() const {
  return (indices_.size() + batch_size_ - 1) / batch_size_;
}

}  // namespace hadfl::data
