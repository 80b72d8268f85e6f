#include "fl/evaluate.hpp"

#include <algorithm>
#include <numeric>
#include <span>

#include "common/error.hpp"
#include "nn/loss.hpp"

namespace hadfl::fl {

EvalResult evaluate(nn::Sequential& model, const data::Dataset& dataset,
                    std::size_t batch_size) {
  HADFL_CHECK_ARG(batch_size > 0, "evaluate needs a positive batch size");
  HADFL_CHECK_ARG(dataset.size() > 0, "evaluate on empty dataset");

  nn::SoftmaxCrossEntropy loss_fn;
  double loss_sum = 0.0;
  double acc_sum = 0.0;
  std::size_t seen = 0;
  std::vector<std::size_t> indices(dataset.size());
  std::iota(indices.begin(), indices.end(), std::size_t{0});
  for (std::size_t begin = 0; begin < indices.size(); begin += batch_size) {
    const std::size_t end = std::min(begin + batch_size, indices.size());
    data::Batch batch = dataset.gather(
        std::span<const std::size_t>(indices).subspan(begin, end - begin));
    const Tensor logits = model.forward(batch.x, /*training=*/false);
    const double loss = loss_fn.forward(logits, batch.y);
    const double acc = nn::accuracy(logits, batch.y);
    loss_sum += loss * static_cast<double>(batch.size());
    acc_sum += acc * static_cast<double>(batch.size());
    seen += batch.size();
  }
  return EvalResult{loss_sum / static_cast<double>(seen),
                    acc_sum / static_cast<double>(seen)};
}

}  // namespace hadfl::fl
