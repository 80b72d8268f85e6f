#include "fl/local_trainer.hpp"

#include "common/error.hpp"

namespace hadfl::fl {

LocalTrainStats run_local_steps(nn::Sequential& model, nn::Sgd& optimizer,
                                data::BatchIterator& batches,
                                std::size_t steps, double loss_sum) {
  LocalTrainStats stats;
  nn::SoftmaxCrossEntropy loss_fn;
  double own_sum = 0.0;
  for (std::size_t s = 0; s < steps; ++s) {
    data::Batch batch = batches.next();
    const Tensor logits = model.forward(batch.x, /*training=*/true);
    const double loss = loss_fn.forward(logits, batch.y);
    own_sum += loss;
    loss_sum += loss;
    model.backward(loss_fn.backward());
    optimizer.step_and_zero();
  }
  stats.steps = steps;
  stats.mean_loss = steps > 0 ? own_sum / static_cast<double>(steps) : 0.0;
  stats.loss_sum = loss_sum;
  return stats;
}

}  // namespace hadfl::fl
