// Device-local SGD (Alg. 1 lines 14-17): sample a mini-batch from the
// device's partition, compute the gradient, update the local model. The
// trainer is pure compute; virtual-time accounting is the caller's job
// (sim::Cluster::advance_compute with the same step count).
#pragma once

#include "data/batch_iterator.hpp"
#include "nn/loss.hpp"
#include "nn/optimizer.hpp"
#include "nn/sequential.hpp"

namespace hadfl::fl {

struct LocalTrainStats {
  std::size_t steps = 0;
  double mean_loss = 0.0;  ///< mean training loss across this call's steps
  double loss_sum = 0.0;   ///< the caller's running loss sum, continued
};

/// Runs `steps` local SGD iterations, zeroing gradients after each. Each
/// step's loss is added to `loss_sum` in order, so a burst split into calls
/// that pass the sum along ends with one call's sum, bit for bit.
LocalTrainStats run_local_steps(nn::Sequential& model, nn::Sgd& optimizer,
                                data::BatchIterator& batches,
                                std::size_t steps, double loss_sum = 0.0);

}  // namespace hadfl::fl
