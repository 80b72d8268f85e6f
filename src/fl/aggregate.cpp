#include "fl/aggregate.hpp"

#include "common/error.hpp"

namespace hadfl::fl {

std::vector<float> fedavg(const std::vector<std::vector<float>>& states,
                          const std::vector<std::size_t>& sample_counts) {
  HADFL_CHECK_ARG(states.size() == sample_counts.size(),
                  "states/sample_counts mismatch");
  std::size_t total = 0;
  for (std::size_t n : sample_counts) total += n;
  HADFL_CHECK_ARG(total > 0, "fedavg with zero total samples");
  std::vector<double> weights;
  weights.reserve(sample_counts.size());
  for (std::size_t n : sample_counts) {
    weights.push_back(static_cast<double>(n) / static_cast<double>(total));
  }
  return nn::weighted_average(states, weights);
}

}  // namespace hadfl::fl
