// Model aggregation rules: FedAvg (paper Eq. 4). HADFL's partial
// aggregation (Eq. 5) runs over the ring with the weights of
// core::RoundPlanner::plan_sync.
#pragma once

#include <vector>

#include "nn/param_utils.hpp"

namespace hadfl::fl {

/// FedAvg: sample-count-weighted mean of client states (Eq. 2/4).
std::vector<float> fedavg(const std::vector<std::vector<float>>& states,
                          const std::vector<std::size_t>& sample_counts);

}  // namespace hadfl::fl
