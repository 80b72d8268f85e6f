#include "nn/param_utils.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/math_utils.hpp"

namespace hadfl::nn {

std::size_t state_size(Layer& model) {
  if (model.packed()) return model.state_view().size();
  std::size_t n = 0;
  for (const Parameter* p : model.parameters()) n += p->numel();
  return n;
}

std::size_t gradient_size(Layer& model) {
  if (model.packed()) return model.grad_view().size();
  std::size_t n = 0;
  for (const Parameter* p : model.parameters()) {
    if (p->trainable) n += p->numel();
  }
  return n;
}

std::size_t state_bytes(Layer& model) {
  return state_size(model) * sizeof(float);
}

std::span<float> state_view(Layer& model) {
  HADFL_CHECK_MSG(model.packed(),
                  "state_view requires an arena-packed model ("
                      << model.name() << "); call Sequential::pack()");
  return model.state_view();
}

std::span<float> grad_view(Layer& model) {
  HADFL_CHECK_MSG(model.packed(),
                  "grad_view requires an arena-packed model ("
                      << model.name() << "); call Sequential::pack()");
  return model.grad_view();
}

void StateAccumulator::reset(std::size_t n) {
  acc_.assign(n, 0.0);
  weight_sum_ = 0.0;
}

void StateAccumulator::accumulate(std::span<const float> state, double w) {
  axpy_into(acc_, w, state);
  weight_sum_ += w;
}

void StateAccumulator::write(std::span<float> dst) const {
  HADFL_CHECK_ARG(weight_sum_ != 0.0,
                  "StateAccumulator::write with zero accumulated weight");
  cast_into(dst, acc_);
}

std::vector<float> StateAccumulator::materialize() const {
  std::vector<float> out(acc_.size());
  write(out);
  return out;
}

void load_state(Layer& model, std::span<const float> state) {
  HADFL_CHECK_SHAPE(state.size() == state_size(model),
                    "state size " << state.size() << " != model state size "
                                  << state_size(model));
  if (model.packed()) {
    const auto v = model.state_view();
    std::copy_n(state.data(), state.size(), v.data());
    return;
  }
  std::size_t offset = 0;
  for (Parameter* p : model.parameters()) {
    std::copy_n(state.data() + offset, p->numel(), p->value.data());
    offset += p->numel();
  }
}

std::vector<float> get_gradients(Layer& model) {
  if (model.packed()) {
    const auto g = model.grad_view();
    return std::vector<float>(g.begin(), g.end());
  }
  std::vector<float> out;
  out.reserve(gradient_size(model));
  for (const Parameter* p : model.parameters()) {
    if (!p->trainable) continue;
    const float* g = p->grad.data();
    out.insert(out.end(), g, g + p->numel());
  }
  return out;
}

std::vector<float> weighted_average(
    const std::vector<std::vector<float>>& states,
    const std::vector<double>& weights) {
  HADFL_CHECK_ARG(!states.empty(), "weighted_average of zero states");
  HADFL_CHECK_ARG(states.size() == weights.size(),
                  "states/weights count mismatch: " << states.size() << " vs "
                                                    << weights.size());
  const std::size_t n = states.front().size();
  StateAccumulator acc;
  acc.reset(n);
  for (std::size_t k = 0; k < states.size(); ++k) {
    HADFL_CHECK_SHAPE(states[k].size() == n,
                      "state " << k << " has size " << states[k].size()
                               << ", expected " << n);
    acc.accumulate(states[k], weights[k]);
  }
  return acc.materialize();
}

std::vector<float> average(const std::vector<std::vector<float>>& states) {
  HADFL_CHECK_ARG(!states.empty(), "average of zero states");
  const double w = 1.0 / static_cast<double>(states.size());
  return weighted_average(states, std::vector<double>(states.size(), w));
}

void mix_into(std::span<float> dst, std::span<const float> src, double w) {
  mix_spans(dst, src, w);
}

void mix_into(std::vector<float>& dst, std::span<const float> src, double w) {
  mix_spans(dst, src, w);
}

}  // namespace hadfl::nn
