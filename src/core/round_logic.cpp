#include "core/round_logic.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/logging.hpp"
#include "common/math_utils.hpp"
#include "nn/param_utils.hpp"
#include "nn/serialize.hpp"

namespace hadfl::core {

DeviceSetup init_devices(const fl::SchemeContext& ctx,
                         const HadflConfig& config, Rng& rng) {
  const std::size_t k = ctx.cluster.size();
  DeviceSetup setup;
  setup.reference = ctx.make_model(rng);
  setup.reference->pack();  // idempotent; custom make_model may not pack
  if (!config.resume_from.empty()) {
    const std::vector<float> resumed = nn::load_state(config.resume_from);
    nn::load_state(*setup.reference, resumed);
    HADFL_INFO("resumed initial model from " << config.resume_from);
  }
  const std::span<const float> ref_state = nn::state_view(*setup.reference);
  setup.init_state.assign(ref_state.begin(), ref_state.end());
  setup.wire_bytes = ctx.comm_state_bytes != 0
                         ? ctx.comm_state_bytes
                         : setup.init_state.size() * sizeof(float);

  setup.devices.resize(k);
  setup.iters_per_epoch.resize(k);
  for (std::size_t d = 0; d < k; ++d) {
    Rng dev_rng = rng.split();
    // Model and batch streams are independent *splits* of the device stream
    // (not sequential draws), so a backend that never materializes a
    // device's model (the fleet engine's shared-slab devices) can still
    // reproduce its batch stream exactly.
    Rng model_rng = dev_rng.split();
    Rng batch_rng = dev_rng.split();
    DeviceState& dev = setup.devices[d];
    dev.model = ctx.make_model(model_rng);
    dev.model->pack();
    nn::load_state(*dev.model, setup.init_state);
    dev.optimizer = std::make_unique<nn::Sgd>(
        dev.model->parameters(),
        nn::SgdConfig{ctx.config.learning_rate, ctx.config.momentum,
                      ctx.config.weight_decay});
    dev.batches = std::make_unique<data::BatchIterator>(
        ctx.train, ctx.partition[d], ctx.config.device_batch_size,
        batch_rng);
    dev.last_sync_state = setup.init_state;
    setup.iters_per_epoch[d] = fl::iters_per_epoch(
        ctx.partition[d].size(), ctx.config.device_batch_size);
  }
  return setup;
}

std::size_t effective_wire_bytes(std::size_t wire_bytes,
                                 std::size_t codec_bytes,
                                 std::size_t dense_bytes) {
  if (dense_bytes == 0) return wire_bytes;
  const double ratio = static_cast<double>(codec_bytes) /
                       static_cast<double>(dense_bytes);
  return std::max<std::size_t>(
      1, static_cast<std::size_t>(static_cast<double>(wire_bytes) * ratio));
}

std::vector<float> mean_state_of(std::vector<DeviceState>& devices,
                                 const std::vector<sim::DeviceId>& ids) {
  HADFL_CHECK_ARG(!ids.empty(), "mean_state_of over zero devices");
  nn::StateAccumulator acc;
  acc.reset(nn::state_size(*devices[ids.front()].model));
  const double w = 1.0 / static_cast<double>(ids.size());
  for (sim::DeviceId id : ids) {
    acc.accumulate(nn::state_view(*devices[id].model), w);
  }
  return acc.materialize();
}

void WeightedRingFold::reset(std::size_t n) {
  acc_.assign(n, 0.0);
}

void WeightedRingFold::add(std::size_t offset, std::span<const float> piece,
                           double w) {
  HADFL_CHECK_ARG(offset + piece.size() <= acc_.size(),
                  "WeightedRingFold::add out of range: offset "
                      << offset << " + " << piece.size() << " > "
                      << acc_.size());
  axpy_into(std::span<double>(acc_).subspan(offset, piece.size()), w, piece);
}

void WeightedRingFold::write(std::size_t offset, std::span<float> dst) const {
  HADFL_CHECK_ARG(offset + dst.size() <= acc_.size(),
                  "WeightedRingFold::write out of range: offset "
                      << offset << " + " << dst.size() << " > "
                      << acc_.size());
  cast_into(dst,
            std::span<const double>(acc_).subspan(offset, dst.size()));
}

}  // namespace hadfl::core
