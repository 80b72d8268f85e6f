#include "nn/residual.hpp"

#include "common/error.hpp"
#include "tensor/ops.hpp"

namespace hadfl::nn {

ResidualBlock::ResidualBlock(std::size_t in_channels, std::size_t out_channels,
                             std::size_t stride)
    : conv1_(in_channels, out_channels, 3, stride, 1, /*use_bias=*/false),
      bn1_(out_channels),
      conv2_(out_channels, out_channels, 3, 1, 1, /*use_bias=*/false),
      bn2_(out_channels) {
  if (stride != 1 || in_channels != out_channels) {
    proj_conv_.emplace(in_channels, out_channels, 1, stride, 0,
                       /*use_bias=*/false);
    proj_bn_.emplace(out_channels);
  }
}

Tensor ResidualBlock::forward(const Tensor& input, bool training) {
  Tensor main = conv1_.forward(input, training);
  main = bn1_.forward(main, training);
  main = relu1_.forward(main, training);
  main = conv2_.forward(main, training);
  main = bn2_.forward(main, training);

  Tensor shortcut = input;
  if (proj_conv_) {
    shortcut = proj_conv_->forward(input, training);
    shortcut = proj_bn_->forward(shortcut, training);
  }

  HADFL_CHECK_SHAPE(main.shape() == shortcut.shape(),
                    "residual add shape mismatch: "
                        << shape_to_string(main.shape()) << " vs "
                        << shape_to_string(shortcut.shape()));
  return out_relu_.forward(ops::add(main, shortcut), training);
}

Tensor ResidualBlock::backward(const Tensor& grad_output) {
  const Tensor g = out_relu_.backward(grad_output);

  // Main path.
  Tensor g_main = bn2_.backward(g);
  g_main = conv2_.backward(g_main);
  g_main = relu1_.backward(g_main);
  g_main = bn1_.backward(g_main);
  g_main = conv1_.backward(g_main);

  // Shortcut path.
  Tensor g_short = g;
  if (proj_conv_) {
    g_short = proj_bn_->backward(g_short);
    g_short = proj_conv_->backward(g_short);
  }
  return ops::add(g_main, g_short);
}

std::vector<Parameter*> ResidualBlock::parameters() {
  std::vector<Parameter*> params;
  auto append = [&params](Layer& l) {
    for (Parameter* p : l.parameters()) params.push_back(p);
  };
  append(conv1_);
  append(bn1_);
  append(conv2_);
  append(bn2_);
  if (proj_conv_) {
    append(*proj_conv_);
    append(*proj_bn_);
  }
  return params;
}

}  // namespace hadfl::nn
