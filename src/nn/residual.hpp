// Basic residual block (ResNet-18 style):
//
//   out = ReLU( BN2(Conv2(ReLU(BN1(Conv1(x))))) + shortcut(x) )
//
// where shortcut is identity when shape is preserved, or a strided 1x1
// convolution + BN when the block downsamples / changes channel count.
#pragma once

#include <optional>

#include "nn/activations.hpp"
#include "nn/batchnorm.hpp"
#include "nn/conv2d.hpp"

namespace hadfl::nn {

class ResidualBlock : public Layer {
 public:
  /// stride > 1 (or in != out channels) enables the projection shortcut.
  ResidualBlock(std::size_t in_channels, std::size_t out_channels,
                std::size_t stride = 1);

  Tensor forward(const Tensor& input, bool training) override;
  Tensor backward(const Tensor& grad_output) override;
  std::vector<Parameter*> parameters() override;
  std::string name() const override { return "ResidualBlock"; }

  bool has_projection() const { return proj_conv_.has_value(); }

 private:
  Conv2d conv1_;
  BatchNorm2d bn1_;
  ReLU relu1_;
  Conv2d conv2_;
  BatchNorm2d bn2_;
  std::optional<Conv2d> proj_conv_;
  std::optional<BatchNorm2d> proj_bn_;
  ReLU out_relu_;  ///< the post-sum ReLU
};

}  // namespace hadfl::nn
