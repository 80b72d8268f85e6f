// 2-d convolution via batched im2col + GEMM.
//
// Input/output layout is (N, C, H, W). The weight is stored as
// (out_channels, in_channels * kh * kw). All N samples unfold into ONE
// (C*KH*KW, N*OH*OW) column matrix (strided im2col, parallel over
// samples), so forward is a single weight GEMM over the whole batch and
// backward is one accumulating GEMM per operand — large, cache-blocked,
// thread-parallel kernels instead of N small ones (tensor/ops.cpp).
//
// The lowering is one im2col / col2im call per sample (tensor/im2col.hpp:
// a per-thread bordered plane and fixed-width row loops, byte-identical to
// a per-element lowering). A top-level call (coordinator eval) fans the
// samples out over the pool; a call inside a device burst runs them inline.
// Samples own disjoint column ranges and image planes, so outputs and
// gradients do not depend on the thread count.
#pragma once

#include <vector>

#include "common/aligned.hpp"
#include "nn/layer.hpp"
#include "tensor/im2col.hpp"

namespace hadfl::nn {

class Conv2d : public Layer {
 public:
  Conv2d(std::size_t in_channels, std::size_t out_channels,
         std::size_t kernel, std::size_t stride = 1, std::size_t pad = 0,
         bool use_bias = true);

  Tensor forward(const Tensor& input, bool training) override;
  Tensor backward(const Tensor& grad_output) override;
  std::vector<Parameter*> parameters() override;
  std::string name() const override { return "Conv2d"; }

  Parameter& weight() { return weight_; }

  std::size_t in_channels() const { return in_channels_; }
  std::size_t out_channels() const { return out_channels_; }
  std::size_t kernel() const { return kernel_; }

 private:
  using Scratch = std::vector<float, AlignedAllocator<float>>;

  std::size_t in_channels_;
  std::size_t out_channels_;
  std::size_t kernel_;
  std::size_t stride_;
  std::size_t pad_;
  bool use_bias_;
  Parameter weight_;
  Parameter bias_;

  ops::ConvGeometry geom_;        ///< geometry of the last forward
  Tensor cached_columns_;         ///< (col_rows, N * col_cols) unfolded batch
  Shape cached_input_shape_;
  Scratch fwd_out_;               ///< (out_channels, N * col_cols) GEMM output
  Scratch grad_out_cols_;         ///< grad_output regathered channel-major
  Scratch grad_columns_;          ///< (col_rows, N * col_cols) dColumns
};

}  // namespace hadfl::nn
