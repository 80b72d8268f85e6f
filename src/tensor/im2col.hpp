// im2col / col2im lowering for convolution.
//
// Conv2d forward becomes one GEMM over the unfolded input patches; the
// backward data pass uses col2im to fold patch gradients back into the
// input gradient. Layout conventions: images are (C, H, W) per sample; the
// column matrix is (C*KH*KW, OH*OW).
//
// The strided variants place one sample's columns inside a larger batched
// matrix: with `row_stride` = N * OH*OW and `columns` offset to sample s's
// first column, all N samples unfold into ONE (C*KH*KW, N*OH*OW) matrix,
// so the whole batch's convolution is a single GEMM (nn::Conv2d). Samples
// occupy disjoint column ranges, so unfolding is safely parallel over s.
//
// Each channel plane is first copied into a per-thread bordered plane,
// (H+2P) x (W+2P) with a zero border, so every output row of a tap is a
// plain strided copy (or add) with no bounds test. The row loops have a
// fixed trip count for output widths 1, 2, 4, 8 and 16 at strides 1 and 2
// (every plane of the zoo models at 8x8 and 16x16 inputs); other shapes
// run the same loops with runtime bounds. The results are byte-identical
// to a per-element lowering:
// im2col is a pure copy, padding reads +0, and col2im adds each pixel's
// contributions in (kh, kw) order onto the value the caller's image held
// (-0 included). The one freedom left is the compiler's: when both addends
// of a sum are NaN, which NaN's sign and payload survive depends on the
// operand order it picks, in these loops as in any others.
#pragma once

#include <cstddef>

namespace hadfl::ops {

struct ConvGeometry {
  std::size_t channels = 0;
  std::size_t height = 0;
  std::size_t width = 0;
  std::size_t kernel_h = 0;
  std::size_t kernel_w = 0;
  std::size_t stride = 1;
  std::size_t pad = 0;

  std::size_t out_h() const { return (height + 2 * pad - kernel_h) / stride + 1; }
  std::size_t out_w() const { return (width + 2 * pad - kernel_w) / stride + 1; }
  std::size_t col_rows() const { return channels * kernel_h * kernel_w; }
  std::size_t col_cols() const { return out_h() * out_w(); }

  /// Validates that the kernel fits the (padded) image.
  void validate() const;
};

/// Unfold one (C, H, W) image into a column matrix whose rows are
/// `row_stride` floats apart; the sample's OH*OW columns start at
/// `columns`. `row_stride` must be >= col_cols().
void im2col(const float* image, const ConvGeometry& g, float* columns,
            std::size_t row_stride);

/// Compact layout: row_stride == col_cols().
inline void im2col(const float* image, const ConvGeometry& g, float* columns) {
  im2col(image, g, columns, g.col_cols());
}

/// Fold a column matrix (rows `row_stride` apart, sample columns starting
/// at `columns`) back into a (C, H, W) image, accumulating overlapping
/// contributions. `image` must be zeroed by the caller if accumulation
/// from scratch is wanted.
void col2im(const float* columns, const ConvGeometry& g, float* image,
            std::size_t row_stride);

/// Compact layout: row_stride == col_cols().
inline void col2im(const float* columns, const ConvGeometry& g, float* image) {
  col2im(columns, g, image, g.col_cols());
}

}  // namespace hadfl::ops
