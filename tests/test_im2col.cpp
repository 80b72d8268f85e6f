#include "tensor/im2col.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.hpp"

namespace hadfl::ops {
namespace {

// ---- Oracle: the per-element lowering -----------------------------------
// The straightforward loops the bordered-plane lowering replaced: every
// column element tests its source pixel against the image bounds. The
// library must match them byte for byte.

void oracle_im2col(const float* image, const ConvGeometry& g, float* columns,
                   std::size_t row_stride) {
  const std::size_t oh = g.out_h();
  const std::size_t ow = g.out_w();
  std::size_t row = 0;
  for (std::size_t c = 0; c < g.channels; ++c) {
    const float* chan = image + c * g.height * g.width;
    for (std::size_t kh = 0; kh < g.kernel_h; ++kh) {
      for (std::size_t kw = 0; kw < g.kernel_w; ++kw, ++row) {
        float* out = columns + row * row_stride;
        for (std::size_t y = 0; y < oh; ++y) {
          const std::ptrdiff_t sy =
              static_cast<std::ptrdiff_t>(y * g.stride + kh) -
              static_cast<std::ptrdiff_t>(g.pad);
          for (std::size_t x = 0; x < ow; ++x) {
            const std::ptrdiff_t sx =
                static_cast<std::ptrdiff_t>(x * g.stride + kw) -
                static_cast<std::ptrdiff_t>(g.pad);
            const bool inside = sy >= 0 && sx >= 0 &&
                                sy < static_cast<std::ptrdiff_t>(g.height) &&
                                sx < static_cast<std::ptrdiff_t>(g.width);
            out[y * ow + x] =
                inside ? chan[static_cast<std::size_t>(sy) * g.width +
                              static_cast<std::size_t>(sx)]
                       : 0.0f;
          }
        }
      }
    }
  }
}

void oracle_col2im(const float* columns, const ConvGeometry& g, float* image,
                   std::size_t row_stride) {
  const std::size_t oh = g.out_h();
  const std::size_t ow = g.out_w();
  std::size_t row = 0;
  for (std::size_t c = 0; c < g.channels; ++c) {
    float* chan = image + c * g.height * g.width;
    for (std::size_t kh = 0; kh < g.kernel_h; ++kh) {
      for (std::size_t kw = 0; kw < g.kernel_w; ++kw, ++row) {
        const float* in = columns + row * row_stride;
        for (std::size_t y = 0; y < oh; ++y) {
          const std::ptrdiff_t sy =
              static_cast<std::ptrdiff_t>(y * g.stride + kh) -
              static_cast<std::ptrdiff_t>(g.pad);
          if (sy < 0 || sy >= static_cast<std::ptrdiff_t>(g.height)) continue;
          for (std::size_t x = 0; x < ow; ++x) {
            const std::ptrdiff_t sx =
                static_cast<std::ptrdiff_t>(x * g.stride + kw) -
                static_cast<std::ptrdiff_t>(g.pad);
            if (sx < 0 || sx >= static_cast<std::ptrdiff_t>(g.width)) continue;
            chan[static_cast<std::size_t>(sy) * g.width +
                 static_cast<std::size_t>(sx)] += in[y * ow + x];
          }
        }
      }
    }
  }
}

/// Mostly ordinary values, with every special class a copy or an add must
/// carry through unchanged: +-0, NaN of both signs, +-inf and subnormals.
float sample_value(std::mt19937& rng) {
  std::uniform_int_distribution<int> kind(0, 15);
  std::uniform_real_distribution<float> normal(-4.0f, 4.0f);
  std::uniform_int_distribution<int> denorm_steps(1, 1 << 20);
  constexpr float kDenormMin = std::numeric_limits<float>::denorm_min();
  switch (kind(rng)) {
    case 0: return 0.0f;
    case 1: return -0.0f;
    case 2: return std::numeric_limits<float>::quiet_NaN();
    case 3: return -std::numeric_limits<float>::quiet_NaN();
    case 4: return std::numeric_limits<float>::infinity();
    case 5: return -std::numeric_limits<float>::infinity();
    case 6: return kDenormMin * static_cast<float>(denorm_steps(rng));
    case 7: return -kDenormMin * static_cast<float>(denorm_steps(rng));
    default: return normal(rng);
  }
}

std::vector<float> sample_values(std::size_t n, std::mt19937& rng) {
  std::vector<float> v(n);
  for (float& x : v) x = sample_value(rng);
  return v;
}

/// A quiet NaN with a payload no computation produces: marks column
/// elements outside the samples' block, which must stay untouched.
const float kSentinel = std::bit_cast<float>(std::uint32_t{0x7fc0dead});

bool same_bytes(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

/// Byte equality, except that two NaNs match whatever their sign and
/// payload. When both addends of a sum are NaN, IEEE 754 leaves open whose
/// payload the result carries, and x86 returns its first operand's; the
/// compiler treats float addition as commutative and orders the operands
/// as its register allocation likes, in the oracle's loops as in the
/// library's. Every other sum, ±0, ±inf and subnormals included, must
/// match bit for bit.
bool same_sums(const std::vector<float>& a, const std::vector<float>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const bool both_nan = std::isnan(a[i]) && std::isnan(b[i]);
    if (!both_nan && std::bit_cast<std::uint32_t>(a[i]) !=
                         std::bit_cast<std::uint32_t>(b[i])) {
      return false;
    }
  }
  return true;
}

/// Lowers `samples` samples into one column block that starts `lead`
/// columns into rows `row_stride` apart, with the library and with the
/// oracle; fails if the columns or the folded images differ.
::testing::AssertionResult matches_oracle(const ConvGeometry& g,
                                          std::size_t samples,
                                          std::size_t lead,
                                          std::size_t row_stride,
                                          std::mt19937& rng) {
  const std::size_t cols = g.col_cols();
  const std::size_t image = g.channels * g.height * g.width;
  const std::vector<float> images = sample_values(samples * image, rng);
  std::vector<float> got(g.col_rows() * row_stride, kSentinel);
  std::vector<float> want = got;
  for (std::size_t s = 0; s < samples; ++s) {
    im2col(images.data() + s * image, g, got.data() + lead + s * cols,
           row_stride);
    oracle_im2col(images.data() + s * image, g, want.data() + lead + s * cols,
                  row_stride);
  }
  if (!same_bytes(got, want)) return ::testing::AssertionFailure() << "im2col";

  // Fold arbitrary columns onto a non-zero starting image that holds -0.
  const std::vector<float> columns = sample_values(got.size(), rng);
  std::vector<float> start = sample_values(samples * image, rng);
  start[rng() % start.size()] = -0.0f;
  std::vector<float> folded = start;
  std::vector<float> oracle = start;
  for (std::size_t s = 0; s < samples; ++s) {
    col2im(columns.data() + lead + s * cols, g, folded.data() + s * image,
           row_stride);
    oracle_col2im(columns.data() + lead + s * cols, g,
                  oracle.data() + s * image, row_stride);
  }
  if (!same_sums(folded, oracle)) {
    return ::testing::AssertionFailure() << "col2im";
  }
  return ::testing::AssertionSuccess();
}

std::string describe(const ConvGeometry& g, std::size_t samples,
                     std::size_t row_stride) {
  std::ostringstream os;
  os << "C=" << g.channels << " H=" << g.height << " W=" << g.width
     << " K=" << g.kernel_h << "x" << g.kernel_w << " S=" << g.stride
     << " P=" << g.pad << " samples=" << samples
     << " row_stride=" << row_stride;
  return os.str();
}

TEST(ConvGeometry, OutputDims) {
  ConvGeometry g{1, 5, 5, 3, 3, 1, 0};
  EXPECT_EQ(g.out_h(), 3u);
  EXPECT_EQ(g.out_w(), 3u);
  EXPECT_EQ(g.col_rows(), 9u);
  EXPECT_EQ(g.col_cols(), 9u);
}

TEST(ConvGeometry, PaddedStridedDims) {
  ConvGeometry g{3, 8, 8, 3, 3, 2, 1};
  EXPECT_EQ(g.out_h(), 4u);
  EXPECT_EQ(g.out_w(), 4u);
  EXPECT_EQ(g.col_rows(), 27u);
}

TEST(ConvGeometry, ValidateRejectsBadConfigs) {
  EXPECT_THROW((ConvGeometry{0, 4, 4, 3, 3, 1, 0}).validate(),
               hadfl::InvalidArgument);
  EXPECT_THROW((ConvGeometry{1, 2, 2, 3, 3, 1, 0}).validate(),
               hadfl::InvalidArgument);
  EXPECT_THROW((ConvGeometry{1, 4, 4, 3, 3, 0, 0}).validate(),
               hadfl::InvalidArgument);
}

TEST(Im2col, IdentityKernelCopiesPixels) {
  // 1x1 kernel: columns == image.
  const std::vector<float> image{1, 2, 3, 4};
  ConvGeometry g{1, 2, 2, 1, 1, 1, 0};
  std::vector<float> cols(g.col_rows() * g.col_cols());
  im2col(image.data(), g, cols.data());
  EXPECT_EQ(cols, image);
}

TEST(Im2col, ExtractsPatchesRowMajor) {
  // 3x3 image, 2x2 kernel, stride 1 -> 4 patches of 4 elements.
  const std::vector<float> image{1, 2, 3, 4, 5, 6, 7, 8, 9};
  ConvGeometry g{1, 3, 3, 2, 2, 1, 0};
  std::vector<float> cols(g.col_rows() * g.col_cols());
  im2col(image.data(), g, cols.data());
  // Row r of cols = kernel offset (kh, kw); column = output position.
  // Patch at output (0,0) is {1,2,4,5}: cols[r][0].
  EXPECT_EQ(cols[0 * 4 + 0], 1);
  EXPECT_EQ(cols[1 * 4 + 0], 2);
  EXPECT_EQ(cols[2 * 4 + 0], 4);
  EXPECT_EQ(cols[3 * 4 + 0], 5);
  // Patch at output (1,1) is {5,6,8,9}: column 3.
  EXPECT_EQ(cols[0 * 4 + 3], 5);
  EXPECT_EQ(cols[3 * 4 + 3], 9);
}

TEST(Im2col, ZeroPadsOutsidePixels) {
  const std::vector<float> image{1, 2, 3, 4};
  ConvGeometry g{1, 2, 2, 3, 3, 1, 1};  // pad 1 -> out 2x2
  std::vector<float> cols(g.col_rows() * g.col_cols());
  im2col(image.data(), g, cols.data());
  // Kernel offset (0,0) at output (0,0) reads padded (-1,-1) -> 0.
  EXPECT_EQ(cols[0], 0.0f);
  // Kernel offset (1,1) (centre) at output (0,0) reads (0,0) -> 1.
  EXPECT_EQ(cols[4 * 4 + 0], 1.0f);
}

TEST(Im2col, MultiChannelStacksChannelBlocks) {
  // 2 channels of 2x2, 1x1 kernel.
  const std::vector<float> image{1, 2, 3, 4, 10, 20, 30, 40};
  ConvGeometry g{2, 2, 2, 1, 1, 1, 0};
  std::vector<float> cols(g.col_rows() * g.col_cols());
  im2col(image.data(), g, cols.data());
  EXPECT_EQ(cols[0 * 4 + 2], 3.0f);   // channel 0 block
  EXPECT_EQ(cols[1 * 4 + 2], 30.0f);  // channel 1 block
}

TEST(Col2im, InverseOfIm2colForNonOverlapping) {
  // Stride == kernel -> patches don't overlap: col2im(im2col(x)) == x.
  const std::vector<float> image{1, 2, 3, 4, 5, 6, 7, 8,
                                 9, 10, 11, 12, 13, 14, 15, 16};
  ConvGeometry g{1, 4, 4, 2, 2, 2, 0};
  std::vector<float> cols(g.col_rows() * g.col_cols());
  im2col(image.data(), g, cols.data());
  std::vector<float> back(image.size(), 0.0f);
  col2im(cols.data(), g, back.data());
  EXPECT_EQ(back, image);
}

TEST(Col2im, AccumulatesOverlaps) {
  // 3x3 image, 2x2 kernel stride 1: centre pixel (1,1) is covered by all 4
  // patches, so col2im of all-ones columns puts 4 there.
  ConvGeometry g{1, 3, 3, 2, 2, 1, 0};
  std::vector<float> cols(g.col_rows() * g.col_cols(), 1.0f);
  std::vector<float> image(9, 0.0f);
  col2im(cols.data(), g, image.data());
  EXPECT_EQ(image[4], 4.0f);  // centre
  EXPECT_EQ(image[0], 1.0f);  // corner covered once
  EXPECT_EQ(image[1], 2.0f);  // edge covered twice
}

TEST(Col2im, SkipsPaddedRegion) {
  ConvGeometry g{1, 2, 2, 3, 3, 1, 1};
  std::vector<float> cols(g.col_rows() * g.col_cols(), 1.0f);
  std::vector<float> image(4, 0.0f);
  col2im(cols.data(), g, image.data());
  // Every in-bounds pixel accumulates exactly the number of kernel
  // positions that cover it; with 3x3 kernel and pad 1 on 2x2, each pixel
  // is covered by all 4 output positions.
  for (float v : image) EXPECT_EQ(v, 4.0f);
}

TEST(Lowering, MatchesPerElementOracleByteForByte) {
  // Seeded sweep over non-square images and kernels, strides 1-3 and pads
  // 0-2 (pad >= kernel makes whole columns padding), 1-3 samples placed
  // inside wider rows, with special values everywhere.
  std::mt19937 rng(20261020);
  std::uniform_int_distribution<std::size_t> channels(1, 5);
  std::uniform_int_distribution<std::size_t> side(1, 9);
  std::uniform_int_distribution<std::size_t> kernel(1, 5);
  std::uniform_int_distribution<std::size_t> stride(1, 3);
  std::uniform_int_distribution<std::size_t> pad(0, 2);
  std::uniform_int_distribution<std::size_t> samples(1, 3);
  std::uniform_int_distribution<std::size_t> slack(0, 3);
  std::size_t cases = 0;
  while (cases < 3000) {
    const ConvGeometry g{channels(rng), side(rng),   side(rng), kernel(rng),
                         kernel(rng),   stride(rng), pad(rng)};
    if (g.height + 2 * g.pad < g.kernel_h || g.width + 2 * g.pad < g.kernel_w) {
      continue;
    }
    const std::size_t n = samples(rng);
    const std::size_t lead = slack(rng);
    const std::size_t row_stride = lead + n * g.col_cols() + slack(rng);
    ASSERT_TRUE(matches_oracle(g, n, lead, row_stride, rng))
        << describe(g, n, row_stride);
    ++cases;
  }
}

TEST(Lowering, MatchesOracleOnZooShapes) {
  // The conv planes of the zoo models at the scenario's 8x8 inputs and the
  // default 16x16 (base width 8): every fixed-width row loop, and the 1x1
  // stride-2 unpadded shortcuts.
  std::mt19937 rng(7);
  for (std::size_t side : {16, 8, 4, 2, 1}) {
    for (std::size_t channels : {3, 8, 64}) {
      const ConvGeometry shapes[] = {
          {channels, side, side, 3, 3, 1, 1},
          {channels, side, side, 3, 3, 2, 1},
          {channels, side, side, 1, 1, 2, 0},
      };
      for (const ConvGeometry& g : shapes) {
        const std::size_t row_stride = 3 * g.col_cols() + 1;
        ASSERT_TRUE(matches_oracle(g, 3, 1, row_stride, rng))
            << describe(g, 3, row_stride);
      }
    }
  }
}

}  // namespace
}  // namespace hadfl::ops
