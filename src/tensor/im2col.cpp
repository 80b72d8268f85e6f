#include "tensor/im2col.hpp"

#include <algorithm>
#include <vector>

#include "common/error.hpp"
#include "common/simd.hpp"

namespace hadfl::ops {

void ConvGeometry::validate() const {
  HADFL_CHECK_ARG(channels > 0 && height > 0 && width > 0,
                  "conv geometry requires positive input dims");
  HADFL_CHECK_ARG(kernel_h > 0 && kernel_w > 0, "conv kernel must be positive");
  HADFL_CHECK_ARG(stride > 0, "conv stride must be positive");
  HADFL_CHECK_ARG(height + 2 * pad >= kernel_h && width + 2 * pad >= kernel_w,
                  "kernel " << kernel_h << "x" << kernel_w
                            << " larger than padded input " << (height + 2 * pad)
                            << "x" << (width + 2 * pad));
}

namespace {

/// The bordered plane of one (sample, channel): (H + 2P) x (W + 2P) floats,
/// image pixel (y, x) at [(y + P) * (W + 2P) + x + P]. Output pixel (oy, ox)
/// of tap (kh, kw) reads padded pixel (oy * S + kh, ox * S + kw), which is
/// always inside the plane, so no row loop tests a bound. One buffer per
/// thread, zeroed on construction; the border stays zero while only the
/// interior is rewritten.
class PaddedPlane {
 public:
  explicit PaddedPlane(const ConvGeometry& g)
      : g_(g), pw_(g.width + 2 * g.pad) {
    thread_local std::vector<float> buffer;
    const std::size_t size = pw_ * (g.height + 2 * g.pad);
    if (buffer.size() < size) buffer.resize(size);
    data_ = buffer.data();
    std::fill_n(data_, size, 0.0f);
  }

  std::size_t width() const { return pw_; }
  float* data() { return data_; }

  /// Copies a (H, W) image plane into the interior.
  void load(const float* HADFL_RESTRICT plane) {
    float* HADFL_RESTRICT dst = data_ + g_.pad * pw_ + g_.pad;
    for (std::size_t y = 0; y < g_.height; ++y, dst += pw_, plane += g_.width) {
      std::copy_n(plane, g_.width, dst);
    }
  }

  /// Copies the interior back into a (H, W) image plane.
  void store(float* HADFL_RESTRICT plane) const {
    const float* HADFL_RESTRICT src = data_ + g_.pad * pw_ + g_.pad;
    for (std::size_t y = 0; y < g_.height; ++y, src += pw_, plane += g_.width) {
      std::copy_n(src, g_.width, plane);
    }
  }

 private:
  const ConvGeometry& g_;
  std::size_t pw_;
  float* data_ = nullptr;
};

/// im2col of one image. kOw / kStride are the output width and stride when
/// non-zero (the row loops then have a fixed trip count and unroll), and
/// read from `g` when zero.
struct Unfold {
  template <std::size_t kOw, std::size_t kStride>
  static void run(const float* image, const ConvGeometry& g, float* columns,
                  std::size_t row_stride) {
    const std::size_t ow = kOw != 0 ? kOw : g.out_w();
    const std::size_t stride = kStride != 0 ? kStride : g.stride;
    const std::size_t oh = g.out_h();
    PaddedPlane padded(g);
    const std::size_t pw = padded.width();
    std::size_t row = 0;
    for (std::size_t c = 0; c < g.channels; ++c) {
      padded.load(image + c * g.height * g.width);
      for (std::size_t kh = 0; kh < g.kernel_h; ++kh) {
        for (std::size_t kw = 0; kw < g.kernel_w; ++kw, ++row) {
          const float* HADFL_RESTRICT in = padded.data() + kh * pw + kw;
          float* HADFL_RESTRICT out = columns + row * row_stride;
          for (std::size_t y = 0; y < oh; ++y, in += stride * pw, out += ow) {
            for (std::size_t x = 0; x < ow; ++x) out[x] = in[x * stride];
          }
        }
      }
    }
  }
};

/// col2im of one image; template parameters as for Unfold. Each padded
/// pixel receives its taps' contributions in (kh, kw) order, on top of the
/// image's own value, exactly as a per-element fold adds them; the
/// contributions that land in the border are dropped with it.
struct Fold {
  template <std::size_t kOw, std::size_t kStride>
  static void run(const float* columns, const ConvGeometry& g, float* image,
                  std::size_t row_stride) {
    const std::size_t ow = kOw != 0 ? kOw : g.out_w();
    const std::size_t stride = kStride != 0 ? kStride : g.stride;
    const std::size_t oh = g.out_h();
    PaddedPlane padded(g);
    const std::size_t pw = padded.width();
    std::size_t row = 0;
    for (std::size_t c = 0; c < g.channels; ++c) {
      float* chan = image + c * g.height * g.width;
      padded.load(chan);
      for (std::size_t kh = 0; kh < g.kernel_h; ++kh) {
        for (std::size_t kw = 0; kw < g.kernel_w; ++kw, ++row) {
          float* HADFL_RESTRICT acc = padded.data() + kh * pw + kw;
          const float* HADFL_RESTRICT in = columns + row * row_stride;
          for (std::size_t y = 0; y < oh; ++y, acc += stride * pw, in += ow) {
            for (std::size_t x = 0; x < ow; ++x) acc[x * stride] += in[x];
          }
        }
      }
      padded.store(chan);
    }
  }
};

/// Runs `Lowering` with a fixed-width row loop when the output width and
/// stride are ones the zoo models use (widths 1, 2, 4, 8 and 16 at strides
/// 1 and 2), and with the runtime loop otherwise.
template <typename Lowering, std::size_t kStride, typename... Args>
bool run_fixed_width(std::size_t ow, const Args&... args) {
  switch (ow) {
    case 1: Lowering::template run<1, kStride>(args...); return true;
    case 2: Lowering::template run<2, kStride>(args...); return true;
    case 4: Lowering::template run<4, kStride>(args...); return true;
    case 8: Lowering::template run<8, kStride>(args...); return true;
    case 16: Lowering::template run<16, kStride>(args...); return true;
    default: return false;
  }
}

template <typename Lowering, typename In, typename Out>
void run_lowering(In in, const ConvGeometry& g, Out out,
                  std::size_t row_stride) {
  const std::size_t ow = g.out_w();
  if (g.stride == 1 &&
      run_fixed_width<Lowering, 1>(ow, in, g, out, row_stride)) {
    return;
  }
  if (g.stride == 2 &&
      run_fixed_width<Lowering, 2>(ow, in, g, out, row_stride)) {
    return;
  }
  Lowering::template run<0, 0>(in, g, out, row_stride);
}

}  // namespace

void im2col(const float* image, const ConvGeometry& g, float* columns,
            std::size_t row_stride) {
  run_lowering<Unfold>(image, g, columns, row_stride);
}

void col2im(const float* columns, const ConvGeometry& g, float* image,
            std::size_t row_stride) {
  run_lowering<Fold>(columns, g, image, row_stride);
}

}  // namespace hadfl::ops
