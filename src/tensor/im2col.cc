#include "tensor/im2col.h"

namespace tablegan {
namespace ops {

// Both transforms are pure data movement (plus one add per target cell
// for Col2Im), so no instruction set can change their bits: every kernel
// backend's im2col/col2im entry points here. The DCGAN networks only run
// 4x4, stride-2 convolutions over small images, where these loops were
// measured no slower than a hand-vectorized copy (DESIGN.md §12).

void Im2Col(const Conv2dGeometry& g, const float* img, float* cols) {
  const int64_t oh = g.out_h(), ow = g.out_w();
  const int64_t out_spatial = oh * ow;
  int64_t row = 0;
  for (int64_t c = 0; c < g.in_channels; ++c) {
    const float* channel = img + c * g.in_h * g.in_w;
    for (int64_t ky = 0; ky < g.kernel; ++ky) {
      for (int64_t kx = 0; kx < g.kernel; ++kx, ++row) {
        float* out_row = cols + row * out_spatial;
        for (int64_t y = 0; y < oh; ++y) {
          const int64_t iy = y * g.stride + ky - g.padding;
          for (int64_t x = 0; x < ow; ++x) {
            const int64_t ix = x * g.stride + kx - g.padding;
            const bool inside =
                iy >= 0 && iy < g.in_h && ix >= 0 && ix < g.in_w;
            out_row[y * ow + x] = inside ? channel[iy * g.in_w + ix] : 0.0f;
          }
        }
      }
    }
  }
}

void Col2Im(const Conv2dGeometry& g, const float* cols, float* img) {
  const int64_t oh = g.out_h(), ow = g.out_w();
  const int64_t out_spatial = oh * ow;
  int64_t row = 0;
  for (int64_t c = 0; c < g.in_channels; ++c) {
    float* channel = img + c * g.in_h * g.in_w;
    for (int64_t ky = 0; ky < g.kernel; ++ky) {
      for (int64_t kx = 0; kx < g.kernel; ++kx, ++row) {
        const float* in_row = cols + row * out_spatial;
        for (int64_t y = 0; y < oh; ++y) {
          const int64_t iy = y * g.stride + ky - g.padding;
          if (iy < 0 || iy >= g.in_h) continue;
          for (int64_t x = 0; x < ow; ++x) {
            const int64_t ix = x * g.stride + kx - g.padding;
            if (ix < 0 || ix >= g.in_w) continue;
            channel[iy * g.in_w + ix] += in_row[y * ow + x];
          }
        }
      }
    }
  }
}

}  // namespace ops
}  // namespace tablegan
