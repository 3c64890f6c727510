#ifndef TABLEGAN_TENSOR_IM2COL_H_
#define TABLEGAN_TENSOR_IM2COL_H_

#include "tensor/tensor.h"

namespace tablegan {
namespace ops {

/// Parameters of a 2-D convolution (square kernels / strides / padding,
/// which is all DCGAN uses).
struct Conv2dGeometry {
  int64_t in_channels = 0;
  int64_t in_h = 0;
  int64_t in_w = 0;
  int64_t kernel = 0;
  int64_t stride = 1;
  int64_t padding = 0;

  int64_t out_h() const { return (in_h + 2 * padding - kernel) / stride + 1; }
  int64_t out_w() const { return (in_w + 2 * padding - kernel) / stride + 1; }
  /// Rows of the im2col matrix: C_in * K * K.
  int64_t patch_size() const { return in_channels * kernel * kernel; }
};

/// Unfolds one image `img` (rank-3 view [C, H, W] given as pointer into a
/// NCHW tensor) into the first out_h*out_w columns of `cols`, a
/// [patch_size, ld] row-major matrix (column-major patches), so that
/// conv = W_matrix * cols. Columns past out_h*out_w are left untouched,
/// which lets a caller lay several images side by side in one matrix by
/// offsetting `cols` by i*out_h*out_w and passing ld = images*out_h*out_w.
void Im2Col(const Conv2dGeometry& g, const float* img, float* cols,
            int64_t ld);
/// Im2Col into a contiguous [patch_size, out_h*out_w] matrix.
void Im2Col(const Conv2dGeometry& g, const float* img, float* cols);

/// Transpose of Im2Col: accumulates the first out_h*out_w columns of the
/// [patch_size, ld] matrix `cols` back into the (zeroed by caller) image
/// gradient. Used in conv backward and transposed-conv forward.
void Col2Im(const Conv2dGeometry& g, const float* cols, int64_t ld,
            float* img);
/// Col2Im from a contiguous [patch_size, out_h*out_w] matrix.
void Col2Im(const Conv2dGeometry& g, const float* cols, float* img);

}  // namespace ops
}  // namespace tablegan

#endif  // TABLEGAN_TENSOR_IM2COL_H_
