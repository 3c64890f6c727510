#include "nn/conv2d.h"

#include <algorithm>
#include <sstream>
#include <vector>

#include "common/parallel.h"
#include "tensor/matmul.h"

namespace tablegan {
namespace nn {

// Threading model: both passes run batch-parallel over a FixedChunks
// partition of the sample dimension. Chunk boundaries depend only on the
// batch size, each sample's arithmetic is self-contained, and the weight/
// bias gradients accumulate into per-chunk partials that are combined
// serially in chunk order — so results are bitwise identical at any
// thread count.
//
// Within a chunk, the images sit side by side along N: the im2col patches
// of image i fill columns [i*spatial, (i+1)*spatial) of one
// [patch, images*spatial] matrix, so the forward NN and the backward TN
// GEMM run once per chunk. Every output element still sums its k terms in
// ascending order with the same zero-skip, so no bit depends on how many
// images share a chunk. The weight-gradient NT GEMM and the bias sums
// stay per image, in image order: batching them would reorder their sums.

Conv2d::Conv2d(int64_t in_channels, int64_t out_channels, int64_t kernel,
               int64_t stride, int64_t padding, bool bias)
    : in_channels_(in_channels),
      out_channels_(out_channels),
      kernel_(kernel),
      stride_(stride),
      padding_(padding),
      has_bias_(bias),
      weight_({out_channels, in_channels * kernel * kernel}),
      bias_({bias ? out_channels : 0}),
      grad_weight_({out_channels, in_channels * kernel * kernel}),
      grad_bias_({bias ? out_channels : 0}) {}

void Conv2d::EnsureChunkScratch(int64_t count, int64_t patch) {
  if (static_cast<int64_t>(dw_partials_.size()) < count) {
    dw_partials_.resize(static_cast<size_t>(count));
    if (has_bias_) db_partials_.resize(static_cast<size_t>(count));
  }
  for (int64_t c = 0; c < count; ++c) {
    dw_partials_[static_cast<size_t>(c)].ResizeUninitialized(
        {out_channels_, patch});
    if (has_bias_) {
      db_partials_[static_cast<size_t>(c)].ResizeUninitialized(
          {out_channels_});
    }
  }
}

Tensor Conv2d::Forward(const Tensor& input, bool /*training*/) {
  cached_input_ = input;
  return Infer(input);
}

Tensor Conv2d::Infer(const Tensor& input) const {
  TABLEGAN_CHECK(input.rank() == 4 && input.dim(1) == in_channels_)
      << "Conv2d input " << ShapeToString(input.shape());
  const int64_t n = input.dim(0);
  ops::Conv2dGeometry g{in_channels_, input.dim(2), input.dim(3), kernel_,
                        stride_, padding_};
  const int64_t oh = g.out_h(), ow = g.out_w(), spatial = oh * ow;
  TABLEGAN_CHECK(oh > 0 && ow > 0);
  // Uninitialized is safe for every buffer: Im2Col writes every column
  // element (padding included), RawGemmNN with accumulate=false overwrites
  // `out`, and every output element is written from it.
  Tensor output = Tensor::Uninitialized({n, out_channels_, oh, ow});
  const int64_t in_sample = in_channels_ * g.in_h * g.in_w;
  const FixedChunks chunks(n, kDefaultBatchChunks);
  ParallelFor(chunks.count, 1, [&](int64_t c0, int64_t c1) {
    Tensor cols, out;
    for (int64_t c = c0; c < c1; ++c) {
      const int64_t i0 = chunks.begin(c), images = chunks.end(c) - i0;
      const int64_t ld = images * spatial;
      cols.ResizeUninitialized({g.patch_size(), ld});
      out.ResizeUninitialized({out_channels_, ld});
      for (int64_t i = 0; i < images; ++i) {
        ops::Im2Col(g, input.data() + (i0 + i) * in_sample,
                    cols.data() + i * spatial, ld);
      }
      ops::RawGemmNN(out_channels_, ld, g.patch_size(), weight_.data(),
                     cols.data(), out.data(), /*accumulate=*/false);
      // [out_ch, images*spatial] -> the chunk's NCHW slices, plus bias.
      for (int64_t i = 0; i < images; ++i) {
        float* out_slice = output.data() + (i0 + i) * out_channels_ * spatial;
        for (int64_t ch = 0; ch < out_channels_; ++ch) {
          const float* src = out.data() + ch * ld + i * spatial;
          float* row = out_slice + ch * spatial;
          if (has_bias_) {
            const float b = bias_[ch];
            for (int64_t s = 0; s < spatial; ++s) row[s] = src[s] + b;
          } else {
            std::copy(src, src + spatial, row);
          }
        }
      }
    }
  });
  return output;
}

Tensor Conv2d::Backward(const Tensor& grad_output) {
  const Tensor& input = cached_input_;
  TABLEGAN_CHECK(!input.empty()) << "Backward before Forward";
  const int64_t n = input.dim(0);
  ops::Conv2dGeometry g{in_channels_, input.dim(2), input.dim(3), kernel_,
                        stride_, padding_};
  const int64_t oh = g.out_h(), ow = g.out_w(), spatial = oh * ow;
  TABLEGAN_CHECK(grad_output.rank() == 4 && grad_output.dim(0) == n &&
                 grad_output.dim(1) == out_channels_ &&
                 grad_output.dim(2) == oh && grad_output.dim(3) == ow);

  // Col2Im accumulates into its target, so grad_input starts zeroed.
  Tensor grad_input(input.shape());
  const int64_t in_sample = in_channels_ * g.in_h * g.in_w;
  const int64_t out_sample = out_channels_ * spatial;
  const FixedChunks chunks(n, kDefaultBatchChunks);
  EnsureChunkScratch(chunks.count, g.patch_size());
  std::vector<Tensor>& dw = dw_partials_;
  std::vector<Tensor>& db = db_partials_;
  ParallelFor(chunks.count, 1, [&](int64_t c0, int64_t c1) {
    // Per task, as in Infer: im2col patches are fully overwritten per
    // sample, `go` by the gather and `grad_cols` by RawGemmTN.
    Tensor cols = Tensor::Uninitialized({g.patch_size(), spatial});
    Tensor go, grad_cols;
    for (int64_t c = c0; c < c1; ++c) {
      auto& dw_c = dw[static_cast<size_t>(c)];
      dw_c.SetZero();
      if (has_bias_) db[static_cast<size_t>(c)].SetZero();
      const int64_t i0 = chunks.begin(c), images = chunks.end(c) - i0;
      const int64_t ld = images * spatial;
      go.ResizeUninitialized({out_channels_, ld});
      grad_cols.ResizeUninitialized({g.patch_size(), ld});
      for (int64_t i = 0; i < images; ++i) {
        const float* go_slice = grad_output.data() + (i0 + i) * out_sample;
        // dW_c += dOut * cols^T  (recompute cols; cheaper than caching N
        // copies)
        ops::Im2Col(g, input.data() + (i0 + i) * in_sample, cols.data());
        ops::RawGemmNT(out_channels_, g.patch_size(), spatial, go_slice,
                       cols.data(), dw_c.data(), /*accumulate=*/true);
        if (has_bias_) {
          float* db_c = db[static_cast<size_t>(c)].data();
          for (int64_t ch = 0; ch < out_channels_; ++ch) {
            const float* row = go_slice + ch * spatial;
            float acc = 0.0f;
            for (int64_t s = 0; s < spatial; ++s) acc += row[s];
            db_c[ch] += acc;
          }
        }
        // Gather dOut_i into columns [i*spatial, (i+1)*spatial) of `go`.
        for (int64_t ch = 0; ch < out_channels_; ++ch) {
          const float* row = go_slice + ch * spatial;
          std::copy(row, row + spatial, go.data() + ch * ld + i * spatial);
        }
      }
      // dCols = W^T * dOut over the chunk; dInput_i = col2im(dCols_i)
      ops::RawGemmTN(g.patch_size(), ld, out_channels_, weight_.data(),
                     go.data(), grad_cols.data(), /*accumulate=*/false);
      for (int64_t i = 0; i < images; ++i) {
        ops::Col2Im(g, grad_cols.data() + i * spatial, ld,
                    grad_input.data() + (i0 + i) * in_sample);
      }
    }
  });
  // Combine chunk partials serially in chunk order (fixed reduction order
  // keeps gradients independent of the thread count).
  for (int64_t c = 0; c < chunks.count; ++c) {
    const float* p = dw[static_cast<size_t>(c)].data();
    float* gw = grad_weight_.data();
    for (int64_t idx = 0; idx < grad_weight_.size(); ++idx) gw[idx] += p[idx];
    if (has_bias_) {
      const float* pb = db[static_cast<size_t>(c)].data();
      float* gb = grad_bias_.data();
      for (int64_t ch = 0; ch < out_channels_; ++ch) gb[ch] += pb[ch];
    }
  }
  return grad_input;
}

std::vector<Tensor*> Conv2d::Parameters() {
  std::vector<Tensor*> p{&weight_};
  if (has_bias_) p.push_back(&bias_);
  return p;
}

std::vector<Tensor*> Conv2d::Gradients() {
  std::vector<Tensor*> p{&grad_weight_};
  if (has_bias_) p.push_back(&grad_bias_);
  return p;
}

std::string Conv2d::name() const {
  std::ostringstream os;
  os << "Conv2d(" << in_channels_ << "->" << out_channels_ << ",k" << kernel_
     << ",s" << stride_ << ",p" << padding_ << ")";
  return os.str();
}

}  // namespace nn
}  // namespace tablegan
