#include "nn/conv_transpose2d.h"

#include <sstream>
#include <vector>

#include "common/parallel.h"
#include "tensor/matmul.h"

namespace tablegan {
namespace nn {

// Threading model mirrors Conv2d: batch-parallel over a FixedChunks
// partition of the sample dimension, with weight/bias gradients reduced
// over per-chunk partials in chunk order so results are bitwise identical
// at any thread count.

ConvTranspose2d::ConvTranspose2d(int64_t in_channels, int64_t out_channels,
                                 int64_t kernel, int64_t stride,
                                 int64_t padding, bool bias)
    : in_channels_(in_channels),
      out_channels_(out_channels),
      kernel_(kernel),
      stride_(stride),
      padding_(padding),
      has_bias_(bias),
      weight_({in_channels, out_channels * kernel * kernel}),
      bias_({bias ? out_channels : 0}),
      grad_weight_({in_channels, out_channels * kernel * kernel}),
      grad_bias_({bias ? out_channels : 0}) {}

ops::Conv2dGeometry ConvTranspose2d::OutputGeometry(int64_t in_h,
                                                    int64_t in_w) const {
  const int64_t out_h = (in_h - 1) * stride_ - 2 * padding_ + kernel_;
  const int64_t out_w = (in_w - 1) * stride_ - 2 * padding_ + kernel_;
  ops::Conv2dGeometry g{out_channels_, out_h, out_w, kernel_, stride_,
                        padding_};
  TABLEGAN_CHECK(g.out_h() == in_h && g.out_w() == in_w)
      << "incompatible transposed-conv geometry";
  return g;
}

void ConvTranspose2d::EnsureChunkScratch(int64_t count, int64_t patch,
                                         int64_t spatial) {
  if (static_cast<int64_t>(chunk_cols_.size()) < count) {
    chunk_cols_.resize(static_cast<size_t>(count));
    dw_partials_.resize(static_cast<size_t>(count));
    if (has_bias_) db_partials_.resize(static_cast<size_t>(count));
  }
  for (int64_t c = 0; c < count; ++c) {
    chunk_cols_[static_cast<size_t>(c)].ResizeUninitialized(
        {patch, spatial});
    dw_partials_[static_cast<size_t>(c)].ResizeUninitialized(
        {in_channels_, patch});
    if (has_bias_) {
      db_partials_[static_cast<size_t>(c)].ResizeUninitialized(
          {out_channels_});
    }
  }
}

Tensor ConvTranspose2d::Forward(const Tensor& input, bool /*training*/) {
  cached_input_ = input;
  return Infer(input);
}

Tensor ConvTranspose2d::Infer(const Tensor& input) const {
  TABLEGAN_CHECK(input.rank() == 4 && input.dim(1) == in_channels_)
      << "ConvTranspose2d input " << ShapeToString(input.shape());
  const int64_t n = input.dim(0);
  const int64_t in_h = input.dim(2), in_w = input.dim(3);
  const int64_t in_spatial = in_h * in_w;
  ops::Conv2dGeometry g = OutputGeometry(in_h, in_w);
  const int64_t out_spatial = g.in_h * g.in_w;

  // Col2Im accumulates into the output, so it starts zeroed; cols is
  // fully overwritten by RawGemmTN (accumulate=false).
  Tensor output({n, out_channels_, g.in_h, g.in_w});
  const int64_t in_sample = in_channels_ * in_spatial;
  const int64_t out_sample = out_channels_ * out_spatial;
  const FixedChunks chunks(n, kDefaultBatchChunks);
  ParallelFor(chunks.count, 1, [&](int64_t c0, int64_t c1) {
    Tensor cols = Tensor::Uninitialized({g.patch_size(), in_spatial});
    for (int64_t c = c0; c < c1; ++c) {
      for (int64_t i = chunks.begin(c); i < chunks.end(c); ++i) {
        // cols = W^T * x ; output = col2im(cols)
        ops::RawGemmTN(g.patch_size(), in_spatial, in_channels_,
                       weight_.data(), input.data() + i * in_sample,
                       cols.data(), /*accumulate=*/false);
        ops::Col2Im(g, cols.data(), output.data() + i * out_sample);
        if (has_bias_) {
          float* out_slice = output.data() + i * out_sample;
          for (int64_t ch = 0; ch < out_channels_; ++ch) {
            const float b = bias_[ch];
            float* row = out_slice + ch * out_spatial;
            for (int64_t s = 0; s < out_spatial; ++s) row[s] += b;
          }
        }
      }
    }
  });
  return output;
}

Tensor ConvTranspose2d::Backward(const Tensor& grad_output) {
  const Tensor& input = cached_input_;
  TABLEGAN_CHECK(!input.empty()) << "Backward before Forward";
  const int64_t n = input.dim(0);
  const int64_t in_h = input.dim(2), in_w = input.dim(3);
  const int64_t in_spatial = in_h * in_w;
  ops::Conv2dGeometry g = OutputGeometry(in_h, in_w);
  const int64_t out_spatial = g.in_h * g.in_w;
  TABLEGAN_CHECK(grad_output.rank() == 4 && grad_output.dim(0) == n &&
                 grad_output.dim(1) == out_channels_ &&
                 grad_output.dim(2) == g.in_h && grad_output.dim(3) == g.in_w);

  // Every sample slice of grad_input is fully overwritten by RawGemmNN
  // (accumulate=false), so it is safe uninitialized.
  Tensor grad_input = Tensor::Uninitialized(input.shape());
  const int64_t in_sample = in_channels_ * in_spatial;
  const int64_t out_sample = out_channels_ * out_spatial;
  const FixedChunks chunks(n, kDefaultBatchChunks);
  EnsureChunkScratch(chunks.count, g.patch_size(), in_spatial);
  std::vector<Tensor>& dw = dw_partials_;
  std::vector<Tensor>& db = db_partials_;
  ParallelFor(chunks.count, 1, [&](int64_t c0, int64_t c1) {
    for (int64_t c = c0; c < c1; ++c) {
      Tensor& cols = chunk_cols_[static_cast<size_t>(c)];
      auto& dw_c = dw[static_cast<size_t>(c)];
      dw_c.SetZero();
      if (has_bias_) db[static_cast<size_t>(c)].SetZero();
      for (int64_t i = chunks.begin(c); i < chunks.end(c); ++i) {
        const float* go_slice = grad_output.data() + i * out_sample;
        // cols = im2col(dOut) over the *output* geometry.
        ops::Im2Col(g, go_slice, cols.data());
        // dX = W * cols
        ops::RawGemmNN(in_channels_, in_spatial, g.patch_size(),
                       weight_.data(), cols.data(),
                       grad_input.data() + i * in_sample,
                       /*accumulate=*/false);
        // dW_c += x * cols^T
        ops::RawGemmNT(in_channels_, g.patch_size(), in_spatial,
                       input.data() + i * in_sample, cols.data(),
                       dw_c.data(), /*accumulate=*/true);
        if (has_bias_) {
          float* db_c = db[static_cast<size_t>(c)].data();
          for (int64_t ch = 0; ch < out_channels_; ++ch) {
            const float* row = go_slice + ch * out_spatial;
            float acc = 0.0f;
            for (int64_t s = 0; s < out_spatial; ++s) acc += row[s];
            db_c[ch] += acc;
          }
        }
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

std::vector<Tensor*> ConvTranspose2d::Parameters() {
  std::vector<Tensor*> p{&weight_};
  if (has_bias_) p.push_back(&bias_);
  return p;
}

std::vector<Tensor*> ConvTranspose2d::Gradients() {
  std::vector<Tensor*> p{&grad_weight_};
  if (has_bias_) p.push_back(&grad_bias_);
  return p;
}

std::string ConvTranspose2d::name() const {
  std::ostringstream os;
  os << "ConvTranspose2d(" << in_channels_ << "->" << out_channels_ << ",k"
     << kernel_ << ",s" << stride_ << ",p" << padding_ << ")";
  return os.str();
}

}  // namespace nn
}  // namespace tablegan
