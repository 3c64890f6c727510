#ifndef TABLEGAN_NN_CONV_TRANSPOSE2D_H_
#define TABLEGAN_NN_CONV_TRANSPOSE2D_H_

#include <string>
#include <vector>

#include "nn/layer.h"
#include "tensor/im2col.h"

namespace tablegan {
namespace nn {

/// Strided transposed (fractionally-strided / "de-") convolution over
/// NCHW tensors — the generator building block of the DCGAN architecture
/// (paper §4.1.2). Output side = (in-1)*stride - 2*padding + kernel.
///
/// The forward pass is exactly the data-gradient of a Conv2d whose input
/// is this layer's output, which lets us reuse Im2Col/Col2Im.
class ConvTranspose2d : public Layer {
 public:
  /// Weight shape [in_channels, out_channels * k * k]; bias [out_channels].
  ConvTranspose2d(int64_t in_channels, int64_t out_channels, int64_t kernel,
                  int64_t stride, int64_t padding, bool bias = true);

  Tensor Forward(const Tensor& input, bool training) override;
  Tensor Infer(const Tensor& input) const override;
  Tensor Backward(const Tensor& grad_output) override;

  std::vector<Tensor*> Parameters() override;
  std::vector<Tensor*> Gradients() override;
  std::string name() const override;

  Tensor& weight() { return weight_; }
  Tensor& bias() { return bias_; }
  bool has_bias() const { return has_bias_; }

 private:
  /// Geometry of the *output* image, in Conv2dGeometry terms.
  ops::Conv2dGeometry OutputGeometry(int64_t in_h, int64_t in_w) const;

  /// Grows Backward's per-chunk weight/bias partials to `count` chunks
  /// (see Conv2d; same ownership rules: one FixedChunks id, one set).
  void EnsureChunkScratch(int64_t count, int64_t patch);

  int64_t in_channels_, out_channels_, kernel_, stride_, padding_;
  bool has_bias_;
  Tensor weight_, bias_;
  Tensor grad_weight_, grad_bias_;

  Tensor cached_input_;

  // Backward's per-chunk weight/bias partials (see Conv2d).
  std::vector<Tensor> dw_partials_, db_partials_;
};

}  // namespace nn
}  // namespace tablegan

#endif  // TABLEGAN_NN_CONV_TRANSPOSE2D_H_
