#ifndef TABLEGAN_NN_CONV2D_H_
#define TABLEGAN_NN_CONV2D_H_

#include <string>
#include <vector>

#include "nn/layer.h"
#include "tensor/im2col.h"

namespace tablegan {
namespace nn {

/// Strided 2-D convolution over NCHW tensors, implemented as
/// im2col + GEMM. This is the discriminator/classifier building block of
/// the DCGAN architecture (paper §4.1.1).
class Conv2d : public Layer {
 public:
  /// Weight shape [out_channels, in_channels * k * k]; bias [out_channels]
  /// (omitted when `bias` is false, as DCGAN does before BatchNorm).
  Conv2d(int64_t in_channels, int64_t out_channels, int64_t kernel,
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
  /// Grows Backward's per-chunk weight/bias partials to `count` chunks.
  /// Called single-threaded before the parallel region; each FixedChunks
  /// id then owns its own partials, so tasks never share a buffer.
  void EnsureChunkScratch(int64_t count, int64_t patch);

  int64_t in_channels_, out_channels_, kernel_, stride_, padding_;
  bool has_bias_;
  Tensor weight_, bias_;
  Tensor grad_weight_, grad_bias_;

  Tensor cached_input_;   // saved by Forward for the backward pass

  // Backward's per-chunk weight/bias partials, zeroed at the start of
  // every Backward and summed in chunk order. Its GEMM operands are per
  // task, like Infer's.
  std::vector<Tensor> dw_partials_, db_partials_;
};

}  // namespace nn
}  // namespace tablegan

#endif  // TABLEGAN_NN_CONV2D_H_
