#include "nn/activations.h"

#include "tensor/kernels/kernels.h"

namespace tablegan {
namespace nn {

// Infer writes the tensor/kernels elementwise kernels' output into a
// fresh tensor; Forward caches what Backward reads and returns Infer.
// Only tanh's backward dispatches on the ISA (its 1 - y*y is
// contractible); the rest have one implementation. The cached
// activations are copy-assigned members, so their capacity is reused
// across steps.

Tensor ReLU::Forward(const Tensor& input, bool /*training*/) {
  cached_input_ = input;
  return Infer(input);
}

Tensor ReLU::Backward(const Tensor& grad_output) {
  TABLEGAN_CHECK(grad_output.SameShape(cached_input_));
  Tensor grad = Tensor::Uninitialized(grad_output.shape());
  kernels::ReluBwd(grad.size(), cached_input_.data(), grad_output.data(),
                   grad.data());
  return grad;
}

Tensor ReLU::Infer(const Tensor& input) const {
  Tensor out = Tensor::Uninitialized(input.shape());
  kernels::Relu(out.size(), input.data(), out.data());
  return out;
}

Tensor LeakyReLU::Forward(const Tensor& input, bool /*training*/) {
  cached_input_ = input;
  return Infer(input);
}

Tensor LeakyReLU::Backward(const Tensor& grad_output) {
  TABLEGAN_CHECK(grad_output.SameShape(cached_input_));
  Tensor grad = Tensor::Uninitialized(grad_output.shape());
  kernels::LeakyReluBwd(grad.size(), negative_slope_, cached_input_.data(),
                        grad_output.data(), grad.data());
  return grad;
}

Tensor LeakyReLU::Infer(const Tensor& input) const {
  Tensor out = Tensor::Uninitialized(input.shape());
  kernels::LeakyRelu(out.size(), negative_slope_, input.data(), out.data());
  return out;
}

Tensor Tanh::Forward(const Tensor& input, bool /*training*/) {
  cached_output_ = Infer(input);
  return cached_output_;
}

Tensor Tanh::Backward(const Tensor& grad_output) {
  TABLEGAN_CHECK(grad_output.SameShape(cached_output_));
  Tensor grad = Tensor::Uninitialized(grad_output.shape());
  kernels::Active().tanh_bwd(grad.size(), cached_output_.data(),
                             grad_output.data(), grad.data());
  return grad;
}

Tensor Tanh::Infer(const Tensor& input) const {
  Tensor out = Tensor::Uninitialized(input.shape());
  kernels::TanhFwd(out.size(), input.data(), out.data());
  return out;
}

Tensor Sigmoid::Forward(const Tensor& input, bool /*training*/) {
  cached_output_ = Infer(input);
  return cached_output_;
}

Tensor Sigmoid::Backward(const Tensor& grad_output) {
  TABLEGAN_CHECK(grad_output.SameShape(cached_output_));
  Tensor grad = Tensor::Uninitialized(grad_output.shape());
  kernels::SigmoidBwd(grad.size(), cached_output_.data(), grad_output.data(),
                      grad.data());
  return grad;
}

Tensor Sigmoid::Infer(const Tensor& input) const {
  Tensor out = Tensor::Uninitialized(input.shape());
  kernels::SigmoidFwd(out.size(), input.data(), out.data());
  return out;
}

}  // namespace nn
}  // namespace tablegan
