#include "nn/activations.h"

#include "tensor/kernels/kernels.h"

namespace tablegan {
namespace nn {

// Forward/Backward write into pooled buffers (NewBuffer) through the
// tensor/kernels elementwise kernels, which keep the original
// per-element float expressions, so results are bitwise identical with
// or without a bound workspace. Only tanh's backward dispatches on the
// ISA (its 1 - y*y is contractible); the rest have one implementation.
// The cached activations are copy-assigned members: their capacity is
// reused across steps, so steady-state caching does not allocate
// either. Infer reuses the same kernels in place (`y` may alias `x`).

Tensor ReLU::Forward(const Tensor& input, bool /*training*/) {
  cached_input_ = input;
  Tensor out = NewBuffer(input.shape());
  kernels::Relu(out.size(), input.data(), out.data());
  return out;
}

Tensor ReLU::Backward(const Tensor& grad_output) {
  TABLEGAN_CHECK(grad_output.SameShape(cached_input_));
  Tensor grad = NewBuffer(grad_output.shape());
  kernels::ReluBwd(grad.size(), cached_input_.data(), grad_output.data(),
                   grad.data());
  return grad;
}

Tensor ReLU::Infer(const Tensor& input) const {
  Tensor out = input;
  kernels::Relu(out.size(), out.data(), out.data());
  return out;
}

Tensor LeakyReLU::Forward(const Tensor& input, bool /*training*/) {
  cached_input_ = input;
  Tensor out = NewBuffer(input.shape());
  kernels::LeakyRelu(out.size(), negative_slope_, input.data(), out.data());
  return out;
}

Tensor LeakyReLU::Backward(const Tensor& grad_output) {
  TABLEGAN_CHECK(grad_output.SameShape(cached_input_));
  Tensor grad = NewBuffer(grad_output.shape());
  kernels::LeakyReluBwd(grad.size(), negative_slope_, cached_input_.data(),
                        grad_output.data(), grad.data());
  return grad;
}

Tensor LeakyReLU::Infer(const Tensor& input) const {
  Tensor out = input;
  kernels::LeakyRelu(out.size(), negative_slope_, out.data(), out.data());
  return out;
}

Tensor Tanh::Forward(const Tensor& input, bool /*training*/) {
  Tensor out = NewBuffer(input.shape());
  kernels::TanhFwd(out.size(), input.data(), out.data());
  cached_output_ = out;
  return out;
}

Tensor Tanh::Backward(const Tensor& grad_output) {
  TABLEGAN_CHECK(grad_output.SameShape(cached_output_));
  Tensor grad = NewBuffer(grad_output.shape());
  kernels::Active().tanh_bwd(grad.size(), cached_output_.data(),
                             grad_output.data(), grad.data());
  return grad;
}

Tensor Tanh::Infer(const Tensor& input) const {
  Tensor out = input;
  kernels::TanhFwd(out.size(), out.data(), out.data());
  return out;
}

Tensor Sigmoid::Forward(const Tensor& input, bool /*training*/) {
  Tensor out = NewBuffer(input.shape());
  kernels::SigmoidFwd(out.size(), input.data(), out.data());
  cached_output_ = out;
  return out;
}

Tensor Sigmoid::Backward(const Tensor& grad_output) {
  TABLEGAN_CHECK(grad_output.SameShape(cached_output_));
  Tensor grad = NewBuffer(grad_output.shape());
  kernels::SigmoidBwd(grad.size(), cached_output_.data(), grad_output.data(),
                      grad.data());
  return grad;
}

Tensor Sigmoid::Infer(const Tensor& input) const {
  Tensor out = input;
  kernels::SigmoidFwd(out.size(), out.data(), out.data());
  return out;
}

}  // namespace nn
}  // namespace tablegan
