// Property-style sweep over convolution geometries: forward shapes,
// gradient correctness, batch-mate independence, and conv/transposed-conv
// adjointness across kernel/stride/padding/channel combinations (TEST_P
// per paper architecture building block).

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <tuple>
#include <vector>

#include "common/parallel.h"
#include "nn/conv2d.h"
#include "nn/conv_transpose2d.h"
#include "nn/init.h"
#include "tensor/kernels/kernels.h"
#include "test_util.h"

namespace tablegan {
namespace {

// (in_channels, out_channels, kernel, stride, padding, in_h)
using ConvGeom = std::tuple<int, int, int, int, int, int>;

// Restores environment-based backend selection on scope exit.
struct BackendScope {
  explicit BackendScope(const kernels::Backend* b) {
    kernels::OverrideBackend(b);
  }
  ~BackendScope() { kernels::OverrideBackend(nullptr); }
};

// Sample j of an NCHW tensor as a one-sample batch.
Tensor SampleOf(const Tensor& t, int64_t j) {
  const int64_t per = t.size() / t.dim(0);
  Tensor out = Tensor::Uninitialized({1, t.dim(1), t.dim(2), t.dim(3)});
  std::memcpy(out.data(), t.data() + j * per, sizeof(float) * per);
  return out;
}

bool SameBits(const Tensor& batch, int64_t j, const Tensor& single) {
  const int64_t per = single.size();
  return batch.size() == batch.dim(0) * per &&
         std::memcmp(batch.data() + j * per, single.data(),
                     sizeof(float) * per) == 0;
}

// A conv layer lays each FixedChunks chunk's images side by side in one
// GEMM. Every sample's Forward output, Infer output and Backward input
// gradient must still equal, bitwise, those of a batch holding that
// sample alone. The batch sizes give one image per chunk (1, 2, 5, 16),
// uneven chunks of 1-2 and 2-3 images (17, 33) and 4 per chunk (64); each
// runs on every available backend at 1 and 3 threads. Some weights are
// exactly zero so the GEMMs' zero-skip is exercised, and the bias is
// random so its add is too.
template <typename ConvLayer>
void ExpectSamplesIndependentOfBatchMates(const ConvGeom& geom) {
  const auto [ic, oc, k, s, p, h] = geom;
  constexpr int64_t kMaxBatch = 64;
  for (bool bias : {true, false}) {
    Rng rng(6);
    ConvLayer layer(ic, oc, k, s, p, bias);
    nn::DcganInitialize(&layer, &rng);
    for (int64_t i = 0; i < layer.weight().size(); ++i) {
      if (rng.NextBool(0.1)) layer.weight()[i] = 0.0f;
    }
    if (bias) {
      for (int64_t i = 0; i < layer.bias().size(); ++i) {
        layer.bias()[i] = static_cast<float>(rng.Uniform(-1.0f, 1.0f));
      }
    }
    const Tensor x = Tensor::Uniform({kMaxBatch, ic, h, h}, -1, 1, &rng);
    const Tensor y_shape = layer.Infer(SampleOf(x, 0));
    const Tensor dy = Tensor::Uniform(
        {kMaxBatch, y_shape.dim(1), y_shape.dim(2), y_shape.dim(3)}, -1, 1,
        &rng);
    std::vector<const kernels::Backend*> backends{&kernels::Scalar()};
    if (kernels::Avx2() != nullptr) backends.push_back(kernels::Avx2());
    for (const kernels::Backend* backend : backends) {
      BackendScope scope(backend);
      std::vector<Tensor> y1, dx1;
      {
        ScopedNumThreads threads(1);
        for (int64_t j = 0; j < kMaxBatch; ++j) {
          y1.push_back(layer.Forward(SampleOf(x, j), true));
          dx1.push_back(layer.Backward(SampleOf(dy, j)));
        }
      }
      for (int threads : {1, 3}) {
        ScopedNumThreads scoped(threads);
        for (int64_t batch : {1, 2, 5, 16, 17, 33, 64}) {
          const std::string where =
              std::string(backend->name) + " threads=" +
              std::to_string(threads) + " batch=" + std::to_string(batch) +
              " bias=" + std::to_string(bias);
          Tensor xb = Tensor::Uninitialized({batch, ic, h, h});
          std::memcpy(xb.data(), x.data(), sizeof(float) * xb.size());
          Tensor dyb = Tensor::Uninitialized(
              {batch, dy.dim(1), dy.dim(2), dy.dim(3)});
          std::memcpy(dyb.data(), dy.data(), sizeof(float) * dyb.size());
          const Tensor y_infer = layer.Infer(xb);
          const Tensor y = layer.Forward(xb, true);
          const Tensor dx = layer.Backward(dyb);
          for (int64_t j = 0; j < batch; ++j) {
            const size_t u = static_cast<size_t>(j);
            ASSERT_TRUE(SameBits(y, j, y1[u])) << where << " Forward " << j;
            ASSERT_TRUE(SameBits(y_infer, j, y1[u]))
                << where << " Infer " << j;
            ASSERT_TRUE(SameBits(dx, j, dx1[u]))
                << where << " Backward " << j;
          }
        }
      }
    }
  }
}

class ConvSweepTest : public ::testing::TestWithParam<ConvGeom> {};

TEST_P(ConvSweepTest, ForwardShapeMatchesFormula) {
  const auto [ic, oc, k, s, p, h] = GetParam();
  Rng rng(1);
  nn::Conv2d conv(ic, oc, k, s, p);
  nn::DcganInitialize(&conv, &rng);
  Tensor x = Tensor::Uniform({2, ic, h, h}, -1, 1, &rng);
  Tensor y = conv.Forward(x, true);
  const int64_t expected = (h + 2 * p - k) / s + 1;
  EXPECT_EQ(y.shape(), (std::vector<int64_t>{2, oc, expected, expected}));
}

TEST_P(ConvSweepTest, GradientsMatchFiniteDifferences) {
  const auto [ic, oc, k, s, p, h] = GetParam();
  Rng rng(2);
  nn::Conv2d conv(ic, oc, k, s, p);
  nn::DcganInitialize(&conv, &rng);
  for (int64_t i = 0; i < conv.weight().size(); ++i) {
    conv.weight()[i] *= 10.0f;  // lift gradients above fp noise
  }
  testing_util::GradCheckLayer(
      &conv, Tensor::Uniform({2, ic, h, h}, -1, 1, &rng), 1e-2, 5e-2);
}

TEST_P(ConvSweepTest, SampleResultsIndependentOfBatchMates) {
  ExpectSamplesIndependentOfBatchMates<nn::Conv2d>(GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, ConvSweepTest,
    ::testing::Values(ConvGeom{1, 2, 3, 1, 0, 5},   // valid conv
                      ConvGeom{1, 2, 3, 1, 1, 5},   // same conv
                      ConvGeom{2, 3, 4, 2, 1, 8},   // DCGAN block
                      ConvGeom{3, 2, 2, 2, 0, 4},   // non-overlapping
                      ConvGeom{1, 4, 5, 1, 2, 6},   // big kernel
                      ConvGeom{2, 2, 1, 1, 0, 3},   // 1x1 conv
                      ConvGeom{1, 3, 4, 4, 0, 8},   // stride = kernel
                      ConvGeom{4, 1, 3, 2, 1, 7})); // odd size

class DeconvSweepTest : public ::testing::TestWithParam<ConvGeom> {};

TEST_P(DeconvSweepTest, ForwardShapeMatchesFormula) {
  const auto [ic, oc, k, s, p, h] = GetParam();
  Rng rng(3);
  nn::ConvTranspose2d deconv(ic, oc, k, s, p);
  nn::DcganInitialize(&deconv, &rng);
  Tensor x = Tensor::Uniform({2, ic, h, h}, -1, 1, &rng);
  Tensor y = deconv.Forward(x, true);
  const int64_t expected = (h - 1) * s - 2 * p + k;
  EXPECT_EQ(y.shape(), (std::vector<int64_t>{2, oc, expected, expected}));
}

TEST_P(DeconvSweepTest, GradientsMatchFiniteDifferences) {
  const auto [ic, oc, k, s, p, h] = GetParam();
  Rng rng(4);
  nn::ConvTranspose2d deconv(ic, oc, k, s, p);
  nn::DcganInitialize(&deconv, &rng);
  for (int64_t i = 0; i < deconv.weight().size(); ++i) {
    deconv.weight()[i] *= 10.0f;
  }
  testing_util::GradCheckLayer(
      &deconv, Tensor::Uniform({2, ic, h, h}, -1, 1, &rng), 1e-2, 5e-2);
}

TEST_P(DeconvSweepTest, SampleResultsIndependentOfBatchMates) {
  ExpectSamplesIndependentOfBatchMates<nn::ConvTranspose2d>(GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, DeconvSweepTest,
    ::testing::Values(ConvGeom{2, 1, 4, 2, 1, 2},   // DCGAN upsample
                      ConvGeom{1, 2, 4, 2, 1, 4},
                      ConvGeom{3, 2, 3, 1, 1, 5},   // same-size deconv
                      ConvGeom{2, 3, 2, 2, 0, 3},   // exact doubling
                      ConvGeom{1, 1, 3, 3, 0, 2},   // stride 3
                      ConvGeom{4, 2, 5, 1, 2, 4})); // big kernel

// The side-8 network's conv shapes (core/networks.cc), which finite
// differences would make slow, checked for batch-mate independence only.
class ConvNetworkShapeTest : public ::testing::TestWithParam<ConvGeom> {};

TEST_P(ConvNetworkShapeTest, SampleResultsIndependentOfBatchMates) {
  ExpectSamplesIndependentOfBatchMates<nn::Conv2d>(GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    SideEight, ConvNetworkShapeTest,
    ::testing::Values(ConvGeom{1, 64, 4, 2, 1, 8},     // D stage 1
                      ConvGeom{64, 128, 4, 2, 1, 4})); // D stage 2

class DeconvNetworkShapeTest : public ::testing::TestWithParam<ConvGeom> {};

TEST_P(DeconvNetworkShapeTest, SampleResultsIndependentOfBatchMates) {
  ExpectSamplesIndependentOfBatchMates<nn::ConvTranspose2d>(GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    SideEight, DeconvNetworkShapeTest,
    ::testing::Values(ConvGeom{128, 64, 4, 2, 1, 2},  // G stage 1
                      ConvGeom{64, 1, 4, 2, 1, 4}));  // G output

TEST(ConvAdjointTest, DeconvForwardIsConvBackwardData) {
  // For matching weights, ConvTranspose2d::Forward must equal the data
  // gradient of Conv2d with the same geometry: <conv(x), y> = <x, deconv(y)>.
  Rng rng(5);
  const int ic = 3, oc = 2, k = 4, s = 2, p = 1, h = 8;
  nn::Conv2d conv(ic, oc, k, s, p, /*bias=*/false);
  nn::DcganInitialize(&conv, &rng);
  nn::ConvTranspose2d deconv(oc, ic, k, s, p, /*bias=*/false);
  // deconv.weight is [oc, ic*k*k]; conv.weight is [oc, ic*k*k]: identical
  // layout under our conventions.
  for (int64_t i = 0; i < conv.weight().size(); ++i) {
    deconv.weight()[i] = conv.weight()[i];
  }
  Tensor x = Tensor::Uniform({1, ic, h, h}, -1, 1, &rng);
  Tensor cx = conv.Forward(x, true);
  Tensor y = Tensor::Uniform(cx.shape(), -1, 1, &rng);
  Tensor dy = deconv.Forward(y, true);
  ASSERT_EQ(dy.shape(), x.shape());
  double lhs = 0.0, rhs = 0.0;
  for (int64_t i = 0; i < cx.size(); ++i) {
    lhs += static_cast<double>(cx[i]) * y[i];
  }
  for (int64_t i = 0; i < x.size(); ++i) {
    rhs += static_cast<double>(x[i]) * dy[i];
  }
  EXPECT_NEAR(lhs, rhs, 1e-3 * std::max(1.0, std::fabs(lhs)));
}

}  // namespace
}  // namespace tablegan
