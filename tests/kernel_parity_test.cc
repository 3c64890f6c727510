// Kernel parity suite (DESIGN.md §12). Two-way contract:
//
//  - This TU is compiled with -ffp-contract=off and carries a source
//    copy of the reference kernels, so the reference here has *portable*
//    IEEE semantics: one rounding per multiply and per add, scalar
//    accumulation order. The AVX2 backend must match it BITWISE on
//    everything except the NCHW BatchNorm reductions, whose fixed 8-lane
//    fold is instead held to a double-precision bound.
//  - The production scalar backend is compiled with the project's
//    default flags (that is what the pre-dispatch goldens were recorded
//    against), which lets the compiler contract mul+add chains into
//    FMAs; it is therefore held to the same double-precision bounds,
//    and to bitwise equality only where no contraction is possible.
//    The kernels with one implementation for every backend (data
//    movement, comparisons, libm forwards, sigmoid_bwd) must equal the
//    reference bitwise as compiled.
//
// Shapes sweep the awkward paths: vector-width tails, one-row matrices,
// block-boundary sizes (kGemmBlockK/N, kNtBlockJ/L), stride-2 and
// stride-3 convolutions. Golden end-to-end checks pin the train + Sample
// stream of each backend to recorded CRCs — the scalar ones to the bits
// produced before the dispatch layer existed — and check thread-count
// invariance of the AVX2 backend.

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/crc32.h"
#include "common/random.h"
#include "core/table_gan.h"
#include "data/datasets.h"
#include "tensor/im2col.h"
#include "tensor/kernels/blocking.h"
#include "tensor/kernels/kernels.h"

namespace tablegan {
namespace {

using kernels::Backend;
using kernels::kGemmBlockK;
using kernels::kGemmBlockN;
using kernels::kNtBlockJ;
using kernels::kNtBlockL;

// ---------------------------------------------------------------------
// Contract-off reference kernels (source copies of the scalar backend;
// this TU's -ffp-contract=off pins their float semantics).

namespace ref {

void GemmNn(int64_t m, int64_t n, int64_t k, float alpha, const float* a,
            const float* b, float* c) {
  for (int64_t k0 = 0; k0 < k; k0 += kGemmBlockK) {
    const int64_t k1 = std::min(k, k0 + kGemmBlockK);
    for (int64_t n0 = 0; n0 < n; n0 += kGemmBlockN) {
      const int64_t n1 = std::min(n, n0 + kGemmBlockN);
      for (int64_t i = 0; i < m; ++i) {
        const float* arow = a + i * k;
        float* crow = c + i * n;
        for (int64_t kk = k0; kk < k1; ++kk) {
          const float av = alpha * arow[kk];
          if (av == 0.0f) continue;
          const float* brow = b + kk * n;
          for (int64_t j = n0; j < n1; ++j) crow[j] += av * brow[j];
        }
      }
    }
  }
}

void GemmNt(int64_t m, int64_t n, int64_t k, const float* a, const float* b,
            float* c, bool accumulate) {
  if (!accumulate) {
    for (int64_t i = 0; i < m; ++i) std::fill(c + i * n, c + i * n + n, 0.0f);
  }
  for (int64_t l0 = 0; l0 < k; l0 += kNtBlockL) {
    const int64_t l1 = std::min(k, l0 + kNtBlockL);
    for (int64_t j0 = 0; j0 < n; j0 += kNtBlockJ) {
      const int64_t j1 = std::min(n, j0 + kNtBlockJ);
      for (int64_t i = 0; i < m; ++i) {
        const float* arow = a + i * k;
        float* crow = c + i * n;
        for (int64_t j = j0; j < j1; ++j) {
          const float* brow = b + j * k;
          float acc = 0.0f;
          for (int64_t l = l0; l < l1; ++l) acc += arow[l] * brow[l];
          crow[j] += acc;
        }
      }
    }
  }
}

void GemmTn(int64_t r0, int64_t r1, int64_t m, int64_t n, int64_t k,
            const float* a, const float* b, float* c) {
  for (int64_t l = 0; l < k; ++l) {
    const float* arow = a + l * m;
    const float* brow = b + l * n;
    for (int64_t i = r0; i < r1; ++i) {
      const float av = arow[i];
      if (av == 0.0f) continue;
      float* crow = c + i * n;
      for (int64_t j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

void BnMoments(int64_t rows, int64_t channels, int64_t spatial,
               const float* x, float* mean, float* var) {
  const float m = static_cast<float>(rows * spatial);
  std::fill(mean, mean + channels, 0.0f);
  std::fill(var, var + channels, 0.0f);
  for (int64_t r = 0; r < rows; ++r) {
    for (int64_t c = 0; c < channels; ++c) {
      const float* px = x + (r * channels + c) * spatial;
      for (int64_t s = 0; s < spatial; ++s) mean[c] += px[s];
    }
  }
  for (int64_t c = 0; c < channels; ++c) mean[c] /= m;
  for (int64_t r = 0; r < rows; ++r) {
    for (int64_t c = 0; c < channels; ++c) {
      const float* px = x + (r * channels + c) * spatial;
      for (int64_t s = 0; s < spatial; ++s) {
        const float d = px[s] - mean[c];
        var[c] += d * d;
      }
    }
  }
  for (int64_t c = 0; c < channels; ++c) var[c] /= m;
}

void BnNormalize(int64_t rows, int64_t channels, int64_t spatial,
                 const float* x, const float* mean, const float* inv_std,
                 const float* gamma, const float* beta, float* xhat,
                 float* y) {
  for (int64_t r = 0; r < rows; ++r) {
    for (int64_t c = 0; c < channels; ++c) {
      const int64_t base = (r * channels + c) * spatial;
      for (int64_t s = 0; s < spatial; ++s) {
        const float xh = (x[base + s] - mean[c]) * inv_std[c];
        if (xhat != nullptr) xhat[base + s] = xh;
        y[base + s] = gamma[c] * xh + beta[c];
      }
    }
  }
}

void BnBackwardReduce(int64_t rows, int64_t channels, int64_t spatial,
                      const float* dy, const float* xhat, float* sum_dy,
                      float* sum_dy_xhat) {
  for (int64_t r = 0; r < rows; ++r) {
    for (int64_t c = 0; c < channels; ++c) {
      const int64_t base = (r * channels + c) * spatial;
      for (int64_t s = 0; s < spatial; ++s) {
        sum_dy[c] += dy[base + s];
        sum_dy_xhat[c] += dy[base + s] * xhat[base + s];
      }
    }
  }
}

void BnBackwardInput(int64_t rows, int64_t channels, int64_t spatial,
                     const float* dy, const float* xhat, const float* gamma,
                     const float* inv_std, const float* sum_dy,
                     const float* sum_dy_xhat, float inv_m, float* dx) {
  for (int64_t r = 0; r < rows; ++r) {
    for (int64_t c = 0; c < channels; ++c) {
      const int64_t base = (r * channels + c) * spatial;
      for (int64_t s = 0; s < spatial; ++s) {
        dx[base + s] = gamma[c] * inv_std[c] *
                       (dy[base + s] - sum_dy[c] * inv_m -
                        xhat[base + s] * sum_dy_xhat[c] * inv_m);
      }
    }
  }
}

void TanhBwd(int64_t n, const float* y, const float* dy, float* dx) {
  for (int64_t i = 0; i < n; ++i) dx[i] = dy[i] * (1.0f - y[i] * y[i]);
}

void SigmoidBwd(int64_t n, const float* y, const float* dy, float* dx) {
  for (int64_t i = 0; i < n; ++i) dx[i] = dy[i] * (y[i] * (1.0f - y[i]));
}

void Relu(int64_t n, const float* x, float* y) {
  for (int64_t i = 0; i < n; ++i) y[i] = x[i] < 0.0f ? 0.0f : x[i];
}

void ReluBwd(int64_t n, const float* x, const float* dy, float* dx) {
  for (int64_t i = 0; i < n; ++i) dx[i] = x[i] <= 0.0f ? 0.0f : dy[i];
}

void LeakyRelu(int64_t n, float slope, const float* x, float* y) {
  for (int64_t i = 0; i < n; ++i) y[i] = x[i] < 0.0f ? x[i] * slope : x[i];
}

void LeakyReluBwd(int64_t n, float slope, const float* x, const float* dy,
                  float* dx) {
  for (int64_t i = 0; i < n; ++i) {
    dx[i] = x[i] <= 0.0f ? dy[i] * slope : dy[i];
  }
}

}  // namespace ref

// ---------------------------------------------------------------------
// Helpers.

// Restores environment-based backend selection on scope exit.
struct BackendGuard {
  explicit BackendGuard(const Backend* b) { kernels::OverrideBackend(b); }
  ~BackendGuard() { kernels::OverrideBackend(nullptr); }
};

// Random data with the float edge cases the kernels' zero-skips and
// comparisons are sensitive to: exact zeros, negative zeros, denormals.
std::vector<float> RandomVec(Rng* rng, int64_t n) {
  std::vector<float> v(static_cast<size_t>(n));
  for (auto& x : v) {
    if (rng->NextBool(0.10)) {
      x = 0.0f;
    } else if (rng->NextBool(0.03)) {
      x = -0.0f;
    } else if (rng->NextBool(0.03)) {
      x = rng->NextBool(0.5) ? 1e-42f : -1e-42f;  // denormal
    } else {
      x = static_cast<float>(rng->Gaussian(0.0, 1.0));
    }
  }
  return v;
}

bool BitwiseEqual(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

int64_t FirstMismatch(const std::vector<float>& a,
                      const std::vector<float>& b) {
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::memcmp(&a[i], &b[i], sizeof(float)) != 0) {
      return static_cast<int64_t>(i);
    }
  }
  return -1;
}

#define EXPECT_BITWISE_EQ(a, b, msg)                                       \
  do {                                                                     \
    if (!BitwiseEqual(a, b)) {                                             \
      const int64_t mi = FirstMismatch(a, b);                              \
      ADD_FAILURE() << msg << ": first mismatch at " << mi << ": "         \
                    << (a)[static_cast<size_t>(mi)] << " vs "              \
                    << (b)[static_cast<size_t>(mi)];                       \
      return;                                                              \
    }                                                                      \
  } while (0)

// |value - double_reference| bound for a float accumulation whose terms
// have total magnitude `scale`: reassociation (the NCHW lane fold) and
// FMA contraction each perturb the result by a small multiple of
// eps * scale.
bool WithinBound(float value, double ref, double scale) {
  const double bound = 64.0 * FLT_EPSILON * (scale + 1.0);
  return std::abs(static_cast<double>(value) - ref) <= bound;
}

struct GemmShape {
  int64_t m, n, k;
};

// Tails of every vector width (16/8/1 columns, 4/1 rows), one-row and
// one-column cases, and sizes straddling the kGemmBlockK/N = 256/512 and
// kNtBlockJ/L = 64/256 boundaries.
const GemmShape kGemmShapes[] = {
    {1, 1, 1},    {1, 8, 3},     {1, 16, 257},  {2, 17, 3},   {3, 15, 7},
    {4, 16, 8},   {5, 33, 13},   {7, 23, 300},  {8, 64, 256}, {9, 65, 257},
    {6, 63, 255}, {16, 40, 64},  {33, 7, 5},    {2, 515, 30}, {4, 512, 16},
    {5, 96, 513}, {13, 129, 31}, {21, 19, 100},
};

// The backends every parity test exercises: the production scalar
// backend (bounded vs a double reference) and the strict AVX2 backend
// (bitwise vs ref::*).
struct TestBackends {
  const Backend* scalar = nullptr;
  const Backend* avx2 = nullptr;
};

class BackendParityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    b_.scalar = &kernels::Scalar();
    b_.avx2 = kernels::Avx2();
    if (b_.avx2 == nullptr) {
      GTEST_SKIP() << "AVX2 backend not available on this host";
    }
  }

  TestBackends b_;
};

// ---------------------------------------------------------------------
// GEMM.

TEST_F(BackendParityTest, GemmNnParity) {
  Rng rng(0x6e6e1);
  for (const auto& s : kGemmShapes) {
    for (float alpha : {1.0f, 0.5f}) {
      const auto a = RandomVec(&rng, s.m * s.k);
      const auto b = RandomVec(&rng, s.k * s.n);
      const auto c0 = RandomVec(&rng, s.m * s.n);
      auto c_ref = c0;
      ref::GemmNn(s.m, s.n, s.k, alpha, a.data(), b.data(), c_ref.data());

      auto c_avx2 = c0;
      b_.avx2->gemm_nn(s.m, s.n, s.k, alpha, a.data(), b.data(),
                       c_avx2.data());
      EXPECT_BITWISE_EQ(c_ref, c_avx2,
                        "gemm_nn avx2 vs ref m=" << s.m << " n=" << s.n
                                                 << " k=" << s.k);
      auto c_rerun = c0;
      b_.avx2->gemm_nn(s.m, s.n, s.k, alpha, a.data(), b.data(),
                       c_rerun.data());
      EXPECT_BITWISE_EQ(c_avx2, c_rerun, "gemm_nn avx2 determinism");

      // The contraction-tolerant scalar backend against a double
      // reference.
      auto c_got = c0;
      b_.scalar->gemm_nn(s.m, s.n, s.k, alpha, a.data(), b.data(),
                         c_got.data());
      for (int64_t i = 0; i < s.m; ++i) {
        for (int64_t j = 0; j < s.n; ++j) {
          double dref = c0[static_cast<size_t>(i * s.n + j)];
          double scale = std::abs(dref);
          for (int64_t l = 0; l < s.k; ++l) {
            const double t = static_cast<double>(alpha) *
                             a[static_cast<size_t>(i * s.k + l)] *
                             b[static_cast<size_t>(l * s.n + j)];
            dref += t;
            scale += std::abs(t);
          }
          ASSERT_TRUE(WithinBound(c_got[static_cast<size_t>(i * s.n + j)],
                                  dref, scale))
              << "scalar gemm_nn out of bound at (" << i << "," << j
              << ") m=" << s.m << " n=" << s.n << " k=" << s.k;
        }
      }
    }
  }
}

TEST_F(BackendParityTest, GemmNtParity) {
  Rng rng(0x6e742);
  for (const auto& s : kGemmShapes) {
    for (bool accumulate : {false, true}) {
      const auto a = RandomVec(&rng, s.m * s.k);
      const auto b = RandomVec(&rng, s.n * s.k);
      const auto c0 = RandomVec(&rng, s.m * s.n);
      auto c_ref = c0;
      ref::GemmNt(s.m, s.n, s.k, a.data(), b.data(), c_ref.data(),
                  accumulate);
      auto c_avx2 = c0;
      b_.avx2->gemm_nt(s.m, s.n, s.k, a.data(), b.data(), c_avx2.data(),
                       accumulate);
      EXPECT_BITWISE_EQ(c_ref, c_avx2,
                        "gemm_nt avx2 vs ref m=" << s.m << " n=" << s.n
                                                 << " k=" << s.k
                                                 << " acc=" << accumulate);
      auto c_got = c0;
      b_.scalar->gemm_nt(s.m, s.n, s.k, a.data(), b.data(), c_got.data(),
                         accumulate);
      for (int64_t i = 0; i < s.m; ++i) {
        for (int64_t j = 0; j < s.n; ++j) {
          double dref =
              accumulate ? c0[static_cast<size_t>(i * s.n + j)] : 0.0;
          double scale = std::abs(dref);
          for (int64_t l = 0; l < s.k; ++l) {
            const double t =
                static_cast<double>(a[static_cast<size_t>(i * s.k + l)]) *
                b[static_cast<size_t>(j * s.k + l)];
            dref += t;
            scale += std::abs(t);
          }
          ASSERT_TRUE(WithinBound(c_got[static_cast<size_t>(i * s.n + j)],
                                  dref, scale))
              << "scalar gemm_nt out of bound at (" << i << "," << j << ")";
        }
      }
    }
  }
}

TEST_F(BackendParityTest, GemmTnParityAndRowRangesCompose) {
  Rng rng(0x746e3);
  for (const auto& s : kGemmShapes) {
    const auto a = RandomVec(&rng, s.k * s.m);
    const auto b = RandomVec(&rng, s.k * s.n);
    const auto c0 = RandomVec(&rng, s.m * s.n);
    auto c_ref = c0;
    ref::GemmTn(0, s.m, s.m, s.n, s.k, a.data(), b.data(), c_ref.data());
    auto c_avx2 = c0;
    b_.avx2->gemm_tn(0, s.m, s.m, s.n, s.k, a.data(), b.data(),
                     c_avx2.data());
    EXPECT_BITWISE_EQ(c_ref, c_avx2,
                      "gemm_tn avx2 vs ref m=" << s.m << " n=" << s.n
                                               << " k=" << s.k);
    // The threading layer splits [0, m) into row ranges; in every
    // backend any split must reproduce the full-range result bitwise.
    const int64_t mid = s.m / 2;
    for (const Backend* backend : {b_.scalar, b_.avx2}) {
      auto c_full = c0;
      backend->gemm_tn(0, s.m, s.m, s.n, s.k, a.data(), b.data(),
                       c_full.data());
      auto c_split = c0;
      backend->gemm_tn(0, mid, s.m, s.n, s.k, a.data(), b.data(),
                       c_split.data());
      backend->gemm_tn(mid, s.m, s.m, s.n, s.k, a.data(), b.data(),
                       c_split.data());
      EXPECT_BITWISE_EQ(c_full, c_split,
                        backend->name << " gemm_tn split-range composition");
    }
    auto c_got = c0;
    b_.scalar->gemm_tn(0, s.m, s.m, s.n, s.k, a.data(), b.data(),
                       c_got.data());
    for (int64_t i = 0; i < s.m; ++i) {
      for (int64_t j = 0; j < s.n; ++j) {
        double dref = c0[static_cast<size_t>(i * s.n + j)];
        double scale = std::abs(dref);
        for (int64_t l = 0; l < s.k; ++l) {
          const double t =
              static_cast<double>(a[static_cast<size_t>(l * s.m + i)]) *
              b[static_cast<size_t>(l * s.n + j)];
          dref += t;
          scale += std::abs(t);
        }
        ASSERT_TRUE(WithinBound(c_got[static_cast<size_t>(i * s.n + j)],
                                dref, scale))
            << "scalar gemm_tn out of bound at (" << i << "," << j << ")";
      }
    }
  }
}

// ---------------------------------------------------------------------
// im2col / col2im: pure data movement with one implementation
// (ops::Im2Col / ops::Col2Im) behind every backend's table entry.

struct ConvShape {
  int64_t channels, in_h, in_w, kernel, stride, padding;
};

const ConvShape kConvShapes[] = {
    {1, 1, 1, 1, 1, 0},  {1, 5, 5, 3, 1, 1},   {2, 8, 8, 4, 2, 1},
    {3, 7, 9, 3, 2, 1},  {1, 16, 16, 4, 2, 1}, {2, 6, 6, 5, 2, 2},
    {1, 9, 7, 3, 1, 0},  {1, 3, 3, 5, 1, 2},   {2, 11, 13, 4, 3, 2},
    {4, 4, 4, 2, 2, 0},  {1, 2, 2, 4, 2, 1},
};

ops::Conv2dGeometry MakeGeometry(const ConvShape& s) {
  ops::Conv2dGeometry g;
  g.in_channels = s.channels;
  g.in_h = s.in_h;
  g.in_w = s.in_w;
  g.kernel = s.kernel;
  g.stride = s.stride;
  g.padding = s.padding;
  return g;
}

TEST_F(BackendParityTest, Im2ColCol2ImExactAllBackends) {
  Rng rng(0x12c01);
  for (const auto& s : kConvShapes) {
    const ops::Conv2dGeometry g = MakeGeometry(s);
    if (g.out_h() <= 0 || g.out_w() <= 0) continue;
    const int64_t img_size = g.in_channels * g.in_h * g.in_w;
    const int64_t cols_size = g.patch_size() * g.out_h() * g.out_w();

    const auto img = RandomVec(&rng, img_size);
    std::vector<float> cols_ref(static_cast<size_t>(cols_size), -7.0f);
    ops::Im2Col(g, img.data(), cols_ref.data());
    const auto cols_in = RandomVec(&rng, cols_size);
    const auto img0 = RandomVec(&rng, img_size);
    auto img_ref = img0;
    ops::Col2Im(g, cols_in.data(), img_ref.data());

    for (const Backend* backend : {b_.scalar, b_.avx2}) {
      std::vector<float> cols_got(static_cast<size_t>(cols_size), -7.0f);
      backend->im2col(g, img.data(), cols_got.data());
      EXPECT_BITWISE_EQ(cols_ref, cols_got,
                        backend->name << " im2col stride=" << s.stride
                                      << " k=" << s.kernel
                                      << " pad=" << s.padding);
      auto img_got = img0;
      backend->col2im(g, cols_in.data(), img_got.data());
      EXPECT_BITWISE_EQ(img_ref, img_got,
                        backend->name << " col2im stride=" << s.stride
                                      << " k=" << s.kernel
                                      << " pad=" << s.padding);
    }

    // The same patches inside a wider [patch, ld] matrix at a nonzero
    // column offset, as a conv chunk lays its images side by side: the
    // written slots equal the contiguous result, the gaps keep their
    // sentinel, and Col2Im reads back only the image's own columns.
    const int64_t spatial = g.out_h() * g.out_w();
    const int64_t ld = 2 * spatial + 3, offset = spatial + 1;
    const float kSentinel = -7.0f;
    std::vector<float> wide(static_cast<size_t>(g.patch_size() * ld),
                            kSentinel);
    ops::Im2Col(g, img.data(), wide.data() + offset, ld);
    std::vector<float> slots, gaps;
    for (int64_t r = 0; r < g.patch_size(); ++r) {
      for (int64_t col = 0; col < ld; ++col) {
        const float v = wide[static_cast<size_t>(r * ld + col)];
        (col >= offset && col < offset + spatial ? slots : gaps).push_back(v);
      }
    }
    EXPECT_BITWISE_EQ(cols_ref, slots, "strided im2col stride=" << s.stride);
    EXPECT_BITWISE_EQ(
        std::vector<float>(gaps.size(), kSentinel), gaps,
        "strided im2col gap stride=" << s.stride);
    std::vector<float> wide_in(wide.size(), 1e30f);
    for (int64_t r = 0; r < g.patch_size(); ++r) {
      std::copy(cols_in.begin() + r * spatial,
                cols_in.begin() + (r + 1) * spatial,
                wide_in.begin() + r * ld + offset);
    }
    auto img_wide = img0;
    ops::Col2Im(g, wide_in.data() + offset, ld, img_wide.data());
    EXPECT_BITWISE_EQ(img_ref, img_wide, "strided col2im stride=" << s.stride);
  }
}

// ---------------------------------------------------------------------
// BatchNorm.

struct BnShape {
  int64_t rows, channels, spatial;
};

const BnShape kBnNfShapes[] = {
    {1, 7, 1}, {5, 8, 1}, {4, 17, 1}, {16, 9, 1}, {3, 1, 1}, {2, 33, 1},
};
const BnShape kBnNchwShapes[] = {
    {2, 3, 4},  {3, 5, 16}, {2, 4, 64},  {1, 6, 7},
    {4, 2, 9},  {2, 8, 257}, {1, 1, 1024},
};

TEST_F(BackendParityTest, BnMomentsParity) {
  Rng rng(0xb701);
  // NF: the strict AVX2 backend vectorizes across channels, preserving
  // per-channel accumulation order — bitwise vs ref.
  for (const BnShape& s : kBnNfShapes) {
    const auto x = RandomVec(&rng, s.rows * s.channels * s.spatial);
    std::vector<float> mean_r(static_cast<size_t>(s.channels));
    std::vector<float> var_r(static_cast<size_t>(s.channels));
    ref::BnMoments(s.rows, s.channels, s.spatial, x.data(), mean_r.data(),
                   var_r.data());
    std::vector<float> mean_v(static_cast<size_t>(s.channels));
    std::vector<float> var_v(static_cast<size_t>(s.channels));
    b_.avx2->bn_moments(s.rows, s.channels, s.spatial, x.data(),
                        mean_v.data(), var_v.data());
    EXPECT_BITWISE_EQ(mean_r, mean_v, "bn_moments NF mean");
    EXPECT_BITWISE_EQ(var_r, var_v, "bn_moments NF var");
  }
  // NCHW (and the contraction-tolerant backends on every shape): double
  // reference with an accumulation bound; plus rerun determinism.
  auto all_shapes = std::vector<BnShape>(std::begin(kBnNfShapes),
                                         std::end(kBnNfShapes));
  all_shapes.insert(all_shapes.end(), std::begin(kBnNchwShapes),
                    std::end(kBnNchwShapes));
  for (const BnShape& s : all_shapes) {
    const auto x = RandomVec(&rng, s.rows * s.channels * s.spatial);
    const double m = static_cast<double>(s.rows * s.spatial);
    for (const Backend* backend : {b_.scalar, b_.avx2}) {
      std::vector<float> mean(static_cast<size_t>(s.channels));
      std::vector<float> var(static_cast<size_t>(s.channels));
      backend->bn_moments(s.rows, s.channels, s.spatial, x.data(),
                          mean.data(), var.data());
      for (int64_t c = 0; c < s.channels; ++c) {
        double sum = 0.0, asum = 0.0;
        for (int64_t r = 0; r < s.rows; ++r) {
          const float* px = x.data() + (r * s.channels + c) * s.spatial;
          for (int64_t sp = 0; sp < s.spatial; ++sp) {
            sum += px[sp];
            asum += std::abs(static_cast<double>(px[sp]));
          }
        }
        ASSERT_TRUE(WithinBound(mean[static_cast<size_t>(c)], sum / m,
                                asum / m + asum))
            << backend->name << " mean channel " << c << " spatial "
            << s.spatial;
        double vsum = 0.0;
        const double mf = static_cast<double>(mean[static_cast<size_t>(c)]);
        for (int64_t r = 0; r < s.rows; ++r) {
          const float* px = x.data() + (r * s.channels + c) * s.spatial;
          for (int64_t sp = 0; sp < s.spatial; ++sp) {
            const double d = px[sp] - mf;
            vsum += d * d;
          }
        }
        ASSERT_TRUE(WithinBound(var[static_cast<size_t>(c)], vsum / m,
                                vsum / m + vsum))
            << backend->name << " var channel " << c << " spatial "
            << s.spatial;
      }
      std::vector<float> mean2(static_cast<size_t>(s.channels));
      std::vector<float> var2(static_cast<size_t>(s.channels));
      backend->bn_moments(s.rows, s.channels, s.spatial, x.data(),
                          mean2.data(), var2.data());
      EXPECT_BITWISE_EQ(mean, mean2, "bn_moments rerun determinism");
      EXPECT_BITWISE_EQ(var, var2, "bn_moments rerun determinism");
    }
  }
}

TEST_F(BackendParityTest, BnNormalizeAndBackwardInputParity) {
  Rng rng(0xb702);
  auto all_shapes = std::vector<BnShape>(std::begin(kBnNfShapes),
                                         std::end(kBnNfShapes));
  all_shapes.insert(all_shapes.end(), std::begin(kBnNchwShapes),
                    std::end(kBnNchwShapes));
  for (const BnShape& s : all_shapes) {
    const int64_t size = s.rows * s.channels * s.spatial;
    const auto x = RandomVec(&rng, size);
    const auto mean = RandomVec(&rng, s.channels);
    auto inv_std = RandomVec(&rng, s.channels);
    for (auto& v : inv_std) v = 0.5f + std::abs(v);
    const auto gamma = RandomVec(&rng, s.channels);
    const auto beta = RandomVec(&rng, s.channels);
    // Reference xhat for the double-precision y bound below (xh_r is
    // only populated in the want_xhat=true iteration).
    std::vector<float> xh_full(static_cast<size_t>(size));
    std::vector<float> y_full(static_cast<size_t>(size));
    ref::BnNormalize(s.rows, s.channels, s.spatial, x.data(), mean.data(),
                     inv_std.data(), gamma.data(), beta.data(),
                     xh_full.data(), y_full.data());
    for (bool want_xhat : {true, false}) {
      std::vector<float> xh_r(static_cast<size_t>(size), -3.0f);
      std::vector<float> xh_v(static_cast<size_t>(size), -3.0f);
      std::vector<float> y_r(static_cast<size_t>(size));
      std::vector<float> y_v(static_cast<size_t>(size));
      ref::BnNormalize(s.rows, s.channels, s.spatial, x.data(), mean.data(),
                       inv_std.data(), gamma.data(), beta.data(),
                       want_xhat ? xh_r.data() : nullptr, y_r.data());
      b_.avx2->bn_normalize(s.rows, s.channels, s.spatial, x.data(),
                            mean.data(), inv_std.data(), gamma.data(),
                            beta.data(), want_xhat ? xh_v.data() : nullptr,
                            y_v.data());
      EXPECT_BITWISE_EQ(y_r, y_v, "bn_normalize y spatial=" << s.spatial);
      EXPECT_BITWISE_EQ(xh_r, xh_v, "bn_normalize xhat");
      // xhat has no mul+add chain, so every backend matches it bitwise.
      std::vector<float> xh_s(static_cast<size_t>(size), -3.0f);
      std::vector<float> y_s(static_cast<size_t>(size));
      b_.scalar->bn_normalize(s.rows, s.channels, s.spatial, x.data(),
                              mean.data(), inv_std.data(), gamma.data(),
                              beta.data(), want_xhat ? xh_s.data() : nullptr,
                              y_s.data());
      EXPECT_BITWISE_EQ(xh_r, xh_s, "bn_normalize scalar xhat");
      // y = gamma*xhat + beta is one contractible mul+add: 1/2-ulp.
      for (int64_t i = 0; i < size; ++i) {
        const int64_t c = (i / s.spatial) % s.channels;
        const double gx = static_cast<double>(gamma[static_cast<size_t>(c)]) *
                          xh_full[static_cast<size_t>(i)];
        const double yd = gx + beta[static_cast<size_t>(c)];
        const double sc =
            std::abs(gx) +
            std::abs(static_cast<double>(beta[static_cast<size_t>(c)]));
        ASSERT_TRUE(WithinBound(y_s[static_cast<size_t>(i)], yd, sc))
            << "scalar bn_normalize y at " << i;
      }
    }

    const auto dy = RandomVec(&rng, size);
    const auto xhat = RandomVec(&rng, size);
    const auto sum_dy = RandomVec(&rng, s.channels);
    const auto sum_dy_xhat = RandomVec(&rng, s.channels);
    const float inv_m = 1.0f / static_cast<float>(s.rows * s.spatial);
    std::vector<float> dx_r(static_cast<size_t>(size));
    ref::BnBackwardInput(s.rows, s.channels, s.spatial, dy.data(),
                         xhat.data(), gamma.data(), inv_std.data(),
                         sum_dy.data(), sum_dy_xhat.data(), inv_m,
                         dx_r.data());
    std::vector<float> dx_v(static_cast<size_t>(size));
    b_.avx2->bn_backward_input(s.rows, s.channels, s.spatial, dy.data(),
                               xhat.data(), gamma.data(), inv_std.data(),
                               sum_dy.data(), sum_dy_xhat.data(), inv_m,
                               dx_v.data());
    EXPECT_BITWISE_EQ(dx_r, dx_v, "bn_backward_input spatial=" << s.spatial);
    // The scalar backend may contract the two products into the subs.
    std::vector<float> dx_s(static_cast<size_t>(size));
    b_.scalar->bn_backward_input(s.rows, s.channels, s.spatial, dy.data(),
                                 xhat.data(), gamma.data(), inv_std.data(),
                                 sum_dy.data(), sum_dy_xhat.data(), inv_m,
                                 dx_s.data());
    for (int64_t i = 0; i < size; ++i) {
      const int64_t c = (i / s.spatial) % s.channels;
      const size_t ci = static_cast<size_t>(c);
      const double w = static_cast<double>(dy[static_cast<size_t>(i)]) -
                       static_cast<double>(sum_dy[ci]) * inv_m -
                       static_cast<double>(xhat[static_cast<size_t>(i)]) *
                           sum_dy_xhat[ci] * inv_m;
      const double dref =
          static_cast<double>(gamma[ci]) * inv_std[ci] * w;
      const double sc = std::abs(static_cast<double>(gamma[ci]) *
                                 inv_std[ci]) *
                        (std::abs(static_cast<double>(
                             dy[static_cast<size_t>(i)])) +
                         std::abs(static_cast<double>(sum_dy[ci]) * inv_m) +
                         std::abs(static_cast<double>(
                                      xhat[static_cast<size_t>(i)]) *
                                  sum_dy_xhat[ci] * inv_m));
      ASSERT_TRUE(WithinBound(dx_s[static_cast<size_t>(i)], dref, sc))
          << "scalar bn_backward_input at " << i;
    }
  }
}

TEST_F(BackendParityTest, BnBackwardReduceParity) {
  Rng rng(0xb703);
  for (const BnShape& s : kBnNfShapes) {
    const int64_t size = s.rows * s.channels * s.spatial;
    const auto dy = RandomVec(&rng, size);
    const auto xhat = RandomVec(&rng, size);
    std::vector<float> sd_r(static_cast<size_t>(s.channels), 0.0f);
    std::vector<float> sdx_r(static_cast<size_t>(s.channels), 0.0f);
    ref::BnBackwardReduce(s.rows, s.channels, s.spatial, dy.data(),
                          xhat.data(), sd_r.data(), sdx_r.data());
    std::vector<float> sd_v(static_cast<size_t>(s.channels), 0.0f);
    std::vector<float> sdx_v(static_cast<size_t>(s.channels), 0.0f);
    b_.avx2->bn_backward_reduce(s.rows, s.channels, s.spatial, dy.data(),
                                xhat.data(), sd_v.data(), sdx_v.data());
    EXPECT_BITWISE_EQ(sd_r, sd_v, "bn_backward_reduce NF sum_dy");
    EXPECT_BITWISE_EQ(sdx_r, sdx_v, "bn_backward_reduce NF sum_dy_xhat");
  }
  auto all_shapes = std::vector<BnShape>(std::begin(kBnNfShapes),
                                         std::end(kBnNfShapes));
  all_shapes.insert(all_shapes.end(), std::begin(kBnNchwShapes),
                    std::end(kBnNchwShapes));
  for (const BnShape& s : all_shapes) {
    const int64_t size = s.rows * s.channels * s.spatial;
    const auto dy = RandomVec(&rng, size);
    const auto xhat = RandomVec(&rng, size);
    for (const Backend* backend : {b_.scalar, b_.avx2}) {
      std::vector<float> sd(static_cast<size_t>(s.channels), 0.0f);
      std::vector<float> sdx(static_cast<size_t>(s.channels), 0.0f);
      backend->bn_backward_reduce(s.rows, s.channels, s.spatial, dy.data(),
                                  xhat.data(), sd.data(), sdx.data());
      for (int64_t c = 0; c < s.channels; ++c) {
        double rd = 0.0, ad = 0.0, rdx = 0.0, adx = 0.0;
        for (int64_t r = 0; r < s.rows; ++r) {
          const int64_t base = (r * s.channels + c) * s.spatial;
          for (int64_t sp = 0; sp < s.spatial; ++sp) {
            const double d = dy[static_cast<size_t>(base + sp)];
            const double t = d * xhat[static_cast<size_t>(base + sp)];
            rd += d;
            ad += std::abs(d);
            rdx += t;
            adx += std::abs(t);
          }
        }
        ASSERT_TRUE(WithinBound(sd[static_cast<size_t>(c)], rd, ad))
            << backend->name << " sum_dy channel " << c;
        ASSERT_TRUE(WithinBound(sdx[static_cast<size_t>(c)], rdx, adx))
            << backend->name << " sum_dy_xhat channel " << c;
      }
    }
  }
}

// ---------------------------------------------------------------------
// Activations.

// Random activations with the non-finite values and -0 the comparisons
// must treat like the scalar `x < 0` / `x <= 0` do.
std::vector<float> ActivationInput(Rng* rng, int64_t n) {
  auto x = RandomVec(rng, n);
  if (n >= 8) {
    x[0] = std::numeric_limits<float>::infinity();
    x[1] = -std::numeric_limits<float>::infinity();
    x[2] = std::numeric_limits<float>::quiet_NaN();
    x[3] = -0.0f;
  }
  return x;
}

// The elementwise kernels with one implementation for every backend:
// comparisons and lone multiplies leave the compiler nothing to
// contract, so as compiled they equal the contract-off reference.
TEST(SharedKernelsTest, ActivationsMatchContractOffReference) {
  Rng rng(0xac7);
  for (int64_t n : {1, 7, 8, 9, 64, 100, 1023}) {
    const auto x = ActivationInput(&rng, n);
    const auto dy = RandomVec(&rng, n);
    const auto y = RandomVec(&rng, n);
    std::vector<float> want(static_cast<size_t>(n));
    std::vector<float> got(static_cast<size_t>(n));
    ref::Relu(n, x.data(), want.data());
    kernels::Relu(n, x.data(), got.data());
    EXPECT_BITWISE_EQ(want, got, "relu n=" << n);
    ref::ReluBwd(n, x.data(), dy.data(), want.data());
    kernels::ReluBwd(n, x.data(), dy.data(), got.data());
    EXPECT_BITWISE_EQ(want, got, "relu_bwd n=" << n);
    ref::LeakyRelu(n, 0.2f, x.data(), want.data());
    kernels::LeakyRelu(n, 0.2f, x.data(), got.data());
    EXPECT_BITWISE_EQ(want, got, "leaky_relu n=" << n);
    ref::LeakyReluBwd(n, 0.2f, x.data(), dy.data(), want.data());
    kernels::LeakyReluBwd(n, 0.2f, x.data(), dy.data(), got.data());
    EXPECT_BITWISE_EQ(want, got, "leaky_relu_bwd n=" << n);
    ref::SigmoidBwd(n, y.data(), dy.data(), want.data());
    kernels::SigmoidBwd(n, y.data(), dy.data(), got.data());
    EXPECT_BITWISE_EQ(want, got, "sigmoid_bwd n=" << n);
  }
}

TEST_F(BackendParityTest, TanhBwdParity) {
  Rng rng(0x7a4b);
  for (int64_t n : {1, 7, 8, 9, 64, 100, 1023}) {
    const auto y = RandomVec(&rng, n);
    const auto dy = RandomVec(&rng, n);
    std::vector<float> dr(static_cast<size_t>(n)), dg(static_cast<size_t>(n));
    // Strict AVX2 bitwise vs the contract-off reference.
    ref::TanhBwd(n, y.data(), dy.data(), dr.data());
    b_.avx2->tanh_bwd(n, y.data(), dy.data(), dg.data());
    EXPECT_BITWISE_EQ(dr, dg, "tanh_bwd n=" << n);
    // 1 - y*y may contract in the scalar backend.
    b_.scalar->tanh_bwd(n, y.data(), dy.data(), dg.data());
    for (int64_t i = 0; i < n; ++i) {
      const double t =
          static_cast<double>(dy[static_cast<size_t>(i)]) *
          (1.0 - static_cast<double>(y[static_cast<size_t>(i)]) *
                     y[static_cast<size_t>(i)]);
      ASSERT_TRUE(
          WithinBound(dg[static_cast<size_t>(i)], t, std::abs(t) + 1.0))
          << "scalar tanh_bwd at " << i;
    }
  }
}

// ---------------------------------------------------------------------
// End-to-end goldens.

struct EndToEndCrcs {
  uint32_t loss = 0;
  uint32_t sample33 = 0;
  uint32_t sample20 = 0;
};

uint32_t TableCrc(const data::Table& t) {
  uint32_t crc = 0;
  for (int64_t r = 0; r < t.num_rows(); ++r) {
    for (int c = 0; c < t.num_columns(); ++c) {
      const double v = t.Get(r, c);
      crc = Crc32(&v, sizeof(v), crc);
    }
  }
  return crc;
}

// Changes one option of the golden run to send it down another
// training path (loss mode, baseline, conditioning/GMM encoding).
using OptionTweak = void (*)(const data::Schema&, core::TableGanOptions*);

EndToEndCrcs TrainAndSampleCrcs(int threads, OptionTweak tweak = nullptr) {
  Rng rng(77);
  data::Table table = data::MakeAdultLike(96, &rng);
  const auto labels = table.schema().ColumnsWithRole(data::ColumnRole::kLabel);
  core::TableGanOptions options;
  options.epochs = 2;
  options.batch_size = 16;
  options.base_channels = 8;
  options.latent_dim = 16;
  options.seed = 1234;
  options.use_info_loss = true;
  options.use_classifier = true;
  options.num_threads = threads;
  options.verbose = false;
  if (tweak != nullptr) tweak(table.schema(), &options);
  core::TableGan gan(options);
  Status fit = gan.Fit(table, labels[0]);
  EXPECT_TRUE(fit.ok()) << fit.ToString();
  EndToEndCrcs out;
  for (const auto& e : gan.history()) {
    out.loss = Crc32(&e.d_loss, sizeof(float), out.loss);
    out.loss = Crc32(&e.g_orig_loss, sizeof(float), out.loss);
    out.loss = Crc32(&e.info_loss, sizeof(float), out.loss);
    out.loss = Crc32(&e.class_loss, sizeof(float), out.loss);
  }
  auto s33 = gan.Sample(33);
  auto s20 = gan.Sample(20);
  EXPECT_TRUE(s33.ok() && s20.ok());
  out.sample33 = TableCrc(*s33);
  out.sample20 = TableCrc(*s20);
  return out;
}

// The CRCs the same training run produced before the dispatch layer
// existed (commit b6ee62b's kernels, -O3 -march=native, glibc libm).
// They pin the scalar backend to the pre-dispatch bits at any thread
// count. Machine-dependent by design — on a host with a different
// compiler/libm combination, regenerate with tools/make_kernel_golden
// and set TABLEGAN_KERNEL_GOLDEN_{LOSS,S33,S20}, or skip this one test
// via TABLEGAN_SKIP_KERNEL_GOLDEN=1.
constexpr uint32_t kGoldenLossCrc = 0x61f8d074u;
constexpr uint32_t kGoldenSample33Crc = 0x651d59c4u;
constexpr uint32_t kGoldenSample20Crc = 0x2d321be8u;

uint32_t GoldenOverride(const char* name, uint32_t fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  return static_cast<uint32_t>(std::strtoul(v, nullptr, 0));
}

TEST(KernelGoldenTest, ScalarBackendMatchesPreDispatchGoldens) {
  if (std::getenv("TABLEGAN_SKIP_KERNEL_GOLDEN") != nullptr) {
    GTEST_SKIP() << "TABLEGAN_SKIP_KERNEL_GOLDEN set";
  }
  BackendGuard guard(&kernels::Scalar());
  const uint32_t want_loss = GoldenOverride("TABLEGAN_KERNEL_GOLDEN_LOSS",
                                            kGoldenLossCrc);
  const uint32_t want_s33 = GoldenOverride("TABLEGAN_KERNEL_GOLDEN_S33",
                                           kGoldenSample33Crc);
  const uint32_t want_s20 = GoldenOverride("TABLEGAN_KERNEL_GOLDEN_S20",
                                           kGoldenSample20Crc);
  for (int threads : {1, 3}) {
    const EndToEndCrcs got = TrainAndSampleCrcs(threads);
    EXPECT_EQ(got.loss, want_loss) << "loss CRC, threads=" << threads;
    EXPECT_EQ(got.sample33, want_s33) << "Sample(33) CRC, threads=" << threads;
    EXPECT_EQ(got.sample20, want_s20) << "Sample(20) CRC, threads=" << threads;
  }
}

// The same run on the AVX2 backend, recorded with
// `TABLEGAN_ISA=avx2 tools/make_kernel_golden` on the same toolchain.
// The strict AVX2 kernels are toolchain-independent, but the code around
// them (losses, Adam, libm) is not, so TABLEGAN_SKIP_KERNEL_GOLDEN=1
// skips these CRCs too.
constexpr uint32_t kAvx2GoldenLossCrc = 0x61f8d074u;
constexpr uint32_t kAvx2GoldenSample33Crc = 0x2a7e19edu;
constexpr uint32_t kAvx2GoldenSample20Crc = 0x16dd2704u;

TEST(KernelGoldenTest, Avx2BackendMatchesGoldensAtAnyThreadCount) {
  if (kernels::Avx2() == nullptr) {
    GTEST_SKIP() << "AVX2 backend not available on this host";
  }
  BackendGuard guard(kernels::Avx2());
  const EndToEndCrcs t1 = TrainAndSampleCrcs(1);
  const EndToEndCrcs t3 = TrainAndSampleCrcs(3);
  EXPECT_EQ(t1.loss, t3.loss);
  EXPECT_EQ(t1.sample33, t3.sample33);
  EXPECT_EQ(t1.sample20, t3.sample20);
  // Thread-count invariance above holds on any toolchain; the CRCs below
  // only on the one they were recorded with.
  if (std::getenv("TABLEGAN_SKIP_KERNEL_GOLDEN") != nullptr) return;
  for (const EndToEndCrcs& got : {t1, t3}) {
    EXPECT_EQ(got.loss, kAvx2GoldenLossCrc) << "loss CRC";
    EXPECT_EQ(got.sample33, kAvx2GoldenSample33Crc) << "Sample(33) CRC";
    EXPECT_EQ(got.sample20, kAvx2GoldenSample20Crc) << "Sample(20) CRC";
  }
}

// The same run down the training paths the default options skip, one
// option changed per path, recorded on the toolchain of the goldens
// above. Each path is also thread-count invariant on both backends,
// which holds on any toolchain.
struct PathGolden {
  const char* name;
  OptionTweak tweak;
  EndToEndCrcs scalar;
  EndToEndCrcs avx2;
};

const PathGolden kPathGoldens[] = {
    {"wgan-gp",
     [](const data::Schema&, core::TableGanOptions* o) {
       o->loss_mode = core::LossMode::kWganGp;
     },
     {0x08c2abdfu, 0xc95f07d7u, 0xb9c1ec82u},
     {0x3eb2ddd6u, 0x49d22df8u, 0x32b47d5eu}},
    {"spectral-norm",
     [](const data::Schema&, core::TableGanOptions* o) {
       o->loss_mode = core::LossMode::kSpectralNorm;
     },
     {0x6b73ec20u, 0x55dd6eb3u, 0xa203be80u},
     {0x6b73ec20u, 0x8d54782cu, 0x7cc9154eu}},
    {"dcgan-baseline",
     [](const data::Schema&, core::TableGanOptions* o) {
       o->use_info_loss = false;
       o->use_classifier = false;
     },
     {0x66a3ad21u, 0x68db8403u, 0xf8718e51u},
     {0x66a3ad21u, 0x7364300cu, 0x43cf7e31u}},
    {"conditional-gmm",
     [](const data::Schema& schema, core::TableGanOptions* o) {
       o->conditional = true;
       o->gmm_columns = {*schema.FindColumn("capital_gain")};
     },
     {0xc7da39b0u, 0xfbd2a683u, 0x1580687bu},
     {0xc7da39b0u, 0x42873ee2u, 0xad8a7ea9u}},
};

TEST(KernelGoldenTest, OtherTrainingPathsMatchGoldens) {
  const bool check_crcs =
      std::getenv("TABLEGAN_SKIP_KERNEL_GOLDEN") == nullptr;
  for (const Backend* backend : {&kernels::Scalar(), kernels::Avx2()}) {
    if (backend == nullptr) continue;  // no AVX2 on this host
    BackendGuard guard(backend);
    for (const PathGolden& path : kPathGoldens) {
      SCOPED_TRACE(std::string(path.name) + " on " + backend->name);
      const EndToEndCrcs t1 = TrainAndSampleCrcs(1, path.tweak);
      const EndToEndCrcs t3 = TrainAndSampleCrcs(3, path.tweak);
      EXPECT_EQ(t3.loss, t1.loss);
      EXPECT_EQ(t3.sample33, t1.sample33);
      EXPECT_EQ(t3.sample20, t1.sample20);
      if (!check_crcs) continue;
      const EndToEndCrcs& want =
          backend == &kernels::Scalar() ? path.scalar : path.avx2;
      EXPECT_EQ(t1.loss, want.loss) << std::hex << "loss CRC 0x" << t1.loss;
      EXPECT_EQ(t1.sample33, want.sample33)
          << std::hex << "Sample(33) CRC 0x" << t1.sample33;
      EXPECT_EQ(t1.sample20, want.sample20)
          << std::hex << "Sample(20) CRC 0x" << t1.sample20;
    }
  }
}

}  // namespace
}  // namespace tablegan
