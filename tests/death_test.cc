// Death tests: programming errors (contract violations) abort via
// TABLEGAN_CHECK rather than corrupting state — verify the contracts
// actually fire.

#include <gtest/gtest.h>

#include <cstdlib>

#include "common/logging.h"
#include "common/parallel.h"
#include "data/record_matrix.h"
#include "ml/decision_tree.h"
#include "nn/dense.h"
#include "tensor/matmul.h"
#include "tensor/tensor.h"
#include "tensor/tensor_ops.h"

namespace tablegan {
namespace {

TEST(DeathTest, CheckMacroAborts) {
  EXPECT_DEATH({ TABLEGAN_CHECK(1 == 2) << "impossible"; }, "Check failed");
}

TEST(DeathTest, CheckOkAbortsOnError) {
  EXPECT_DEATH(TABLEGAN_CHECK_OK(Status::Internal("boom")), "boom");
}

TEST(DeathTest, TensorShapeMismatchInOps) {
  Tensor a({2, 3});
  Tensor b({3, 2});
  EXPECT_DEATH(ops::Add(a, b), "shape mismatch");
}

TEST(DeathTest, TensorBadReshape) {
  Tensor a({2, 3});
  EXPECT_DEATH(a.Reshaped({4, 2}), "cannot reshape");
}

TEST(DeathTest, GemmDimensionMismatch) {
  Tensor a({2, 3});
  Tensor b({4, 5});
  Tensor c({2, 5});
  EXPECT_DEATH(ops::Gemm(false, false, 1.0f, a, b, 0.0f, &c),
               "inner dimensions differ");
}

TEST(DeathTest, DenseRejectsWrongInputWidth) {
  nn::Dense layer(4, 2);
  Tensor x({3, 5});
  EXPECT_DEATH(layer.Forward(x, true), "Dense input");
}

TEST(DeathTest, BackwardBeforeForward) {
  nn::Dense layer(4, 2);
  Tensor grad({3, 2});
  EXPECT_DEATH(layer.Backward(grad), "Backward before Forward");
}

TEST(DeathTest, CodecRejectsNonPowerOfTwoSide) {
  EXPECT_DEATH(data::RecordMatrixCodec(10, 5), "power of two");
  EXPECT_DEATH(data::RecordMatrixCodec(30, 4), "cannot hold");
}

TEST(DeathTest, PredictBeforeFit) {
  ml::DecisionTreeClassifier tree;
  EXPECT_DEATH(tree.PredictProba({1.0}), "predict before fit");
}

TEST(DeathTest, RngRejectsZeroBound) {
  Rng rng(1);
  EXPECT_DEATH(rng.NextUint64(0), "Check failed");
}

// A malformed or out-of-range TABLEGAN_NUM_THREADS aborts naming the
// value instead of meaning "auto" or starting thousands of threads. The
// environment is set inside the death statement, so only the child sees
// it, and only GetNumThreads() runs: no pool is started.
TEST(DeathTest, BadThreadCountEnvironmentAborts) {
  SetNumThreads(0);  // the environment is only read without an override
  EXPECT_DEATH(
      {
        ::setenv("TABLEGAN_NUM_THREADS", "4x", 1);
        (void)GetNumThreads();
      },
      "TABLEGAN_NUM_THREADS value '4x'");
  EXPECT_DEATH(
      {
        ::setenv("TABLEGAN_NUM_THREADS", "5000", 1);
        (void)GetNumThreads();
      },
      "TABLEGAN_NUM_THREADS value '5000'");
}

}  // namespace
}  // namespace tablegan
