#ifndef TABLEGAN_TENSOR_KERNELS_KERNELS_H_
#define TABLEGAN_TENSOR_KERNELS_KERNELS_H_

#include <cstdint>

#include "tensor/im2col.h"

namespace tablegan {
namespace kernels {

/// A backend is a table of the serial math kernels whose bits or speed
/// depend on the instruction set. Threading stays *above* this layer
/// (matmul.cc / batch-parallel conv chunks call a backend kernel per row
/// block), so a backend only ever sees serial work and per-ISA bitwise
/// determinism at any thread count follows from the existing
/// row-partition argument.
///
/// Determinism contract (DESIGN.md §12):
///  - "scalar" is the golden reference: the pre-dispatch kernel source,
///    compiled with the project's default flags. Those flags let the
///    compiler contract mul+add chains into FMAs, so its exact bits are
///    a property of (source, compiler, flags) — pinned end-to-end by the
///    KernelGoldenTest CRCs — not of portable float semantics.
///  - "avx2" is written with explicit intrinsics and compiled with
///    -ffp-contract=off, vectorizing across *independent outputs* (GEMM
///    output columns, elementwise lanes) in the scalar per-element
///    accumulation order. Its contract is portable strict IEEE
///    semantics: bitwise identical to the reference loops compiled
///    without contraction (one rounding per multiply and per add), which
///    the parity suite checks against its own -ffp-contract=off copy of
///    the reference kernels. The one reassociating exception is the NCHW
///    BatchNorm reductions (moments and backward sums), which use a fixed
///    8-lane split of the spatial axis folded in lane order —
///    deterministic per-ISA, but a different rounding order.
///  - "scalar" vs "avx2" therefore differ only by FP contraction and
///    lane folds: each output is within a small accumulation-scaled
///    multiple of FLT_EPSILON of the exact (double) result in both.
///  - Every backend is individually deterministic: same input, same
///    backend, any thread count => bitwise identical results.
///
/// Kernels that no contraction or lane fold can touch — data movement
/// and comparisons — have a single implementation shared by every
/// backend (see the free functions below).
struct Backend {
  const char* name;  // "scalar" or "avx2"

  /// C[m,n] += alpha * A[m,k] * B[k,n] (row-major, serial block kernel).
  /// Terms with alpha * a[i,kk] == 0 are skipped, exactly as the scalar
  /// reference does (the skip is observable with inf/NaN/-0 operands).
  void (*gemm_nn)(int64_t m, int64_t n, int64_t k, float alpha,
                  const float* a, const float* b, float* c);
  /// C[m,n] (+)= A[m,k] * B[n,k]^T. Overwrites C unless `accumulate`.
  void (*gemm_nt)(int64_t m, int64_t n, int64_t k, const float* a,
                  const float* b, float* c, bool accumulate);
  /// Rows [r0, r1) of C[m,n] += A[k,m]^T * B[k,n].
  void (*gemm_tn)(int64_t r0, int64_t r1, int64_t m, int64_t n, int64_t k,
                  const float* a, const float* b, float* c);

  /// Patch unfold / fold-accumulate for one [C,H,W] image. Every backend
  /// points these at ops::Im2Col / ops::Col2Im (pure data movement plus
  /// one add per target cell); the entries let per-backend callers such
  /// as the benchmark's kernel probes time them through the table.
  void (*im2col)(const ops::Conv2dGeometry& g, const float* img,
                 float* cols);
  void (*col2im)(const ops::Conv2dGeometry& g, const float* cols,
                 float* img);

  /// BatchNorm batch moments over a [rows, channels, spatial] view (an
  /// NF tensor is spatial == 1). Writes per-channel mean and biased
  /// variance, both already divided by rows * spatial.
  void (*bn_moments)(int64_t rows, int64_t channels, int64_t spatial,
                     const float* x, float* mean, float* var);
  /// xhat = (x - mean[c]) * inv_std[c]; y = gamma[c] * xhat + beta[c].
  /// `xhat` may be null (inference path does not cache it).
  void (*bn_normalize)(int64_t rows, int64_t channels, int64_t spatial,
                       const float* x, const float* mean,
                       const float* inv_std, const float* gamma,
                       const float* beta, float* xhat, float* y);
  /// sum_dy[c] += dy; sum_dy_xhat[c] += dy * xhat (caller zeroes sums).
  void (*bn_backward_reduce)(int64_t rows, int64_t channels, int64_t spatial,
                             const float* dy, const float* xhat,
                             float* sum_dy, float* sum_dy_xhat);
  /// dx = gamma[c]*inv_std[c] * (dy - sum_dy[c]*inv_m - xhat*sum_dy_xhat[c]
  /// *inv_m), with the scalar reference's association order.
  void (*bn_backward_input)(int64_t rows, int64_t channels, int64_t spatial,
                            const float* dy, const float* xhat,
                            const float* gamma, const float* inv_std,
                            const float* sum_dy, const float* sum_dy_xhat,
                            float inv_m, float* dx);

  /// dx = dy * (1 - y*y); `dx` may alias `dy`. The `1 - y*y` is
  /// contractible, so the scalar and strict AVX2 loops round differently.
  void (*tanh_bwd)(int64_t n, const float* y, const float* dy, float* dx);
};

/// The backend every dispatching call site uses. Selected once, on first
/// use: TABLEGAN_ISA=scalar|avx2 overrides; unset/"auto" picks the best
/// ISA the CPU supports (CPUID) among those compiled in. A forced
/// TABLEGAN_ISA=avx2 on hardware without AVX2 aborts with a clear
/// message rather than executing illegal instructions.
const Backend& Active();

/// The scalar reference backend (always available).
const Backend& Scalar();

/// The AVX2 backend, or nullptr when it was not compiled in or the CPU
/// lacks AVX2. Used by the parity tests and benches to compare backends
/// explicitly.
const Backend* Avx2();

/// Test/bench hook: force `backend` to be returned by Active() from now
/// on (pass nullptr to restore environment-based selection). Not for
/// production use — call only while no kernels are running.
void OverrideBackend(const Backend* backend);

/// Elementwise activations, one implementation for every backend: they
/// are comparisons, a single multiply, or a libm call per element (there
/// is no bit-identical vector libm), so no ISA can change their bits.
/// `y`/`dx` may alias `x`/`dy`.
void Relu(int64_t n, const float* x, float* y);
void ReluBwd(int64_t n, const float* x, const float* dy, float* dx);
void LeakyRelu(int64_t n, float slope, const float* x, float* y);
void LeakyReluBwd(int64_t n, float slope, const float* x, const float* dy,
                  float* dx);
void TanhFwd(int64_t n, const float* x, float* y);
void SigmoidFwd(int64_t n, const float* x, float* y);
/// dx = dy * (y * (1 - y)): no mul+add chain, so no contraction either.
void SigmoidBwd(int64_t n, const float* y, const float* dy, float* dx);

}  // namespace kernels
}  // namespace tablegan

#endif  // TABLEGAN_TENSOR_KERNELS_KERNELS_H_
