// google-benchmark microbenches for the substrates the reproduction is
// built on: SGEMM, DCGAN conv forward/backward, generator sampling
// throughput, table encoding, and DCR search. These back the Table 4
// discussion (where the paper's GPU minutes become CPU seconds).

#include <benchmark/benchmark.h>

#include "common/parallel.h"
#include "common/random.h"
#include "core/networks.h"
#include "data/datasets.h"
#include "data/normalizer.h"
#include "data/record_matrix.h"
#include "nn/conv2d.h"
#include "nn/conv_transpose2d.h"
#include "nn/init.h"
#include "privacy/dcr.h"
#include "tensor/im2col.h"
#include "tensor/kernels/kernels.h"
#include "tensor/matmul.h"

namespace tablegan {
namespace {

// --- Per-backend kernel benches (BENCH_simd_kernels.json). Arg(0)
// selects the backend (0 = scalar, 1 = avx2); runs are
// single-threaded so items_per_second reads directly as FLOP/s of the
// serial kernel, and the avx2/scalar ratio is the SIMD speedup the
// dispatch layer buys. Each runs 5 repetitions and reports only their
// mean, median, stddev and cv, so a ratio comes with its noise. Hosts
// without AVX2 report the vector rows as skipped instead of failing.

const kernels::Backend* BenchBackend(int which) {
  return which == 0 ? &kernels::Scalar() : kernels::Avx2();
}

// Overrides dispatch for the duration of one benchmark run.
struct BackendScope {
  explicit BackendScope(const kernels::Backend* b) {
    kernels::OverrideBackend(b);
  }
  ~BackendScope() { kernels::OverrideBackend(nullptr); }
};

void BM_GemmBackend(benchmark::State& state) {
  const kernels::Backend* backend =
      BenchBackend(static_cast<int>(state.range(0)));
  if (backend == nullptr) {
    state.SkipWithError("AVX2 backend unavailable on this host");
    return;
  }
  const auto n = static_cast<int64_t>(state.range(1));
  Rng rng(1);
  Tensor a = Tensor::Uniform({n, n}, -1, 1, &rng);
  Tensor b = Tensor::Uniform({n, n}, -1, 1, &rng);
  Tensor c({n, n});
  BackendScope scope(backend);
  SetNumThreads(1);
  for (auto _ : state) {
    ops::Gemm(false, false, 1.0f, a, b, 0.0f, &c);
    benchmark::DoNotOptimize(c.data());
  }
  SetNumThreads(0);
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
  state.SetLabel(backend->name);
}
BENCHMARK(BM_GemmBackend)
    ->ArgsProduct({{0, 1}, {64, 128, 256}})
    ->UseRealTime()
    ->Repetitions(5)
    ->ReportAggregatesOnly(true);

void BM_GemmNtBackend(benchmark::State& state) {
  const kernels::Backend* backend =
      BenchBackend(static_cast<int>(state.range(0)));
  if (backend == nullptr) {
    state.SkipWithError("AVX2 backend unavailable on this host");
    return;
  }
  const auto n = static_cast<int64_t>(state.range(1));
  Rng rng(2);
  Tensor a = Tensor::Uniform({n, n}, -1, 1, &rng);
  Tensor b = Tensor::Uniform({n, n}, -1, 1, &rng);
  Tensor c({n, n});
  BackendScope scope(backend);
  SetNumThreads(1);
  for (auto _ : state) {
    ops::RawGemmNT(n, n, n, a.data(), b.data(), c.data(),
                   /*accumulate=*/false);
    benchmark::DoNotOptimize(c.data());
  }
  SetNumThreads(0);
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
  state.SetLabel(backend->name);
}
BENCHMARK(BM_GemmNtBackend)
    ->ArgsProduct({{0, 1}, {128, 256}})
    ->UseRealTime()
    ->Repetitions(5)
    ->ReportAggregatesOnly(true);

void BM_GemmTnBackend(benchmark::State& state) {
  const kernels::Backend* backend =
      BenchBackend(static_cast<int>(state.range(0)));
  if (backend == nullptr) {
    state.SkipWithError("AVX2 backend unavailable on this host");
    return;
  }
  const auto n = static_cast<int64_t>(state.range(1));
  Rng rng(3);
  Tensor a = Tensor::Uniform({n, n}, -1, 1, &rng);
  Tensor b = Tensor::Uniform({n, n}, -1, 1, &rng);
  Tensor c({n, n});
  BackendScope scope(backend);
  SetNumThreads(1);
  for (auto _ : state) {
    ops::RawGemmTN(n, n, n, a.data(), b.data(), c.data(),
                   /*accumulate=*/false);
    benchmark::DoNotOptimize(c.data());
  }
  SetNumThreads(0);
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
  state.SetLabel(backend->name);
}
BENCHMARK(BM_GemmTnBackend)
    ->ArgsProduct({{0, 1}, {128, 256}})
    ->UseRealTime()
    ->Repetitions(5)
    ->ReportAggregatesOnly(true);

void BM_ConvForwardBackend(benchmark::State& state) {
  const kernels::Backend* backend =
      BenchBackend(static_cast<int>(state.range(0)));
  if (backend == nullptr) {
    state.SkipWithError("AVX2 backend unavailable on this host");
    return;
  }
  Rng rng(4);
  nn::Conv2d conv(32, 64, 4, 2, 1);
  nn::DcganInitialize(&conv, &rng);
  Tensor x = Tensor::Uniform({64, 32, 16, 16}, -1, 1, &rng);
  BackendScope scope(backend);
  SetNumThreads(1);
  for (auto _ : state) {
    Tensor y = conv.Forward(x, true);
    benchmark::DoNotOptimize(y.data());
  }
  SetNumThreads(0);
  state.SetItemsProcessed(state.iterations() * 64);
  state.SetLabel(backend->name);
}
BENCHMARK(BM_ConvForwardBackend)
    ->Arg(0)
    ->Arg(1)
    ->UseRealTime()
    ->Repetitions(5)
    ->ReportAggregatesOnly(true);

void BM_Gemm(benchmark::State& state) {
  const auto n = static_cast<int64_t>(state.range(0));
  Rng rng(1);
  Tensor a = Tensor::Uniform({n, n}, -1, 1, &rng);
  Tensor b = Tensor::Uniform({n, n}, -1, 1, &rng);
  Tensor c({n, n});
  for (auto _ : state) {
    ops::Gemm(false, false, 1.0f, a, b, 0.0f, &c);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_Gemm)->Arg(64)->Arg(128)->Arg(256);

void BM_ConvForward(benchmark::State& state) {
  const auto batch = static_cast<int64_t>(state.range(0));
  Rng rng(2);
  nn::Conv2d conv(1, 32, 4, 2, 1);
  nn::DcganInitialize(&conv, &rng);
  Tensor x = Tensor::Uniform({batch, 1, 8, 8}, -1, 1, &rng);
  for (auto _ : state) {
    Tensor y = conv.Forward(x, true);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_ConvForward)->Arg(16)->Arg(64);

void BM_ConvBackward(benchmark::State& state) {
  const auto batch = static_cast<int64_t>(state.range(0));
  Rng rng(3);
  nn::Conv2d conv(1, 32, 4, 2, 1);
  nn::DcganInitialize(&conv, &rng);
  Tensor x = Tensor::Uniform({batch, 1, 8, 8}, -1, 1, &rng);
  Tensor y = conv.Forward(x, true);
  Tensor grad = Tensor::Uniform(y.shape(), -1, 1, &rng);
  for (auto _ : state) {
    conv.ZeroGrad();
    Tensor gx = conv.Backward(grad);
    benchmark::DoNotOptimize(gx.data());
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_ConvBackward)->Arg(16)->Arg(64);

void BM_GeneratorSample(benchmark::State& state) {
  Rng rng(4);
  auto g = core::BuildGenerator(/*side=*/8, /*latent_dim=*/32,
                                /*base_channels=*/16, &rng);
  Tensor z = Tensor::Uniform({64, 32}, -1, 1, &rng);
  for (auto _ : state) {
    Tensor out = g->Forward(z, false);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_GeneratorSample);

void BM_TableEncode(benchmark::State& state) {
  Rng rng(5);
  data::Table table = data::MakeHealthLike(1000, &rng);
  data::MinMaxNormalizer norm;
  (void)norm.Fit(table);
  data::RecordMatrixCodec codec(
      table.num_columns(),
      data::RecordMatrixCodec::ChooseSide(table.num_columns()));
  for (auto _ : state) {
    Tensor records = *norm.Transform(table);
    Tensor mats = *codec.ToMatrices(records);
    benchmark::DoNotOptimize(mats.data());
  }
  state.SetItemsProcessed(state.iterations() * table.num_rows());
}
BENCHMARK(BM_TableEncode);

void BM_DcrSearch(benchmark::State& state) {
  const auto rows = static_cast<int64_t>(state.range(0));
  Rng rng(6);
  data::Table a = data::MakeAdultLike(rows, &rng);
  data::Table b = data::MakeAdultLike(rows, &rng);
  const auto cols = privacy::QidAndSensitiveColumns(a.schema());
  for (auto _ : state) {
    auto dcr = privacy::ComputeDcr(a, b, cols);
    benchmark::DoNotOptimize(dcr->mean);
  }
  state.SetItemsProcessed(state.iterations() * rows * rows);
}
BENCHMARK(BM_DcrSearch)->Arg(256)->Arg(1024);

}  // namespace
}  // namespace tablegan

BENCHMARK_MAIN();
