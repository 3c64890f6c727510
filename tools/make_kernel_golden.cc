// Regenerates the kernel-golden CRCs asserted by
// tests/kernel_parity_test.cc (KernelGoldenTest): the fixed-seed train +
// Sample stream of the selected backend, at thread counts 1 and 3. Run
// it under TABLEGAN_ISA=scalar for the scalar CRCs — which pin the
// scalar backend to the bits the kernels produced before the dispatch
// layer existed — and under TABLEGAN_ISA=avx2 for the AVX2 ones. Both
// are a property of (source, compiler, flags, libm); on a host with a
// different toolchain export the printed scalar values as
// TABLEGAN_KERNEL_GOLDEN_{LOSS,S33,S20} instead of editing the test.
#include <cstdio>

#include "common/crc32.h"
#include "common/random.h"
#include "core/table_gan.h"
#include "data/datasets.h"
#include "tensor/kernels/kernels.h"

namespace tablegan {
namespace {

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

int Run() {
  std::printf("backend: %s\n", kernels::Active().name);
  for (int threads : {1, 3}) {
    Rng rng(77);
    data::Table table = data::MakeAdultLike(96, &rng);
    const auto labels =
        table.schema().ColumnsWithRole(data::ColumnRole::kLabel);
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
    core::TableGan gan(options);
    Status fit = gan.Fit(table, labels[0]);
    if (!fit.ok()) {
      std::fprintf(stderr, "Fit failed: %s\n", fit.ToString().c_str());
      return 1;
    }
    uint32_t loss_crc = 0;
    for (const auto& e : gan.history()) {
      loss_crc = Crc32(&e.d_loss, sizeof(float), loss_crc);
      loss_crc = Crc32(&e.g_orig_loss, sizeof(float), loss_crc);
      loss_crc = Crc32(&e.info_loss, sizeof(float), loss_crc);
      loss_crc = Crc32(&e.class_loss, sizeof(float), loss_crc);
    }
    auto s33 = gan.Sample(33);
    auto s20 = gan.Sample(20);
    if (!s33.ok() || !s20.ok()) {
      std::fprintf(stderr, "Sample failed\n");
      return 1;
    }
    std::printf(
        "threads=%d loss_crc=0x%08x sample33_crc=0x%08x "
        "sample20_crc=0x%08x\n",
        threads, loss_crc, TableCrc(*s33), TableCrc(*s20));
  }
  std::printf(
      "export TABLEGAN_KERNEL_GOLDEN_LOSS / _S33 / _S20 with these values "
      "to run KernelGoldenTest against a non-default toolchain.\n");
  return 0;
}

}  // namespace
}  // namespace tablegan

int main() { return tablegan::Run(); }
