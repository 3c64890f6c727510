// Backend selection: once per process, from TABLEGAN_ISA and CPUID. All
// call sites go through Active(), whose selected pointer is immutable
// after first use, so dispatch costs one atomic load.

#include "tensor/kernels/kernels.h"

#include <atomic>
#include <cstdlib>
#include <string>

#include "common/logging.h"

namespace tablegan {
namespace kernels {

// Defined in kernels_avx2.cc; returns nullptr when the backend was not
// compiled in (compiler without AVX2 support).
const Backend* Avx2CompiledBackend();

namespace {

bool CpuSupportsAvx2() {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_cpu_supports("avx2");
#else
  return false;
#endif
}

const Backend* SelectFromEnv() {
  const char* isa = std::getenv("TABLEGAN_ISA");
  const std::string choice = isa == nullptr ? "auto" : isa;
  if (choice == "scalar") return &Scalar();
  if (choice == "avx2") {
    const Backend* b = Avx2();
    TABLEGAN_CHECK(b != nullptr)
        << "TABLEGAN_ISA=avx2 requested but AVX2 is "
        << (Avx2CompiledBackend() == nullptr ? "not compiled in"
                                             : "not supported by this CPU");
    return b;
  }
  TABLEGAN_CHECK(choice == "auto" || choice.empty())
      << "unknown TABLEGAN_ISA value '" << choice
      << "' (expected scalar, avx2 or auto)";
  const Backend* b = Avx2();
  return b != nullptr ? b : &Scalar();
}

std::atomic<const Backend*> g_override{nullptr};

}  // namespace

const Backend& Active() {
  const Backend* forced = g_override.load(std::memory_order_acquire);
  if (forced != nullptr) return *forced;
  static const Backend* selected = SelectFromEnv();
  return *selected;
}

const Backend* Avx2() {
  return CpuSupportsAvx2() ? Avx2CompiledBackend() : nullptr;
}

void OverrideBackend(const Backend* backend) {
  g_override.store(backend, std::memory_order_release);
}

}  // namespace kernels
}  // namespace tablegan
