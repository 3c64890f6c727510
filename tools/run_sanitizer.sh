#!/usr/bin/env bash
# Builds the repo under a sanitizer and runs the ctest suite labelled
# with the suite's name (the labels are set in tests/CMakeLists.txt):
#
#   asan       AddressSanitizer over the I/O, serialization, kernel and
#              serving tests: Load on truncated or bit-flipped files must
#              fail cleanly rather than read out of bounds.
#   tsan       ThreadSanitizer over the substrate (common / tensor / nn),
#              the parallel evaluation pipeline and the serving daemon.
#   ubsan      UBSan (-fno-sanitize-recover=all) over the kernel and
#              substrate tests; the parity suite drives every intrinsics
#              path through its awkward-shape sweep.
#   failpoint  AddressSanitizer over the fault-injection and property
#              suites: injected short writes, truncations and corruption
#              must fail with a clean Status. TABLEGAN_PROP_CASES scales
#              the property-test effort and TABLEGAN_PROP_SEED replays one
#              reported case.
#
# The kernel-golden CRCs pin the default -O3 codegen; a sanitizer build
# compiles the kernels differently, so they are skipped
# (TABLEGAN_SKIP_KERNEL_GOLDEN=1) and only the parity half of
# kernel_parity_test is meaningful here.
#
# Usage: tools/run_sanitizer.sh <asan|tsan|ubsan|failpoint> [build-dir]
#   (default build-dir: build-asan for asan and failpoint, build-tsan,
#   build-ubsan)
set -euo pipefail

kind="${1:-}"
case "${kind}" in
  asan|failpoint) sanitize=address; default_dir=build-asan ;;
  tsan) sanitize=thread; default_dir=build-tsan ;;
  ubsan) sanitize=undefined; default_dir=build-ubsan ;;
  *)
    echo "usage: $0 <asan|tsan|ubsan|failpoint> [build-dir]" >&2
    exit 2
    ;;
esac

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${2:-${repo_root}/${default_dir}}"
label="^${kind}\$"

cmake -B "${build_dir}" -S "${repo_root}" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DTABLEGAN_SANITIZE="${sanitize}"

# Every labelled test runs the executable of the same name.
mapfile -t targets < <(ctest --test-dir "${build_dir}" -N -L "${label}" |
  sed -n 's/^ *Test *#[0-9]*: //p')
if [[ ${#targets[@]} -eq 0 ]]; then
  echo "no tests labelled ${kind}" >&2
  exit 1
fi
cmake --build "${build_dir}" -j "$(nproc)" --target "${targets[@]}"

# abort_on_error / halt_on_error make the first report fail the test with
# a backtrace; print_stacktrace symbolizes UBSan reports.
ASAN_OPTIONS="${ASAN_OPTIONS:-abort_on_error=1:detect_leaks=1}" \
TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1}" \
UBSAN_OPTIONS="${UBSAN_OPTIONS:-print_stacktrace=1}" \
TABLEGAN_SKIP_KERNEL_GOLDEN=1 \
  ctest --test-dir "${build_dir}" --output-on-failure -L "${label}"
