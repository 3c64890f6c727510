#!/usr/bin/env bash
# Runs the full ctest suite once per instruction-set backend:
# TABLEGAN_ISA=scalar (the golden-pinned reference) and, when the host
# supports it, TABLEGAN_ISA=avx2. A host without AVX2 skips that leg
# gracefully instead of failing. Every test must pass under every
# backend — this is the cross-ISA acceptance gate for the dispatch
# layer (DESIGN.md §12).
#
# Usage: tools/run_isa_matrix.sh [build-dir]   (default: build)
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-${repo_root}/build}"

cmake -B "${build_dir}" -S "${repo_root}"
cmake --build "${build_dir}" -j "$(nproc)"

isas=(scalar)
# Probe the host the same way the dispatcher does (CPUID); grep'ing
# /proc/cpuinfo keeps the probe dependency-free and works in containers.
if grep -qw avx2 /proc/cpuinfo 2>/dev/null; then
  isas+=(avx2)
else
  echo "== host lacks AVX2; skipping the avx2 leg =="
fi

for isa in "${isas[@]}"; do
  echo "== ctest with TABLEGAN_ISA=${isa} =="
  TABLEGAN_ISA="${isa}" \
    ctest --test-dir "${build_dir}" --output-on-failure
done
