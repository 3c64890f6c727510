#ifndef TABLEGAN_COMMON_PARALLEL_H_
#define TABLEGAN_COMMON_PARALLEL_H_

#include <cstdint>
#include <functional>

namespace tablegan {

/// Process-wide parallelism context for the hot numeric kernels (GEMM and
/// the im2col convolutions). A single shared worker pool is constructed
/// lazily on first parallel call; its size comes from, in priority order,
///   1. SetNumThreads(n) with n >= 1 (programmatic override),
///   2. the TABLEGAN_NUM_THREADS environment variable (unset or empty
///      means auto; any other value must be an integer in
///      [1, kMaxThreads], or the process aborts naming the value),
///   3. std::thread::hardware_concurrency(), capped at 16.
///
/// Determinism contract: every parallel construct in the library is
/// *thread-count invariant* — running with 1 thread and with N threads
/// produces bitwise-identical results. ParallelFor guarantees its chunk
/// boundaries are a pure function of (n, grain); callers guarantee either
/// that chunks write disjoint outputs with chunk-independent arithmetic
/// (GEMM row partitions) or that reductions over chunk partials are
/// combined serially in chunk order (conv weight gradients).

/// Upper bound on an explicit thread count (TABLEGAN_NUM_THREADS and the
/// CLI's --threads): the pool starts that many threads.
inline constexpr int kMaxThreads = 4096;

/// Effective thread count (always >= 1).
int GetNumThreads();

/// Overrides the thread count; n <= 0 clears the override and returns to
/// the environment/hardware default. The shared pool is resized lazily on
/// the next ParallelFor call.
void SetNumThreads(int n);

/// Current programmatic override as set by SetNumThreads (0 when none).
/// Unlike GetNumThreads() this does not fall back to the environment or
/// hardware default; it exists so scoped overrides can restore the exact
/// prior state.
int GetNumThreadsOverride();

/// RAII scope for a thread-count override. Applies `n` (when n >= 1) on
/// construction and restores the previous override — including "no
/// override" — on destruction, so a per-model `num_threads` option never
/// leaks into unrelated work on the same process.
class ScopedNumThreads {
 public:
  explicit ScopedNumThreads(int n) : saved_(GetNumThreadsOverride()) {
    if (n > 0) SetNumThreads(n);
  }
  ~ScopedNumThreads() { SetNumThreads(saved_); }

  ScopedNumThreads(const ScopedNumThreads&) = delete;
  ScopedNumThreads& operator=(const ScopedNumThreads&) = delete;

 private:
  int saved_;
};

/// True while the calling thread is executing a ParallelFor body. Nested
/// ParallelFor calls run inline (serially) instead of re-entering the
/// pool, which keeps re-entrant kernels deadlock-free.
bool InParallelRegion();

/// Runs body(begin, end) over a partition of [0, n) into contiguous
/// chunks of size `grain` (the last chunk may be short). Chunk boundaries
/// depend only on (n, grain), never on the thread count. The calling
/// thread participates in the work, so the call makes progress even when
/// every pool worker is busy. The first exception thrown by a body is
/// rethrown on the calling thread after all chunks have been accounted
/// for; remaining chunks are cancelled.
void ParallelFor(int64_t n, int64_t grain,
                 const std::function<void(int64_t, int64_t)>& body);

/// Deterministic partition of [0, n) into min(n, max_chunks) nearly equal
/// contiguous chunks. Boundaries depend only on (n, max_chunks) — never
/// on the thread count — so per-chunk partial reductions combined in
/// chunk order are bitwise reproducible at any parallelism level.
struct FixedChunks {
  FixedChunks(int64_t n, int64_t max_chunks)
      : n(n), count(n < max_chunks ? (n > 0 ? n : 1) : max_chunks) {}
  int64_t begin(int64_t c) const { return n * c / count; }
  int64_t end(int64_t c) const { return n * (c + 1) / count; }

  int64_t n;
  int64_t count;
};

/// Default chunk cap for batch-parallel loops whose gradients are reduced
/// over chunk partials (bounds partial-buffer memory to this many copies).
inline constexpr int64_t kDefaultBatchChunks = 16;

}  // namespace tablegan

#endif  // TABLEGAN_COMMON_PARALLEL_H_
