#include "common/parallel.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <thread>

#include "common/args.h"
#include "common/logging.h"
#include "common/thread_pool.h"

namespace tablegan {
namespace {

constexpr int kMaxAutoThreads = 16;

std::atomic<int> g_override{0};

std::mutex g_pool_mu;
// Shared by every ParallelFor call; shared_ptr so a concurrent resize
// (SetNumThreads between calls) never destroys a pool that another
// thread's call is still draining.
std::shared_ptr<ThreadPool> g_pool;  // NOLINT: intentional process lifetime
int g_pool_workers = 0;

thread_local int tl_region_depth = 0;

struct RegionGuard {
  RegionGuard() { ++tl_region_depth; }
  ~RegionGuard() { --tl_region_depth; }
};

// Unset or empty means "auto" (0). Anything else must be an integer in
// [1, kMaxThreads]: a typo must not silently fall back to auto, and a
// huge value must not start that many pool threads.
int EnvThreads() {
  const char* s = std::getenv("TABLEGAN_NUM_THREADS");
  if (s == nullptr || *s == '\0') return 0;
  const Result<int64_t> n = args::ParseInt(s, 1, kMaxThreads);
  TABLEGAN_CHECK(n.ok()) << "bad TABLEGAN_NUM_THREADS value '" << s
                         << "' (expected an integer in [1, " << kMaxThreads
                         << "], or unset for auto)";
  return static_cast<int>(*n);
}

/// State of one ParallelFor call, shared with helper tasks so a helper
/// that only starts after the caller has already drained every chunk
/// finds an exhausted counter instead of dangling references.
struct LoopState {
  LoopState(int64_t n, int64_t grain, int64_t num_chunks,
            std::function<void(int64_t, int64_t)> body)
      : n(n), grain(grain), num_chunks(num_chunks), body(std::move(body)) {}

  const int64_t n;
  const int64_t grain;
  const int64_t num_chunks;
  const std::function<void(int64_t, int64_t)> body;

  std::atomic<int64_t> next{0};
  std::atomic<int64_t> done{0};
  std::atomic<bool> cancelled{false};
  std::mutex mu;
  std::condition_variable cv;
  std::exception_ptr error;  // first failure; guarded by mu
};

void DrainChunks(const std::shared_ptr<LoopState>& st) {
  RegionGuard region;
  for (;;) {
    const int64_t c = st->next.fetch_add(1);
    if (c >= st->num_chunks) return;
    if (!st->cancelled.load(std::memory_order_relaxed)) {
      const int64_t begin = c * st->grain;
      const int64_t end = std::min(st->n, begin + st->grain);
      try {
        st->body(begin, end);
      } catch (...) {
        std::lock_guard<std::mutex> lock(st->mu);
        if (!st->error) st->error = std::current_exception();
        st->cancelled.store(true, std::memory_order_relaxed);
      }
    }
    if (st->done.fetch_add(1) + 1 == st->num_chunks) {
      std::lock_guard<std::mutex> lock(st->mu);
      st->cv.notify_all();
    }
  }
}

std::shared_ptr<ThreadPool> SharedPool(int workers) {
  std::lock_guard<std::mutex> lock(g_pool_mu);
  if (!g_pool || g_pool_workers != workers) {
    g_pool = std::make_shared<ThreadPool>(workers);
    g_pool_workers = workers;
  }
  return g_pool;
}

}  // namespace

int GetNumThreads() {
  const int override_value = g_override.load(std::memory_order_relaxed);
  if (override_value > 0) return override_value;
  const int env = EnvThreads();
  if (env > 0) return env;
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  return std::clamp(hw, 1, kMaxAutoThreads);
}

void SetNumThreads(int n) {
  g_override.store(n > 0 ? n : 0, std::memory_order_relaxed);
}

int GetNumThreadsOverride() {
  return g_override.load(std::memory_order_relaxed);
}

bool InParallelRegion() { return tl_region_depth > 0; }

void ParallelFor(int64_t n, int64_t grain,
                 const std::function<void(int64_t, int64_t)>& body) {
  if (n <= 0) return;
  if (grain < 1) grain = 1;
  const int64_t num_chunks = (n + grain - 1) / grain;
  const int threads = GetNumThreads();
  if (threads <= 1 || num_chunks <= 1 || InParallelRegion()) {
    RegionGuard region;
    body(0, n);
    return;
  }
  auto st = std::make_shared<LoopState>(n, grain, num_chunks, body);
  auto pool = SharedPool(threads - 1);
  const int helpers = static_cast<int>(std::min<int64_t>(
      pool->num_threads(), num_chunks - 1));
  for (int h = 0; h < helpers; ++h) {
    pool->Submit([st] { DrainChunks(st); });
  }
  DrainChunks(st);
  std::unique_lock<std::mutex> lock(st->mu);
  st->cv.wait(lock, [&] { return st->done.load() == st->num_chunks; });
  if (st->error) std::rethrow_exception(st->error);
}

}  // namespace tablegan
