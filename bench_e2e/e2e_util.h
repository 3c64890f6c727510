#ifndef TABLEGAN_BENCH_E2E_E2E_UTIL_H_
#define TABLEGAN_BENCH_E2E_E2E_UTIL_H_

// Helpers shared by bench_e2e and its unit test: sample statistics, the
// in-memory span recorder behind --trace 1, host provenance, and the
// single registry of workload and metric names that --describe prints
// and BENCHMARK.json must match.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

namespace tablegan {
namespace e2e {

// --- Statistics -----------------------------------------------------------

/// Median (mean of the two middle values for an even count); 0 when empty.
double Median(std::vector<double> v);

/// First and third quartile with the same interpolation as Python's
/// statistics.quantiles(v, n=4) (method "exclusive"), so spreads computed
/// here and by compare.py agree. Requires at least 2 values.
struct Quartiles {
  double q1 = 0.0;
  double q3 = 0.0;
};
Quartiles ComputeQuartiles(std::vector<double> v);

/// Nearest-rank percentile of `v` at `permille` (e.g. 990 for p99):
/// the value of rank ceil(permille * n / 1000). Integer rank arithmetic,
/// so p99 of 1000 samples is exactly rank 990.
double PercentileNearestRank(std::vector<double> v, int permille);

/// Samples ranked strictly above the nearest-rank `permille` percentile.
int64_t SamplesBeyond(int64_t n, int permille);

/// Highest of p50, p90, p95, p99 and p99.9 (as permille) that has at
/// least 10 samples beyond it among `n`; 0 when even the median has fewer
/// (n < 20). A tail percentile with fewer samples beyond it is one or two
/// unlucky requests, not a measurement.
int HighestSupportedPermille(int64_t n);

// --- Tracing --------------------------------------------------------------

using Clock = std::chrono::steady_clock;

/// One completed span. `parent` is 0 for a root span; spans of one unit
/// of work (a training job, a synthesis chunk, one client's requests)
/// share `tid`.
struct Span {
  std::string name;
  double start_us = 0.0;  // since the tracer's epoch
  double dur_us = 0.0;
  int64_t id = 0;
  int64_t parent = 0;
  int tid = 0;
};

/// Keeps spans in memory (thread-safe) and writes them as Chrome
/// trace-event JSON when the benchmark ends. A disabled tracer records
/// nothing; NewId still hands out ids so callers need no branches.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}

  bool enabled() const { return enabled_; }
  int64_t NewId() { return next_id_.fetch_add(1) + 1; }
  void Record(const char* name, Clock::time_point start,
              Clock::time_point end, int64_t id, int64_t parent, int tid);
  size_t size() const;

  /// {"traceEvents": [...], "metadata": {...}}; each event is a complete
  /// ("ph": "X") event whose args carry the span id and its parent id.
  void WriteChromeJson(std::ostream& os,
                       const std::map<std::string, std::string>& metadata)
      const;

 private:
  const bool enabled_;
  const Clock::time_point epoch_;
  std::atomic<int64_t> next_id_{0};
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
};

/// Records [construction, destruction) as one span.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, int64_t parent = 0,
             int tid = 0)
      : tracer_(tracer),
        name_(name),
        id_(tracer->NewId()),
        parent_(parent),
        tid_(tid),
        start_(tracer->enabled() ? Clock::now() : Clock::time_point()) {}
  ~ScopedSpan() {
    if (tracer_->enabled()) {
      tracer_->Record(name_, start_, Clock::now(), id_, parent_, tid_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int64_t id() const { return id_; }

 private:
  Tracer* tracer_;
  const char* name_;
  int64_t id_;
  int64_t parent_;
  int tid_;
  Clock::time_point start_;
};

// --- Host provenance -----------------------------------------------------

/// CPUs this process may run on (sched_getaffinity, as `nproc` reports).
int UsableCpus();

/// nproc, the kernel backend kernels::Active() selected, compiler,
/// build type and any TABLEGAN_ISA / TABLEGAN_FMA / TABLEGAN_NUM_THREADS
/// override, as ordered key/value pairs.
std::map<std::string, std::string> HostProvenance();

// --- Names ----------------------------------------------------------------

enum class WorkloadKind { kTrain, kSynth, kServe };

struct WorkloadInfo {
  const char* name;
  WorkloadKind kind;
  const char* dataset;  // "adult" or "lacity"
  int64_t rows;         // training rows
  int epochs;           // per Fit: each timed job (train), the model (else)
  const char* why;
};

struct MetricInfo {
  const char* name;
  const char* unit;
  const char* better;  // "lower" or "higher"
};

/// The benchmark's workloads, end-to-end metrics (printed with --trace 0)
/// and per-layer metrics (printed with --trace 1), in output order.
const std::vector<WorkloadInfo>& Workloads();
const std::vector<MetricInfo>& EndToEndMetrics();
const std::vector<MetricInfo>& PerLayerMetrics();

/// --describe output: {"workloads": [...], "end_to_end": [...],
/// "per_layer": [...]} with names, units and directions.
void WriteDescribeJson(std::ostream& os);

// --- Result ---------------------------------------------------------------

/// The outcome of one run: operations attempted and failed (correctness
/// checks count as operations) and the measured metric values.
struct RunResult {
  std::string workload;
  int64_t attempted = 0;
  int64_t failed = 0;
  bool checks_passed = true;
  std::map<std::string, double> values;
  /// For each metric that is the median of many samples: the sample
  /// count and the samples' quartile spread, (q3 - q1) / median, which
  /// shows whether the run itself was steady.
  std::map<std::string, int64_t> samples;
  std::map<std::string, double> spread;

  /// values[metric] = Median(v), with its sample count and spread.
  void SetMedian(const std::string& metric, const std::vector<double>& v);

  bool correct() const { return checks_passed && failed == 0; }
};

/// Formats a finite double with all significant digits (%.17g); a
/// non-finite value becomes JSON null.
std::string JsonNumber(double v);

/// The one-line result object: {"correct", "attempted", "failed",
/// "metrics": {name: {"value", "unit"}}} over `metrics`, in order. A
/// metric missing from `r.values` is written as null, which the caller
/// treats as a failed run.
std::string ResultLineJson(const RunResult& r,
                           const std::vector<MetricInfo>& metrics);

/// The fuller --json report: the result line's fields plus workload,
/// seed, run length, sample counts and spreads, and host provenance.
std::string ReportJson(const RunResult& r,
                       const std::vector<MetricInfo>& metrics, uint64_t seed,
                       double seconds, bool trace);

}  // namespace e2e
}  // namespace tablegan

#endif  // TABLEGAN_BENCH_E2E_E2E_UTIL_H_
