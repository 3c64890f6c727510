#include "e2e_util.h"

#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "tensor/kernels/kernels.h"

#ifndef TABLEGAN_BENCH_BUILD_TYPE
#define TABLEGAN_BENCH_BUILD_TYPE "unknown"
#endif

namespace tablegan {
namespace e2e {

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

Quartiles ComputeQuartiles(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const int64_t ld = static_cast<int64_t>(v.size());
  const int64_t m = ld + 1;
  double q[2] = {0.0, 0.0};
  for (int64_t i : {1, 3}) {
    const int64_t j = std::clamp<int64_t>(i * m / 4, 1, ld - 1);
    const int64_t delta = i * m - j * 4;
    const double lo = v[static_cast<size_t>(j - 1)];
    const double hi = v[static_cast<size_t>(j)];
    q[i / 2] = (lo * static_cast<double>(4 - delta) +
                hi * static_cast<double>(delta)) /
               4.0;
  }
  return {q[0], q[1]};
}

double PercentileNearestRank(std::vector<double> v, int permille) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const int64_t n = static_cast<int64_t>(v.size());
  const int64_t rank = std::max<int64_t>(1, (permille * n + 999) / 1000);
  return v[static_cast<size_t>(rank - 1)];
}

int64_t SamplesBeyond(int64_t n, int permille) {
  return n - (permille * n + 999) / 1000;
}

int HighestSupportedPermille(int64_t n) {
  int best = 0;
  for (int p : {500, 900, 950, 990, 999}) {
    if (SamplesBeyond(n, p) >= 10) best = p;
  }
  return best;
}

void Tracer::Record(const char* name, Clock::time_point start,
                    Clock::time_point end, int64_t id, int64_t parent,
                    int tid) {
  if (!enabled_) return;
  using us = std::chrono::duration<double, std::micro>;
  Span s{name, us(start - epoch_).count(), us(end - start).count(), id,
         parent, tid};
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(s));
}

size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

namespace {

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

void WriteMetadata(std::ostream& os,
                   const std::map<std::string, std::string>& kv) {
  os << "{";
  bool first = true;
  for (const auto& [k, v] : kv) {
    os << (first ? "" : ", ") << JsonString(k) << ": " << JsonString(v);
    first = false;
  }
  os << "}";
}

}  // namespace

void Tracer::WriteChromeJson(
    std::ostream& os,
    const std::map<std::string, std::string>& metadata) const {
  std::lock_guard<std::mutex> lock(mu_);
  os << "{\"traceEvents\": [";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << (i ? ",\n" : "\n") << "{\"name\": " << JsonString(s.name)
       << ", \"ph\": \"X\", \"pid\": 1, \"tid\": " << s.tid
       << ", \"ts\": " << JsonNumber(s.start_us)
       << ", \"dur\": " << JsonNumber(s.dur_us) << ", \"args\": {\"id\": "
       << s.id << ", \"parent\": " << s.parent << "}}";
  }
  os << "\n], \"metadata\": ";
  WriteMetadata(os, metadata);
  os << "}\n";
}

int UsableCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return std::max(1, CPU_COUNT(&set));
  }
  return 1;
}

std::map<std::string, std::string> HostProvenance() {
  std::map<std::string, std::string> host;
  host["nproc"] = std::to_string(UsableCpus());
  host["isa"] = kernels::Active().name;
  host["compiler"] = __VERSION__;
  host["build_type"] = TABLEGAN_BENCH_BUILD_TYPE;
  for (const char* var :
       {"TABLEGAN_ISA", "TABLEGAN_FMA", "TABLEGAN_NUM_THREADS"}) {
    if (const char* v = std::getenv(var)) host[var] = v;
  }
  return host;
}

const std::vector<WorkloadInfo>& Workloads() {
  static const std::vector<WorkloadInfo> kWorkloads = {
      {"train-adult-s4", WorkloadKind::kTrain, "adult", 32561, 3,
       "Fit on 32,561 Adult-like rows (side 4): tiny networks, so per-step "
       "fixed costs (batch encode, info loss, Adam, pool dispatch) dominate"},
      {"train-lacity-s8", WorkloadKind::kTrain, "lacity", 2048, 3,
       "Fit on LACity-like rows (side 8, the side of 3 of the paper's 4 "
       "tables): two conv stages, so conv GEMM, im2col and col2im dominate"},
      {"synth-lacity-bulk", WorkloadKind::kSynth, "lacity", 512, 1,
       "SampleRange in 4,096-row chunks plus CSV: the release path, "
       "inference and decode with no backward pass and no network"},
      {"serve-lacity-small", WorkloadKind::kServe, "lacity", 512, 1,
       "4 closed-loop clients fetch 64-row ranges from the loopback daemon: "
       "transport and framing dominate, generation is a small share"},
  };
  return kWorkloads;
}

const std::vector<MetricInfo>& EndToEndMetrics() {
  static const std::vector<MetricInfo> kMetrics = {
      {"setup_s", "s", "lower"},
      {"rows_per_s", "rows/s", "higher"},
      {"op_p50_ms", "ms", "lower"},
      {"mean_ks", "ks", "lower"},
      {"peak_rss_mb", "MB", "lower"},
  };
  return kMetrics;
}

const std::vector<MetricInfo>& PerLayerMetrics() {
  static const std::vector<MetricInfo> kMetrics = {
    {"common.parallel_for_us", "us", "lower"},
    {"tensor.gemm_nn_gflops", "GFLOP/s", "higher"},
    {"tensor.gemm_nt_gflops", "GFLOP/s", "higher"},
    {"tensor.gemm_tn_gflops", "GFLOP/s", "higher"},
    {"tensor.im2col_gbytes_per_s", "GB/s", "higher"},
    {"tensor.col2im_gbytes_per_s", "GB/s", "higher"},
    {"tensor.workspace_hit_ratio", "ratio", "higher"},
    {"nn.G.conv.fwd_us", "us", "lower"},
    {"nn.G.conv.bwd_us", "us", "lower"},
    {"nn.G.conv.infer_us", "us", "lower"},
    {"nn.G.dense.fwd_us", "us", "lower"},
    {"nn.G.dense.bwd_us", "us", "lower"},
    {"nn.G.dense.infer_us", "us", "lower"},
    {"nn.G.pointwise.fwd_us", "us", "lower"},
    {"nn.G.pointwise.bwd_us", "us", "lower"},
    {"nn.G.pointwise.infer_us", "us", "lower"},
    {"nn.D.conv.fwd_us", "us", "lower"},
    {"nn.D.conv.bwd_us", "us", "lower"},
    {"nn.D.dense.fwd_us", "us", "lower"},
    {"nn.D.dense.bwd_us", "us", "lower"},
    {"nn.D.pointwise.fwd_us", "us", "lower"},
    {"nn.D.pointwise.bwd_us", "us", "lower"},
    {"nn.adam_step_us.G", "us", "lower"},
    {"nn.adam_step_us.D", "us", "lower"},
    {"data.encode_rows_ns_per_row", "ns/row", "lower"},
    {"data.to_matrices_ns_per_row", "ns/row", "lower"},
    {"data.from_matrices_ns_per_row", "ns/row", "lower"},
    {"data.inverse_transform_ns_per_row", "ns/row", "lower"},
    {"data.write_csv_ns_per_row", "ns/row", "lower"},
    {"core.fit.first_epoch_s", "s", "lower"},
    {"core.fit.d_share", "share", "lower"},
    {"core.fit.c_share", "share", "lower"},
    {"core.fit.g_share", "share", "lower"},
    {"core.fit.other_share", "share", "lower"},
    {"core.fit.layer_share", "share", "higher"},
    {"core.sample_range_us_per_row", "us/row", "lower"},
    {"core.sample.layer_share", "share", "higher"},
    {"serve.request_ms_p50", "ms", "lower"},
    {"serve.request_ms_tail", "ms", "lower"},
    {"serve.request_tail_permille", "permille", "higher"},
    {"serve.requests_ok", "count", "higher"},
    {"serve.server_work_ms_p50", "ms", "lower"},
    {"serve.transport_wait_ms_p50", "ms", "lower"},
    {"serve.codec_us", "us", "lower"},
    {"trace.spans", "count", "higher"},
    {"trace.overhead_pct", "%", "lower"},
  };
  return kMetrics;
}

namespace {

void WriteMetricList(std::ostream& os, const std::vector<MetricInfo>& ms) {
  os << "[";
  for (size_t i = 0; i < ms.size(); ++i) {
    os << (i ? ", " : "") << "{\"name\": " << JsonString(ms[i].name)
       << ", \"unit\": " << JsonString(ms[i].unit)
       << ", \"better\": " << JsonString(ms[i].better) << "}";
  }
  os << "]";
}

void WriteMetricValues(std::ostream& os, const RunResult& r,
                       const std::vector<MetricInfo>& metrics) {
  os << "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    const auto it = r.values.find(metrics[i].name);
    os << (i ? ", " : "") << JsonString(metrics[i].name) << ": {\"value\": "
       << (it == r.values.end() ? "null" : JsonNumber(it->second))
       << ", \"unit\": " << JsonString(metrics[i].unit) << "}";
  }
  os << "}";
}

}  // namespace

void WriteDescribeJson(std::ostream& os) {
  os << "{\"workloads\": [";
  const auto& ws = Workloads();
  for (size_t i = 0; i < ws.size(); ++i) {
    os << (i ? ", " : "") << "{\"name\": " << JsonString(ws[i].name)
       << ", \"why\": " << JsonString(ws[i].why) << "}";
  }
  os << "], \"end_to_end\": ";
  WriteMetricList(os, EndToEndMetrics());
  os << ", \"per_layer\": ";
  WriteMetricList(os, PerLayerMetrics());
  os << "}\n";
}

void RunResult::SetMedian(const std::string& metric,
                          const std::vector<double>& v) {
  const double median = Median(v);
  values[metric] = median;
  samples[metric] = static_cast<int64_t>(v.size());
  if (v.size() >= 2 && median != 0.0) {
    const Quartiles q = ComputeQuartiles(v);
    spread[metric] = (q.q3 - q.q1) / median;
  }
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string ResultLineJson(const RunResult& r,
                           const std::vector<MetricInfo>& metrics) {
  std::ostringstream os;
  os << "{\"correct\": " << (r.correct() ? "true" : "false")
     << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
     << ", \"metrics\": ";
  WriteMetricValues(os, r, metrics);
  os << "}";
  return os.str();
}

std::string ReportJson(const RunResult& r,
                       const std::vector<MetricInfo>& metrics, uint64_t seed,
                       double seconds, bool trace) {
  std::ostringstream os;
  os << "{\"workload\": " << JsonString(r.workload) << ", \"seed\": " << seed
     << ", \"seconds\": " << JsonNumber(seconds)
     << ", \"trace\": " << (trace ? "true" : "false")
     << ", \"correct\": " << (r.correct() ? "true" : "false")
     << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
     << ", \"metrics\": ";
  WriteMetricValues(os, r, metrics);
  os << ", \"samples\": {";
  bool first = true;
  for (const auto& [name, n] : r.samples) {
    os << (first ? "" : ", ") << JsonString(name) << ": " << n;
    first = false;
  }
  os << "}, \"spread\": {";
  first = true;
  for (const auto& [name, s] : r.spread) {
    os << (first ? "" : ", ") << JsonString(name) << ": " << JsonNumber(s);
    first = false;
  }
  os << "}, \"host\": ";
  WriteMetadata(os, HostProvenance());
  os << "}\n";
  return os.str();
}

}  // namespace e2e
}  // namespace tablegan
