// bench_e2e — the repository benchmark: four named workloads over the
// hot-path modules (common, tensor, nn, data, core, serve), timed from
// outside through their public functions.
//
//   bench_e2e --workload <name|all> --seed N [--seconds S] [--trace 0|1]
//             [--json out.json] [--trace-out spans.json]
//   bench_e2e --describe
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones
// (the same timed phase with spans recorded, then replay probes). Each
// metric is one "<workload> <metric> <value> <unit>" line; the last line
// is the result as one JSON object. Correctness checks run outside every
// timed interval; a failed check or operation counts in "failed" and
// makes the exit code 1. `--workload all` re-executes this binary once
// per workload, so each gets a fresh process and its own peak RSS.

#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/args.h"
#include "common/parallel.h"
#include "core/table_gan.h"
#include "data/csv.h"
#include "data/datasets.h"
#include "e2e_util.h"
#include "eval/fidelity.h"
#include "probes.h"
#include "serve/client.h"
#include "serve/registry.h"
#include "serve/server.h"

extern char** environ;

namespace tablegan {
namespace e2e {
namespace {

constexpr int kSetupRepeats = 5;
constexpr int64_t kWarmupRows = 512;
constexpr int64_t kQualityRows = 2048;
constexpr int64_t kChunkRows = 4096;
constexpr int64_t kRequestRows = 64;
constexpr int kProbeRequestsPerClient = 8;
constexpr size_t kMaxReplays = 64;
constexpr char kModelId[] = "bench";

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 20.0;  // run_seconds in BENCHMARK.json
  bool trace = false;
  std::string json_path;
  std::string trace_path;
};

double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

/// Per-run bookkeeping: every operation and correctness check is one
/// attempt; failures are counted and explained on stderr.
struct Run {
  Run(const Args& args, const WorkloadInfo& w)
      : args(args),
        workload(w),
        threads(UsableCpus()),
        tracer(args.trace) {
    result.workload = w.name;
  }

  void Op(bool ok, const std::string& what) {
    ++result.attempted;
    if (!ok) {
      ++result.failed;
      std::fprintf(stderr, "%s: FAILED: %s\n", workload.name, what.c_str());
    }
  }

  /// Starts the timed phase and returns its deadline.
  Clock::time_point StartTimed() {
    timed_start = Clock::now();
    spans_before = tracer.size();
    return timed_start + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(args.seconds));
  }
  void EndTimed() {
    timed_s = Seconds(Clock::now() - timed_start);
    timed_spans = tracer.size() - spans_before;
  }

  const Args& args;
  const WorkloadInfo& workload;
  const int threads;
  Tracer tracer;
  RunResult result;
  MetricMap layer;  // per-layer metrics (trace runs only)
  Clock::time_point timed_start;
  size_t spans_before = 0;
  size_t timed_spans = 0;
  double timed_s = 0.0;
};

// --- Inputs and models --------------------------------------------------

data::Table MakeTable(const WorkloadInfo& w, uint64_t seed) {
  Rng rng(seed);
  return std::strcmp(w.dataset, "adult") == 0
             ? data::MakeAdultLike(w.rows, &rng)
             : data::MakeLaCityLike(w.rows, &rng);
}

int LabelCol(const data::Table& table) {
  return table.schema().ColumnsWithRole(data::ColumnRole::kLabel)[0];
}

struct EpochRecord {
  TrainingMetrics m;
  double wall_s = 0.0;  // benchmark clock, previous callback to this one
};

struct FitJob {
  Status status;
  double wall_s = 0.0;
  std::vector<EpochRecord> epochs;
  std::unique_ptr<core::TableGan> gan;
};

/// One Fit with library-default options (what `tablegan_cli train
/// --privacy low` runs) at `threads` threads. Epoch times come from
/// benchmark-side timestamps taken in metrics_callback.
FitJob RunFit(const data::Table& table, int epochs, int threads,
              Tracer* tracer, int tid) {
  ScopedSpan span(tracer, "core.Fit", 0, tid);
  const Clock::time_point start = Clock::now();
  // Shared with the callback, which the model keeps in its options.
  auto records = std::make_shared<std::vector<EpochRecord>>();
  auto last = std::make_shared<Clock::time_point>(start);
  core::TableGanOptions options;
  options.epochs = epochs;
  options.num_threads = threads;
  const int64_t parent = span.id();
  options.metrics_callback = [records, last, tracer, parent,
                              tid](const TrainingMetrics& m) {
    const Clock::time_point now = Clock::now();
    records->push_back({m, Seconds(now - *last)});
    tracer->Record("core.epoch", *last, now, tracer->NewId(), parent, tid);
    *last = now;
  };
  FitJob job;
  job.gan = std::make_unique<core::TableGan>(options);
  job.status = job.gan->Fit(table, LabelCol(table));
  job.wall_s = Seconds(Clock::now() - start);
  job.epochs = *records;
  return job;
}

/// Empty when the job trained cleanly: Fit returned OK, every epoch ran
/// with finite losses and no guardrail anomaly.
std::string TrainingProblem(const FitJob& job, int epochs) {
  if (!job.status.ok()) return "Fit: " + job.status.ToString();
  if (static_cast<int>(job.epochs.size()) != epochs) {
    return "expected " + std::to_string(epochs) + " epochs, saw " +
           std::to_string(job.epochs.size());
  }
  for (const EpochRecord& e : job.epochs) {
    const TrainingMetrics& m = e.m;
    if (!m.anomaly.empty()) return "anomaly: " + m.anomaly;
    if (!std::isfinite(m.d_loss) || !std::isfinite(m.g_loss) ||
        !std::isfinite(m.info_loss) || !std::isfinite(m.class_loss)) {
      return "non-finite loss at epoch " + std::to_string(m.epoch);
    }
  }
  return "";
}

bool SameHistory(const std::vector<core::EpochStats>& a,
                 const std::vector<core::EpochStats>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].d_loss != b[i].d_loss || a[i].g_orig_loss != b[i].g_orig_loss ||
        a[i].info_loss != b[i].info_loss ||
        a[i].class_loss != b[i].class_loss || a[i].l_mean != b[i].l_mean ||
        a[i].l_sd != b[i].l_sd) {
      return false;
    }
  }
  return true;
}

/// Mean two-sample KS distance over all columns between the training
/// table and `sample`.
Result<double> MeanKs(const data::Table& original, const data::Table& sample) {
  double sum = 0.0;
  for (int c = 0; c < original.num_columns(); ++c) {
    TABLEGAN_ASSIGN_OR_RETURN(double ks,
                              eval::ColumnKsDistance(original, sample, c));
    sum += ks;
  }
  return sum / original.num_columns();
}

void RecordQuality(const data::Table& original,
                   const Result<data::Table>& sample, Run* run) {
  Result<double> ks = sample.ok() ? MeanKs(original, *sample)
                                  : Result<double>(sample.status());
  const bool ok = ks.ok() && std::isfinite(*ks);
  run->Op(ok, "mean KS: " + (ks.ok() ? std::to_string(*ks)
                                     : ks.status().ToString()));
  if (ok) run->result.values["mean_ks"] = *ks;
}

void RecordPeakRss(Run* run) {
  rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  getrusage(RUSAGE_SELF, &usage);
  run->result.values["peak_rss_mb"] =
      static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/// Builds the state kSetupRepeats times (dropping the previous one
/// untimed) and records the median build time as setup_s.
template <typename T, typename Build>
std::unique_ptr<T> TimedSetup(Run* run, Build&& build) {
  std::unique_ptr<T> state;
  std::vector<double> seconds;
  for (int i = 0; i < kSetupRepeats; ++i) {
    state.reset();
    const Clock::time_point t0 = Clock::now();
    state = build();
    seconds.push_back(Seconds(Clock::now() - t0));
  }
  run->result.SetMedian("setup_s", seconds);
  return state;
}

/// The synth and serve workloads' model: a 1-epoch fit on the workload's
/// table. Its single epoch feeds the core.fit.* layer metrics.
struct Model {
  data::Table table;
  FitJob fit;
};

std::unique_ptr<Model> BuildModel(Run* run) {
  auto model = std::make_unique<Model>();
  model->table = MakeTable(run->workload, run->args.seed);
  model->fit = RunFit(model->table, run->workload.epochs, run->threads,
                      &run->tracer, 0);
  return model;
}

// --- Layer metrics derived from training epochs ------------------------

void RecordFitLayers(const std::vector<EpochRecord>& first,
                     const std::vector<EpochRecord>& steady, Run* run) {
  std::vector<double> first_s;
  for (const EpochRecord& e : first) first_s.push_back(e.wall_s);
  run->layer["core.fit.first_epoch_s"] = Median(first_s);
  double d = 0, c = 0, g = 0, total = 0, reuses = 0, takes = 0;
  for (const EpochRecord& e : steady) {
    d += e.m.d_seconds;
    c += e.m.c_seconds;
    g += e.m.g_seconds;
    total += e.m.epoch_seconds;
    reuses += static_cast<double>(e.m.workspace_reuses);
    takes += static_cast<double>(e.m.workspace_reuses + e.m.workspace_allocs);
  }
  run->layer["core.fit.d_share"] = d / total;
  run->layer["core.fit.c_share"] = c / total;
  run->layer["core.fit.g_share"] = g / total;
  run->layer["core.fit.other_share"] = (total - d - c - g) / total;
  run->layer["tensor.workspace_hit_ratio"] = takes > 0 ? reuses / takes : 0.0;

  // One default training step (DCGAN loss, info loss, classifier): the
  // D phase runs G fwd, D fwd+bwd on the real and the fake batch and an
  // Adam step; the C phase C fwd+bwd and a step; the G phase G fwd, D fwd
  // on the real and the fake batch, D bwd, C fwd+bwd, G bwd and a step.
  // C has D's architecture, so it is costed as D.
  const MetricMap& l = run->layer;
  auto sum = [&l](const std::string& prefix, const char* pass) {
    double s = 0.0;
    for (const char* kind : {"conv", "dense", "pointwise"}) {
      s += l.at(prefix + kind + "." + pass + "_us");
    }
    return s;
  };
  const double batch = core::TableGanOptions().batch_size;
  const double step_us = 2 * sum("nn.G.", "fwd") + sum("nn.G.", "bwd") +
                         (4 + 2) * sum("nn.D.", "fwd") +
                         (3 + 2) * sum("nn.D.", "bwd") +
                         l.at("nn.adam_step_us.G") +
                         2 * l.at("nn.adam_step_us.D") +
                         batch * l.at("data.encode_rows_ns_per_row") * 1e-3;
  double examples = 0, seconds = 0;
  for (const EpochRecord& e : steady) {
    examples += static_cast<double>(e.m.examples);
    seconds += e.m.epoch_seconds;
  }
  const double steps = examples / batch;
  run->layer["core.fit.layer_share"] = step_us * 1e-6 * steps / seconds;
}

void RecordSampleShare(int threads, Run* run) {
  const MetricMap& l = run->layer;
  const double infer_us_per_row =
      (l.at("nn.G.conv.infer_us") + l.at("nn.G.dense.infer_us") +
       l.at("nn.G.pointwise.infer_us")) /
      64.0 / threads;
  const double decode_us_per_row =
      (l.at("data.from_matrices_ns_per_row") +
       l.at("data.inverse_transform_ns_per_row")) *
      1e-3;
  run->layer["core.sample.layer_share"] =
      (infer_us_per_row + decode_us_per_row) /
      l.at("core.sample_range_us_per_row");
}

// --- Serving --------------------------------------------------------------

/// A loopback daemon over one registered model. The registry is declared
/// first so the server, which reads it, is destroyed first.
struct ServeStack {
  serve::ModelRegistry registry;
  std::unique_ptr<serve::Server> server;
};

/// Null (with the failure counted) when the model cannot be registered
/// or the daemon cannot start.
std::unique_ptr<ServeStack> StartServe(core::TableGan gan, Run* run) {
  auto stack = std::make_unique<ServeStack>();
  const Status added = stack->registry.Add(kModelId, std::move(gan));
  run->Op(added.ok(), "register model: " + added.ToString());
  if (!added.ok()) return nullptr;
  stack->server = std::make_unique<serve::Server>(&stack->registry,
                                                  serve::ServerOptions());
  const Status started = stack->server->Start();
  run->Op(started.ok(), "start server: " + started.ToString());
  return started.ok() ? std::move(stack) : nullptr;
}

struct Request {
  int64_t row_begin = 0;
  double ms = 0.0;
};

struct ClientLog {
  std::vector<Request> ok;
  std::vector<std::string> errors;
  std::string first_payload;
  int64_t first_begin = -1;
};

/// Closed loop: each client owns one connection and sends its next
/// request when the previous reply arrived. Request i of client c reads
/// rows [(i * clients + c) * 64, +64), so ranges are disjoint. Runs until
/// `deadline`, or `max_requests` per client when that is > 0.
std::vector<ClientLog> RunClients(int port, int clients, uint64_t seed,
                                  Clock::time_point deadline,
                                  int max_requests, Tracer* tracer) {
  std::vector<ClientLog> logs(static_cast<size_t>(clients));
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      ClientLog& log = logs[static_cast<size_t>(c)];
      serve::Client client;
      const Status connected = client.Connect("127.0.0.1", port);
      if (!connected.ok()) {
        log.errors.push_back("connect: " + connected.ToString());
        return;
      }
      for (int64_t i = 0;; ++i) {
        if (max_requests > 0 ? i >= max_requests
                             : i > 0 && Clock::now() >= deadline) {
          break;
        }
        serve::SampleRequest req;
        req.model_id = kModelId;
        req.seed = seed;
        req.row_begin = (i * clients + c) * kRequestRows;
        req.row_end = req.row_begin + kRequestRows;
        req.format = serve::Format::kCsvNoHeader;
        const Clock::time_point t0 = Clock::now();
        Result<serve::SampleResponse> resp = [&] {
          ScopedSpan span(tracer, "serve.request", 0, c + 1);
          return client.Call(req);
        }();
        const double ms = Seconds(Clock::now() - t0) * 1e3;
        if (!resp.ok() || resp->status != serve::WireStatus::kOk) {
          log.errors.push_back(
              "request at row " + std::to_string(req.row_begin) + ": " +
              (resp.ok() ? serve::WireStatusToString(resp->status)
                         : resp.status().ToString()));
          if (!resp.ok()) return;  // the connection is unusable
          continue;
        }
        if (log.first_begin < 0) {
          log.first_begin = req.row_begin;
          log.first_payload = resp->payload;
        }
        log.ok.push_back({req.row_begin, ms});
      }
    });
  }
  for (std::thread& t : threads) t.join();
  return logs;
}

Result<std::string> LocalCsv(const serve::RowSource& source, uint64_t seed,
                             int64_t begin, int64_t end) {
  TABLEGAN_ASSIGN_OR_RETURN(data::Table rows,
                            source.SampleRange(seed, begin, end));
  return data::WriteCsvToString(rows, /*include_header=*/false);
}

/// Counts every request as an operation, then checks each connection's
/// first payload against a local SampleRange of the same range and the
/// server's own counters against the client-side tally.
std::vector<Request> CheckClients(const std::vector<ClientLog>& logs,
                                  const ServeStack& stack, uint64_t seed,
                                  Run* run) {
  std::vector<Request> ok;
  for (const ClientLog& log : logs) {
    for (const Request& r : log.ok) {
      run->Op(true, "");
      ok.push_back(r);
    }
    for (const std::string& e : log.errors) run->Op(false, e);
    if (log.first_begin < 0) continue;
    Result<std::string> local =
        LocalCsv(*stack.registry.Find(kModelId), seed, log.first_begin,
                 log.first_begin + kRequestRows);
    run->Op(local.ok() && *local == log.first_payload,
            "served rows [" + std::to_string(log.first_begin) +
                ", +64) differ from a local SampleRange");
  }
  const serve::Server::Stats stats = stack.server->stats();
  run->Op(stats.requests_ok == ok.size() && stats.requests_error == 0 &&
              stats.rejected_busy == 0,
          "server counters: ok " + std::to_string(stats.requests_ok) +
              ", error " + std::to_string(stats.requests_error) +
              ", busy " + std::to_string(stats.rejected_busy) +
              " vs client-side ok " + std::to_string(ok.size()));
  return ok;
}

/// serve.*: request latency from the load, then a replay of up to
/// kMaxReplays of the same ranges through what the server does for each
/// (SampleRange, CSV, codec) in this process. The per-request difference
/// is time spent outside that work: transport, framing and queueing.
void RecordServeLayers(const std::vector<Request>& ok, const ServeStack& stack,
                       uint64_t seed, Run* run) {
  std::vector<double> latency;
  for (const Request& r : ok) latency.push_back(r.ms);
  const int permille =
      HighestSupportedPermille(static_cast<int64_t>(latency.size()));
  run->layer["serve.request_ms_p50"] = PercentileNearestRank(latency, 500);
  run->layer["serve.request_ms_tail"] =
      PercentileNearestRank(latency, permille > 0 ? permille : 1000);
  run->layer["serve.request_tail_permille"] = permille;
  run->layer["serve.requests_ok"] =
      static_cast<double>(stack.server->stats().requests_ok);

  ScopedSpan span(&run->tracer, "probe.serve.replay");
  const serve::RowSource& source = *stack.registry.Find(kModelId);
  const size_t stride = std::max<size_t>(1, ok.size() / kMaxReplays);
  std::vector<double> work, wait;
  for (size_t i = 0; i < ok.size(); i += stride) {
    const Clock::time_point t0 = Clock::now();
    serve::SampleRequest req;
    req.model_id = kModelId;
    req.seed = seed;
    req.row_begin = ok[i].row_begin;
    req.row_end = ok[i].row_begin + kRequestRows;
    req.format = serve::Format::kCsvNoHeader;
    Result<serve::SampleRequest> decoded =
        serve::DecodeRequest(serve::EncodeRequest(req));
    Result<std::string> csv =
        LocalCsv(source, seed, req.row_begin, req.row_end);
    serve::SampleResponse resp;
    resp.payload = csv.ok() ? *csv : "";
    Result<serve::SampleResponse> back =
        serve::DecodeResponse(serve::EncodeResponse(resp));
    const double ms = Seconds(Clock::now() - t0) * 1e3;
    run->Op(decoded.ok() && csv.ok() && back.ok(), "serve replay");
    work.push_back(ms);
    wait.push_back(ok[i].ms - ms);
  }
  run->layer["serve.server_work_ms_p50"] = Median(work);
  run->layer["serve.transport_wait_ms_p50"] = Median(wait);
}

/// The serve layer metrics for a workload that does not serve: a short
/// fixed load against a daemon holding the workload's own model.
void ProbeServe(core::TableGan gan, Run* run) {
  ScopedSpan span(&run->tracer, "probe.serve");
  std::unique_ptr<ServeStack> stack = StartServe(std::move(gan), run);
  if (stack == nullptr) return;
  const int clients = std::min(4, run->threads);
  const std::vector<ClientLog> logs =
      RunClients(stack->server->port(), clients, run->args.seed,
                 Clock::now(), kProbeRequestsPerClient, &run->tracer);
  const std::vector<Request> ok =
      CheckClients(logs, *stack, run->args.seed, run);
  RecordServeLayers(ok, *stack, run->args.seed, run);
}

/// Probes shared by every workload once its timed phase is over.
void RecordCommonProbes(const core::TableGan& gan, const data::Table& table,
                        Run* run) {
  ProbeParallelFor(run->threads, &run->layer);
  ProbeNetworks(gan, run->threads, &run->tracer, &run->layer);
  ProbeData(table, gan.side(), &run->tracer, &run->layer);
  ProbeSampleRange(gan, run->args.seed, &run->tracer, &run->layer);
  ProbeCodec(gan, run->args.seed, &run->layer);
  RecordSampleShare(run->threads, run);
}

// --- Workloads ------------------------------------------------------------

void RunTrain(Run* run) {
  const WorkloadInfo& w = run->workload;
  // Set-up makes the table and runs a one-epoch warm-up Fit on a slice
  // of it, so the thread pool and first-use allocations are in place
  // before the first timed job.
  std::unique_ptr<data::Table> table = TimedSetup<data::Table>(run, [&] {
    auto t = std::make_unique<data::Table>(MakeTable(w, run->args.seed));
    std::vector<int64_t> slice(static_cast<size_t>(
        std::min<int64_t>(kWarmupRows, t->num_rows())));
    for (size_t i = 0; i < slice.size(); ++i) {
      slice[i] = static_cast<int64_t>(i);
    }
    Tracer off(false);
    const FitJob warmup =
        RunFit(t->SelectRows(slice), 1, run->threads, &off, 0);
    run->Op(warmup.status.ok(), "warm-up fit: " + warmup.status.ToString());
    return t;
  });

  // Whole Fit jobs, back to back, until the run length is used up; at
  // least two so the determinism check has a pair.
  std::vector<double> job_ms, steady_rate;
  std::vector<EpochRecord> first, steady;
  std::vector<core::EpochStats> history0;
  std::unique_ptr<core::TableGan> gan;
  const Clock::time_point deadline = run->StartTimed();
  for (int j = 0; j < 2 || Clock::now() < deadline; ++j) {
    FitJob job = RunFit(*table, w.epochs, run->threads, &run->tracer, j);
    std::string problem = TrainingProblem(job, w.epochs);
    if (problem.empty() && j == 0) history0 = job.gan->history();
    if (problem.empty() && !SameHistory(history0, job.gan->history())) {
      problem = "losses differ from job 0: training is not deterministic";
    }
    run->Op(problem.empty(), "fit job " + std::to_string(j) + ": " + problem);
    if (!problem.empty()) continue;
    job_ms.push_back(job.wall_s * 1e3);
    first.push_back(job.epochs[0]);
    for (size_t e = 1; e < job.epochs.size(); ++e) {
      const EpochRecord& r = job.epochs[e];
      steady.push_back(r);
      steady_rate.push_back(static_cast<double>(r.m.examples) / r.wall_s);
    }
    gan = std::move(job.gan);
  }
  run->EndTimed();
  if (gan == nullptr) return;

  run->result.SetMedian("rows_per_s", steady_rate);
  run->result.SetMedian("op_p50_ms", job_ms);
  RecordQuality(*table, gan->SampleRange(run->args.seed, 0, kQualityRows),
                run);
  RecordPeakRss(run);
  if (!run->args.trace) return;

  RecordCommonProbes(*gan, *table, run);
  RecordFitLayers(first, steady, run);
  ProbeServe(std::move(*gan), run);
}

/// Rows [begin, end) as header-less CSV, with one span per layer call.
Result<std::string> SampleCsv(const core::TableGan& gan, uint64_t seed,
                              int64_t begin, int64_t end, Tracer* tracer,
                              int64_t parent) {
  Result<data::Table> rows = [&] {
    ScopedSpan span(tracer, "core.SampleRange", parent);
    return gan.SampleRange(seed, begin, end);
  }();
  if (!rows.ok()) return rows.status();
  ScopedSpan span(tracer, "data.WriteCsvToString", parent);
  return data::WriteCsvToString(*rows, /*include_header=*/false);
}

void RunSynth(Run* run) {
  std::unique_ptr<Model> model =
      TimedSetup<Model>(run, [&] { return BuildModel(run); });
  const std::string problem = TrainingProblem(model->fit, run->workload.epochs);
  run->Op(problem.empty(), "setup fit: " + problem);
  if (!problem.empty()) return;
  const core::TableGan& gan = *model->fit.gan;
  const uint64_t seed = run->args.seed;

  std::vector<double> chunk_ms;
  std::string first_csv;
  int64_t rows = 0;
  const Clock::time_point deadline = run->StartTimed();
  for (int64_t c = 0; c == 0 || Clock::now() < deadline; ++c) {
    const Clock::time_point t0 = Clock::now();
    Result<std::string> csv = [&] {
      ScopedSpan span(&run->tracer, "synth.chunk");
      return SampleCsv(gan, seed, c * kChunkRows, (c + 1) * kChunkRows,
                       &run->tracer, span.id());
    }();
    const double ms = Seconds(Clock::now() - t0) * 1e3;
    run->Op(csv.ok(), "chunk " + std::to_string(c) + ": " +
                          csv.status().ToString());
    if (!csv.ok()) continue;
    chunk_ms.push_back(ms);
    rows += kChunkRows;
    if (c == 0) first_csv = std::move(*csv);
  }
  run->EndTimed();

  run->result.values["rows_per_s"] = static_cast<double>(rows) / run->timed_s;
  run->result.SetMedian("op_p50_ms", chunk_ms);
  Tracer off(false);
  {
    ScopedNumThreads one(1);
    Result<std::string> again = SampleCsv(gan, seed, 0, kChunkRows, &off, 0);
    run->Op(again.ok() && *again == first_csv,
            "chunk 0 regenerated on 1 thread differs");
  }
  Result<std::string> lo = SampleCsv(gan, seed, 0, kChunkRows / 2, &off, 0);
  Result<std::string> hi =
      SampleCsv(gan, seed, kChunkRows / 2, kChunkRows, &off, 0);
  run->Op(lo.ok() && hi.ok() && *lo + *hi == first_csv,
          "chunk 0 fetched as two half-ranges differs");
  RecordQuality(model->table, gan.SampleRange(seed, 0, kQualityRows), run);
  RecordPeakRss(run);
  if (!run->args.trace) return;

  RecordCommonProbes(gan, model->table, run);
  RecordFitLayers(model->fit.epochs, model->fit.epochs, run);
  ProbeServe(std::move(*model->fit.gan), run);
}

struct ServeSetup {
  data::Table table;
  std::vector<EpochRecord> epochs;
  std::unique_ptr<ServeStack> stack;
};

void RunServe(Run* run) {
  const uint64_t seed = run->args.seed;
  std::unique_ptr<ServeSetup> setup = TimedSetup<ServeSetup>(run, [&] {
    std::unique_ptr<Model> model = BuildModel(run);
    auto s = std::make_unique<ServeSetup>();
    const std::string problem =
        TrainingProblem(model->fit, run->workload.epochs);
    run->Op(problem.empty(), "setup fit: " + problem);
    s->table = std::move(model->table);
    s->epochs = model->fit.epochs;
    s->stack = StartServe(std::move(*model->fit.gan), run);
    return s;
  });
  if (run->result.failed > 0) return;
  const ServeStack& stack = *setup->stack;

  const int clients = std::min(4, run->threads);
  const Clock::time_point deadline = run->StartTimed();
  const std::vector<ClientLog> logs = RunClients(
      stack.server->port(), clients, seed, deadline, 0, &run->tracer);
  run->EndTimed();

  const std::vector<Request> ok = CheckClients(logs, stack, seed, run);
  std::vector<double> latency;
  for (const Request& r : ok) latency.push_back(r.ms);
  run->result.values["rows_per_s"] =
      static_cast<double>(ok.size() * kRequestRows) / run->timed_s;
  run->result.SetMedian("op_p50_ms", latency);
  RecordQuality(setup->table,
                stack.registry.Find(kModelId)->SampleRange(seed, 0,
                                                           kQualityRows),
                run);
  RecordPeakRss(run);
  if (!run->args.trace) return;

  RecordServeLayers(ok, stack, seed, run);
  // The remaining probes need the model itself; a second fit is
  // bitwise identical to the served one.
  std::unique_ptr<Model> model = BuildModel(run);
  RecordCommonProbes(*model->fit.gan, model->table, run);
  RecordFitLayers(setup->epochs, setup->epochs, run);
}

// --- Entry point ----------------------------------------------------------

const WorkloadInfo* FindWorkload(const std::string& name) {
  for (const WorkloadInfo& w : Workloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

int RunOne(const Args& args, const WorkloadInfo& w) {
  ScopedNumThreads threads(UsableCpus());
  Run run(args, w);
  std::fprintf(stderr, "%s: seed %llu, %.3g s, trace %d, %d threads\n",
               w.name, static_cast<unsigned long long>(args.seed),
               args.seconds, args.trace ? 1 : 0, run.threads);
  switch (w.kind) {
    case WorkloadKind::kTrain:
      RunTrain(&run);
      break;
    case WorkloadKind::kSynth:
      RunSynth(&run);
      break;
    case WorkloadKind::kServe:
      RunServe(&run);
      break;
  }

  const std::vector<MetricInfo>& metrics =
      args.trace ? PerLayerMetrics() : EndToEndMetrics();
  if (args.trace) {
    run.layer["trace.spans"] = static_cast<double>(run.timed_spans);
    run.layer["trace.overhead_pct"] =
        run.timed_s > 0 ? 100.0 * static_cast<double>(run.timed_spans) *
                              SpanCostSeconds() / run.timed_s
                        : 0.0;
    for (const auto& [name, value] : run.layer) run.result.values[name] = value;
  }
  for (const MetricInfo& m : metrics) {
    const auto it = run.result.values.find(m.name);
    if (it == run.result.values.end() || !std::isfinite(it->second)) {
      run.result.checks_passed = false;
      std::fprintf(stderr, "%s: metric %s missing or not finite\n", w.name,
                   m.name);
    }
  }

  std::printf("host");
  for (const auto& [k, v] : HostProvenance()) {
    std::printf(" %s=%s", k.c_str(), v.c_str());
  }
  std::printf("\n");
  for (const MetricInfo& m : metrics) {
    const auto it = run.result.values.find(m.name);
    if (it != run.result.values.end()) {
      std::printf("%s %s %.6g %s\n", w.name, m.name, it->second, m.unit);
    }
  }
  if (!args.json_path.empty()) {
    std::ofstream out(args.json_path);
    out << ReportJson(run.result, metrics, args.seed, args.seconds,
                      args.trace);
    if (!out.good()) {
      std::fprintf(stderr, "cannot write %s\n", args.json_path.c_str());
      run.result.checks_passed = false;
    }
  }
  if (args.trace) {
    const std::string path = args.trace_path.empty()
                                 ? std::string("bench_e2e_trace_") + w.name +
                                       ".json"
                                 : args.trace_path;
    std::ofstream out(path);
    std::map<std::string, std::string> meta = HostProvenance();
    meta["workload"] = w.name;
    meta["seed"] = std::to_string(args.seed);
    run.tracer.WriteChromeJson(out, meta);
    if (!out.good()) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      run.result.checks_passed = false;
    }
  }
  std::printf("%s\n", ResultLineJson(run.result, metrics).c_str());
  std::fflush(stdout);
  return run.result.correct() ? 0 : 1;
}

/// `--workload all`: one child process per workload, same arguments,
/// except that output files get the workload name before ".json".
int RunAll(int argc, char** argv) {
  int status_all = 0;
  for (const WorkloadInfo& w : Workloads()) {
    std::vector<std::string> child_args;
    for (int i = 0; i < argc; ++i) {
      const std::string flag = argv[i];
      child_args.push_back(flag);
      if (i + 1 >= argc) continue;
      if (flag == "--workload") {
        child_args.push_back(w.name);
        ++i;
      } else if (flag == "--json" || flag == "--trace-out") {
        std::string path = argv[++i];
        const size_t ext = path.rfind(".json");
        path.insert(ext == std::string::npos ? path.size() : ext,
                    std::string("-") + w.name);
        child_args.push_back(path);
      }
    }
    std::vector<char*> cargv;
    for (std::string& a : child_args) cargv.push_back(a.data());
    cargv.push_back(nullptr);
    std::fflush(stdout);
    pid_t pid = 0;
    if (posix_spawn(&pid, "/proc/self/exe", nullptr, nullptr, cargv.data(),
                    environ) != 0) {
      std::fprintf(stderr, "cannot start %s\n", w.name);
      status_all = 1;
      continue;
    }
    int status = 0;
    while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) status_all = 1;
  }
  return status_all;
}

int Usage() {
  std::fprintf(stderr,
               "usage: bench_e2e --workload <name|all> --seed N "
               "[--seconds S] [--trace 0|1] [--json out.json] "
               "[--trace-out spans.json]\n"
               "       bench_e2e --describe\nworkloads:");
  for (const WorkloadInfo& w : Workloads()) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

int Main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--describe") {
      WriteDescribeJson(std::cout);
      return 0;
    }
    if (i + 1 >= argc) return Usage();
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      Result<int64_t> v = args::ParseInt(value, 0);
      if (!v.ok()) return Usage();
      args.seed = static_cast<uint64_t>(*v);
    } else if (flag == "--seconds") {
      Result<double> v = args::ParseDouble(value);
      if (!v.ok() || *v <= 0.0 || *v > 3600.0) return Usage();
      args.seconds = *v;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return Usage();
      args.trace = value == "1";
    } else if (flag == "--json") {
      args.json_path = value;
    } else if (flag == "--trace-out") {
      args.trace_path = value;
    } else {
      return Usage();
    }
  }
  if (args.workload == "all") return RunAll(argc, argv);
  const WorkloadInfo* w = FindWorkload(args.workload);
  if (w == nullptr) return Usage();
  return RunOne(args, *w);
}

}  // namespace
}  // namespace e2e
}  // namespace tablegan

int main(int argc, char** argv) { return tablegan::e2e::Main(argc, argv); }
