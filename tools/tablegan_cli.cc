// tablegan_cli — end-to-end command-line front door to the library.
//
//   tablegan_cli demo     --dataset adult --rows 1000 --data out.csv
//                         --schema out.schema
//   tablegan_cli train    --data table.csv --schema table.schema
//                         --model model.tgan [--privacy low|mid|high]
//                         [--epochs N] [--lr X] [--channels N] [--seed N]
//                         [--threads N] [--metrics-out metrics.jsonl]
//                         [--checkpoint-every N] [--checkpoint-dir dir]
//                         [--resume checkpoint.tgan]
//                         [--loss dcgan|wgan-gp|spectral-norm]
//                         [--gp-weight X] [--sn-weight X] [--sn-iters N]
//                         [--diverge off|halt|rollback] [--guard-ewma X]
//                         [--guard-factor X] [--guard-warmup N]
//                         [--guard-max-rollbacks N]
//                         [--conditional 1] [--gmm-cols col1,col2]
//                         [--gmm-k N]
//   tablegan_cli sample   --model model.tgan --rows N --out synth.csv
//                         [--threads N] [--format csv|columnar]
//                         [--where-label X] [--seed N] [--begin I]
//   tablegan_cli sample-remote --port P --model-id ID --rows N
//                         --out synth.csv [--host 127.0.0.1] [--seed N]
//                         [--begin I] [--where-label X]
//   tablegan_cli evaluate --data original.csv --schema table.schema
//                         --released synth.csv
//   tablegan_cli convert  --in table.csv --schema table.schema
//                         --out table.tgcl [--to columnar]
//   tablegan_cli convert  --in table.tgcl --out table.csv [--to csv]
//                         (--to defaults to the opposite of the input)
//   tablegan_cli inspect  --in table.tgcl
//
// `demo` materializes one of the four dataset simulators as CSV+schema
// so the full workflow can be exercised without external data. `train`
// fits table-GAN and saves the model; `sample` loads it and writes a
// synthetic table; `sample-remote` fetches the same rows from a running
// tablegan_serve daemon instead of loading the checkpoint locally;
// `evaluate` reports DCR and a quick model-compatibility check between
// an original and a released table.
//
// `convert` moves tables between CSV and the mmap-able columnar format
// (data/columnar.h); `inspect` prints a columnar file's header and
// verifies its CRC footer. `train --data` sniffs its input: a columnar
// file needs no --schema (the schema is embedded) and is trained
// out-of-core straight off the memory map — bitwise identical to
// training the equivalent CSV, at O(batch) instead of O(table) memory.
//
// Numeric flags are parsed strictly (args::ParseInt/ParseDouble): a
// typo like `--epochs 1e3` or `--threads x` is a usage error, not a
// silent 1-epoch or 0-thread run.
//
// Long trains are recoverable: `--checkpoint-every N --checkpoint-dir d`
// writes atomic CRC-checked checkpoints, and a killed run repeated with
// the same flags plus `--resume d/latest.tgan` continues at the saved
// epoch, bitwise identical to an uninterrupted run. `--metrics-out`
// streams per-epoch losses and timings as JSONL (schema: DESIGN.md §9).
//
// `--loss` selects the adversarial objective (DESIGN.md §15): the
// paper's DCGAN BCE (default), a WGAN-GP critic, or DCGAN plus a
// spectral-norm weight penalty. `--diverge` controls the divergence
// guardrail: on a non-finite or runaway loss EWMA the run halts (or
// rolls back to the last-good epoch) after auto-checkpointing
// `<checkpoint-dir>/diverged-last-good.tgan`. A halted `train` still
// writes that last-good model to --model, then exits 1.
//
// `--conditional 1` trains a label-conditioned generator (DESIGN.md
// §16); `sample --where-label X` then reads the per-label stream of
// level X from rows [--begin, --begin + rows) under --seed, and
// `sample-remote --where-label X` fetches the byte-identical rows from
// a daemon. `--gmm-cols` lists continuous columns (by name) to encode
// with the mode-specific GMM normalizer, `--gmm-k` caps the mixture
// size per column.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <string>

#include "common/args.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "common/parallel.h"
#include "core/table_gan.h"
#include "data/columnar.h"
#include "data/csv.h"
#include "data/datasets.h"
#include "data/schema_text.h"
#include "eval/fidelity.h"
#include "ml/decision_tree.h"
#include "ml/metrics.h"
#include "ml/ml_data.h"
#include "privacy/dcr.h"
#include "serve/client.h"

namespace tablegan {
namespace {

struct Args {
  std::map<std::string, std::string> values;

  const char* Get(const std::string& key, const char* fallback = nullptr) {
    auto it = values.find(key);
    if (it != values.end()) return it->second.c_str();
    return fallback;
  }

  const char* Require(const std::string& key) {
    const char* v = Get(key);
    if (v == nullptr) {
      std::fprintf(stderr, "missing required flag --%s\n", key.c_str());
      std::exit(2);
    }
    return v;
  }

  /// Checked numeric accessors: a value std::atoi would silently fold
  /// to 0 (or truncate at the first non-digit) is a usage error here.
  int64_t GetInt(const std::string& key, int64_t fallback,
                 int64_t min_value, int64_t max_value) {
    const char* v = Get(key);
    if (v == nullptr) return fallback;
    return CheckedInt(key, v, min_value, max_value);
  }

  int64_t RequireInt(const std::string& key, int64_t min_value,
                     int64_t max_value) {
    return CheckedInt(key, Require(key), min_value, max_value);
  }

  double GetDouble(const std::string& key, double fallback) {
    const char* v = Get(key);
    if (v == nullptr) return fallback;
    Result<double> parsed = args::ParseDouble(v);
    if (!parsed.ok()) {
      std::fprintf(stderr, "bad value for --%s: %s\n", key.c_str(),
                   parsed.status().message().c_str());
      std::exit(2);
    }
    return *parsed;
  }

 private:
  static int64_t CheckedInt(const std::string& key, const char* text,
                            int64_t min_value, int64_t max_value) {
    Result<int64_t> parsed = args::ParseInt(text, min_value, max_value);
    if (!parsed.ok()) {
      std::fprintf(stderr, "bad value for --%s: %s\n", key.c_str(),
                   parsed.status().message().c_str());
      std::exit(2);
    }
    return *parsed;
  }
};

Args ParseArgs(int argc, char** argv, int first) {
  Args args;
  for (int i = first; i < argc; ++i) {
    const char* a = argv[i];
    if (std::strncmp(a, "--", 2) != 0 || i + 1 >= argc) {
      std::fprintf(stderr, "bad argument '%s' (expected --flag value)\n", a);
      std::exit(2);
    }
    args.values[a + 2] = argv[++i];
  }
  return args;
}

void Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  std::exit(1);
}

template <typename T>
T Unwrap(Result<T> result) {
  if (!result.ok()) Fail(result.status());
  return std::move(result).value();
}

constexpr int64_t kMaxRows = int64_t{1} << 40;

int CmdDemo(Args args) {
  const std::string name = args.Get("dataset", "adult");
  const int64_t rows = args.GetInt("rows", 1000, 1, kMaxRows);
  const char* data_path = args.Require("data");
  const char* schema_path = args.Require("schema");
  Rng rng(static_cast<uint64_t>(args.GetInt("seed", 7, 0, INT64_MAX)));
  data::Table table = [&] {
    if (name == "lacity") return data::MakeLaCityLike(rows, &rng);
    if (name == "health") return data::MakeHealthLike(rows, &rng);
    if (name == "airline") return data::MakeAirlineLike(rows, &rng);
    return data::MakeAdultLike(rows, &rng);
  }();
  TABLEGAN_CHECK_OK(data::WriteCsv(table, data_path));
  std::FILE* out = std::fopen(schema_path, "w");
  if (out == nullptr) Fail(Status::IOError("cannot write schema file"));
  const std::string text = data::SchemaToText(table.schema());
  std::fwrite(text.data(), 1, text.size(), out);
  std::fclose(out);
  std::printf("wrote %lld-row '%s' demo table to %s (schema: %s)\n",
              static_cast<long long>(rows), name.c_str(), data_path,
              schema_path);
  return 0;
}

int CmdTrain(Args args) {
  const char* data_path = args.Require("data");
  // Sniff the input format: a columnar file carries its own schema and
  // is trained out-of-core through the mmap (the Table stays empty); a
  // CSV needs --schema and is parsed into RAM.
  std::optional<data::ColumnarReader> columnar;
  data::Table table;
  const data::TableView* view = nullptr;
  data::Schema schema;
  if (data::LooksLikeColumnarFile(data_path)) {
    columnar = Unwrap(data::ColumnarReader::Open(data_path));
    schema = columnar->schema();
    view = &*columnar;
  } else {
    schema = Unwrap(data::ReadSchemaFile(args.Require("schema")));
    table = Unwrap(data::ReadCsv(schema, data_path));
    view = &table;
  }
  const std::vector<int> labels =
      schema.ColumnsWithRole(data::ColumnRole::kLabel);
  if (labels.size() != 1) {
    Fail(Status::InvalidArgument(
        "schema must declare exactly one label column"));
  }

  core::TableGanOptions options;
  const std::string privacy = args.Get("privacy", "low");
  if (privacy == "mid") {
    options = core::TableGanOptions::MidPrivacy();
  } else if (privacy == "high") {
    options = core::TableGanOptions::HighPrivacy();
  } else if (privacy != "low") {
    Fail(Status::InvalidArgument("--privacy must be low|mid|high"));
  }
  options.epochs = static_cast<int>(args.GetInt("epochs", 60, 1, 1000000));
  options.learning_rate = static_cast<float>(args.GetDouble("lr", 0.001));
  options.base_channels =
      static_cast<int>(args.GetInt("channels", 16, 1, 4096));
  options.latent_dim = static_cast<int>(args.GetInt("latent", 32, 1, 65536));
  options.ewma_weight = static_cast<float>(args.GetDouble("ewma", 0.9));
  options.seed = static_cast<uint64_t>(args.GetInt("seed", 47, 0, INT64_MAX));
  // 0 defers to TABLEGAN_NUM_THREADS, then to the hardware default. Any
  // value reproduces the 1-thread results bit for bit.
  options.num_threads =
      static_cast<int>(args.GetInt("threads", 0, 0, kMaxThreads));
  options.verbose = true;
  options.checkpoint_every =
      static_cast<int>(args.GetInt("checkpoint-every", 0, 0, 1000000));
  options.checkpoint_dir = args.Get("checkpoint-dir", "");
  options.resume_from = args.Get("resume", "");
  // Training-stability knobs (DESIGN.md §15). The defaults reproduce
  // the paper's DCGAN objective bit for bit with the guardrail halting
  // on divergence.
  const std::string loss = args.Get("loss", "dcgan");
  if (loss == "wgan-gp") {
    options.loss_mode = core::LossMode::kWganGp;
  } else if (loss == "spectral-norm") {
    options.loss_mode = core::LossMode::kSpectralNorm;
  } else if (loss != "dcgan") {
    Fail(Status::InvalidArgument(
        "--loss must be dcgan|wgan-gp|spectral-norm"));
  }
  options.gp_weight = static_cast<float>(
      args.GetDouble("gp-weight", options.gp_weight));
  options.sn_weight = static_cast<float>(
      args.GetDouble("sn-weight", options.sn_weight));
  options.sn_power_iters = static_cast<int>(
      args.GetInt("sn-iters", options.sn_power_iters, 1, 1024));
  const std::string diverge = args.Get("diverge", "halt");
  if (diverge == "off") {
    options.divergence_action = core::DivergenceAction::kOff;
  } else if (diverge == "rollback") {
    options.divergence_action = core::DivergenceAction::kRollback;
  } else if (diverge == "halt") {
    options.divergence_action = core::DivergenceAction::kHalt;
  } else {
    Fail(Status::InvalidArgument("--diverge must be off|halt|rollback"));
  }
  options.guard_ewma_weight = static_cast<float>(
      args.GetDouble("guard-ewma", options.guard_ewma_weight));
  options.guard_factor = static_cast<float>(
      args.GetDouble("guard-factor", options.guard_factor));
  options.guard_warmup_epochs = static_cast<int>(
      args.GetInt("guard-warmup", options.guard_warmup_epochs, 0, 1000000));
  options.guard_max_rollbacks = static_cast<int>(args.GetInt(
      "guard-max-rollbacks", options.guard_max_rollbacks, 0, 1000000));
  // Conditional generation + mode-specific normalization (DESIGN.md §16).
  options.conditional = args.GetInt("conditional", 0, 0, 1) != 0;
  options.gmm_components =
      static_cast<int>(args.GetInt("gmm-k", options.gmm_components, 1, 64));
  if (const char* gmm_cols = args.Get("gmm-cols")) {
    std::string list(gmm_cols);
    size_t pos = 0;
    while (pos <= list.size()) {
      size_t comma = list.find(',', pos);
      if (comma == std::string::npos) comma = list.size();
      const std::string name = list.substr(pos, comma - pos);
      if (!name.empty()) {
        options.gmm_columns.push_back(Unwrap(schema.FindColumn(name)));
      }
      pos = comma + 1;
    }
    if (options.gmm_columns.empty()) {
      Fail(Status::InvalidArgument(
          "--gmm-cols must name at least one column"));
    }
  }
  if (options.checkpoint_every > 0 && options.checkpoint_dir.empty()) {
    Fail(Status::InvalidArgument(
        "--checkpoint-every requires --checkpoint-dir"));
  }

  std::unique_ptr<JsonlMetricsSink> metrics;
  if (const char* metrics_path = args.Get("metrics-out")) {
    // A resumed run appends so the JSONL keeps one record per epoch
    // across the kill/resume boundary.
    metrics = std::make_unique<JsonlMetricsSink>(
        metrics_path, /*append=*/!options.resume_from.empty());
    if (!metrics->status().ok()) Fail(metrics->status());
    options.metrics_sink = metrics.get();
  }

  core::TableGan gan(options);
  const Status fit = gan.Fit(*view, labels[0]);
  // A run the divergence guard halted still holds its last-good epoch
  // (DESIGN.md §15): keep it, but report the halt and exit non-zero.
  if (!fit.ok() && !gan.fitted()) Fail(fit);
  const Status saved = gan.Save(args.Require("model"));
  if (!saved.ok()) Fail(saved);
  if (!fit.ok()) {
    std::fprintf(stderr, "error: %s\nlast-good model saved to %s\n",
                 fit.ToString().c_str(), args.Require("model"));
    return 1;
  }
  std::printf("trained on %lld rows (privacy=%s%s); model saved to %s\n",
              static_cast<long long>(view->num_rows()), privacy.c_str(),
              columnar.has_value() ? ", out-of-core from columnar" : "",
              args.Require("model"));
  return 0;
}

int CmdSample(Args args) {
  const int threads =
      static_cast<int>(args.GetInt("threads", 0, 0, kMaxThreads));
  if (threads > 0) SetNumThreads(threads);
  core::TableGan gan = Unwrap(core::TableGan::Load(args.Require("model")));
  const int64_t rows = args.RequireInt("rows", 0, kMaxRows);
  data::Table synth = [&] {
    if (args.Get("where-label") != nullptr) {
      // Conditional sampling is stateless: rows [begin, begin + rows)
      // of the per-label stream under --seed, the same rows a daemon
      // serving this model would return.
      const double label = args.GetDouble("where-label", 0.0);
      const int64_t begin = args.GetInt("begin", 0, 0, kMaxRows);
      const uint64_t seed = static_cast<uint64_t>(
          args.GetInt("seed", 47, 0, INT64_MAX));
      return Unwrap(gan.SampleConditional(seed, begin, begin + rows, label));
    }
    return Unwrap(gan.Sample(rows));
  }();
  const std::string format = args.Get("format", "csv");
  if (format == "columnar") {
    TABLEGAN_CHECK_OK(data::WriteColumnar(synth, args.Require("out")));
  } else if (format == "csv") {
    TABLEGAN_CHECK_OK(data::WriteCsv(synth, args.Require("out")));
  } else {
    Fail(Status::InvalidArgument("--format must be csv|columnar"));
  }
  std::printf("sampled %lld synthetic rows to %s (%s)\n",
              static_cast<long long>(rows), args.Require("out"),
              format.c_str());
  return 0;
}

int CmdConvert(Args args) {
  const std::string in = args.Require("in");
  const std::string out = args.Require("out");
  // Direction defaults to the opposite of whatever the input is.
  std::string to = args.Get("to", "");
  if (to.empty()) {
    to = data::LooksLikeColumnarFile(in) ? "csv" : "columnar";
  }
  if (to == "columnar") {
    data::Schema schema =
        Unwrap(data::ReadSchemaFile(args.Require("schema")));
    data::Table table = Unwrap(data::ReadCsv(schema, in));
    TABLEGAN_CHECK_OK(data::WriteColumnar(table, out));
    std::printf("converted %lld CSV rows to columnar %s\n",
                static_cast<long long>(table.num_rows()), out.c_str());
  } else if (to == "csv") {
    data::ColumnarReader reader = Unwrap(data::ColumnarReader::Open(in));
    // A conversion reads every byte anyway, so the full CRC pass is
    // free protection against materializing bit rot.
    TABLEGAN_CHECK_OK(reader.VerifyCrc());
    TABLEGAN_CHECK_OK(data::WriteCsv(reader.Materialize(), out));
    std::printf("converted %lld columnar rows to CSV %s\n",
                static_cast<long long>(reader.num_rows()), out.c_str());
  } else {
    Fail(Status::InvalidArgument("--to must be csv|columnar"));
  }
  return 0;
}

int CmdInspect(Args args) {
  const std::string in = args.Require("in");
  data::ColumnarReader reader = Unwrap(data::ColumnarReader::Open(in));
  std::printf("%s: %lld rows x %d columns, %zu bytes\n", in.c_str(),
              static_cast<long long>(reader.num_rows()),
              reader.num_columns(), reader.file_size());
  for (int c = 0; c < reader.num_columns(); ++c) {
    const data::ColumnSpec& spec = reader.schema().column(c);
    std::printf("  %-24s %s\n", spec.name.c_str(),
                data::ColumnTypeToString(spec.type));
  }
  TABLEGAN_CHECK_OK(reader.VerifyCrc());
  std::printf("CRC-32 footer: OK\n");
  return 0;
}

int CmdSampleRemote(Args args) {
  const std::string host = args.Get("host", "127.0.0.1");
  const int port = static_cast<int>(args.RequireInt("port", 1, 65535));
  const std::string model_id = args.Require("model-id");
  const int64_t begin = args.GetInt("begin", 0, 0, kMaxRows);
  const int64_t rows = args.RequireInt("rows", 0, kMaxRows);
  const uint64_t seed =
      static_cast<uint64_t>(args.GetInt("seed", 47, 0, INT64_MAX));
  const char* out_path = args.Require("out");

  std::optional<double> where_label;
  if (args.Get("where-label") != nullptr) {
    where_label = args.GetDouble("where-label", 0.0);
  }

  serve::Client client;
  TABLEGAN_CHECK_OK(client.Connect(host, port));
  const std::string csv = Unwrap(client.SampleRange(
      model_id, seed, begin, begin + rows,
      // Sharded fetches (--begin > 0) get data rows only, so shards
      // concatenate into one valid file behind a first header shard.
      begin == 0 ? serve::Format::kCsv : serve::Format::kCsvNoHeader,
      where_label));

  std::FILE* out = std::fopen(out_path, "w");
  if (out == nullptr) Fail(Status::IOError("cannot open for write: " +
                                           std::string(out_path)));
  std::fwrite(csv.data(), 1, csv.size(), out);
  if (std::fclose(out) != 0) {
    Fail(Status::IOError("write failed: " + std::string(out_path)));
  }
  std::printf("fetched rows [%lld, %lld) of model '%s' from %s:%d to %s\n",
              static_cast<long long>(begin),
              static_cast<long long>(begin + rows), model_id.c_str(),
              host.c_str(), port, out_path);
  return 0;
}

int CmdEvaluate(Args args) {
  data::Schema schema = Unwrap(data::ReadSchemaFile(args.Require("schema")));
  data::Table original = Unwrap(data::ReadCsv(schema, args.Require("data")));
  data::Table released =
      Unwrap(data::ReadCsv(schema, args.Require("released")));

  auto dcr_all = Unwrap(privacy::ComputeDcr(
      original, released, privacy::QidAndSensitiveColumns(schema)));
  auto dcr_sens = Unwrap(privacy::ComputeDcr(
      original, released, privacy::SensitiveOnlyColumns(schema)));
  std::printf("DCR (QIDs+sensitive): %.3f +/- %.3f\n", dcr_all.mean,
              dcr_all.stddev);
  std::printf("DCR (sensitive only): %.3f +/- %.3f\n", dcr_sens.mean,
              dcr_sens.stddev);

  eval::FidelityReport report =
      Unwrap(eval::EvaluateFidelity(original, released));
  std::printf("fidelity: mean KS %.3f, worst KS %.3f, corr-diff %.3f, "
              "pMSE %.4f (0 = indistinguishable, 0.25 = separable)\n",
              report.mean_ks, report.worst_ks,
              report.correlation_difference, report.pmse);
  std::printf("  worst columns by KS:\n");
  std::vector<eval::ColumnFidelity> by_ks = report.columns;
  std::sort(by_ks.begin(), by_ks.end(),
            [](const auto& a, const auto& b) { return a.ks > b.ks; });
  for (size_t i = 0; i < by_ks.size() && i < 3; ++i) {
    std::printf("    %-20s KS %.3f TV %.3f\n", by_ks[i].name.c_str(),
                by_ks[i].ks, by_ks[i].tv);
  }

  const std::vector<int> labels =
      schema.ColumnsWithRole(data::ColumnRole::kLabel);
  if (labels.size() == 1) {
    // Quick model-compatibility probe: same tree trained on each table,
    // evaluated on a held-out fraction of the original.
    const int64_t holdout = original.num_rows() / 5;
    std::vector<int64_t> train_rows, test_rows;
    for (int64_t r = 0; r < original.num_rows(); ++r) {
      (r < holdout ? test_rows : train_rows).push_back(r);
    }
    data::Table test = original.SelectRows(test_rows);
    data::Table train = original.SelectRows(train_rows);
    auto d_orig = Unwrap(ml::TableToMlData(train, labels[0]));
    auto d_rel = Unwrap(ml::TableToMlData(released, labels[0]));
    auto d_test = Unwrap(ml::TableToMlData(test, labels[0]));
    std::vector<int> truth;
    for (double y : d_test.y) truth.push_back(y > 0.5 ? 1 : 0);
    ml::TreeOptions topt;
    topt.max_depth = 8;
    ml::DecisionTreeClassifier on_orig(topt), on_rel(topt);
    TABLEGAN_CHECK_OK(on_orig.Fit(d_orig));
    TABLEGAN_CHECK_OK(on_rel.Fit(d_rel));
    std::printf("model compatibility (depth-8 tree, F-1): original %.3f "
                "vs released %.3f\n",
                ml::F1Score(truth, on_orig.PredictAll(d_test)),
                ml::F1Score(truth, on_rel.PredictAll(d_test)));
  }
  return 0;
}

int Usage() {
  std::fprintf(stderr,
               "usage: tablegan_cli "
               "<demo|train|sample|sample-remote|evaluate|convert|inspect> "
               "--flag value ...\n(see the header comment of "
               "tools/tablegan_cli.cc for details)\n");
  return 2;
}

}  // namespace
}  // namespace tablegan

int main(int argc, char** argv) {
  if (argc < 2) return tablegan::Usage();
  const std::string cmd = argv[1];
  tablegan::Args args = tablegan::ParseArgs(argc, argv, 2);
  if (cmd == "demo") return tablegan::CmdDemo(std::move(args));
  if (cmd == "train") return tablegan::CmdTrain(std::move(args));
  if (cmd == "sample") return tablegan::CmdSample(std::move(args));
  if (cmd == "sample-remote") {
    return tablegan::CmdSampleRemote(std::move(args));
  }
  if (cmd == "evaluate") return tablegan::CmdEvaluate(std::move(args));
  if (cmd == "convert") return tablegan::CmdConvert(std::move(args));
  if (cmd == "inspect") return tablegan::CmdInspect(std::move(args));
  return tablegan::Usage();
}
