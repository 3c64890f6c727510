#include "core/table_gan.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <numeric>

#include "common/failpoint.h"
#include "common/logging.h"
#include "common/parallel.h"
#include "common/stopwatch.h"
#include "core/training_state.h"
#include "nn/loss.h"
#include "nn/optimizer.h"
#include "nn/spectral_norm.h"
#include "tensor/tensor_ops.h"

namespace tablegan {
namespace core {
namespace {

// Writes sigmoid(logits) into *out (capacity-reusing); same per-element
// expression as the old copy-then-mutate helper, so results are bitwise
// identical.
void SigmoidInto(const Tensor& logits, Tensor* out) {
  out->ResizeUninitialized(logits.shape());
  for (int64_t i = 0; i < logits.size(); ++i) {
    (*out)[i] = 1.0f / (1.0f + std::exp(-logits[i]));
  }
}

std::string CheckpointPath(const std::string& dir, int epoch) {
  char name[32];
  std::snprintf(name, sizeof(name), "ckpt-epoch-%04d.tgan", epoch);
  return dir + "/" + name;
}

Status MakeCheckpointDir(const std::string& dir) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return Status::IOError("cannot create checkpoint_dir " + dir + ": " +
                           ec.message());
  }
  return Status::OK();
}

// Rows per generator/discriminator inference block. A fixed constant —
// never the training batch size — so the block decomposition, and with
// it every row's latent draw and forward pass, is identical no matter
// what batch_size the model was configured with.
constexpr int64_t kInferBlockRows = 64;

// Domain tag separating Sample's latent stream from every other use of
// options.seed (weight init, shuffling).
constexpr uint64_t kSampleStreamTag = 0x53616d706c65ULL;  // "Sample"

// Domain tag for the spectral-norm power-iteration init vectors.
constexpr uint64_t kSpectralStreamTag = 0x53706563ULL;  // "Spec"

// Extra domain tag layered onto the sample stream for conditional
// sampling; the requested label's bits are mixed in after it, so every
// label's row stream is disjoint from every other label's and from the
// unconditional stream of the same seed.
constexpr uint64_t kCondStreamTag = 0x436F6E64ULL;  // "Cond"

// Step size of the central-difference Hessian-vector product that turns
// the WGAN gradient penalty into parameter gradients (DESIGN.md §15).
// The record space is [-1, 1] and the perturbation direction is a unit
// vector, so 1e-2 sits well inside the smooth regime of the LeakyReLU
// critic while staying far above float cancellation noise.
constexpr float kGpFdEpsilon = 1e-2f;

// Fit's argument and option checks, made before the model is touched.
Status ValidateFit(const TableGanOptions& options,
                   const data::TableView& table,
                   const std::vector<int>& label_cols) {
  if (table.num_rows() < 4) {
    return Status::InvalidArgument("need at least 4 training rows");
  }
  if (label_cols.empty()) {
    return Status::InvalidArgument("at least one label column required");
  }
  const std::string range =
      " out of range [0, " + std::to_string(table.num_columns()) + ")";
  for (auto it = label_cols.begin(); it != label_cols.end(); ++it) {
    if (*it < 0 || *it >= table.num_columns()) {
      return Status::InvalidArgument(
          "label column index " + std::to_string(*it) + range);
    }
    if (std::find(label_cols.begin(), it, *it) != it) {
      return Status::InvalidArgument("duplicate label column index " +
                                     std::to_string(*it));
    }
  }
  if (options.checkpoint_every < 0) {
    return Status::InvalidArgument("checkpoint_every must be >= 0");
  }
  if (options.checkpoint_every > 0 && options.checkpoint_dir.empty()) {
    return Status::InvalidArgument(
        "checkpoint_every requires a checkpoint_dir");
  }
  if (options.gmm_components < 1 || options.gmm_components > 64) {
    return Status::InvalidArgument("gmm_components must be in [1, 64], got " +
                                   std::to_string(options.gmm_components));
  }
  for (int c : options.gmm_columns) {
    if (c < 0 || c >= table.num_columns()) {
      return Status::InvalidArgument("GMM column index " +
                                     std::to_string(c) + range);
    }
    if (std::find(label_cols.begin(), label_cols.end(), c) !=
        label_cols.end()) {
      return Status::InvalidArgument(
          "GMM column index " + std::to_string(c) + " is a label column");
    }
  }
  if (options.sn_power_iters < 1) {
    return Status::InvalidArgument("sn_power_iters must be >= 1");
  }
  if (options.guard_warmup_epochs < 0 || options.guard_max_rollbacks < 0) {
    return Status::InvalidArgument(
        "guard_warmup_epochs and guard_max_rollbacks must be >= 0");
  }
  return Status::OK();
}

// The log line and telemetry of an epoch RunEpoch timed into `*m`.
Status ReportEpoch(const TableGanOptions& options, const EpochStats& stats,
                   TrainingMetrics* m) {
  if (options.verbose) {
    TABLEGAN_LOG(Info) << "epoch " << m->epoch << "/" << options.epochs
                       << " d=" << stats.d_loss << " g=" << stats.g_orig_loss
                       << " info=" << stats.info_loss
                       << " class=" << stats.class_loss
                       << (m->anomaly.empty() ? "" : " ANOMALY: " + m->anomaly);
  }
  if (options.metrics_sink == nullptr && !options.metrics_callback) {
    return Status::OK();
  }
  m->total_epochs = options.epochs;
  m->d_loss = stats.d_loss;
  m->g_loss = stats.g_orig_loss;
  m->info_loss = stats.info_loss;
  m->class_loss = stats.class_loss;
  m->l_mean = stats.l_mean;
  m->l_sd = stats.l_sd;
  m->examples_per_sec =
      m->epoch_seconds > 0.0
          ? static_cast<double>(m->examples) / m->epoch_seconds
          : 0.0;
  if (options.metrics_sink != nullptr) {
    TABLEGAN_RETURN_NOT_OK(options.metrics_sink->Record(*m));
  }
  if (options.metrics_callback) options.metrics_callback(*m);
  return Status::OK();
}

}  // namespace

TableGan::TableGan(TableGanOptions options)
    : options_(options),
      rng_(options.seed),
      sample_stream_seed_(
          MixSeeds(static_cast<uint64_t>(options.seed), kSampleStreamTag)) {}

void TableGan::RemoveLabelInto(const Tensor& matrices, Tensor* out) const {
  *out = matrices;  // copy-assign reuses the destination's capacity
  const int64_t cells = static_cast<int64_t>(side_) * side_;
  const int64_t n = out->dim(0);
  for (int64_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < label_cols_.size(); ++j) {
      (*out)[i * cells + label_cell(static_cast<int>(j))] = 0.0f;
    }
  }
}

Status TableGan::Fit(const data::TableView& table, int label_col) {
  return FitMultiLabel(table, {label_col});
}

// One epoch's row order, the current real mini-batch and the scratch
// tensors of the D, C and G updates, kept across batches so the
// steady-state step allocates nothing: ResizeUninitialized reuses each
// tensor's capacity once the first (largest) batch has sized it.
struct TableGan::Batch {
  std::vector<int64_t> order;
  int64_t size = 0;
  // Real records, their ground-truth labels l(x) in {0,1}, the BCE
  // targets, the latent input, then loss-gradient and classifier scratch.
  Tensor x, labels, ones, zeros, z;
  Tensor bce_grad, cin, pred, grad_logit;
  // WGAN-GP scratch: the interpolated batch, its per-sample critic input
  // gradients (normalized in place), the perturbed batch of the
  // finite-difference passes and the per-sample output seeds.
  Tensor xhat, vhat, pert, gp_seed;
  std::vector<float> gp_coefs;
};

TableGan::TrainingState::TrainingState(TableGan* gan,
                                       const TableGanOptions& o)
    : adam_g(gan->generator_->Parameters(), gan->generator_->Gradients(),
             o.learning_rate, o.adam_beta1, o.adam_beta2),
      adam_d(gan->discriminator_.Parameters(),
             gan->discriminator_.Gradients(), o.learning_rate, o.adam_beta1,
             o.adam_beta2),
      adam_c(gan->classifier_.Parameters(), gan->classifier_.Gradients(),
             o.learning_rate, o.adam_beta1, o.adam_beta2),
      info(gan->discriminator_.feature_dim, o.ewma_weight, o.delta_mean,
           o.delta_sd),
      guard(o.guard_ewma_weight, o.guard_factor, o.guard_warmup_epochs) {
  if (o.loss_mode == LossMode::kSpectralNorm) {
    sn = std::make_unique<nn::SpectralNormRegularizer>(
        gan->discriminator_.Parameters(), gan->discriminator_.Gradients(),
        o.sn_weight, o.sn_power_iters,
        MixSeeds(static_cast<uint64_t>(o.seed), kSpectralStreamTag));
  }
  if (gan->ws_ != nullptr) {
    info.BindWorkspace(gan->ws_.get());
    if (sn != nullptr) sn->BindWorkspace(gan->ws_.get());
  }
}

Status TableGan::FitMultiLabel(const data::TableView& table,
                               std::vector<int> label_cols) {
  TABLEGAN_RETURN_NOT_OK(ValidateFit(options_, table, label_cols));
  // Scoped so a per-model num_threads never leaks into other models or
  // evaluation code sharing the process-wide pool.
  ScopedNumThreads scoped_threads(options_.num_threads);
  label_cols_ = std::move(label_cols);
  TABLEGAN_RETURN_NOT_OK(SetUpModel(table));
  TrainingState state(this, options_);
  history_.clear();
  if (!options_.resume_from.empty()) {
    // Continue a checkpointed run: restores weights, optimizer moments,
    // the RNG stream, EWMA statistics and history, so the remaining
    // epochs replay exactly what an uninterrupted run would compute.
    TABLEGAN_RETURN_NOT_OK(RestoreTrainingState(options_.resume_from, &state));
    if (options_.verbose) {
      TABLEGAN_LOG(Info) << "resumed from " << options_.resume_from
                         << " at epoch " << state.epochs_completed;
    }
  }
  if (options_.checkpoint_every > 0) {
    TABLEGAN_RETURN_NOT_OK(MakeCheckpointDir(options_.checkpoint_dir));
  }

  // The divergence guard's last-good snapshot (DESIGN.md §15): the bytes
  // a checkpoint of the latest healthy epoch holds, re-serialized into
  // one buffer after each such epoch.
  const bool guard_active =
      options_.divergence_action != DivergenceAction::kOff;
  std::string last_good;
  if (guard_active) Serialize(&state, &last_good);

  Batch batch;
  while (state.epochs_completed < options_.epochs) {
    const int epoch = state.epochs_completed + 1;
    EpochStats stats;
    TrainingMetrics m;
    m.epoch = epoch;
    RunEpoch(table, &state, &batch, &stats, &m);
    if (TABLEGAN_FAILPOINT("train.loss_nan")) {
      // Deterministic divergence injection for the guardrail tests.
      stats.d_loss = std::numeric_limits<float>::quiet_NaN();
    }
    m.anomaly = state.guard.Observe({{"d_loss", stats.d_loss},
                                     {"g_loss", stats.g_orig_loss},
                                     {"info_loss", stats.info_loss},
                                     {"class_loss", stats.class_loss}});
    m.loss_ewma = state.guard.ewma();
    const bool diverged = guard_active && !m.anomaly.empty();
    // A poisoned epoch never enters the history: on rollback it is
    // retried, on halt the model is rewound to the last-good state the
    // history must keep matching.
    if (!diverged) history_.push_back(stats);
    TABLEGAN_RETURN_NOT_OK(ReportEpoch(options_, stats, &m));
    if (diverged) {
      // OK means the restored epoch is retried.
      TABLEGAN_RETURN_NOT_OK(
          HandleDivergence(last_good, epoch, m.anomaly, &state));
      continue;
    }
    state.epochs_completed = epoch;
    if (guard_active) Serialize(&state, &last_good);
    if (options_.checkpoint_every > 0 &&
        (epoch % options_.checkpoint_every == 0 || epoch == options_.epochs)) {
      TABLEGAN_RETURN_NOT_OK(
          SaveImpl(CheckpointPath(options_.checkpoint_dir, epoch), &state));
      // Stable alias for "resume from wherever the run died".
      TABLEGAN_RETURN_NOT_OK(
          SaveImpl(options_.checkpoint_dir + "/latest.tgan", &state));
    }
  }
  fitted_ = true;
  return Status::OK();
}

Status TableGan::SetUpModel(const data::TableView& table) {
  schema_ = table.schema();
  // Per-column normalizer selection (DESIGN.md §16): min-max everywhere
  // unless a column opted into the GMM encoding. Label columns stay
  // min-max so their encoded cell is the single scalar the classifier
  // and the conditioning vector read.
  std::vector<data::ColumnNormalizerSpec> specs;
  if (!options_.gmm_columns.empty()) {
    specs.resize(static_cast<size_t>(table.num_columns()));
    for (int c : options_.gmm_columns) {
      specs[static_cast<size_t>(c)].kind = data::NormalizerKind::kGmm;
      specs[static_cast<size_t>(c)].components = options_.gmm_components;
    }
  }
  // One fitting pass over the view; no encoded copy of the table is ever
  // built. Mini-batches are encoded on the fly straight from the view's
  // column pointers (AssembleBatch), so training an mmap'd columnar file
  // touches each page as its rows come up in the shuffle and peak memory
  // is O(batch), not O(table).
  TABLEGAN_RETURN_NOT_OK(normalizer_.Fit(table, specs));

  // The record matrix holds the encoded row, which GMM columns widen
  // beyond the attribute count (1 + modes cells each).
  const int width = normalizer_.encoded_width();
  side_ = options_.side > 0 ? options_.side
                            : data::RecordMatrixCodec::ChooseSide(width);
  if (side_ * side_ < width) {
    return Status::InvalidArgument("side too small for encoded record width");
  }
  codec_ = std::make_unique<data::RecordMatrixCodec>(width, side_);

  // Conditional models need the label vocabulary: SampleConditional
  // validates requested levels against it, and unpinned label columns
  // draw from the empirical frequencies at synthesis time.
  label_levels_.clear();
  label_level_freqs_.clear();
  if (options_.conditional) {
    for (int col : label_cols_) {
      const double* colp = table.column_data(col);
      std::vector<double> vals(colp, colp + table.num_rows());
      std::sort(vals.begin(), vals.end());
      std::vector<double> levels;
      std::vector<double> freqs;
      for (size_t i = 0; i < vals.size(); ++i) {
        if (levels.empty() || vals[i] != levels.back()) {
          levels.push_back(vals[i]);
          freqs.push_back(0.0);
        }
        freqs.back() += 1.0;
      }
      if (levels.size() > 64) {
        return Status::InvalidArgument(
            "conditional training supports at most 64 distinct label "
            "values, but column " +
            std::to_string(col) + " has " + std::to_string(levels.size()));
      }
      for (double& f : freqs) f /= static_cast<double>(table.num_rows());
      label_levels_.push_back(std::move(levels));
      label_level_freqs_.push_back(std::move(freqs));
    }
  }

  generator_ = BuildGenerator(side_, options_.latent_dim + cond_dim(),
                              options_.base_channels, &rng_);
  discriminator_ = BuildDiscriminator(side_, options_.base_channels, &rng_);
  classifier_ = BuildDiscriminator(side_, options_.base_channels, &rng_,
                                   static_cast<int>(label_cols_.size()));

  // Bind the shared buffer pool to every network (TrainingState binds
  // the info loss and spectral norm) so each training-step tensor is
  // recycled instead of reallocated. The pool changes where buffers
  // live, never their contents (DESIGN.md memory model), so training is
  // bitwise identical with the flag off. The old pool (if any) is
  // replaced only after the networks holding tensors from it have been
  // rebuilt above.
  if (options_.reuse_workspace) {
    ws_ = std::make_unique<Workspace>();
    for (nn::Sequential* net : Networks()) net->SetWorkspace(ws_.get());
  } else {
    ws_.reset();
  }
  return Status::OK();
}

void TableGan::RunEpoch(const data::TableView& table, TrainingState* state,
                        Batch* batch, EpochStats* stats,
                        TrainingMetrics* m) {
  const int64_t n = table.num_rows();
  const int64_t max_batch =
      std::max<int64_t>(2, std::min<int64_t>(options_.batch_size, n));
  // Re-derive the permutation from identity each epoch: an in-place
  // shuffle of the previous epoch's order would make the batch sequence
  // depend on history a checkpoint does not carry, breaking bitwise
  // resume.
  batch->order.resize(static_cast<size_t>(n));
  std::iota(batch->order.begin(), batch->order.end(), int64_t{0});
  rng_.Shuffle(&batch->order);
  const uint64_t ws_takes0 = ws_ != nullptr ? ws_->takes() : 0;
  const uint64_t ws_misses0 = ws_ != nullptr ? ws_->misses() : 0;
  Stopwatch epoch_watch;
  Stopwatch phase_watch;
  int num_batches = 0;
  // Every row is visited: the final short batch of `n mod batch` rows
  // trains too. The one exception is a 1-row tail, which is skipped
  // because BatchNorm's batch variance is identically zero on a single
  // sample.
  for (int64_t start = 0; start < n; start += max_batch) {
    const int64_t size = std::min<int64_t>(max_batch, n - start);
    if (size < 2) break;
    AssembleBatch(table, batch->order.data() + start, size, batch);
    phase_watch.Restart();
    UpdateDiscriminator(state, batch, stats);
    m->d_seconds += phase_watch.ElapsedSeconds();
    phase_watch.Restart();
    if (options_.use_classifier) UpdateClassifier(state, batch, stats);
    m->c_seconds += phase_watch.ElapsedSeconds();
    phase_watch.Restart();
    UpdateGenerator(state, batch, stats);
    m->g_seconds += phase_watch.ElapsedSeconds();
    ++num_batches;
    m->examples += size;
  }
  if (num_batches > 0) {
    const float inv = 1.0f / static_cast<float>(num_batches);
    stats->d_loss *= inv;
    stats->g_orig_loss *= inv;
    stats->info_loss *= inv;
    stats->class_loss *= inv;
    stats->l_mean *= inv;
    stats->l_sd *= inv;
  }
  m->epoch_seconds = epoch_watch.ElapsedSeconds();
  if (ws_ != nullptr) {
    const uint64_t takes = ws_->takes() - ws_takes0;
    const uint64_t misses = ws_->misses() - ws_misses0;
    m->workspace_allocs = static_cast<int64_t>(misses);
    m->workspace_reuses = static_cast<int64_t>(takes - misses);
    m->workspace_bytes = static_cast<int64_t>(ws_->allocated_bytes());
  }
}

Status TableGan::HandleDivergence(const std::string& last_good, int epoch,
                                  const std::string& anomaly,
                                  TrainingState* state) {
  // Rewind to the last-good snapshot — weights, moments, EWMA
  // statistics, guard, history — but NOT the RNG stream or the rollback
  // count: a rollback retries the epoch with fresh randomness instead of
  // replaying the exact draws that just diverged.
  const Rng::State rng = rng_.state();
  const int64_t rollbacks_used = state->rollbacks_used;
  TABLEGAN_RETURN_NOT_OK(
      RestoreTrainingState("the last-good snapshot", state, &last_good));
  rng_.set_state(rng);
  state->rollbacks_used = rollbacks_used;
  std::string auto_path;
  if (!options_.checkpoint_dir.empty()) {
    TABLEGAN_RETURN_NOT_OK(MakeCheckpointDir(options_.checkpoint_dir));
    auto_path = options_.checkpoint_dir + "/diverged-last-good.tgan";
    TABLEGAN_RETURN_NOT_OK(SaveImpl(auto_path, state));
  }
  if (options_.metrics_sink != nullptr) {
    TrainingEvent ev;
    ev.event = "diverged";
    ev.epoch = epoch;
    ev.detail = anomaly;
    ev.checkpoint_path = auto_path;
    TABLEGAN_RETURN_NOT_OK(options_.metrics_sink->RecordEvent(ev));
  }
  if (options_.divergence_action == DivergenceAction::kRollback &&
      state->rollbacks_used < options_.guard_max_rollbacks) {
    ++state->rollbacks_used;
    return Status::OK();
  }
  // Halted: the last-good model stays in place, saveable and sampleable.
  fitted_ = true;
  return Status::Internal(
      "training diverged at epoch " + std::to_string(epoch) + ": " +
      anomaly +
      (auto_path.empty() ? " (model holds the last-good state)"
                         : "; last-good state checkpointed to " + auto_path));
}

void TableGan::AssembleBatch(const data::TableView& table,
                             const int64_t* rows, int64_t n,
                             Batch* batch) const {
  const int64_t cells = static_cast<int64_t>(side_) * side_;
  const auto k = static_cast<int64_t>(label_cols_.size());
  Batch& b = *batch;
  b.size = n;
  // Zero the pad cells (exactly what the codec writes there), then
  // encode the rows directly from the view. Bitwise identical to
  // gathering rows of a precomputed Transform+ToMatrices tensor (see
  // MinMaxNormalizer::EncodeRowsInto).
  b.x.ResizeUninitialized({n, 1, side_, side_});
  b.x.SetZero();
  normalizer_.EncodeRowsInto(table, rows, n, b.x.data(), cells);
  // Ground-truth labels: decode the label cells from the [-1,1] encoding.
  b.labels.ResizeUninitialized({n, k});
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t j = 0; j < k; ++j) {
      b.labels.at2(i, j) =
          0.5f * (b.x[i * cells + label_cell(static_cast<int>(j))] + 1.0f);
    }
  }
  b.ones.ResizeUninitialized({n, 1});
  b.ones.Fill(1.0f);
  b.zeros.ResizeUninitialized({n, 1});
  b.zeros.SetZero();
}

void TableGan::FillLatent(Batch* batch) {
  Batch& b = *batch;
  const int64_t cells = static_cast<int64_t>(side_) * side_;
  const int64_t zdim = options_.latent_dim + cond_dim();
  b.z.ResizeUninitialized({b.size, zdim});
  b.z.FillUniform(-1.0f, 1.0f, &rng_);
  // Conditional models append the real batch's encoded label cells to
  // the latent input (cGAN-style): the generator learns its conditioning
  // from pairs whose condition matches a real record.
  for (int64_t j = options_.latent_dim; j < zdim; ++j) {
    const int64_t cell = label_cell(static_cast<int>(j - options_.latent_dim));
    for (int64_t i = 0; i < b.size; ++i) b.z.at2(i, j) = b.x[i * cells + cell];
  }
}

void TableGan::UpdateDiscriminator(TrainingState* state, Batch* batch,
                                   EpochStats* stats) {
  Batch& b = *batch;
  FillLatent(batch);
  Tensor fake = generator_->Forward(b.z, /*training=*/true);
  if (options_.loss_mode == LossMode::kWganGp) {
    stats->d_loss += WganCriticGradients(state, fake, batch);
  } else {
    // L_orig^D over the real then the synthetic half; kSpectralNorm adds
    // the weight penalty.
    state->adam_d.ZeroGrad();
    for (const bool real : {true, false}) {
      Tensor feat = discriminator_.features->Forward(real ? b.x : fake, true);
      Tensor logits = discriminator_.head->Forward(feat, true);
      stats->d_loss += nn::SigmoidBceWithLogits(
          logits, real ? b.ones : b.zeros, &b.bce_grad);
      discriminator_.features->Backward(
          discriminator_.head->Backward(b.bce_grad));
    }
    if (state->sn != nullptr) stats->d_loss += state->sn->Apply();
  }
  state->adam_d.Step();
}

float TableGan::WganCriticGradients(TrainingState* state, const Tensor& fake,
                                    Batch* batch) {
  Batch& b = *batch;
  const int64_t bsize = b.size;
  const int64_t cells = static_cast<int64_t>(side_) * side_;
  const float inv_b = 1.0f / static_cast<float>(bsize);
  // x̂ = a·x + (1-a)·G(z), per-sample a ~ U[0,1) (Gulrajani et al.,
  // Algorithm 1).
  b.xhat.ResizeUninitialized(b.x.shape());
  for (int64_t i = 0; i < bsize; ++i) {
    const float a = static_cast<float>(rng_.Uniform(0.0f, 1.0f));
    const float* xr = b.x.data() + i * cells;
    const float* fr = fake.data() + i * cells;
    float* hr = b.xhat.data() + i * cells;
    for (int64_t c = 0; c < cells; ++c) {
      hr[c] = a * xr[c] + (1.0f - a) * fr[c];
    }
  }
  // Per-sample critic input gradient g_i = ∇_x D(x̂_i): one backward pass
  // seeded with ones. The pass also pollutes the parameter gradients; the
  // ZeroGrad below discards that.
  b.gp_seed.ResizeUninitialized({bsize, 1});
  b.gp_seed.Fill(1.0f);
  {
    Tensor feat = discriminator_.features->Forward(b.xhat, true);
    (void)discriminator_.head->Forward(feat, true);
  }
  Tensor gin = discriminator_.features->Backward(
      discriminator_.head->Backward(b.gp_seed));
  // GP = (1/b) Σ (‖g_i‖-1)².  vhat keeps the unit directions ĝ_i,
  // gp_coefs the per-sample chain factor (‖g_i‖-1); a zero-grad sample
  // contributes its penalty value but no HVP direction.
  b.vhat = gin;
  b.gp_coefs.resize(static_cast<size_t>(bsize));
  double gp = 0.0;
  for (int64_t i = 0; i < bsize; ++i) {
    float* gr = b.vhat.data() + i * cells;
    double sum = 0.0;
    for (int64_t c = 0; c < cells; ++c) {
      sum += static_cast<double>(gr[c]) * gr[c];
    }
    const float norm = static_cast<float>(std::sqrt(sum));
    gp += static_cast<double>(norm - 1.0f) * (norm - 1.0f);
    const float inv = norm > 1e-12f ? 1.0f / norm : 0.0f;
    for (int64_t c = 0; c < cells; ++c) gr[c] *= inv;
    b.gp_coefs[static_cast<size_t>(i)] = inv > 0.0f ? norm - 1.0f : 0.0f;
  }
  gp /= static_cast<double>(bsize);
  state->adam_d.ZeroGrad();
  // Critic loss mean D(fake) - mean D(real): the backward seeds are
  // constant ±1/b rows.
  double mean_real = 0.0, mean_fake = 0.0;
  b.bce_grad.ResizeUninitialized({bsize, 1});
  for (const bool real : {true, false}) {
    Tensor feat = discriminator_.features->Forward(real ? b.x : fake, true);
    Tensor logits = discriminator_.head->Forward(feat, true);
    double& mean = real ? mean_real : mean_fake;
    for (int64_t i = 0; i < bsize; ++i) mean += logits[i];
    b.bce_grad.Fill(real ? -inv_b : inv_b);
    discriminator_.features->Backward(
        discriminator_.head->Backward(b.bce_grad));
  }
  mean_real *= inv_b;
  mean_fake *= inv_b;
  // Parameter gradient of the penalty without double backprop: a
  // central-difference Hessian-vector product,
  //   ∇_θ(v̂_iᵀ ∇_x D(x̂_i)) ≈ [∇_θ D(x̂+εv̂) - ∇_θ D(x̂-εv̂)] / 2ε,
  // one forward/backward per sign with the chain factor λ·(‖g_i‖-1)/(b·ε)
  // folded into seed row i. Parameter gradients accumulate across
  // Backward calls (nn::Layer contract), so the two passes add straight
  // onto the critic gradients above.
  for (const float sign : {1.0f, -1.0f}) {
    b.pert = b.xhat;
    ops::AxpyInPlace(b.vhat, sign * kGpFdEpsilon, &b.pert);
    Tensor feat = discriminator_.features->Forward(b.pert, true);
    (void)discriminator_.head->Forward(feat, true);
    for (int64_t i = 0; i < bsize; ++i) {
      b.gp_seed[i] = sign * options_.gp_weight *
                     b.gp_coefs[static_cast<size_t>(i)] * inv_b /
                     kGpFdEpsilon;
    }
    discriminator_.features->Backward(
        discriminator_.head->Backward(b.gp_seed));
  }
  return static_cast<float>(mean_fake - mean_real + options_.gp_weight * gp);
}

void TableGan::UpdateClassifier(TrainingState* state, Batch* batch,
                                EpochStats* stats) {
  Batch& b = *batch;
  const int64_t k = static_cast<int64_t>(label_cols_.size());
  state->adam_c.ZeroGrad();
  RemoveLabelInto(b.x, &b.cin);
  Tensor feat = classifier_.features->Forward(b.cin, true);
  Tensor logits = classifier_.head->Forward(feat, true);
  SigmoidInto(logits, &b.pred);
  b.grad_logit.ResizeUninitialized({b.size, k});
  float loss = 0.0f;
  const float inv_bk = 1.0f / static_cast<float>(b.size * k);
  for (int64_t i = 0; i < b.size * k; ++i) {
    const float diff = b.pred[i] - b.labels[i];
    loss += std::fabs(diff);
    const float sign = diff > 0.0f ? 1.0f : (diff < 0.0f ? -1.0f : 0.0f);
    b.grad_logit[i] = sign * b.pred[i] * (1.0f - b.pred[i]) * inv_bk;
  }
  stats->class_loss += loss * inv_bk;
  classifier_.features->Backward(classifier_.head->Backward(b.grad_logit));
  state->adam_c.Step();
}

void TableGan::UpdateGenerator(TrainingState* state, Batch* batch,
                               EpochStats* stats) {
  Batch& b = *batch;
  const int64_t bsize = b.size;
  const int64_t cells = static_cast<int64_t>(side_) * side_;
  const int64_t k = static_cast<int64_t>(label_cols_.size());
  state->adam_g.ZeroGrad();
  FillLatent(batch);
  Tensor fake = generator_->Forward(b.z, /*training=*/true);

  // Real features for the EWMA statistics. (Forward only; the subsequent
  // fake forward re-caches the stack for backward.)
  Tensor feat_real;
  if (options_.use_info_loss) {
    feat_real = discriminator_.features->Forward(b.x, true);
  }
  Tensor feat_fake = discriminator_.features->Forward(fake, true);
  Tensor logits = discriminator_.head->Forward(feat_fake, true);
  if (options_.loss_mode != LossMode::kWganGp) {
    stats->g_orig_loss +=
        nn::SigmoidBceWithLogits(logits, b.ones, &b.bce_grad);
  } else {
    // L_orig^G = -mean D(G(z)): constant -1/b seed rows.
    const float inv_b = 1.0f / static_cast<float>(bsize);
    double mean_g = 0.0;
    for (int64_t i = 0; i < bsize; ++i) mean_g += logits[i];
    stats->g_orig_loss += static_cast<float>(-mean_g * inv_b);
    b.bce_grad.ResizeUninitialized({bsize, 1});
    b.bce_grad.Fill(-inv_b);
  }
  Tensor grad_feat = discriminator_.head->Backward(b.bce_grad);
  if (options_.use_info_loss) {
    state->info.UpdateStatistics(feat_real, feat_fake);
    stats->info_loss += state->info.Loss();
    stats->l_mean += state->info.l_mean();
    stats->l_sd += state->info.l_sd();
    Tensor info_grad = state->info.GradFakeFeatures();
    ops::AxpyInPlace(info_grad, options_.info_loss_weight, &grad_feat);
  }
  Tensor grad_fake = discriminator_.features->Backward(grad_feat);

  if (options_.use_classifier) {
    RemoveLabelInto(fake, &b.cin);
    Tensor feat = classifier_.features->Forward(b.cin, true);
    Tensor logits_c = classifier_.head->Forward(feat, true);
    SigmoidInto(logits_c, &b.pred);
    b.grad_logit.ResizeUninitialized({bsize, k});
    float loss = 0.0f;
    const float inv_bk = 1.0f / static_cast<float>(bsize * k);
    for (int64_t i = 0; i < bsize; ++i) {
      for (int64_t j = 0; j < k; ++j) {
        const int64_t col = label_cell(static_cast<int>(j));
        const float ell = 0.5f * (fake[i * cells + col] + 1.0f);
        const float p = b.pred.at2(i, j);
        const float diff = ell - p;
        loss += std::fabs(diff);
        const float sign = diff > 0.0f ? 1.0f : (diff < 0.0f ? -1.0f : 0.0f);
        // d|ell - pred| / d logit = -sign * pred * (1 - pred).
        b.grad_logit.at2(i, j) = -sign * p * (1.0f - p) * inv_bk;
        // d|ell - pred| / d label_cell = sign * 0.5.
        grad_fake[i * cells + col] += 0.5f * sign * inv_bk;
      }
    }
    stats->class_loss += loss * inv_bk;
    Tensor grad_cin = classifier_.features->Backward(
        classifier_.head->Backward(b.grad_logit));
    // remove(.) blocks the gradient of the zeroed label cells.
    for (int64_t i = 0; i < bsize; ++i) {
      for (int64_t j = 0; j < k; ++j) {
        grad_cin[i * cells + label_cell(static_cast<int>(j))] = 0.0f;
      }
    }
    ops::AxpyInPlace(grad_cin, 1.0f, &grad_fake);
  }
  generator_->Backward(grad_fake);
  state->adam_g.Step();
}

Result<data::Table> TableGan::Sample(int64_t n) {
  if (!fitted_) return Status::FailedPrecondition("Sample before Fit");
  // A zero- (or negative-) row request is a no-op: the persisted
  // rows-emitted position must not move and the workspace pool must not
  // be touched, so interleaving empty requests — routine for a serving
  // frontend — leaves the deterministic stream bit-for-bit unchanged.
  if (n <= 0) return data::Table(schema_);
  ScopedNumThreads scoped_threads(options_.num_threads);
  TABLEGAN_ASSIGN_OR_RETURN(
      data::Table out, GenerateRows(sample_stream_seed_,
                                    sample_rows_emitted_, n));
  sample_rows_emitted_ += static_cast<uint64_t>(n);
  return out;
}

Result<data::Table> TableGan::SampleRange(uint64_t seed, int64_t row_begin,
                                          int64_t row_end) const {
  if (!fitted_) {
    return Status::FailedPrecondition("SampleRange before Fit");
  }
  if (row_begin < 0 || row_end < row_begin) {
    return Status::InvalidArgument(
        "invalid row range [" + std::to_string(row_begin) + ", " +
        std::to_string(row_end) + ")");
  }
  if (row_end == row_begin) return data::Table(schema_);
  // Same domain tag as the constructor, so seed == options.seed
  // reproduces this model's own Sample stream from row 0.
  return GenerateRows(MixSeeds(seed, kSampleStreamTag),
                      static_cast<uint64_t>(row_begin),
                      row_end - row_begin);
}

Result<data::Table> TableGan::SampleConditional(uint64_t seed,
                                                int64_t row_begin,
                                                int64_t row_end,
                                                double label) const {
  if (!fitted_) {
    return Status::FailedPrecondition("SampleConditional before Fit");
  }
  if (!options_.conditional) {
    return Status::FailedPrecondition(
        "model was not trained with options.conditional");
  }
  if (row_begin < 0 || row_end < row_begin) {
    return Status::InvalidArgument(
        "invalid row range [" + std::to_string(row_begin) + ", " +
        std::to_string(row_end) + ")");
  }
  // The request must name an exact training level of the primary label
  // column; the serve layer maps the NotFound onto kUnknownLabel.
  const std::vector<double>& levels = label_levels_[0];
  const auto it = std::lower_bound(levels.begin(), levels.end(), label);
  if (it == levels.end() || !(*it == label)) {
    return Status::NotFound("unknown label " + std::to_string(label) +
                            " for conditional sampling");
  }
  // Canonicalize (e.g. -0.0 vs 0.0) so the stream key is the stored
  // level's bit pattern, never the request's spelling of it.
  const double canonical = *it;
  if (row_end == row_begin) return data::Table(schema_);
  const uint64_t stream =
      MixSeeds(MixSeeds(MixSeeds(seed, kSampleStreamTag), kCondStreamTag),
               std::bit_cast<uint64_t>(canonical));
  return GenerateRows(stream, static_cast<uint64_t>(row_begin),
                      row_end - row_begin, &canonical);
}

Result<data::Table> TableGan::GenerateRows(uint64_t stream_seed,
                                           uint64_t first, int64_t n,
                                           const double* fixed_label) const {
  const int64_t cells = static_cast<int64_t>(side_) * side_;
  const int64_t latent = options_.latent_dim;
  const int64_t cond = cond_dim();
  const int64_t zdim = latent + cond;
  Tensor all({n, cells});
  // The level each conditioning cell carried, per row: the decode step
  // below writes it back into the label columns so a conditional sample
  // honors its condition exactly.
  std::vector<double> cond_levels(
      static_cast<size_t>(cond > 0 ? n * cond : 0));

  // Row blocks of a fixed size, each generated independently: row i's
  // latent comes from its own counter-derived substream, and the
  // generator runs cache-free (Infer), so blocks can be produced on any
  // thread in any order and still write the exact bits a serial pass
  // would. Exactly n rows are generated — the old code drew and ran the
  // generator on a full batch even for a short tail, then discarded the
  // excess while still consuming its latent draws.
  const int64_t num_blocks = (n + kInferBlockRows - 1) / kInferBlockRows;
  auto run_block = [&](int64_t b) {
    const int64_t row0 = b * kInferBlockRows;
    const int64_t take = std::min<int64_t>(kInferBlockRows, n - row0);
    Tensor z({take, zdim});
    for (int64_t r = 0; r < take; ++r) {
      Rng row_rng(MixSeeds(stream_seed,
                           first + static_cast<uint64_t>(row0 + r)));
      float* zr = z.data() + r * zdim;
      // Same draw sequence as Tensor::Uniform.
      for (int64_t j = 0; j < latent; ++j) {
        zr[j] = static_cast<float>(row_rng.Uniform(-1.0f, 1.0f));
      }
      // Conditioning cells: the primary label pins to `fixed_label` when
      // given; every unpinned label column draws a level from its
      // training frequencies on this row's own substream, keeping the
      // whole row a pure function of (stream_seed, row index).
      for (int64_t j = 0; j < cond; ++j) {
        const int col = label_cols_[static_cast<size_t>(j)];
        double level;
        if (fixed_label != nullptr && j == 0) {
          level = *fixed_label;
        } else {
          const double p = row_rng.NextDouble();
          const std::vector<double>& freqs =
              label_level_freqs_[static_cast<size_t>(j)];
          size_t idx = freqs.size() - 1;
          double cum = 0.0;
          for (size_t t = 0; t < freqs.size(); ++t) {
            cum += freqs[t];
            if (p < cum) {
              idx = t;
              break;
            }
          }
          level = label_levels_[static_cast<size_t>(j)][idx];
        }
        cond_levels[static_cast<size_t>((row0 + r) * cond + j)] = level;
        const double lo = normalizer_.column_min(col);
        const double hi = normalizer_.column_max(col);
        const double span = hi - lo;
        zr[latent + j] =
            span > 0.0
                ? static_cast<float>(data::EncodeUnit(level, lo, hi, span))
                : 0.0f;
      }
    }
    Tensor fake = generator_->Infer(z);
    std::copy(fake.data(), fake.data() + take * cells,
              all.data() + row0 * cells);
  };
  if (num_blocks > 1 && GetNumThreads() > 1) {
    ParallelFor(num_blocks, 1, [&](int64_t b0, int64_t b1) {
      for (int64_t b = b0; b < b1; ++b) run_block(b);
    });
  } else {
    // Single block or single thread: run on the caller so the generator's
    // inner kernels can still use the pool.
    for (int64_t b = 0; b < num_blocks; ++b) run_block(b);
  }

  Tensor matrices = all.Reshaped({n, 1, side_, side_});
  TABLEGAN_ASSIGN_OR_RETURN(Tensor records, codec_->FromMatrices(matrices));
  TABLEGAN_ASSIGN_OR_RETURN(data::Table out,
                            normalizer_.InverseTransform(records, schema_));
  // A conditional model's label columns report the levels the rows were
  // conditioned on — the condition is a contract, not a suggestion the
  // generator may drift from.
  for (int64_t j = 0; j < cond; ++j) {
    const int col = label_cols_[static_cast<size_t>(j)];
    for (int64_t r = 0; r < n; ++r) {
      out.Set(r, col, cond_levels[static_cast<size_t>(r * cond + j)]);
    }
  }
  return out;
}

Result<std::vector<double>> TableGan::DiscriminatorScores(
    const data::Table& records) {
  if (!fitted_) {
    return Status::FailedPrecondition("DiscriminatorScores before Fit");
  }
  if (!records.schema().Equals(schema_)) {
    return Status::InvalidArgument("schema mismatch");
  }
  TABLEGAN_ASSIGN_OR_RETURN(Tensor encoded, normalizer_.Transform(records));
  // Clamp to the training range so unseen extremes stay in [-1, 1].
  for (int64_t i = 0; i < encoded.size(); ++i) {
    encoded[i] = std::clamp(encoded[i], -1.0f, 1.0f);
  }
  TABLEGAN_ASSIGN_OR_RETURN(Tensor matrices, codec_->ToMatrices(encoded));
  // Row-sharded scoring mirrors Sample: fixed-size blocks through the
  // cache-free inference path, each writing a disjoint slice of `out`.
  ScopedNumThreads scoped_threads(options_.num_threads);
  const int64_t n = matrices.dim(0);
  const int64_t cells = static_cast<int64_t>(side_) * side_;
  std::vector<double> out(static_cast<size_t>(n));
  const int64_t num_blocks = (n + kInferBlockRows - 1) / kInferBlockRows;
  auto score_block = [&](int64_t b) {
    const int64_t row0 = b * kInferBlockRows;
    const int64_t take = std::min<int64_t>(kInferBlockRows, n - row0);
    Tensor block({take, 1, side_, side_});
    std::copy(matrices.data() + row0 * cells,
              matrices.data() + (row0 + take) * cells, block.data());
    Tensor logits = discriminator_.InferLogits(block);
    TABLEGAN_CHECK(logits.size() == take);
    for (int64_t i = 0; i < take; ++i) {
      out[static_cast<size_t>(row0 + i)] =
          1.0 / (1.0 + std::exp(-static_cast<double>(logits[i])));
    }
  };
  if (num_blocks > 1 && GetNumThreads() > 1) {
    ParallelFor(num_blocks, 1, [&](int64_t b0, int64_t b1) {
      for (int64_t b = b0; b < b1; ++b) score_block(b);
    });
  } else {
    for (int64_t b = 0; b < num_blocks; ++b) score_block(b);
  }
  return out;
}

}  // namespace core
}  // namespace tablegan
