#include "core/table_gan.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <limits>

#include "common/failpoint.h"
#include "common/logging.h"
#include "common/parallel.h"
#include "common/stopwatch.h"
#include "core/info_loss.h"
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

Status TableGan::FitMultiLabel(const data::TableView& table,
                               std::vector<int> label_cols) {
  if (table.num_rows() < 4) {
    return Status::InvalidArgument("need at least 4 training rows");
  }
  if (label_cols.empty()) {
    return Status::InvalidArgument("at least one label column required");
  }
  for (size_t i = 0; i < label_cols.size(); ++i) {
    const int label_col = label_cols[i];
    if (label_col < 0 || label_col >= table.num_columns()) {
      return Status::InvalidArgument(
          "label column index " + std::to_string(label_col) +
          " out of range [0, " + std::to_string(table.num_columns()) + ")");
    }
    for (size_t j = 0; j < i; ++j) {
      if (label_cols[j] == label_col) {
        return Status::InvalidArgument("duplicate label column index " +
                                       std::to_string(label_col));
      }
    }
  }
  if (options_.checkpoint_every < 0) {
    return Status::InvalidArgument("checkpoint_every must be >= 0");
  }
  if (options_.checkpoint_every > 0 && options_.checkpoint_dir.empty()) {
    return Status::InvalidArgument(
        "checkpoint_every requires a checkpoint_dir");
  }
  // Scoped so a per-model num_threads never leaks into other models or
  // evaluation code sharing the process-wide pool.
  ScopedNumThreads scoped_threads(options_.num_threads);
  schema_ = table.schema();
  label_cols_ = std::move(label_cols);
  const auto k = static_cast<int64_t>(label_cols_.size());

  // Per-column normalizer selection (DESIGN.md §16): min-max everywhere
  // unless a column opted into the GMM encoding. Label columns stay
  // min-max so their encoded cell is the single scalar the classifier
  // and the conditioning vector read.
  if (options_.gmm_components < 1 || options_.gmm_components > 64) {
    return Status::InvalidArgument("gmm_components must be in [1, 64], got " +
                                   std::to_string(options_.gmm_components));
  }
  std::vector<data::ColumnNormalizerSpec> specs;
  if (!options_.gmm_columns.empty()) {
    specs.resize(static_cast<size_t>(table.num_columns()));
    for (int c : options_.gmm_columns) {
      if (c < 0 || c >= table.num_columns()) {
        return Status::InvalidArgument(
            "GMM column index " + std::to_string(c) + " out of range [0, " +
            std::to_string(table.num_columns()) + ")");
      }
      if (std::find(label_cols_.begin(), label_cols_.end(), c) !=
          label_cols_.end()) {
        return Status::InvalidArgument(
            "GMM column index " + std::to_string(c) + " is a label column");
      }
      specs[static_cast<size_t>(c)].kind = data::NormalizerKind::kGmm;
      specs[static_cast<size_t>(c)].components = options_.gmm_components;
    }
  }
  // One fitting pass over the view; no encoded copy of the table is ever
  // built. Mini-batches below are encoded on the fly straight from the
  // view's column pointers, so training an mmap'd columnar file touches
  // each page as its rows come up in the shuffle and peak memory is
  // O(batch), not O(table).
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
                                   static_cast<int>(k));

  nn::Adam adam_g(generator_->Parameters(), generator_->Gradients(),
                  options_.learning_rate, options_.adam_beta1,
                  options_.adam_beta2);
  nn::Adam adam_d(discriminator_.Parameters(), discriminator_.Gradients(),
                  options_.learning_rate, options_.adam_beta1,
                  options_.adam_beta2);
  nn::Adam adam_c(classifier_.Parameters(), classifier_.Gradients(),
                  options_.learning_rate, options_.adam_beta1,
                  options_.adam_beta2);

  InfoLossState info(discriminator_.feature_dim, options_.ewma_weight,
                     options_.delta_mean, options_.delta_sd);

  // Bind the shared buffer pool to every network and the info-loss state
  // so each training-step tensor is recycled instead of reallocated. The
  // pool changes where buffers live, never their contents (DESIGN.md
  // memory model), so training is bitwise identical with the flag off.
  // The old pool (if any) is replaced only after the networks holding
  // tensors from it have been rebuilt above.
  if (options_.reuse_workspace) {
    ws_ = std::make_unique<Workspace>();
    generator_->SetWorkspace(ws_.get());
    discriminator_.features->SetWorkspace(ws_.get());
    discriminator_.head->SetWorkspace(ws_.get());
    classifier_.features->SetWorkspace(ws_.get());
    classifier_.head->SetWorkspace(ws_.get());
    info.BindWorkspace(ws_.get());
  } else {
    ws_.reset();
  }

  // --- Training-stability machinery (DESIGN.md §15) ------------------
  if (options_.sn_power_iters < 1) {
    return Status::InvalidArgument("sn_power_iters must be >= 1");
  }
  if (options_.guard_warmup_epochs < 0 || options_.guard_max_rollbacks < 0) {
    return Status::InvalidArgument(
        "guard_warmup_epochs and guard_max_rollbacks must be >= 0");
  }
  const bool wgan = options_.loss_mode == LossMode::kWganGp;
  std::unique_ptr<nn::SpectralNormRegularizer> sn;
  if (options_.loss_mode == LossMode::kSpectralNorm) {
    sn = std::make_unique<nn::SpectralNormRegularizer>(
        discriminator_.Parameters(), discriminator_.Gradients(),
        options_.sn_weight, options_.sn_power_iters,
        MixSeeds(static_cast<uint64_t>(options_.seed), kSpectralStreamTag));
    if (ws_ != nullptr) sn->BindWorkspace(ws_.get());
  }
  DivergenceGuard guard(options_.guard_ewma_weight, options_.guard_factor,
                        options_.guard_warmup_epochs);
  int64_t rollbacks_used = 0;

  const int64_t n = table.num_rows();
  const int64_t batch =
      std::max<int64_t>(2, std::min<int64_t>(options_.batch_size, n));
  const int64_t cells = static_cast<int64_t>(side_) * side_;
  std::vector<int64_t> order(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) order[static_cast<size_t>(i)] = i;

  history_.clear();
  int start_epoch = 0;
  if (!options_.resume_from.empty()) {
    // Continue a checkpointed run: restores weights, optimizer moments,
    // the RNG stream, EWMA statistics and history, so the remaining
    // epochs replay exactly what an uninterrupted run would compute.
    TrainingState state{0,     &adam_g, &adam_d, &adam_c,
                        &info, &guard,  sn.get()};
    TABLEGAN_RETURN_NOT_OK(
        RestoreTrainingState(options_.resume_from, &state));
    start_epoch = state.epochs_completed;
    rollbacks_used = state.rollbacks_used;
    if (options_.verbose) {
      TABLEGAN_LOG(Info) << "resumed from " << options_.resume_from
                         << " at epoch " << start_epoch;
    }
  }
  if (options_.checkpoint_every > 0) {
    std::error_code ec;
    std::filesystem::create_directories(options_.checkpoint_dir, ec);
    if (ec) {
      return Status::IOError("cannot create checkpoint_dir " +
                             options_.checkpoint_dir + ": " + ec.message());
    }
  }

  // Last-good snapshot for the divergence guardrail: copies of every
  // mutable training tensor (network weights and BatchNorm running
  // statistics, Adam moments, info-loss EWMAs, spectral-norm vectors)
  // plus the scalar optimizer/guard state, refreshed after each healthy
  // epoch. Restoring it rewinds training — except the RNG stream, which
  // deliberately keeps advancing: replaying the identical draws would
  // diverge identically.
  const bool guard_active =
      options_.divergence_action != DivergenceAction::kOff;
  std::vector<Tensor*> live;
  std::vector<Tensor> snap;
  int snap_epoch = start_epoch;
  size_t snap_history = history_.size();
  int64_t snap_steps[3] = {0, 0, 0};
  double snap_pows[6] = {0, 0, 0, 0, 0, 0};
  bool snap_info_init = false;
  double snap_guard_ewma = 0.0, snap_guard_base = 0.0;
  int64_t snap_guard_obs = 0;
  nn::Adam* adams[3] = {&adam_g, &adam_d, &adam_c};
  if (guard_active) {
    auto add_net = [&live](nn::Sequential* net) {
      for (Tensor* t : net->Parameters()) live.push_back(t);
      for (Tensor* t : net->Buffers()) live.push_back(t);
    };
    add_net(generator_.get());
    add_net(discriminator_.features.get());
    add_net(discriminator_.head.get());
    add_net(classifier_.features.get());
    add_net(classifier_.head.get());
    for (nn::Adam* a : adams) {
      for (Tensor* t : a->MomentTensors()) live.push_back(t);
    }
    for (Tensor* t : info.EwmaTensors()) live.push_back(t);
    if (sn != nullptr) {
      for (Tensor* t : sn->StateTensors()) live.push_back(t);
    }
    snap.resize(live.size());
  }
  auto take_snapshot = [&](int epochs_done) {
    for (size_t i = 0; i < live.size(); ++i) snap[i] = *live[i];
    snap_epoch = epochs_done;
    snap_history = history_.size();
    for (int i = 0; i < 3; ++i) {
      snap_steps[i] = adams[i]->step_count();
      snap_pows[2 * i] = adams[i]->beta1_power();
      snap_pows[2 * i + 1] = adams[i]->beta2_power();
    }
    snap_info_init = info.initialized();
    snap_guard_ewma = guard.ewma();
    snap_guard_base = guard.baseline();
    snap_guard_obs = guard.observed_epochs();
  };
  auto restore_snapshot = [&]() {
    for (size_t i = 0; i < live.size(); ++i) *live[i] = snap[i];
    for (int i = 0; i < 3; ++i) {
      adams[i]->set_step_count(snap_steps[i]);
      adams[i]->set_bias_correction_powers(snap_pows[2 * i],
                                           snap_pows[2 * i + 1]);
    }
    info.set_initialized(snap_info_init);
    guard.Restore(snap_guard_ewma, snap_guard_base, snap_guard_obs);
    history_.resize(snap_history);
  };
  if (guard_active) take_snapshot(start_epoch);

  // Batch-assembly and loss-gradient buffers, hoisted out of the loops
  // so the steady-state step allocates nothing: ResizeUninitialized
  // reuses each tensor's capacity once the first (largest) batch has
  // sized it. The tail batch is smaller than `batch`, so its resize
  // never grows the buffers.
  Tensor x, labels, ones, zeros, z1, z2;
  Tensor bce_grad, cgrad, cin, pred, grad_logit;
  // WGAN-GP scratch (kWganGp mode only): the interpolated batch, its
  // per-sample critic input gradients (normalized in place), the
  // perturbed batch of the finite-difference passes and the per-sample
  // output seeds.
  Tensor xhat, vhat, pert, gp_seed;
  std::vector<float> gp_coefs;

  for (int epoch = start_epoch; epoch < options_.epochs; ++epoch) {
    // Re-derive the permutation from identity each epoch: an in-place
    // shuffle of the previous epoch's order would make the batch
    // sequence depend on history a checkpoint does not carry, breaking
    // bitwise resume.
    for (int64_t i = 0; i < n; ++i) order[static_cast<size_t>(i)] = i;
    rng_.Shuffle(&order);
    EpochStats stats;
    int num_batches = 0;
    int64_t epoch_examples = 0;
    const uint64_t ws_takes0 = ws_ != nullptr ? ws_->takes() : 0;
    const uint64_t ws_misses0 = ws_ != nullptr ? ws_->misses() : 0;
    Stopwatch epoch_watch;
    Stopwatch phase_watch;
    double d_seconds = 0.0, c_seconds = 0.0, g_seconds = 0.0;
    // Every row is visited: the final short batch of `n mod batch` rows
    // trains too (the old loop condition silently dropped it). The one
    // exception is a 1-row tail, which is skipped because BatchNorm's
    // batch variance is identically zero on a single sample.
    for (int64_t start = 0; start < n; start += batch) {
      const int64_t bsize = std::min<int64_t>(batch, n - start);
      if (bsize < 2) break;
      // --- Assemble the real mini-batch (Alg. 2 line 6): zero the pad
      // cells (exactly what the codec writes there), then encode the
      // batch's rows directly from the view. Bitwise identical to
      // gathering rows of the old precomputed Transform+ToMatrices
      // tensor (see MinMaxNormalizer::EncodeRowsInto).
      x.ResizeUninitialized({bsize, 1, side_, side_});
      x.SetZero();
      normalizer_.EncodeRowsInto(table, order.data() + start, bsize,
                                 x.data(), cells);
      // Ground-truth labels l(x) in {0,1}: decode the label cells from
      // the [-1,1] encoding.
      labels.ResizeUninitialized({bsize, k});
      for (int64_t b = 0; b < bsize; ++b) {
        for (int64_t j = 0; j < k; ++j) {
          labels.at2(b, j) =
              0.5f * (x[b * cells + label_cell(static_cast<int>(j))] + 1.0f);
        }
      }
      ones.ResizeUninitialized({bsize, 1});
      ones.Fill(1.0f);
      zeros.ResizeUninitialized({bsize, 1});
      zeros.SetZero();

      // --- Discriminator update (Alg. 2 line 8): L_orig^D for kDcgan
      // and kSpectralNorm (the latter adds the weight penalty below), a
      // Wasserstein critic with gradient penalty for kWganGp.
      phase_watch.Restart();
      // Conditional models append the real batch's encoded label cells
      // to the latent input (cGAN-style): the generator learns its
      // conditioning from pairs whose condition matches a real record.
      const int64_t zdim = options_.latent_dim + cond_dim();
      z1.ResizeUninitialized({bsize, zdim});
      z1.FillUniform(-1.0f, 1.0f, &rng_);
      for (int64_t j = options_.latent_dim; j < zdim; ++j) {
        const int64_t cell = label_cell(static_cast<int>(j - options_.latent_dim));
        for (int64_t b = 0; b < bsize; ++b) {
          z1.at2(b, j) = x[b * cells + cell];
        }
      }
      Tensor fake_for_d = generator_->Forward(z1, /*training=*/true);
      if (!wgan) {
        adam_d.ZeroGrad();
        {
          Tensor feat = discriminator_.features->Forward(x, true);
          Tensor logits = discriminator_.head->Forward(feat, true);
          stats.d_loss += nn::SigmoidBceWithLogits(logits, ones, &bce_grad);
          discriminator_.features->Backward(
              discriminator_.head->Backward(bce_grad));
        }
        {
          Tensor feat = discriminator_.features->Forward(fake_for_d, true);
          Tensor logits = discriminator_.head->Forward(feat, true);
          stats.d_loss += nn::SigmoidBceWithLogits(logits, zeros, &bce_grad);
          discriminator_.features->Backward(
              discriminator_.head->Backward(bce_grad));
        }
        if (sn != nullptr) stats.d_loss += sn->Apply();
      } else {
        const float inv_b = 1.0f / static_cast<float>(bsize);
        // x̂ = a·x + (1-a)·G(z1), per-sample a ~ U[0,1) (Gulrajani et
        // al., Algorithm 1).
        xhat.ResizeUninitialized(x.shape());
        for (int64_t b = 0; b < bsize; ++b) {
          const float a = static_cast<float>(rng_.Uniform(0.0f, 1.0f));
          const float* xr = x.data() + b * cells;
          const float* fr = fake_for_d.data() + b * cells;
          float* hr = xhat.data() + b * cells;
          for (int64_t c = 0; c < cells; ++c) {
            hr[c] = a * xr[c] + (1.0f - a) * fr[c];
          }
        }
        // Per-sample critic input gradient g_i = ∇_x D(x̂_i): one
        // backward pass seeded with ones. The pass also pollutes the
        // parameter gradients; the ZeroGrad below discards that.
        gp_seed.ResizeUninitialized({bsize, 1});
        gp_seed.Fill(1.0f);
        {
          Tensor feat = discriminator_.features->Forward(xhat, true);
          (void)discriminator_.head->Forward(feat, true);
        }
        Tensor gin = discriminator_.features->Backward(
            discriminator_.head->Backward(gp_seed));
        // GP = (1/b) Σ (‖g_i‖-1)².  vhat keeps the unit directions ĝ_i,
        // gp_coefs the per-sample chain factor (‖g_i‖-1); a zero-grad
        // sample contributes its penalty value but no HVP direction.
        vhat = gin;
        gp_coefs.resize(static_cast<size_t>(bsize));
        double gp = 0.0;
        for (int64_t b = 0; b < bsize; ++b) {
          float* gr = vhat.data() + b * cells;
          double sum = 0.0;
          for (int64_t c = 0; c < cells; ++c) {
            sum += static_cast<double>(gr[c]) * gr[c];
          }
          const float norm = static_cast<float>(std::sqrt(sum));
          gp += static_cast<double>(norm - 1.0f) * (norm - 1.0f);
          const float inv = norm > 1e-12f ? 1.0f / norm : 0.0f;
          for (int64_t c = 0; c < cells; ++c) gr[c] *= inv;
          gp_coefs[static_cast<size_t>(b)] = inv > 0.0f ? norm - 1.0f : 0.0f;
        }
        gp /= static_cast<double>(bsize);
        adam_d.ZeroGrad();
        // Critic loss mean D(fake) - mean D(real): the backward seeds
        // are constant ±1/b rows.
        double mean_real = 0.0, mean_fake = 0.0;
        {
          Tensor feat = discriminator_.features->Forward(x, true);
          Tensor logits = discriminator_.head->Forward(feat, true);
          for (int64_t b = 0; b < bsize; ++b) mean_real += logits[b];
          bce_grad.ResizeUninitialized({bsize, 1});
          bce_grad.Fill(-inv_b);
          discriminator_.features->Backward(
              discriminator_.head->Backward(bce_grad));
        }
        {
          Tensor feat = discriminator_.features->Forward(fake_for_d, true);
          Tensor logits = discriminator_.head->Forward(feat, true);
          for (int64_t b = 0; b < bsize; ++b) mean_fake += logits[b];
          bce_grad.Fill(inv_b);
          discriminator_.features->Backward(
              discriminator_.head->Backward(bce_grad));
        }
        mean_real *= inv_b;
        mean_fake *= inv_b;
        // Parameter gradient of the penalty without double backprop: a
        // central-difference Hessian-vector product,
        //   ∇_θ(v̂_iᵀ ∇_x D(x̂_i)) ≈ [∇_θ D(x̂+εv̂) - ∇_θ D(x̂-εv̂)] / 2ε,
        // one forward/backward per sign with the chain factor
        // λ·(‖g_i‖-1)/(b·ε) folded into seed row i. Parameter gradients
        // accumulate across Backward calls (nn::Layer contract), so the
        // two passes add straight onto the critic gradients above.
        for (const float sign : {1.0f, -1.0f}) {
          pert = xhat;
          ops::AxpyInPlace(vhat, sign * kGpFdEpsilon, &pert);
          Tensor feat = discriminator_.features->Forward(pert, true);
          (void)discriminator_.head->Forward(feat, true);
          for (int64_t b = 0; b < bsize; ++b) {
            gp_seed[b] = sign * options_.gp_weight *
                         gp_coefs[static_cast<size_t>(b)] * inv_b /
                         kGpFdEpsilon;
          }
          discriminator_.features->Backward(
              discriminator_.head->Backward(gp_seed));
        }
        stats.d_loss += static_cast<float>(
            mean_fake - mean_real + options_.gp_weight * gp);
      }
      adam_d.Step();
      d_seconds += phase_watch.ElapsedSeconds();

      // --- Classifier update with L_class^C (Alg. 2 line 9).
      phase_watch.Restart();
      if (options_.use_classifier) {
        adam_c.ZeroGrad();
        RemoveLabelInto(x, &cin);
        Tensor feat = classifier_.features->Forward(cin, true);
        Tensor logits = classifier_.head->Forward(feat, true);
        SigmoidInto(logits, &pred);
        cgrad.ResizeUninitialized({bsize, k});
        float loss = 0.0f;
        const float inv_bk = 1.0f / static_cast<float>(bsize * k);
        for (int64_t i = 0; i < bsize * k; ++i) {
          const float diff = pred[i] - labels[i];
          loss += std::fabs(diff);
          const float sign = diff > 0.0f ? 1.0f : (diff < 0.0f ? -1.0f : 0.0f);
          cgrad[i] = sign * pred[i] * (1.0f - pred[i]) * inv_bk;
        }
        stats.class_loss += loss * inv_bk;
        classifier_.features->Backward(classifier_.head->Backward(cgrad));
        adam_c.Step();
      }
      c_seconds += phase_watch.ElapsedSeconds();

      // --- Generator update with L_orig^G + L_info^G + L_class^G
      //     (Alg. 2 lines 10-14).
      phase_watch.Restart();
      adam_g.ZeroGrad();
      z2.ResizeUninitialized({bsize, zdim});
      z2.FillUniform(-1.0f, 1.0f, &rng_);
      for (int64_t j = options_.latent_dim; j < zdim; ++j) {
        const int64_t cell = label_cell(static_cast<int>(j - options_.latent_dim));
        for (int64_t b = 0; b < bsize; ++b) {
          z2.at2(b, j) = x[b * cells + cell];
        }
      }
      Tensor fake = generator_->Forward(z2, /*training=*/true);

      // Real features for the EWMA statistics. (Forward only; the
      // subsequent fake forward re-caches the stack for backward.)
      Tensor feat_real;
      if (options_.use_info_loss) {
        feat_real = discriminator_.features->Forward(x, true);
      }
      Tensor feat_fake = discriminator_.features->Forward(fake, true);
      Tensor logits_g = discriminator_.head->Forward(feat_fake, true);
      Tensor grad_feat;
      if (!wgan) {
        stats.g_orig_loss +=
            nn::SigmoidBceWithLogits(logits_g, ones, &bce_grad);
        grad_feat = discriminator_.head->Backward(bce_grad);
      } else {
        // L_orig^G = -mean D(G(z)): constant -1/b seed rows.
        const float inv_b = 1.0f / static_cast<float>(bsize);
        double mean_g = 0.0;
        for (int64_t b = 0; b < bsize; ++b) mean_g += logits_g[b];
        stats.g_orig_loss += static_cast<float>(-mean_g * inv_b);
        bce_grad.ResizeUninitialized({bsize, 1});
        bce_grad.Fill(-inv_b);
        grad_feat = discriminator_.head->Backward(bce_grad);
      }
      if (options_.use_info_loss) {
        info.UpdateStatistics(feat_real, feat_fake);
        stats.info_loss += info.Loss();
        stats.l_mean += info.l_mean();
        stats.l_sd += info.l_sd();
        Tensor info_grad = info.GradFakeFeatures();
        ops::AxpyInPlace(info_grad, options_.info_loss_weight, &grad_feat);
      }
      Tensor grad_fake = discriminator_.features->Backward(grad_feat);

      if (options_.use_classifier) {
        RemoveLabelInto(fake, &cin);
        Tensor feat = classifier_.features->Forward(cin, true);
        Tensor logits = classifier_.head->Forward(feat, true);
        SigmoidInto(logits, &pred);
        grad_logit.ResizeUninitialized({bsize, k});
        float loss = 0.0f;
        const float inv_bk = 1.0f / static_cast<float>(bsize * k);
        for (int64_t b = 0; b < bsize; ++b) {
          for (int64_t j = 0; j < k; ++j) {
            const int64_t col = label_cell(static_cast<int>(j));
            const float ell = 0.5f * (fake[b * cells + col] + 1.0f);
            const float p = pred.at2(b, j);
            const float diff = ell - p;
            loss += std::fabs(diff);
            const float sign =
                diff > 0.0f ? 1.0f : (diff < 0.0f ? -1.0f : 0.0f);
            // d|ell - pred| / d logit = -sign * pred * (1 - pred).
            grad_logit.at2(b, j) = -sign * p * (1.0f - p) * inv_bk;
            // d|ell - pred| / d label_cell = sign * 0.5.
            grad_fake[b * cells + col] += 0.5f * sign * inv_bk;
          }
        }
        stats.class_loss += loss * inv_bk;
        Tensor grad_cin = classifier_.features->Backward(
            classifier_.head->Backward(grad_logit));
        // remove(.) blocks the gradient of the zeroed label cells.
        for (int64_t b = 0; b < bsize; ++b) {
          for (size_t j = 0; j < label_cols_.size(); ++j) {
            grad_cin[b * cells + label_cell(static_cast<int>(j))] = 0.0f;
          }
        }
        ops::AxpyInPlace(grad_cin, 1.0f, &grad_fake);
      }
      generator_->Backward(grad_fake);
      adam_g.Step();
      g_seconds += phase_watch.ElapsedSeconds();
      ++num_batches;
      epoch_examples += bsize;
    }
    if (num_batches > 0) {
      const float inv = 1.0f / static_cast<float>(num_batches);
      stats.d_loss *= inv;
      stats.g_orig_loss *= inv;
      stats.info_loss *= inv;
      stats.class_loss *= inv;
      stats.l_mean *= inv;
      stats.l_sd *= inv;
    }
    if (TABLEGAN_FAILPOINT("train.loss_nan")) {
      // Deterministic divergence injection for the guardrail tests.
      stats.d_loss = std::numeric_limits<float>::quiet_NaN();
    }
    const std::string anomaly =
        guard.Observe({{"d_loss", stats.d_loss},
                       {"g_loss", stats.g_orig_loss},
                       {"info_loss", stats.info_loss},
                       {"class_loss", stats.class_loss}});
    const bool diverged = guard_active && !anomaly.empty();
    // A poisoned epoch never enters the history: on rollback it is
    // retried, on halt the model is rewound to the last-good state the
    // history must keep matching.
    if (!diverged) history_.push_back(stats);
    if (options_.verbose) {
      TABLEGAN_LOG(Info) << "epoch " << epoch + 1 << "/" << options_.epochs
                         << " d=" << stats.d_loss
                         << " g=" << stats.g_orig_loss
                         << " info=" << stats.info_loss
                         << " class=" << stats.class_loss
                         << (anomaly.empty() ? "" : " ANOMALY: " + anomaly);
    }

    if (options_.metrics_sink != nullptr || options_.metrics_callback) {
      TrainingMetrics m;
      m.epoch = epoch + 1;
      m.total_epochs = options_.epochs;
      m.d_loss = stats.d_loss;
      m.g_loss = stats.g_orig_loss;
      m.info_loss = stats.info_loss;
      m.class_loss = stats.class_loss;
      m.l_mean = stats.l_mean;
      m.l_sd = stats.l_sd;
      m.d_seconds = d_seconds;
      m.c_seconds = c_seconds;
      m.g_seconds = g_seconds;
      m.epoch_seconds = epoch_watch.ElapsedSeconds();
      // True rows consumed (the old num_batches * batch both overcounted
      // the tail and undercounted the dropped rows).
      m.examples = epoch_examples;
      m.examples_per_sec =
          m.epoch_seconds > 0.0
              ? static_cast<double>(m.examples) / m.epoch_seconds
              : 0.0;
      if (ws_ != nullptr) {
        const uint64_t takes = ws_->takes() - ws_takes0;
        const uint64_t misses = ws_->misses() - ws_misses0;
        m.workspace_allocs = static_cast<int64_t>(misses);
        m.workspace_reuses = static_cast<int64_t>(takes - misses);
        m.workspace_bytes = static_cast<int64_t>(ws_->allocated_bytes());
      }
      m.loss_ewma = guard.ewma();
      m.anomaly = anomaly;
      if (options_.metrics_sink != nullptr) {
        TABLEGAN_RETURN_NOT_OK(options_.metrics_sink->Record(m));
      }
      if (options_.metrics_callback) options_.metrics_callback(m);
    }

    if (diverged) {
      // Rewind to the last-good snapshot — weights, moments, EWMA
      // statistics, guard — but NOT the RNG stream: a rollback retries
      // the epoch with fresh randomness instead of replaying the exact
      // draws that just diverged.
      restore_snapshot();
      std::string auto_path;
      if (!options_.checkpoint_dir.empty()) {
        std::error_code ec;
        std::filesystem::create_directories(options_.checkpoint_dir, ec);
        if (ec) {
          return Status::IOError("cannot create checkpoint_dir " +
                                 options_.checkpoint_dir + ": " +
                                 ec.message());
        }
        auto_path = options_.checkpoint_dir + "/diverged-last-good.tgan";
        TrainingState state{snap_epoch,  &adam_g, &adam_d,
                            &adam_c,     &info,   &guard,
                            sn.get(),    rollbacks_used};
        TABLEGAN_RETURN_NOT_OK(SaveImpl(auto_path, &state));
      }
      if (options_.metrics_sink != nullptr) {
        TrainingEvent ev;
        ev.event = "diverged";
        ev.epoch = epoch + 1;
        ev.detail = anomaly;
        ev.checkpoint_path = auto_path;
        TABLEGAN_RETURN_NOT_OK(options_.metrics_sink->RecordEvent(ev));
      }
      if (options_.divergence_action == DivergenceAction::kRollback &&
          rollbacks_used < options_.guard_max_rollbacks) {
        ++rollbacks_used;
        epoch = snap_epoch - 1;  // the loop increment retries snap_epoch
        continue;
      }
      return Status::Internal(
          "training diverged at epoch " + std::to_string(epoch + 1) + ": " +
          anomaly +
          (auto_path.empty()
               ? " (model holds the last-good state)"
               : "; last-good state checkpointed to " + auto_path));
    }
    if (guard_active) take_snapshot(epoch + 1);

    if (options_.checkpoint_every > 0 &&
        ((epoch + 1) % options_.checkpoint_every == 0 ||
         epoch + 1 == options_.epochs)) {
      TrainingState state{epoch + 1, &adam_g, &adam_d,
                          &adam_c,   &info,   &guard,
                          sn.get(),  rollbacks_used};
      TABLEGAN_RETURN_NOT_OK(
          SaveImpl(CheckpointPath(options_.checkpoint_dir, epoch + 1), &state));
      // Stable alias for "resume from wherever the run died".
      TABLEGAN_RETURN_NOT_OK(
          SaveImpl(options_.checkpoint_dir + "/latest.tgan", &state));
    }
  }
  fitted_ = true;
  return Status::OK();
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
