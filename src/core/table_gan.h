#ifndef TABLEGAN_CORE_TABLE_GAN_H_
#define TABLEGAN_CORE_TABLE_GAN_H_

#include <array>
#include <memory>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "core/networks.h"
#include "core/table_gan_options.h"
#include "data/gmm_normalizer.h"
#include "data/record_matrix.h"
#include "data/table.h"
#include "data/table_view.h"
#include "tensor/workspace.h"

namespace tablegan {
namespace core {

/// Per-epoch training telemetry.
struct EpochStats {
  float d_loss = 0.0f;      // discriminator BCE (real + fake halves)
  float g_orig_loss = 0.0f; // generator adversarial loss
  float info_loss = 0.0f;   // hinge information loss (Eq. 4)
  float class_loss = 0.0f;  // classifier discrepancy (Eq. 5)
  float l_mean = 0.0f;      // relative first-order statistics gap
  float l_sd = 0.0f;        // relative second-order statistics gap
};

/// table-GAN (paper §4): a DCGAN-based generator/discriminator pair plus
/// a classifier network, trained with the original GAN loss, the hinge
/// information loss and the classification loss per Algorithm 2, over
/// records encoded as zero-padded square matrices in [-1, 1].
///
/// Typical use:
///   TableGan gan(TableGanOptions::LowPrivacy());
///   gan.Fit(train_table, label_col);
///   data::Table synthetic = *gan.Sample(train_table.num_rows());
///
/// Setting options.use_info_loss = options.use_classifier = false yields
/// the DCGAN baseline of §5.1.3.
class TableGan {
 public:
  explicit TableGan(TableGanOptions options);

  TableGan(const TableGan&) = delete;
  TableGan& operator=(const TableGan&) = delete;
  TableGan(TableGan&&) = default;

  /// Trains on `table`; `label_col` is the ground-truth label attribute
  /// the classifier network learns (paper §4.1.3). The whole table —
  /// label included — is synthesized.
  ///
  /// Takes any TableView: training reads rows through the view's column
  /// pointers one mini-batch at a time (never materializing the encoded
  /// table), so an mmap-backed ColumnarReader trains out-of-core with
  /// memory proportional to the batch size — and, because every batch
  /// cell is computed with the identical per-cell expression, produces
  /// checkpoints and samples bitwise identical to fitting the same rows
  /// from an in-RAM Table at any thread count (DESIGN.md §14).
  Status Fit(const data::TableView& table, int label_col);

  /// Multi-label variant (paper §4.2.3): the classifier becomes a
  /// multi-task network with one sigmoid head per label sharing the
  /// convolutional trunk; the classification loss averages the per-label
  /// discrepancies.
  Status FitMultiLabel(const data::TableView& table,
                       std::vector<int> label_cols);

  bool fitted() const { return fitted_; }

  /// Generates `n` synthetic records and decodes them to a table with
  /// the training schema.
  ///
  /// Determinism contract: the latent vector of output row i is drawn
  /// from its own counter-derived RNG substream, indexed by the number of
  /// rows emitted by earlier Sample calls plus i. The output is therefore
  /// a pure function of (options.seed, rows emitted so far, n) — bitwise
  /// identical across batch sizes and thread counts, while successive
  /// calls still produce fresh rows. Row blocks are generated in
  /// parallel across disjoint output slices when threads are available.
  ///
  /// n <= 0 returns an empty table with the training schema without
  /// advancing the persisted rows-emitted position (and without touching
  /// the workspace pool), so a zero-row request — e.g. relayed from a
  /// remote client — cannot perturb subsequent deterministic output.
  Result<data::Table> Sample(int64_t n);

  /// Stateless range sampling for the serving path: rows
  /// [row_begin, row_end) of the logical sample table that a fresh model
  /// with options.seed == `seed` would emit through Sample. Pure
  /// function of (seed, row_begin, row_end) — it neither reads nor
  /// advances the model's own sampling-stream position, so any worker
  /// holding this model can serve any slice of the logical table,
  /// bitwise identical to every other worker at any thread count.
  /// Const and safe to call concurrently (the inference path is
  /// cache-free; see nn::Layer::Infer).
  Result<data::Table> SampleRange(uint64_t seed, int64_t row_begin,
                                  int64_t row_end) const;

  /// Condition-by-label range sampling: rows [row_begin, row_end) of the
  /// per-label logical sample table for `label`, which must exactly
  /// match one of the primary label column's training levels (otherwise
  /// NotFound — the serve layer maps that onto its unknown-label wire
  /// status). Requires a model fitted with options.conditional
  /// (FailedPrecondition otherwise).
  ///
  /// Same determinism contract as SampleRange — a pure function of
  /// (seed, label, row index) at any batch size, thread count or
  /// chunking — and each label's stream is keyed by a label-tagged
  /// substream, so per-label streams are mutually disjoint and disjoint
  /// from the unconditional stream of the same seed.
  Result<data::Table> SampleConditional(uint64_t seed, int64_t row_begin,
                                        int64_t row_end, double label) const;

  /// Discriminator probability D(r) of being real, per record of
  /// `records` (normalized with the training normalizer). Used by the
  /// customized membership attack (§4.5), which trains shadow table-GANs
  /// and reads their discriminators.
  Result<std::vector<double>> DiscriminatorScores(const data::Table& records);

  /// Per-epoch losses recorded during Fit.
  const std::vector<EpochStats>& history() const { return history_; }

  /// Persists the fitted model (schema, normalizer, all three networks
  /// with their BatchNorm running statistics) to a binary file, so a
  /// trained generator can be shared and reloaded (the paper's release
  /// workflow gives partners generator access only). The write is
  /// atomic (temp file + rename) and the file carries a CRC-32 footer.
  Status Save(const std::string& path) const;

  /// Restores a model saved by Save() or a mid-training checkpoint.
  /// Truncated, bit-flipped or wrong-version files are rejected with a
  /// non-OK Status (the CRC footer is verified before any field is
  /// parsed). The returned model samples with a fresh RNG seeded from
  /// its stored options.
  static Result<TableGan> Load(const std::string& path);

  const TableGanOptions& options() const { return options_; }
  int side() const { return side_; }
  /// First (primary) label column.
  int label_col() const { return label_cols_.empty() ? -1 : label_cols_[0]; }
  const std::vector<int>& label_cols() const { return label_cols_; }

 private:
  struct TrainingState;  // Fit's state beyond the model: training_state.h
  struct Batch;  // row order, mini-batch and update scratch: table_gan.cc

  /// Writes the model, plus the training section when `train` is
  /// non-null, into `*out` (cleared, capacity kept) in format v6 without
  /// the CRC footer: the one list of what a checkpoint holds. SaveImpl
  /// writes these bytes to disk; the divergence guard keeps them in
  /// memory as its last-good snapshot.
  void Serialize(TrainingState* train, std::string* out) const;
  Status SaveImpl(const std::string& path, TrainingState* train) const;

  /// Restores a training section into this partially initialized model
  /// from the checkpoint file at `path`, or, when `snapshot` is non-null,
  /// from Serialize's bytes (`path` then only names them in errors).
  /// Rejects sources whose options, schema or normalizer bounds do not
  /// match the current run.
  Status RestoreTrainingState(const std::string& path, TrainingState* train,
                              const std::string* snapshot = nullptr);

  /// Fit's stages after validation: fit the record encoding and build the
  /// networks; train one epoch over the shuffled rows, timed into `*m`;
  /// after a guard trigger on `epoch` (1-based), restore `last_good`,
  /// write the auto-checkpoint, then arm a retry (OK) or halt with the
  /// model fitted.
  Status SetUpModel(const data::TableView& table);
  void RunEpoch(const data::TableView& table, TrainingState* state,
                Batch* batch, EpochStats* stats, TrainingMetrics* m);
  Status HandleDivergence(const std::string& last_good, int epoch,
                          const std::string& anomaly, TrainingState* state);

  /// One mini-batch of Algorithm 2: encode the real rows (line 6), then
  /// one optimizer step each for D (line 8), C (line 9) and G (lines
  /// 10-14), each adding its loss terms to `*stats`. FillLatent draws the
  /// latent input, with the real rows' label cells on a conditional
  /// model; WganCriticGradients is kWganGp's critic loss and gradients.
  void AssembleBatch(const data::TableView& table, const int64_t* rows,
                     int64_t n, Batch* batch) const;
  void FillLatent(Batch* batch);
  void UpdateDiscriminator(TrainingState* state, Batch* batch,
                           EpochStats* stats);
  float WganCriticGradients(TrainingState* state, const Tensor& fake,
                            Batch* batch);
  void UpdateClassifier(TrainingState* state, Batch* batch,
                        EpochStats* stats);
  void UpdateGenerator(TrainingState* state, Batch* batch, EpochStats* stats);

  /// Zeroes every label cell of every record matrix — remove(.) in Eq. 5.
  /// Writes the masked copy into `*out` (resized as needed).
  void RemoveLabelInto(const Tensor& matrices, Tensor* out) const;

  /// Shared core of Sample, SampleRange and SampleConditional: decodes
  /// rows [first, first + n) of the latent stream keyed by `stream_seed`
  /// (already domain-tagged) into a table. Requires n >= 1. On a
  /// conditional model the generator input of each row is its latent
  /// vector plus one conditioning cell per label column; `fixed_label`,
  /// when non-null, pins the primary label to that (canonicalized)
  /// level, while remaining labels draw from their training frequencies
  /// on the row's own substream.
  Result<data::Table> GenerateRows(uint64_t stream_seed, uint64_t first,
                                   int64_t n,
                                   const double* fixed_label = nullptr) const;

  /// The five networks in checkpoint order: generator, discriminator
  /// features and head, classifier features and head.
  std::array<nn::Sequential*, 5> Networks() const {
    return {generator_.get(), discriminator_.features.get(),
            discriminator_.head.get(), classifier_.features.get(),
            classifier_.head.get()};
  }

  /// Width of the conditioning vector appended to the latent input: one
  /// cell per label column when options.conditional, else 0.
  int cond_dim() const {
    return options_.conditional ? static_cast<int>(label_cols_.size()) : 0;
  }

  /// Encoded-record cell index of label column j (== the column itself
  /// when every column is min-max).
  int64_t label_cell(int j) const {
    return normalizer_.column_offset(label_cols_[static_cast<size_t>(j)]);
  }

  TableGanOptions options_;
  bool fitted_ = false;
  int side_ = 0;
  std::vector<int> label_cols_;

  /// Shape-keyed buffer pool for the training step (null when
  /// options.reuse_workspace is false). Declared before the networks so
  /// it is destroyed after them: layers may hold pooled tensors, and a
  /// pooled tensor must not outlive its pool.
  std::unique_ptr<Workspace> ws_;

  data::Schema schema_;
  data::RecordNormalizer normalizer_;
  std::unique_ptr<data::RecordMatrixCodec> codec_;

  /// Conditional-model label vocabulary, one entry per label column:
  /// sorted distinct training values and their empirical frequencies.
  /// SampleConditional validates requested labels against the primary
  /// column's levels; unpinned label columns draw levels from these
  /// frequencies. Serialized since format v6. Empty when
  /// !options.conditional.
  std::vector<std::vector<double>> label_levels_;
  std::vector<std::vector<double>> label_level_freqs_;

  std::unique_ptr<nn::Sequential> generator_;
  TwoPartNet discriminator_;
  TwoPartNet classifier_;
  Rng rng_{47};

  /// Stream seed for Sample's per-row latent substreams, derived from
  /// options.seed; row i of a call draws from
  /// Rng(MixSeeds(sample_stream_seed_, sample_rows_emitted_ + i)).
  uint64_t sample_stream_seed_ = 0;
  /// Rows emitted by prior Sample calls. Serialized (with the stream
  /// seed) since format v4, so a saved-and-reloaded model continues the
  /// sampling stream exactly where it left off instead of replaying rows.
  /// Version-3 files default both fields from options.seed / 0.
  uint64_t sample_rows_emitted_ = 0;

  std::vector<EpochStats> history_;
};

}  // namespace core
}  // namespace tablegan

#endif  // TABLEGAN_CORE_TABLE_GAN_H_
