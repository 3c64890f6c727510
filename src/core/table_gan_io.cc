// Binary persistence for trained table-GAN models (TableGan::Save /
// TableGan::Load), mid-training checkpoints and the divergence guard's
// in-memory last-good snapshot. DESIGN.md §9 lists the fields.
//
// TableGan::Serialize writes format v6: magic "TGAN0006", the model
// section, then an optional training section. Files add a CRC-32 footer
// over everything before it, are written to a temp name and renamed into
// place so a crash mid-write never leaves a half-written file, and are
// CRC-checked before a single field is parsed. Readers also accept v5
// (no encoding/conditioning section), v4 (additionally no loss-mode or
// guard fields) and v3 (additionally no sampling-stream counters or Adam
// powers); committed fixtures under tests/data/ pin those readers.

#include <fcntl.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string_view>

#include "common/crc32.h"
#include "common/failpoint.h"
#include "common/io_retry.h"
#include "core/table_gan.h"
#include "core/training_state.h"
#include "nn/optimizer.h"
#include "nn/spectral_norm.h"

namespace tablegan {
namespace core {
namespace {

constexpr char kMagicPrefix[4] = {'T', 'G', 'A', 'N'};
constexpr char kMagicV3[8] = {'T', 'G', 'A', 'N', '0', '0', '0', '3'};
constexpr char kMagicV4[8] = {'T', 'G', 'A', 'N', '0', '0', '0', '4'};
constexpr char kMagicV5[8] = {'T', 'G', 'A', 'N', '0', '0', '0', '5'};
constexpr char kMagicV6[8] = {'T', 'G', 'A', 'N', '0', '0', '0', '6'};
constexpr size_t kMagicSize = sizeof(kMagicV4);
constexpr size_t kFooterSize = sizeof(uint32_t);

// --- primitive writers/readers (little-endian host assumed; the format
// is a cache, not an interchange format). Writers append to one string,
// so the guard's snapshot buffer keeps its capacity across epochs.

template <typename T>
void WritePod(std::string& out, T v) {
  out.append(reinterpret_cast<const char*>(&v), sizeof(v));
}

void WriteI64(std::string& out, int64_t v) { WritePod(out, v); }
void WriteU64(std::string& out, uint64_t v) { WritePod(out, v); }
void WriteF32(std::string& out, float v) { WritePod(out, v); }
void WriteF64(std::string& out, double v) { WritePod(out, v); }

void WriteString(std::string& out, const std::string& s) {
  WriteI64(out, static_cast<int64_t>(s.size()));
  out.append(s);
}

void WriteTensor(std::string& out, const Tensor& t) {
  WriteI64(out, t.rank());
  for (int64_t d : t.shape()) WriteI64(out, d);
  out.append(reinterpret_cast<const char*>(t.data()),
             static_cast<size_t>(t.size()) * sizeof(float));
}

// Bounds-checked cursor over serialized bytes; every read past the end
// fails.
class Reader {
 public:
  explicit Reader(std::string_view bytes) : bytes_(bytes) {}
  bool Read(void* dst, size_t n) {
    if (n > bytes_.size() - pos_) return false;
    std::memcpy(dst, bytes_.data() + pos_, n);
    pos_ += n;
    return true;
  }

 private:
  std::string_view bytes_;
  size_t pos_ = 0;
};

bool ReadI64(Reader& in, int64_t* v) { return in.Read(v, sizeof(*v)); }
bool ReadU64(Reader& in, uint64_t* v) { return in.Read(v, sizeof(*v)); }
bool ReadF32(Reader& in, float* v) { return in.Read(v, sizeof(*v)); }
bool ReadF64(Reader& in, double* v) { return in.Read(v, sizeof(*v)); }

bool ReadString(Reader& in, std::string* s) {
  int64_t n = 0;
  if (!ReadI64(in, &n) || n < 0 || n > (1 << 20)) return false;
  s->resize(static_cast<size_t>(n));
  return in.Read(s->data(), static_cast<size_t>(n));
}

// Reads a tensor into `*t`, which must already have the expected shape
// (the architecture is rebuilt from options before loading weights).
bool ReadTensorInto(Reader& in, Tensor* t) {
  int64_t rank = 0;
  if (!ReadI64(in, &rank) || rank != t->rank()) return false;
  for (int i = 0; i < t->rank(); ++i) {
    int64_t d = 0;
    if (!ReadI64(in, &d) || d != t->dim(i)) return false;
  }
  return in.Read(t->data(), static_cast<size_t>(t->size()) * sizeof(float));
}

std::vector<Tensor*> AllState(nn::Sequential* net) {
  std::vector<Tensor*> out = net->Parameters();
  for (Tensor* b : net->Buffers()) out.push_back(b);
  return out;
}

bool ReadNet(Reader& in, nn::Sequential* net) {
  for (Tensor* t : AllState(net)) {
    if (!ReadTensorInto(in, t)) return false;
  }
  return true;
}

// Writes `payload` (which must already end with its CRC footer) to a
// temp file next to `path`, then renames it into place.
//
// Failpoint sites (tests force each failure shape and assert the
// target file is never torn): checkpoint.open_write, one bit flipped
// mid-payload (checkpoint.corrupt_byte — the readers' CRC must catch
// it), a short write (checkpoint.short_write), and a failed rename
// (checkpoint.rename).
Status AtomicWriteFile(const std::string& path, std::string payload) {
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0 || TABLEGAN_FAILPOINT("checkpoint.open_write")) {
    // The open may have created an empty temp file before failing;
    // never leave it behind.
    if (fd >= 0) ::close(fd);
    std::remove(tmp.c_str());
    return Status::IOError("cannot open for write: " + tmp);
  }
  if (TABLEGAN_FAILPOINT("checkpoint.corrupt_byte")) {
    payload[payload.size() / 2] ^= 0x40;
  }
  size_t len = payload.size();
  const bool short_write = TABLEGAN_FAILPOINT("checkpoint.short_write");
  if (short_write) len /= 2;  // half the payload actually reaches disk
  // io::WriteFull retries EINTR and short write() returns — a SIGTERM
  // arriving mid-checkpoint (the daemon's shutdown path) must not tear
  // the file.
  const Status written = io::WriteFull(fd, payload.data(), len);
  ::close(fd);
  if (!written.ok() || short_write) {
    std::remove(tmp.c_str());
    return Status::IOError("write failed: " + tmp);
  }
  if (TABLEGAN_FAILPOINT("checkpoint.rename") ||
      std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::IOError("cannot rename " + tmp + " to " + path);
  }
  return Status::OK();
}

// Reads the whole file, checks magic, version and the CRC-32 footer.
// On success `*contents` holds the full file, `*version` the on-disk
// format version (3 to 6), and `*body` views the bytes between the magic
// and the footer.
Status ReadVerifiedFile(const std::string& path, std::string* contents,
                        std::string_view* body, int* version) {
  if (TABLEGAN_FAILPOINT("checkpoint.open_read")) {
    return Status::IOError("cannot open for read: " + path);
  }
  // EINTR-safe whole-file read: an interrupted read() resumes instead
  // of reporting a spurious corrupt checkpoint.
  TABLEGAN_ASSIGN_OR_RETURN(*contents, io::ReadWholeFile(path));
  if (TABLEGAN_FAILPOINT("checkpoint.truncate_read")) {
    // Simulates a partial read / concurrently truncated file; the magic
    // and CRC checks below must reject whatever half survives.
    contents->resize(contents->size() / 2);
  }
  if (contents->size() < kMagicSize + kFooterSize ||
      std::memcmp(contents->data(), kMagicPrefix, sizeof(kMagicPrefix)) !=
          0) {
    return Status::InvalidArgument("not a table-GAN model file: " + path);
  }
  if (std::memcmp(contents->data(), kMagicV6, kMagicSize) == 0) {
    *version = 6;
  } else if (std::memcmp(contents->data(), kMagicV5, kMagicSize) == 0) {
    *version = 5;
  } else if (std::memcmp(contents->data(), kMagicV4, kMagicSize) == 0) {
    *version = 4;
  } else if (std::memcmp(contents->data(), kMagicV3, kMagicSize) == 0) {
    *version = 3;
  } else {
    return Status::InvalidArgument(
        "unsupported model file version '" +
        contents->substr(sizeof(kMagicPrefix),
                         kMagicSize - sizeof(kMagicPrefix)) +
        "' (this build reads versions 0003-0006): " + path);
  }
  const size_t end = contents->size() - kFooterSize;
  uint32_t stored = 0;
  std::memcpy(&stored, contents->data() + end, kFooterSize);
  if (Crc32(contents->data(), end) != stored) {
    return Status::IOError("corrupt model file (CRC mismatch): " + path);
  }
  *body = std::string_view(*contents).substr(kMagicSize, end - kMagicSize);
  return Status::OK();
}

// The model-section header: everything before the network tensors.
struct Header {
  TableGanOptions options;
  int side = 0;
  std::vector<int> label_cols;
  data::Schema schema;
  std::vector<double> mins, maxs;
  std::vector<data::ColumnType> types;
  // Sampling-stream counters (v4+); v3 files leave has_stream false and
  // the loaded model starts a fresh stream from its options seed.
  bool has_stream = false;
  uint64_t sample_stream_seed = 0;
  uint64_t sample_rows_emitted = 0;
  // Record-encoding and conditioning section (v6+); pre-v6 files leave
  // the defaults: all-min-max specs, no mixtures, no label vocabulary.
  std::vector<data::ColumnNormalizerSpec> specs;
  std::vector<std::unique_ptr<data::GmmColumnNormalizer>> gmms;
  std::vector<std::vector<double>> label_levels;
  std::vector<std::vector<double>> label_level_freqs;
};

bool ReadHeader(Reader& in, int version, Header* h) {
  int64_t v = 0;
  float f = 0.0f;
  TableGanOptions& o = h->options;
  if (!ReadI64(in, &v)) return false;
  o.side = static_cast<int>(v);
  if (!ReadI64(in, &v)) return false;
  o.latent_dim = static_cast<int>(v);
  if (!ReadI64(in, &v)) return false;
  o.base_channels = static_cast<int>(v);
  if (!ReadI64(in, &v)) return false;
  o.batch_size = static_cast<int>(v);
  if (!ReadF32(in, &f)) return false;
  o.delta_mean = f;
  if (!ReadF32(in, &f)) return false;
  o.delta_sd = f;
  if (!ReadI64(in, &v)) return false;
  o.seed = static_cast<uint64_t>(v);
  if (!ReadF32(in, &o.learning_rate)) return false;
  if (!ReadF32(in, &o.adam_beta1)) return false;
  if (!ReadF32(in, &o.adam_beta2)) return false;
  if (!ReadF32(in, &o.ewma_weight)) return false;
  if (!ReadF32(in, &o.info_loss_weight)) return false;
  if (!ReadI64(in, &v)) return false;
  o.use_info_loss = v != 0;
  if (!ReadI64(in, &v)) return false;
  o.use_classifier = v != 0;

  if (!ReadI64(in, &v)) return false;
  h->side = static_cast<int>(v);
  int64_t num_labels = 0;
  if (!ReadI64(in, &num_labels) || num_labels < 1 || num_labels > 4096) {
    return false;
  }
  for (int64_t j = 0; j < num_labels; ++j) {
    if (!ReadI64(in, &v)) return false;
    h->label_cols.push_back(static_cast<int>(v));
  }

  int64_t num_cols = 0;
  if (!ReadI64(in, &num_cols) || num_cols <= 0 || num_cols > 65536) {
    return false;
  }
  for (int64_t c = 0; c < num_cols; ++c) {
    data::ColumnSpec spec;
    if (!ReadString(in, &spec.name)) return false;
    if (!ReadI64(in, &v)) return false;
    spec.type = static_cast<data::ColumnType>(v);
    if (!ReadI64(in, &v)) return false;
    spec.role = static_cast<data::ColumnRole>(v);
    int64_t num_cats = 0;
    if (!ReadI64(in, &num_cats) || num_cats < 0 || num_cats > 65536) {
      return false;
    }
    for (int64_t k = 0; k < num_cats; ++k) {
      std::string cat;
      if (!ReadString(in, &cat)) return false;
      spec.categories.push_back(std::move(cat));
    }
    h->types.push_back(spec.type);
    h->schema.AddColumn(std::move(spec));
  }

  h->mins.resize(static_cast<size_t>(num_cols));
  h->maxs.resize(static_cast<size_t>(num_cols));
  for (int64_t c = 0; c < num_cols; ++c) {
    if (!ReadF64(in, &h->mins[static_cast<size_t>(c)])) return false;
    if (!ReadF64(in, &h->maxs[static_cast<size_t>(c)])) return false;
  }
  if (version >= 4) {
    if (!ReadU64(in, &h->sample_stream_seed)) return false;
    if (!ReadU64(in, &h->sample_rows_emitted)) return false;
    h->has_stream = true;
  }
  if (version >= 5) {
    // Loss-mode and guardrail options. Pre-v5 files leave the defaults
    // set by TableGanOptions: DCGAN loss, fresh guard.
    if (!ReadI64(in, &v) || v < 0 || v > 2) return false;
    o.loss_mode = static_cast<LossMode>(v);
    if (!ReadF32(in, &o.gp_weight)) return false;
    if (!ReadF32(in, &o.sn_weight)) return false;
    if (!ReadI64(in, &v) || v < 1) return false;
    o.sn_power_iters = static_cast<int>(v);
    if (!ReadI64(in, &v) || v < 0 || v > 2) return false;
    o.divergence_action = static_cast<DivergenceAction>(v);
    if (!ReadF32(in, &o.guard_ewma_weight)) return false;
    if (!ReadF32(in, &o.guard_factor)) return false;
    if (!ReadI64(in, &v) || v < 0) return false;
    o.guard_warmup_epochs = static_cast<int>(v);
    if (!ReadI64(in, &v) || v < 0) return false;
    o.guard_max_rollbacks = static_cast<int>(v);
  }
  if (version >= 6) {
    // Record-encoding and conditioning section (DESIGN.md §16).
    if (!ReadI64(in, &v) || v < 0 || v > 1) return false;
    o.conditional = v != 0;
    if (!ReadI64(in, &v) || v < 1 || v > 64) return false;
    o.gmm_components = static_cast<int>(v);
    int64_t num_gmm = 0;
    if (!ReadI64(in, &num_gmm) || num_gmm < 0 || num_gmm > num_cols) {
      return false;
    }
    for (int64_t i = 0; i < num_gmm; ++i) {
      if (!ReadI64(in, &v) || v < 0 || v >= num_cols) return false;
      o.gmm_columns.push_back(static_cast<int>(v));
    }
    h->specs.resize(static_cast<size_t>(num_cols));
    h->gmms.resize(static_cast<size_t>(num_cols));
    for (int64_t c = 0; c < num_cols; ++c) {
      if (!ReadI64(in, &v) || v < 0 || v > 1) return false;
      data::ColumnNormalizerSpec& spec = h->specs[static_cast<size_t>(c)];
      spec.kind = static_cast<data::NormalizerKind>(v);
      if (spec.kind != data::NormalizerKind::kGmm) continue;
      if (!ReadI64(in, &v) || v < 1 || v > 64) return false;
      spec.components = static_cast<int>(v);
      double lo = 0.0, hi = 0.0;
      if (!ReadF64(in, &lo) || !ReadF64(in, &hi)) return false;
      int64_t num_comps = 0;
      if (!ReadI64(in, &num_comps) || num_comps < 1 || num_comps > 64) {
        return false;
      }
      std::vector<data::GmmComponent> comps(
          static_cast<size_t>(num_comps));
      for (data::GmmComponent& comp : comps) {
        if (!ReadF64(in, &comp.weight) || !ReadF64(in, &comp.mean) ||
            !ReadF64(in, &comp.sigma) || !ReadF64(in, &comp.halfwidth)) {
          return false;
        }
      }
      auto g = std::make_unique<data::GmmColumnNormalizer>();
      g->Restore(lo, hi, std::move(comps));
      h->gmms[static_cast<size_t>(c)] = std::move(g);
    }
    if (o.conditional) {
      for (int64_t j = 0; j < num_labels; ++j) {
        int64_t num_levels = 0;
        if (!ReadI64(in, &num_levels) || num_levels < 1 ||
            num_levels > 4096) {
          return false;
        }
        std::vector<double> levels(static_cast<size_t>(num_levels));
        std::vector<double> freqs(static_cast<size_t>(num_levels));
        for (int64_t t = 0; t < num_levels; ++t) {
          if (!ReadF64(in, &levels[static_cast<size_t>(t)]) ||
              !ReadF64(in, &freqs[static_cast<size_t>(t)])) {
            return false;
          }
        }
        h->label_levels.push_back(std::move(levels));
        h->label_level_freqs.push_back(std::move(freqs));
      }
    }
  }
  return true;
}

// Float-option equality for resume validation. Bit equality first so an
// unset NaN sentinel matches itself; the numeric fallback lets +0 and
// -0 compare equal. Comparing through an explicit f32 round-trip (the
// serialized precision) keeps a value like 0.995 — not representable in
// binary floating point — from failing the check should a field ever
// widen to double on the struct while staying f32 on disk.
bool SameF32(double a, double b) {
  const float fa = static_cast<float>(a);
  const float fb = static_cast<float>(b);
  uint32_t ua = 0, ub = 0;
  std::memcpy(&ua, &fa, sizeof(ua));
  std::memcpy(&ub, &fb, sizeof(ub));
  return ua == ub || fa == fb;
}

bool ReadAdam(Reader& in, int version, nn::Adam* adam) {
  int64_t t = 0;
  if (!ReadI64(in, &t) || t < 0) return false;
  // Recomputes the bias-correction powers from t; v4 then overwrites
  // them with the exact running products the writer carried.
  adam->set_step_count(t);
  if (version >= 4) {
    double p1 = 0.0, p2 = 0.0;
    if (!ReadF64(in, &p1) || !ReadF64(in, &p2)) return false;
    adam->set_bias_correction_powers(p1, p2);
  }
  for (Tensor* m : adam->MomentTensors()) {
    if (!ReadTensorInto(in, m)) return false;
  }
  return true;
}

void WriteAdam(std::string& out, nn::Adam& adam) {
  WriteI64(out, adam.step_count());
  WriteF64(out, adam.beta1_power());
  WriteF64(out, adam.beta2_power());
  for (Tensor* m : adam.MomentTensors()) WriteTensor(out, *m);
}

}  // namespace

void TableGan::Serialize(TrainingState* train, std::string* buffer) const {
  std::string& out = *buffer;
  out.clear();
  out.append(kMagicV6, kMagicSize);

  // Options: the fields that shape the architecture, sampling and the
  // training trajectory (resume validates all of them).
  WriteI64(out, options_.side);
  WriteI64(out, options_.latent_dim);
  WriteI64(out, options_.base_channels);
  WriteI64(out, options_.batch_size);
  WriteF32(out, options_.delta_mean);
  WriteF32(out, options_.delta_sd);
  WriteI64(out, static_cast<int64_t>(options_.seed));
  WriteF32(out, options_.learning_rate);
  WriteF32(out, options_.adam_beta1);
  WriteF32(out, options_.adam_beta2);
  WriteF32(out, options_.ewma_weight);
  WriteF32(out, options_.info_loss_weight);
  WriteI64(out, options_.use_info_loss ? 1 : 0);
  WriteI64(out, options_.use_classifier ? 1 : 0);
  WriteI64(out, side_);
  WriteI64(out, static_cast<int64_t>(label_cols_.size()));
  for (int col : label_cols_) WriteI64(out, col);

  // Schema.
  WriteI64(out, schema_.num_columns());
  for (int c = 0; c < schema_.num_columns(); ++c) {
    const data::ColumnSpec& spec = schema_.column(c);
    WriteString(out, spec.name);
    WriteI64(out, static_cast<int64_t>(spec.type));
    WriteI64(out, static_cast<int64_t>(spec.role));
    WriteI64(out, spec.num_categories());
    for (const std::string& cat : spec.categories) WriteString(out, cat);
  }

  // Normalizer bounds.
  for (int c = 0; c < schema_.num_columns(); ++c) {
    WriteF64(out, normalizer_.minmax().mins()[static_cast<size_t>(c)]);
    WriteF64(out, normalizer_.minmax().maxs()[static_cast<size_t>(c)]);
  }

  // Sampling-stream counters (v4+): a reloaded model continues Sample's
  // counter-derived substreams where this one left off.
  WriteU64(out, sample_stream_seed_);
  WriteU64(out, sample_rows_emitted_);

  // Loss-mode and guardrail options (v5+).
  WriteI64(out, static_cast<int64_t>(options_.loss_mode));
  WriteF32(out, options_.gp_weight);
  WriteF32(out, options_.sn_weight);
  WriteI64(out, options_.sn_power_iters);
  WriteI64(out, static_cast<int64_t>(options_.divergence_action));
  WriteF32(out, options_.guard_ewma_weight);
  WriteF32(out, options_.guard_factor);
  WriteI64(out, options_.guard_warmup_epochs);
  WriteI64(out, options_.guard_max_rollbacks);

  // Record-encoding and conditioning section (v6).
  WriteI64(out, options_.conditional ? 1 : 0);
  WriteI64(out, options_.gmm_components);
  WriteI64(out, static_cast<int64_t>(options_.gmm_columns.size()));
  for (int c : options_.gmm_columns) WriteI64(out, c);
  const std::vector<data::ColumnNormalizerSpec>& specs = normalizer_.specs();
  for (int c = 0; c < schema_.num_columns(); ++c) {
    const data::NormalizerKind kind =
        specs.empty() ? data::NormalizerKind::kMinMax
                      : specs[static_cast<size_t>(c)].kind;
    WriteI64(out, static_cast<int64_t>(kind));
    if (kind != data::NormalizerKind::kGmm) continue;
    const data::GmmColumnNormalizer* g = normalizer_.gmm(c);
    WriteI64(out, specs[static_cast<size_t>(c)].components);
    WriteF64(out, g->lo());
    WriteF64(out, g->hi());
    WriteI64(out, g->num_components());
    for (const data::GmmComponent& comp : g->components()) {
      WriteF64(out, comp.weight);
      WriteF64(out, comp.mean);
      WriteF64(out, comp.sigma);
      WriteF64(out, comp.halfwidth);
    }
  }
  if (options_.conditional) {
    for (size_t j = 0; j < label_cols_.size(); ++j) {
      const std::vector<double>& levels = label_levels_[j];
      const std::vector<double>& freqs = label_level_freqs_[j];
      WriteI64(out, static_cast<int64_t>(levels.size()));
      for (size_t t = 0; t < levels.size(); ++t) {
        WriteF64(out, levels[t]);
        WriteF64(out, freqs[t]);
      }
    }
  }

  // Network state.
  for (nn::Sequential* net : Networks()) {
    for (Tensor* t : AllState(net)) WriteTensor(out, *t);
  }

  // Training section (mid-training checkpoints and the guard's snapshot).
  WriteI64(out, train != nullptr ? 1 : 0);
  if (train != nullptr) {
    WriteI64(out, train->epochs_completed);
    const Rng::State rs = rng_.state();
    for (uint64_t s : rs.s) WriteU64(out, s);
    WriteI64(out, rs.has_cached_gaussian ? 1 : 0);
    WriteF64(out, rs.cached_gaussian);
    WriteAdam(out, train->adam_g);
    WriteAdam(out, train->adam_d);
    WriteAdam(out, train->adam_c);
    WriteI64(out, train->info.initialized() ? 1 : 0);
    for (Tensor* t : train->info.EwmaTensors()) WriteTensor(out, *t);
    // Divergence-guard state, rollback budget spent, and the spectral-norm
    // power-iteration vectors (u then v per bound weight, binding order).
    WriteF64(out, train->guard.ewma());
    WriteF64(out, train->guard.baseline());
    WriteI64(out, train->guard.observed_epochs());
    WriteI64(out, train->rollbacks_used);
    std::vector<Tensor*> sn_state;
    if (train->sn != nullptr) sn_state = train->sn->StateTensors();
    WriteI64(out, static_cast<int64_t>(sn_state.size()));
    for (Tensor* t : sn_state) WriteTensor(out, *t);
    WriteI64(out, static_cast<int64_t>(history_.size()));
    for (const EpochStats& s : history_) {
      WriteF32(out, s.d_loss);
      WriteF32(out, s.g_orig_loss);
      WriteF32(out, s.info_loss);
      WriteF32(out, s.class_loss);
      WriteF32(out, s.l_mean);
      WriteF32(out, s.l_sd);
    }
  }
}

Status TableGan::SaveImpl(const std::string& path,
                          TrainingState* train) const {
  std::string payload;
  Serialize(train, &payload);
  WritePod(payload, Crc32(payload.data(), payload.size()));
  return AtomicWriteFile(path, std::move(payload));
}

Status TableGan::Save(const std::string& path) const {
  if (!fitted_) return Status::FailedPrecondition("Save before Fit");
  return SaveImpl(path, nullptr);
}

Result<TableGan> TableGan::Load(const std::string& path) {
  std::string contents;
  std::string_view body;
  int version = 0;
  TABLEGAN_RETURN_NOT_OK(ReadVerifiedFile(path, &contents, &body, &version));
  Reader in(body);
  const auto corrupt = [&path]() {
    return Status::IOError("corrupt model file: " + path);
  };

  Header h;
  if (!ReadHeader(in, version, &h)) return corrupt();

  TableGan gan(h.options);
  gan.side_ = h.side;
  gan.label_cols_ = h.label_cols;
  gan.schema_ = h.schema;
  gan.normalizer_.Restore(std::move(h.mins), std::move(h.maxs),
                          std::move(h.types), std::move(h.specs),
                          std::move(h.gmms));
  gan.label_levels_ = std::move(h.label_levels);
  gan.label_level_freqs_ = std::move(h.label_level_freqs);
  // The codec spans the encoded record, which GMM columns widen beyond
  // the schema width (pre-v6 files: encoded_width == num_columns).
  gan.codec_ = std::make_unique<data::RecordMatrixCodec>(
      gan.normalizer_.encoded_width(), gan.side_);
  if (h.has_stream) {
    // Continue the saved sampling stream instead of replaying it (v3
    // files fall back to a fresh stream seeded from the options).
    gan.sample_stream_seed_ = h.sample_stream_seed;
    gan.sample_rows_emitted_ = h.sample_rows_emitted;
  }

  // Rebuild the architecture, then overwrite its state. (The training
  // section, if present, is ignored here: a checkpoint is a superset of
  // a model file and loads as one.)
  Rng init_rng(h.options.seed);
  gan.generator_ =
      BuildGenerator(gan.side_, h.options.latent_dim + gan.cond_dim(),
                     h.options.base_channels, &init_rng);
  gan.discriminator_ =
      BuildDiscriminator(gan.side_, h.options.base_channels, &init_rng);
  gan.classifier_ =
      BuildDiscriminator(gan.side_, h.options.base_channels, &init_rng,
                         static_cast<int>(gan.label_cols_.size()));
  for (nn::Sequential* net : gan.Networks()) {
    if (!ReadNet(in, net)) return corrupt();
  }
  int64_t has_training = 0;
  if (!ReadI64(in, &has_training)) return corrupt();
  gan.fitted_ = true;
  return gan;
}

Status TableGan::RestoreTrainingState(const std::string& path,
                                      TrainingState* train,
                                      const std::string* snapshot) {
  std::string contents;
  std::string_view body;
  int version = 6;  // what Serialize writes
  if (snapshot != nullptr) {
    body = std::string_view(*snapshot).substr(kMagicSize);
  } else {
    TABLEGAN_RETURN_NOT_OK(
        ReadVerifiedFile(path, &contents, &body, &version));
  }
  Reader in(body);
  const auto corrupt = [&path]() {
    return Status::IOError("corrupt checkpoint file: " + path);
  };
  const auto mismatch = [&path](const std::string& what) {
    return Status::InvalidArgument("cannot resume from " + path +
                                   ": checkpoint " + what +
                                   " does not match the current run");
  };

  Header h;
  if (!ReadHeader(in, version, &h)) return corrupt();

  // Resuming replays the exact stream an uninterrupted run would take,
  // so every numerics-affecting option must match.
  const TableGanOptions& o = h.options;
  if (o.side != options_.side || o.latent_dim != options_.latent_dim ||
      o.base_channels != options_.base_channels ||
      o.batch_size != options_.batch_size || o.seed != options_.seed) {
    return mismatch("architecture options");
  }
  // Float options are compared through SameF32, never raw `==`/`!=`:
  // the on-disk representation is f32, and the comparison must be
  // against what survives that round trip (and an unset NaN must match
  // itself).
  if (!SameF32(o.learning_rate, options_.learning_rate) ||
      !SameF32(o.adam_beta1, options_.adam_beta1) ||
      !SameF32(o.adam_beta2, options_.adam_beta2) ||
      !SameF32(o.ewma_weight, options_.ewma_weight) ||
      !SameF32(o.info_loss_weight, options_.info_loss_weight) ||
      !SameF32(o.delta_mean, options_.delta_mean) ||
      !SameF32(o.delta_sd, options_.delta_sd) ||
      o.use_info_loss != options_.use_info_loss ||
      o.use_classifier != options_.use_classifier) {
    return mismatch("training options");
  }
  // v4 checkpoints carry no stability section; resuming them under a
  // non-default loss mode would silently switch objectives mid-run, so
  // the defaults ReadHeader leaves in place must match too.
  if (o.loss_mode != options_.loss_mode ||
      !SameF32(o.gp_weight, options_.gp_weight) ||
      !SameF32(o.sn_weight, options_.sn_weight) ||
      o.sn_power_iters != options_.sn_power_iters ||
      o.divergence_action != options_.divergence_action ||
      !SameF32(o.guard_ewma_weight, options_.guard_ewma_weight) ||
      !SameF32(o.guard_factor, options_.guard_factor) ||
      o.guard_warmup_epochs != options_.guard_warmup_epochs ||
      o.guard_max_rollbacks != options_.guard_max_rollbacks) {
    return mismatch("training-stability options");
  }
  // The record encoding and conditioning setup shape the generator
  // input and the codec width; resuming across a change would replay a
  // different architecture.
  if (o.conditional != options_.conditional ||
      o.gmm_components != options_.gmm_components ||
      o.gmm_columns != options_.gmm_columns) {
    return mismatch("conditional/GMM options");
  }
  if (h.side != side_) return mismatch("matrix side");
  if (h.label_cols != label_cols_) return mismatch("label columns");
  if (!h.schema.Equals(schema_)) return mismatch("schema");
  if (h.mins != normalizer_.minmax().mins() ||
      h.maxs != normalizer_.minmax().maxs()) {
    return mismatch("normalizer bounds (different training table?)");
  }
  if (version >= 6) {
    // The fitted mixtures are a deterministic function of the training
    // table and options, so any drift means a different table.
    for (int c = 0; c < schema_.num_columns(); ++c) {
      const data::GmmColumnNormalizer* mine = normalizer_.gmm(c);
      const data::GmmColumnNormalizer* theirs =
          h.gmms.empty() ? nullptr : h.gmms[static_cast<size_t>(c)].get();
      if ((mine == nullptr) != (theirs == nullptr)) {
        return mismatch("GMM column selection");
      }
      if (mine == nullptr) continue;
      bool equal = mine->lo() == theirs->lo() &&
                   mine->hi() == theirs->hi() &&
                   mine->num_components() == theirs->num_components();
      for (int m = 0; equal && m < mine->num_components(); ++m) {
        const data::GmmComponent& a =
            mine->components()[static_cast<size_t>(m)];
        const data::GmmComponent& b =
            theirs->components()[static_cast<size_t>(m)];
        equal = a.weight == b.weight && a.mean == b.mean &&
                a.sigma == b.sigma && a.halfwidth == b.halfwidth;
      }
      if (!equal) {
        return mismatch("GMM parameters (different training table?)");
      }
    }
    if (options_.conditional && (h.label_levels != label_levels_ ||
                                 h.label_level_freqs != label_level_freqs_)) {
      return mismatch("label vocabulary (different training table?)");
    }
  }
  if (h.has_stream) {
    sample_stream_seed_ = h.sample_stream_seed;
    sample_rows_emitted_ = h.sample_rows_emitted;
  }

  for (nn::Sequential* net : Networks()) {
    if (!ReadNet(in, net)) return corrupt();
  }

  int64_t has_training = 0;
  if (!ReadI64(in, &has_training)) return corrupt();
  if (has_training != 1) {
    return Status::InvalidArgument(
        "cannot resume from " + path +
        ": file is a final model without a training section");
  }
  int64_t v = 0;
  if (!ReadI64(in, &v) || v < 0) return corrupt();
  train->epochs_completed = static_cast<int>(v);
  Rng::State rs;
  for (uint64_t& s : rs.s) {
    if (!ReadU64(in, &s)) return corrupt();
  }
  if (!ReadI64(in, &v)) return corrupt();
  rs.has_cached_gaussian = v != 0;
  if (!ReadF64(in, &rs.cached_gaussian)) return corrupt();
  rng_.set_state(rs);
  if (!ReadAdam(in, version, &train->adam_g) ||
      !ReadAdam(in, version, &train->adam_d) ||
      !ReadAdam(in, version, &train->adam_c)) {
    return corrupt();
  }
  if (!ReadI64(in, &v)) return corrupt();
  train->info.set_initialized(v != 0);
  for (Tensor* t : train->info.EwmaTensors()) {
    if (!ReadTensorInto(in, t)) return corrupt();
  }
  if (version >= 5) {
    double ewma = 0.0, baseline = 0.0;
    int64_t observed = 0;
    if (!ReadF64(in, &ewma) || !ReadF64(in, &baseline) ||
        !ReadI64(in, &observed) || observed < 0) {
      return corrupt();
    }
    train->guard.Restore(ewma, baseline, observed);
    if (!ReadI64(in, &train->rollbacks_used) || train->rollbacks_used < 0) {
      return corrupt();
    }
    std::vector<Tensor*> sn_state;
    if (train->sn != nullptr) sn_state = train->sn->StateTensors();
    if (!ReadI64(in, &v) || v != static_cast<int64_t>(sn_state.size())) {
      // loss_mode was validated equal above, so a count mismatch means
      // a corrupt file, not a mode change.
      return corrupt();
    }
    for (Tensor* t : sn_state) {
      if (!ReadTensorInto(in, t)) return corrupt();
    }
  }
  int64_t num_epochs = 0;
  if (!ReadI64(in, &num_epochs) || num_epochs < 0 ||
      num_epochs < train->epochs_completed || num_epochs > (1 << 24)) {
    return corrupt();
  }
  history_.clear();
  history_.reserve(static_cast<size_t>(num_epochs));
  for (int64_t i = 0; i < num_epochs; ++i) {
    EpochStats s;
    if (!ReadF32(in, &s.d_loss) || !ReadF32(in, &s.g_orig_loss) ||
        !ReadF32(in, &s.info_loss) || !ReadF32(in, &s.class_loss) ||
        !ReadF32(in, &s.l_mean) || !ReadF32(in, &s.l_sd)) {
      return corrupt();
    }
    history_.push_back(s);
  }
  return Status::OK();
}

}  // namespace core
}  // namespace tablegan
