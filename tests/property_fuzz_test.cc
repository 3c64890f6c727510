// Seeded property tests over the full pipeline (ISSUE: property-based
// test harness). Each invariant runs >= 100 generated cases in the quick
// ctest configuration; failures print a TABLEGAN_PROP_SEED reproduction
// command (see tests/proptest.h).

#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/random.h"
#include "core/table_gan.h"
#include "data/csv.h"
#include "data/normalizer.h"
#include "data/record_matrix.h"
#include "data/table.h"
#include "proptest.h"
#include "tensor/kernels/kernels.h"

namespace tablegan {
namespace {

using testing_util::ForAllSeeds;
using testing_util::ForAllTables;
using testing_util::RandomPropertyTable;
using testing_util::SchemaGenOptions;

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

std::string CompareTablesBitwise(const data::Table& a, const data::Table& b) {
  if (a.num_rows() != b.num_rows()) {
    return "row count " + std::to_string(a.num_rows()) + " vs " +
           std::to_string(b.num_rows());
  }
  if (a.num_columns() != b.num_columns()) {
    return "column count " + std::to_string(a.num_columns()) + " vs " +
           std::to_string(b.num_columns());
  }
  for (int c = 0; c < a.num_columns(); ++c) {
    for (int64_t r = 0; r < a.num_rows(); ++r) {
      if (!SameBits(a.Get(r, c), b.Get(r, c))) {
        std::ostringstream os;
        os.precision(17);
        os << "cell (" << r << ", " << c << "): " << a.Get(r, c) << " vs "
           << b.Get(r, c);
        return os.str();
      }
    }
  }
  return "";
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

/// CSV write -> read is the identity on tables whose cells are
/// representable (finite doubles, valid category codes) — including
/// column names and category levels containing commas, quotes, line
/// breaks and non-ASCII text, and cell values at the extremes of the
/// double range (max magnitude, subnormals, signed zeros).
TEST(PropertyFuzz, CsvRoundTripIsIdentity) {
  const std::string path = "property_fuzz_csv.tmp";
  ForAllTables(
      "CsvRoundTripIsIdentity", 0xC5F1ULL, /*max_rows=*/64,
      [](uint64_t seed, int64_t rows) {
        return RandomPropertyTable(seed, rows);
      },
      [&](const data::Table& t) -> std::string {
        Status w = data::WriteCsv(t, path);
        if (!w.ok()) return "WriteCsv: " + w.ToString();
        Result<data::Table> back = data::ReadCsv(t.schema(), path);
        std::remove(path.c_str());
        if (!back.ok()) return "ReadCsv: " + back.status().ToString();
        return CompareTablesBitwise(t, *back);
      });
}

/// Normalize -> denormalize recovers every cell: exactly for discrete
/// and categorical columns (their spans keep the float32 encoding error
/// below the rounding radius), within a span-relative tolerance for
/// continuous columns — and always finitely, even for columns spanning
/// (nearly) the whole double range, where hi - lo overflows to inf.
TEST(PropertyFuzz, NormalizeDenormalizeRoundTrips) {
  ForAllTables(
      "NormalizeDenormalizeRoundTrips", 0x11F0ULL, /*max_rows=*/96,
      [](uint64_t seed, int64_t rows) {
        return RandomPropertyTable(seed, rows);
      },
      [](const data::Table& t) -> std::string {
        data::MinMaxNormalizer norm;
        Status f = norm.Fit(t);
        if (!f.ok()) return "Fit: " + f.ToString();
        Result<Tensor> enc = norm.Transform(t);
        if (!enc.ok()) return "Transform: " + enc.status().ToString();
        for (int64_t i = 0; i < enc->size(); ++i) {
          if (!std::isfinite((*enc)[i])) {
            return "non-finite encoding at flat index " + std::to_string(i);
          }
        }
        Result<data::Table> back = norm.InverseTransform(*enc, t.schema());
        if (!back.ok()) {
          return "InverseTransform: " + back.status().ToString();
        }
        for (int c = 0; c < t.num_columns(); ++c) {
          // Overflow-safe half-span: hi - lo itself can be inf.
          const double half_span =
              0.5 * norm.column_max(c) - 0.5 * norm.column_min(c);
          const bool continuous = t.schema().column(c).type ==
                                  data::ColumnType::kContinuous;
          const double tol = 1e-5 * half_span + 1e-9;
          for (int64_t r = 0; r < t.num_rows(); ++r) {
            const double orig = t.Get(r, c);
            const double got = back->Get(r, c);
            if (!std::isfinite(got)) {
              return "non-finite decode at (" + std::to_string(r) + ", " +
                     std::to_string(c) + ")";
            }
            const bool ok = continuous ? std::abs(got - orig) <= tol
                                       : got == orig;
            if (!ok) {
              std::ostringstream os;
              os.precision(17);
              os << "cell (" << r << ", " << c << "): " << orig << " -> "
                 << got << " (tol " << tol << ")";
              return os.str();
            }
          }
        }
        return "";
      });
}

/// Record <-> matrix reshaping is a bijection on the record cells, and
/// every padding cell of the matrix form is exactly zero.
TEST(PropertyFuzz, RecordMatrixCodecIsBijective) {
  ForAllSeeds("RecordMatrixCodecIsBijective", 0xC0DE4ULL,
              [](uint64_t seed) -> std::string {
                Rng rng(seed);
                const int a = static_cast<int>(rng.UniformInt(1, 64));
                const int64_t n = rng.UniformInt(1, 16);
                const int side = data::RecordMatrixCodec::ChooseSide(a);
                data::RecordMatrixCodec codec(a, side);
                Tensor records({n, a});
                for (int64_t i = 0; i < records.size(); ++i) {
                  records[i] = static_cast<float>(rng.Uniform(-1.0, 1.0));
                }
                Result<Tensor> mats = codec.ToMatrices(records);
                if (!mats.ok()) {
                  return "ToMatrices: " + mats.status().ToString();
                }
                const int cells = side * side;
                for (int64_t i = 0; i < n; ++i) {
                  for (int j = a; j < cells; ++j) {
                    if ((*mats)[i * cells + j] != 0.0f) {
                      return "non-zero padding cell " + std::to_string(j) +
                             " of record " + std::to_string(i);
                    }
                  }
                }
                Result<Tensor> back = codec.FromMatrices(*mats);
                if (!back.ok()) {
                  return "FromMatrices: " + back.status().ToString();
                }
                for (int64_t i = 0; i < records.size(); ++i) {
                  if ((*back)[i] != records[i]) {
                    return "record cell " + std::to_string(i) +
                           " not recovered";
                  }
                }
                return "";
              });
}

/// A labelled random table plus randomized tiny-model hyper-parameters
/// for the two training-based invariants below. Everything derives from
/// the case seed.
struct TrainSetup {
  data::Table table;
  core::TableGanOptions options;
  int label_col = 0;
};

TrainSetup MakeTrainSetup(uint64_t seed) {
  SchemaGenOptions schema_opt;
  schema_opt.min_columns = 2;
  schema_opt.max_columns = 8;
  schema_opt.with_label = true;
  Rng rng(MixSeeds(seed, 0x7247ULL));
  const int64_t rows = 8 + static_cast<int64_t>(rng.UniformInt(0, 24));
  TrainSetup s{RandomPropertyTable(seed, rows, schema_opt),
               core::TableGanOptions(), 0};
  s.label_col = s.table.num_columns() - 1;
  // Guarantee both label classes are present for the classifier head.
  for (int64_t r = 0; r < s.table.num_rows(); ++r) {
    s.table.Set(r, s.label_col, static_cast<double>(r % 2));
  }
  s.options.latent_dim = 4;
  s.options.base_channels = 4;
  s.options.epochs = 1;
  s.options.batch_size = static_cast<int>(rng.UniformInt(4, 15));
  s.options.use_info_loss = rng.NextBool(0.5);
  s.options.use_classifier = rng.NextBool(0.5);
  s.options.num_threads = 1;
  s.options.seed = seed;
  s.options.verbose = false;
  return s;
}

/// Save -> Load -> Save reproduces the checkpoint file byte for byte,
/// and the reloaded model's sampling stream continues bitwise
/// identically to the original's.
TEST(PropertyFuzz, CheckpointSaveLoadIsBitwiseIdentity) {
  const std::string p1 = "property_fuzz_ckpt1.tgan";
  const std::string p2 = "property_fuzz_ckpt2.tgan";
  ForAllSeeds(
      "CheckpointSaveLoadIsBitwiseIdentity", 0xCC01ULL,
      [&](uint64_t seed) -> std::string {
        TrainSetup s = MakeTrainSetup(seed);
        core::TableGan gan(s.options);
        Status fit = gan.Fit(s.table, s.label_col);
        if (!fit.ok()) return "Fit: " + fit.ToString();
        Status save = gan.Save(p1);
        if (!save.ok()) return "Save: " + save.ToString();
        Result<core::TableGan> loaded = core::TableGan::Load(p1);
        if (!loaded.ok()) return "Load: " + loaded.status().ToString();
        Status resave = loaded->Save(p2);
        if (!resave.ok()) return "re-Save: " + resave.ToString();
        const std::string b1 = ReadFileBytes(p1);
        const std::string b2 = ReadFileBytes(p2);
        std::remove(p1.c_str());
        std::remove(p2.c_str());
        if (b1.empty() || b1 != b2) {
          return "re-saved checkpoint differs (" + std::to_string(b1.size()) +
                 " vs " + std::to_string(b2.size()) + " bytes)";
        }
        Result<data::Table> s1 = gan.Sample(5);
        if (!s1.ok()) return "Sample(original): " + s1.status().ToString();
        Result<data::Table> s2 = loaded->Sample(5);
        if (!s2.ok()) return "Sample(loaded): " + s2.status().ToString();
        std::string diff = CompareTablesBitwise(*s1, *s2);
        if (!diff.empty()) return "sample divergence: " + diff;
        return "";
      });
}

/// The save -> load -> save identity holds in every loss mode: the v5
/// stability sections (loss/guard options, and for kSpectralNorm the
/// power-iteration u/v state in training checkpoints) round-trip byte
/// for byte, and the reloaded model samples identically.
TEST(PropertyFuzz, LossModeCheckpointRoundTripIsBitwise) {
  const std::string p1 = "property_fuzz_mode_ckpt1.tgan";
  const std::string p2 = "property_fuzz_mode_ckpt2.tgan";
  ForAllSeeds(
      "LossModeCheckpointRoundTripIsBitwise", 0x10D3ULL,
      [&](uint64_t seed) -> std::string {
        TrainSetup s = MakeTrainSetup(seed);
        const auto mode =
            static_cast<core::LossMode>(MixSeeds(seed, 0x3D0ULL) % 3);
        s.options.loss_mode = mode;
        core::TableGan gan(s.options);
        Status fit = gan.Fit(s.table, s.label_col);
        if (!fit.ok()) return "Fit: " + fit.ToString();
        Status save = gan.Save(p1);
        if (!save.ok()) return "Save: " + save.ToString();
        Result<core::TableGan> loaded = core::TableGan::Load(p1);
        if (!loaded.ok()) return "Load: " + loaded.status().ToString();
        if (loaded->options().loss_mode != mode) {
          return "loss mode not round-tripped";
        }
        Status resave = loaded->Save(p2);
        if (!resave.ok()) return "re-Save: " + resave.ToString();
        const std::string b1 = ReadFileBytes(p1);
        const std::string b2 = ReadFileBytes(p2);
        std::remove(p1.c_str());
        std::remove(p2.c_str());
        if (b1.empty() || b1 != b2) {
          return "re-saved checkpoint differs in mode " +
                 std::to_string(static_cast<int>(mode)) + " (" +
                 std::to_string(b1.size()) + " vs " +
                 std::to_string(b2.size()) + " bytes)";
        }
        Result<data::Table> s1 = gan.Sample(4);
        if (!s1.ok()) return "Sample(original): " + s1.status().ToString();
        Result<data::Table> s2 = loaded->Sample(4);
        if (!s2.ok()) return "Sample(loaded): " + s2.status().ToString();
        std::string diff = CompareTablesBitwise(*s1, *s2);
        if (!diff.empty()) return "sample divergence: " + diff;
        return "";
      });
}

/// Sample output is a pure function of (seed, rows emitted, n): one
/// whole-n call and any random chunking of the same total — on a model
/// trained with a different thread count — agree bitwise.
TEST(PropertyFuzz, SampleIsDeterministicUnderChunking) {
  ForAllSeeds(
      "SampleIsDeterministicUnderChunking", 0x5A3DULL,
      [](uint64_t seed) -> std::string {
        TrainSetup s = MakeTrainSetup(seed);
        core::TableGan whole(s.options);
        Status fit1 = whole.Fit(s.table, s.label_col);
        if (!fit1.ok()) return "Fit(whole): " + fit1.ToString();
        core::TableGanOptions chunked_opt = s.options;
        chunked_opt.num_threads = 3;
        core::TableGan chunked(chunked_opt);
        Status fit2 = chunked.Fit(s.table, s.label_col);
        if (!fit2.ok()) return "Fit(chunked): " + fit2.ToString();

        Rng rng(MixSeeds(seed, 0xC4A2ULL));
        const int64_t total = 1 + static_cast<int64_t>(rng.UniformInt(0, 39));
        Result<data::Table> one = whole.Sample(total);
        if (!one.ok()) return "Sample(whole): " + one.status().ToString();
        std::vector<data::Table> parts;
        int64_t remaining = total;
        while (remaining > 0) {
          // Zero- and negative-row requests between chunks must be pure
          // no-ops: empty table out, persisted stream position (and the
          // bytes of every later chunk) untouched.
          if (rng.NextBool(0.5)) {
            Result<data::Table> none =
                chunked.Sample(rng.NextBool(0.5) ? 0 : -3);
            if (!none.ok()) {
              return "Sample(<=0): " + none.status().ToString();
            }
            if (none->num_rows() != 0 ||
                none->schema().num_columns() !=
                    s.table.schema().num_columns()) {
              return "Sample(<=0) not an empty table with the schema";
            }
          }
          const int64_t k = rng.UniformInt(1, remaining);
          Result<data::Table> part = chunked.Sample(k);
          if (!part.ok()) {
            return "Sample(chunk): " + part.status().ToString();
          }
          parts.push_back(std::move(*part));
          remaining -= k;
        }
        Result<data::Table> glued = data::Table::ConcatRows(parts);
        if (!glued.ok()) return "ConcatRows: " + glued.status().ToString();
        std::string diff = CompareTablesBitwise(*one, *glued);
        if (!diff.empty()) {
          return "chunked sampling diverges (total " + std::to_string(total) +
                 "): " + diff;
        }
        return "";
      });
}

/// The runtime-dispatched kernel backend agrees with the scalar
/// reference on random shapes, to the DESIGN.md §12 contract: GEMM and
/// tanh_bwd within an accumulation-scaled multiple of FLT_EPSILON of the
/// exact double-precision result, in both backends. (im2col/col2im and
/// the other activations have one implementation for every backend.) On
/// hosts where dispatch resolves to scalar this degenerates to
/// self-consistency.
TEST(PropertyFuzz, DispatchedKernelsMatchScalarWithinUlpBound) {
  const kernels::Backend& active = kernels::Active();
  const kernels::Backend& scalar = kernels::Scalar();
  ForAllSeeds(
      "DispatchedKernelsMatchScalarWithinUlpBound", 0x51D0ULL,
      [&](uint64_t seed) -> std::string {
        Rng rng(seed);
        auto rand_vec = [&rng](int64_t n) {
          std::vector<float> v(static_cast<size_t>(n));
          for (auto& x : v) {
            x = rng.NextBool(0.10)
                    ? 0.0f
                    : static_cast<float>(rng.Gaussian(0.0, 1.0));
          }
          return v;
        };

        // GEMM: |backend - double_ref| <= 64 eps (sum |terms| + 1).
        const int64_t m = rng.UniformInt(1, 16);
        const int64_t n = rng.UniformInt(1, 48);
        const int64_t k = rng.UniformInt(1, 48);
        const auto a = rand_vec(m * k);
        const auto b = rand_vec(k * n);
        std::vector<float> c_act(static_cast<size_t>(m * n), 0.0f);
        std::vector<float> c_sca(static_cast<size_t>(m * n), 0.0f);
        active.gemm_nn(m, n, k, 1.0f, a.data(), b.data(), c_act.data());
        scalar.gemm_nn(m, n, k, 1.0f, a.data(), b.data(), c_sca.data());
        for (int64_t i = 0; i < m; ++i) {
          for (int64_t j = 0; j < n; ++j) {
            double dref = 0.0, scale = 0.0;
            for (int64_t l = 0; l < k; ++l) {
              const double t =
                  static_cast<double>(a[static_cast<size_t>(i * k + l)]) *
                  b[static_cast<size_t>(l * n + j)];
              dref += t;
              scale += std::abs(t);
            }
            const double bound = 64.0 * FLT_EPSILON * (scale + 1.0);
            const double va = c_act[static_cast<size_t>(i * n + j)];
            const double vs = c_sca[static_cast<size_t>(i * n + j)];
            if (std::abs(va - dref) > bound || std::abs(vs - dref) > bound) {
              std::ostringstream os;
              os.precision(17);
              os << "gemm_nn (" << i << "," << j << ") m=" << m << " n=" << n
                 << " k=" << k << ": active=" << va << " scalar=" << vs
                 << " ref=" << dref << " bound=" << bound;
              return os.str();
            }
          }
        }

        // tanh_bwd: bounded in both backends.
        const int64_t an = rng.UniformInt(1, 200);
        const auto x = rand_vec(an);
        const auto dy = rand_vec(an);
        std::vector<float> ya(static_cast<size_t>(an));
        std::vector<float> ys(static_cast<size_t>(an));
        active.tanh_bwd(an, x.data(), dy.data(), ya.data());
        scalar.tanh_bwd(an, x.data(), dy.data(), ys.data());
        for (int64_t i = 0; i < an; ++i) {
          const double t =
              static_cast<double>(dy[static_cast<size_t>(i)]) *
              (1.0 - static_cast<double>(x[static_cast<size_t>(i)]) *
                         x[static_cast<size_t>(i)]);
          const double bound = 64.0 * FLT_EPSILON * (std::abs(t) + 1.0);
          if (std::abs(ya[static_cast<size_t>(i)] - t) > bound ||
              std::abs(ys[static_cast<size_t>(i)] - t) > bound) {
            return "tanh_bwd out of bound at " + std::to_string(i);
          }
        }
        return "";
      });
}

}  // namespace
}  // namespace tablegan
