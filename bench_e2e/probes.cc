#include "probes.h"

#include <cstdio>
#include <vector>

#include "common/logging.h"
#include "common/parallel.h"
#include "core/networks.h"
#include "data/csv.h"
#include "data/gmm_normalizer.h"
#include "data/record_matrix.h"
#include "nn/optimizer.h"
#include "serve/protocol.h"
#include "tensor/kernels/kernels.h"
#include "tensor/workspace.h"

namespace tablegan {
namespace e2e {
namespace {

double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

/// Median over `trials` of the mean seconds per call, each trial calling
/// `fn` until at least `min_trial_s` has passed (one call when 0). One
/// untimed call first, so lazy set-up stays out of the numbers.
template <typename F>
double SecondsPerCall(F&& fn, int trials = 5, double min_trial_s = 0.002) {
  fn();
  std::vector<double> per_call;
  for (int t = 0; t < trials; ++t) {
    int64_t calls = 0;
    const Clock::time_point start = Clock::now();
    double elapsed = 0.0;
    do {
      fn();
      ++calls;
      elapsed = Seconds(Clock::now() - start);
    } while (elapsed < min_trial_s);
    per_call.push_back(elapsed / static_cast<double>(calls));
  }
  return Median(per_call);
}

enum Kind { kConv = 0, kDense = 1, kPointwise = 2 };
constexpr const char* kKindNames[] = {"conv", "dense", "pointwise"};

Kind KindOf(const std::string& layer_name) {
  // Conv2d and ConvTranspose2d.
  if (layer_name.rfind("Conv", 0) == 0) return kConv;
  if (layer_name.rfind("Dense", 0) == 0) return kDense;
  return kPointwise;  // BatchNorm, activations, Reshape, Flatten
}

std::vector<nn::Layer*> LayersOf(std::initializer_list<nn::Sequential*> parts) {
  std::vector<nn::Layer*> out;
  for (nn::Sequential* s : parts) {
    for (int i = 0; i < s->num_layers(); ++i) out.push_back(s->layer(i));
  }
  return out;
}

struct KindTimes {
  double us[3] = {0.0, 0.0, 0.0};
};

/// A discriminator Conv2d as seen during the probe's forward pass.
struct ConvShape {
  ops::Conv2dGeometry g;
  int64_t out_channels = 0;
};

constexpr int kReps = 15;
constexpr int kWarmupReps = 2;

/// Times each layer's Forward (front to back) and Backward (back to
/// front, seeded with ones) over kReps training steps; per-layer medians
/// are summed per kind.
void TimeTrainPasses(const std::vector<nn::Layer*>& layers,
                     const Tensor& input, KindTimes* fwd, KindTimes* bwd,
                     std::vector<ConvShape>* convs) {
  const size_t n = layers.size();
  std::vector<std::vector<double>> tf(n), tb(n);
  for (int r = -kWarmupReps; r < kReps; ++r) {
    std::vector<Tensor> acts;
    acts.reserve(n + 1);
    acts.push_back(input);
    for (size_t i = 0; i < n; ++i) {
      const Clock::time_point t0 = Clock::now();
      Tensor y = layers[i]->Forward(acts[i], /*training=*/true);
      const double s = Seconds(Clock::now() - t0);
      if (r >= 0) tf[i].push_back(s);
      acts.push_back(std::move(y));
    }
    Tensor g(acts.back().shape());
    g.Fill(1.0f);
    for (size_t i = n; i-- > 0;) {
      const Clock::time_point t0 = Clock::now();
      g = layers[i]->Backward(g);
      const double s = Seconds(Clock::now() - t0);
      if (r >= 0) tb[i].push_back(s);
    }
    if (r == 0 && convs != nullptr) {
      for (size_t i = 0; i < n; ++i) {
        long long cin = 0, cout = 0, k = 0, st = 0, p = 0;
        if (std::sscanf(layers[i]->name().c_str(),
                        "Conv2d(%lld->%lld,k%lld,s%lld,p%lld)", &cin, &cout,
                        &k, &st, &p) != 5) {
          continue;
        }
        const Tensor& x = acts[i];
        convs->push_back({{cin, x.dim(2), x.dim(3), k, st, p}, cout});
      }
    }
  }
  for (size_t i = 0; i < n; ++i) {
    const Kind kind = KindOf(layers[i]->name());
    fwd->us[kind] += Median(tf[i]) * 1e6;
    bwd->us[kind] += Median(tb[i]) * 1e6;
  }
}

void TimeInfer(const std::vector<nn::Layer*>& layers, const Tensor& input,
               KindTimes* out) {
  const size_t n = layers.size();
  std::vector<std::vector<double>> t(n);
  for (int r = -kWarmupReps; r < kReps; ++r) {
    Tensor x = input;
    for (size_t i = 0; i < n; ++i) {
      const Clock::time_point t0 = Clock::now();
      x = layers[i]->Infer(x);
      if (r >= 0) t[i].push_back(Seconds(Clock::now() - t0));
    }
  }
  for (size_t i = 0; i < n; ++i) {
    out->us[KindOf(layers[i]->name())] += Median(t[i]) * 1e6;
  }
}

std::vector<float> RandomBuffer(int64_t n, Rng* rng) {
  std::vector<float> v(static_cast<size_t>(n));
  for (float& x : v) x = static_cast<float>(rng->Uniform(-1.0, 1.0));
  return v;
}

/// Serial backend kernels at the discriminator's conv geometries, one
/// image per call, exactly as each Conv2d chunk calls them.
void ProbeKernels(const std::vector<ConvShape>& convs, MetricMap* out) {
  const kernels::Backend& be = kernels::Active();
  Rng rng(17);
  double flops = 0.0, bytes = 0.0;
  double s_nn = 0.0, s_nt = 0.0, s_tn = 0.0, s_im2col = 0.0, s_col2im = 0.0;
  for (const ConvShape& c : convs) {
    const int64_t m = c.out_channels, patch = c.g.patch_size();
    const int64_t spatial = c.g.out_h() * c.g.out_w();
    const int64_t image = c.g.in_channels * c.g.in_h * c.g.in_w;
    std::vector<float> w = RandomBuffer(m * patch, &rng);
    std::vector<float> cols = RandomBuffer(patch * spatial, &rng);
    std::vector<float> dout = RandomBuffer(m * spatial, &rng);
    std::vector<float> dw(static_cast<size_t>(m * patch));
    std::vector<float> img = RandomBuffer(image, &rng);
    std::vector<float> y(static_cast<size_t>(m * spatial));
    // Forward: y = W * cols. Weight gradient: dW += dOut * cols^T.
    // Input gradient: dCols = W^T * dOut.
    s_nn += SecondsPerCall([&] {
      be.gemm_nn(m, spatial, patch, 1.0f, w.data(), cols.data(), y.data());
    });
    s_nt += SecondsPerCall([&] {
      be.gemm_nt(m, patch, spatial, dout.data(), cols.data(), dw.data(),
                 /*accumulate=*/true);
    });
    s_tn += SecondsPerCall([&] {
      be.gemm_tn(0, patch, patch, spatial, m, w.data(), dout.data(),
                 cols.data());
    });
    s_im2col +=
        SecondsPerCall([&] { be.im2col(c.g, img.data(), cols.data()); });
    s_col2im +=
        SecondsPerCall([&] { be.col2im(c.g, cols.data(), img.data()); });
    flops += 2.0 * static_cast<double>(m * spatial * patch);
    bytes += 4.0 * static_cast<double>(image + patch * spatial);
  }
  (*out)["tensor.gemm_nn_gflops"] = flops / s_nn * 1e-9;
  (*out)["tensor.gemm_nt_gflops"] = flops / s_nt * 1e-9;
  (*out)["tensor.gemm_tn_gflops"] = flops / s_tn * 1e-9;
  (*out)["tensor.im2col_gbytes_per_s"] = bytes / s_im2col * 1e-9;
  (*out)["tensor.col2im_gbytes_per_s"] = bytes / s_col2im * 1e-9;
}

void StoreKinds(const std::string& prefix, const char* pass,
                const KindTimes& t, MetricMap* out) {
  for (int k = 0; k < 3; ++k) {
    (*out)[prefix + kKindNames[k] + "." + pass + "_us"] = t.us[k];
  }
}

}  // namespace

void ProbeParallelFor(int threads, MetricMap* out) {
  ScopedNumThreads scoped(threads);
  (*out)["common.parallel_for_us"] =
      SecondsPerCall([&] { ParallelFor(threads, 1, [](int64_t, int64_t) {}); },
                     7, 0.005) *
      1e6;
}

void ProbeNetworks(const core::TableGan& gan, int threads, Tracer* tracer,
                   MetricMap* out) {
  ScopedSpan span(tracer, "probe.nn");
  const core::TableGanOptions& o = gan.options();
  const int side = gan.side();
  const int64_t batch = o.batch_size;
  // Declared before the networks so it outlives every pooled tensor they
  // hold, as in TableGan.
  Workspace ws;
  Rng rng(o.seed);
  std::unique_ptr<nn::Sequential> gen =
      core::BuildGenerator(side, o.latent_dim, o.base_channels, &rng);
  core::TwoPartNet disc = core::BuildDiscriminator(side, o.base_channels, &rng);
  gen->SetWorkspace(&ws);
  disc.features->SetWorkspace(&ws);
  disc.head->SetWorkspace(&ws);

  Tensor z({batch, o.latent_dim});
  z.FillUniform(-1.0f, 1.0f, &rng);
  Tensor x({batch, 1, side, side});
  x.FillUniform(-1.0f, 1.0f, &rng);
  const std::vector<nn::Layer*> g_layers = LayersOf({gen.get()});
  const std::vector<nn::Layer*> d_layers =
      LayersOf({disc.features.get(), disc.head.get()});

  KindTimes g_fwd, g_bwd, g_infer, d_fwd, d_bwd;
  std::vector<ConvShape> convs;
  {
    ScopedNumThreads scoped(threads);
    TimeTrainPasses(g_layers, z, &g_fwd, &g_bwd, nullptr);
    TimeTrainPasses(d_layers, x, &d_fwd, &d_bwd, &convs);
  }
  {
    ScopedNumThreads scoped(1);
    Tensor block({64, o.latent_dim});
    block.FillUniform(-1.0f, 1.0f, &rng);
    TimeInfer(g_layers, block, &g_infer);
  }
  StoreKinds("nn.G.", "fwd", g_fwd, out);
  StoreKinds("nn.G.", "bwd", g_bwd, out);
  StoreKinds("nn.G.", "infer", g_infer, out);
  StoreKinds("nn.D.", "fwd", d_fwd, out);
  StoreKinds("nn.D.", "bwd", d_bwd, out);

  {
    ScopedNumThreads scoped(threads);
    nn::Adam adam_g(gen->Parameters(), gen->Gradients(), o.learning_rate,
                    o.adam_beta1, o.adam_beta2);
    nn::Adam adam_d(disc.Parameters(), disc.Gradients(), o.learning_rate,
                    o.adam_beta1, o.adam_beta2);
    (*out)["nn.adam_step_us.G"] = SecondsPerCall([&] { adam_g.Step(); }) * 1e6;
    (*out)["nn.adam_step_us.D"] = SecondsPerCall([&] { adam_d.Step(); }) * 1e6;
  }

  ScopedSpan kernel_span(tracer, "probe.tensor", span.id());
  ProbeKernels(convs, out);
}

void ProbeData(const data::Table& table, int side, Tracer* tracer,
               MetricMap* out) {
  ScopedSpan span(tracer, "probe.data");
  data::RecordNormalizer norm;
  TABLEGAN_CHECK_OK(norm.Fit(table));
  const int64_t cells = static_cast<int64_t>(side) * side;
  constexpr int64_t kBatch = 64;
  Rng rng(29);
  std::vector<int64_t> batch_rows(kBatch);
  for (int64_t& r : batch_rows) {
    r = static_cast<int64_t>(
        rng.NextUint64(static_cast<uint64_t>(table.num_rows())));
  }
  std::vector<float> batch(static_cast<size_t>(kBatch * cells));
  (*out)["data.encode_rows_ns_per_row"] =
      SecondsPerCall([&] {
        norm.EncodeRowsInto(table, batch_rows.data(), kBatch, batch.data(),
                            cells);
      }) /
      kBatch * 1e9;

  const int64_t n = std::min<int64_t>(4096, table.num_rows());
  std::vector<int64_t> first(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) first[static_cast<size_t>(i)] = i;
  const data::Table part = table.SelectRows(first);
  Result<Tensor> encoded = norm.Transform(part);
  TABLEGAN_CHECK_OK(encoded.status());
  const data::RecordMatrixCodec codec(norm.encoded_width(), side);
  Result<Tensor> matrices = codec.ToMatrices(*encoded);
  TABLEGAN_CHECK_OK(matrices.status());
  const double per_row = 1e9 / static_cast<double>(n);
  (*out)["data.to_matrices_ns_per_row"] =
      SecondsPerCall([&] { (void)codec.ToMatrices(*encoded); }) * per_row;
  (*out)["data.from_matrices_ns_per_row"] =
      SecondsPerCall([&] { (void)codec.FromMatrices(*matrices); }) * per_row;
  (*out)["data.inverse_transform_ns_per_row"] =
      SecondsPerCall([&] {
        (void)norm.InverseTransform(*encoded, table.schema());
      }) *
      per_row;
  (*out)["data.write_csv_ns_per_row"] =
      SecondsPerCall([&] { (void)data::WriteCsvToString(part, false); }) *
      per_row;
}

void ProbeSampleRange(const core::TableGan& gan, uint64_t seed,
                      Tracer* tracer, MetricMap* out) {
  ScopedSpan span(tracer, "probe.core");
  constexpr int64_t kRows = 4096;
  (*out)["core.sample_range_us_per_row"] =
      SecondsPerCall([&] { (void)gan.SampleRange(seed, 0, kRows); }, 3, 0.0) /
      kRows * 1e6;
}

void ProbeCodec(const core::TableGan& gan, uint64_t seed, MetricMap* out) {
  Result<data::Table> rows = gan.SampleRange(seed, 0, 64);
  TABLEGAN_CHECK_OK(rows.status());
  Result<std::string> csv = data::WriteCsvToString(*rows, false);
  TABLEGAN_CHECK_OK(csv.status());
  serve::SampleRequest req;
  req.model_id = "bench";
  req.seed = seed;
  req.row_end = 64;
  req.format = serve::Format::kCsvNoHeader;
  serve::SampleResponse resp;
  resp.payload = *csv;
  (*out)["serve.codec_us"] =
      SecondsPerCall([&] {
        (void)serve::DecodeRequest(serve::EncodeRequest(req));
        (void)serve::DecodeResponse(serve::EncodeResponse(resp));
      }) *
      1e6;
}

double SpanCostSeconds() {
  Tracer scratch(true);
  return SecondsPerCall([&] { ScopedSpan s(&scratch, "span"); }, 5, 0.001);
}

}  // namespace e2e
}  // namespace tablegan
