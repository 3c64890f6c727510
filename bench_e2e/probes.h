#ifndef TABLEGAN_BENCH_E2E_PROBES_H_
#define TABLEGAN_BENCH_E2E_PROBES_H_

// Replay probes for the traced run: each one times calls into a single
// layer's public functions at the shapes the workload's model uses, after
// the timed phase has ended. They never run in an end-to-end (--trace 0)
// run.

#include <map>
#include <string>

#include "core/table_gan.h"
#include "data/table.h"
#include "e2e_util.h"

namespace tablegan {
namespace e2e {

using MetricMap = std::map<std::string, double>;

/// common.parallel_for_us: one empty ParallelFor over `threads` chunks.
void ProbeParallelFor(int threads, MetricMap* out);

/// nn.*: rebuilds the generator and discriminator with the model's side,
/// latent width and channel count, then times every layer's Forward and
/// Backward at the training batch size (Fit's thread count) and the
/// generator's Infer on one 64-row block on one thread (how
/// GenerateRows runs each block), summed per layer kind (conv, dense,
/// pointwise). Also times one Adam step per network. tensor.*: the
/// serial GEMM, im2col and col2im kernels at every discriminator conv
/// geometry those layers showed, as computed FLOPs or bytes per second.
void ProbeNetworks(const core::TableGan& gan, int threads, Tracer* tracer,
                   MetricMap* out);

/// data.*: batch encoding, matrix packing/unpacking, decoding and CSV
/// writing per row, on the workload's table.
void ProbeData(const data::Table& table, int side, Tracer* tracer,
               MetricMap* out);

/// core.sample_range_us_per_row: SampleRange of 4,096 rows.
void ProbeSampleRange(const core::TableGan& gan, uint64_t seed,
                      Tracer* tracer, MetricMap* out);

/// serve.codec_us: encode + decode of one 64-row request and response.
void ProbeCodec(const core::TableGan& gan, uint64_t seed, MetricMap* out);

/// Seconds one ScopedSpan costs on an enabled tracer.
double SpanCostSeconds();

}  // namespace e2e
}  // namespace tablegan

#endif  // TABLEGAN_BENCH_E2E_PROBES_H_
