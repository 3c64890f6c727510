// Reproduces paper Table 4: table-GAN training time per dataset.
//
// The paper trained on a GTX970 GPU (3.9 / 8.16 / 1.9 / 20.2 minutes for
// LACity / Adult / Health / Airline, using the multi-chunk mode for
// Airline). Our substrate is a single CPU core on scaled-down tables, so
// absolute times differ; the property under test is the *ordering*:
// Health < LACity < Adult << Airline per row processed, and that the
// multi-chunk path (paper §4.4) divides Airline's cost across chunks.

#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/logging.h"
#include "common/stopwatch.h"
#include "core/chunked.h"

namespace tablegan {
namespace {

void Run() {
  bench::PrintHeader("Table 4: Training time of table-GAN");
  const std::vector<int> widths{10, 12, 12, 14, 16, 18};
  bench::PrintRow({"Dataset", "Rows", "Side", "Epochs", "TrainSeconds",
                   "PaperMinutes(GPU)"},
                  widths);
  const double paper_minutes[] = {3.9, 8.16, 1.9, 20.2};
  int i = 0;
  for (const std::string& name : data::DatasetNames()) {
    auto ds = bench::LoadBenchDataset(name);
    TABLEGAN_CHECK_OK(ds.status());
    core::TableGanOptions options = bench::BenchGanOptions(0.0f, 0.0f);
    double seconds = 0.0;
    int side = 0;
    if (name == "airline") {
      // Multi-chunk parallel mode, as the paper uses for Airline.
      core::ChunkedSynthesisOptions chunked;
      chunked.gan = options;
      chunked.num_chunks = 2;
      chunked.num_threads = 1;  // single-core host
      Stopwatch watch;
      auto synth = core::ChunkedTrainAndSynthesize(
          ds->train, ds->label_col, ds->train.num_rows(), chunked);
      TABLEGAN_CHECK_OK(synth.status());
      seconds = watch.ElapsedSeconds();
      side = data::RecordMatrixCodec::ChooseSide(ds->train.num_columns());
    } else {
      auto trained = bench::TrainGan(*ds, options);
      TABLEGAN_CHECK_OK(trained.status());
      seconds = trained->seconds;
      side = trained->gan->side();
    }
    bench::PrintRow({name, std::to_string(ds->train.num_rows()),
                     std::to_string(side), std::to_string(options.epochs),
                     bench::FormatDouble(seconds, 1),
                     bench::FormatDouble(paper_minutes[i], 1)},
                    widths);
    ++i;
  }
  std::printf(
      "\nShape check: training cost tracks rows x matrix size; Airline "
      "uses the chunked path (2 chunks).\n");
}

}  // namespace
}  // namespace tablegan

int main() {
  tablegan::Run();
  return 0;
}
