// Reproduces paper Table 5: distance to the closest record (DCR),
// mean +/- std after attribute-wise normalization, for QIDs+sensitive
// columns and for sensitive columns only.
//
// Expected shape (paper §5.3.1): ARX's sensitive-only DCR is exactly
// 0 +/- 0 (it never touches sensitive values); sdcMicro is small;
// table-GAN low-privacy is well above both, and high-privacy is above
// low-privacy; DCGAN lands near table-GAN but without the privacy knob.

#include <cstdio>

#include "bench/bench_util.h"
#include "common/logging.h"
#include "privacy/anonymizer.h"
#include "privacy/dcr.h"
#include "privacy/sdc_micro.h"

namespace tablegan {
namespace {

void Run() {
  bench::PrintHeader("Table 5: DCR (mean +/- std, normalized Euclidean)");
  const std::vector<int> widths{10, 15, 22, 22};
  bench::PrintRow({"Dataset", "Method", "QIDs+Sensitive", "SensitiveOnly"},
                  widths);
  for (const std::string& name : data::DatasetNames()) {
    auto ds = bench::LoadBenchDataset(name);
    TABLEGAN_CHECK_OK(ds.status());
    const auto all_cols =
        privacy::QidAndSensitiveColumns(ds->train.schema());
    const auto sens_cols =
        privacy::SensitiveOnlyColumns(ds->train.schema());

    struct Release {
      std::string label;
      data::Table table;
    };
    std::vector<Release> releases;
    auto low = bench::TrainGan(*ds, bench::BenchGanOptions(0.0f, 0.0f));
    TABLEGAN_CHECK_OK(low.status());
    releases.push_back(
        {"ours-low", *low->gan->Sample(ds->train.num_rows())});
    auto high = bench::TrainGan(*ds, bench::BenchGanOptions(0.5f, 0.5f));
    TABLEGAN_CHECK_OK(high.status());
    releases.push_back(
        {"ours-high", *high->gan->Sample(ds->train.num_rows())});
    privacy::ArxOptions arx;
    arx.k = 5;
    arx.t = 0.01;
    auto arx_result = privacy::ArxAnonymize(ds->train, arx);
    TABLEGAN_CHECK_OK(arx_result.status());
    releases.push_back({"arx-best", std::move(arx_result)->released});
    privacy::SdcMicroOptions sdc;
    auto sdc_result = privacy::SdcMicroPerturb(ds->train, sdc);
    TABLEGAN_CHECK_OK(sdc_result.status());
    releases.push_back({"sdcmicro-best", std::move(sdc_result).value()});
    core::TableGanOptions dcgan_opts = bench::BenchGanOptions(0.0f, 0.0f);
    dcgan_opts.use_info_loss = false;
    dcgan_opts.use_classifier = false;
    auto dcgan = bench::TrainGan(*ds, dcgan_opts);
    TABLEGAN_CHECK_OK(dcgan.status());
    releases.push_back(
        {"dcgan", *dcgan->gan->Sample(ds->train.num_rows())});

    for (const auto& release : releases) {
      auto dcr_all = privacy::ComputeDcr(ds->train, release.table, all_cols);
      auto dcr_sens =
          privacy::ComputeDcr(ds->train, release.table, sens_cols);
      TABLEGAN_CHECK_OK(dcr_all.status());
      TABLEGAN_CHECK_OK(dcr_sens.status());
      bench::PrintRow(
          {name, release.label,
           bench::FormatDouble(dcr_all->mean, 2) + " +/- " +
               bench::FormatDouble(dcr_all->stddev, 2),
           bench::FormatDouble(dcr_sens->mean, 2) + " +/- " +
               bench::FormatDouble(dcr_sens->stddev, 2)},
          widths);
    }
  }
  std::printf(
      "\nShape check: arx-best sensitive-only must be 0.00 +/- 0.00; "
      "ours-low >> arx/sdcmicro; ours-high >= ours-low.\n");
}

}  // namespace
}  // namespace tablegan

int main() {
  tablegan::Run();
  return 0;
}
