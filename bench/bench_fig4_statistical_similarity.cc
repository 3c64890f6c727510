// Reproduces paper Figure 4 (and appendix Figures 7-8): cumulative
// distributions of selected sensitive attributes for table-GAN
// (low/high privacy), the DCGAN baseline and the condensation method.
//
// For each dataset we print the CDF series of the headline sensitive
// attribute (base salary / work class / destination airport id, plus a
// Health attribute from the appendix) for the original table and each
// synthesizer, followed by Kolmogorov-Smirnov distances. Expected shape
// (paper §5.2.1): table-GAN low-privacy tracks the original closely;
// high-privacy sits between; DCGAN and condensation deviate most.

#include <cstdio>
#include <map>

#include "bench/bench_util.h"
#include "common/logging.h"
#include "privacy/condensation.h"

namespace tablegan {
namespace {

constexpr int kCdfPoints = 11;

void PrintSeries(const std::string& label, const std::vector<double>& cdf) {
  std::printf("  %-18s", label.c_str());
  for (double v : cdf) std::printf(" %.2f", v);
  std::printf("\n");
}

void Run() {
  bench::PrintHeader(
      "Figure 4 (+ Figs 7-8): CDFs of sensitive attributes");
  // First attribute per dataset = the Figure 4 headline attribute; the
  // rest cover the appendix Figures 7-8 exhibits with the same trained
  // models.
  const std::map<std::string, std::vector<std::string>> attributes = {
      {"lacity", {"base_salary", "overtime_pay", "pension_contrib"}},
      {"adult", {"workclass", "hours_per_week", "capital_gain"}},
      {"health", {"glucose", "chol_total", "bp_systolic"}},
      {"airline", {"dest_airport_id", "itin_fare", "distance_miles"}},
  };
  std::printf("%-10s %-18s %8s\n", "dataset", "method", "KS-dist");
  for (const std::string& name : data::DatasetNames()) {
    auto ds = bench::LoadBenchDataset(name);
    TABLEGAN_CHECK_OK(ds.status());

    struct MethodResult {
      std::string label;
      data::Table table;
    };
    std::vector<MethodResult> methods;

    auto low = bench::TrainGan(*ds, bench::BenchGanOptions(0.0f, 0.0f));
    TABLEGAN_CHECK_OK(low.status());
    methods.push_back(
        {"ours-low", *low->gan->Sample(ds->train.num_rows())});

    auto high = bench::TrainGan(*ds, bench::BenchGanOptions(0.5f, 0.5f));
    TABLEGAN_CHECK_OK(high.status());
    methods.push_back(
        {"ours-high", *high->gan->Sample(ds->train.num_rows())});

    core::TableGanOptions dcgan_opts = bench::BenchGanOptions(0.0f, 0.0f);
    dcgan_opts.use_info_loss = false;
    dcgan_opts.use_classifier = false;
    auto dcgan = bench::TrainGan(*ds, dcgan_opts);
    TABLEGAN_CHECK_OK(dcgan.status());
    methods.push_back(
        {"dcgan", *dcgan->gan->Sample(ds->train.num_rows())});

    privacy::CondensationOptions cond;
    cond.group_size =
        ds->train.num_rows() >= 200 ? 100 : 50;  // paper settings
    auto condensed = privacy::CondensationSynthesize(ds->train, cond);
    TABLEGAN_CHECK_OK(condensed.status());
    methods.push_back({"condensation", std::move(condensed).value()});

    for (const std::string& attr : attributes.at(name)) {
      const int col = *ds->train.schema().FindColumn(attr);
      const std::vector<double> original =
          bench::ColumnCdf(ds->train, col, kCdfPoints);
      std::printf("\n[%s] attribute '%s' CDF at %d grid points\n",
                  name.c_str(), attr.c_str(), kCdfPoints);
      PrintSeries("original", original);
      for (const auto& m : methods) {
        PrintSeries(m.label, bench::ColumnCdf(m.table, col, kCdfPoints));
      }
      for (const auto& m : methods) {
        const double ks = bench::KsDistance(
            original, bench::ColumnCdf(m.table, col, kCdfPoints));
        std::printf("%-10s %-12s %-18s %8.3f\n", name.c_str(), attr.c_str(),
                    m.label.c_str(), ks);
      }
    }
  }
  std::printf(
      "\nShape check: ours-low should have the smallest KS distance in "
      "each dataset; condensation/DCGAN the largest.\n");
}

}  // namespace
}  // namespace tablegan

int main() {
  tablegan::Run();
  return 0;
}
