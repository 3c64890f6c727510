#include "e2e_util.h"

#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>

#include "tests/strict_json.h"

namespace tablegan {
namespace e2e {
namespace {

using testing_util::JsonValue;
using testing_util::ParseStrict;

TEST(StatsTest, Median) {
  EXPECT_EQ(Median({}), 0.0);
  EXPECT_EQ(Median({3.0}), 3.0);
  EXPECT_EQ(Median({5.0, 1.0, 3.0}), 3.0);
  EXPECT_EQ(Median({4.0, 1.0, 3.0, 2.0}), 2.5);
}

// Expected values are Python's statistics.quantiles(v, n=4)[0] and [2].
TEST(StatsTest, QuartilesMatchPythonExclusiveMethod) {
  Quartiles q = ComputeQuartiles({4.0, 3.0, 2.0, 1.0});
  EXPECT_DOUBLE_EQ(q.q1, 1.25);
  EXPECT_DOUBLE_EQ(q.q3, 3.75);
  q = ComputeQuartiles({1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
  EXPECT_DOUBLE_EQ(q.q1, 2.75);
  EXPECT_DOUBLE_EQ(q.q3, 8.25);
  q = ComputeQuartiles({10.0, 20.0});  // extrapolates past the ends
  EXPECT_DOUBLE_EQ(q.q1, 7.5);
  EXPECT_DOUBLE_EQ(q.q3, 22.5);
}

TEST(StatsTest, NearestRankPercentile) {
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(1001 - i);
  EXPECT_EQ(PercentileNearestRank(v, 500), 500.0);
  EXPECT_EQ(PercentileNearestRank(v, 990), 990.0);
  EXPECT_EQ(PercentileNearestRank(v, 1000), 1000.0);
  EXPECT_EQ(PercentileNearestRank({7.0}, 990), 7.0);
}

// A percentile is reported only with at least 10 samples beyond it; each
// pair sits on either side of a boundary.
TEST(StatsTest, HighestSupportedPercentileBoundaries) {
  EXPECT_EQ(SamplesBeyond(1000, 990), 10);
  EXPECT_EQ(SamplesBeyond(999, 990), 9);
  EXPECT_EQ(HighestSupportedPermille(19), 0);
  EXPECT_EQ(HighestSupportedPermille(20), 500);
  EXPECT_EQ(HighestSupportedPermille(99), 500);
  EXPECT_EQ(HighestSupportedPermille(100), 900);
  EXPECT_EQ(HighestSupportedPermille(199), 900);
  EXPECT_EQ(HighestSupportedPermille(200), 950);
  EXPECT_EQ(HighestSupportedPermille(999), 950);
  EXPECT_EQ(HighestSupportedPermille(1000), 990);
  EXPECT_EQ(HighestSupportedPermille(9999), 990);
  EXPECT_EQ(HighestSupportedPermille(10000), 999);
}

TEST(ResultJsonTest, LineHasExactlyTheContractKeys) {
  RunResult r;
  r.workload = "w";
  r.attempted = 12;
  r.failed = 0;
  r.values["setup_s"] = 0.8127;
  r.values["rows_per_s"] = 12345.678901234567;
  const std::vector<MetricInfo> metrics = {{"setup_s", "s", "lower"},
                                           {"rows_per_s", "rows/s", "higher"}};
  std::optional<JsonValue> v = ParseStrict(ResultLineJson(r, metrics));
  ASSERT_TRUE(v.has_value());
  ASSERT_EQ(v->object.size(), 4u);
  EXPECT_EQ(v->object[0].first, "correct");
  EXPECT_TRUE(v->Find("correct")->bool_value);
  EXPECT_EQ(v->Find("attempted")->number_value, 12);
  EXPECT_EQ(v->Find("failed")->number_value, 0);
  const JsonValue* rows = v->Find("metrics")->Find("rows_per_s");
  ASSERT_NE(rows, nullptr);
  EXPECT_EQ(rows->Find("value")->number_value, 12345.678901234567);
  EXPECT_EQ(rows->Find("unit")->string_value, "rows/s");
}

TEST(ResultJsonTest, MissingOrNonFiniteValuesAreNullAndFailedRunsIncorrect) {
  RunResult r;
  r.attempted = 3;
  r.failed = 1;
  r.values["a"] = std::numeric_limits<double>::quiet_NaN();
  const std::vector<MetricInfo> metrics = {{"a", "ms", "lower"},
                                           {"b", "ms", "lower"}};
  std::optional<JsonValue> v = ParseStrict(ResultLineJson(r, metrics));
  ASSERT_TRUE(v.has_value());  // no bare nan token
  EXPECT_FALSE(v->Find("correct")->bool_value);
  const JsonValue* m = v->Find("metrics");
  EXPECT_EQ(m->Find("a")->Find("value")->kind, JsonValue::Kind::kNull);
  EXPECT_EQ(m->Find("b")->Find("value")->kind, JsonValue::Kind::kNull);
}

TEST(ResultJsonTest, ReportCarriesSamplesSpreadAndHostProvenance) {
  RunResult r;
  r.workload = "synth-lacity-bulk";
  r.attempted = 1;
  r.SetMedian("op_p50_ms", {1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
  std::optional<JsonValue> v =
      ParseStrict(ReportJson(r, EndToEndMetrics(), 7, 20.0, false));
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->Find("seed")->number_value, 7);
  EXPECT_EQ(v->Find("metrics")->Find("op_p50_ms")->Find("value")->number_value,
            5.5);
  EXPECT_EQ(v->Find("samples")->Find("op_p50_ms")->number_value, 10);
  // (8.25 - 2.75) / 5.5
  EXPECT_DOUBLE_EQ(v->Find("spread")->Find("op_p50_ms")->number_value, 1.0);
  const JsonValue* host = v->Find("host");
  ASSERT_NE(host, nullptr);
  for (const char* key : {"nproc", "isa", "compiler", "build_type"}) {
    ASSERT_NE(host->Find(key), nullptr) << key;
    EXPECT_FALSE(host->Find(key)->string_value.empty()) << key;
  }
}

TEST(TracerTest, WritesChromeTraceWithParentLinks) {
  Tracer tracer(true);
  int64_t parent = 0;
  {
    ScopedSpan outer(&tracer, "outer", 0, 3);
    parent = outer.id();
    ScopedSpan inner(&tracer, "inner", outer.id(), 3);
  }
  ASSERT_EQ(tracer.size(), 2u);
  std::ostringstream os;
  tracer.WriteChromeJson(os, {{"workload", "w"}});
  std::optional<JsonValue> v = ParseStrict(os.str());
  ASSERT_TRUE(v.has_value());
  const JsonValue* events = v->Find("traceEvents");
  ASSERT_EQ(events->array.size(), 2u);
  const JsonValue& inner = events->array[0];  // ends first
  EXPECT_EQ(inner.Find("name")->string_value, "inner");
  EXPECT_EQ(inner.Find("ph")->string_value, "X");
  EXPECT_EQ(inner.Find("tid")->number_value, 3);
  EXPECT_EQ(inner.Find("args")->Find("parent")->number_value, parent);
  EXPECT_GE(inner.Find("dur")->number_value, 0.0);
  EXPECT_EQ(v->Find("metadata")->Find("workload")->string_value, "w");
}

TEST(TracerTest, DisabledTracerRecordsNothing) {
  Tracer tracer(false);
  { ScopedSpan s(&tracer, "x"); }
  EXPECT_EQ(tracer.size(), 0u);
}

void ExpectSameMetrics(const JsonValue& described, const JsonValue& declared,
                       const char* section) {
  const JsonValue* a = described.Find(section);
  const JsonValue* b = declared.Find(section);
  ASSERT_NE(a, nullptr) << section;
  ASSERT_NE(b, nullptr) << section;
  ASSERT_EQ(a->array.size(), b->array.size()) << section;
  for (size_t i = 0; i < a->array.size(); ++i) {
    for (const char* key : {"name", "unit", "better"}) {
      EXPECT_EQ(a->array[i].Find(key)->string_value,
                b->array[i].Find(key)->string_value)
          << section << "[" << i << "]." << key;
    }
  }
}

// `bench_e2e --describe` and BENCHMARK.json must name the same
// workloads and metrics, in the same order, with the same units and
// directions, so the two cannot drift apart.
TEST(DescribeTest, MatchesBenchmarkJson) {
  std::ostringstream os;
  WriteDescribeJson(os);
  std::optional<JsonValue> described = ParseStrict(os.str());
  ASSERT_TRUE(described.has_value());

  std::ifstream in(TABLEGAN_BENCHMARK_JSON);
  ASSERT_TRUE(in.good()) << TABLEGAN_BENCHMARK_JSON;
  std::stringstream text;
  text << in.rdbuf();
  std::optional<JsonValue> declared = ParseStrict(text.str());
  ASSERT_TRUE(declared.has_value()) << "BENCHMARK.json is not strict JSON";

  const JsonValue* dw = described->Find("workloads");
  const JsonValue* bw = declared->Find("workloads");
  ASSERT_NE(bw, nullptr);
  ASSERT_EQ(dw->array.size(), bw->array.size());
  for (size_t i = 0; i < dw->array.size(); ++i) {
    EXPECT_EQ(dw->array[i].Find("name")->string_value,
              bw->array[i].Find("name")->string_value);
    EXPECT_EQ(dw->array[i].Find("why")->string_value,
              bw->array[i].Find("why")->string_value);
  }
  ExpectSameMetrics(*described, *declared, "end_to_end");
  ExpectSameMetrics(*described, *declared, "per_layer");
}

}  // namespace
}  // namespace e2e
}  // namespace tablegan
