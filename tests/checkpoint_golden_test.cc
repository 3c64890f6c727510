// Cross-version checkpoint compatibility: tiny version-3 and version-5
// checkpoints committed under tests/data/ must keep loading under the
// current reader, sample the way their format says (a v3 file carries
// no stream position), and upgrade to the current format without
// changing a sampled bit. Only the current format is written, so these
// fixtures are the whole record of the legacy layouts.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "core/table_gan.h"
#include "data/table.h"

#ifndef TABLEGAN_TEST_DATA_DIR
#error "TABLEGAN_TEST_DATA_DIR must be defined by the build"
#endif

namespace tablegan {
namespace {

const char kFixture[] = TABLEGAN_TEST_DATA_DIR "/tiny_v3.tgan";
const char kFixtureV5[] = TABLEGAN_TEST_DATA_DIR "/tiny_v5.tgan";

TEST(CheckpointGoldenTest, V3FixtureLoads) {
  Result<core::TableGan> loaded = core::TableGan::Load(kFixture);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(loaded->fitted());
  EXPECT_EQ(loaded->label_col(), 3);
  EXPECT_EQ(loaded->options().latent_dim, 4);
  EXPECT_EQ(loaded->options().seed, 20260806u);
}

// A v3 file has no sampling-stream counters, so the loaded model starts
// the stream of its seed from row 0 (the pre-v4 behavior).
TEST(CheckpointGoldenTest, V3FixtureSamplesFromStreamStart) {
  Result<core::TableGan> loaded = core::TableGan::Load(kFixture);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  Result<data::Table> range =
      loaded->SampleRange(loaded->options().seed, 0, 14);
  Result<data::Table> sampled = loaded->Sample(14);
  ASSERT_TRUE(range.ok()) << range.status().ToString();
  ASSERT_TRUE(sampled.ok()) << sampled.status().ToString();
  ASSERT_EQ(range->num_rows(), 14);
  ASSERT_EQ(range->num_columns(), sampled->num_columns());
  for (int c = 0; c < range->num_columns(); ++c) {
    for (int64_t r = 0; r < range->num_rows(); ++r) {
      ASSERT_EQ(range->Get(r, c), sampled->Get(r, c))
          << "v3 stream does not start at row 0: (" << r << ", " << c << ")";
    }
  }
}

TEST(CheckpointGoldenTest, V3UpgradesToV4AndSamplesIdentically) {
  Result<core::TableGan> from_v3 = core::TableGan::Load(kFixture);
  ASSERT_TRUE(from_v3.ok()) << from_v3.status().ToString();
  // Upgrade: re-save in the current format, reload, and compare the
  // sampling streams. A v3 file carries no stream counters, so the
  // upgraded model must continue exactly where the v3 defaults start.
  const std::string upgraded = "golden_upgraded_v4.tgan";
  ASSERT_TRUE(from_v3->Save(upgraded).ok());
  Result<core::TableGan> from_v4 = core::TableGan::Load(upgraded);
  std::remove(upgraded.c_str());
  ASSERT_TRUE(from_v4.ok()) << from_v4.status().ToString();

  Result<data::Table> a = from_v3->Sample(16);
  Result<data::Table> b = from_v4->Sample(16);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  ASSERT_EQ(a->num_rows(), b->num_rows());
  ASSERT_EQ(a->num_columns(), b->num_columns());
  for (int c = 0; c < a->num_columns(); ++c) {
    for (int64_t r = 0; r < a->num_rows(); ++r) {
      ASSERT_EQ(a->Get(r, c), b->Get(r, c))
          << "sample divergence at (" << r << ", " << c << ")";
    }
  }
}

// --- v5 fixture (trained before the conditional/GMM section existed).

TEST(CheckpointGoldenTest, V5FixtureLoads) {
  Result<core::TableGan> loaded = core::TableGan::Load(kFixtureV5);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(loaded->fitted());
  EXPECT_EQ(loaded->label_col(), 3);
  EXPECT_EQ(loaded->options().seed, 20260806u);
  // A pre-v6 model is unconditional and all-min-max by construction.
  EXPECT_FALSE(loaded->options().conditional);
  EXPECT_TRUE(loaded->options().gmm_columns.empty());
}

TEST(CheckpointGoldenTest, V5UpgradesToV6AndSamplesIdentically) {
  Result<core::TableGan> from_v5 = core::TableGan::Load(kFixtureV5);
  ASSERT_TRUE(from_v5.ok()) << from_v5.status().ToString();
  // Upgrade: re-save in v6 (which appends the conditional/GMM section
  // in its empty, all-defaults form), reload, and compare the
  // unconditional sampling streams bit for bit.
  const std::string upgraded = "golden_upgraded_v6.tgan";
  ASSERT_TRUE(from_v5->Save(upgraded).ok());
  Result<core::TableGan> from_v6 = core::TableGan::Load(upgraded);
  std::remove(upgraded.c_str());
  ASSERT_TRUE(from_v6.ok()) << from_v6.status().ToString();

  Result<data::Table> a = from_v5->Sample(16);
  Result<data::Table> b = from_v6->Sample(16);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  ASSERT_EQ(a->num_rows(), b->num_rows());
  ASSERT_EQ(a->num_columns(), b->num_columns());
  for (int c = 0; c < a->num_columns(); ++c) {
    for (int64_t r = 0; r < a->num_rows(); ++r) {
      ASSERT_EQ(a->Get(r, c), b->Get(r, c))
          << "sample divergence at (" << r << ", " << c << ")";
    }
  }
}

}  // namespace
}  // namespace tablegan
