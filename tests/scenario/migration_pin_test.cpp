// Coverage pins for the suites migrated onto the product-set engine: the
// axis products must equal the cell counts of the hand-rolled loops they
// replaced (and the option values must be the same points). A failing pin
// means a migration silently changed test coverage.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "core/scenario.hpp"
#include "random/kernel_variant.hpp"

#include "test_axes.hpp"

namespace sgp::test_axes {
namespace {

TEST(MigrationPins, SlowShardThreadMatrixKeepsTwelveCells) {
  // tests/slow/differential_matrix_test.cpp used to INSTANTIATE a gtest
  // Combine over shard heights {1, 7, 64, 700} × threads {1, 2, 8}.
  EXPECT_EQ(sgp_axis_diff_shard_rows().size(), 4u);
  EXPECT_EQ(sgp_axis_diff_threads().size(), 3u);
  EXPECT_EQ(sgp_axis_diff_shard_rows().size() * sgp_axis_diff_threads().size(),
            12u);

  std::vector<std::size_t> rows;
  for (const auto& o : sgp_axis_diff_shard_rows().options) {
    rows.push_back(o.value);
  }
  EXPECT_EQ(rows, (std::vector<std::size_t>{1, 7, 64, kDiffNodes}));
  std::vector<std::size_t> threads;
  for (const auto& o : sgp_axis_diff_threads().options) {
    threads.push_back(o.value);
  }
  EXPECT_EQ(threads, (std::vector<std::size_t>{1, 2, 8}));
}

TEST(MigrationPins, SlowKernelMatrixKeepsTwentyFourCells) {
  // Variants {scalar, generic, avx2, avx512} × shard heights {7, 64, 700} ×
  // threads {1, 8}.
  EXPECT_EQ(sgp_axis_kernel_variants().size(), 4u);
  EXPECT_EQ(sgp_axis_kernel_matrix_shard_rows().size(), 3u);
  EXPECT_EQ(sgp_axis_kernel_matrix_threads().size(), 2u);
  EXPECT_EQ(sgp_axis_kernel_variants().size() *
                sgp_axis_kernel_matrix_shard_rows().size() *
                sgp_axis_kernel_matrix_threads().size(),
            24u);

  std::set<sgp::random::KernelVariant> variants;
  for (const auto& o : sgp_axis_kernel_variants().options) {
    variants.insert(o.value);
  }
  EXPECT_TRUE(variants.count(sgp::random::KernelVariant::kScalar));
  EXPECT_TRUE(variants.count(sgp::random::KernelVariant::kGeneric));
  EXPECT_TRUE(variants.count(sgp::random::KernelVariant::kAvx2));
  EXPECT_TRUE(variants.count(sgp::random::KernelVariant::kAvx512));
}

TEST(MigrationPins, CompactIdShardAxisKeepsThreeCells) {
  std::vector<std::size_t> rows;
  for (const auto& o : sgp_axis_compact_shard_rows().options) {
    rows.push_back(o.value);
  }
  EXPECT_EQ(rows, (std::vector<std::size_t>{1, 17, 300}));
}

TEST(MigrationPins, KernelDifferentialSliceKeepsThreeCells) {
  // tests/integration/kernel_differential_test.cpp used to loop over the
  // initializer list {{7,1}, {16,3}, {0,4}}.
  const auto& axis = sgp_axis_kernel_diff_shard_thread();
  ASSERT_EQ(axis.size(), 3u);
  EXPECT_EQ(axis.options[0].value, (ShardThread{7, 1}));
  EXPECT_EQ(axis.options[1].value, (ShardThread{16, 3}));
  EXPECT_EQ(axis.options[2].value, (ShardThread{0, 4}));
}

TEST(MigrationPins, DeepStatisticalAxesKeepTheirCells) {
  // tests/slow/statistical_deep_test.cpp used to loop over polynomial
  // variants {generic, avx2, avx512} and lags {1, 64, 4096}.
  EXPECT_EQ(sgp_axis_poly_kernel_variants().size(), 3u);
  std::vector<std::uint64_t> lags;
  for (const auto& o : sgp_axis_noise_lags().options) lags.push_back(o.value);
  EXPECT_EQ(lags, (std::vector<std::uint64_t>{1, 64, 4096}));
}

}  // namespace
}  // namespace sgp::test_axes
